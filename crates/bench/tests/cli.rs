//! Exit-code contract of the `repro` command line: a wrong command line
//! prints the usage banner and exits 2; a failing gate prints only its
//! message and exits 1.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro")
}

#[test]
fn bad_flags_are_usage_errors() {
    // The pipelined and sharded detection flags are gone, not ignored.
    for args in [
        &["perf", "--no-such-flag"][..],
        &["perf", "--pipeline"],
        &["perf", "--detect-workers", "2"],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage:"),
            "{args:?}"
        );
    }
}

/// A baseline that carries one section more than a bare `perf` run
/// produces, so the drift gate must fail.
fn baseline_with_extra_section(dir: &std::path::Path) -> String {
    let out = repro(&[
        "perf", "--json", "--scale", "small", "--bench", "crypt", "--reps", "1",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut report =
        bigfoot_obs::json::parse(&String::from_utf8_lossy(&out.stdout)).expect("perf JSON");
    report.set("extra_section", bigfoot_obs::json::Json::object());
    let path = dir.join("baseline-extra-section.json");
    std::fs::write(&path, report.to_string_pretty()).unwrap();
    path.to_string_lossy().into_owned()
}

#[test]
fn failing_drift_gate_exits_1_without_the_banner() {
    let dir = std::env::temp_dir().join(format!("repro-cli-tests-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let baseline = baseline_with_extra_section(&dir);
    let out = repro(&[
        "perf", "--scale", "small", "--bench", "crypt", "--reps", "1", "--check", &baseline,
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("extra_section"), "{stderr}");
    assert!(!stderr.contains("usage:"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_baseline_is_an_io_failure_not_a_usage_error() {
    let out = repro(&[
        "perf",
        "--scale",
        "small",
        "--bench",
        "crypt",
        "--reps",
        "1",
        "--check",
        "/definitely/missing/BENCH.json",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("cannot read baseline"), "{stderr}");
    assert!(!stderr.contains("usage:"), "{stderr}");
}
