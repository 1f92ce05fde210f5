//! Integration tests for the `bfc` command line, driving the real binary.

use std::io::Write;
use std::process::{Command, Output};

fn bfc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bfc"))
        .args(args)
        .output()
        .expect("run bfc")
}

fn write_program(name: &str, src: &str) -> String {
    let dir = std::env::temp_dir().join("bfc-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(src.as_bytes()).unwrap();
    path.to_string_lossy().into_owned()
}

const RACY: &str = "
    class C { field x; meth poke(v) { this.x = v; return 0; } }
    main {
        c = new C;
        fork t1 = c.poke(1);
        fork t2 = c.poke(2);
        join(t1); join(t2);
    }";

const CLEAN: &str = "
    main {
        a = new_array(16);
        for (i = 0; i < 16; i = i + 1) { a[i] = i; }
        total = 0;
        for (i = 0; i < 16; i = i + 1) { total = total + a[i]; }
    }";

#[test]
fn check_exit_codes_signal_races() {
    let racy = write_program("racy.bfj", RACY);
    let clean = write_program("clean.bfj", CLEAN);
    let out = bfc(&["check", &racy]);
    assert_eq!(out.status.code(), Some(1), "racy program must exit 1");
    assert!(String::from_utf8_lossy(&out.stdout).contains("race"));
    let out = bfc(&["check", &clean]);
    assert_eq!(out.status.code(), Some(0), "clean program must exit 0");
    assert!(String::from_utf8_lossy(&out.stdout).contains("no races"));
}

#[test]
fn instrument_output_reparses_and_runs() {
    let clean = write_program("clean2.bfj", CLEAN);
    let out = bfc(&["instrument", &clean]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("check("), "{text}");
    // Round-trip: the printed program is valid BFJ and runs identically.
    let round = write_program("clean2-inst.bfj", &text);
    let out = bfc(&["run", &round]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("total = 120"));
}

#[test]
fn run_prints_final_variables() {
    let clean = write_program("clean3.bfj", CLEAN);
    let out = bfc(&["run", &clean]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("total = 120"));
}

#[test]
fn stats_compares_detectors() {
    let clean = write_program("clean4.bfj", CLEAN);
    let out = bfc(&["stats", &clean]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        text.contains("FastTrack") && text.contains("BigFoot"),
        "{text}"
    );
    assert!(text.contains("check ratio"), "{text}");
}

#[test]
fn trace_prints_events_with_limit() {
    let clean = write_program("clean5.bfj", CLEAN);
    let out = bfc(&["trace", &clean, "--limit", "5"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("AllocArr"), "{text}");
    assert!(text.contains("more events"), "{text}");
}

#[test]
fn usage_errors_exit_2() {
    assert_eq!(bfc(&[]).status.code(), Some(2));
    assert_eq!(bfc(&["frobnicate", "x.bfj"]).status.code(), Some(2));
    assert_eq!(
        bfc(&["check", "/definitely/missing.bfj"]).status.code(),
        Some(2)
    );
    let clean = write_program("clean6.bfj", CLEAN);
    assert_eq!(
        bfc(&["check", &clean, "--detector", "nosuch"])
            .status
            .code(),
        Some(2)
    );
    assert_eq!(
        bfc(&["check", &clean, "--schedules", "abc"]).status.code(),
        Some(2)
    );
    // A sweep of no schedules has no verdict, and one whose last seed
    // would pass u64::MAX has no seed to run.
    for args in [
        &["check", &clean, "--schedules", "0"][..],
        &["check", &clean, "--schedules", "0", "--json"],
        &[
            "check",
            &clean,
            "--seed",
            "18446744073709551615",
            "--schedules",
            "2",
        ],
    ] {
        let out = bfc(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage:"),
            "{args:?}"
        );
    }
    // The largest seed still runs as a single schedule.
    assert_eq!(
        bfc(&["check", &clean, "--seed", "18446744073709551615"])
            .status
            .code(),
        Some(0)
    );
    // Removed surface and flags a command does not read are rejected,
    // never ignored: the pipelined and sharded detection flags, the
    // placement cache's commands and flags, and flags that belong to
    // another command.
    let trace = std::env::temp_dir()
        .join("bfc-cli-tests")
        .join("clean6.bftr");
    let trace = trace.to_string_lossy().into_owned();
    assert_eq!(
        bfc(&["check", &clean, "--record-out", &trace])
            .status
            .code(),
        Some(0)
    );
    for args in [
        &["check", &clean, "--pipeline"][..],
        &["check", &clean, "--detect-workers", "2"],
        &["analyze", &clean],
        &["mutate", &clean],
        &["check", &clean, "--incremental"],
        &["check", &clean, "--cache-dir", "zz"],
        &["run", &clean, "--compiled", "--replay-workers", "3"],
        &["replay", &trace, "--compiled", "--seed", "5"],
    ] {
        let out = bfc(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage:"),
            "{args:?}"
        );
    }
}

#[test]
fn non_usage_failures_skip_the_banner() {
    // A well-formed command whose work fails reports the error alone.
    let out = bfc(&["check", "/definitely/missing.bfj"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot read"), "{err}");
    assert!(!err.contains("usage:"), "{err}");
}

#[test]
fn corrupt_traces_are_typed_errors_not_aborts() {
    // Hand-assembled one-event BFTR traces whose thread id, field count or
    // array length is far over the limits: each exits 2 with the decode
    // error, under every detector, instead of aborting on allocation.
    let header: &[u8] = b"BFTR\x01";
    let cases: [(&str, &[u8], &str); 3] = [
        (
            "exit.bftr",
            b"\x0a\xf0\xff\xff\xff\x0f",
            "thread id 4294967280",
        ),
        (
            "obj.bftr",
            b"\x00\x00\x00\x00\xff\xff\xff\xff\x0f",
            "field count 4294967295",
        ),
        (
            "arr.bftr",
            b"\x01\x00\x00\x80\x80\x80\x80\x80\x20",
            "array length 1099511627776",
        ),
    ];
    let dir = std::env::temp_dir().join("bfc-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    for (name, event, message) in cases {
        let path = dir.join(name);
        std::fs::write(&path, [header, event].concat()).unwrap();
        let path = path.to_string_lossy().into_owned();
        for det in ["fasttrack", "redcard", "bigfoot"] {
            let out = bfc(&["replay", &path, "--detector", det, "--replay-workers", "2"]);
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{name} under {det}: {err}");
            assert!(err.contains(message), "{name} under {det}: {err}");
            assert!(
                err.contains("exceeds the limit"),
                "{name} under {det}: {err}"
            );
        }
    }
}

#[test]
fn every_detector_flag_works() {
    let racy = write_program("racy2.bfj", RACY);
    for det in [
        "bigfoot",
        "fasttrack",
        "redcard",
        "slimstate",
        "slimcard",
        "djit",
    ] {
        let out = bfc(&["check", &racy, "--detector", det, "--schedules", "3"]);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{det} must find the race: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}
