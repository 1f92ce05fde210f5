//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable table, then the result line: one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Exits 1 after
//! printing when any verdict is wrong or any check fails, 2 on bad usage.

use std::path::Path;
use std::process::ExitCode;

use bigfoot_perfbench::{inputs, run_benchmark, Options, Size, RESIDUAL_BOUND, WORKLOADS};

const USAGE: &str =
    "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\nworkloads:";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("`{flag}` takes a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("`--trace` takes 0 or 1, got `{value}`")),
            },
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE} {}", WORKLOADS.join(", "));
            return ExitCode::from(2);
        }
    };
    let (workload, seed) = (args.workload.as_str(), args.seed);
    let opts = Options {
        seconds: args.seconds as f64,
        trace: args.trace,
        min_passes: 3,
    };
    let report = match run_benchmark(&|| inputs(workload, seed, Size::Full), opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };

    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# workload {workload}, seed {seed}, trace {}: {} untraced + {} traced passes, {cpus} CPUs",
        u8::from(args.trace),
        report.passes.0,
        report.passes.1
    );
    for m in &report.metrics {
        println!("{:<34} {:>16} {}", m.name, m.value, m.unit);
    }
    println!(
        "{:<34} {:>16} count",
        "verdict_errors", report.verdict_errors
    );
    for e in &report.errors {
        println!("# wrong verdict: {e}");
    }
    if args.trace {
        println!("# self time per layer call, median per pass:");
        for (name, s) in &report.self_times {
            println!("#   {name:<24} {s:.6} s");
        }
        let n = report.bf_verdict_samples;
        if n > 10 {
            let pct = 100.0 * (n - 10) as f64 / n as f64;
            println!("# ledger.bf_verdict_tail_ms is the p{pct:.0} of {n} per-program samples");
        } else {
            println!("# ledger.bf_verdict_tail_ms is the median of {n} per-program samples");
        }
        if let Some(share) = report.bf_residual_share {
            let within = if share.abs() <= RESIDUAL_BOUND {
                "within"
            } else {
                "OUTSIDE"
            };
            println!("# ledger.bf_residual_s is {share:.4} of traced bf_check_s, {within} the bound of {RESIDUAL_BOUND}");
        }
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let file = dir.join(format!("spans-{workload}-seed{seed}.json"));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&file, report.spans_json().to_string_compact()));
        match written {
            Ok(()) => println!(
                "# {} spans written to {}",
                report.spans.len(),
                file.display()
            ),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", file.display());
                return ExitCode::from(2);
            }
        }
    }
    println!("{}", report.result_json().to_string_compact());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
