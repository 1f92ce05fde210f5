//! Self-tests of the benchmark at tiny sizes: every metric `BENCHMARK.json`
//! names is emitted with its unit, the verdict check is live, inputs are
//! deterministic in the seed, and the traced ledger closes.

use std::sync::Mutex;

use bigfoot_obs::json::{parse, Json};
use bigfoot_perfbench::{
    inputs, run_benchmark, Expect, Input, Options, Report, Size, RESIDUAL_BOUND, WORKLOADS,
};

/// Runs the benchmark with the global `bigfoot-obs` registry to itself: a
/// traced run resets and reads it, so concurrent test threads would mix
/// their counts.
fn exclusive(make: &dyn Fn() -> Result<Vec<Input>, String>, opts: Options) -> Report {
    static REGISTRY: Mutex<()> = Mutex::new(());
    let _guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    run_benchmark(make, opts).expect("benchmark runs")
}

fn tiny(workload: &str, seed: u64, trace: bool) -> Report {
    let opts = Options {
        seconds: 0.0,
        trace,
        min_passes: 1,
    };
    exclusive(&|| inputs(workload, seed, Size::Tiny), opts)
}

/// `(name, unit)` of each entry of a `BENCHMARK.json` section; workloads
/// have no unit.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let json: Json = parse(&text).expect("BENCHMARK.json parses");
    json.get(section)
        .expect("section exists")
        .items()
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_named_metric_is_emitted_with_its_unit() {
    let workloads: Vec<String> = declared("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, WORKLOADS);
    for (section, trace) in [("end_to_end", false), ("per_layer", true)] {
        let want = declared(section);
        for workload in WORKLOADS {
            let report = tiny(workload, 7, trace);
            assert!(report.correct, "{workload}: {:?}", report.errors);
            let got: Vec<(String, String)> = report
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(got, want, "{workload} trace={trace}");
            for m in &report.metrics {
                assert!(m.value.is_finite(), "{workload}: {} = {}", m.name, m.value);
            }
            let line = report.result_json();
            assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
            assert!(line.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
        }
    }
}

const UNSYNCHRONISED_WRITES: &str = "
    class Cell {
        field v;
        meth put(x) { this.v = x; return 0; }
    }
    main {
        c = new Cell;
        fork t1 = c.put(1);
        fork t2 = c.put(2);
        join(t1);
        join(t2);
    }";

fn hand_written(expect: Expect) -> Report {
    let make = || {
        Ok(vec![Input {
            name: "two-writers".into(),
            source: UNSYNCHRONISED_WRITES.into(),
            expect,
            sched_seed: 3,
        }])
    };
    let opts = Options {
        seconds: 0.0,
        trace: false,
        min_passes: 2,
    };
    exclusive(&make, opts)
}

#[test]
fn racy_program_labelled_race_free_is_one_verdict_error() {
    let wrong = hand_written(Expect::RaceFree);
    assert_eq!(wrong.verdict_errors, 1, "{:?}", wrong.errors);
    assert!(!wrong.correct);
    assert_eq!(wrong.failed, 2, "one failed check per pass");
    assert_eq!(
        wrong.result_json().get("correct").and_then(Json::as_bool),
        Some(false)
    );

    // Labelled as possibly racy, the same program passes the same-trace
    // oracle: both detectors see the race.
    let right = hand_written(Expect::MayRace);
    assert!(right.correct, "{:?}", right.errors);
    assert_eq!(right.verdict_errors, 0);
    assert_eq!(right.attempted, 3, "two passes and one oracle check");
}

fn count_metrics(r: &Report) -> Vec<(&'static str, f64)> {
    r.metrics
        .iter()
        .filter(|m| m.unit == "count" || m.unit == "entries")
        .map(|m| (m.name, m.value))
        .collect()
}

#[test]
fn same_seed_same_counts_other_seed_differs() {
    for workload in WORKLOADS {
        assert_eq!(
            inputs(workload, 5, Size::Tiny),
            inputs(workload, 5, Size::Tiny)
        );
        let (a, b) = (
            inputs(workload, 5, Size::Tiny).unwrap(),
            inputs(workload, 6, Size::Tiny).unwrap(),
        );
        assert!(a.iter().zip(&b).all(|(x, y)| x.sched_seed != y.sched_seed));
        if workload == "random-racy" {
            assert!(a.iter().zip(&b).all(|(x, y)| x.source != y.source));
        }
    }
    for trace in [false, true] {
        let (a, b) = (tiny("random-racy", 5, trace), tiny("random-racy", 5, trace));
        assert_eq!(a.counts, b.counts);
        assert_eq!(count_metrics(&a), count_metrics(&b));
    }
    let (a, b) = (tiny("random-racy", 5, true), tiny("random-racy", 6, true));
    assert_ne!(a.counts, b.counts);
    assert_ne!(count_metrics(&a), count_metrics(&b));
}

#[test]
fn traced_ledger_closes_within_the_bound() {
    let opts = Options {
        seconds: 0.0,
        trace: true,
        min_passes: 3,
    };
    let report = exclusive(&|| inputs("suite-sync", 1, Size::Tiny), opts);
    assert!(report.correct, "{:?}", report.errors);
    assert!(report.metric("ledger.tracing_overhead").unwrap() > 0.0);
    let share = report.bf_residual_share.unwrap();
    assert!(
        share.abs() <= RESIDUAL_BOUND,
        "residual {} s is {share} of traced bf_check_s",
        report.metric("ledger.bf_residual_s").unwrap()
    );
    // Spans of one program check share an id and nest under their parent.
    let spans = &report.spans;
    assert!(!spans.is_empty());
    for s in spans {
        if let Some(p) = s.parent {
            assert_eq!(spans[p].check, s.check);
            assert!(spans[p].start <= s.start && s.end <= spans[p].end);
        }
    }
}
