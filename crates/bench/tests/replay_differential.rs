//! Differential test: the sharded parallel replay engine must reproduce
//! the serial detector's report **bit-for-bit** — same races in the same
//! order, same counters, same space accounting — at every worker count.
//!
//! Coverage: every suite benchmark (small scale) under the BigFoot
//! configuration (deferred footprints + adaptive array shadows + field
//! proxies, the hardest case for parallel determinism), plus a population
//! of seeded random programs — racy and race-free — under the raw-access
//! FastTrack configuration.

use bigfoot::instrument;
use bigfoot_bfj::{parse_program, trace::TraceWriter, EventSink, Interp, Program, SchedPolicy};
use bigfoot_detectors::{replay_trace, Config, Detector, ProxyTable, Stats, TraceReader};
use bigfoot_workloads::{benchmarks, random_program, RandomConfig, Scale};

fn record(program: &Program, policy: SchedPolicy) -> Vec<u8> {
    let mut w = TraceWriter::new();
    Interp::new(program, policy).run(&mut w).expect("run");
    w.into_bytes()
}

fn serial(bytes: &[u8], mut det: Detector) -> Stats {
    for ev in TraceReader::new(bytes).expect("trace header") {
        det.event(&ev.expect("trace event"));
    }
    det.finish()
}

#[track_caller]
fn assert_identical(label: &str, workers: usize, replay: &Stats, serial: &Stats) {
    assert_eq!(
        replay.races, serial.races,
        "{label}: races diverge at {workers} worker(s)"
    );
    assert_eq!(
        replay.to_json().to_string_compact(),
        serial.to_json().to_string_compact(),
        "{label}: stats diverge at {workers} worker(s)"
    );
}

#[test]
fn suite_benchmarks_replay_identically_under_bigfoot() {
    for b in benchmarks(Scale::Small) {
        let inst = instrument(&b.program);
        let bytes = record(&inst.program, SchedPolicy::default());
        let reference = serial(&bytes, Detector::bigfoot(inst.proxies.clone()));
        for workers in [1usize, 2, 4] {
            let stats = replay_trace(&bytes, &Config::bigfoot(inst.proxies.clone()), workers)
                .expect("replay");
            assert_identical(b.name, workers, &stats, &reference);
        }
    }
}

#[test]
fn suite_benchmarks_replay_identically_under_fasttrack() {
    // Fine-grained arrays + raw accesses: the highest item volume.
    for b in benchmarks(Scale::Small).into_iter().take(6) {
        let bytes = record(&b.program, SchedPolicy::default());
        let reference = serial(&bytes, Detector::fasttrack());
        for workers in [1usize, 4] {
            let stats = replay_trace(&bytes, &Config::fasttrack(), workers).expect("replay");
            assert_identical(b.name, workers, &stats, &reference);
        }
    }
}

#[test]
fn random_programs_replay_identically() {
    // 60 seeded generator configurations: alternating racy / race-free,
    // varying thread counts and sizes, under randomized schedules so
    // sync-heavy interleavings are exercised too.
    let mut races_seen = 0usize;
    for seed in 0..60u64 {
        let cfg = RandomConfig {
            seed: seed + 1,
            size: 8 + (seed as usize % 9),
            threads: 2 + (seed as usize % 3),
            array_len: 16 + (seed as usize % 17),
            racy: seed % 2 == 0,
            ..RandomConfig::default()
        };
        let src = random_program(&cfg);
        let program = parse_program(&src).expect("generated program parses");
        let policy = SchedPolicy::Random {
            seed: seed * 31 + 7,
            switch_inv: 2,
        };
        let bytes = record(&program, policy);
        let reference = serial(&bytes, Detector::fasttrack());
        if reference.has_races() {
            races_seen += 1;
        }
        for workers in [1usize, 2, 4] {
            let stats = replay_trace(&bytes, &Config::fasttrack(), workers).expect("replay");
            assert_identical(&format!("random seed {seed}"), workers, &stats, &reference);
        }
        // The slim (footprint) engine exercises the commit path on the
        // same trace.
        let slim_reference = serial(&bytes, Detector::slimstate());
        for workers in [1usize, 3] {
            let stats = replay_trace(&bytes, &Config::slimstate(), workers).expect("replay");
            assert_identical(
                &format!("random seed {seed} (slimstate)"),
                workers,
                &stats,
                &slim_reference,
            );
        }
    }
    assert!(
        races_seen > 0,
        "the racy generator configurations should race at least once"
    );
}

#[test]
fn replay_default_proxy_table_matches_serial() {
    // Identity proxies under the check-event source (RedCard-like path).
    for b in benchmarks(Scale::Small).into_iter().take(4) {
        let inst = instrument(&b.program);
        let bytes = record(&inst.program, SchedPolicy::default());
        let reference = serial(&bytes, Detector::redcard(ProxyTable::identity()));
        let stats =
            replay_trace(&bytes, &Config::redcard(ProxyTable::identity()), 4).expect("replay");
        assert_identical(b.name, 4, &stats, &reference);
    }
}
