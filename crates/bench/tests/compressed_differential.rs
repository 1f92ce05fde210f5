//! Differential test: detection over grammar-compressed (`BFTC`) traces
//! must reproduce the raw replay path — and hence the serial detector —
//! **bit-for-bit**: same races in the same order, same counters, same
//! space accounting, at every worker count.
//!
//! Coverage: every suite benchmark (small scale) under all five detector
//! configurations (the instrumented check-event traces for the RedCard/
//! SlimCard/BigFoot family, raw traces for FastTrack/SlimState), the
//! compressed container's byte-exact round trip, and a population of
//! seeded random programs under randomized schedules.

use bigfoot::instrument;
use bigfoot_bfj::trace::compress::{compress, decompress};
use bigfoot_bfj::{parse_program, trace::TraceWriter, EventSink, Interp, Program, SchedPolicy};
use bigfoot_detectors::{replay_compressed, Config, Detector, Stats, TraceReader};
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
fn assert_identical(label: &str, workers: usize, compressed: &Stats, serial: &Stats) {
    assert_eq!(
        compressed.races, serial.races,
        "{label}: races diverge at {workers} worker(s)"
    );
    assert_eq!(
        compressed.to_json().to_string_compact(),
        serial.to_json().to_string_compact(),
        "{label}: stats diverge at {workers} worker(s)"
    );
}

/// Compresses, checks the byte-exact round trip, and returns the packed
/// container.
fn pack(label: &str, raw: &[u8]) -> Vec<u8> {
    let packed = compress(raw).expect("compress");
    assert_eq!(
        decompress(&packed).expect("decompress").as_slice(),
        raw,
        "{label}: compressed round trip must be byte-exact"
    );
    packed
}

#[test]
fn suite_benchmarks_detect_identically_on_compressed_traces() {
    for b in benchmarks(Scale::Small) {
        // Instrumented trace: the three check-event configurations.
        let inst = instrument(&b.program);
        let bytes = record(&inst.program, SchedPolicy::default());
        let packed = pack(b.name, &bytes);
        let configs: Vec<(&str, Config, Detector)> = vec![
            (
                "redcard",
                Config::redcard(inst.proxies.clone()),
                Detector::redcard(inst.proxies.clone()),
            ),
            (
                "slimcard",
                Config::slimcard(inst.proxies.clone()),
                Detector::slimcard(inst.proxies.clone()),
            ),
            (
                "bigfoot",
                Config::bigfoot(inst.proxies.clone()),
                Detector::bigfoot(inst.proxies.clone()),
            ),
        ];
        for (name, config, det) in configs {
            let reference = serial(&bytes, det);
            for workers in [1usize, 4] {
                let stats =
                    replay_compressed(&packed, &config, workers).expect("compressed replay");
                assert_identical(&format!("{}/{name}", b.name), workers, &stats, &reference);
            }
        }

        // Raw trace: the two raw-access configurations.
        let bytes = record(&b.program, SchedPolicy::default());
        let packed = pack(b.name, &bytes);
        for (name, config, det) in [
            ("fasttrack", Config::fasttrack(), Detector::fasttrack()),
            ("slimstate", Config::slimstate(), Detector::slimstate()),
        ] {
            let reference = serial(&bytes, det);
            for workers in [1usize, 4] {
                let stats =
                    replay_compressed(&packed, &config, workers).expect("compressed replay");
                assert_identical(&format!("{}/{name}", b.name), workers, &stats, &reference);
            }
        }
    }
}

#[test]
fn random_programs_detect_identically_on_compressed_traces() {
    let mut races_seen = 0usize;
    for seed in 0..40u64 {
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
        let packed = pack(&format!("random seed {seed}"), &bytes);
        let reference = serial(&bytes, Detector::fasttrack());
        if reference.has_races() {
            races_seen += 1;
        }
        for workers in [1usize, 2, 4] {
            let stats = replay_compressed(&packed, &Config::fasttrack(), workers).expect("creplay");
            assert_identical(&format!("random seed {seed}"), workers, &stats, &reference);
        }
        // The footprint engine is where memoized extrapolation actually
        // engages; exercise it on the same traces.
        let slim_reference = serial(&bytes, Detector::slimstate());
        for workers in [1usize, 3] {
            let stats = replay_compressed(&packed, &Config::slimstate(), workers).expect("creplay");
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
fn compression_pays_on_loop_heavy_benchmarks() {
    // Not a perf gate — a structural sanity check that the grammar layer
    // actually compresses the loop-heavy suite members instead of
    // degenerating to pass-through.
    let mut best = 0.0f64;
    for b in benchmarks(Scale::Small) {
        let bytes = record(&b.program, SchedPolicy::default());
        let packed = pack(b.name, &bytes);
        let ratio = bytes.len() as f64 / packed.len() as f64;
        best = best.max(ratio);
    }
    assert!(
        best >= 4.0,
        "at least one loop-heavy benchmark should compress well, best ratio {best:.2}"
    );
}
