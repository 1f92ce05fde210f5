//! Criterion benches: end-to-end detector throughput on representative
//! Table 1 workloads (small scale — the full sweep lives in `repro`).

use bigfoot::{instrument, naive_instrument, redcard_instrument};
use bigfoot_bfj::{Interp, NullSink, SchedPolicy};
use bigfoot_detectors::{CheckSource, Config, Detector};
use bigfoot_workloads::{benchmark, Scale};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_detectors(c: &mut Criterion) {
    let mut group = c.benchmark_group("detectors");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for name in ["crypt", "moldyn", "h2", "raytracer", "lufact"] {
        let b = benchmark(name, Scale::Small).expect("benchmark");
        let inst = instrument(&b.program);
        let (rc_prog, rc_proxies) = redcard_instrument(&b.program);
        let naive = naive_instrument(&b.program);

        group.bench_with_input(BenchmarkId::new("base", name), &b.program, |bench, p| {
            bench.iter(|| {
                Interp::new(p, SchedPolicy::default())
                    .run(&mut NullSink)
                    .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("FT", name), &naive, |bench, p| {
            bench.iter(|| {
                let mut det = Detector::new(Config {
                    source: CheckSource::CheckEvents,
                    ..Config::fasttrack()
                });
                Interp::new(p, SchedPolicy::default())
                    .run(&mut det)
                    .unwrap();
                det.finish().shadow_ops
            })
        });
        group.bench_with_input(BenchmarkId::new("RC", name), &rc_prog, |bench, p| {
            bench.iter(|| {
                let mut det = Detector::redcard(rc_proxies.clone());
                Interp::new(p, SchedPolicy::default())
                    .run(&mut det)
                    .unwrap();
                det.finish().shadow_ops
            })
        });
        group.bench_with_input(BenchmarkId::new("SS", name), &naive, |bench, p| {
            bench.iter(|| {
                let mut det = Detector::new(Config {
                    source: CheckSource::CheckEvents,
                    ..Config::slimstate()
                });
                Interp::new(p, SchedPolicy::default())
                    .run(&mut det)
                    .unwrap();
                det.finish().shadow_ops
            })
        });
        group.bench_with_input(BenchmarkId::new("BF", name), &inst.program, |bench, p| {
            bench.iter(|| {
                let mut det = Detector::bigfoot(inst.proxies.clone());
                Interp::new(p, SchedPolicy::default())
                    .run(&mut det)
                    .unwrap();
                det.finish().shadow_ops
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_detectors);
criterion_main!(benches);
