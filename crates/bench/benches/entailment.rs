//! Criterion micro-benches for the entailment engine (the Z3 stand-in):
//! Fourier–Motzkin queries, the per-run verdict cache, range subsumption,
//! and the §4 coalescer.

use bigfoot_bfj::parse_expr;
use bigfoot_entail::{coalesce, covered_by_union, linearize, Kb, SymRange, Verdicts};
use criterion::{criterion_group, criterion_main, Criterion};

fn kb_with(facts: &[&str]) -> Kb {
    let mut kb = Kb::new();
    for f in facts {
        kb.assume(&parse_expr(f).unwrap());
    }
    kb
}

fn rng(lo: &str, hi: &str, step: i64) -> SymRange {
    SymRange {
        lo: linearize(&parse_expr(lo).unwrap()).unwrap(),
        hi: linearize(&parse_expr(hi).unwrap()).unwrap(),
        step,
    }
}

fn bench_entailment(c: &mut Criterion) {
    c.bench_function("entails/transitive_chain", |b| {
        let facts = ["a <= b", "b <= c", "c <= d", "d <= e", "e <= f"];
        let q = parse_expr("a <= f").unwrap();
        b.iter(|| {
            let mut kb = kb_with(&facts);
            kb.entails(&q)
        })
    });
    c.bench_function("entails/loop_invariant_shape", |b| {
        let facts = ["i == ip + 1", "ip >= 0", "n == m", "lo >= 0", "hi <= n"];
        let q = parse_expr("ip + 1 <= n").unwrap();
        b.iter(|| {
            let mut kb = kb_with(&facts);
            kb.entails(&q)
        })
    });
    c.bench_function("entails/shared_verdicts", |b| {
        // A loop body's history: the renamed counter, its bounds, array
        // lengths, and a few derived locals.
        let facts = [
            "i == ip + 1",
            "ip >= 0",
            "ip < n",
            "n == a.length",
            "lo >= 0",
            "lo <= ip",
            "hi == n",
            "j == i",
            "k >= 0",
            "k < m",
            "m <= n",
            "s == 0",
            "t >= s",
            "b.length == n",
            "x == lo + 2",
            "y <= x",
        ]
        .map(|f| parse_expr(f).unwrap());
        let queries = [
            "i <= n",
            "ip + 1 <= a.length",
            "lo < i",
            "k < n",
            "j <= b.length",
        ]
        .map(|q| parse_expr(q).unwrap());
        // Two Kbs of one run asking the same questions: the first decides
        // them, the second is answered from the shared cache.
        b.iter(|| {
            let verdicts = Verdicts::new();
            let mut proved = 0;
            for _ in 0..2 {
                let mut kb = Kb::from_facts(&verdicts, &facts, &[]);
                proved += queries.iter().filter(|q| kb.entails(q)).count();
            }
            proved
        })
    });
    c.bench_function("range/union_coverage", |b| {
        b.iter(|| {
            let mut kb = kb_with(&["i == ip + 1", "ip >= 0"]);
            let query = rng("0", "i", 1);
            let facts = [
                rng("0", "ip", 1),
                SymRange::singleton(linearize(&parse_expr("ip").unwrap()).unwrap()),
            ];
            covered_by_union(&mut kb, &query, &facts)
        })
    });
    c.bench_function("range/coalesce_residues", |b| {
        b.iter(|| {
            let mut kb = Kb::new();
            coalesce(&mut kb, &[rng("0", "n", 2), rng("1", "n", 2)])
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_entailment
}
criterion_main!(benches);
