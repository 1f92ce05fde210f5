//! The shared verdict cache as the `entail.cache.*` counters see it. The
//! metric registry is process-global, so this file holds a single test.

use bigfoot_bfj::parse_expr;
use bigfoot_entail::{Kb, Verdicts};

#[test]
fn kbs_built_from_the_same_facts_share_one_verdict() {
    let facts = ["i < n", "n <= a.length", "i >= 0"].map(|f| parse_expr(f).unwrap());
    let query = parse_expr("i + 1 <= a.length").unwrap();
    let _obs = bigfoot_obs::EnabledGuard::new();
    let counts = || {
        let snap = bigfoot_obs::snapshot();
        (
            snap.counter("entail.cache.miss"),
            snap.counter("entail.cache.hit"),
        )
    };

    // One run: the second Kb is answered from the first one's verdict.
    bigfoot_obs::reset();
    let verdicts = Verdicts::new();
    assert!(Kb::from_facts(&verdicts, &facts, &[]).entails(&query));
    assert!(Kb::from_facts(&verdicts, &facts, &[]).entails(&query));
    assert_eq!(counts(), (1, 1), "(misses, hits) within one run");

    // Separate runs (and `Kb::new`) share nothing.
    bigfoot_obs::reset();
    for _ in 0..2 {
        assert!(Kb::from_facts(&Verdicts::new(), &facts, &[]).entails(&query));
    }
    assert_eq!(counts(), (2, 0), "(misses, hits) across runs");
    bigfoot_obs::reset();
    for _ in 0..2 {
        let mut kb = Kb::new();
        for f in &facts {
            kb.assume(f);
        }
        assert!(kb.entails(&query));
    }
    assert_eq!(counts(), (2, 0), "(misses, hits) across private caches");
}
