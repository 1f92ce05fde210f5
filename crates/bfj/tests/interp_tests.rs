//! Integration tests for the BFJ interpreter: sequential semantics,
//! threads, locks, events, and scheduler determinism.

use bigfoot_bfj::*;

fn run_main(src: &str) -> (Program, RecordingSink) {
    let p = parse_program(src).expect("parse");
    let mut sink = RecordingSink::default();
    Interp::new(&p, SchedPolicy::default())
        .run(&mut sink)
        .expect("run");
    (p, sink)
}

fn final_int(src: &str, var: &str) -> i64 {
    let p = parse_program(src).expect("parse");
    let mut interp = Interp::new(&p, SchedPolicy::default());
    interp.run(&mut NullSink).expect("run");
    match interp.final_env(Tid(0)).unwrap()[&Sym::intern(var)] {
        Value::Int(n) => n,
        other => panic!("{var} is {other}, expected int"),
    }
}

#[test]
fn arithmetic_and_control_flow() {
    assert_eq!(final_int("main { x = 2 * 3 + 4 % 3; }", "x"), 7);
    assert_eq!(
        final_int(
            "main { x = 0; if (1 < 2) { x = 10; } else { x = 20; } }",
            "x"
        ),
        10
    );
    assert_eq!(
        final_int(
            "main { s = 0; for (i = 0; i < 5; i = i + 1) { s = s + i; } }",
            "s"
        ),
        10
    );
    assert_eq!(
        final_int("main { x = 1; while (x < 100) { x = x * 2; } }", "x"),
        128
    );
}

#[test]
fn objects_and_arrays() {
    let src = "
        class Point { field x; field y; }
        main {
            p = new Point;
            p.x = 3;
            p.y = p.x * 2;
            a = new_array(4);
            a[0] = p.y;
            a[p.x] = 9;
            r = a[0] + a[3];
        }";
    assert_eq!(final_int(src, "r"), 15);
}

#[test]
fn method_calls_and_recursion() {
    let src = "
        class Math {
            meth fact(n) {
                r = 1;
                if (n > 1) {
                    r = this.fact(n - 1);
                    r = r * n;
                }
                return r;
            }
        }
        main { m = new Math; f = m.fact(6); }";
    assert_eq!(final_int(src, "f"), 720);
}

#[test]
fn array_length() {
    assert_eq!(
        final_int("main { a = new_array(7); n = a.length; }", "n"),
        7
    );
}

#[test]
fn fork_join_produces_sync_events() {
    let src = "
        class Worker {
            field sum;
            meth run(n) {
                s = 0;
                for (i = 0; i < n; i = i + 1) { s = s + i; }
                this.sum = s;
                return 0;
            }
        }
        main {
            w = new Worker;
            fork t = w.run(10);
            join(t);
            result = w.sum;
        }";
    let (_, sink) = run_main(src);
    let forks = sink
        .events
        .iter()
        .filter(|e| matches!(e, Event::Fork { .. }))
        .count();
    let joins = sink
        .events
        .iter()
        .filter(|e| matches!(e, Event::Join { .. }))
        .count();
    assert_eq!(forks, 1);
    assert_eq!(joins, 1);
    // The fork must precede the child's first event; the join must follow
    // the child's exit.
    let fork_pos = sink
        .events
        .iter()
        .position(|e| matches!(e, Event::Fork { .. }))
        .unwrap();
    let child_first = sink
        .events
        .iter()
        .position(|e| e.thread() == Tid(1))
        .unwrap();
    assert!(fork_pos < child_first);
    assert_eq!(final_int(src, "result"), 45);
}

#[test]
fn locks_provide_mutual_exclusion() {
    // Two threads increment a shared counter 100 times each under a lock;
    // the result must always be 200 even with an adversarial scheduler.
    let src = "
        class Counter {
            field n;
            meth work(lock, reps) {
                for (i = 0; i < reps; i = i + 1) {
                    acq(lock);
                    this.n = this.n + 1;
                    rel(lock);
                }
                return 0;
            }
        }
        class Lock { }
        main {
            c = new Counter;
            l = new Lock;
            fork t1 = c.work(l, 100);
            fork t2 = c.work(l, 100);
            join(t1);
            join(t2);
            total = c.n;
        }";
    for seed in [1u64, 7, 42] {
        let p = parse_program(src).unwrap();
        let mut interp = Interp::new(
            &p,
            SchedPolicy::Random {
                seed,
                switch_inv: 2,
            },
        );
        interp.run(&mut NullSink).unwrap();
        assert_eq!(
            interp.final_env(Tid(0)).unwrap()[&Sym::intern("total")],
            Value::Int(200),
            "seed {seed}"
        );
    }
}

#[test]
fn acquire_release_events_are_paired() {
    let src = "
        class L { }
        main { l = new L; acq(l); rel(l); acq(l); acq(l); rel(l); rel(l); }";
    let (_, sink) = run_main(src);
    let acqs = sink
        .events
        .iter()
        .filter(|e| matches!(e, Event::Acquire { .. }))
        .count();
    let rels = sink
        .events
        .iter()
        .filter(|e| matches!(e, Event::Release { .. }))
        .count();
    assert_eq!(acqs, 3, "reentrant acquires are all reported");
    assert_eq!(rels, 3);
}

#[test]
fn release_without_hold_is_an_error() {
    let p = parse_program("class L { } main { l = new L; rel(l); }").unwrap();
    let err = Interp::new(&p, SchedPolicy::default())
        .run(&mut NullSink)
        .unwrap_err();
    assert_eq!(err, RuntimeError::IllegalRelease);
}

#[test]
fn deadlock_is_detected() {
    let src = "
        class L { }
        class W {
            meth grab(a, b) {
                acq(a);
                skip; skip; skip; skip; skip; skip; skip; skip; skip; skip;
                skip; skip; skip; skip; skip; skip; skip; skip; skip; skip;
                acq(b);
                rel(b);
                rel(a);
                return 0;
            }
        }
        main {
            l1 = new L; l2 = new L;
            w = new W;
            fork t1 = w.grab(l1, l2);
            fork t2 = w.grab(l2, l1);
            join(t1);
            join(t2);
        }";
    let p = parse_program(src).unwrap();
    // A quantum small enough that both threads grab their first lock.
    let err = Interp::new(&p, SchedPolicy::RoundRobin { quantum: 5 })
        .run(&mut NullSink)
        .unwrap_err();
    assert_eq!(err, RuntimeError::Deadlock);
}

#[test]
fn out_of_bounds_is_an_error() {
    let p = parse_program("main { a = new_array(2); x = a[5]; }").unwrap();
    let err = Interp::new(&p, SchedPolicy::default())
        .run(&mut NullSink)
        .unwrap_err();
    assert!(matches!(
        err,
        RuntimeError::IndexOutOfBounds { index: 5, .. }
    ));
}

#[test]
fn division_by_zero_is_an_error() {
    let p = parse_program("main { z = 0; x = 1 / z; }").unwrap();
    let err = Interp::new(&p, SchedPolicy::default())
        .run(&mut NullSink)
        .unwrap_err();
    assert_eq!(err, RuntimeError::DivisionByZero);
}

#[test]
fn check_statements_emit_check_events() {
    let src = "
        class P { field x; field y; }
        main {
            p = new P;
            a = new_array(10);
            check(w: p.x/y, r: a[0..10:2]);
        }";
    let (_, sink) = run_main(src);
    let checks: Vec<_> = sink
        .events
        .iter()
        .filter_map(|e| match e {
            Event::Check { paths, .. } => Some(paths.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(checks.len(), 1);
    let paths = &checks[0];
    assert_eq!(paths.len(), 2);
    assert_eq!(paths[0].0, AccessKind::Write);
    match &paths[0].1 {
        CheckTarget::Fields(_, idxs) => assert_eq!(idxs, &vec![0, 1]),
        other => panic!("expected fields target, got {other:?}"),
    }
    match &paths[1].1 {
        CheckTarget::Range(_, r) => {
            assert_eq!((r.lo, r.hi, r.step), (0, 10, 2));
        }
        other => panic!("expected range target, got {other:?}"),
    }
}

#[test]
fn identical_seeds_give_identical_traces() {
    let src = "
        class W {
            field acc;
            meth run(n) {
                for (i = 0; i < n; i = i + 1) { this.acc = this.acc + i; }
                return 0;
            }
        }
        main {
            w1 = new W; w2 = new W;
            fork t1 = w1.run(20);
            fork t2 = w2.run(20);
            join(t1); join(t2);
        }";
    let p = parse_program(src).unwrap();
    let run_with = |seed| {
        let mut sink = RecordingSink::default();
        Interp::new(
            &p,
            SchedPolicy::Random {
                seed,
                switch_inv: 3,
            },
        )
        .run(&mut sink)
        .unwrap();
        sink.events
    };
    assert_eq!(run_with(99), run_with(99));
    // Different seeds typically interleave differently (not asserted: they
    // may coincide, but the traces must still be permutations per thread).
    let a = run_with(1);
    let b = run_with(2);
    let per_thread = |evs: &[Event], t: Tid| -> Vec<Event> {
        evs.iter().filter(|e| e.thread() == t).cloned().collect()
    };
    for t in [Tid(0), Tid(1), Tid(2)] {
        assert_eq!(per_thread(&a, t), per_thread(&b, t));
    }
}

#[test]
fn racy_program_runs_to_completion() {
    // Data races are a detector concern, not an interpreter error.
    let src = "
        class C { field x; meth poke(v) { this.x = v; return 0; } }
        main {
            c = new C;
            fork t1 = c.poke(1);
            fork t2 = c.poke(2);
            join(t1); join(t2);
            r = c.x;
        }";
    let r = final_int(src, "r");
    assert!(r == 1 || r == 2);
}

#[test]
fn heap_cells_accounting() {
    let src = "class P { field x; field y; field z; } main { p = new P; a = new_array(10); }";
    let p = parse_program(src).unwrap();
    let mut interp = Interp::new(&p, SchedPolicy::default());
    let outcome = interp.run(&mut NullSink).unwrap();
    assert_eq!(outcome.heap_cells, 13);
}

#[test]
fn step_limit_guards_against_divergence() {
    let p = parse_program("main { while (true) { skip; } }").unwrap();
    let err = Interp::new(&p, SchedPolicy::default())
        .with_max_steps(10_000)
        .run(&mut NullSink)
        .unwrap_err();
    assert_eq!(err, RuntimeError::StepLimitExceeded(10_000));
}

#[test]
fn classes_over_the_field_limit_do_not_parse() {
    let class = |n: u32| {
        let fields: Vec<String> = (0..n).map(|i| format!("f{i}")).collect();
        format!(
            "class C {{ field {}; }} main {{ c = new C; }}",
            fields.join(", ")
        )
    };
    let p = parse_program(&class(MAX_FIELDS)).expect("at the limit");
    let mut sink = RecordingSink::default();
    Interp::new(&p, SchedPolicy::default())
        .run(&mut sink)
        .expect("run");
    assert!(sink
        .events
        .iter()
        .any(|e| matches!(e, Event::AllocObj { fields, .. } if *fields == MAX_FIELDS)));
    let err = parse_program(&class(MAX_FIELDS + 1)).unwrap_err();
    assert!(err.to_string().contains("at most 1024"), "{err}");
}
