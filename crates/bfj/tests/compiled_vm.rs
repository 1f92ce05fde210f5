//! Differential tests: `CompiledVm` must be step-, event-, error-, and
//! env-identical to `Interp` for every program and scheduling policy.
//!
//! The compiled tier's contract is byte identity of the event stream —
//! these tests pin it at the source level (events, outcomes, errors,
//! final environments, step limits) across control flow, threading,
//! monitors, volatiles, checks, and every error path. The fuzz crate's
//! fifth oracle and `crates/bench/tests/compiled_differential.rs`
//! extend the same contract to generated programs and the full
//! benchmark suite via the BFTR codec.

use bigfoot_bfj::{
    compile, parse_program, CompiledVm, Interp, RecordingSink, RunOutcome, RuntimeError,
    SchedPolicy, Sym, Tid, TraceWriter, Value, MAX_ARRAY_LEN, MAX_THREADS,
};

const POLICIES: [SchedPolicy; 4] = [
    SchedPolicy::RoundRobin { quantum: 1 },
    SchedPolicy::RoundRobin { quantum: 64 },
    SchedPolicy::Random {
        seed: 0xB16F_00D5 ^ 0xC0FFEE,
        switch_inv: 1,
    },
    SchedPolicy::Random {
        seed: 42,
        switch_inv: 3,
    },
];

fn run_interp(src: &str, policy: SchedPolicy) -> (Result<RunOutcome, RuntimeError>, Vec<u8>) {
    let p = parse_program(src).unwrap_or_else(|e| panic!("parse {e:?}:\n{src}"));
    let mut w = TraceWriter::new();
    let res = Interp::new(&p, policy)
        .with_max_steps(2_000_000)
        .run(&mut w);
    (res, w.into_bytes())
}

fn run_compiled(src: &str, policy: SchedPolicy) -> (Result<RunOutcome, RuntimeError>, Vec<u8>) {
    let p = parse_program(src).expect("parse");
    let cp = compile(&p);
    let mut w = TraceWriter::new();
    let res = CompiledVm::new(&cp, policy)
        .with_max_steps(2_000_000)
        .run(&mut w);
    (res, w.into_bytes())
}

#[track_caller]
fn assert_identical(src: &str) {
    for policy in POLICIES {
        let (ri, ti) = run_interp(src, policy);
        let (rc, tc) = run_compiled(src, policy);
        assert_eq!(ri, rc, "outcome diverges under {policy:?} for:\n{src}");
        assert_eq!(
            ti,
            tc,
            "trace bytes diverge under {policy:?} for:\n{src}\n\
             (interp {} bytes, compiled {} bytes)",
            ti.len(),
            tc.len()
        );
    }
}

#[test]
fn straight_line_arithmetic_and_control_flow() {
    assert_identical("main { }");
    assert_identical("main { skip; }");
    assert_identical("main { x = 1 + 2 * 3 - 4 / 2 % 3; y = -x; z = !(x < y); }");
    assert_identical("main { x = 3; if (x > 2) { y = 1; } else { y = 2; } }");
    assert_identical("main { x = 0; if (x > 2) { y = 1; } }");
    assert_identical("main { if (true) { } else { x = 1; } }");
    assert_identical("main { i = 0; s = 0; while (i < 10) { s = s + i; i = i + 1; } }");
    assert_identical(
        "main { i = 0; while (i < 3) { j = 0; while (j < 3) { j = j + 1; } i = i + 1; } }",
    );
    assert_identical("main { x = 1 == 1; y = 1 == true; z = null == null; w = x && !y || z; }");
}

#[test]
fn heap_objects_arrays_and_volatiles() {
    assert_identical(
        "class P { field x; field y; volatile v; }
         main {
             p = new P;
             p.x = 1; p.y = 2; p.v = 3;
             a = p.x; b = p.v;
             arr = new_array(5);
             i = 0;
             while (i < arr.length) { arr[i] = i * i; i = i + 1; }
             s = arr[4];
             n = arr.length;
         }",
    );
    // Volatility is resolved by field *name*, program-wide.
    assert_identical(
        "class A { volatile f; }
         class B { field f; }
         main { a = new A; b = new B; a.f = 1; b.f = 2; x = a.f; y = b.f; }",
    );
}

#[test]
fn methods_calls_and_returns() {
    assert_identical(
        "class Counter {
             field n;
             meth bump(k) { this.n = this.n + k; return this.n; }
             meth zero() { return 0; }
         }
         main {
             c = new Counter;
             c.n = 0;
             i = 0;
             while (i < 5) { v = c.bump(i); i = i + 1; }
             z = c.zero();
         }",
    );
    // Dynamic dispatch on the run-time class.
    assert_identical(
        "class A { meth id() { return 1; } }
         class B { meth id() { return 2; } }
         main { a = new A; b = new B; x = a.id(); y = b.id(); }",
    );
    // Recursion.
    assert_identical(
        "class F {
             meth fib(n) {
                 r = 0;
                 if (n < 2) { r = n; } else {
                     a = this.fib(n - 1);
                     b = this.fib(n - 2);
                     r = a + b;
                 }
                 return r;
             }
         }
         main { f = new F; x = f.fib(10); }",
    );
}

#[test]
fn threads_locks_wait_notify() {
    assert_identical(
        "class W { field done; meth run(l) { acq(l); this.done = 1; rel(l); return 0; } }
         main {
             l = new W;
             w = new W;
             fork t1 = w.run(l);
             fork t2 = w.run(l);
             join(t1); join(t2);
             acq(l); d = w.done; rel(l);
         }",
    );
    // Reentrant locking.
    assert_identical(
        "class L { meth m(l) { acq(l); acq(l); rel(l); rel(l); return 0; } }
         main { l = new L; o = new L; fork t = o.m(l); acq(l); rel(l); join(t); }",
    );
    // wait/notify hand-off: consumer waits until the producer flips the flag.
    assert_identical(
        "class Cell {
             field full;
             meth put(l) {
                 acq(l);
                 this.full = 1;
                 notify(l);
                 rel(l);
                 return 0;
             }
             meth take(l) {
                 acq(l);
                 f = this.full;
                 while (f == 0) { wait(l); f = this.full; }
                 rel(l);
                 return f;
             }
         }
         main {
             l = new Cell; c = new Cell;
             c.full = 0;
             fork t = c.take(l);
             fork u = c.put(l);
             join(t); join(u);
         }",
    );
}

#[test]
fn checks_compile_to_direct_sink_calls() {
    assert_identical(
        "class P { field x; field y; }
         main {
             p = new P; a = new_array(10);
             check(w: p.x/y, r: a[0..10:2], r: a[3]);
             p.x = 1; p.y = 2; a[3] = 4;
             lo = 2; hi = 8;
             check(r: a[lo..hi:1]);
         }",
    );
}

#[test]
fn renames_default_to_zero_before_first_assignment() {
    assert_identical("main { y <- x; x = 1; z <- x; }");
}

/// Every runtime error must surface identically (same variant, same
/// message, same event prefix) at the same step.
#[test]
fn error_paths_are_identical() {
    for src in [
        "main { x = 1 / 0; }",
        "main { x = 5 % 0; }",
        "main { x = y + 1; }",
        "main { x = 1 + true; }",
        "main { x = !3; }",
        "main { x = true < false; }",
        "main { a = new_array(3); x = a[3]; }",
        "main { a = new_array(3); x = a[0 - 1]; }",
        "main { a = new_array(3); y = 7; a[y] = y; }",
        "main { a = new_array(0 - 2); }",
        "main { x = new Nope; }",
        "class A { } main { a = new A; a.f = 1; }",
        "class A { } main { a = new A; x = a.f; }",
        "class A { } main { a = new A; x = a.m(); }",
        "class A { meth m(p) { return p; } } main { a = new A; x = a.m(); }",
        "main { x = 3; acq(x); }",
        "main { x = 3; x.f = 1; }",
        "main { x = 3; y = x[0]; }",
        "main { x = 3; n = x.length; }",
        "main { x = 3; join(x); }",
        "main { l = new_array(1); rel(l); }",
        "class L { } main { l = new L; rel(l); }",
        "class L { } main { l = new L; notify(l); }",
        "class L { } main { l = new L; wait(l); }",
        // Self-deadlock: main waits with nobody to notify.
        "class L { } main { l = new L; acq(l); wait(l); }",
        // Check paths can fail resolution too.
        "class P { field x; } main { p = new P; check(r: p.x/y); }",
        "main { check(r: p.x); }",
        "main { a = new_array(4); check(r: a[z..4:1]); }",
    ] {
        assert_identical(src);
    }
}

#[test]
fn run_limits_stop_both_tiers_identically() {
    // A fork past MAX_THREADS and an array over MAX_ARRAY_LEN stop both
    // tiers with the same error at the same step, so no recorded trace
    // holds an event the trace decoder rejects.
    let forks = format!(
        "class W {{ meth run() {{ return 0; }} }}
         main {{ w = new W; for (i = 0; i < {MAX_THREADS}; i = i + 1) {{ fork t = w.run(); }} }}"
    );
    let arrays = format!(
        "main {{ ok = new_array({MAX_ARRAY_LEN}); bad = new_array({}); }}",
        MAX_ARRAY_LEN + 1
    );
    let too_long = RuntimeError::ArrayTooLong(MAX_ARRAY_LEN as i64 + 1);
    for (src, err) in [(forks, RuntimeError::TooManyThreads), (arrays, too_long)] {
        assert_identical(&src);
        let (res, _) = run_interp(&src, SchedPolicy::default());
        assert_eq!(res.unwrap_err(), err, "{src}");
    }
}

#[test]
fn step_limit_hits_at_the_same_step() {
    let src = "main { i = 0; while (i >= 0) { i = i + 1; } }";
    let p = parse_program(src).expect("parse");
    let cp = compile(&p);
    for limit in [1u64, 7, 100, 12345] {
        let mut ri = RecordingSink::default();
        let ei = Interp::new(&p, SchedPolicy::default())
            .with_max_steps(limit)
            .run(&mut ri);
        let mut rc = RecordingSink::default();
        let ec = CompiledVm::new(&cp, SchedPolicy::default())
            .with_max_steps(limit)
            .run(&mut rc);
        assert_eq!(ei, ec, "limit {limit}");
        assert_eq!(ri.events, rc.events, "limit {limit}");
        assert_eq!(ei.unwrap_err(), RuntimeError::StepLimitExceeded(limit));
    }
}

#[test]
fn final_env_and_heap_match_the_interpreter() {
    let src = "class C { field n; meth set(v) { this.n = v; return v * 2; } }
               main { c = new C; x = c.set(21); a = new_array(2); a[1] = x; y <- x; }";
    let p = parse_program(src).expect("parse");
    let cp = compile(&p);
    let mut interp = Interp::new(&p, SchedPolicy::default());
    interp.run(&mut RecordingSink::default()).expect("interp");
    let mut vm = CompiledVm::new(&cp, SchedPolicy::default());
    vm.run(&mut RecordingSink::default()).expect("vm");
    let ie = interp.final_env(Tid(0)).expect("interp env");
    let ve = vm.final_env(Tid(0)).expect("vm env");
    assert_eq!(ie, ve);
    assert_eq!(ve[&Sym::intern("x")], Value::Int(42));
    assert_eq!(interp.heap().cells(), vm.heap().cells());
    assert_eq!(
        interp.heap().array(bigfoot_bfj::ArrId(0)).data,
        vm.heap().array(bigfoot_bfj::ArrId(0)).data
    );
}

/// A bigger composite program under every policy, to shake out
/// scheduler-coupling bugs (quantum boundaries, RNG draw ordering).
#[test]
fn composite_workload_is_identical_under_all_policies() {
    assert_identical(
        "class Worker {
             field sum;
             volatile flag;
             meth work(l, a, lo, hi) {
                 i = lo;
                 while (i < hi) {
                     v = a[i];
                     acq(l);
                     s = this.sum;
                     this.sum = s + v;
                     rel(l);
                     i = i + 1;
                 }
                 this.flag = 1;
                 return this.sum;
             }
         }
         main {
             l = new Worker; w = new Worker;
             w.sum = 0;
             a = new_array(40);
             i = 0;
             while (i < 40) { a[i] = i; i = i + 1; }
             fork t1 = w.work(l, a, 0, 20);
             fork t2 = w.work(l, a, 20, 40);
             f = w.flag;
             join(t1);
             join(t2);
             acq(l); total = w.sum; rel(l);
         }",
    );
}
