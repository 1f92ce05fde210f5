//! Time-to-verdict benchmark for `bfc check`'s default serial path.
//!
//! One process, one thread. Every program of a workload is checked the way
//! `bfc check` checks it with no topology flags: parse, instrument (BigFoot
//! only), interpret under a seeded random schedule straight into the
//! detector, finish. The uninstrumented base run uses the same schedule
//! into a [`NullSink`]. The workload seed picks every schedule seed and
//! every generated program; the library only ever sees the generated
//! inputs.
//!
//! A *pass* checks every program of the workload once under each of base,
//! FastTrack and BigFoot. Timings are medians of per-pass sums. A timed run
//! ([`Options::trace`] off) keeps `bigfoot-obs` off. A traced run alternates
//! untraced passes with traced ones: a traced pass records spans around the
//! benchmark's own calls into each layer, turns `bigfoot-obs` on only for
//! its verdict runs so the `entail.*` and `vc.*` numbers come from counters
//! the program already keeps, and then re-runs each instrumented program in
//! pieces (no sink, a counting sink, detector-only over a recorded trace) so
//! the cost of BigFoot's verdict can be split by layer.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use bigfoot::Instrumented;
use bigfoot_bfj::{
    parse_program, Event, EventSink, Interp, NullSink, Program, RecordingSink, RunOutcome,
    SchedPolicy,
};
use bigfoot_detectors::{verify_precise_checks, Detector, Stats};
use bigfoot_obs::json::Json;
use bigfoot_workloads::{random_program, source, RandomConfig, Scale};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["suite-access", "suite-sync", "random-racy"];

/// Suite programs whose cost is interpretation, event production and the
/// detector's access and check paths.
const SUITE_ACCESS: [&str; 15] = [
    "crypt",
    "series",
    "lufact",
    "moldyn",
    "montecarlo",
    "sparse",
    "sor",
    "batik",
    "raytracer",
    "sunflow",
    "luindex",
    "pmd",
    "fop",
    "lusearch",
    "jython",
];

/// Suite programs dominated by vector-clock joins and footprint commits at
/// synchronization operations.
const SUITE_SYNC: [&str; 4] = ["tomcat", "avrora", "xalan", "h2"];

/// Generated programs per `random-racy` input set at full size.
const RANDOM_PROGRAMS: u64 = 96;

/// Set-up repeats until it has taken this long, at least [`SETUP_MIN_REPS`]
/// times; `setup_s` is the median repetition.
const SETUP_SECONDS: f64 = 2.0;
const SETUP_MIN_REPS: usize = 3;

/// `ledger.bf_residual_s` must stay within this share of the traced
/// `bf_check_s`: the pieces are measured in separate runs of the same
/// schedule, so they differ from the combined run only by cache and
/// allocator effects and timer noise.
pub const RESIDUAL_BOUND: f64 = 0.15;

/// What a program's verdict must be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Race-free by construction: any race under either detector is a
    /// wrong verdict.
    RaceFree,
    /// May race: FastTrack and BigFoot must agree on one shared trace.
    MayRace,
}

/// One program of a workload, with the schedule it is checked under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Input {
    /// Display name.
    pub name: String,
    /// BFJ source text.
    pub source: String,
    /// The verdict the program must get.
    pub expect: Expect,
    /// Seed of the random schedule every run of this program uses.
    pub sched_seed: u64,
}

/// Input size: `Full` for the benchmark, `Tiny` for its self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's sizes.
    Full,
    /// Suite programs at `Scale::Small` and a few small generated programs.
    Tiny,
}

/// splitmix64 over `seed` and a stream index: decorrelated per-program
/// seeds from one workload seed.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generates a workload's inputs from its seed.
pub fn inputs(workload: &str, seed: u64, size: Size) -> Result<Vec<Input>, String> {
    let scale = match size {
        Size::Full => Scale::Full,
        Size::Tiny => Scale::Small,
    };
    let suite = |names: &[&str]| -> Vec<Input> {
        (0u64..)
            .zip(names)
            .map(|(i, name)| Input {
                name: name.to_string(),
                source: source(name, scale).expect("suite program exists"),
                expect: Expect::RaceFree,
                sched_seed: mix(seed, i),
            })
            .collect()
    };
    match workload {
        "suite-access" => Ok(suite(&SUITE_ACCESS)),
        "suite-sync" => Ok(suite(&SUITE_SYNC)),
        "random-racy" => {
            let (count, stmts, array_len) = match size {
                Size::Full => (RANDOM_PROGRAMS, 10, 64),
                Size::Tiny => (4, 6, 8),
            };
            Ok((0..count)
                .map(|i| {
                    let racy = i % 2 == 1;
                    let cfg = RandomConfig {
                        seed: mix(seed, (1 << 32) | i),
                        size: stmts,
                        threads: 3,
                        array_len,
                        racy,
                        locks: 2,
                        volatiles: true,
                        strided: true,
                        symbolic_bounds: true,
                        fork_trees: true,
                    };
                    Input {
                        name: format!("random{i}{}", if racy { "-racy" } else { "" }),
                        source: random_program(&cfg),
                        expect: if racy {
                            Expect::MayRace
                        } else {
                            Expect::RaceFree
                        },
                        sched_seed: mix(seed, i),
                    }
                })
                .collect())
        }
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

fn parse(src: &str) -> Result<Program, String> {
    parse_program(src).map_err(|e| format!("parse error: {e}"))
}

/// The schedule `bfc check` uses for one seeded run.
fn run<S: EventSink>(program: &Program, seed: u64, sink: &mut S) -> Result<RunOutcome, String> {
    Interp::new(
        program,
        SchedPolicy::Random {
            seed,
            switch_inv: 2,
        },
    )
    .run(sink)
    .map_err(|e| format!("runtime error: {e}"))
}

fn replay(events: &[Event], mut det: Detector) -> Stats {
    for ev in events {
        det.event(ev);
    }
    det.finish()
}

/// Counts events by class: build and dispatch cost without a detector.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct ClassCounts {
    /// `Event::Access`.
    access: u64,
    /// `Event::Check`.
    check: u64,
    /// Synchronization events (`Event::is_sync`).
    sync: u64,
    /// Object and array allocations.
    alloc: u64,
}

impl ClassCounts {
    fn total(&self) -> u64 {
        self.access + self.check + self.sync + self.alloc
    }
}

impl EventSink for ClassCounts {
    fn event(&mut self, ev: &Event) {
        match ev {
            Event::Access { .. } => self.access += 1,
            Event::Check { .. } => self.check += 1,
            Event::AllocObj { .. } | Event::AllocArr { .. } => self.alloc += 1,
            _ => self.sync += 1,
        }
    }
}

/// One span recorded around a call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `bf_check.instrument`.
    pub name: &'static str,
    /// Id shared by every span of one program check.
    pub check: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, from the recorder's origin.
    pub start: Duration,
    /// End, from the recorder's origin.
    pub end: Duration,
}

/// In-memory span recorder. A disabled recorder only runs the closure.
struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn span<T>(&mut self, name: &'static str, check: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            check,
            parent: self.open.last().copied(),
            start: self.origin.elapsed(),
            end: Duration::ZERO,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.origin.elapsed();
        out
    }
}

/// Total and self time per span name over `spans[from..]`, in seconds.
fn span_times(spans: &[Span], from: usize) -> BTreeMap<&'static str, (f64, f64)> {
    let mut child = vec![Duration::ZERO; spans.len()];
    for s in &spans[from..] {
        if let Some(p) = s.parent {
            child[p] += s.end - s.start;
        }
    }
    let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate().skip(from) {
        let total = s.end - s.start;
        let e = out.entry(s.name).or_default();
        e.0 += total.as_secs_f64();
        e.1 += total.saturating_sub(child[i]).as_secs_f64();
    }
    out
}

/// Deterministic per-program counts; a rerun with the same seed must
/// reproduce them exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counts {
    /// Interpreter steps of the base run.
    pub base_steps: u64,
    /// FastTrack accesses.
    pub ft_accesses: u64,
    /// FastTrack shadow operations.
    pub ft_shadow_ops: u64,
    /// FastTrack peak shadow space.
    pub ft_shadow_peak: u64,
    /// FastTrack races reported.
    pub ft_races: u64,
    /// BigFoot checks executed.
    pub bf_checks: u64,
    /// BigFoot accesses.
    pub bf_accesses: u64,
    /// BigFoot shadow operations.
    pub bf_shadow_ops: u64,
    /// BigFoot footprint operations.
    pub bf_footprint_ops: u64,
    /// BigFoot peak shadow space.
    pub bf_shadow_peak: u64,
    /// BigFoot races reported.
    pub bf_races: u64,
    /// Synchronization operations both detectors processed.
    pub sync_ops: u64,
}

/// One program checked under base, FastTrack and BigFoot.
struct Checked {
    base_s: f64,
    ft_s: f64,
    bf_s: f64,
    counts: Counts,
    program: Program,
    inst: Instrumented,
}

/// Checks one program under base, FastTrack and BigFoot. `rotation` picks
/// which of the three goes first, so that no configuration always pays
/// for the caches the previous program left behind.
fn check_program(
    input: &Input,
    tr: &mut Tracer,
    id: u64,
    rotation: usize,
) -> Result<Checked, String> {
    let seed = input.sched_seed;
    let (mut base, mut ft, mut bf) = (None, None, None);
    for k in 0..3 {
        let t = Instant::now();
        match (k + rotation) % 3 {
            0 => {
                let out = tr.span("base", id, |tr| {
                    let p = tr.span("base.parse", id, |_| parse(&input.source))?;
                    tr.span("base.run", id, |_| run(&p, seed, &mut NullSink))
                })?;
                base = Some((out, t.elapsed().as_secs_f64()));
            }
            1 => {
                let out = tr.span("ft_check", id, |tr| {
                    let p = tr.span("ft_check.parse", id, |_| parse(&input.source))?;
                    let mut det = Detector::fasttrack();
                    tr.span("ft_check.run", id, |_| run(&p, seed, &mut det))?;
                    let stats = tr.span("ft_check.finish", id, |_| det.finish());
                    Ok::<_, String>((p, stats))
                })?;
                ft = Some((out, t.elapsed().as_secs_f64()));
            }
            _ => {
                let out = tr.span("bf_check", id, |tr| {
                    let p = tr.span("bf_check.parse", id, |_| parse(&input.source))?;
                    let inst = tr.span("bf_check.instrument", id, |_| bigfoot::instrument(&p));
                    let mut det = Detector::bigfoot(inst.proxies.clone());
                    tr.span("bf_check.run", id, |_| run(&inst.program, seed, &mut det))?;
                    let stats = tr.span("bf_check.finish", id, |_| det.finish());
                    Ok::<_, String>((inst, stats))
                })?;
                bf = Some((out, t.elapsed().as_secs_f64()));
            }
        }
    }
    let ran = "all three configurations ran";
    let (base, base_s) = base.expect(ran);
    let ((program, ft), ft_s) = ft.expect(ran);
    let ((inst, bf), bf_s) = bf.expect(ran);

    let counts = Counts {
        base_steps: base.steps,
        ft_accesses: ft.accesses(),
        ft_shadow_ops: ft.shadow_ops,
        ft_shadow_peak: ft.shadow_space_peak,
        ft_races: ft.races.len() as u64,
        bf_checks: bf.checks,
        bf_accesses: bf.accesses(),
        bf_shadow_ops: bf.shadow_ops,
        bf_footprint_ops: bf.footprint_ops,
        bf_shadow_peak: bf.shadow_space_peak,
        bf_races: bf.races.len() as u64,
        sync_ops: ft.sync_ops + bf.sync_ops,
    };
    Ok(Checked {
        base_s,
        ft_s,
        bf_s,
        counts,
        program,
        inst,
    })
}

/// Counts from the traced re-runs of one program.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct Pieces {
    bf_steps: u64,
    bf_events: ClassCounts,
    ft_access_events: u64,
}

/// Re-runs a checked program in pieces under the tracer: the instrumented
/// program with no sink (`run_bf`) and into a counting sink (`emit_bf`),
/// then each detector alone over a recorded trace.
fn run_pieces(c: &Checked, input: &Input, tr: &mut Tracer, id: u64) -> Result<Pieces, String> {
    let seed = input.sched_seed;
    tr.span("run_bf", id, |_| run(&c.inst.program, seed, &mut NullSink))?;
    let mut bf_events = ClassCounts::default();
    let out = tr.span("emit_bf", id, |_| {
        run(&c.inst.program, seed, &mut bf_events)
    })?;
    let mut rec = RecordingSink::default();
    tr.span("record_bf", id, |_| run(&c.inst.program, seed, &mut rec))?;
    tr.span("bf_detect", id, |_| {
        replay(&rec.events, Detector::bigfoot(c.inst.proxies.clone()))
    });
    // Free the BigFoot trace before recording FastTrack's.
    drop(rec);
    let mut rec = RecordingSink::default();
    tr.span("record_ft", id, |_| run(&c.program, seed, &mut rec))?;
    tr.span("ft_detect", id, |_| {
        replay(&rec.events, Detector::fasttrack())
    });
    let ft_access_events = rec
        .events
        .iter()
        .filter(|e| matches!(e, Event::Access { .. }))
        .count() as u64;
    Ok(Pieces {
        bf_steps: out.steps,
        bf_events,
        ft_access_events,
    })
}

/// The verdict oracle for a program that may race: both detectors read one
/// recorded run of the BigFoot-instrumented program, must report the same
/// racy locations, and the placed checks must be precise on that trace (as
/// the fuzzer's placement oracle requires). Comparing each detector's own
/// run would be wrong: the two programs' schedules interleave differently.
/// Once the repository has a ground-truth happens-before race oracle, it
/// replaces this comparison.
fn may_race_verdict(input: &Input, inst: &Instrumented) -> Result<(), String> {
    let mut rec = RecordingSink::default();
    run(&inst.program, input.sched_seed, &mut rec)?;
    let ft = replay(&rec.events, Detector::fasttrack());
    let bf = replay(&rec.events, Detector::bigfoot(inst.proxies.clone()));
    verify_precise_checks(&rec.events).map_err(|e| format!("imprecise checks: {e}"))?;
    if ft.racy_locations() != bf.racy_locations() {
        return Err(format!(
            "fasttrack reports races at {:?}, bigfoot at {:?}",
            ft.racy_locations(),
            bf.racy_locations()
        ));
    }
    Ok(())
}

/// How a run goes: how long it measures, and whether it is traced.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Measuring window; passes continue until it is spent.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Fewest passes (of each kind, in a traced run).
    pub min_passes: usize,
}

/// One named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// Everything one run produces.
#[derive(Debug, Clone)]
pub struct Report {
    /// No wrong verdict and no failed operation.
    pub correct: bool,
    /// Program checks attempted (one per program per pass, plus one per
    /// may-race verdict oracle).
    pub attempted: u64,
    /// Attempted checks that errored, gave a wrong verdict, or did not
    /// reproduce the first pass's counts.
    pub failed: u64,
    /// Programs with a wrong verdict or a runtime error.
    pub verdict_errors: u64,
    /// First failure message of each failing program.
    pub errors: Vec<String>,
    /// Passes measured (untraced, traced).
    pub passes: (usize, usize),
    /// Per-program counts of the first pass.
    pub counts: Vec<Counts>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Self time per span name, per-pass medians (traced runs only).
    pub self_times: Vec<(&'static str, f64)>,
    /// `ledger.bf_residual_s` as a share of the traced `bf_check_s`, median
    /// per pass (traced runs only); [`RESIDUAL_BOUND`] bounds its size.
    pub bf_residual_share: Option<f64>,
    /// Per-program BigFoot times to verdict behind
    /// `ledger.bf_verdict_tail_ms`.
    pub bf_verdict_samples: usize,
    /// Recorded spans (traced runs only).
    pub spans: Vec<Span>,
}

impl Report {
    /// A metric's value by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> Json {
        let mut metrics = Json::object();
        for m in &self.metrics {
            let mut v = Json::object();
            v.set("value", m.value);
            v.set("unit", m.unit);
            metrics.set(m.name, v);
        }
        let mut out = Json::object();
        out.set("correct", self.correct);
        out.set("attempted", self.attempted);
        out.set("failed", self.failed);
        out.set("metrics", metrics);
        out
    }

    /// The spans as a JSON array, times in microseconds.
    pub fn spans_json(&self) -> Json {
        let mut out = Json::array();
        for (i, s) in self.spans.iter().enumerate() {
            let mut o = Json::object();
            o.set("id", i);
            match s.parent {
                Some(p) => o.set("parent", p),
                None => o.set("parent", Json::Null),
            };
            o.set("check", s.check);
            o.set("name", s.name);
            o.set("start_us", s.start.as_secs_f64() * 1e6);
            o.set("end_us", s.end.as_secs_f64() * 1e6);
            out.push(o);
        }
        out
    }
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-pass sums over the programs that passed.
#[derive(Debug, Default, Clone)]
struct PassTimes {
    base: f64,
    ft: f64,
    bf: f64,
}

/// What a traced pass measures beyond its pass times.
#[derive(Debug, Clone)]
struct TracedPass {
    times: PassTimes,
    spans: BTreeMap<&'static str, (f64, f64)>,
    pieces: Vec<Pieces>,
    checks_placed: u64,
    methods: u64,
    obs: bigfoot_obs::Snapshot,
}

impl TracedPass {
    fn span_total(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |v| v.0)
    }

    fn entail_s(&self) -> f64 {
        self.obs.timer("entail.query").map_or(0, |t| t.total) as f64 * 1e-9
    }

    /// BigFoot's traced time to verdict minus the pieces it is made of:
    /// parse + instrument + run_bf + (emit_bf − run_bf) + bf_detect, all
    /// self times.
    fn residual(&self) -> f64 {
        let own = |name: &str| self.spans.get(name).map_or(0.0, |v| v.1);
        let run_bf = own("run_bf");
        self.span_total("bf_check")
            - (own("bf_check.parse")
                + own("bf_check.instrument")
                + run_bf
                + (own("emit_bf") - run_bf)
                + own("bf_detect"))
    }
}

/// State of one benchmark run across its passes.
struct Run<'a> {
    inputs: &'a [Input],
    tr: Tracer,
    attempted: u64,
    failed: u64,
    errors: Vec<Option<String>>,
    reference: Vec<Option<Counts>>,
    instrumented: Vec<Option<Instrumented>>,
    /// Per program, the fastest untraced base, FastTrack and BigFoot times.
    best: Vec<[f64; 3]>,
    /// Per-program BigFoot times to verdict over the untraced passes.
    bf_samples: Vec<f64>,
    untraced: Vec<PassTimes>,
    traced: Vec<TracedPass>,
}

impl<'a> Run<'a> {
    fn new(inputs: &'a [Input]) -> Self {
        let n = inputs.len();
        Run {
            inputs,
            tr: Tracer {
                on: false,
                origin: Instant::now(),
                spans: Vec::new(),
                open: Vec::new(),
            },
            attempted: 0,
            failed: 0,
            errors: vec![None; n],
            reference: vec![None; n],
            instrumented: vec![None; n],
            best: vec![[f64::INFINITY; 3]; n],
            bf_samples: Vec::new(),
            untraced: Vec::new(),
            traced: Vec::new(),
        }
    }

    fn fail(&mut self, i: usize, e: String) {
        self.failed += 1;
        self.errors[i].get_or_insert(format!("{}: {e}", self.inputs[i].name));
    }

    /// Checks one program and judges its verdict.
    fn check(&mut self, i: usize, id: u64, rotation: usize) -> Result<Checked, String> {
        let input = &self.inputs[i];
        let c = check_program(input, &mut self.tr, id, rotation)?;
        if input.expect == Expect::RaceFree && c.counts.ft_races + c.counts.bf_races > 0 {
            return Err(format!(
                "race-free program reported racy (fasttrack {} races, bigfoot {})",
                c.counts.ft_races, c.counts.bf_races
            ));
        }
        match &self.reference[i] {
            Some(r) if *r != c.counts => {
                Err("counts differ from the first pass under the same schedule".into())
            }
            _ => Ok(c),
        }
    }

    /// One pass over every program. A traced pass records spans, turns
    /// `bigfoot-obs` on for the verdict runs only, and runs each program's
    /// pieces right after its check so both see the same host conditions.
    fn pass(&mut self, tracing: bool) {
        let pass = (self.untraced.len() + self.traced.len()) as u64;
        let n = self.inputs.len();
        self.tr.on = tracing;
        let span_mark = self.tr.spans.len();
        bigfoot_obs::reset();
        let mut times = PassTimes::default();
        let (mut pieces, mut checks_placed, mut methods) = (Vec::new(), 0, 0);
        for i in 0..n {
            self.attempted += 1;
            let id = pass * n as u64 + i as u64;
            bigfoot_obs::set_enabled(tracing);
            let checked = self.check(i, id, (pass as usize + i) % 3);
            bigfoot_obs::set_enabled(false);
            let c = match checked {
                Ok(c) => c,
                Err(e) => {
                    self.fail(i, e);
                    continue;
                }
            };
            times.base += c.base_s;
            times.ft += c.ft_s;
            times.bf += c.bf_s;
            if tracing {
                match run_pieces(&c, &self.inputs[i], &mut self.tr, id) {
                    Ok(p) => pieces.push(p),
                    Err(e) => self.fail(i, e),
                }
                checks_placed += c.inst.stats.checks_inserted as u64;
                methods += c.inst.stats.methods as u64;
            } else {
                let best = &mut self.best[i];
                for (b, t) in best.iter_mut().zip([c.base_s, c.ft_s, c.bf_s]) {
                    *b = b.min(t);
                }
                self.bf_samples.push(c.bf_s);
            }
            self.reference[i].get_or_insert_with(|| c.counts.clone());
            self.instrumented[i].get_or_insert(c.inst);
        }
        if tracing {
            self.traced.push(TracedPass {
                times,
                spans: span_times(&self.tr.spans, span_mark),
                pieces,
                checks_placed,
                methods,
                obs: bigfoot_obs::snapshot(),
            });
        } else {
            self.untraced.push(times);
        }
    }

    /// Untimed verdict oracle for every program that may race.
    fn judge_may_race(&mut self) {
        for i in 0..self.inputs.len() {
            if self.inputs[i].expect != Expect::MayRace {
                continue;
            }
            let Some(inst) = &self.instrumented[i] else {
                continue;
            };
            self.attempted += 1;
            if let Err(e) = may_race_verdict(&self.inputs[i], inst) {
                self.fail(i, e);
            }
        }
    }

    fn counts_sum(&self, f: fn(&Counts) -> u64) -> f64 {
        self.reference.iter().flatten().map(f).sum::<u64>() as f64
    }

    /// Sum over programs of each program's fastest untraced pass.
    fn best_sum(&self, k: usize) -> f64 {
        self.best
            .iter()
            .map(|b| b[k])
            .filter(|t| t.is_finite())
            .sum()
    }

    fn end_to_end(&self, setup_s: f64) -> Vec<Metric> {
        let c = |f: fn(&Counts) -> u64| self.counts_sum(f);
        vec![
            metric("setup_s", "s", setup_s),
            metric("base_s", "s", self.best_sum(0)),
            metric("ft_check_s", "s", self.best_sum(1)),
            metric("bf_check_s", "s", self.best_sum(2)),
            metric(
                "bf_check_ratio",
                "ratio",
                ratio(c(|c| c.bf_checks), c(|c| c.bf_accesses)),
            ),
            metric("bf_shadow_peak", "entries", c(|c| c.bf_shadow_peak)),
            metric("ft_shadow_peak", "entries", c(|c| c.ft_shadow_peak)),
        ]
    }

    fn per_layer(&self) -> (Vec<Metric>, Vec<(&'static str, f64)>, f64) {
        let tp = &self.traced;
        let med = |f: &dyn Fn(&TracedPass) -> f64| median(&tp.iter().map(f).collect::<Vec<_>>());
        let untraced_med = |f: &dyn Fn(&PassTimes) -> f64| {
            median(&self.untraced.iter().map(f).collect::<Vec<_>>())
        };
        let span = |name: &'static str| med(&|t| t.span_total(name));
        let c = |f: fn(&Counts) -> u64| self.counts_sum(f);
        // Counts are identical in every pass; take them from the last.
        let last = tp.last().expect("a traced run has traced passes");
        let pieces = |f: fn(&Pieces) -> u64| last.pieces.iter().map(f).sum::<u64>() as f64;
        let events = |f: fn(&ClassCounts) -> u64| {
            last.pieces.iter().map(|p| f(&p.bf_events)).sum::<u64>() as f64
        };
        let counter = |name: &str| last.obs.counter(name) as f64;
        let rate = |fast: &str, slow: &str| ratio(counter(fast), counter(fast) + counter(slow));
        let hits = counter("entail.cache.hit");
        // Slowdowns use the same per-program fastest passes as the
        // end-to-end times.
        let (base, ft, bf) = (self.best_sum(0), self.best_sum(1), self.best_sum(2));

        let metrics = vec![
            metric("bfj.parse_s", "s", span("bf_check.parse")),
            metric("bfj.run_base_s", "s", span("base.run")),
            metric("bfj.run_bf_s", "s", span("run_bf")),
            metric("bfj.emit_bf_s", "s", span("emit_bf")),
            metric("bfj.steps_base", "count", c(|c| c.base_steps)),
            metric("bfj.steps_bf", "count", pieces(|p| p.bf_steps)),
            metric("bfj.events_bf.access", "count", events(|e| e.access)),
            metric("bfj.events_bf.check", "count", events(|e| e.check)),
            metric("bfj.events_bf.sync", "count", events(|e| e.sync)),
            metric("bfj.events_bf.alloc", "count", events(|e| e.alloc)),
            metric(
                "bfj.events_ft.access",
                "count",
                pieces(|p| p.ft_access_events),
            ),
            metric("core.instrument_s", "s", span("bf_check.instrument")),
            metric("core.checks_placed", "count", last.checks_placed as f64),
            metric("core.methods", "count", last.methods as f64),
            metric("entail.query_s", "s", med(&|t| t.entail_s())),
            metric(
                "entail.queries",
                "count",
                last.obs.timer("entail.query").map_or(0, |t| t.count) as f64,
            ),
            metric(
                "entail.cache_hit_rate",
                "ratio",
                ratio(hits, hits + counter("entail.cache.miss")),
            ),
            metric(
                "entail.share",
                "ratio",
                med(&|t| ratio(t.entail_s(), t.span_total("bf_check.instrument"))),
            ),
            metric("detectors.ft_detect_s", "s", span("ft_detect")),
            metric("detectors.bf_detect_s", "s", span("bf_detect")),
            metric(
                "detectors.bf_useful_event_rate",
                "ratio",
                ratio(
                    events(|e| e.check + e.sync + e.alloc),
                    events(|e| e.total()),
                ),
            ),
            metric("detectors.races_ft", "count", c(|c| c.ft_races)),
            metric("detectors.races_bf", "count", c(|c| c.bf_races)),
            metric("shadow.ops_ft", "count", c(|c| c.ft_shadow_ops)),
            metric("shadow.ops_bf", "count", c(|c| c.bf_shadow_ops)),
            metric(
                "shadow.footprint_ops_bf",
                "count",
                c(|c| c.bf_footprint_ops),
            ),
            metric("vc.sync_ops", "count", c(|c| c.sync_ops)),
            metric(
                "vc.read.fast_path_rate",
                "ratio",
                rate("vc.read.fast_path", "vc.read.slow_path"),
            ),
            metric(
                "vc.write.fast_path_rate",
                "ratio",
                rate("vc.write.fast_path", "vc.write.slow_path"),
            ),
            metric("vc.clock.spills", "count", counter("vc.clock.spills")),
            metric("ledger.bf_slowdown", "ratio", ratio(bf, base)),
            metric("ledger.ft_slowdown", "ratio", ratio(ft, base)),
            metric(
                "ledger.bf_over_ft_overhead",
                "ratio",
                ratio(bf - base, ft - base),
            ),
            metric(
                "ledger.bf_verdict_tail_ms",
                "ms",
                tail(&self.bf_samples) * 1e3,
            ),
            metric("ledger.bf_residual_s", "s", med(&|t| t.residual())),
            metric(
                "ledger.tracing_overhead",
                "ratio",
                ratio(med(&|t| t.times.bf), untraced_med(&|p| p.bf)),
            ),
        ];

        let mut names: Vec<&'static str> =
            tp.iter().flat_map(|t| t.spans.keys().copied()).collect();
        names.sort_unstable();
        names.dedup();
        let self_times = names
            .into_iter()
            .map(|name| (name, med(&|t| t.spans.get(name).map_or(0.0, |v| v.1))))
            .collect();
        let residual_share = med(&|t| ratio(t.residual(), t.span_total("bf_check")));
        (metrics, self_times, residual_share)
    }
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Runs one workload: set-up, measured passes, verdict checks.
///
/// Set-up (generate every input, parse it, run it once uninstrumented so
/// allocator and interner warm-up falls there) is repeated for
/// [`SETUP_SECONDS`]; `make_inputs` is called once per repetition and
/// the last call's inputs are measured. End-to-end times sum, over the
/// programs, each program's fastest untraced pass: the host's load comes
/// and goes in phases of seconds, and the fastest pass is the one it
/// disturbed least.
pub fn run_benchmark(
    make_inputs: &dyn Fn() -> Result<Vec<Input>, String>,
    opts: Options,
) -> Result<Report, String> {
    bigfoot_obs::set_enabled(false);
    let mut setups = Vec::new();
    let mut inputs = Vec::new();
    let setup_start = Instant::now();
    while setups.len() < SETUP_MIN_REPS || setup_start.elapsed().as_secs_f64() < SETUP_SECONDS {
        let t = Instant::now();
        inputs = make_inputs()?;
        for input in &inputs {
            if let Ok(p) = parse(&input.source) {
                let _ = run(&p, input.sched_seed, &mut NullSink);
            }
        }
        setups.push(t.elapsed().as_secs_f64());
    }
    if inputs.is_empty() {
        return Err("workload has no programs".into());
    }

    let mut r = Run::new(&inputs);
    let start = Instant::now();
    loop {
        let enough = r.untraced.len() >= opts.min_passes
            && (!opts.trace || r.traced.len() >= opts.min_passes);
        if enough && start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
        let tracing = opts.trace && (r.untraced.len() + r.traced.len()) % 2 == 1;
        r.pass(tracing);
    }
    r.judge_may_race();

    let (metrics, self_times, bf_residual_share) = if opts.trace {
        let (metrics, self_times, share) = r.per_layer();
        (metrics, self_times, Some(share))
    } else {
        (r.end_to_end(median(&setups)), Vec::new(), None)
    };
    let errors: Vec<String> = r.errors.iter().flatten().cloned().collect();
    let verdict_errors = errors.len() as u64;
    Ok(Report {
        correct: r.failed == 0 && verdict_errors == 0,
        attempted: r.attempted,
        failed: r.failed,
        verdict_errors,
        errors,
        passes: (r.untraced.len(), r.traced.len()),
        counts: r.reference.iter().flatten().cloned().collect(),
        metrics,
        self_times,
        bf_residual_share,
        bf_verdict_samples: r.bf_samples.len(),
        spans: r.tr.spans,
    })
}

/// The sample at the highest percentile with at least ten samples beyond
/// it; the median when there are too few samples for that.
fn tail(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    if s.len() > 10 {
        s[s.len() - 11]
    } else {
        median(&s)
    }
}
