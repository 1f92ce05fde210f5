//! The end-to-end S TATIC BF pipeline: freshen → forward pre-pass →
//! backward anticipation → placement → cleanup → field-proxy analysis.

use crate::backward::anticipate_body;
use crate::cleanup::cleanup_program;
use crate::forward::{forward_pass, PlacementOptions};
use crate::killset::{volatile_fields, KillSets};
use crate::proxy::field_proxies;
use crate::rename::freshen_body;
use bigfoot_bfj::{AccessKind, Block, CheckPath, Program, Stmt, StmtKind};
use bigfoot_detectors::ProxyTable;
use bigfoot_entail::Verdicts;
use std::time::{Duration, Instant};

/// Timing and size statistics for one static-analysis run (the data
/// behind Table 1's S TATIC BF columns).
#[derive(Debug, Clone, Default)]
pub struct AnalysisStats {
    /// Methods analyzed (including `main`).
    pub methods: usize,
    /// Total wall-clock analysis time.
    pub total_time: Duration,
    /// Per-method analysis time.
    pub per_method: Vec<(String, Duration)>,
    /// `check(C)` statements in the instrumented output.
    pub checks_inserted: usize,
}

impl AnalysisStats {
    /// Mean analysis time per method.
    pub fn time_per_method(&self) -> Duration {
        if self.methods == 0 {
            Duration::ZERO
        } else {
            self.total_time / self.methods as u32
        }
    }
}

/// An instrumented program plus everything the dynamic side needs.
#[derive(Debug, Clone)]
pub struct Instrumented {
    /// The program with `check(C)` statements inserted.
    pub program: Program,
    /// Field-proxy compression table for the detector.
    pub proxies: ProxyTable,
    /// Static-analysis statistics.
    pub stats: AnalysisStats,
}

/// Runs the full BigFoot static analysis on a program.
///
/// # Examples
///
/// ```
/// let p = bigfoot_bfj::parse_program(
///     "main {
///          a = new_array(10);
///          for (i = 0; i < 10; i = i + 1) { a[i] = i; }
///      }",
/// )?;
/// let inst = bigfoot::instrument(&p);
/// let text = bigfoot_bfj::pretty(&inst.program);
/// // The loop's writes are covered by one coalesced check after the loop
/// // (the bound is expressed via the renamed counter, `i' + 1 == i`).
/// assert!(text.contains("check(w: a[0.."), "{text}");
/// assert_eq!(text.matches("check(").count(), 1, "{text}");
/// # Ok::<(), bigfoot_bfj::ParseError>(())
/// ```
pub fn instrument(p: &Program) -> Instrumented {
    instrument_with(p, InstrumentOptions::default())
}

/// Knobs for the ablation study (`repro ablation`): each disables one of
/// the paper's ingredients while keeping placement sound.
#[derive(Debug, Clone, Copy)]
pub struct InstrumentOptions {
    /// Backward anticipation pass (disabling forces checks before every
    /// release and at branch merges even when a later access would cover).
    pub anticipation: bool,
    /// §4 path coalescing.
    pub coalescing: bool,
    /// Loop-invariant inference / check motion out of loops.
    pub loop_invariants: bool,
    /// Static field-proxy compression.
    pub field_proxies: bool,
}

impl Default for InstrumentOptions {
    fn default() -> Self {
        InstrumentOptions {
            anticipation: true,
            coalescing: true,
            loop_invariants: true,
            field_proxies: true,
        }
    }
}

/// Runs the BigFoot static analysis with explicit [`InstrumentOptions`].
pub fn instrument_with(p: &Program, options: InstrumentOptions) -> Instrumented {
    let _span_total = bigfoot_obs::span!("static.instrument");
    let t_start = Instant::now();
    let mut out = p.clone();
    {
        let _span = bigfoot_obs::span!("static.freshen");
        // Freshen every body first, then renumber so statement ids are
        // program-unique (the analysis tables are keyed by them).
        for c in &mut out.classes {
            for m in &mut c.methods {
                freshen_body(&mut m.body, &m.params);
            }
        }
        let mut main = std::mem::take(&mut out.main);
        freshen_body(&mut main, &[]);
        out.main = main;
        out.renumber();
    }

    let kills = {
        let _span = bigfoot_obs::span!("static.killsets");
        KillSets::compute(&out)
    };
    let volatiles = volatile_fields(&out);
    let mut stats = AnalysisStats::default();

    let popts = PlacementOptions {
        coalescing: options.coalescing,
        loop_invariants: options.loop_invariants,
    };
    // One verdict cache for the whole run, dropped when it returns.
    let verdicts = Verdicts::new();
    // Per-method: record → anticipate → place.
    let analyze = |body: &Block, kills: &KillSets| -> (Block, Duration) {
        let _span = bigfoot_obs::span!("static.method");
        let t0 = Instant::now();
        let at = if options.anticipation {
            let _span = bigfoot_obs::span!("static.backward");
            let (_, tables) = forward_pass(body, kills, &volatiles, None, popts, &verdicts);
            Some(anticipate_body(
                body,
                kills,
                &volatiles,
                &tables.h_pre,
                &verdicts,
            ))
        } else {
            None
        };
        let placed = {
            let _span = bigfoot_obs::span!("static.forward");
            let (placed, _) = forward_pass(body, kills, &volatiles, at.as_ref(), popts, &verdicts);
            placed
        };
        (placed, t0.elapsed())
    };

    for ci in 0..out.classes.len() {
        for mi in 0..out.classes[ci].methods.len() {
            let body = std::mem::take(&mut out.classes[ci].methods[mi].body);
            let (placed, dt) = analyze(&body, &kills);
            out.classes[ci].methods[mi].body = placed;
            let name = format!(
                "{}.{}",
                out.classes[ci].name, out.classes[ci].methods[mi].name
            );
            stats.per_method.push((name, dt));
            stats.methods += 1;
            // Progress counter track in the flight recorder: in Perfetto
            // this renders analysis throughput over the method loop.
            bigfoot_obs::trace_counter!("static.methods_done", stats.methods);
        }
    }
    let body = std::mem::take(&mut out.main);
    let (placed, dt) = analyze(&body, &kills);
    out.main = placed;
    stats.per_method.push(("main".to_owned(), dt));
    stats.methods += 1;

    {
        let _span = bigfoot_obs::span!("static.cleanup");
        cleanup_program(&mut out);
    }
    stats.checks_inserted = count_checks(&out);
    stats.total_time = t_start.elapsed();
    let proxies = if options.field_proxies {
        let _span = bigfoot_obs::span!("static.proxy");
        field_proxies(&out)
    } else {
        bigfoot_detectors::ProxyTable::identity()
    };
    bigfoot_obs::count!("static.methods", stats.methods);
    bigfoot_obs::count!("static.checks_inserted", stats.checks_inserted);
    Instrumented {
        program: out,
        proxies,
        stats,
    }
}

/// Instruments every access with an adjacent check (the unoptimized
/// placement a standard detector implies; used for verifier baselines).
pub fn naive_instrument(p: &Program) -> Program {
    let mut out = p.clone();
    let volatiles = volatile_fields(p);
    for c in &mut out.classes {
        for m in &mut c.methods {
            let stmts = std::mem::take(&mut m.body.stmts);
            m.body.stmts = naive_block(stmts, &volatiles);
        }
    }
    let stmts = std::mem::take(&mut out.main.stmts);
    out.main.stmts = naive_block(stmts, &volatiles);
    out.renumber();
    out
}

fn naive_block(
    stmts: Vec<Stmt>,
    volatiles: &std::collections::HashSet<bigfoot_bfj::Sym>,
) -> Vec<Stmt> {
    let mut out = Vec::with_capacity(stmts.len() * 2);
    for mut s in stmts {
        let check = match &s.kind {
            StmtKind::ReadField { obj, field, .. } if !volatiles.contains(field) => {
                Some(CheckPath {
                    kind: AccessKind::Read,
                    path: bigfoot_bfj::Path::field(*obj, *field),
                })
            }
            StmtKind::WriteField { obj, field, .. } if !volatiles.contains(field) => {
                Some(CheckPath {
                    kind: AccessKind::Write,
                    path: bigfoot_bfj::Path::field(*obj, *field),
                })
            }
            StmtKind::ReadArr { arr, idx, .. } => Some(CheckPath {
                kind: AccessKind::Read,
                path: bigfoot_bfj::Path::index(*arr, idx.clone()),
            }),
            StmtKind::WriteArr { arr, idx, .. } => Some(CheckPath {
                kind: AccessKind::Write,
                path: bigfoot_bfj::Path::index(*arr, idx.clone()),
            }),
            _ => None,
        };
        if let Some(cp) = check {
            out.push(Stmt::new(StmtKind::Check { paths: vec![cp] }));
        }
        match &mut s.kind {
            StmtKind::If { then_b, else_b, .. } => {
                then_b.stmts = naive_block(std::mem::take(&mut then_b.stmts), volatiles);
                else_b.stmts = naive_block(std::mem::take(&mut else_b.stmts), volatiles);
            }
            StmtKind::Loop { head, tail, .. } => {
                head.stmts = naive_block(std::mem::take(&mut head.stmts), volatiles);
                tail.stmts = naive_block(std::mem::take(&mut tail.stmts), volatiles);
            }
            _ => {}
        }
        out.push(s);
    }
    out
}

/// Counts `check(C)` statements in a program.
pub fn count_checks(p: &Program) -> usize {
    fn walk(b: &Block) -> usize {
        b.stmts
            .iter()
            .map(|s| match &s.kind {
                StmtKind::Check { .. } => 1,
                StmtKind::If { then_b, else_b, .. } => walk(then_b) + walk(else_b),
                StmtKind::Loop { head, tail, .. } => walk(head) + walk(tail),
                _ => 0,
            })
            .sum()
    }
    p.methods().map(|(_, m)| walk(&m.body)).sum::<usize>() + walk(&p.main)
}
