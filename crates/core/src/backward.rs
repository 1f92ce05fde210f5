//! The backward *anticipated accesses* pass (the `✸` component of Fig. 7).
//!
//! An access is anticipated at a point if it occurs on every forward path
//! before the next acquire-like operation. Anticipated accesses let the
//! forward pass defer (or skip) checks: a pending past access whose
//! location will certainly be accessed again is covered by the future
//! access's check.

use crate::facts::{APath, Anticipated, History, PathFact};
use crate::killset::KillSets;
use bigfoot_bfj::{AccessKind, Block, Expr, Stmt, StmtId, StmtKind, Sym};
use bigfoot_entail::{linearize, SymRange, Verdicts};
use std::collections::{HashMap, HashSet};

/// Maximum greatest-fixed-point iterations for loop anticipation.
const MAX_LOOP_ITERS: usize = 8;

/// Anticipated sets computed per program point.
#[derive(Debug, Default)]
pub struct ATables {
    /// Anticipated set immediately before each statement.
    pub pre: HashMap<StmtId, Anticipated>,
    /// Anticipated set immediately after each statement.
    pub post: HashMap<StmtId, Anticipated>,
    /// For each loop statement: the anticipated set at the loop head.
    pub loop_head: HashMap<StmtId, Anticipated>,
}

/// Runs the backward pass over a method body, answering entailment queries
/// through the analysis run's shared `verdicts`.
///
/// `h_pre` gives the history (bool/alias facts) before each statement,
/// from the forward pre-pass; it sharpens the entailment used when merging
/// anticipated sets at joins.
pub fn anticipate_body(
    body: &Block,
    kills: &KillSets,
    volatiles: &HashSet<Sym>,
    h_pre: &HashMap<StmtId, History>,
    verdicts: &Verdicts,
) -> ATables {
    let mut bw = BackwardPass {
        kills,
        volatiles,
        h_pre,
        verdicts,
        tables: ATables::default(),
    };
    // Nothing is anticipated at method end.
    bw.block(body, Anticipated::new());
    bw.tables
}

struct BackwardPass<'a> {
    kills: &'a KillSets,
    volatiles: &'a HashSet<Sym>,
    h_pre: &'a HashMap<StmtId, History>,
    verdicts: &'a Verdicts,
    tables: ATables,
}

impl BackwardPass<'_> {
    /// Processes a block backward; returns the anticipated set at its
    /// start.
    fn block(&mut self, b: &Block, post: Anticipated) -> Anticipated {
        let mut a = post;
        for s in b.stmts.iter().rev() {
            a = self.stmt(s, a);
        }
        a
    }

    fn stmt(&mut self, s: &Stmt, post: Anticipated) -> Anticipated {
        self.tables.post.insert(s.id, post.clone());
        let pre = self.transfer(s, post);
        self.tables.pre.insert(s.id, pre.clone());
        pre
    }

    fn transfer(&mut self, s: &Stmt, mut a: Anticipated) -> Anticipated {
        match &s.kind {
            StmtKind::Skip | StmtKind::Check { .. } => a,
            StmtKind::Assign { x, e } => {
                a.subst(*x, e);
                a
            }
            StmtKind::Rename { fresh, old } => {
                a.subst(*fresh, &Expr::Var(*old));
                a
            }
            StmtKind::New { x, .. } | StmtKind::NewArray { x, .. } => {
                // A fresh allocation cannot alias anything anticipated;
                // facts naming x refer to the new object.
                a.kill_var(*x);
                a
            }
            StmtKind::ReadField { x, obj, field } => {
                if self.volatiles.contains(field) {
                    // Acquire-like: kills all anticipation.
                    return Anticipated::new();
                }
                a.kill_var(*x);
                a.add(PathFact {
                    path: APath::Field {
                        base: *obj,
                        field: *field,
                    },
                    kind: AccessKind::Read,
                });
                a
            }
            StmtKind::WriteField { obj, field, .. } => {
                if self.volatiles.contains(field) {
                    // Release-like: anticipation flows through unchanged,
                    // but the volatile access itself is never anticipated.
                    return a;
                }
                a.add(PathFact {
                    path: APath::Field {
                        base: *obj,
                        field: *field,
                    },
                    kind: AccessKind::Write,
                });
                a
            }
            StmtKind::ReadArr { x, arr, idx } => {
                a.kill_var(*x);
                if let Some(l) = linearize(idx) {
                    a.add(PathFact {
                        path: APath::Arr {
                            base: *arr,
                            range: SymRange::singleton(l),
                        },
                        kind: AccessKind::Read,
                    });
                }
                a
            }
            StmtKind::WriteArr { arr, idx, .. } => {
                if let Some(l) = linearize(idx) {
                    a.add(PathFact {
                        path: APath::Arr {
                            base: *arr,
                            range: SymRange::singleton(l),
                        },
                        kind: AccessKind::Write,
                    });
                }
                a
            }
            // Acquire-like operations kill all anticipation: a check
            // covering an earlier access must happen before the next
            // acquire, so accesses beyond it cannot stand in.
            StmtKind::Acquire { .. } | StmtKind::Join { .. } | StmtKind::Wait { .. } => {
                Anticipated::new()
            }
            StmtKind::Release { .. } | StmtKind::Notify { .. } => a,
            StmtKind::Fork { x, .. } => {
                a.kill_var(*x);
                a
            }
            StmtKind::Call { x, meth, .. } => {
                if self.kills.effects(*meth).acquires {
                    Anticipated::new()
                } else {
                    a.kill_var(*x);
                    a
                }
            }
            StmtKind::If { then_b, else_b, .. } => {
                let a1 = self.block(then_b, a.clone());
                let a2 = self.block(else_b, a);
                let h1 = then_b
                    .stmts
                    .first()
                    .and_then(|s| self.h_pre.get(&s.id))
                    .cloned()
                    .unwrap_or_default();
                let h2 = else_b
                    .stmts
                    .first()
                    .and_then(|s| self.h_pre.get(&s.id))
                    .cloned()
                    .unwrap_or_default();
                meet(&a1, &h1, &a2, &h2, self.verdicts)
            }
            StmtKind::Loop { head, exit, tail } => {
                // Greatest fixed point: A_head must survive
                //   A_head = bw(head, meet(A_out, bw(tail, A_head)))
                // where A_out is the anticipated set after the loop (the
                // incoming `a`). Seed with the accesses the body performs.
                let h_ctx = head
                    .stmts
                    .first()
                    .or(tail.stmts.first())
                    .and_then(|s| self.h_pre.get(&s.id))
                    .cloned()
                    .unwrap_or_default();
                let mut a_head = seed_candidates(head, tail);
                for _ in 0..MAX_LOOP_ITERS {
                    let a_tail_pre = self.block_quiet(tail, a_head.clone());
                    let a_junction = meet(&a, &h_ctx, &a_tail_pre, &h_ctx, self.verdicts);
                    let next = intersect_entailed(
                        &self.block_quiet(head, a_junction),
                        &a_head,
                        &h_ctx,
                        self.verdicts,
                    );
                    if next == a_head {
                        break;
                    }
                    a_head = next;
                }
                // Final pass to record per-statement tables with the
                // converged sets.
                let a_tail_pre = self.block(tail, a_head.clone());
                let a_junction = meet(&a, &h_ctx, &a_tail_pre, &h_ctx, self.verdicts);
                let a_pre = self.block(head, a_junction);
                self.tables.loop_head.insert(s.id, a_head.clone());
                let _ = exit;
                a_pre
            }
        }
    }

    /// Like [`BackwardPass::block`] but without recording tables (used
    /// inside fixed-point iteration).
    fn block_quiet(&mut self, b: &Block, post: Anticipated) -> Anticipated {
        let saved_pre = self.tables.pre.clone();
        let saved_post = self.tables.post.clone();
        let saved_loops = self.tables.loop_head.clone();
        let r = self.block(b, post);
        self.tables.pre = saved_pre;
        self.tables.post = saved_post;
        self.tables.loop_head = saved_loops;
        r
    }
}

/// The meet of two anticipated sets under their histories: a fact survives
/// if both sides anticipate an access covering it.
fn meet(
    a1: &Anticipated,
    h1: &History,
    a2: &Anticipated,
    h2: &History,
    verdicts: &Verdicts,
) -> Anticipated {
    let mut kb1 = h1.kb(verdicts);
    let mut kb2 = h2.kb(verdicts);
    let mut out = Anticipated::new();
    for f in a1.facts.iter().chain(a2.facts.iter()) {
        if a1.covers(&mut kb1, f) && a2.covers(&mut kb2, f) {
            out.add(f.clone());
        }
    }
    out
}

/// Keeps the facts of `a` entailed by `bound` (forcing fixed-point
/// descent).
fn intersect_entailed(
    a: &Anticipated,
    bound: &Anticipated,
    h: &History,
    verdicts: &Verdicts,
) -> Anticipated {
    let mut kb = h.kb(verdicts);
    let mut out = Anticipated::new();
    for f in &a.facts {
        if bound.covers(&mut kb, f) {
            out.add(f.clone());
        }
    }
    out
}

/// Seeds the loop-head anticipation with every access path syntactically
/// occurring in the loop body (the greatest plausible set, pruned by the
/// fixed point).
fn seed_candidates(head: &Block, tail: &Block) -> Anticipated {
    let mut a = Anticipated::new();
    collect(head, &mut a);
    collect(tail, &mut a);
    a
}

fn collect(b: &Block, a: &mut Anticipated) {
    // Note: volatile accesses never enter the seed — the fixed point would
    // prune them anyway (the transfer returns ∅ at the access), but keeping
    // them out makes convergence faster. The seed here is syntactic; the
    // GFP against the real transfer functions is what guarantees soundness.
    for s in &b.stmts {
        match &s.kind {
            StmtKind::ReadField { obj, field, .. } => a.add(PathFact {
                path: APath::Field {
                    base: *obj,
                    field: *field,
                },
                kind: AccessKind::Read,
            }),
            StmtKind::WriteField { obj, field, .. } => a.add(PathFact {
                path: APath::Field {
                    base: *obj,
                    field: *field,
                },
                kind: AccessKind::Write,
            }),
            StmtKind::ReadArr { arr, idx, .. } => {
                if let Some(l) = linearize(idx) {
                    a.add(PathFact {
                        path: APath::Arr {
                            base: *arr,
                            range: SymRange::singleton(l),
                        },
                        kind: AccessKind::Read,
                    });
                }
            }
            StmtKind::WriteArr { arr, idx, .. } => {
                if let Some(l) = linearize(idx) {
                    a.add(PathFact {
                        path: APath::Arr {
                            base: *arr,
                            range: SymRange::singleton(l),
                        },
                        kind: AccessKind::Write,
                    });
                }
            }
            StmtKind::If { then_b, else_b, .. } => {
                collect(then_b, a);
                collect(else_b, a);
            }
            StmtKind::Loop { head, tail, .. } => {
                collect(head, a);
                collect(tail, a);
            }
            _ => {}
        }
    }
}

/// Convenience: the variable `x` (test helper naming).
#[cfg(test)]
pub(crate) fn var(x: &str) -> bigfoot_bfj::Sym {
    bigfoot_bfj::Sym::intern(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rename::freshen_body;
    use bigfoot_bfj::parse_program;

    /// Runs the backward pass on `main` of `src` (after freshening) and
    /// returns (body, tables).
    fn run(src: &str) -> (Block, ATables) {
        let mut p = parse_program(src).unwrap();
        let mut body = std::mem::take(&mut p.main);
        freshen_body(&mut body, &[]);
        p.main = body.clone();
        p.renumber();
        let body = p.main.clone();
        let kills = KillSets::compute(&p);
        let volatiles = crate::killset::volatile_fields(&p);
        let tables = anticipate_body(&body, &kills, &volatiles, &HashMap::new(), &Verdicts::new());
        (body, tables)
    }

    fn renders(a: &Anticipated) -> String {
        a.render()
    }

    #[test]
    fn straightline_anticipation_flows_backward() {
        let (body, t) = run("class C { field f; }
             main { c = new C; x = c.f; y = c.f; }");
        // Before the first read, c.f(r) is anticipated (from both reads).
        let first_read = &body.stmts[1];
        let pre = &t.pre[&first_read.id];
        assert!(renders(pre).contains("c.f(r)"), "{}", renders(pre));
    }

    #[test]
    fn acquire_kills_anticipation() {
        let (body, t) = run("class C { field f; }
             class L { }
             main { c = new C; l = new L; acq(l); x = c.f; rel(l); }");
        // Before the acquire nothing is anticipated.
        let acq = &body.stmts[2];
        assert!(matches!(acq.kind, StmtKind::Acquire { .. }));
        assert!(t.pre[&acq.id].facts.is_empty());
        // After the acquire, the read is anticipated.
        assert!(renders(&t.post[&acq.id]).contains("c.f(r)"));
    }

    #[test]
    fn release_preserves_anticipation() {
        let (body, t) = run("class C { field f; }
             class L { }
             main { c = new C; l = new L; acq(l); rel(l); x = c.f; }");
        // The read of c.f after the release is still anticipated before
        // the release (releases are not anticipation boundaries)...
        let rel = body
            .stmts
            .iter()
            .find(|s| matches!(s.kind, StmtKind::Release { .. }))
            .unwrap();
        assert!(renders(&t.pre[&rel.id]).contains("c.f(r)"));
        // ...but not before the acquire.
        let acq = body
            .stmts
            .iter()
            .find(|s| matches!(s.kind, StmtKind::Acquire { .. }))
            .unwrap();
        assert!(t.pre[&acq.id].facts.is_empty());
    }

    #[test]
    fn loop_head_anticipates_body_accesses() {
        // Fig. 6(b): at the loop head both b.f and a[i] are anticipated.
        let (body, t) = run("class B { field f; }
             main {
                 b = new B;
                 a = new_array(10);
                 i = 0;
                 while (i < 10) {
                     tv = b.f;
                     a[i] = tv;
                     i = i + 1;
                 }
             }");
        fn find_loop(b: &Block) -> Option<&Stmt> {
            for s in &b.stmts {
                match &s.kind {
                    StmtKind::Loop { .. } => return Some(s),
                    StmtKind::If { then_b, else_b, .. } => {
                        if let Some(l) = find_loop(then_b).or_else(|| find_loop(else_b)) {
                            return Some(l);
                        }
                    }
                    _ => {}
                }
            }
            None
        }
        let loop_stmt = find_loop(&body).expect("rotated loop");
        let head = &t.loop_head[&loop_stmt.id];
        let txt = renders(head);
        assert!(txt.contains("b.f(r)"), "{txt}");
        assert!(txt.contains("a[i]"), "{txt}");
    }

    #[test]
    fn conditional_meet_keeps_common_accesses() {
        let (body, t) = run("class C { field f; field g; }
             main {
                 c = new C;
                 p = 1;
                 if (p > 0) { x = c.f; y = c.g; } else { z = c.f; }
             }");
        let if_stmt = body
            .stmts
            .iter()
            .find(|s| matches!(s.kind, StmtKind::If { .. }))
            .unwrap();
        let pre = renders(&t.pre[&if_stmt.id]);
        assert!(pre.contains("c.f(r)"), "{pre}");
        assert!(!pre.contains("c.g"), "{pre}");
    }

    #[test]
    fn write_anticipation_covers_reads_at_meet() {
        // One branch writes c.f, the other reads it: the write covers the
        // read, so c.f(r) survives the meet.
        let (body, t) = run("class C { field f; }
             main {
                 c = new C;
                 p = 1;
                 v = 5;
                 if (p > 0) { c.f = v; } else { z = c.f; }
             }");
        let if_stmt = body
            .stmts
            .iter()
            .find(|s| matches!(s.kind, StmtKind::If { .. }))
            .unwrap();
        let pre = renders(&t.pre[&if_stmt.id]);
        assert!(pre.contains("c.f(r)"), "{pre}");
        assert!(!pre.contains("c.f(w)"), "{pre}");
    }

    #[test]
    fn assignment_substitutes_into_ranges() {
        let (body, t) = run("main {
                 a = new_array(10);
                 j = 3;
                 i = j + 1;
                 x = a[i];
             }");
        // Before `i = j + 1`, the anticipated access is a[j + 1].
        let assign = body
            .stmts
            .iter()
            .find(|s| matches!(&s.kind, StmtKind::Assign { x, .. } if *x == var("i")))
            .unwrap();
        let pre = renders(&t.pre[&assign.id]);
        assert!(pre.contains("a[j + 1]"), "{pre}");
    }
}
