//! The R ED C ARD baseline instrumenter (Flanagan & Freund, ECOOP 2013).
//!
//! RedCard eliminates exactly one form of redundancy: a check on an access
//! whose location was already checked *within the same release-free span*
//! (with a covering kind). Unlike BigFoot it performs no check motion, no
//! anticipation, and no coalescing — every retained check sits immediately
//! before its access. Its field-proxy analysis groups fields that are
//! always accessed together within a span.

use crate::facts::{APath, History, PathFact};
use crate::killset::KillSets;
use crate::proxy::grouping_from_sets;
use bigfoot_bfj::{AccessKind, Block, CheckPath, Expr, Program, Stmt, StmtKind, Sym};
use bigfoot_detectors::ProxyTable;
use bigfoot_entail::{linearize, AliasRhs, SymRange, Verdicts};
use std::collections::HashSet;

/// Instruments a program in RedCard style; returns the instrumented
/// program and its field-proxy table.
pub fn redcard_instrument(p: &Program) -> (Program, ProxyTable) {
    let kills = KillSets::compute(p);
    let volatiles = crate::killset::volatile_fields(p);
    let mut out = p.clone();
    let mut spans: Vec<Vec<Sym>> = Vec::new();
    let verdicts = Verdicts::new();
    for c in &mut out.classes {
        for m in &mut c.methods {
            let mut rc = RedCard {
                kills: &kills,
                volatiles: &volatiles,
                spans: &mut spans,
                span_fields: HashSet::new(),
                verdicts: &verdicts,
            };
            let (stmts, _) = rc.block(&m.body.stmts, History::new());
            rc.end_span();
            m.body = Block { stmts };
        }
    }
    let mut rc = RedCard {
        kills: &kills,
        volatiles: &volatiles,
        spans: &mut spans,
        span_fields: HashSet::new(),
        verdicts: &verdicts,
    };
    let (stmts, _) = rc.block(&out.main.stmts, History::new());
    rc.end_span();
    out.main = Block { stmts };
    out.renumber();
    let proxies = grouping_from_sets(&out, &spans);
    (out, proxies)
}

struct RedCard<'a> {
    kills: &'a KillSets,
    volatiles: &'a HashSet<Sym>,
    /// Completed release-free-span field sets (for the proxy analysis).
    spans: &'a mut Vec<Vec<Sym>>,
    /// Fields accessed in the current span.
    span_fields: HashSet<Sym>,
    /// Entailment verdicts shared across the whole program.
    verdicts: &'a Verdicts,
}

impl RedCard<'_> {
    fn end_span(&mut self) {
        if !self.span_fields.is_empty() {
            let mut v: Vec<Sym> = self.span_fields.drain().collect();
            v.sort_by_key(|s| s.as_str());
            self.spans.push(v);
        }
    }

    fn block(&mut self, stmts: &[Stmt], mut h: History) -> (Vec<Stmt>, History) {
        let mut out = Vec::new();
        for s in stmts {
            h = self.stmt(s, h, &mut out);
        }
        (out, h)
    }

    /// Emits a check for `fact` unless a covering check exists in the
    /// current span.
    fn check_access(&mut self, h: &mut History, fact: PathFact, out: &mut Vec<Stmt>) {
        let mut kb = h.kb(self.verdicts);
        if !h.covered_by_check(&mut kb, &fact) {
            out.push(Stmt::new(StmtKind::Check {
                paths: vec![CheckPath {
                    kind: fact.kind,
                    path: fact.path.to_ast(),
                }],
            }));
            h.add_check(fact);
        }
    }

    fn stmt(&mut self, s: &Stmt, mut h: History, out: &mut Vec<Stmt>) -> History {
        match &s.kind {
            StmtKind::ReadField { x, obj, field } => {
                if self.volatiles.contains(field) {
                    // Acquire-like; not checked.
                    h.aliases.clear();
                    h.kill_var(*x);
                    out.push(s.clone());
                    return h;
                }
                self.span_fields.insert(*field);
                h.kill_var(*x);
                self.check_access(
                    &mut h,
                    PathFact {
                        path: APath::Field {
                            base: *obj,
                            field: *field,
                        },
                        kind: AccessKind::Read,
                    },
                    out,
                );
                h.add_alias(
                    *x,
                    AliasRhs::Field {
                        base: *obj,
                        field: *field,
                    },
                );
                out.push(s.clone());
                h
            }
            StmtKind::WriteField { obj, field, .. } => {
                if self.volatiles.contains(field) {
                    // Release-like; ends the span, not checked.
                    self.end_span();
                    h.forget_accesses_and_checks();
                    out.push(s.clone());
                    return h;
                }
                self.span_fields.insert(*field);
                let fld = *field;
                h.aliases.retain(
                    |(_, rhs)| !matches!(rhs, AliasRhs::Field { field, .. } if *field == fld),
                );
                self.check_access(
                    &mut h,
                    PathFact {
                        path: APath::Field {
                            base: *obj,
                            field: *field,
                        },
                        kind: AccessKind::Write,
                    },
                    out,
                );
                out.push(s.clone());
                h
            }
            StmtKind::ReadArr { x, arr, idx } => {
                h.kill_var(*x);
                if let Some(l) = linearize(idx) {
                    self.check_access(
                        &mut h,
                        PathFact {
                            path: APath::Arr {
                                base: *arr,
                                range: SymRange::singleton(l),
                            },
                            kind: AccessKind::Read,
                        },
                        out,
                    );
                } else {
                    out.push(check_singleton(*arr, idx, AccessKind::Read));
                }
                out.push(s.clone());
                h
            }
            StmtKind::WriteArr { arr, idx, .. } => {
                h.aliases
                    .retain(|(_, rhs)| !matches!(rhs, AliasRhs::Elem { .. }));
                if let Some(l) = linearize(idx) {
                    self.check_access(
                        &mut h,
                        PathFact {
                            path: APath::Arr {
                                base: *arr,
                                range: SymRange::singleton(l),
                            },
                            kind: AccessKind::Write,
                        },
                        out,
                    );
                } else {
                    out.push(check_singleton(*arr, idx, AccessKind::Write));
                }
                out.push(s.clone());
                h
            }
            StmtKind::Assign { x, e } => {
                h.kill_var(*x);
                if !e.mentions(*x) {
                    h.add_bool(crate::forward_eq_fact(*x, e));
                }
                out.push(s.clone());
                h
            }
            StmtKind::Rename { fresh, old } => {
                h.kill_var(*fresh);
                h.rename(*old, *fresh);
                out.push(s.clone());
                h
            }
            StmtKind::New { x, .. } | StmtKind::NewArray { x, .. } => {
                h.kill_var(*x);
                out.push(s.clone());
                h
            }
            StmtKind::Acquire { .. } | StmtKind::Join { .. } => {
                // Checks survive acquires (spans end at releases); alias
                // facts die.
                h.aliases.clear();
                out.push(s.clone());
                h
            }
            StmtKind::Release { .. } | StmtKind::Fork { .. } | StmtKind::Wait { .. } => {
                self.end_span();
                h.aliases.clear();
                h.forget_accesses_and_checks();
                if let StmtKind::Fork { x, .. } = &s.kind {
                    h.kill_var(*x);
                }
                out.push(s.clone());
                h
            }
            StmtKind::Call { x, meth, .. } => {
                let eff = self.kills.effects(*meth);
                if eff.releases {
                    self.end_span();
                    h.forget_accesses_and_checks();
                }
                if eff.acquires || eff.writes_heap {
                    h.aliases.clear();
                }
                h.kill_var(*x);
                out.push(s.clone());
                h
            }
            StmtKind::If {
                cond,
                then_b,
                else_b,
            } => {
                let mut h1 = h.clone();
                h1.add_bool(cond.clone());
                let mut h2 = h;
                h2.add_bool(Expr::Unop(bigfoot_bfj::Unop::Not, Box::new(cond.clone())));
                let (rb1, h1p) = self.block(&then_b.stmts, h1);
                let (rb2, h2p) = self.block(&else_b.stmts, h2);
                // Keep checks present on both sides.
                let mut kb1 = h1p.kb(self.verdicts);
                let mut kb2 = h2p.kb(self.verdicts);
                let mut merged = History::new();
                for b in h1p.bools.iter().chain(h2p.bools.iter()) {
                    if kb1.entails(b) && kb2.entails(b) {
                        merged.add_bool(b.clone());
                    }
                }
                for al in &h1p.aliases {
                    if h2p.aliases.contains(al) {
                        merged.add_alias(al.0, al.1.clone());
                    }
                }
                for c in h1p.checks.iter().chain(h2p.checks.iter()) {
                    if h1p.covered_by_check(&mut kb1, c) && h2p.covered_by_check(&mut kb2, c) {
                        merged.add_check(c.clone());
                    }
                }
                out.push(Stmt::new(StmtKind::If {
                    cond: cond.clone(),
                    then_b: Block { stmts: rb1 },
                    else_b: Block { stmts: rb2 },
                }));
                merged
            }
            StmtKind::Loop { head, exit, tail } => {
                // Conservative: no check facts survive into the loop head.
                let assigned: Vec<Sym> = {
                    let mut set = HashSet::new();
                    collect_assigned(head, &mut set);
                    collect_assigned(tail, &mut set);
                    set.into_iter().collect()
                };
                let mut h_head = History::new();
                for b in &h.bools {
                    if !assigned.iter().any(|x| b.mentions(*x)) {
                        h_head.add_bool(b.clone());
                    }
                }
                let (rhead, hj) = self.block(&head.stmts, h_head);
                let mut hback = hj.clone();
                hback.add_bool(Expr::Unop(bigfoot_bfj::Unop::Not, Box::new(exit.clone())));
                let (rtail, _) = self.block(&tail.stmts, hback);
                let mut hout = hj;
                hout.add_bool(exit.clone());
                out.push(Stmt::new(StmtKind::Loop {
                    head: Block { stmts: rhead },
                    exit: exit.clone(),
                    tail: Block { stmts: rtail },
                }));
                hout
            }
            _ => {
                out.push(s.clone());
                h
            }
        }
    }
}

fn check_singleton(arr: Sym, idx: &Expr, kind: AccessKind) -> Stmt {
    Stmt::new(StmtKind::Check {
        paths: vec![CheckPath {
            kind,
            path: bigfoot_bfj::Path::index(arr, idx.clone()),
        }],
    })
}

fn collect_assigned(b: &Block, out: &mut HashSet<Sym>) {
    for s in &b.stmts {
        match &s.kind {
            StmtKind::Assign { x, .. }
            | StmtKind::New { x, .. }
            | StmtKind::NewArray { x, .. }
            | StmtKind::ReadField { x, .. }
            | StmtKind::ReadArr { x, .. }
            | StmtKind::Call { x, .. }
            | StmtKind::Fork { x, .. } => {
                out.insert(*x);
            }
            StmtKind::Rename { fresh, .. } => {
                out.insert(*fresh);
            }
            _ => {}
        }
        match &s.kind {
            StmtKind::If { then_b, else_b, .. } => {
                collect_assigned(then_b, out);
                collect_assigned(else_b, out);
            }
            StmtKind::Loop { head, tail, .. } => {
                collect_assigned(head, out);
                collect_assigned(tail, out);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigfoot_bfj::{parse_program, pretty};

    fn instrument(src: &str) -> String {
        let p = parse_program(src).unwrap();
        let (out, _) = redcard_instrument(&p);
        pretty(&out)
    }

    #[test]
    fn duplicate_read_check_eliminated() {
        let out = instrument(
            "class C { field f; }
             main { c = new C; x = c.f; y = c.f; }",
        );
        assert_eq!(out.matches("check(").count(), 1, "{out}");
    }

    #[test]
    fn write_check_not_covered_by_read_check() {
        let out = instrument(
            "class C { field f; }
             main { c = new C; x = c.f; c.f = 1; }",
        );
        // read check + write check (read does not cover write).
        assert_eq!(out.matches("check(").count(), 2, "{out}");
    }

    #[test]
    fn write_then_read_single_check() {
        let out = instrument(
            "class C { field f; }
             main { c = new C; v = 3; c.f = v; x = c.f; }",
        );
        assert_eq!(out.matches("check(").count(), 1, "{out}");
    }

    #[test]
    fn release_resets_the_span() {
        let out = instrument(
            "class C { field f; }
             class L { }
             main { c = new C; l = new L; x = c.f; acq(l); rel(l); y = c.f; }",
        );
        assert_eq!(out.matches("check(").count(), 2, "{out}");
    }

    #[test]
    fn checks_stay_adjacent_to_accesses() {
        let out = instrument(
            "main {
                 a = new_array(10);
                 for (i = 0; i < 10; i = i + 1) { a[i] = i; }
             }",
        );
        // RedCard cannot move the check out of the loop.
        assert!(out.contains("check(w: a[i])"), "{out}");
    }
}
