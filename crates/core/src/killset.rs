//! Interprocedural kill-set analysis (the `KillSetHistory` /
//! `KillSetAnticipated` functions of the `[CALL]` rule).
//!
//! For each method we compute whether it — directly or through calls —
//! performs acquire-like synchronization (`acq`, `join`), release-like
//! synchronization (`rel`, `fork`), or writes the heap. Call sites then
//! kill the corresponding history/anticipated facts. Since BFJ method
//! dispatch is by name on the receiver's dynamic class, a call site's
//! effects conservatively join the effects of every method with that name.

use bigfoot_bfj::{Program, Stmt, StmtKind, Sym};
use std::collections::{HashMap, HashSet};

/// The names of fields declared `volatile` in any class. BFJ is untyped,
/// so an access `y.f` is treated as volatile if *any* class declares `f`
/// volatile — conservative for check placement (more kills, never fewer).
pub fn volatile_fields(p: &Program) -> HashSet<Sym> {
    p.classes
        .iter()
        .flat_map(|c| c.volatiles.iter().copied())
        .collect()
}

/// The side effects of a method relevant to check placement.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Effects {
    /// May perform an acquire-like operation (acq, join).
    pub acquires: bool,
    /// May perform a release-like operation (rel, fork).
    pub releases: bool,
    /// May write any heap location (kills alias facts).
    pub writes_heap: bool,
}

impl Effects {
    /// The join of two effect summaries.
    pub fn join(self, other: Effects) -> Effects {
        Effects {
            acquires: self.acquires || other.acquires,
            releases: self.releases || other.releases,
            writes_heap: self.writes_heap || other.writes_heap,
        }
    }

    /// Effects that kill nothing.
    pub fn pure_effects() -> Effects {
        Effects::default()
    }

    /// True if a call with these effects requires no check placement.
    pub fn is_sync_free(&self) -> bool {
        !self.acquires && !self.releases
    }
}

/// Method-effect summaries for a whole program.
#[derive(Debug, Clone, Default)]
pub struct KillSets {
    by_method: HashMap<Sym, Effects>,
}

impl KillSets {
    /// Computes effect summaries by fixed point over the name-based call
    /// graph.
    pub fn compute(program: &Program) -> KillSets {
        let volatiles = volatile_fields(program);
        // Direct effects + called names per method name (joined across
        // classes sharing the name).
        let mut direct: HashMap<Sym, Effects> = HashMap::new();
        let mut calls: HashMap<Sym, Vec<Sym>> = HashMap::new();
        for (_, m) in program.methods() {
            scan_block(
                &m.body.stmts,
                direct.entry(m.name).or_default(),
                calls.entry(m.name).or_default(),
                &volatiles,
            );
        }
        // Fixed point.
        let mut by_method = direct.clone();
        loop {
            let mut changed = false;
            for (name, callees) in &calls {
                let mut eff = by_method[name];
                for callee in callees {
                    if let Some(ce) = by_method.get(callee) {
                        eff = eff.join(*ce);
                    }
                }
                if eff != by_method[name] {
                    by_method.insert(*name, eff);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        KillSets { by_method }
    }

    /// The effects of calling method `name` (unknown names are assumed to
    /// do everything, conservatively).
    pub fn effects(&self, name: Sym) -> Effects {
        self.by_method.get(&name).copied().unwrap_or(Effects {
            acquires: true,
            releases: true,
            writes_heap: true,
        })
    }
}

fn scan_block(stmts: &[Stmt], eff: &mut Effects, callees: &mut Vec<Sym>, volatiles: &HashSet<Sym>) {
    for s in stmts {
        match &s.kind {
            StmtKind::Acquire { .. } | StmtKind::Join { .. } => eff.acquires = true,
            StmtKind::Release { .. } => eff.releases = true,
            StmtKind::Wait { .. } => {
                eff.acquires = true;
                eff.releases = true;
            }
            StmtKind::Notify { .. } => {}
            StmtKind::ReadField { field, .. } if volatiles.contains(field) => {
                eff.acquires = true;
            }
            StmtKind::Fork { meth, .. } => {
                eff.releases = true;
                // The forked body runs concurrently; its own sync does not
                // kill the parent's facts, but its heap writes race-freely
                // invalidate alias assumptions only via the parent's next
                // acquire — so only the fork edge itself matters here.
                // However the spawned method's heap writes are visible to
                // the parent after a join, which is an acquire; aliases die
                // there anyway. We still record the callee for
                // writes-heap propagation of the *call* form below.
                let _ = meth;
            }
            StmtKind::Call { meth, .. } => callees.push(*meth),
            StmtKind::WriteField { field, .. } => {
                eff.writes_heap = true;
                if volatiles.contains(field) {
                    eff.releases = true;
                }
            }
            StmtKind::WriteArr { .. } => eff.writes_heap = true,
            StmtKind::If { then_b, else_b, .. } => {
                scan_block(&then_b.stmts, eff, callees, volatiles);
                scan_block(&else_b.stmts, eff, callees, volatiles);
            }
            StmtKind::Loop { head, tail, .. } => {
                scan_block(&head.stmts, eff, callees, volatiles);
                scan_block(&tail.stmts, eff, callees, volatiles);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigfoot_bfj::parse_program;

    #[test]
    fn direct_and_transitive_effects() {
        let p = parse_program(
            "class C {
                 meth locks(l) { acq(l); rel(l); return 0; }
                 meth viaCall(l) { r = this.locks(l); return 0; }
                 meth pure(x) { return x + 1; }
                 meth writes(o) { o.f = 1; return 0; }
             }
             class D { field f; }
             main { skip; }",
        )
        .unwrap();
        let ks = KillSets::compute(&p);
        let locks = ks.effects(Sym::intern("locks"));
        assert!(locks.acquires && locks.releases);
        let via = ks.effects(Sym::intern("viaCall"));
        assert!(via.acquires && via.releases);
        let pure = ks.effects(Sym::intern("pure"));
        assert!(pure.is_sync_free() && !pure.writes_heap);
        let writes = ks.effects(Sym::intern("writes"));
        assert!(writes.is_sync_free() && writes.writes_heap);
    }

    #[test]
    fn unknown_methods_are_worst_case() {
        let p = parse_program("main { skip; }").unwrap();
        let ks = KillSets::compute(&p);
        let e = ks.effects(Sym::intern("nosuch"));
        assert!(e.acquires && e.releases && e.writes_heap);
    }

    #[test]
    fn fork_is_release_like_and_join_acquire_like() {
        let p = parse_program(
            "class W {
                 meth run() { return 0; }
                 meth spawner() { fork t = this.run(); return 0; }
                 meth waiter(t) { join(t); return 0; }
             }
             main { skip; }",
        )
        .unwrap();
        let ks = KillSets::compute(&p);
        assert!(ks.effects(Sym::intern("spawner")).releases);
        assert!(!ks.effects(Sym::intern("spawner")).acquires);
        assert!(ks.effects(Sym::intern("waiter")).acquires);
    }

    #[test]
    fn mutual_recursion_converges() {
        let p = parse_program(
            "class C {
                 meth a(n) { r = this.b(n); return r; }
                 meth b(n) { r = this.a(n); acq(n); rel(n); return r; }
             }
             main { skip; }",
        )
        .unwrap();
        let ks = KillSets::compute(&p);
        assert!(ks.effects(Sym::intern("a")).acquires);
        assert!(ks.effects(Sym::intern("b")).acquires);
    }
}
