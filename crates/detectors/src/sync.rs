//! Happens-before bookkeeping shared by every detector: per-thread vector
//! clocks updated at lock acquire/release, fork/join, and thread exit.

use bigfoot_bfj::ObjId;
use bigfoot_obs::fx::FxHashMap;
use bigfoot_vc::{Tid, VectorClock};

/// Vector-clock state for threads and locks.
///
/// Follows the standard FastTrack treatment: a release copies the
/// releaser's clock into the lock and ticks the releaser; an acquire joins
/// the lock's clock into the acquirer; fork/join behave like
/// release/acquire edges between parent and child.
#[derive(Debug, Default, Clone)]
pub struct SyncClocks {
    threads: Vec<VectorClock>,
    locks: FxHashMap<ObjId, VectorClock>,
    volatiles: FxHashMap<(ObjId, u32), VectorClock>,
    sync_ops: u64,
}

impl SyncClocks {
    /// Creates state with the main thread (tid 0) started.
    pub fn new() -> SyncClocks {
        let mut s = SyncClocks::default();
        s.ensure(Tid(0));
        s
    }

    #[inline]
    fn ensure(&mut self, t: Tid) {
        while self.threads.len() <= t.index() {
            let tid = Tid(self.threads.len() as u32);
            let mut c = VectorClock::new();
            // Every thread starts at local time 1 so its epochs are never
            // confused with the bottom epoch 0@0.
            c.set(tid, 1);
            self.threads.push(c);
        }
    }

    /// The current clock of thread `t`.
    #[inline]
    pub fn clock(&mut self, t: Tid) -> &VectorClock {
        self.ensure(t);
        &self.threads[t.index()]
    }

    /// Number of synchronization operations processed.
    pub fn sync_ops(&self) -> u64 {
        self.sync_ops
    }

    /// Processes `acq(lock)` by thread `t`.
    pub fn acquire(&mut self, t: Tid, lock: ObjId) {
        self.ensure(t);
        self.sync_ops += 1;
        if let Some(lc) = self.locks.get(&lock) {
            self.threads[t.index()].join(lc);
        }
    }

    /// Processes `rel(lock)` by thread `t`.
    pub fn release(&mut self, t: Tid, lock: ObjId) {
        self.ensure(t);
        self.sync_ops += 1;
        let c = self.threads[t.index()].clone();
        self.locks.insert(lock, c);
        self.threads[t.index()].tick(t);
    }

    /// Processes a fork edge from `parent` to `child`.
    pub fn fork(&mut self, parent: Tid, child: Tid) {
        self.ensure(parent);
        self.ensure(child);
        self.sync_ops += 1;
        let pc = self.threads[parent.index()].clone();
        self.threads[child.index()].join(&pc);
        self.threads[parent.index()].tick(parent);
    }

    /// Processes a join edge from completed `child` into `parent`. The
    /// child's clock is left as it is.
    pub fn join(&mut self, parent: Tid, child: Tid) {
        self.ensure(parent);
        self.ensure(child);
        self.sync_ops += 1;
        let cc = self.threads[child.index()].clone();
        self.threads[parent.index()].join(&cc);
    }

    /// Processes a thread exit. Only the operation is counted: the exiting
    /// thread's clock is left as it is, so a later join reads the clock the
    /// thread last accessed memory under. Trace replay relies on this: its
    /// clock snapshot of the exiting thread stays valid.
    pub fn exit(&mut self, t: Tid) {
        self.ensure(t);
        self.sync_ops += 1;
    }

    /// Processes a volatile write: release-like — the writer's time flows
    /// into the volatile location (accumulating across writers, per the
    /// JMM's total order over volatile writes).
    pub fn volatile_write(&mut self, t: Tid, obj: ObjId, field: u32) {
        self.ensure(t);
        self.sync_ops += 1;
        let c = self.threads[t.index()].clone();
        self.volatiles.entry((obj, field)).or_default().join(&c);
        self.threads[t.index()].tick(t);
    }

    /// Processes a volatile read: acquire-like — all prior volatile
    /// writes' time flows into the reader.
    pub fn volatile_read(&mut self, t: Tid, obj: ObjId, field: u32) {
        self.ensure(t);
        self.sync_ops += 1;
        if let Some(vc) = self.volatiles.get(&(obj, field)) {
            self.threads[t.index()].join(vc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_creates_happens_before() {
        let mut s = SyncClocks::new();
        let l = ObjId(0);
        // T0 releases, T1 acquires: T0's time flows into T1.
        let t0_before = s.clock(Tid(0)).clone();
        s.release(Tid(0), l);
        s.acquire(Tid(1), l);
        assert!(t0_before.leq(s.clock(Tid(1))));
    }

    #[test]
    fn release_ticks_the_releaser() {
        let mut s = SyncClocks::new();
        let before = s.clock(Tid(0)).get(Tid(0));
        s.release(Tid(0), ObjId(0));
        assert_eq!(s.clock(Tid(0)).get(Tid(0)), before + 1);
    }

    #[test]
    fn fork_orders_parent_before_child() {
        let mut s = SyncClocks::new();
        let parent_before = s.clock(Tid(0)).clone();
        s.fork(Tid(0), Tid(1));
        assert!(parent_before.leq(s.clock(Tid(1))));
        // Parent ticked: its new time is not in the child.
        assert!(!s.clock(Tid(0)).clone().leq(s.clock(Tid(1))));
    }

    #[test]
    fn join_orders_child_before_parent() {
        let mut s = SyncClocks::new();
        s.fork(Tid(0), Tid(1));
        // Child does local work (tick via release pattern).
        s.release(Tid(1), ObjId(9));
        let child_clock = s.clock(Tid(1)).clone();
        s.join(Tid(0), Tid(1));
        assert!(child_clock.leq(s.clock(Tid(0))));
    }

    #[test]
    fn unrelated_threads_are_concurrent() {
        let mut s = SyncClocks::new();
        s.fork(Tid(0), Tid(1));
        s.fork(Tid(0), Tid(2));
        let c1 = s.clock(Tid(1)).clone();
        let c2 = s.clock(Tid(2)).clone();
        assert!(!c1.leq(&c2));
        assert!(!c2.leq(&c1));
    }

    #[test]
    fn exit_and_join_leave_the_exiting_and_joined_clocks_unchanged() {
        let mut s = SyncClocks::new();
        s.fork(Tid(0), Tid(1));
        s.release(Tid(1), ObjId(9));
        let child = s.clock(Tid(1)).clone();
        s.exit(Tid(1));
        assert_eq!(s.clock(Tid(1)), &child, "exit must not move the clock");
        s.join(Tid(0), Tid(1));
        assert_eq!(s.clock(Tid(1)), &child, "join must not move the child");
        assert_eq!(s.sync_ops(), 4, "both still count as sync operations");
    }

    #[test]
    fn threads_start_at_one() {
        let mut s = SyncClocks::new();
        assert_eq!(s.clock(Tid(0)).get(Tid(0)), 1);
        assert_eq!(s.clock(Tid(5)).get(Tid(5)), 1);
    }
}
