//! The detection front-end, written once for every way detection runs.
//!
//! [`FrontEnd`] owns everything that is global to a run: the
//! happens-before clocks ([`SyncClocks`]), the pending per-thread
//! footprints and their recycling pool, the identity field groupings, the
//! event count and the running [`Stats`]. It holds the one copy of event
//! dispatch, footprint buffering, commit order, sync handling, the
//! space-sample schedule and finalization.
//!
//! Shadow work goes to a [`Backend`]. The serial
//! [`Detector`](crate::Detector) drives one [`ShadowStore`] inline; trace
//! replay (`crate::replay`) turns the same calls into sequenced items for
//! [`SHARDS`](crate::SHARDS) shard stores. The backend is a monomorphized
//! generic, so the serial path pays nothing for the abstraction.
//!
//! [`ShadowStore`]: crate::store::ShadowStore

use crate::stats::Stats;
use crate::store::Check;
use crate::sync::SyncClocks;
use bigfoot_bfj::{ArrId, CheckTarget, ConcreteRange, Event, Loc, ObjId};
use bigfoot_obs::fx::FxHashMap;
use bigfoot_shadow::{FieldGrouping, Footprint};
use bigfoot_vc::{AccessKind, Tid, VectorClock};
use std::sync::Arc;

/// Where the detector's race checks come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckSource {
    /// Check every raw heap access (FastTrack / SlimState style); `Check`
    /// events are ignored.
    RawAccesses,
    /// Consume `check(C)` events from instrumentation; raw accesses are
    /// only counted (RedCard / SlimCard / BigFoot style).
    CheckEvents,
}

/// How array checks are processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrayEngine {
    /// One shadow location per element, checked immediately.
    Fine,
    /// Per-thread footprints committed at synchronization operations, over
    /// the adaptive compressed array shadow.
    Footprint,
}

/// Field-proxy groupings per class (from the static proxy analysis).
///
/// Groupings are shared (`Arc`), so handing one to each allocated object
/// is a reference-count bump, not a clone of the assignment vector.
#[derive(Debug, Clone, Default)]
pub struct ProxyTable {
    /// `by_class[c]` is the grouping for class index `c`; missing entries
    /// mean identity (no compression).
    pub by_class: Vec<Option<Arc<FieldGrouping>>>,
}

impl ProxyTable {
    /// A table with no compression at all.
    pub fn identity() -> ProxyTable {
        ProxyTable::default()
    }

    fn grouping(&self, class: u32) -> Option<&Arc<FieldGrouping>> {
        self.by_class.get(class as usize).and_then(|g| g.as_ref())
    }
}

/// One detector configuration of the paper's Fig. 2. The serial
/// [`Detector`](crate::Detector) and the replay entry points
/// ([`replay_trace`](crate::replay_trace),
/// [`replay_compressed`](crate::replay_compressed)) all take it.
///
/// The constructors are the five paper configurations; struct update
/// syntax derives variants, e.g. FastTrack driven by check events:
///
/// ```
/// use bigfoot_detectors::{CheckSource, Config};
///
/// let naive_ft = Config {
///     source: CheckSource::CheckEvents,
///     ..Config::fasttrack()
/// };
/// assert_eq!(naive_ft.name, "FastTrack");
/// ```
#[derive(Debug, Clone)]
pub struct Config {
    /// Display name.
    pub name: &'static str,
    /// Where checks come from (raw accesses vs instrumentation).
    pub source: CheckSource,
    /// Fine per-element arrays vs footprint + adaptive compression.
    pub engine: ArrayEngine,
    /// Static field-proxy groupings.
    pub proxies: ProxyTable,
}

impl Config {
    /// FastTrack: a check on every access, fine shadow.
    pub fn fasttrack() -> Config {
        Config {
            name: "FastTrack",
            source: CheckSource::RawAccesses,
            engine: ArrayEngine::Fine,
            proxies: ProxyTable::identity(),
        }
    }

    /// RedCard: instrumented checks (redundancy-eliminated), fine arrays,
    /// static field proxies.
    pub fn redcard(proxies: ProxyTable) -> Config {
        Config {
            name: "RedCard",
            source: CheckSource::CheckEvents,
            engine: ArrayEngine::Fine,
            proxies,
        }
    }

    /// SlimState: a check on every access, dynamic array compression.
    pub fn slimstate() -> Config {
        Config {
            name: "SlimState",
            source: CheckSource::RawAccesses,
            engine: ArrayEngine::Footprint,
            proxies: ProxyTable::identity(),
        }
    }

    /// SlimCard: RedCard instrumentation + SlimState array compression.
    pub fn slimcard(proxies: ProxyTable) -> Config {
        Config {
            name: "SlimCard",
            source: CheckSource::CheckEvents,
            engine: ArrayEngine::Footprint,
            proxies,
        }
    }

    /// DynamicBF: BigFoot instrumentation (moved/coalesced checks),
    /// dynamic array compression, static field proxies.
    pub fn bigfoot(proxies: ProxyTable) -> Config {
        Config {
            name: "BigFoot",
            source: CheckSource::CheckEvents,
            engine: ArrayEngine::Footprint,
            proxies,
        }
    }
}

/// Retained recycled footprints; beyond this the allocator takes over.
const FP_POOL_MAX: usize = 256;

/// How often (in sync ops) shadow space is sampled for the peak statistic.
const SPACE_SAMPLE_PERIOD: u64 = 256;

/// Where the front-end sends shadow work. Every call carries the acting
/// thread's current clock, read *before* any pending sync updates it.
pub(crate) trait Backend {
    /// A new object with its field grouping.
    fn alloc_obj(&mut self, obj: ObjId, grouping: Arc<FieldGrouping>);
    /// A new array of `len` elements.
    fn alloc_arr(&mut self, arr: ArrId, len: u64);
    /// One check by thread `t`, whose clock is `clock`.
    fn check(
        &mut self,
        stats: &mut Stats,
        t: Tid,
        clock: &VectorClock,
        kind: AccessKind,
        check: Check<'_>,
    );
    /// Thread `t`'s clock changed at a sync operation.
    fn clock_changed(&mut self, _t: Tid) {}
    /// A space-sample point; `footprint_units` is the pending footprints'
    /// share, the backend adds the shadow stores'.
    fn sample_space(&mut self, stats: &mut Stats, footprint_units: u64);
    /// The run is finalized; `stats` is complete up to the backend's part.
    fn finish(&mut self, stats: &mut Stats);
}

/// The detection front-end over a [`Backend`]; see the module docs.
#[derive(Debug)]
pub(crate) struct FrontEnd<B> {
    pub(crate) config: Config,
    clocks: SyncClocks,
    /// Pending footprints, indexed by dense thread id. A thread touches
    /// few arrays per release-free span, so a small vector beats nested
    /// hashing on the per-access hot path. `pub(crate)` so compressed
    /// replay can probe and extrapolate them.
    pub(crate) footprints: Vec<Vec<(ArrId, Footprint)>>,
    /// Drained footprints recycled across commit spans, so steady-state
    /// commits allocate nothing.
    fp_pool: Vec<Footprint>,
    /// Identity groupings for classes absent from the proxy table, shared
    /// per field count instead of rebuilt per allocation.
    identity_groupings: FxHashMap<u32, Arc<FieldGrouping>>,
    /// Events processed, aggregated locally and flushed to the `det.events`
    /// obs counter at finalization — a per-event `count!` would put an
    /// atomic check on the hottest loop in the pipeline.
    pub(crate) events: u64,
    pub(crate) stats: Stats,
    pub(crate) finished: bool,
    pub(crate) backend: B,
}

impl<B: Backend> FrontEnd<B> {
    pub(crate) fn new(config: Config, backend: B) -> FrontEnd<B> {
        FrontEnd {
            config,
            clocks: SyncClocks::new(),
            footprints: Vec::new(),
            fp_pool: Vec::new(),
            identity_groupings: FxHashMap::default(),
            events: 0,
            stats: Stats::default(),
            finished: false,
            backend,
        }
    }

    pub(crate) fn event(&mut self, ev: &Event) {
        self.events += 1;
        match ev {
            Event::AllocObj {
                obj, class, fields, ..
            } => {
                let grouping = match self.config.proxies.grouping(*class) {
                    Some(g) => Arc::clone(g),
                    None => {
                        let n = *fields;
                        Arc::clone(
                            self.identity_groupings
                                .entry(n)
                                .or_insert_with(|| Arc::new(FieldGrouping::identity(n as usize))),
                        )
                    }
                };
                self.backend.alloc_obj(*obj, grouping);
            }
            Event::AllocArr { arr, len, .. } => self.backend.alloc_arr(*arr, *len),
            Event::Access { t, kind, loc } => {
                match kind {
                    AccessKind::Read => self.stats.reads += 1,
                    AccessKind::Write => self.stats.writes += 1,
                }
                if self.config.source == CheckSource::RawAccesses {
                    match loc {
                        Loc::Field(obj, f) => self.field_check(*t, *obj, &[*f], *kind),
                        Loc::Elem(arr, i) => {
                            self.array_check(*t, *arr, ConcreteRange::singleton(*i), *kind)
                        }
                    }
                }
            }
            Event::Check { t, paths } => {
                if self.config.source == CheckSource::CheckEvents {
                    for (kind, target) in paths {
                        match target {
                            CheckTarget::Fields(obj, idxs) => {
                                self.field_check(*t, *obj, idxs, *kind)
                            }
                            CheckTarget::Range(arr, r) => {
                                if !r.is_empty() {
                                    self.array_check(*t, *arr, *r, *kind)
                                }
                            }
                        }
                    }
                }
            }
            sync => self.on_sync(sync),
        }
    }

    fn field_check(&mut self, t: Tid, obj: ObjId, fields: &[u32], kind: AccessKind) {
        self.stats.checks += 1;
        self.stats.field_checks += 1;
        let clock = self.clocks.clock(t);
        self.backend
            .check(&mut self.stats, t, clock, kind, Check::Fields(obj, fields));
    }

    fn array_check(&mut self, t: Tid, arr: ArrId, range: ConcreteRange, kind: AccessKind) {
        self.stats.checks += 1;
        self.stats.array_checks += 1;
        match self.config.engine {
            ArrayEngine::Fine => {
                let clock = self.clocks.clock(t);
                self.backend
                    .check(&mut self.stats, t, clock, kind, Check::Elems(arr, range));
            }
            ArrayEngine::Footprint => {
                self.stats.footprint_ops += 1;
                let ti = t.index();
                if self.footprints.len() <= ti {
                    self.footprints.resize_with(ti + 1, Vec::new);
                }
                let per_thread = &mut self.footprints[ti];
                match per_thread.iter_mut().find(|(a, _)| *a == arr) {
                    Some((_, fp)) => fp.add(kind, range),
                    None => {
                        // Recycle a drained footprint when one is pooled;
                        // its range sets keep their capacity.
                        let mut fp = self.fp_pool.pop().unwrap_or_default();
                        fp.add(kind, range);
                        per_thread.push((arr, fp));
                    }
                }
            }
        }
    }

    /// Commits all pending footprints of thread `t` (called at each of
    /// `t`'s synchronization operations, before the clocks change): arrays
    /// in insertion order, writes before reads, ranges in coalesced order.
    fn commit_footprints(&mut self, t: Tid) {
        let Some(per_arr) = self.footprints.get_mut(t.index()) else {
            return;
        };
        if per_arr.is_empty() {
            return;
        }
        let clock = self.clocks.clock(t);
        for (arr, fp) in per_arr.iter() {
            for (kind, ranges) in [
                (AccessKind::Write, fp.writes.ranges()),
                (AccessKind::Read, fp.reads.ranges()),
            ] {
                for &range in ranges {
                    let check = Check::Commit(*arr, range);
                    self.backend.check(&mut self.stats, t, clock, kind, check);
                }
            }
        }
        // Every footprint was applied; drain the entries (so the
        // per-thread list does not grow with the number of distinct arrays
        // ever touched) and recycle the emptied footprints.
        for (_, mut fp) in per_arr.drain(..) {
            fp.clear();
            if self.fp_pool.len() < FP_POOL_MAX {
                self.fp_pool.push(fp);
            }
        }
    }

    fn sample_space(&mut self) {
        let units: u64 = self
            .footprints
            .iter()
            .map(|per_arr| {
                per_arr
                    .iter()
                    .map(|(_, fp)| fp.space_units())
                    .sum::<usize>() as u64
            })
            .sum();
        self.backend.sample_space(&mut self.stats, units);
    }

    fn on_sync(&mut self, ev: &Event) {
        // Deferred checks commit *before* the synchronization updates the
        // clocks, so they run with the clock the accesses happened under.
        // Exit and join leave the exiting thread's and the joined child's
        // clocks unchanged, so only the threads whose clocks move are
        // reported to the backend.
        match *ev {
            Event::Acquire { t, lock } => {
                self.commit_footprints(t);
                self.clocks.acquire(t, lock);
                self.backend.clock_changed(t);
            }
            Event::Release { t, lock } => {
                self.commit_footprints(t);
                self.clocks.release(t, lock);
                self.backend.clock_changed(t);
            }
            Event::Fork { parent, child } => {
                self.commit_footprints(parent);
                self.clocks.fork(parent, child);
                self.backend.clock_changed(parent);
                self.backend.clock_changed(child);
            }
            Event::Join { parent, child } => {
                self.commit_footprints(parent);
                self.clocks.join(parent, child);
                self.backend.clock_changed(parent);
            }
            Event::ThreadExit { t } => {
                self.commit_footprints(t);
                self.clocks.exit(t);
            }
            Event::VolatileWrite { t, obj, field } => {
                self.commit_footprints(t);
                self.clocks.volatile_write(t, obj, field);
                self.backend.clock_changed(t);
            }
            Event::VolatileRead { t, obj, field } => {
                self.commit_footprints(t);
                self.clocks.volatile_read(t, obj, field);
                self.backend.clock_changed(t);
            }
            _ => unreachable!("on_sync requires a sync event"),
        }
        if self.clocks.sync_ops().is_multiple_of(SPACE_SAMPLE_PERIOD) {
            self.sample_space();
        }
    }

    /// Final commits in ascending thread-id order (deterministic, so every
    /// backend surfaces the same races in the same order), the final space
    /// sample, and the `det.events` flush.
    pub(crate) fn finalize(&mut self) {
        if self.finished {
            return;
        }
        for ti in 0..self.footprints.len() {
            self.commit_footprints(Tid(ti as u32));
        }
        self.sample_space();
        self.stats.sync_ops = self.clocks.sync_ops();
        bigfoot_obs::count_named("det.events", self.events);
        self.backend.finish(&mut self.stats);
        self.finished = true;
    }
}
