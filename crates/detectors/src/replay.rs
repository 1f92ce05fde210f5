//! Parallel sharded trace-replay detection.
//!
//! The serial [`Detector`](crate::Detector) consumes events as the
//! interpreter produces them. This module replays a *recorded* trace (see
//! `bigfoot_bfj::trace`) instead, on the same detection front-end
//! (`crate::engine`) with a different backend, splitting detection into
//! three stages:
//!
//! 1. **Annotate** (serial). The front-end runs every event in trace
//!    order, exactly as it does for the serial detector: sync events
//!    update the clocks, footprints buffer and commit at syncs. Its
//!    backend here, [`Annotate`], turns every shadow operation — immediate
//!    field/fine-array checks as well as the deferred footprint commits —
//!    into a self-contained work item carrying a snapshot of the acting
//!    thread's [`VectorClock`] (shared via `Arc`; clocks only change at
//!    sync ops, so snapshots are cached between them). Items get a global
//!    sequence number in exactly the order the serial detector performs
//!    the corresponding shadow operations.
//! 2. **Detect** (parallel). Items route to one of [`SHARDS`] fixed
//!    logical shards by owning object/array id, so a field group or a
//!    whole array — including all of an adaptive array shadow's
//!    refinement — always lands on one shard and stays sequential. Each
//!    shard applies its items to its own [`ShadowStore`], the same store
//!    the serial detector uses. `N` workers each own the shards
//!    `s % N == w`; because routing is by *shard* and not by worker, each
//!    shard sees the same item stream in the same order for every worker
//!    count.
//! 3. **Merge** (serial). Per-shard race candidates, tagged
//!    `(seq, intra_item_index)`, are sorted back into global trace order
//!    and fed through [`Stats::report_race`] — the same deduplication the
//!    serial detector applies inline — so the final report is
//!    **bit-identical** to the serial detector's, at any worker count.
//!
//! Shadow space is also reproduced exactly: at each point the front-end
//! samples space, the backend emits a probe item to every shard and
//! records the front-end's footprint-buffer size, and the merge sums the
//! per-shard measurements per probe.

use crate::engine::{ArrayEngine, Backend, Config, FrontEnd};
use crate::stats::{Race, Stats};
use crate::store::{Check, ShadowStore};
use bigfoot_bfj::trace::{read_event, read_header, TraceError};
use bigfoot_bfj::{ArrId, ConcreteRange, Event, ObjId};
use bigfoot_shadow::FieldGrouping;
use bigfoot_vc::{AccessKind, Tid, VectorClock};
use std::sync::Arc;

/// Number of fixed logical shards.
///
/// Work routes to `SHARDS` queues regardless of the worker count; workers
/// then divide the *shards*, never the items. This is what makes replay
/// verdicts independent of `--replay-workers`: shard streams (and hence
/// per-shard shadow state evolution) are identical at every worker count.
pub const SHARDS: usize = 64;

#[inline]
fn obj_shard(obj: ObjId) -> usize {
    obj.0 as usize % SHARDS
}

#[inline]
fn arr_shard(arr: ArrId) -> usize {
    arr.0 as usize % SHARDS
}

/// Streaming decoder over a serialized trace buffer.
///
/// # Examples
///
/// ```
/// use bigfoot_bfj::{parse_program, trace::TraceWriter, Interp, SchedPolicy};
/// use bigfoot_detectors::TraceReader;
///
/// let p = parse_program("main { a = new_array(4); a[0] = 1; }")?;
/// let mut w = TraceWriter::new();
/// Interp::new(&p, SchedPolicy::default()).run(&mut w)?;
/// let bytes = w.into_bytes();
/// let events: Vec<_> = TraceReader::new(&bytes)?.collect::<Result<_, _>>()?;
/// assert!(!events.is_empty());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct TraceReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> TraceReader<'a> {
    /// Validates the header and positions the reader at the first event.
    pub fn new(bytes: &'a [u8]) -> Result<TraceReader<'a>, TraceError> {
        let pos = read_header(bytes)?;
        Ok(TraceReader { bytes, pos })
    }
}

impl Iterator for TraceReader<'_> {
    type Item = Result<Event, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        match read_event(self.bytes, &mut self.pos) {
            Ok(Some(ev)) => Some(Ok(ev)),
            Ok(None) => None,
            Err(e) => {
                // Park the cursor at the end so a malformed trace yields
                // one error and then terminates the iterator.
                self.pos = self.bytes.len();
                Some(Err(e))
            }
        }
    }
}

/// One unit of check work, routed to a shard. Items carry everything the
/// shard needs — in particular an `Arc` snapshot of the acting thread's
/// clock at the moment the serial detector would have read it.
#[derive(Clone)]
pub(crate) enum Item {
    AllocObj {
        obj: ObjId,
        grouping: Arc<FieldGrouping>,
    },
    AllocArr {
        arr: ArrId,
        len: u64,
    },
    /// A check (field groups are resolved by the shard, which owns the
    /// object's grouping). For a footprint commit the clock is the
    /// committing thread's clock *before* the triggering sync operation
    /// updated it, exactly as in the serial detector.
    Check {
        seq: u64,
        target: Target,
        kind: AccessKind,
        t: Tid,
        clock: Arc<VectorClock>,
    },
    /// Measure this shard's shadow space (one per global sample point).
    SpaceProbe,
    /// Compressed replay: mark the start of a memoization probe bracket.
    /// The shard records its `shadow_ops` tally so the bracket's cost can
    /// be measured. An unmatched marker (memoization fell back to full
    /// expansion) is harmless — it only re-arms the mark.
    MemoBegin,
    /// Compressed replay: the items since the matching [`Item::MemoBegin`]
    /// were one repetition of a rule whose remaining `times` repetitions
    /// are provably identical (state fixpoint, duplicate races only), so
    /// the shard accounts their shadow ops by scaling the measured bracket
    /// instead of re-applying it.
    MemoScale {
        /// Number of skipped repetitions to account for.
        times: u64,
    },
}

/// An owned [`Check`], as a work item carries it.
#[derive(Clone, PartialEq, Eq)]
pub(crate) enum Target {
    Fields(ObjId, Vec<u32>),
    Elems(ArrId, ConcreteRange),
    Commit(ArrId, ConcreteRange),
}

impl Target {
    fn as_check(&self) -> Check<'_> {
        match self {
            Target::Fields(obj, fields) => Check::Fields(*obj, fields),
            Target::Elems(arr, range) => Check::Elems(*arr, *range),
            Target::Commit(arr, range) => Check::Commit(*arr, *range),
        }
    }
}

/// What one shard's detection produced.
#[derive(Default)]
struct ShardOutcome {
    items: u64,
    shadow_ops: u64,
    /// Race candidates tagged with `(global_seq, intra_item_index)`.
    races: Vec<(u64, u32, Race)>,
    /// Shadow space at each probe point, in clock-entry units.
    probe_spaces: Vec<u64>,
}

/// One shard's detection: a strided [`ShadowStore`] holding the objects
/// and arrays that route to this shard, applying the shard's items in
/// order.
struct ShardState {
    store: ShadowStore,
    /// `shadow_ops` tally at the last [`Item::MemoBegin`].
    memo_mark: u64,
    out: ShardOutcome,
}

impl ShardState {
    fn new(engine: ArrayEngine) -> ShardState {
        ShardState {
            store: ShadowStore::new(engine, SHARDS as u32),
            memo_mark: 0,
            out: ShardOutcome::default(),
        }
    }

    fn run(mut self, items: &[Item]) -> ShardOutcome {
        for item in items {
            self.out.items += 1;
            self.apply(item);
        }
        self.out.shadow_ops = self.store.shadow_ops;
        // Publish this worker thread's FastTrack path tallies.
        bigfoot_vc::path_stats::flush();
        self.out
    }

    fn apply(&mut self, item: &Item) {
        match item {
            Item::AllocObj { obj, grouping } => self.store.alloc_obj(*obj, Arc::clone(grouping)),
            Item::AllocArr { arr, len } => self.store.alloc_arr(*arr, *len),
            Item::Check {
                seq,
                target,
                kind,
                t,
                clock,
            } => {
                let races = tagged(&mut self.out.races, *seq);
                self.store.check(*t, clock, *kind, target.as_check(), races);
            }
            Item::MemoBegin => {
                self.memo_mark = self.store.shadow_ops;
            }
            Item::MemoScale { times } => {
                // The bracket since MemoBegin was one rule repetition; its
                // skipped repetitions perform exactly the same shadow ops
                // (and only duplicate, already-deduplicated races).
                let bracket = self.store.shadow_ops - self.memo_mark;
                self.store.shadow_ops += bracket * times;
            }
            Item::SpaceProbe => self.out.probe_spaces.push(self.store.space_units()),
        }
    }
}

/// Tags each race one item finds with `(seq, index within the item)`, the
/// merge's sort key.
fn tagged(races: &mut Vec<(u64, u32, Race)>, seq: u64) -> impl FnMut(Race) + '_ {
    let mut idx = 0u32;
    move |race| {
        races.push((seq, idx, race));
        idx += 1;
    }
}

/// Where the annotator's sequenced items go. Trace replay collects them
/// into the 64 in-memory shard queues ([`ShardQueues`]); compressed
/// replay (`crate::creplay`) wraps those queues in a memoizing sink.
/// Because the annotator routes by *shard* either way, per-shard item
/// streams are identical across sinks — the root of the
/// worker-count-invariance argument.
pub(crate) trait ItemSink {
    fn item(&mut self, shard: usize, item: Item);
}

/// The offline sink: one in-memory queue per shard, drained by
/// [`detect_and_merge`]'s scoped workers after the stream ends.
pub(crate) struct ShardQueues(pub(crate) Vec<Vec<Item>>);

impl ShardQueues {
    pub(crate) fn new() -> ShardQueues {
        ShardQueues((0..SHARDS).map(|_| Vec::new()).collect())
    }
}

impl ItemSink for ShardQueues {
    #[inline]
    fn item(&mut self, shard: usize, item: Item) {
        self.0[shard].push(item);
    }
}

/// The replay backend: instead of touching shadow state it turns each
/// call of the front-end into a sequenced work item, carrying a shared
/// snapshot of the acting thread's clock, for the owning shard.
pub(crate) struct Annotate<S> {
    pub(crate) sink: S,
    /// Cached `Arc` snapshots of thread clocks (indexed by dense tid),
    /// invalidated when a sync operation changes the thread's clock.
    snapshots: Vec<Option<Arc<VectorClock>>>,
    next_seq: u64,
    /// Footprint-buffer space at each probe point (the shards measure the
    /// shadow stores; the front-end owns the footprints).
    probe_fp_space: Vec<u64>,
}

/// The clock-annotation pass (stage 1): the detection front-end over the
/// replay backend.
pub(crate) type Annotator<S> = FrontEnd<Annotate<S>>;

impl<S: ItemSink> Annotator<S> {
    pub(crate) fn with_sink(config: &Config, sink: S) -> Annotator<S> {
        FrontEnd::new(
            config.clone(),
            Annotate {
                sink,
                snapshots: Vec::new(),
                next_seq: 0,
                probe_fp_space: Vec::new(),
            },
        )
    }

    /// Tears the finalized annotator apart for stage 2/3: the sink
    /// (whatever it buffered or routed), the per-probe footprint space,
    /// and the running stats the merge completes.
    pub(crate) fn into_parts(self) -> (ArrayEngine, S, Vec<u64>, Stats) {
        debug_assert!(self.finished, "finalize before consuming the annotator");
        let Annotate {
            sink,
            probe_fp_space,
            ..
        } = self.backend;
        (self.config.engine, sink, probe_fp_space, self.stats)
    }
}

impl<S> Annotate<S> {
    /// The acting thread's current clock as a shared snapshot.
    fn snapshot(&mut self, t: Tid, clock: &VectorClock) -> Arc<VectorClock> {
        if let Some(Some(c)) = self.snapshots.get(t.index()) {
            return c.clone();
        }
        let c = Arc::new(clock.clone());
        if self.snapshots.len() <= t.index() {
            self.snapshots.resize(t.index() + 1, None);
        }
        self.snapshots[t.index()] = Some(c.clone());
        c
    }
}

impl<S: ItemSink> Backend for Annotate<S> {
    fn alloc_obj(&mut self, obj: ObjId, grouping: Arc<FieldGrouping>) {
        self.sink
            .item(obj_shard(obj), Item::AllocObj { obj, grouping });
    }

    fn alloc_arr(&mut self, arr: ArrId, len: u64) {
        self.sink.item(arr_shard(arr), Item::AllocArr { arr, len });
    }

    fn check(
        &mut self,
        _: &mut Stats,
        t: Tid,
        clock: &VectorClock,
        kind: AccessKind,
        check: Check<'_>,
    ) {
        let (shard, target) = match check {
            Check::Fields(obj, fields) => (obj_shard(obj), Target::Fields(obj, fields.to_vec())),
            Check::Elems(arr, range) => (arr_shard(arr), Target::Elems(arr, range)),
            Check::Commit(arr, range) => (arr_shard(arr), Target::Commit(arr, range)),
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        let clock = self.snapshot(t, clock);
        self.sink.item(
            shard,
            Item::Check {
                seq,
                target,
                kind,
                t,
                clock,
            },
        );
    }

    fn clock_changed(&mut self, t: Tid) {
        if let Some(slot) = self.snapshots.get_mut(t.index()) {
            *slot = None;
        }
    }

    /// Records a global space-sample point: footprint space here, shadow
    /// space in every shard.
    fn sample_space(&mut self, _: &mut Stats, footprint_units: u64) {
        self.probe_fp_space.push(footprint_units);
        for s in 0..SHARDS {
            self.sink.item(s, Item::SpaceProbe);
        }
    }

    /// Shadow ops and the final publish come after the merge.
    fn finish(&mut self, _: &mut Stats) {}
}

/// Stages 2 and 3, shared by [`replay_trace`] and compressed replay
/// (`crate::creplay`): parallel sharded detection over the finalized
/// annotator's shard queues, then the deterministic seq-ordered merge.
pub(crate) fn detect_and_merge(
    engine: ArrayEngine,
    queues: Vec<Vec<Item>>,
    probe_fp_space: Vec<u64>,
    mut stats: Stats,
    num_workers: usize,
) -> Stats {
    // Stage 2: parallel sharded detection. Worker `w` owns the shards
    // `s % workers == w`; shard streams are identical at any worker count.
    let workers = num_workers.clamp(1, SHARDS);
    let outcomes: Vec<ShardOutcome> = {
        let _span = bigfoot_obs::span!("replay.detect");
        if workers == 1 {
            queues
                .iter()
                .map(|items| ShardState::new(engine).run(items))
                .collect()
        } else {
            let mut outcomes: Vec<Option<ShardOutcome>> = (0..SHARDS).map(|_| None).collect();
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(workers);
                for w in 0..workers {
                    let queues = &queues;
                    handles.push(scope.spawn(move || {
                        if bigfoot_obs::trace::enabled() {
                            bigfoot_obs::trace::set_thread_name(&format!("replay worker {w}"));
                        }
                        let mut owned = Vec::new();
                        let mut s = w;
                        while s < SHARDS {
                            // One span per non-empty shard: the worker's
                            // timeline shows which shards carried the
                            // work and where it idled.
                            let traced = bigfoot_obs::trace::enabled() && !queues[s].is_empty();
                            let _shard_span =
                                traced.then(|| bigfoot_obs::trace_span!("replay.shard"));
                            owned.push((s, ShardState::new(engine).run(&queues[s])));
                            s += workers;
                        }
                        owned
                    }));
                }
                for h in handles {
                    for (s, outcome) in h.join().expect("replay worker panicked") {
                        outcomes[s] = Some(outcome);
                    }
                }
            });
            outcomes
                .into_iter()
                .map(|o| o.expect("every shard processed"))
                .collect()
        }
    };

    // Stage 3: merge per-shard results back into global trace order.
    let _span = bigfoot_obs::span!("replay.merge");
    if bigfoot_obs::enabled() {
        for (s, o) in outcomes.iter().enumerate() {
            bigfoot_obs::count_named(&format!("replay.shard{s:02}.items"), o.items);
            bigfoot_obs::count_named(&format!("replay.shard{s:02}.shadow_ops"), o.shadow_ops);
            bigfoot_obs::count_named(&format!("replay.shard{s:02}.races"), o.races.len() as u64);
        }
    }
    let mut candidates: Vec<(u64, u32, Race)> = Vec::new();
    for o in &outcomes {
        stats.shadow_ops += o.shadow_ops;
        candidates.extend(o.races.iter().map(|(s, i, r)| (*s, *i, r.clone())));
    }
    candidates.sort_by_key(|(seq, idx, _)| (*seq, *idx));
    for (_, _, race) in candidates {
        stats.report_race(race);
    }
    for (k, fp_space) in probe_fp_space.iter().enumerate() {
        let shard_space: u64 = outcomes.iter().map(|o| o.probe_spaces[k]).sum();
        stats.observe_space(fp_space + shard_space);
    }
    stats.publish();
    stats
}

/// Replays a serialized trace through the sharded detection pipeline.
///
/// Produces [`Stats`] bit-identical to running the serial
/// [`Detector`](crate::Detector) with the same configuration over the same
/// event stream, for any number of detection `workers` (clamped to
/// `1..=SHARDS`).
///
/// # Errors
///
/// Returns [`TraceError`] if the trace buffer is malformed.
///
/// # Examples
///
/// ```
/// use bigfoot_bfj::{parse_program, trace::TraceWriter, Interp, SchedPolicy};
/// use bigfoot_detectors::{replay_trace, Config, Detector};
///
/// let p = parse_program(
///     "class C { field x; meth poke(v) { this.x = v; return 0; } }
///      main {
///          c = new C;
///          fork t1 = c.poke(1);
///          fork t2 = c.poke(2);
///          join(t1); join(t2);
///      }",
/// )?;
/// let mut w = TraceWriter::new();
/// Interp::new(&p, SchedPolicy::default()).run(&mut w)?;
/// let bytes = w.into_bytes();
///
/// let stats = replay_trace(&bytes, &Config::fasttrack(), 4)?;
/// assert!(stats.has_races());
///
/// // Identical to the serial detector over the same trace:
/// let mut serial = Detector::fasttrack();
/// for ev in bigfoot_detectors::TraceReader::new(&bytes)? {
///     use bigfoot_bfj::EventSink;
///     serial.event(&ev?);
/// }
/// assert_eq!(stats.races, serial.finish().races);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn replay_trace(bytes: &[u8], config: &Config, workers: usize) -> Result<Stats, TraceError> {
    // Stage 1: serial clock annotation.
    let mut annotator = Annotator::with_sink(config, ShardQueues::new());
    {
        let _span = bigfoot_obs::span!("replay.annotate");
        let mut pos = read_header(bytes)?;
        while let Some(ev) = read_event(bytes, &mut pos)? {
            annotator.event(&ev);
        }
        annotator.finalize();
    }
    let (engine, ShardQueues(queues), probe_fp_space, stats) = annotator.into_parts();
    Ok(detect_and_merge(
        engine,
        queues,
        probe_fp_space,
        stats,
        workers,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Detector, ProxyTable};
    use bigfoot_bfj::trace::TraceWriter;
    use bigfoot_bfj::{parse_program, EventSink, Interp, SchedPolicy};

    fn record(src: &str) -> Vec<u8> {
        let p = parse_program(src).expect("parse");
        let mut w = TraceWriter::new();
        Interp::new(&p, SchedPolicy::default())
            .run(&mut w)
            .expect("run");
        w.into_bytes()
    }

    fn serial_stats(bytes: &[u8], mut det: Detector) -> Stats {
        for ev in TraceReader::new(bytes).expect("header") {
            det.event(&ev.expect("event"));
        }
        det.finish()
    }

    fn assert_identical(stats: &Stats, serial: &Stats) {
        assert_eq!(stats.races, serial.races);
        assert_eq!(
            stats.to_json().to_string_compact(),
            serial.to_json().to_string_compact(),
            "replay stats must be bit-identical to serial"
        );
    }

    const RACY: &str = "
        class C { field x; meth poke(v) { this.x = v; return 0; } }
        main {
            c = new C;
            fork t1 = c.poke(1);
            fork t2 = c.poke(2);
            join(t1); join(t2);
        }";

    const ARRAY_SPLIT: &str = "
        class W { meth fill(a, lo, hi, v) {
            for (i = lo; i < hi; i = i + 1) { a[i] = v; }
            check(w: a[lo..hi]);
            return 0; } }
        main {
            w = new W;
            a = new_array(64);
            fork t1 = w.fill(a, 0, 32, 1);
            fork t2 = w.fill(a, 32, 64, 2);
            join(t1); join(t2);
        }";

    const ARRAY_RACY: &str = "
        class W { meth fill(a, v) {
            for (i = 0; i < a.length; i = i + 1) { a[i] = v; }
            check(w: a[0..a.length]);
            return 0; } }
        main {
            w = new W;
            a = new_array(32);
            fork t1 = w.fill(a, 1);
            fork t2 = w.fill(a, 2);
            join(t1); join(t2);
        }";

    #[test]
    fn replay_matches_serial_fasttrack() {
        let bytes = record(RACY);
        let serial = serial_stats(&bytes, Detector::fasttrack());
        for workers in [1, 2, 4] {
            let stats = replay_trace(&bytes, &Config::fasttrack(), workers).expect("replay");
            assert!(stats.has_races());
            assert_identical(&stats, &serial);
        }
    }

    #[test]
    fn replay_matches_serial_bigfoot_deferred_commits() {
        for src in [ARRAY_SPLIT, ARRAY_RACY] {
            let bytes = record(src);
            let serial = serial_stats(&bytes, Detector::bigfoot(ProxyTable::identity()));
            for workers in [1, 3, 8] {
                let stats = replay_trace(&bytes, &Config::bigfoot(ProxyTable::identity()), workers)
                    .expect("replay");
                assert_identical(&stats, &serial);
            }
        }
        assert!(replay_trace(
            &record(ARRAY_SPLIT),
            &Config::bigfoot(ProxyTable::identity()),
            2
        )
        .expect("replay")
        .races
        .is_empty());
    }

    #[test]
    fn replay_matches_serial_slimstate() {
        let bytes = record(ARRAY_RACY);
        let serial = serial_stats(&bytes, Detector::slimstate());
        let stats = replay_trace(&bytes, &Config::slimstate(), 4).expect("replay");
        assert_identical(&stats, &serial);
        assert!(stats.has_races());
    }

    #[test]
    fn worker_count_never_changes_the_report() {
        let bytes = record(ARRAY_RACY);
        let baseline = replay_trace(&bytes, &Config::fasttrack(), 1).expect("replay");
        for workers in [2, 4, 8, 64, 1000] {
            let stats = replay_trace(&bytes, &Config::fasttrack(), workers).expect("replay");
            assert_identical(&stats, &baseline);
        }
    }

    #[test]
    fn zero_length_arrays_replay_identically() {
        // Empty allocations flow through shard pinning, fine states, and
        // adaptive shadows without panicking or perturbing space units.
        let src = "
            class W { meth scan(a, b) {
                s = 0;
                for (i = 0; i < a.length; i = i + 1) { s = s + a[i]; }
                for (i = 0; i < b.length; i = i + 1) { b[i] = s; }
                return s; } }
            main {
                w = new W;
                a = new_array(0);
                b = new_array(8);
                fork t1 = w.scan(a, b);
                fork t2 = w.scan(a, b);
                join(t1); join(t2);
            }";
        let bytes = record(src);
        for (config, serial_det) in [
            (Config::fasttrack(), Detector::fasttrack()),
            (Config::slimstate(), Detector::slimstate()),
        ] {
            let reference = serial_stats(&bytes, serial_det);
            let stats = replay_trace(&bytes, &config, 3).expect("replay");
            assert_identical(&stats, &reference);
            assert!(stats.has_races(), "b is raced over; a contributes nothing");
        }
    }

    #[test]
    fn malformed_trace_is_an_error() {
        assert!(matches!(
            replay_trace(b"junk", &Config::fasttrack(), 1),
            Err(TraceError::BadMagic)
        ));
        let mut bytes = record(RACY);
        bytes.truncate(bytes.len() - 1);
        assert!(matches!(
            replay_trace(&bytes, &Config::fasttrack(), 2),
            Err(TraceError::Truncated { .. })
        ));
    }

    #[test]
    fn trace_reader_yields_one_error_then_stops() {
        let mut bytes = record(RACY);
        bytes.truncate(bytes.len() - 1);
        let results: Vec<_> = TraceReader::new(&bytes).expect("header").collect();
        assert!(results.last().expect("nonempty").is_err());
        assert_eq!(results.iter().filter(|r| r.is_err()).count(), 1);
    }
}
