//! The flight recorder: lock-free, bounded, per-thread rings of
//! timestamped trace events with Chrome trace-event JSON export.
//!
//! Where the metric registry answers *how much* (counters, histograms),
//! the flight recorder answers *when*: each thread records span
//! begin/end pairs, instant markers, and sampled counter values into its
//! own fixed-size ring on a process-wide monotonic clock. Recording is a
//! handful of relaxed/release stores into thread-owned slots — no locks,
//! no allocation after the ring exists — so it is safe on the detector's
//! hot paths. When a ring fills, the oldest events are
//! overwritten (**drop-oldest**): a recorder that has been running for
//! minutes still holds the most recent window, and the number of
//! overwritten events is tracked exactly (surfaced as the
//! `trace.dropped` obs counter by [`publish_counters`]).
//!
//! Tracing is compiled in but **off by default**, gated by its own flag
//! independent of the metric registry's: every recording site first
//! performs one relaxed atomic load ([`enabled`]) and touches nothing
//! else while disabled. The `obs_overhead` bench holds the <5% bound
//! with tracing compiled in but disabled.
//!
//! Export ([`chrome_trace_json`] / [`write_chrome_trace`]) produces the
//! Chrome trace-event JSON format (`{"traceEvents": [...]}`) loadable in
//! [Perfetto](https://ui.perfetto.dev) or `chrome://tracing`: one named
//! track per thread plus counter tracks. Export validates each slot's
//! sequence number before and after reading it (seqlock discipline), so
//! a mid-run flush — e.g. the panic-unwind path of [`TraceOutGuard`] —
//! yields a consistent partial trace; begin/end balance is restored at
//! export time (truncated begins are closed, orphaned ends dropped).

use crate::json::Json;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default per-thread ring capacity in events (a power of two).
pub const DEFAULT_RING_EVENTS: usize = 1 << 16;

/// Sentinel sequence value marking a slot mid-write.
const WRITING: u64 = u64::MAX;

const KIND_BEGIN: u64 = 0;
const KIND_END: u64 = 1;
const KIND_INSTANT: u64 = 2;
const KIND_COUNTER: u64 = 3;

static TRACE_ENABLED: AtomicBool = AtomicBool::new(false);
static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_RING_EVENTS);

/// Turns trace recording on or off globally. Independent of the metric
/// registry's flag: `bfc check --trace-out` records a timeline without
/// paying for counter collection.
pub fn set_enabled(on: bool) {
    if on {
        // Pin the clock epoch before the first event so timestamps start
        // near zero even if recording is toggled repeatedly.
        let _ = clock_anchor();
    }
    TRACE_ENABLED.store(on, Ordering::Relaxed);
}

/// True if trace recording is on. One relaxed load — the whole
/// disabled-path cost of every recording site.
#[inline(always)]
pub fn enabled() -> bool {
    TRACE_ENABLED.load(Ordering::Relaxed)
}

/// Sets the per-thread ring capacity (events; rounded up to a power of
/// two, minimum 16). Affects rings created *after* the call — set it
/// before the traced workload spawns its threads.
pub fn set_capacity(events: usize) {
    CAPACITY.store(events.next_power_of_two().max(16), Ordering::Relaxed);
}

fn clock_anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

/// Nanoseconds on the process-wide monotonic trace clock.
#[inline]
fn now_ns() -> u64 {
    clock_anchor().elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------
// Name interning
// ---------------------------------------------------------------------

fn name_table() -> &'static Mutex<Vec<&'static str>> {
    static NAMES: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    NAMES.get_or_init(|| Mutex::new(Vec::new()))
}

/// Interns a static name, returning its dense id. Slots store the id, so
/// recording never touches the string or the table lock after the first
/// event from a call site.
pub fn intern(name: &'static str) -> u32 {
    let mut table = name_table().lock().unwrap();
    if let Some(i) = table.iter().position(|n| *n == name) {
        return i as u32;
    }
    table.push(name);
    (table.len() - 1) as u32
}

/// A per-call-site trace-name handle, resolved to an interned id on
/// first use (the `trace_span!`/`trace_instant!`/`trace_counter!` macros
/// and the traced `span!` expansion each hold one in a `static`).
pub struct LazyTraceName {
    name: &'static str,
    id: OnceLock<u32>,
}

impl LazyTraceName {
    /// A handle for the named trace event.
    pub const fn new(name: &'static str) -> LazyTraceName {
        LazyTraceName {
            name,
            id: OnceLock::new(),
        }
    }

    /// The interned id (resolved once).
    #[inline]
    pub fn id(&self) -> u32 {
        *self.id.get_or_init(|| intern(self.name))
    }
}

// ---------------------------------------------------------------------
// Per-thread rings
// ---------------------------------------------------------------------

/// One ring slot. All fields are atomics so a concurrent exporter never
/// performs a non-atomic racy read; `seq` is the seqlock word: the owner
/// stores [`WRITING`], fills the payload, then stores `index + 1` with
/// `Release`. A reader accepts the slot only if `seq == index + 1` both
/// before and after reading the payload.
struct Slot {
    seq: AtomicU64,
    /// `kind << 32 | name_id`.
    meta: AtomicU64,
    ts: AtomicU64,
    value: AtomicU64,
}

struct ThreadRing {
    tid: u64,
    name: Mutex<String>,
    slots: Box<[Slot]>,
    mask: u64,
    /// Events ever written by the owner; `head & mask` is the next slot.
    head: AtomicU64,
}

impl ThreadRing {
    fn new(tid: u64, name: String, capacity: usize) -> ThreadRing {
        ThreadRing {
            tid,
            name: Mutex::new(name),
            slots: (0..capacity)
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    meta: AtomicU64::new(0),
                    ts: AtomicU64::new(0),
                    value: AtomicU64::new(0),
                })
                .collect(),
            mask: capacity as u64 - 1,
            head: AtomicU64::new(0),
        }
    }

    /// Owner-thread only: records one event, overwriting the oldest slot
    /// when the ring is full.
    fn push(&self, kind: u64, name_id: u32, value: u64) {
        let head = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(head & self.mask) as usize];
        slot.seq.store(WRITING, Ordering::Release);
        slot.meta
            .store(kind << 32 | u64::from(name_id), Ordering::Relaxed);
        slot.ts.store(now_ns(), Ordering::Relaxed);
        slot.value.store(value, Ordering::Relaxed);
        slot.seq.store(head + 1, Ordering::Release);
        self.head.store(head + 1, Ordering::Release);
    }

    fn events_written(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Events overwritten before they could be exported.
    fn dropped(&self) -> u64 {
        self.events_written()
            .saturating_sub(self.slots.len() as u64)
    }

    /// Reads the retained window in record order, skipping any slot the
    /// owner is concurrently rewriting (seqlock validation).
    fn read_events(&self) -> Vec<RawEvent> {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let start = head.saturating_sub(cap);
        let mut out = Vec::with_capacity((head - start) as usize);
        for i in start..head {
            let slot = &self.slots[(i & self.mask) as usize];
            if slot.seq.load(Ordering::Acquire) != i + 1 {
                continue;
            }
            let meta = slot.meta.load(Ordering::Relaxed);
            let ts = slot.ts.load(Ordering::Relaxed);
            let value = slot.value.load(Ordering::Relaxed);
            std::sync::atomic::fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != i + 1 {
                continue;
            }
            out.push(RawEvent {
                kind: meta >> 32,
                name_id: (meta & u64::from(u32::MAX)) as u32,
                ts,
                value,
            });
        }
        out
    }
}

struct RawEvent {
    kind: u64,
    name_id: u32,
    ts: u64,
    value: u64,
}

fn rings() -> &'static Mutex<Vec<Arc<ThreadRing>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<ThreadRing>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static MY_RING: std::cell::OnceCell<Arc<ThreadRing>> =
        const { std::cell::OnceCell::new() };
}

fn with_ring<R>(f: impl FnOnce(&ThreadRing) -> R) -> R {
    MY_RING.with(|cell| {
        let ring = cell.get_or_init(|| {
            let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            let name = std::thread::current()
                .name()
                .map(str::to_owned)
                .unwrap_or_else(|| format!("thread-{tid}"));
            let ring = Arc::new(ThreadRing::new(tid, name, CAPACITY.load(Ordering::Relaxed)));
            rings().lock().unwrap().push(Arc::clone(&ring));
            ring
        });
        f(ring)
    })
}

// ---------------------------------------------------------------------
// Recording API
// ---------------------------------------------------------------------
//
// The four primitives are deliberately *not* gated on `enabled()`:
// callers gate (one relaxed load) and remember the decision, so a span
// whose begin was recorded always gets its end even if tracing is
// switched off mid-span — pairing survives toggles. The macros and
// guards below do the gating.

/// Records a span-begin on the calling thread's ring.
#[inline]
pub fn begin(name: &LazyTraceName) {
    let id = name.id();
    with_ring(|r| r.push(KIND_BEGIN, id, 0));
}

/// Records a span-end on the calling thread's ring.
#[inline]
pub fn end(name: &LazyTraceName) {
    let id = name.id();
    with_ring(|r| r.push(KIND_END, id, 0));
}

/// Records an instant marker on the calling thread's ring.
#[inline]
pub fn instant(name: &LazyTraceName) {
    let id = name.id();
    with_ring(|r| r.push(KIND_INSTANT, id, 0));
}

/// Records one sample of a counter track on the calling thread's ring.
#[inline]
pub fn counter(name: &LazyTraceName, value: u64) {
    let id = name.id();
    with_ring(|r| r.push(KIND_COUNTER, id, value));
}

/// Names the calling thread's track in the exported trace (defaults to
/// the OS thread name, or `thread-N`). Safe to call whether or not
/// tracing is enabled.
pub fn set_thread_name(name: &str) {
    with_ring(|r| *r.name.lock().unwrap() = name.to_owned());
}

/// RAII guard pairing a trace begin with its end (the `trace_span!`
/// macro expands to one of these). Records nothing while tracing is
/// disabled at entry.
pub struct TraceSpanGuard {
    name: Option<&'static LazyTraceName>,
}

impl TraceSpanGuard {
    /// Opens a trace span if tracing is enabled.
    #[inline]
    pub fn enter(name: &'static LazyTraceName) -> TraceSpanGuard {
        let name = enabled().then(|| {
            begin(name);
            name
        });
        TraceSpanGuard { name }
    }
}

impl Drop for TraceSpanGuard {
    fn drop(&mut self) {
        if let Some(name) = self.name {
            end(name);
        }
    }
}

// ---------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------

/// Aggregate recorder state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Threads that have recorded at least one event (or were named).
    pub threads: usize,
    /// Events ever recorded, including overwritten ones.
    pub events: u64,
    /// Events lost to drop-oldest overwrite.
    pub dropped: u64,
}

/// Aggregate event/drop totals across every thread ring.
pub fn stats() -> TraceStats {
    let rings = rings().lock().unwrap();
    let mut s = TraceStats {
        threads: rings.len(),
        ..TraceStats::default()
    };
    for ring in rings.iter() {
        s.events += ring.events_written();
        s.dropped += ring.dropped();
    }
    s
}

/// Per-thread `(track name, events recorded, events dropped)` — exact
/// accounting for tests and diagnostics.
pub fn thread_stats() -> Vec<(String, u64, u64)> {
    rings()
        .lock()
        .unwrap()
        .iter()
        .map(|r| {
            (
                r.name.lock().unwrap().clone(),
                r.events_written(),
                r.dropped(),
            )
        })
        .collect()
}

/// Publishes recorder totals into the metric registry as `trace.events`
/// / `trace.dropped` counters (delta since the previous publish, so
/// repeated calls do not double-count). No-op while metric collection is
/// disabled.
pub fn publish_counters() {
    if !crate::enabled() {
        return;
    }
    static LAST: Mutex<(u64, u64)> = Mutex::new((0, 0));
    let s = stats();
    let mut last = LAST.lock().unwrap();
    crate::count_named("trace.events", s.events.saturating_sub(last.0));
    crate::count_named("trace.dropped", s.dropped.saturating_sub(last.1));
    *last = (s.events, s.dropped);
}

// ---------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------

/// Serializes every thread ring as Chrome trace-event JSON
/// (`{"traceEvents": [...]}`, timestamps in microseconds), loadable in
/// Perfetto or `chrome://tracing`.
///
/// Each thread contributes a `thread_name` metadata record and its
/// retained event window. Begin/end balance is restored per track:
/// an `E` whose `B` was overwritten by drop-oldest is discarded, and a
/// `B` still open at export time (mid-run flush) is closed at the
/// track's last timestamp — every emitted `B` has a matching `E`.
pub fn chrome_trace_json() -> Json {
    let rings: Vec<Arc<ThreadRing>> = {
        let mut v = rings().lock().unwrap().clone();
        v.sort_by_key(|r| r.tid);
        v
    };
    let names: Vec<String> = name_table()
        .lock()
        .unwrap()
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
    let name_of = |id: u32| -> &str {
        names
            .get(id as usize)
            .map(String::as_str)
            .unwrap_or("<unknown>")
    };
    let mut events = Json::array();
    for ring in &rings {
        let mut meta = Json::object();
        meta.set("ph", "M");
        meta.set("name", "thread_name");
        meta.set("pid", 1u64);
        meta.set("tid", ring.tid);
        let mut args = Json::object();
        args.set("name", ring.name.lock().unwrap().as_str());
        meta.set("args", args);
        events.push(meta);

        let raw = ring.read_events();
        let mut open: Vec<u32> = Vec::new();
        let mut last_us = 0.0f64;
        for ev in &raw {
            let ts_us = ev.ts as f64 / 1000.0;
            last_us = last_us.max(ts_us);
            let mut rec = Json::object();
            match ev.kind {
                KIND_BEGIN => {
                    open.push(ev.name_id);
                    rec.set("ph", "B");
                }
                KIND_END => {
                    // The matching B fell off the ring: emitting this E
                    // would unbalance the track.
                    if open.pop().is_none() {
                        continue;
                    }
                    rec.set("ph", "E");
                }
                KIND_INSTANT => {
                    rec.set("ph", "i");
                    rec.set("s", "t");
                }
                _ => {
                    rec.set("ph", "C");
                }
            }
            rec.set("name", name_of(ev.name_id));
            rec.set("pid", 1u64);
            rec.set("tid", ring.tid);
            rec.set("ts", ts_us);
            if ev.kind == KIND_COUNTER {
                let mut args = Json::object();
                args.set("value", ev.value);
                rec.set("args", args);
            }
            events.push(rec);
        }
        // Close spans still open at export time (mid-run/panic flush).
        while let Some(name_id) = open.pop() {
            let mut rec = Json::object();
            rec.set("ph", "E");
            rec.set("name", name_of(name_id));
            rec.set("pid", 1u64);
            rec.set("tid", ring.tid);
            rec.set("ts", last_us);
            events.push(rec);
        }
    }
    let mut out = Json::object();
    out.set("traceEvents", events);
    out.set("displayTimeUnit", "ms");
    out
}

/// Writes [`chrome_trace_json`] to `path`.
pub fn write_chrome_trace(path: &Path) -> std::io::Result<()> {
    std::fs::write(path, chrome_trace_json().to_string_compact())
}

/// RAII handle behind `--trace-out`: enables tracing on creation and
/// writes the Chrome trace on [`finish`](TraceOutGuard::finish) — or on
/// drop, which covers early returns and **panic unwinds**, so a crashed
/// run still leaves a usable partial trace on disk.
pub struct TraceOutGuard {
    path: PathBuf,
    armed: bool,
}

impl TraceOutGuard {
    /// Enables tracing and arms a write of `path` on drop.
    pub fn new(path: impl Into<PathBuf>) -> TraceOutGuard {
        set_enabled(true);
        TraceOutGuard {
            path: path.into(),
            armed: true,
        }
    }

    /// The output path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Disables tracing, publishes `trace.*` counters, and writes the
    /// trace file, surfacing any I/O error (the drop path can only log).
    pub fn finish(mut self) -> std::io::Result<()> {
        self.armed = false;
        set_enabled(false);
        publish_counters();
        write_chrome_trace(&self.path)
    }
}

impl Drop for TraceOutGuard {
    fn drop(&mut self) {
        if self.armed {
            set_enabled(false);
            publish_counters();
            if let Err(e) = write_chrome_trace(&self.path) {
                eprintln!(
                    "bigfoot-obs: failed to write trace to {}: {e}",
                    self.path.display()
                );
            }
        }
    }
}
