//! The shadow store: per-object field states and per-array shadows, with
//! the one copy of every shadow operation.
//!
//! The serial [`Detector`](crate::Detector) owns one store holding every
//! object and array. Trace replay owns [`SHARDS`](crate::SHARDS) stores,
//! one per shard, each holding the ids that route to it. Ids within shard
//! `s` are `s, s + SHARDS, …`, so a shard store's slabs take a stride of
//! `SHARDS` and index by `id / SHARDS`, staying dense per shard.

use crate::engine::ArrayEngine;
use crate::stats::{Race, RaceTarget};
use bigfoot_bfj::{ArrId, ConcreteRange, ObjId};
use bigfoot_shadow::{ArrayShadow, FieldGrouping, ObjectShadow, Slab};
use bigfoot_vc::{AccessKind, Tid, VarState, VectorClock};
use std::sync::Arc;

/// Per-object shadow entry: the field states and the grouping that maps
/// field indices onto them, fetched with a single slab lookup per check.
#[derive(Debug, Clone)]
struct ObjEntry {
    grouping: Arc<FieldGrouping>,
    shadow: ObjectShadow,
}

/// One check the front-end asks of a shadow store.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Check<'a> {
    /// Fields of an object: one shadow operation per distinct proxy group.
    Fields(ObjId, &'a [u32]),
    /// Every in-bounds element of a range of a fine array.
    Elems(ArrId, ConcreteRange),
    /// One committed footprint range against an adaptive array shadow.
    Commit(ArrId, ConcreteRange),
}

/// Object, fine-array and adaptive-array shadows; see the module docs.
///
/// Races go to the caller's `race` callback in the order they are found;
/// shadow operations are tallied in [`ShadowStore::shadow_ops`].
#[derive(Debug)]
pub(crate) struct ShadowStore {
    engine: ArrayEngine,
    objects: Slab<ObjId, ObjEntry>,
    arrays_fine: Slab<ArrId, Vec<VarState>>,
    arrays_adaptive: Slab<ArrId, ArrayShadow>,
    /// Scratch for proxy-group deduplication in multi-field checks.
    group_scratch: Vec<u32>,
    /// Shadow operations performed so far.
    pub(crate) shadow_ops: u64,
}

impl ShadowStore {
    /// An empty store whose slabs hold every `stride`-th id.
    pub(crate) fn new(engine: ArrayEngine, stride: u32) -> ShadowStore {
        ShadowStore {
            engine,
            objects: Slab::with_stride(stride),
            arrays_fine: Slab::with_stride(stride),
            arrays_adaptive: Slab::with_stride(stride),
            group_scratch: Vec::new(),
            shadow_ops: 0,
        }
    }

    pub(crate) fn alloc_obj(&mut self, obj: ObjId, grouping: Arc<FieldGrouping>) {
        let shadow = ObjectShadow::new(grouping.groups);
        self.objects.insert(obj, ObjEntry { grouping, shadow });
    }

    pub(crate) fn alloc_arr(&mut self, arr: ArrId, len: u64) {
        match self.engine {
            ArrayEngine::Fine => {
                self.arrays_fine
                    .insert(arr, vec![VarState::new(); len as usize]);
            }
            ArrayEngine::Footprint => {
                self.arrays_adaptive
                    .insert(arr, ArrayShadow::new(len as usize));
            }
        }
    }

    /// Performs one check by thread `t` at `clock`. Unseen objects and
    /// arrays (library allocations) are skipped.
    #[inline]
    pub(crate) fn check(
        &mut self,
        t: Tid,
        clock: &VectorClock,
        kind: AccessKind,
        check: Check<'_>,
        race: impl FnMut(Race),
    ) {
        match check {
            Check::Fields(obj, fields) => self.field_check(t, clock, obj, fields, kind, race),
            Check::Elems(arr, range) => self.fine_check(t, clock, arr, range, kind, race),
            Check::Commit(arr, range) => self.commit_range(t, clock, arr, range, kind, race),
        }
    }

    #[inline]
    fn field_check(
        &mut self,
        t: Tid,
        clock: &VectorClock,
        obj: ObjId,
        fields: &[u32],
        kind: AccessKind,
        mut race: impl FnMut(Race),
    ) {
        let Some(entry) = self.objects.get_mut(obj) else {
            return;
        };
        let mut apply = |g: u32| {
            self.shadow_ops += 1;
            if let Err(info) = entry.shadow.apply(g, kind, t, clock) {
                race(Race {
                    target: RaceTarget::Field(obj, g),
                    info,
                });
            }
        };
        if let [f] = fields {
            // Single-field fast path (every raw access): no dedup needed.
            apply(entry.grouping.group(*f));
            return;
        }
        // Deduplicate proxy groups within one coalesced path: p.x/y/z over
        // a single group performs a single shadow operation.
        let groups = &mut self.group_scratch;
        groups.clear();
        groups.extend(fields.iter().map(|f| entry.grouping.group(*f)));
        groups.sort_unstable();
        groups.dedup();
        for &g in groups.iter() {
            apply(g);
        }
    }

    #[inline]
    fn fine_check(
        &mut self,
        t: Tid,
        clock: &VectorClock,
        arr: ArrId,
        range: ConcreteRange,
        kind: AccessKind,
        mut race: impl FnMut(Race),
    ) {
        let Some(states) = self.arrays_fine.get_mut(arr) else {
            return;
        };
        for i in range.indices() {
            if i < 0 || i as usize >= states.len() {
                continue;
            }
            self.shadow_ops += 1;
            if let Err(info) = states[i as usize].apply(kind, t, clock) {
                race(Race {
                    target: RaceTarget::Elems(arr, ConcreteRange::singleton(i)),
                    info,
                });
            }
        }
    }

    fn commit_range(
        &mut self,
        t: Tid,
        clock: &VectorClock,
        arr: ArrId,
        range: ConcreteRange,
        kind: AccessKind,
        mut race: impl FnMut(Race),
    ) {
        let Some(shadow) = self.arrays_adaptive.get_mut(arr) else {
            return;
        };
        let out = shadow.apply(range, kind, t, clock);
        self.shadow_ops += out.shadow_ops;
        for (extent, info) in out.races {
            race(Race {
                target: RaceTarget::Elems(arr, extent),
                info,
            });
        }
    }

    /// Shadow space in clock-entry units.
    pub(crate) fn space_units(&self) -> u64 {
        let mut units: u64 = 0;
        for o in self.objects.values() {
            units += o.shadow.space_units() as u64;
        }
        for a in self.arrays_fine.values() {
            units += a.iter().map(VarState::space_units).sum::<usize>() as u64;
        }
        for a in self.arrays_adaptive.values() {
            units += a.space_units() as u64;
        }
        units
    }
}
