//! Dense `Vec`-indexed slab storage for shadow state keyed by integer ids.
//!
//! The interpreter assigns `ObjId`/`ArrId` densely from 0, so the
//! detector's per-event shadow lookups — the hottest operation in the
//! whole pipeline — can be a bounds check and an array index instead of a
//! hash-map probe. A [`Slab`] stores values in `Vec<Option<T>>` slots for
//! ids below a density cap and spills anything else (sparse or malformed
//! ids, e.g. from hand-built traces) into a hash map, so behaviour never
//! depends on the key distribution.
//!
//! The replay engine shards ids by `id % SHARDS`; within shard `s` the
//! surviving ids are `s, s + SHARDS, s + 2·SHARDS, …`. Constructing the
//! shard's slab with [`Slab::with_stride`]`(SHARDS)` indexes by
//! `id / SHARDS`, which is dense again — no per-shard memory blow-up.
//!
//! For differential testing, [`set_force_map_store`] routes **all** new
//! inserts of every slab through the spill map, turning the store back
//! into the pre-slab hash-map implementation. The A/B harness in
//! `bigfoot-detectors` uses it to assert bit-identical verdicts between
//! the two stores; it is not meant for production configuration.

use bigfoot_bfj::{ArrId, ObjId};
use bigfoot_obs::fx::FxHashMap;
use std::hash::Hash;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};

/// Ids whose slab index reaches this bound go to the spill map instead of
/// growing the dense vector (caps worst-case memory for adversarial ids).
const DENSE_LIMIT: usize = 1 << 22;

static FORCE_MAP: AtomicBool = AtomicBool::new(false);

/// Routes all *subsequent* slab inserts through the spill hash map,
/// reproducing the pre-slab map-based store. Differential-test hook only:
/// process-global, so tests using it must not run concurrently with other
/// detector tests in the same process.
pub fn set_force_map_store(on: bool) {
    FORCE_MAP.store(on, Ordering::Relaxed);
}

/// True while [`set_force_map_store`]`(true)` is in effect.
pub fn force_map_store() -> bool {
    FORCE_MAP.load(Ordering::Relaxed)
}

/// A key usable with [`Slab`]: copyable, hashable (for the spill map), and
/// reducible to its raw integer id.
pub trait SlabKey: Copy + Eq + Hash {
    /// The raw dense id.
    fn raw(self) -> u32;
}

impl SlabKey for ObjId {
    #[inline]
    fn raw(self) -> u32 {
        self.0
    }
}

impl SlabKey for ArrId {
    #[inline]
    fn raw(self) -> u32 {
        self.0
    }
}

impl SlabKey for u32 {
    #[inline]
    fn raw(self) -> u32 {
        self
    }
}

/// Dense slab with hash-map spill; see the module docs.
#[derive(Debug, Clone)]
pub struct Slab<K: SlabKey, T> {
    slots: Vec<Option<T>>,
    spill: FxHashMap<K, T>,
    shift: u32,
    len: usize,
    _key: PhantomData<K>,
}

impl<K: SlabKey, T> Default for Slab<K, T> {
    fn default() -> Slab<K, T> {
        Slab::new()
    }
}

impl<K: SlabKey, T> Slab<K, T> {
    /// A slab indexing directly by id (the serial detector).
    pub fn new() -> Slab<K, T> {
        Slab::with_stride(1)
    }

    /// A slab for keys sharing a residue class modulo `stride` (a replay
    /// shard): indexes by `id / stride`. `stride` must be a power of two.
    pub fn with_stride(stride: u32) -> Slab<K, T> {
        assert!(
            stride.is_power_of_two(),
            "slab stride must be a power of two"
        );
        Slab {
            slots: Vec::new(),
            spill: FxHashMap::default(),
            shift: stride.trailing_zeros(),
            len: 0,
            _key: PhantomData,
        }
    }

    #[inline]
    fn idx(&self, k: K) -> usize {
        (k.raw() >> self.shift) as usize
    }

    /// Number of stored values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Shared lookup.
    #[inline]
    pub fn get(&self, k: K) -> Option<&T> {
        let i = self.idx(k);
        if let Some(Some(v)) = self.slots.get(i) {
            return Some(v);
        }
        if self.spill.is_empty() {
            None
        } else {
            self.spill.get(&k)
        }
    }

    /// Mutable lookup.
    #[inline]
    pub fn get_mut(&mut self, k: K) -> Option<&mut T> {
        let i = self.idx(k);
        if let Some(slot) = self.slots.get_mut(i) {
            if let Some(v) = slot.as_mut() {
                return Some(v);
            }
        }
        if self.spill.is_empty() {
            None
        } else {
            self.spill.get_mut(&k)
        }
    }

    /// Inserts (or replaces) the value for `k`.
    pub fn insert(&mut self, k: K, v: T) {
        let i = self.idx(k);
        if i < DENSE_LIMIT && !force_map_store() {
            if i >= self.slots.len() {
                self.slots.resize_with(i + 1, || None);
            }
            if self.slots[i].replace(v).is_none() {
                // A replace of a spilled duplicate cannot happen: dense-
                // eligible keys only ever reach the spill in forced-map
                // mode, and then stay there on replacement below.
                self.len += 1;
            }
        } else if self.spill.insert(k, v).is_none() {
            self.len += 1;
        }
    }

    /// Iterates stored values (dense slots in id order, then spill in hash
    /// order); callers must not rely on ordering across the two regions.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.slots
            .iter()
            .filter_map(|s| s.as_ref())
            .chain(self.spill.values())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// `forced_map_mode_routes_to_spill` flips the process-global
    /// force-map flag; the other tests insert dense keys and must not run
    /// while it is set.
    fn flag_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn dense_roundtrip_and_values() {
        let _flag = flag_lock();
        let mut s: Slab<u32, String> = Slab::new();
        assert!(s.is_empty());
        for k in 0..100u32 {
            s.insert(k, format!("v{k}"));
        }
        assert_eq!(s.len(), 100);
        assert_eq!(s.get(7).map(String::as_str), Some("v7"));
        assert_eq!(s.get_mut(99).map(|v| v.as_str()), Some("v99"));
        assert_eq!(s.get(100), None);
        assert_eq!(s.values().count(), 100);
        s.insert(7, "again".into());
        assert_eq!(s.len(), 100, "replacement does not grow len");
        assert_eq!(s.get(7).map(String::as_str), Some("again"));
    }

    #[test]
    fn strided_keys_stay_dense() {
        let _flag = flag_lock();
        let mut s: Slab<u32, u64> = Slab::with_stride(64);
        for k in (3..6403u32).step_by(64) {
            s.insert(k, k as u64);
        }
        assert_eq!(s.len(), 100);
        assert_eq!(s.get(3 + 64 * 50), Some(&((3 + 64 * 50) as u64)));
        // Dense region covers them all: nothing spilled.
        assert!(s.spill.is_empty());
        assert_eq!(s.slots.iter().filter(|x| x.is_some()).count(), 100);
    }

    #[test]
    fn sparse_ids_spill() {
        let _flag = flag_lock();
        let mut s: Slab<u32, u8> = Slab::new();
        s.insert(5, 1);
        s.insert(u32::MAX, 2);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(5), Some(&1));
        assert_eq!(s.get(u32::MAX), Some(&2));
        assert!(s.slots.len() <= DENSE_LIMIT);
        assert_eq!(s.spill.len(), 1);
        assert_eq!(s.values().count(), 2);
    }

    #[test]
    fn forced_map_mode_routes_to_spill() {
        let _flag = flag_lock();
        set_force_map_store(true);
        let mut s: Slab<u32, u8> = Slab::new();
        s.insert(0, 7);
        s.insert(1, 8);
        set_force_map_store(false);
        assert_eq!(s.spill.len(), 2);
        assert_eq!(s.get(0), Some(&7));
        assert_eq!(s.get_mut(1), Some(&mut 8));
        assert_eq!(s.values().count(), 2);
    }
}
