//! The sharded LRU answer cache: materialized sample tables keyed by
//! compiled cell.
//!
//! Repeat zoom/pan queries are the common case on a dashboard (a user
//! panning back and forth re-issues the same cells), and for those the
//! expensive step is not the probe but the `Table::take` materialization.
//! The cache stores the finished [`Table`] (behind an `Arc`, so a hit is
//! one clone of a pointer) and the answer's row ids + provenance.
//!
//! **Sharding.** A power-of-two number of shards, each behind its own
//! `Mutex`; a key's shard is picked from its Fx hash, so concurrent
//! clients rarely contend on the same lock. Per-shard state is a slab of
//! intrusively doubly-linked nodes (`usize` indices, no `Rc` juggling)
//! plus an `FxHashMap<CompiledCell, slot>`; LRU eviction pops the list
//! tail.
//!
//! **Capacity** is byte-based: `TABULA_CACHE_MB` megabytes (default 64)
//! split evenly across shards, each entry charged its materialized
//! table's heap bytes. `TABULA_CACHE_MB=0` (or `TABULA_CACHE_BYPASS=1`)
//! disables caching entirely.
//!
//! **Invalidation** is epoch-based, and the epoch an entry is valid
//! under is supplied by the *caller*, not read from the cache's clock:
//! every cube generation carries the epoch it was installed under (the
//! server bumps the cache clock and stamps the generation inside the
//! same write-lock critical section), and both [`AnswerCache::get`] and
//! [`AnswerCache::insert`] take that generation epoch explicitly. An
//! answer computed against generation N can therefore only ever be
//! inserted and matched under N's epoch — a query that races with a
//! refresh (reads generation N, inserts after the swap) stamps its entry
//! N, which no generation-N+1 reader can match, so a refresh can never
//! leak a stale cached answer. Invalidation itself is O(1) and takes no
//! locks; mismatched entries are reclaimed lazily when an equal-or-newer
//! reader trips over them.

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tabula_core::{CompiledCell, SampleProvenance};
use tabula_storage::fx::FxHasher;
use tabula_storage::{FxHashMap, RowId, Table};

/// A cached, fully materialized query answer.
#[derive(Debug, Clone)]
pub struct CachedAnswer {
    /// Sample row ids (into the raw table of the generation that produced
    /// them).
    pub rows: Arc<Vec<RowId>>,
    /// Which cube path produced the rows.
    pub provenance: SampleProvenance,
    /// The materialized sample table shipped to the dashboard.
    pub table: Arc<Table>,
}

impl CachedAnswer {
    fn bytes(&self) -> usize {
        // Charge the materialized tuples plus the row-id list plus a flat
        // per-entry overhead for the key, node and map slot.
        self.table.heap_bytes() + self.rows.len() * std::mem::size_of::<RowId>() + 256
    }

    /// The bytes this answer is charged against the cache capacity —
    /// what a trace reports as "bytes touched" on a cache hit.
    pub fn heap_bytes(&self) -> usize {
        self.bytes()
    }
}

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Node {
    key: CompiledCell,
    value: CachedAnswer,
    epoch: u64,
    bytes: usize,
    prev: usize,
    next: usize,
}

/// One shard: slab + intrusive LRU list + key map, all under one mutex.
#[derive(Debug, Default)]
struct Shard {
    map: FxHashMap<CompiledCell, usize>,
    slab: Vec<Option<Node>>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    bytes: usize,
}

impl Shard {
    fn new() -> Self {
        Shard {
            map: FxHashMap::default(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            bytes: 0,
        }
    }

    fn unlink(&mut self, slot: usize) {
        let (prev, next) = {
            let n = self.slab[slot].as_ref().unwrap();
            (n.prev, n.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.slab[p].as_mut().unwrap().next = next,
        }
        match next {
            NIL => self.tail = prev,
            x => self.slab[x].as_mut().unwrap().prev = prev,
        }
    }

    fn push_front(&mut self, slot: usize) {
        {
            let n = self.slab[slot].as_mut().unwrap();
            n.prev = NIL;
            n.next = self.head;
        }
        if self.head != NIL {
            self.slab[self.head].as_mut().unwrap().prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    /// Remove `slot` entirely, returning its freed byte count.
    fn remove(&mut self, slot: usize) -> usize {
        self.unlink(slot);
        let node = self.slab[slot].take().unwrap();
        self.map.remove(&node.key);
        self.free.push(slot);
        self.bytes -= node.bytes;
        node.bytes
    }
}

/// Sharded, epoch-invalidated LRU cache of materialized answers.
#[derive(Debug)]
pub struct AnswerCache {
    shards: Vec<Mutex<Shard>>,
    shard_mask: usize,
    per_shard_cap: usize,
    epoch: AtomicU64,
}

/// Outcome of a cache probe, for the server's metrics.
pub enum CacheLookup {
    /// Fresh entry under the current epoch.
    Hit(CachedAnswer),
    /// Absent (or stale — the entry was dropped).
    Miss,
    /// Caching disabled; the server should skip inserts too.
    Bypass,
}

impl AnswerCache {
    /// A cache with `capacity_bytes` total capacity across `shards`
    /// shards (`shards` is rounded up to a power of two). Zero capacity
    /// means bypass.
    pub fn new(capacity_bytes: usize, shards: usize) -> Self {
        let shards = shards.clamp(1, 256).next_power_of_two();
        AnswerCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            shard_mask: shards - 1,
            per_shard_cap: capacity_bytes / shards,
            epoch: AtomicU64::new(0),
        }
    }

    /// A cache configured from the environment: `TABULA_CACHE_MB`
    /// megabytes (default 64), bypassed entirely when that is 0 or
    /// `TABULA_CACHE_BYPASS` is set to anything but `0`. Shard count
    /// scales with the parallel pool so client threads spread across
    /// locks.
    pub fn from_env() -> Self {
        let mb = std::env::var("TABULA_CACHE_MB")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(64);
        let bypass = std::env::var("TABULA_CACHE_BYPASS").map(|v| v != "0").unwrap_or(false);
        let capacity = if bypass { 0 } else { mb * (1 << 20) };
        AnswerCache::new(capacity, tabula_par::threads() * 2)
    }

    /// Whether the cache is a no-op.
    pub fn is_bypass(&self) -> bool {
        self.per_shard_cap == 0
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The current invalidation epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Advance the invalidation clock, returning the new epoch. Entries
    /// stamped with older epochs are treated as misses and reclaimed
    /// lazily; the caller stamps the cube generation it is installing
    /// with the returned value (inside the same critical section as the
    /// generation swap) so lookups and inserts stay tied to the
    /// generation they were computed from.
    pub fn advance_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::AcqRel) + 1
    }

    #[inline]
    fn shard_for(&self, key: &CompiledCell) -> usize {
        let mut h = FxHasher::default();
        key.hash(&mut h);
        // Shard on the high bits: the map inside the shard uses the low
        // bits, and reusing them would cluster each shard's keys into a
        // fraction of its buckets.
        (h.finish() >> 48) as usize & self.shard_mask
    }

    /// Look up `key` as seen from the generation installed under
    /// `epoch`, refreshing the entry's recency on a hit. Only an entry
    /// stamped with exactly `epoch` is a hit; an older entry is removed
    /// (lazy reclamation), a newer one — inserted by a reader of a
    /// fresher generation — is left in place for that generation's
    /// readers.
    pub fn get(&self, key: &CompiledCell, epoch: u64) -> CacheLookup {
        if self.is_bypass() {
            return CacheLookup::Bypass;
        }
        let mut shard = self.shards[self.shard_for(key)].lock().unwrap();
        let Some(&slot) = shard.map.get(key) else {
            return CacheLookup::Miss;
        };
        let entry_epoch = shard.slab[slot].as_ref().unwrap().epoch;
        if entry_epoch != epoch {
            if entry_epoch < epoch {
                shard.remove(slot);
            }
            return CacheLookup::Miss;
        }
        shard.unlink(slot);
        shard.push_front(slot);
        CacheLookup::Hit(shard.slab[slot].as_ref().unwrap().value.clone())
    }

    /// Insert `value` under `key`, stamped with the epoch of the
    /// generation the answer was computed from, evicting LRU entries
    /// while over capacity. Returns the number of capacity evictions
    /// performed (stale-epoch reclamations are not counted).
    ///
    /// The entry can only ever satisfy a [`get`](AnswerCache::get) that
    /// passes the same `epoch` — so an insert that races with a
    /// generation swap parks an entry no reader of the new generation
    /// can match, rather than poisoning the fresh epoch.
    pub fn insert(&self, key: CompiledCell, value: CachedAnswer, epoch: u64) -> usize {
        if self.is_bypass() {
            return 0;
        }
        if epoch < self.epoch() {
            // The caller's generation has already been superseded: the
            // entry could only serve in-flight stragglers of that
            // generation, so don't spend capacity on it. Best-effort —
            // a bump landing after this check is still harmless, since
            // the stamp below keeps the entry invisible to new readers.
            return 0;
        }
        let bytes = value.bytes();
        if bytes > self.per_shard_cap {
            // Larger than a whole shard: never cacheable.
            return 0;
        }
        let mut shard = self.shards[self.shard_for(&key)].lock().unwrap();
        if let Some(&slot) = shard.map.get(&key) {
            if shard.slab[slot].as_ref().unwrap().epoch > epoch {
                // A fresher generation already cached this key; keep it.
                return 0;
            }
            // Replace in place (same key raced in from another client, or
            // a stale-epoch leftover).
            shard.remove(slot);
        }
        let mut evictions = 0;
        while shard.bytes + bytes > self.per_shard_cap {
            let tail = shard.tail;
            debug_assert_ne!(tail, NIL, "entry fits per-shard cap, so eviction must terminate");
            let stale = shard.slab[tail].as_ref().unwrap().epoch != epoch;
            shard.remove(tail);
            if !stale {
                evictions += 1;
            }
        }
        let node = Node { key, value, epoch, bytes, prev: NIL, next: NIL };
        let slot = match shard.free.pop() {
            Some(s) => {
                shard.slab[s] = Some(node);
                s
            }
            None => {
                shard.slab.push(Some(node));
                shard.slab.len() - 1
            }
        };
        shard.map.insert(key, slot);
        shard.push_front(slot);
        shard.bytes += bytes;
        evictions
    }

    /// Total live entries across shards (diagnostics; takes every lock).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().map.len()).sum()
    }

    /// Whether no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total cached bytes across shards (diagnostics).
    pub fn bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabula_storage::schema::{Field, Schema};
    use tabula_storage::{ColumnType, TableBuilder};

    fn answer(rows: usize) -> CachedAnswer {
        let schema = Schema::new(vec![Field::new("x", ColumnType::Int64)]);
        let mut b = TableBuilder::new(schema);
        for i in 0..rows {
            b.push_row(&[(i as i64).into()]).unwrap();
        }
        CachedAnswer {
            rows: Arc::new((0..rows as RowId).collect()),
            provenance: SampleProvenance::Global,
            table: Arc::new(b.finish()),
        }
    }

    fn key(code: u32) -> CompiledCell {
        let mut c = CompiledCell::all(2);
        c.set(0, code);
        c
    }

    #[test]
    fn hit_after_insert_and_miss_after_epoch_bump() {
        let cache = AnswerCache::new(1 << 20, 4);
        let e0 = cache.epoch();
        assert!(matches!(cache.get(&key(1), e0), CacheLookup::Miss));
        cache.insert(key(1), answer(10), e0);
        match cache.get(&key(1), e0) {
            CacheLookup::Hit(a) => assert_eq!(a.rows.len(), 10),
            _ => panic!("expected hit"),
        }
        let e1 = cache.advance_epoch();
        assert_eq!(e1, e0 + 1);
        assert!(matches!(cache.get(&key(1), e1), CacheLookup::Miss));
        // Lazy reclamation removed the stale entry.
        assert!(cache.is_empty());
    }

    #[test]
    fn late_insert_stamped_with_old_epoch_never_serves_under_new_epoch() {
        // The refresh race: a query computed its answer against
        // generation e0, the swap + bump landed, and only then did the
        // insert run. The entry must stay invisible to e1 readers.
        let cache = AnswerCache::new(1 << 20, 1);
        let e0 = cache.epoch();
        let e1 = cache.advance_epoch();
        cache.insert(key(1), answer(10), e0);
        assert!(matches!(cache.get(&key(1), e1), CacheLookup::Miss));
        // (The best-effort freshness check refused the insert outright.)
        assert!(cache.is_empty());
    }

    #[test]
    fn old_generation_reader_misses_but_does_not_reclaim_fresh_entries() {
        // The mirror race: a straggler still holding generation e0 probes
        // a key a fresher reader already cached under e1. It must miss —
        // its answer would come from a different generation — without
        // destroying the entry the e1 readers rely on.
        let cache = AnswerCache::new(1 << 20, 1);
        let e0 = cache.epoch();
        let e1 = cache.advance_epoch();
        cache.insert(key(2), answer(10), e1);
        assert!(matches!(cache.get(&key(2), e0), CacheLookup::Miss));
        assert!(matches!(cache.get(&key(2), e1), CacheLookup::Hit(_)));
        // And a straggler's insert must not clobber the fresher entry.
        cache.insert(key(2), answer(3), e0);
        match cache.get(&key(2), e1) {
            CacheLookup::Hit(a) => assert_eq!(a.rows.len(), 10),
            _ => panic!("fresh entry must survive the stale insert"),
        }
    }

    #[test]
    fn lru_evicts_oldest_first() {
        // Single shard, capacity for ~3 small answers.
        let per = answer(10).bytes();
        let cache = AnswerCache::new(per * 3, 1);
        let e = cache.epoch();
        cache.insert(key(1), answer(10), e);
        cache.insert(key(2), answer(10), e);
        cache.insert(key(3), answer(10), e);
        // Touch key 1 so key 2 becomes LRU.
        assert!(matches!(cache.get(&key(1), e), CacheLookup::Hit(_)));
        let evicted = cache.insert(key(4), answer(10), e);
        assert_eq!(evicted, 1);
        assert!(matches!(cache.get(&key(2), e), CacheLookup::Miss));
        assert!(matches!(cache.get(&key(1), e), CacheLookup::Hit(_)));
        assert!(matches!(cache.get(&key(3), e), CacheLookup::Hit(_)));
        assert!(matches!(cache.get(&key(4), e), CacheLookup::Hit(_)));
        assert!(cache.bytes() <= per * 3);
    }

    #[test]
    fn zero_capacity_bypasses() {
        let cache = AnswerCache::new(0, 8);
        assert!(cache.is_bypass());
        assert!(matches!(cache.get(&key(1), 0), CacheLookup::Bypass));
        cache.insert(key(1), answer(10), 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn oversized_entry_is_refused_without_eviction() {
        let small = answer(2).bytes();
        let cache = AnswerCache::new(small, 1);
        let e = cache.epoch();
        cache.insert(key(1), answer(2), e);
        assert!(matches!(cache.get(&key(1), e), CacheLookup::Hit(_)));
        // A giant entry must not wipe the shard just to fail anyway.
        assert_eq!(cache.insert(key(2), answer(10_000), e), 0);
        assert!(matches!(cache.get(&key(1), e), CacheLookup::Hit(_)));
        assert!(matches!(cache.get(&key(2), e), CacheLookup::Miss));
    }

    #[test]
    fn concurrent_hammering_stays_consistent() {
        let cache = Arc::new(AnswerCache::new(1 << 18, 4));
        std::thread::scope(|s| {
            for t in 0..8u32 {
                let cache = Arc::clone(&cache);
                s.spawn(move || {
                    for i in 0..500u32 {
                        // Each iteration models a query pinned to the
                        // generation (epoch) it observed at its start.
                        let e = cache.epoch();
                        let k = key((t * 7 + i) % 32);
                        match cache.get(&k, e) {
                            CacheLookup::Hit(a) => assert_eq!(a.rows.len(), 5),
                            _ => {
                                cache.insert(k, answer(5), e);
                            }
                        }
                        if i % 100 == 99 && t == 0 {
                            cache.advance_epoch();
                        }
                    }
                });
            }
        });
        // All remaining entries must be coherent.
        let e = cache.epoch();
        for c in 0..32 {
            if let CacheLookup::Hit(a) = cache.get(&key(c), e) {
                assert_eq!(a.rows.len(), 5);
                assert_eq!(a.table.len(), 5);
            }
        }
    }
}
