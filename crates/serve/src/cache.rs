//! The sharded LRU answer cache: materialized sample tables keyed by
//! sample id.
//!
//! Many cells share one answer (paper Fig. 4: the cube table maps cells to
//! sample ids in front of a sample table), so the cache is keyed by what
//! the answer *is* — the id the cube-table probe returned — not by the
//! cell that asked. Repeat zoom/pan queries are the common case on a
//! dashboard, and for those the expensive step is not the probe but the
//! `Table::take` materialization: the cache stores the finished [`Table`]
//! behind an `Arc`, so a hit is one clone of a pointer and every cell
//! served by a sample ships the same table. Only Local samples live here;
//! the global sample's table and the empty answer are fields of the
//! server's generation and touch no shard.
//!
//! **Sharding.** A power-of-two number of shards, each behind its own
//! `Mutex`; a key's shard is picked from its Fx hash, so concurrent
//! clients rarely contend on the same lock. Per-shard state is a slab of
//! intrusively doubly-linked nodes (`usize` indices, no `Rc` juggling)
//! plus an `FxHashMap<sample id, slot>`; LRU eviction pops the list tail.
//! A shard is only a cache: one found poisoned (a holder panicked, maybe
//! mid-relink) is emptied, un-poisoned and carried on with as a miss.
//!
//! **Capacity** is byte-based: `TABULA_CACHE_MB` megabytes (default 64)
//! split evenly across shards, each entry charged its materialized
//! table's heap bytes plus a flat per-entry overhead (the row-id list is
//! the cube's, not the cache's). `TABULA_CACHE_MB=0` (or
//! `TABULA_CACHE_BYPASS=1`) disables caching entirely.
//!
//! **Invalidation** is epoch-based, and the epoch an entry is valid
//! under is supplied by the *caller*, not read from the cache's clock:
//! every cube generation carries the epoch it was installed under (the
//! server bumps the cache clock and stamps the generation inside the
//! same write-lock critical section), and both [`AnswerCache::get`] and
//! [`AnswerCache::insert`] take that generation epoch explicitly. A table
//! materialized from generation N can therefore only ever be inserted and
//! matched under N's epoch — a query that races with a refresh (reads
//! generation N, inserts after the swap) stamps its entry N, which no
//! generation-N+1 reader can match, so a refresh can never leak a stale
//! cached answer (sample ids are per generation: id 7 of N+1 is another
//! sample). Invalidation itself is O(1) and takes no locks; mismatched
//! entries are reclaimed lazily when an equal-or-newer reader trips over
//! them.

use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use tabula_storage::fx::FxHasher;
use tabula_storage::{FxHashMap, Table};

/// Bytes charged per entry on top of its table: key, node and map slot.
const ENTRY_OVERHEAD: usize = 256;

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Node {
    key: u32,
    table: Arc<Table>,
    epoch: u64,
    bytes: usize,
    prev: usize,
    next: usize,
}

/// One shard: slab + intrusive LRU list + key map, all under one mutex.
#[derive(Debug)]
struct Shard {
    map: FxHashMap<u32, usize>,
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

    /// Remove `slot` entirely.
    fn remove(&mut self, slot: usize) {
        self.unlink(slot);
        let node = self.slab[slot].take().unwrap();
        self.map.remove(&node.key);
        self.free.push(slot);
        self.bytes -= node.bytes;
    }
}

/// Sharded, epoch-invalidated LRU cache of materialized sample tables.
#[derive(Debug)]
pub struct AnswerCache {
    shards: Vec<Mutex<Shard>>,
    shard_mask: usize,
    per_shard_cap: usize,
    epoch: AtomicU64,
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

    /// Lock shard `i`. A poisoned shard is emptied before use: its holder
    /// may have panicked between two link updates, and nothing in a cache
    /// is worth serving from a half-linked list.
    fn lock(&self, i: usize) -> MutexGuard<'_, Shard> {
        self.shards[i].lock().unwrap_or_else(|poisoned| {
            let mut shard = poisoned.into_inner();
            *shard = Shard::new();
            self.shards[i].clear_poison();
            shard
        })
    }

    /// Lock the shard `sample` lives in.
    #[inline]
    fn shard_of(&self, sample: u32) -> MutexGuard<'_, Shard> {
        let mut h = FxHasher::default();
        h.write_u32(sample);
        // Shard on the high bits: the map inside the shard uses the low
        // bits, and reusing them would cluster each shard's keys into a
        // fraction of its buckets.
        self.lock((h.finish() >> 48) as usize & self.shard_mask)
    }

    /// Look up `sample`'s table as seen from the generation installed
    /// under `epoch`, refreshing the entry's recency on a hit. Only an
    /// entry stamped with exactly `epoch` is a hit; an older entry is
    /// removed (lazy reclamation), a newer one — inserted by a reader of
    /// a fresher generation — is left in place for that generation's
    /// readers. A bypassed cache always misses.
    pub fn get(&self, sample: u32, epoch: u64) -> Option<Arc<Table>> {
        if self.is_bypass() {
            return None;
        }
        let mut shard = self.shard_of(sample);
        let slot = *shard.map.get(&sample)?;
        let entry_epoch = shard.slab[slot].as_ref().unwrap().epoch;
        if entry_epoch != epoch {
            if entry_epoch < epoch {
                shard.remove(slot);
            }
            return None;
        }
        shard.unlink(slot);
        shard.push_front(slot);
        Some(Arc::clone(&shard.slab[slot].as_ref().unwrap().table))
    }

    /// Insert `sample`'s materialized `table`, stamped with the epoch of
    /// the generation it was taken from, evicting LRU entries while over
    /// capacity. Returns the number of capacity evictions performed
    /// (stale-epoch reclamations are not counted).
    ///
    /// The entry can only ever satisfy a [`get`](AnswerCache::get) that
    /// passes the same `epoch` — so an insert that races with a
    /// generation swap parks an entry no reader of the new generation
    /// can match, rather than poisoning the fresh epoch.
    pub fn insert(&self, sample: u32, table: Arc<Table>, epoch: u64) -> usize {
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
        let bytes = table.heap_bytes() + ENTRY_OVERHEAD;
        if bytes > self.per_shard_cap {
            // Larger than a whole shard: never cacheable.
            return 0;
        }
        let mut shard = self.shard_of(sample);
        if let Some(&slot) = shard.map.get(&sample) {
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
        let node = Node { key: sample, table, epoch, bytes, prev: NIL, next: NIL };
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
        shard.map.insert(sample, slot);
        shard.push_front(slot);
        shard.bytes += bytes;
        evictions
    }

    /// Total live entries across shards (diagnostics; takes every lock).
    pub fn len(&self) -> usize {
        (0..self.shards.len()).map(|i| self.lock(i).map.len()).sum()
    }

    /// Whether no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes the LRU holds across shards: every live entry's table
    /// plus the flat per-entry overhead (diagnostics; takes every lock).
    pub fn bytes(&self) -> usize {
        (0..self.shards.len()).map(|i| self.lock(i).bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabula_storage::schema::{Field, Schema};
    use tabula_storage::{ColumnType, TableBuilder};

    fn table(rows: usize) -> Arc<Table> {
        let schema = Schema::new(vec![Field::new("x", ColumnType::Int64)]);
        let mut b = TableBuilder::new(schema);
        for i in 0..rows {
            b.push_row(&[(i as i64).into()]).unwrap();
        }
        Arc::new(b.finish())
    }

    fn entry_bytes(rows: usize) -> usize {
        table(rows).heap_bytes() + ENTRY_OVERHEAD
    }

    #[test]
    fn hit_after_insert_and_miss_after_epoch_bump() {
        let cache = AnswerCache::new(1 << 20, 4);
        let e0 = cache.epoch();
        assert!(cache.get(1, e0).is_none());
        let inserted = table(10);
        cache.insert(1, Arc::clone(&inserted), e0);
        assert!(Arc::ptr_eq(&cache.get(1, e0).expect("hit"), &inserted));
        // The LRU is charged the table and the flat overhead, nothing else.
        assert_eq!((cache.len(), cache.bytes()), (1, entry_bytes(10)));
        let e1 = cache.advance_epoch();
        assert_eq!(e1, e0 + 1);
        assert!(cache.get(1, e1).is_none());
        // Lazy reclamation removed the stale entry.
        assert!(cache.is_empty());
        assert_eq!(cache.bytes(), 0);
    }

    #[test]
    fn late_insert_stamped_with_old_epoch_never_serves_under_new_epoch() {
        // The refresh race: a query materialized its sample from
        // generation e0, the swap + bump landed, and only then did the
        // insert run. The entry must stay invisible to e1 readers.
        let cache = AnswerCache::new(1 << 20, 1);
        let e0 = cache.epoch();
        let e1 = cache.advance_epoch();
        cache.insert(1, table(10), e0);
        assert!(cache.get(1, e1).is_none());
        // (The best-effort freshness check refused the insert outright.)
        assert!(cache.is_empty());
    }

    #[test]
    fn old_generation_reader_misses_but_does_not_reclaim_fresh_entries() {
        // The mirror race: a straggler still holding generation e0 probes
        // a sample id a fresher reader already cached under e1. It must
        // miss — its id names a sample of a different generation — without
        // destroying the entry the e1 readers rely on.
        let cache = AnswerCache::new(1 << 20, 1);
        let e0 = cache.epoch();
        let e1 = cache.advance_epoch();
        cache.insert(2, table(10), e1);
        assert!(cache.get(2, e0).is_none());
        assert!(cache.get(2, e1).is_some());
        // And a straggler's insert must not clobber the fresher entry.
        cache.insert(2, table(3), e0);
        assert_eq!(cache.get(2, e1).expect("fresh entry survives the stale insert").len(), 10);
    }

    #[test]
    fn lru_evicts_oldest_first() {
        // Single shard, capacity for 3 small tables.
        let per = entry_bytes(10);
        let cache = AnswerCache::new(per * 3, 1);
        let e = cache.epoch();
        cache.insert(1, table(10), e);
        cache.insert(2, table(10), e);
        cache.insert(3, table(10), e);
        // Touch key 1 so key 2 becomes LRU.
        assert!(cache.get(1, e).is_some());
        let evicted = cache.insert(4, table(10), e);
        assert_eq!(evicted, 1);
        assert!(cache.get(2, e).is_none());
        assert!(cache.get(1, e).is_some());
        assert!(cache.get(3, e).is_some());
        assert!(cache.get(4, e).is_some());
        assert_eq!(cache.bytes(), per * 3);
    }

    #[test]
    fn zero_capacity_bypasses() {
        let cache = AnswerCache::new(0, 8);
        assert!(cache.is_bypass());
        assert!(cache.get(1, 0).is_none());
        cache.insert(1, table(10), 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn oversized_entry_is_refused_without_eviction() {
        let cache = AnswerCache::new(entry_bytes(2), 1);
        let e = cache.epoch();
        cache.insert(1, table(2), e);
        assert!(cache.get(1, e).is_some());
        // A giant entry must not wipe the shard just to fail anyway.
        assert_eq!(cache.insert(2, table(10_000), e), 0);
        assert!(cache.get(1, e).is_some());
        assert!(cache.get(2, e).is_none());
    }

    #[test]
    fn a_poisoned_shard_is_emptied_and_keeps_caching() {
        let cache = AnswerCache::new(1 << 20, 2);
        let e = cache.epoch();
        for id in 0..64 {
            cache.insert(id, table(4), e);
        }
        // A holder of shard 0 dies between two link updates: the list head
        // names a slot that does not exist.
        let died = std::thread::scope(|s| {
            s.spawn(|| {
                let mut shard = cache.shards[0].lock().unwrap();
                shard.head = usize::MAX - 1;
                panic!("holder dies mid-relink");
            })
            .join()
        });
        assert!(died.is_err() && cache.shards[0].is_poisoned());
        let survivors = cache.shards[1].lock().unwrap().map.len();
        assert!(survivors > 0 && survivors < 64, "both shards must hold keys: {survivors}");
        // Diagnostics and the query path carry on: shard 0's keys miss
        // (its contents are gone, never a half-linked list served), shard
        // 1's still hit, and shard 0 caches again.
        assert_eq!(cache.len(), survivors);
        assert!(!cache.shards[0].is_poisoned());
        assert_eq!(cache.bytes(), survivors * entry_bytes(4));
        let missed: Vec<u32> = (0..64).filter(|&id| cache.get(id, e).is_none()).collect();
        assert_eq!(missed.len(), 64 - survivors);
        for &id in &missed {
            cache.insert(id, table(5), e);
            assert_eq!(cache.get(id, e).expect("the emptied shard caches again").len(), 5);
        }
        assert_eq!(cache.len(), 64);
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
                        let k = (t * 7 + i) % 32;
                        match cache.get(k, e) {
                            Some(table) => assert_eq!(table.len(), 5),
                            None => {
                                cache.insert(k, table(5), e);
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
        for k in 0..32 {
            if let Some(table) = cache.get(k, e) {
                assert_eq!(table.len(), 5);
            }
        }
    }
}
