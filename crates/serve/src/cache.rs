//! The per-epoch answer cache: identical queries asked again within one
//! snapshot epoch are answered without touching the evaluation kernel.
//!
//! The cache is the cross-micro-batch extension of the worker pool's
//! single-flight coalescing: coalescing deduplicates identical requests
//! *within* one micro-batch, the cache deduplicates them *across*
//! micro-batches (and workers) for as long as the answer stays valid —
//! i.e. until the writer publishes a new snapshot epoch.
//!
//! Keyed by `(query, epoch)`: an entry written at epoch `e` is served
//! only to readers pinned to epoch `e`, which makes every cached answer
//! exactly as consistent as an evaluated one. Invalidation is **lazy and
//! wholesale**: shards tag their contents with the epoch that filled
//! them, and the first probe from a newer epoch clears the shard —
//! publication itself does no cache work, readers still on the previous
//! epoch simply stop matching, and a reader racing a publication can
//! never smuggle a stale answer into the new epoch's cache.
//!
//! Lock-light by sharding: a cheap mix of the two node ids picks one of
//! [`SHARDS`] small mutexes, so concurrent workers rarely contend, and
//! every critical section is a single hash-map probe or insert — the
//! shard's map is the only thing that runs its hasher over the key.
//!
//! An entry keeps what a later reader is owed — the cost and the winning
//! chain, which is the planner's own `Arc` — and nothing of how it was
//! evaluated: a hit did no site work, so it answers with default
//! [`QueryStats`].

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use ds_closure::{QueryAnswer, QueryStats};
use ds_fragment::FragmentId;
use ds_graph::{Cost, NodeId};

/// Shard count (power of two). 32 shards keep contention negligible for
/// any plausible worker pool while costing ~one cache line of mutexes.
const SHARDS: usize = 32;
const SHARD_BITS: u32 = SHARDS.trailing_zeros();

/// The shard a key lives in: multiply-xor-shift over the packed pair,
/// top [`SHARD_BITS`] bits. Only balance is asked of it — the shard's
/// own map (default hasher) is what stands between crafted keys and a
/// collision chain.
fn shard_of(key: (NodeId, NodeId)) -> usize {
    let packed = (u64::from(key.0 .0) << 32) | u64::from(key.1 .0);
    let mut h = packed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 32;
    h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (h >> (u64::BITS - SHARD_BITS)) as usize
}

/// A cached answer: its cost and best chain.
type Entry = (Option<Cost>, Option<Arc<[FragmentId]>>);

struct Shard {
    /// The epoch whose answers this shard currently holds.
    epoch: u64,
    map: HashMap<(NodeId, NodeId), Entry>,
}

/// A sharded `(query, epoch) -> answer` map, dropped wholesale (lazily,
/// per shard) whenever the epoch advances.
///
/// Bounded: each shard admits at most `per_shard` entries per epoch, so
/// a read-only deployment (whose epoch never advances and therefore
/// never clears a shard) cannot grow memory without bound under a
/// distinct-pair sweep — once a shard is full, further inserts are
/// dropped until the next epoch. First-in wins, which favours exactly
/// the hot head of the traffic distribution the cache exists for.
pub(crate) struct AnswerCache {
    shards: Vec<Mutex<Shard>>,
    per_shard: usize,
}

impl AnswerCache {
    /// `max_entries` bounds the whole cache (rounded up to a multiple of
    /// the shard count).
    pub fn new(max_entries: usize) -> Self {
        AnswerCache {
            shards: (0..SHARDS)
                .map(|_| {
                    Mutex::new(Shard {
                        epoch: 0,
                        map: HashMap::new(),
                    })
                })
                .collect(),
            per_shard: max_entries.div_ceil(SHARDS).max(1),
        }
    }

    fn shard(&self, key: (NodeId, NodeId)) -> &Mutex<Shard> {
        &self.shards[shard_of(key)]
    }

    /// The answer cached for `key` at `epoch`, if any, with the default
    /// stats of work not done. A shard left over from an older epoch is
    /// cleared on first contact with a newer one.
    pub fn get(&self, epoch: u64, key: (NodeId, NodeId)) -> Option<QueryAnswer> {
        let mut shard = ds_fault::lock_unpoisoned(self.shard(key));
        if shard.epoch != epoch {
            if shard.epoch < epoch {
                shard.map.clear();
                shard.epoch = epoch;
            }
            // A reader still pinned to an older epoch than the shard's
            // contents must not see the newer answers.
            return None;
        }
        let (cost, best_chain) = shard.map.get(&key)?;
        Some(QueryAnswer {
            cost: *cost,
            best_chain: best_chain.clone(),
            stats: QueryStats::default(),
        })
    }

    /// Record an answer evaluated at `epoch`, copying its cost and
    /// sharing its chain only if admitted. Ignored if the shard has
    /// already moved past that epoch (a reader racing a publication) or
    /// is at its per-epoch capacity (the cache is bounded; overwriting
    /// an existing key is always admitted).
    pub fn insert(&self, epoch: u64, key: (NodeId, NodeId), answer: &QueryAnswer) {
        let mut shard = ds_fault::lock_unpoisoned(self.shard(key));
        if shard.epoch < epoch {
            shard.map.clear();
            shard.epoch = epoch;
        }
        if shard.epoch == epoch
            && (shard.map.len() < self.per_shard || shard.map.contains_key(&key))
        {
            shard
                .map
                .insert(key, (answer.cost, answer.best_chain.clone()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn answer(cost: u64) -> QueryAnswer {
        QueryAnswer {
            cost: Some(cost),
            best_chain: None,
            stats: QueryStats::default(),
        }
    }

    /// A hit gives back what the evaluation found — the cost and the very
    /// chain, shared — and none of the work it did.
    #[test]
    fn a_hit_returns_the_evaluated_cost_and_chain_with_default_stats() {
        let cache = AnswerCache::new(1024);
        let chain: Arc<[FragmentId]> = Arc::from([2, 0, 1]);
        let evaluated = QueryAnswer {
            cost: Some(11),
            best_chain: Some(Arc::clone(&chain)),
            stats: QueryStats {
                chains_evaluated: 3,
                site_queries: 4,
                tuples_shipped: 5,
                enumerated: true,
                ..QueryStats::default()
            },
        };
        cache.insert(0, (n(1), n(2)), &evaluated);
        let hit = cache.get(0, (n(1), n(2))).unwrap();
        assert_eq!(hit.cost, Some(11));
        assert!(Arc::ptr_eq(hit.best_chain.as_ref().unwrap(), &chain));
        let QueryStats {
            chains_evaluated,
            site_queries,
            tuples_shipped,
            max_site_busy,
            total_site_busy,
            enumerated,
        } = hit.stats;
        assert_eq!((chains_evaluated, site_queries, tuples_shipped), (0, 0, 0));
        assert!(max_site_busy.is_zero() && total_site_busy.is_zero() && !enumerated);
        // An unreachable answer is cached as one.
        cache.insert(0, (n(2), n(1)), &QueryAnswer::unreachable());
        let miss = cache.get(0, (n(2), n(1))).unwrap();
        assert_eq!((miss.cost, miss.best_chain), (None, None));
    }

    #[test]
    fn hit_within_an_epoch_miss_across() {
        let cache = AnswerCache::new(1024);
        assert!(cache.get(0, (n(1), n(2))).is_none(), "cold");
        cache.insert(0, (n(1), n(2)), &answer(7));
        assert_eq!(cache.get(0, (n(1), n(2))).unwrap().cost, Some(7));
        // Epoch moved: the old answer is gone, not served.
        assert!(cache.get(1, (n(1), n(2))).is_none());
        // And the shard has been repurposed for the new epoch.
        cache.insert(1, (n(1), n(2)), &answer(5));
        assert_eq!(cache.get(1, (n(1), n(2))).unwrap().cost, Some(5));
    }

    /// The cache is bounded within one epoch: with capacity for one
    /// entry per shard, a distinct-pair sweep stops being admitted once
    /// the shards fill, while already-cached keys keep hitting (and can
    /// be overwritten).
    #[test]
    fn full_shards_stop_admitting_within_an_epoch() {
        let cache = AnswerCache::new(SHARDS); // one entry per shard
        for i in 0..200u32 {
            cache.insert(0, (n(i), n(i + 1)), &answer(i as u64));
        }
        let cached = (0..200u32)
            .filter(|&i| cache.get(0, (n(i), n(i + 1))).is_some())
            .count();
        assert!(cached <= SHARDS, "bounded: {cached} entries > {SHARDS}");
        assert!(cached >= 1, "the first inserts were admitted");
        // Overwriting an admitted key is always allowed.
        let hit = (0..200u32)
            .find(|&i| cache.get(0, (n(i), n(i + 1))).is_some())
            .unwrap();
        cache.insert(0, (n(hit), n(hit + 1)), &answer(999));
        assert_eq!(cache.get(0, (n(hit), n(hit + 1))).unwrap().cost, Some(999));
        // A new epoch clears the shards and admits fresh entries again.
        cache.insert(1, (n(500), n(501)), &answer(1));
        assert_eq!(cache.get(1, (n(500), n(501))).unwrap().cost, Some(1));
    }

    /// The shard pick is a cheap mix, not a hash, so hold it to what it
    /// is for: a route table shaped like the benchmark's hot workload
    /// (2,048 of the 100 x 100 routes from the first cluster of a
    /// 1,200-node graph to the last) spreads within 2x of uniform.
    #[test]
    fn hot_route_table_spreads_evenly_across_shards() {
        let mut all: Vec<(u32, u32)> = (0..100u32)
            .flat_map(|a| (0..100u32).map(move |b| (a, 1100 + b)))
            .collect();
        let mut state = 0x5EED_u64;
        let mut counts = [0usize; SHARDS];
        for i in 0..2048 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = i + (state >> 33) as usize % (all.len() - i);
            all.swap(i, j);
            let (a, b) = all[i];
            counts[shard_of((n(a), n(b)))] += 1;
        }
        let uniform = 2048 / SHARDS;
        for (shard, &count) in counts.iter().enumerate() {
            assert!(
                count >= uniform / 2 && count <= uniform * 2,
                "shard {shard} holds {count} of 2048 routes (uniform = {uniform}): {counts:?}"
            );
        }
    }

    #[test]
    fn stale_reader_cannot_poison_a_newer_epoch() {
        let cache = AnswerCache::new(1024);
        cache.insert(3, (n(1), n(2)), &answer(9)); // shard now at epoch 3
        cache.insert(2, (n(1), n(2)), &answer(1)); // stale insert: dropped
        assert_eq!(cache.get(3, (n(1), n(2))).unwrap().cost, Some(9));
        // A stale reader gets a miss, never the newer answer.
        assert!(cache.get(2, (n(1), n(2))).is_none());
        assert_eq!(
            cache.get(3, (n(1), n(2))).unwrap().cost,
            Some(9),
            "the stale probe did not clear the newer shard"
        );
    }
}
