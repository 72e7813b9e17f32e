//! Seeded workload inputs. Everything a queue receives is generated here
//! before timing starts; the same seed always gives the same inputs.

use pq_traits::Item;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use workloads::config::StopCondition;
use workloads::{BenchConfig, KeyDistribution, KeyGen, OpKind, OpStream, ThreadRole, Workload};

/// Items in every queue before a `split` pass or a one-thread uniform
/// stream (rank replay, ladder) starts.
pub const PREFILL: usize = 100_000;
/// Operations of each thread in one `split` pass. At most half the
/// prefill, so the queue holds at least `PREFILL / 2` items throughout
/// and a `None` from `delete_min` is always a false empty.
pub const SPLIT_OPS: usize = PREFILL / 2;
/// Vertices of the `sssp` graph.
pub const SSSP_VERTICES: usize = 100_000;
/// Random edges of the `sssp` graph on top of its path backbone.
pub const SSSP_EXTRA_EDGES: usize = 400_000;

/// Value tags: thread `t` numbers its inserts from `t << VALUE_SHIFT`,
/// the prefill from `PREFILL_TAG` (the layout `harness::quality` uses,
/// so its replay sees the same items as the timed pass).
const VALUE_SHIFT: u32 = 40;
const PREFILL_TAG: u64 = 0xFF << VALUE_SHIFT;

/// The seed of stream `k` of a run with seed `seed`; stream 0 uses `seed`
/// itself. Rounds draw fresh streams because a queue's speed on one stream
/// is partly a property of that stream: only many streams per run give a
/// figure that does not depend on the seed a run was given.
pub fn stream_seed(seed: u64, k: usize) -> u64 {
    if k == 0 {
        return seed;
    }
    let mut z = seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

/// One closed-loop client step.
#[cfg_attr(not(feature = "traced"), allow(dead_code))]
#[derive(Clone, Copy, Debug)]
pub enum Op {
    Insert(Item),
    DeleteMin,
}

/// The paper's configuration for the key streams: uniform 32-bit keys
/// and a 10⁵ prefill.
pub fn config(workload: Workload, threads: usize, seed: u64, ops: usize) -> BenchConfig {
    BenchConfig {
        threads,
        workload,
        key_dist: KeyDistribution::uniform(32),
        prefill: PREFILL,
        stop: StopCondition::OpsPerThread(ops as u64),
        reps: 1,
        seed,
    }
}

/// The prefill and one thread's `ops`-long uniform 50/50
/// insert/delete mix, drawn exactly as `harness::quality` draws thread
/// 0's stream.
#[cfg_attr(not(feature = "traced"), allow(dead_code))]
pub fn uniform(seed: u64, ops: usize) -> (Vec<Item>, Vec<Op>) {
    let cfg = config(Workload::Uniform, 1, seed, ops);
    let mut roles = OpStream::new(ThreadRole::for_thread(Workload::Uniform, 0, 1), seed, 0);
    let mut keys = KeyGen::new(cfg.key_dist, seed, 0);
    let mut next_value = 0u64;
    let ops = (0..ops)
        .map(|_| match roles.next_op() {
            OpKind::Insert => {
                next_value += 1;
                Op::Insert(Item::new(keys.next_key(), next_value - 1))
            }
            _ => Op::DeleteMin,
        })
        .collect();
    (cfg.prefill_items(PREFILL_TAG), ops)
}

/// `split`: the prefill and the inserting thread's items.
pub fn split(seed: u64) -> (Vec<Item>, Vec<Item>) {
    let cfg = config(Workload::Split, 2, seed, SPLIT_OPS);
    let mut keys = KeyGen::new(cfg.key_dist, seed, 0);
    let inserts = (0..SPLIT_OPS as u64)
        .map(|v| Item::new(keys.next_key(), v))
        .collect();
    (cfg.prefill_items(PREFILL_TAG), inserts)
}

/// Order-independent multiset digest of items: count and wrapping sum
/// of a 64-bit mix of each `(key, value)`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Digest {
    pub count: u64,
    pub sum: u64,
}

impl Digest {
    #[inline]
    pub fn add(&mut self, it: Item) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(mix(it));
    }

    pub fn of(items: &[Item]) -> Self {
        let mut d = Self::default();
        items.iter().for_each(|&it| d.add(it));
        d
    }

    pub fn merge(self, other: Self) -> Self {
        Self {
            count: self.count + other.count,
            sum: self.sum.wrapping_add(other.sum),
        }
    }
}

/// splitmix64 finalizer over key and value.
#[inline]
fn mix(it: Item) -> u64 {
    let mut z = it.key ^ it.value.rotate_left(32) ^ 0x9E37_79B9_7F4A_7C15;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A directed graph in compressed sparse row form.
pub struct Graph {
    offsets: Vec<u32>,
    /// `(target, weight)`, grouped by source.
    edges: Vec<(u32, u32)>,
}

impl Graph {
    /// A path backbone `0 → 1 → … → n−1`, so every vertex is reachable
    /// from 0, plus `extra` random edges; weights are uniform in 1..100.
    pub fn random(n: usize, extra: usize, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x55_5350);
        let mut list: Vec<(u32, u32, u32)> = Vec::with_capacity(n - 1 + extra);
        for u in 0..n - 1 {
            list.push((u as u32, u as u32 + 1, rng.gen_range(1..100)));
        }
        for _ in 0..extra {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v {
                list.push((u as u32, v as u32, rng.gen_range(1..100)));
            }
        }
        let mut offsets = vec![0u32; n + 1];
        for &(u, _, _) in &list {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut fill = offsets.clone();
        let mut edges = vec![(0, 0); list.len()];
        for (u, v, w) in list {
            edges[fill[u as usize] as usize] = (v, w);
            fill[u as usize] += 1;
        }
        Self { offsets, edges }
    }

    pub fn vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    #[inline]
    pub fn neighbors(&self, u: usize) -> &[(u32, u32)] {
        &self.edges[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }

    /// Sequential Dijkstra from vertex 0: the reference distances.
    pub fn dijkstra(&self) -> Vec<u64> {
        use std::cmp::Reverse;
        let mut dist = vec![u64::MAX; self.vertices()];
        let mut heap = std::collections::BinaryHeap::new();
        dist[0] = 0;
        heap.push(Reverse((0u64, 0u32)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            for &(v, w) in self.neighbors(u as usize) {
                let nd = d + w as u64;
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    heap.push(Reverse((nd, v)));
                }
            }
        }
        dist
    }
}
