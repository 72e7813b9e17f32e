//! Micro-costs of the sequential substrates: the binary heap (C++
//! `std::priority_queue` analog), the pairing heap alternative, the
//! sequential LSM, and the order-statistic treap used for rank replay.

mod common;

use criterion::{BatchSize, Criterion};
use lsm::Lsm;
use pq_traits::{Item, SequentialPq};
use seqpq::{BinaryHeap, OsTreap, PairingHeap};

const N: u64 = 10_000;

fn keys() -> Vec<u64> {
    // Deterministic pseudo-random keys.
    (0..N).map(|i| i.wrapping_mul(2654435761) % 1_000_000).collect()
}

fn bench_insert_drain<P: SequentialPq + Default>(c: &mut Criterion, name: &str) {
    let ks = keys();
    c.bench_function(format!("seq/{name}/insert_drain_10k"), |b| {
        b.iter_batched(
            P::default,
            |mut pq| {
                for (i, &k) in ks.iter().enumerate() {
                    pq.insert(k, i as u64);
                }
                while pq.delete_min().is_some() {}
                pq
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_hold<P: SequentialPq + Default>(c: &mut Criterion, name: &str) {
    let ks = keys();
    c.bench_function(format!("seq/{name}/hold_10k"), |b| {
        b.iter_batched(
            || {
                let mut pq = P::default();
                for (i, &k) in ks.iter().enumerate() {
                    pq.insert(k, i as u64);
                }
                pq
            },
            |mut pq| {
                // Hold pattern: delete one, insert a key near it.
                for i in 0..N {
                    let it = pq.delete_min().expect("prefilled");
                    pq.insert(it.key + 1 + (i % 251), N + i);
                }
                pq
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_treap_rank_replay(c: &mut Criterion) {
    let ks = keys();
    c.bench_function("seq/ostreap/rank_replay_10k", |b| {
        b.iter_batched(
            || {
                let mut t = OsTreap::new();
                for (i, &k) in ks.iter().enumerate() {
                    t.insert_item(Item::new(k, i as u64));
                }
                t
            },
            |mut t| {
                let mut acc = 0u64;
                for (i, &k) in ks.iter().enumerate() {
                    acc += t.remove_item(&Item::new(k, i as u64)).expect("present");
                }
                acc
            },
            BatchSize::SmallInput,
        )
    });
}

fn main() {
    let mut c = common::criterion_config();
    bench_insert_drain::<BinaryHeap>(&mut c, "binary_heap");
    bench_insert_drain::<PairingHeap>(&mut c, "pairing_heap");
    bench_insert_drain::<Lsm>(&mut c, "lsm");
    bench_insert_drain::<OsTreap>(&mut c, "ostreap");
    bench_hold::<BinaryHeap>(&mut c, "binary_heap");
    bench_hold::<PairingHeap>(&mut c, "pairing_heap");
    bench_hold::<Lsm>(&mut c, "lsm");
    bench_treap_rank_replay(&mut c);
    c.final_summary();
}
