//! Branch-free LSM kernels: a bidirectional two-chain merge, a k-way
//! loser tree, and a branchless head argmin.
//!
//! The block pool made the LSM merge path allocation-free; what remains
//! in the hot loops is element-at-a-time compare work. Each kernel here
//! replaced a simpler scalar loop because it *measured* faster in the
//! interleaved whole-queue A/B:
//!
//! * **Bidirectional two-chain merge** ([`merge_bidirectional_append`]):
//!   the pairwise merge from [`MERGE_PATH_MIN`] combined items up
//!   ([`crate::Block::merge_into`]). Two independent merge chains — one
//!   from the fronts, one from the backs — run interleaved inside a
//!   joint safe window, doubling the instruction-level parallelism of
//!   the latency-chain-bound scalar cursor merge
//!   ([`scalar_merge_append`], still used below the cutoff). 1.2–1.9×
//!   on every measured shape from 4+4 up.
//! * **k-way loser tree** ([`k_way_merge_into`]): drains `k` sorted
//!   runs in one `O(total · log k)` pass — one comparison per tree
//!   level per emitted item — replacing the `O(total · k)`
//!   repeated-pairwise head scan in `take_all_sorted`. Tree state lives
//!   in a pooled scratch buffer plus fixed stack arrays.
//! * **Branchless head argmin** ([`argmin`]): conditional-move scan of
//!   the dense block-minima mirror, used by `delete_min`.
//!
//! Sorting networks, a merge network, a chunked bitonic merge and
//! AVX2/AVX-512 vector kernels all measured slower than these
//! (EXPERIMENTS.md "Branch-free kernel ablation", "SIMD kernel
//! ablation").
//!
//! All kernels are allocation-free under the [`crate::BlockPool`]: the
//! loser tree's head mirror is drawn from the pool and outputs are
//! written into pool-drawn buffers. Kernel use is observable through
//! the `lsm_kernel_bidi_hits` / `lsm_kernel_losertree_passes` telemetry
//! counters, and every kernel `debug_assert!`s the sortedness of its
//! output in debug builds.
//!
//! The cutoff constants below are the single source of truth; call sites
//! must reference them instead of repeating the numbers.

use pq_traits::{telemetry, Item};

/// Smallest combined size routed to the bidirectional merge
/// ([`merge_bidirectional_append`]). The two-chain kernel wins on every
/// measured shape from 4+4 up (1.2–1.9× over the scalar cursor merge,
/// see EXPERIMENTS.md "Branch-free kernel ablation"); below this the
/// per-call window bookkeeping doesn't amortize and the scalar cursor
/// kernel is used.
pub const MERGE_PATH_MIN: usize = 8;

/// Maximum fan-in of the loser tree: an LSM holds at most
/// `⌈log₂ n⌉ + 1 = 65` blocks on a 64-bit machine.
const MAX_FANOUT: usize = usize::BITS as usize + 1;

/// Loser-tree node capacity: [`MAX_FANOUT`] rounded up to a power of two.
const TREE_CAP: usize = MAX_FANOUT.next_power_of_two();

/// Padding value for exhausted and padded loser-tree runs. A *real*
/// item may compare equal to the sentinel; the loser tree remains
/// correct in that case because equal items are bit-identical `Copy`
/// data — emitting the sentinel copy instead of the real item yields
/// the same output bytes.
const SENTINEL: Item = Item::new(u64::MAX, u64::MAX);

/// An [`Item`] packed as `(key << 64) | value`, so the `(key, value)`
/// lexicographic order becomes a single `u128` compare that lowers to
/// integer-register conditional moves instead of a two-field struct
/// compare the backend may lower to branches. Packing costs one
/// shift+or per loaded item, unpacking one shift per emitted item —
/// both off the critical compare path.
type Lane = u128;

#[inline(always)]
fn pack(it: Item) -> Lane {
    ((it.key as Lane) << 64) | it.value as Lane
}

#[inline(always)]
fn unpack(lane: Lane) -> Item {
    Item::new((lane >> 64) as u64, lane as u64)
}

/// Sort a batch of items in place, without allocating. `Item`'s total
/// order over `(key, value)` makes stability moot — equal items are
/// bit-identical. Plain `sort_unstable`: Batcher sorting networks
/// measured 0.78–0.93× of it on batches up to 32 items (EXPERIMENTS.md
/// "Branch-free kernel ablation").
pub fn sort_items(items: &mut [Item]) {
    items.sort_unstable();
}

/// Scalar branchless cursor merge of two sorted runs, appended to `out`
/// (the PR 4 kernel, generalized to append). Exactly one cursor advances
/// per iteration, by `take_a as usize`, compiling to conditional moves.
/// Used below [`MERGE_PATH_MIN`] combined items, and the reference the
/// bidirectional kernel is tested against.
pub fn scalar_merge_append(sa: &[Item], sb: &[Item], out: &mut Vec<Item>) {
    let total = sa.len() + sb.len();
    let base = out.len();
    out.reserve(total);
    // SAFETY: `out` holds capacity for `base + total` items; each loop
    // iteration writes one item and advances exactly one source cursor,
    // so `po` is bumped exactly `total` times across the loop and the
    // two tail copies. Sources and destination are distinct buffers,
    // and `Item` is `Copy`.
    unsafe {
        let mut pa = sa.as_ptr();
        let ea = pa.add(sa.len());
        let mut pb = sb.as_ptr();
        let eb = pb.add(sb.len());
        let mut po = out.as_mut_ptr().add(base);
        while pa != ea && pb != eb {
            let (x, y) = (*pa, *pb);
            let take_a = x <= y;
            *po = if take_a { x } else { y };
            po = po.add(1);
            pa = pa.add(take_a as usize);
            pb = pb.add(!take_a as usize);
        }
        let ra = ea.offset_from(pa) as usize;
        po.copy_from_nonoverlapping(pa, ra);
        po.add(ra)
            .copy_from_nonoverlapping(pb, eb.offset_from(pb) as usize);
        out.set_len(base + total);
    }
}

/// Bidirectional branch-free merge of two sorted runs, appended
/// to `out`. Used above [`MERGE_PATH_MIN`] total items, where the
/// scalar cursor merge is limited by its serial `compare → conditional
/// cursor bump → dependent load` chain (~a dozen cycles per item)
/// rather than by branch mispredictions — the cursor kernel is already
/// branchless.
///
/// The output is produced as two *independent* dependency chains
/// interleaved in one loop: a forward chain emits the `total/2`
/// smallest items from the fronts of both runs, while a backward chain
/// emits the `total - total/2` largest from the backs, writing
/// descending from the end of the output. Determinism of the merge
/// (ties broken towards `a` in front order, towards `b` in back order)
/// makes the two chains consume exactly complementary item sets, so
/// they meet in the middle without communicating — the CPU overlaps
/// the two chains and the critical path per item halves. Exhaustion
/// guards are branches that stay predictable (taken only once a side
/// runs dry).
pub fn merge_bidirectional_append(a: &[Item], b: &[Item], out: &mut Vec<Item>) {
    let (na, nb) = (a.len(), b.len());
    let total = na + nb;
    debug_assert!(a.windows(2).all(|w| w[0] <= w[1]));
    debug_assert!(b.windows(2).all(|w| w[0] <= w[1]));
    if na == 0 || nb == 0 {
        out.extend_from_slice(a);
        out.extend_from_slice(b);
        return;
    }
    telemetry::record_quiet(telemetry::Event::LsmKernelBidiHit);
    let base = out.len();
    out.reserve(total);
    let steps_f = total / 2;
    let steps_b = total - steps_f;
    // Each step is straight-line cmov code with *no* exhaustion guards:
    // the outer loops only run a chain for as many steps as both of its
    // cursors are provably in bounds (`chunk` is the joint safe window,
    // recomputed whenever it closes), and once one input side of a chain
    // is exhausted the chain's remaining output is a bulk tail copy of
    // the other side. Determinism of the merge (ties → `a` in front
    // order, mirrored to `b` from the back) makes the two chains consume
    // exactly complementary item sets, so the forward cursors never pass
    // the backward ones and the tail copies read exactly the unconsumed
    // items.
    //
    // SAFETY: `out` has capacity for `base + total`; the forward chain
    // writes indices `base..base + steps_f` exactly once ascending, the
    // backward chain `base + steps_f..base + total` exactly once
    // descending. The window bookkeeping keeps `ia < na`, `ib < nb`,
    // `ja > 0`, `jb > 0` inside the step loops.
    unsafe {
        let po = out.as_mut_ptr().add(base);
        let (mut ia, mut ib) = (0usize, 0usize);
        let (mut ja, mut jb) = (na, nb);
        let mut of = 0usize;
        let mut ob = total;
        let (mut fl, mut bl) = (steps_f, steps_b);
        macro_rules! fwd_step {
            () => {{
                let av = pack(*a.get_unchecked(ia));
                let bv = pack(*b.get_unchecked(ib));
                // Tie → `a`, matching the scalar cursor kernel.
                let ta = av <= bv;
                *po.add(of) = unpack(if ta { av } else { bv });
                of += 1;
                ia += ta as usize;
                ib += !ta as usize;
            }};
        }
        macro_rules! bwd_step {
            () => {{
                let aw = pack(*a.get_unchecked(ja - 1));
                let bw = pack(*b.get_unchecked(jb - 1));
                // Mirror tie rule: tie → `b` (it follows `a` in front
                // order, so it leads from the back).
                let tb = bw >= aw;
                ob -= 1;
                *po.add(ob) = unpack(if tb { bw } else { aw });
                ja -= !tb as usize;
                jb -= tb as usize;
            }};
        }
        // Interleaved phase: both chains advance guard-free inside the
        // joint safe window.
        loop {
            let chunk = fl.min(bl).min(na - ia).min(nb - ib).min(ja).min(jb);
            if chunk == 0 {
                break;
            }
            for _ in 0..chunk {
                fwd_step!();
                bwd_step!();
            }
            fl -= chunk;
            bl -= chunk;
        }
        // Finish the forward chain alone, then its tail copy.
        loop {
            let chunk = fl.min(na - ia).min(nb - ib);
            if chunk == 0 {
                break;
            }
            for _ in 0..chunk {
                fwd_step!();
            }
            fl -= chunk;
        }
        if fl > 0 {
            let (src, cur) = if ia == na { (b, &mut ib) } else { (a, &mut ia) };
            po.add(of).copy_from_nonoverlapping(src.as_ptr().add(*cur), fl);
            *cur += fl;
        }
        // Finish the backward chain alone, then its tail copy.
        loop {
            let chunk = bl.min(ja).min(jb);
            if chunk == 0 {
                break;
            }
            for _ in 0..chunk {
                bwd_step!();
            }
            bl -= chunk;
        }
        if bl > 0 {
            let (src, cur) = if ja == 0 { (b, &mut jb) } else { (a, &mut ja) };
            po.add(ob - bl)
                .copy_from_nonoverlapping(src.as_ptr().add(*cur - bl), bl);
        }
        out.set_len(base + total);
    }
    debug_assert!(out[base..].windows(2).all(|w| w[0] <= w[1]));
}

/// Branch-free argmin over a non-empty slice of items: index of the
/// smallest element (first occurrence on ties). The running best value
/// and index update through conditional moves on the packed lane, so a
/// random-ordered `heads` mirror costs no mispredictions — the branchy
/// `if h < best` scan it replaces mispredicts every time the minimum
/// moves. Used by `delete_min` on the heads mirror.
pub(crate) fn argmin(items: &[Item]) -> usize {
    debug_assert!(!items.is_empty());
    let mut best = pack(items[0]);
    let mut idx = 0usize;
    for (i, &h) in items.iter().enumerate().skip(1) {
        let v = pack(h);
        let better = v < best;
        best = if better { v } else { best };
        idx = if better { i } else { idx };
    }
    idx
}

/// k-way merge of `runs` (each sorted ascending) into `out`
/// through a loser tree: one comparison per tree level per emitted item,
/// `O(total · log k)` overall, versus the `O(total · k)` repeated
/// head-scan it replaces.
///
/// `heads` is a pooled scratch buffer (capacity at least
/// `runs.len().next_power_of_two()`) holding the current head of every
/// (sentinel-padded) run, so the inner loop reads one dense array; the
/// loser/cursor index arrays are fixed stack arrays sized for
/// [`MAX_FANOUT`]. Exhausted and padded runs hold [`SENTINEL`]; ties
/// with real sentinel-valued items emit bit-identical copies, so the
/// output multiset is preserved (exactly `total` items are emitted).
pub(crate) fn k_way_merge_into(runs: &[&[Item]], heads: &mut Vec<Item>, out: &mut Vec<Item>) {
    let k = runs.len();
    debug_assert!((2..=MAX_FANOUT).contains(&k));
    telemetry::record_quiet(telemetry::Event::LsmKernelLoserTreePass);
    let kk = k.next_power_of_two();
    debug_assert!(kk <= TREE_CAP && heads.capacity() >= kk);
    let base = out.len();
    let total: usize = runs.iter().map(|r| r.len()).sum();
    heads.clear();
    for r in runs {
        heads.push(r.first().copied().unwrap_or(SENTINEL));
    }
    heads.resize(kk, SENTINEL);
    // Cursor per run and loser per internal node; `win` is build-only.
    let mut pos = [0u32; TREE_CAP];
    let mut loser = [0u32; TREE_CAP];
    let mut win = [0u32; 2 * TREE_CAP];
    for n in (1..2 * kk).rev() {
        if n >= kk {
            win[n] = (n - kk) as u32;
        } else {
            let (x, y) = (win[2 * n], win[2 * n + 1]);
            let x_wins = heads[x as usize] <= heads[y as usize];
            win[n] = if x_wins { x } else { y };
            loser[n] = if x_wins { y } else { x };
        }
    }
    let mut winner = win[1];
    for _ in 0..total {
        let w = winner as usize;
        out.push(heads[w]);
        pos[w] += 1;
        heads[w] = runs
            .get(w)
            .and_then(|r| r.get(pos[w] as usize))
            .copied()
            .unwrap_or(SENTINEL);
        // Replay the path from leaf `w` to the root: one comparison per
        // level, swapping the path node's loser with the running winner
        // whenever the stored loser is smaller.
        let mut n = (kk + w) >> 1;
        let mut cur = winner;
        while n >= 1 {
            if heads[loser[n] as usize] < heads[cur as usize] {
                core::mem::swap(&mut loser[n], &mut cur);
            }
            n >>= 1;
        }
        winner = cur;
    }
    debug_assert_eq!(out.len() - base, total);
    debug_assert!(out[base..].windows(2).all(|w| w[0] <= w[1]));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(keys: &[u64]) -> Vec<Item> {
        keys.iter()
            .enumerate()
            .map(|(i, &k)| Item::new(k, i as u64))
            .collect()
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn cutoffs_are_consistent() {
        assert!(MERGE_PATH_MIN >= 2);
        assert!(TREE_CAP >= MAX_FANOUT);
    }

    #[test]
    fn loser_tree_merges_uneven_runs() {
        let runs_owned: Vec<Vec<Item>> = vec![
            items(&[1, 5, 9, 13]),
            items(&[2, 2, 2]),
            items(&[0]),
            vec![],
            items(&[3, 4, 6, 7, 8, 10, 11, 12]),
        ];
        let runs: Vec<&[Item]> = runs_owned.iter().map(|r| r.as_slice()).collect();
        let mut heads = Vec::with_capacity(TREE_CAP);
        let mut out = Vec::new();
        k_way_merge_into(&runs, &mut heads, &mut out);
        let mut expect: Vec<Item> = runs_owned.concat();
        expect.sort();
        assert_eq!(out, expect);
    }

    #[test]
    fn loser_tree_handles_sentinel_ties() {
        let max = Item::new(u64::MAX, u64::MAX);
        let runs_owned: Vec<Vec<Item>> = vec![vec![Item::new(1, 0), max], vec![max], vec![max]];
        let runs: Vec<&[Item]> = runs_owned.iter().map(|r| r.as_slice()).collect();
        let mut heads = Vec::with_capacity(TREE_CAP);
        let mut out = Vec::new();
        k_way_merge_into(&runs, &mut heads, &mut out);
        assert_eq!(out, vec![Item::new(1, 0), max, max, max]);
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn kernels_record_telemetry() {
        use pq_traits::telemetry::{snapshot, Event};
        let before = snapshot();
        let v = items(&[1, 2, 3]);
        let big: Vec<Item> = (0..32).map(|k| Item::new(k, 0)).collect();
        let mut out = Vec::new();
        merge_bidirectional_append(&big, &v, &mut out);
        let runs = [big.as_slice(), v.as_slice()];
        let mut heads = Vec::with_capacity(TREE_CAP);
        out.clear();
        k_way_merge_into(&runs, &mut heads, &mut out);
        let d = snapshot().since(&before);
        assert!(d.get(Event::LsmKernelBidiHit) >= 1);
        assert!(d.get(Event::LsmKernelLoserTreePass) >= 1);
    }

    #[test]
    fn bidi_merge_adversarial_shapes() {
        let max = Item::new(u64::MAX, u64::MAX);
        let zero = Item::new(0, 0);
        let cases: Vec<(Vec<Item>, Vec<Item>)> = vec![
            // All-equal runs, including both packed-lane extremes.
            (vec![zero; 5], vec![zero; 9]),
            (vec![max; 7], vec![max; 3]),
            (vec![zero, zero, max, max], vec![zero, max]),
            // Fully disjoint ranges, either order.
            (items(&[1, 2, 3, 4]), items(&[10, 11, 12, 13])),
            (items(&[10, 11, 12, 13]), items(&[1, 2, 3, 4])),
            // Perfect interleave and lopsided lengths (tail-copy paths).
            (items(&[0, 2, 4, 6, 8]), items(&[1, 3, 5, 7, 9])),
            (items(&[5]), items(&(0..40).collect::<Vec<_>>())),
            ((0..40).map(|k| Item::new(k, 0)).collect(), vec![Item::new(20, 1)]),
            // Odd totals and empty sides.
            (items(&[1, 1, 2]), items(&[1, 1])),
            (Vec::new(), items(&[1, 2, 3])),
            (items(&[1, 2, 3]), Vec::new()),
        ];
        for (a, b) in cases {
            let mut a = a;
            let mut b = b;
            a.sort();
            b.sort();
            let mut got = Vec::new();
            merge_bidirectional_append(&a, &b, &mut got);
            let mut expect = Vec::new();
            scalar_merge_append(&a, &b, &mut expect);
            assert_eq!(got, expect, "a={a:?} b={b:?}");
        }
    }

    #[test]
    fn argmin_returns_first_minimum() {
        // Ties must resolve to the first occurrence, matching a plain
        // `<` scan.
        let v = items(&[5, 2, 9, 2, 7]);
        assert_eq!(argmin(&v), 1);
        let same = vec![Item::new(4, 4); 6];
        assert_eq!(argmin(&same), 0);
        assert_eq!(argmin(&[Item::new(1, 1)]), 0);
    }

    proptest::proptest! {
        /// The bidirectional kernel is byte-for-byte equivalent to the
        /// scalar cursor merge on arbitrary sorted runs with duplicate
        /// keys (distinct values witness tie handling).
        #[test]
        fn prop_bidi_matches_scalar(
            a in proptest::collection::vec(0u64..50, 0..120),
            b in proptest::collection::vec(0u64..50, 0..120),
        ) {
            let mut a: Vec<Item> = a.iter().map(|&k| Item::new(k, 0)).collect();
            let mut b: Vec<Item> = b.iter().map(|&k| Item::new(k, 1)).collect();
            a.sort();
            b.sort();
            let mut got = Vec::new();
            merge_bidirectional_append(&a, &b, &mut got);
            let mut expect = Vec::new();
            scalar_merge_append(&a, &b, &mut expect);
            proptest::prop_assert_eq!(got, expect);
        }

        /// `argmin` agrees with the reference linear scan (first
        /// occurrence on ties) on arbitrary non-empty slices.
        #[test]
        fn prop_argmin_matches_scan(
            keys in proptest::collection::vec(0u64..30, 1..80)
        ) {
            let v = items(&keys);
            let expect = v
                .iter()
                .enumerate()
                .min_by_key(|&(_, it)| it)
                .map(|(i, _)| i)
                .expect("non-empty");
            proptest::prop_assert_eq!(argmin(&v), expect);
        }
    }
}
