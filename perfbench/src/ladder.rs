//! The layer ladder: each component and each registry queue driven
//! directly through its public API on the same uniform 50/50 stream at
//! one thread. A layer's marginal cost is the difference of its rung and
//! the rung below it.

use std::time::{Duration, Instant};

use harness::{with_queue, QueueSpec};
use pq_traits::{ConcurrentPq, Item, PqHandle, SequentialPq};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::inputs::Op;
use crate::probe::{Kind, Spans};

/// Components below the queues, then the queues of the set.
pub const RUNGS: [&str; 16] = [
    "lsm",
    "binary_heap",
    "mound",
    "skiplist",
    "slsm128",
    "slsm4096",
    "fc-globallock",
    "dlsm",
    "klsm128",
    "klsm4096",
    "globallock",
    "fc-mound",
    "linden",
    "spray",
    "multiqueue",
    "mq-sticky",
];

/// `(upper, lower)`: the upper rung is the lower one plus one layer.
pub const LAYERS: [(&str, &str); 12] = [
    ("dlsm", "lsm"),
    ("slsm128", "lsm"),
    ("slsm4096", "lsm"),
    ("klsm128", "slsm128"),
    ("klsm4096", "slsm4096"),
    ("globallock", "binary_heap"),
    ("fc-globallock", "globallock"),
    ("fc-mound", "mound"),
    ("linden", "skiplist"),
    ("spray", "linden"),
    ("multiqueue", "binary_heap"),
    ("mq-sticky", "multiqueue"),
];

/// Operations of the ladder stream, after its full prefill. Kept short
/// because a standalone SLSM insert recomputes the `k + 1`-item pivot, so
/// `slsm4096` costs about 0.2 ms per operation.
pub const LADDER_OPS: usize = 10_000;

/// Timed operations a rung accumulates per pass: fast rungs repeat the
/// stream (each time on a freshly prefilled instance) until they reach
/// it, so their ns/op is not one millisecond's worth of samples.
const MIN_TIMED: Duration = Duration::from_millis(10);

/// The interface every rung is driven through.
trait Rung {
    fn insert(&mut self, it: Item);
    fn delete_min(&mut self) -> Option<Item>;
    /// Untimed prefill; a rung may use a bulk API for it.
    fn prefill(&mut self, items: &[Item]) {
        items.iter().for_each(|&it| self.insert(it));
    }
}

struct Seq<P>(P);

impl<P: SequentialPq> Rung for Seq<P> {
    fn insert(&mut self, it: Item) {
        self.0.insert(it.key, it.value);
    }
    fn delete_min(&mut self) -> Option<Item> {
        self.0.delete_min()
    }
}

struct Handle<H>(H);

impl<H: PqHandle> Rung for Handle<H> {
    fn insert(&mut self, it: Item) {
        self.0.insert(it.key, it.value);
    }
    fn delete_min(&mut self) -> Option<Item> {
        self.0.delete_min()
    }
}

/// A standalone SLSM: prefilled with one sorted batch, then driven
/// through its handle like every other queue.
struct Slsm<'a>(&'a klsm::Slsm, klsm::slsm::SlsmHandle<'a>);

impl Rung for Slsm<'_> {
    fn insert(&mut self, it: Item) {
        self.1.insert(it.key, it.value);
    }
    fn delete_min(&mut self) -> Option<Item> {
        self.1.delete_min()
    }
    fn prefill(&mut self, items: &[Item]) {
        self.0.insert_batch(items.to_vec());
    }
}

struct Skip(skiplist_pq::SkipList, SmallRng);

impl Rung for Skip {
    fn insert(&mut self, it: Item) {
        self.0.insert(it.key, it.value, &mut self.1);
    }
    fn delete_min(&mut self) -> Option<Item> {
        self.0.delete_min()
    }
}

/// Prefill untimed, then time the operations. Returns the elapsed time
/// and the number of `None`s returned while the rung held items.
fn time<R: Rung>(mut r: R, prefill: &[Item], ops: &[Op]) -> (Duration, u64) {
    r.prefill(prefill);
    let mut size = prefill.len();
    let mut empties = 0;
    let t0 = Instant::now();
    for op in ops {
        match *op {
            Op::Insert(it) => {
                r.insert(it);
                size += 1;
            }
            Op::DeleteMin => match r.delete_min() {
                Some(_) => size = size.saturating_sub(1),
                None => empties += u64::from(size > 0),
            },
        }
    }
    (t0.elapsed(), empties)
}

fn handle<Q: ConcurrentPq>(q: &Q, prefill: &[Item], ops: &[Op]) -> (Duration, u64) {
    time(Handle(q.handle()), prefill, ops)
}

fn run_rung(name: &str, prefill: &[Item], ops: &[Op]) -> (Duration, u64) {
    match name {
        "lsm" => time(Seq(lsm::Lsm::new()), prefill, ops),
        "binary_heap" => time(Seq(seqpq::BinaryHeap::new()), prefill, ops),
        "mound" => handle(&lockedpq::Mound::new(), prefill, ops),
        "skiplist" => time(
            Skip(skiplist_pq::SkipList::new(), SmallRng::seed_from_u64(1)),
            prefill,
            ops,
        ),
        "slsm128" | "slsm4096" => {
            let s = klsm::Slsm::new(if name == "slsm128" { 128 } else { 4096 });
            time(Slsm(&s, s.handle()), prefill, ops)
        }
        "fc-globallock" => handle(&lockedpq::fc_globallock(2, 1), prefill, ops),
        queue => {
            let spec = QueueSpec::parse(queue).expect("rung names a registry queue");
            with_queue!(spec, 1, q => handle(&q, prefill, ops))
        }
    }
}

/// Per-rung ns/op, the median over interleaved passes, and the number of
/// failed `delete_min` calls seen.
pub struct Ladder {
    pub ns_per_op: [f64; RUNGS.len()],
    pub passes: usize,
    pub failed: u64,
    pub attempted: u64,
}

/// Run interleaved passes over every rung, at least `min_passes` and
/// until `budget` is spent. Each rung call is one span (it covers the
/// untimed prefill too; the rung's ns/op counts only the stream).
pub fn run(
    prefill: &[Item],
    ops: &[Op],
    min_passes: usize,
    budget: Duration,
    spans: &mut Spans,
) -> Ladder {
    let started = Instant::now();
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); RUNGS.len()];
    let (mut failed, mut attempted, mut passes) = (0, 0, 0);
    while passes < min_passes || started.elapsed() < budget {
        for (i, name) in RUNGS.iter().enumerate() {
            spans.label(i, passes);
            let mut timed = Duration::ZERO;
            while timed < MIN_TIMED {
                let s = spans.start();
                let (elapsed, empties) = run_rung(name, prefill, ops);
                spans.end(s, Kind::Rung);
                timed += elapsed;
                samples[i].push(elapsed.as_nanos() as f64 / ops.len() as f64);
                failed += empties;
                attempted += ops.len() as u64;
            }
        }
        passes += 1;
    }
    Ladder {
        ns_per_op: std::array::from_fn(|i| crate::report::median(&samples[i])),
        passes,
        failed,
        attempted,
    }
}

/// `layer.<upper>.marginal_ns`: the upper rung minus the lower rung.
pub fn marginals(l: &Ladder) -> [(String, f64); LAYERS.len()] {
    let ns = |name: &str| l.ns_per_op[RUNGS.iter().position(|r| *r == name).expect("rung")];
    std::array::from_fn(|i| {
        let (upper, lower) = LAYERS[i];
        (format!("layer.{upper}.marginal_ns"), ns(upper) - ns(lower))
    })
}
