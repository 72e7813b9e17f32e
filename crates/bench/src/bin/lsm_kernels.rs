//! LSM kernel microbenchmark: the pooled LSM against its pool-off
//! ablation and a binary heap.
//!
//! Three sequential arms measure the raw insert/delete-min cost on one
//! thread, interleaved on identical key streams:
//!
//! * `binary-heap` — [`seqpq::BinaryHeap`], the `std::priority_queue`
//!   analog the paper's GlobalLock and MultiQueue wrap: the reference
//!   the LSM gate is measured against.
//! * `pool-off` — [`lsm::Lsm::with_pool_disabled`]: the same kernels
//!   with buffer recycling disabled (isolates the block pool's share).
//! * `pool-on` — [`lsm::Lsm::new`], the production LSM.
//!
//! A concurrent section then runs the LSM-family queues (dlsm,
//! klsm128/256/4096, plus batched `-b16` variants of dlsm and klsm128)
//! through the standard harness at `--threads` threads on the uniform
//! workload, so pre/post-change throughput can be compared from the
//! JSON alone. Everything is written to `BENCH_lsm_kernels.json`,
//! including the pooled arm's hit rate; `--min-speedup` gates the
//! pool-on/binary-heap geomean (steady × sawtooth) as an exit code.
//! `scripts/bench_smoke.sh` wraps this binary.
//!
//! ```text
//! cargo run -p pq-bench --release --bin lsm_kernels -- \
//!     --threads 2 --duration-ms 1000 --out BENCH_lsm_kernels.json
//! ```

use std::time::{Duration, Instant};

use harness::{experiments, run_throughput, QueueSpec, ThroughputResult};
use lsm::Lsm;
use pq_bench::{run_metadata_json, TraceFile};
use pq_traits::{trace, SequentialPq};
use seqpq::BinaryHeap;
use workloads::config::StopCondition;
use workloads::BenchConfig;

struct Args {
    threads: usize,
    size: usize,
    ops: usize,
    prefill: usize,
    duration_ms: u64,
    reps: usize,
    seed: u64,
    min_speedup: f64,
    out: String,
    trace: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        threads: 4,
        size: 8192,
        ops: 2_000_000,
        prefill: 100_000,
        duration_ms: 1_000,
        reps: 3,
        seed: 0x5EED,
        min_speedup: 0.0,
        out: "BENCH_lsm_kernels.json".to_owned(),
        trace: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let take = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            argv.get(*i)
                .cloned()
                .ok_or_else(|| format!("missing value after {}", argv[*i - 1]))
        };
        match argv[i].as_str() {
            "--threads" => args.threads = take(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--size" => args.size = take(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--ops" => args.ops = take(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--prefill" => args.prefill = take(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--duration-ms" => {
                args.duration_ms = take(&mut i)?.parse().map_err(|e| format!("{e}"))?
            }
            "--reps" => args.reps = take(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => args.seed = take(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--min-speedup" => {
                args.min_speedup = take(&mut i)?.parse().map_err(|e| format!("{e}"))?
            }
            "--out" => args.out = take(&mut i)?,
            "--trace" => args.trace = Some(take(&mut i)?),
            other => return Err(format!("unknown flag '{other}'")),
        }
        i += 1;
    }
    if args.threads == 0 || args.size == 0 || args.ops == 0 {
        return Err("--threads/--size/--ops must be >= 1".into());
    }
    if args.trace.is_some() && !trace::compiled() {
        return Err("--trace requires building with --features trace".into());
    }
    Ok(args)
}

/// Deterministic splitmix64 stream for uniform keys.
fn next_key(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Rounds the sequential arms are interleaved over. Clock drift
/// (frequency scaling, noisy neighbours) hits every arm roughly
/// equally instead of whichever arm happened to run during the dip.
const SEQ_ROUNDS: usize = 16;

/// Sequential arms, in index order ([`HEAP`], [`POOL_OFF`], [`POOL_ON`]).
const ARM_NAMES: [&str; ARMS] = ["binary-heap", "pool-off", "pool-on"];
const ARMS: usize = 3;
const HEAP: usize = 0;
const POOL_OFF: usize = 1;
const POOL_ON: usize = 2;

/// Prefill to `size` and run one untimed warmup pass so the arm starts
/// from a settled block shape (and, for the pooled arms, a primed pool).
fn prep_seq<Q: SequentialPq>(q: &mut Q, size: usize, rng: &mut u64) {
    for _ in 0..size {
        q.insert(next_key(rng), 0);
    }
    for _ in 0..size {
        q.insert(next_key(rng), 0);
        q.delete_min();
    }
}

/// One timed chunk of insert/delete-min pairs at constant size.
fn chunk_seq<Q: SequentialPq>(q: &mut Q, pairs: usize, rng: &mut u64) -> Duration {
    let start = Instant::now();
    for _ in 0..pairs {
        q.insert(next_key(rng), 0);
        std::hint::black_box(q.delete_min());
    }
    start.elapsed()
}

/// One timed sawtooth chunk: grow by `burst` inserts, then drain `burst`
/// delete-mins, repeated until `pairs` pairs have run. Exercises the
/// deep cascade merges on the way up and the shrink/compact path on the
/// way down — the kernels a constant-size pair stream barely touches.
fn chunk_sawtooth<Q: SequentialPq>(
    q: &mut Q,
    pairs: usize,
    burst: usize,
    rng: &mut u64,
) -> Duration {
    let start = Instant::now();
    let mut left = pairs;
    while left > 0 {
        let b = burst.min(left);
        for _ in 0..b {
            q.insert(next_key(rng), 0);
        }
        for _ in 0..b {
            std::hint::black_box(q.delete_min());
        }
        left -= b;
    }
    start.elapsed()
}

/// Measured rates for the sequential arms ([`ARM_NAMES`] order) on
/// both workload shapes, in pairs/sec.
struct SeqRates {
    /// Constant-size insert/delete-min pair stream.
    pairs: [f64; ARMS],
    /// Sawtooth: grow-by-`size` then drain-by-`size` bursts.
    sawtooth: [f64; ARMS],
}

impl SeqRates {
    /// Rate ratio of arm `num` over arm `den` on one workload.
    fn ratio(rates: &[f64; ARMS], num: usize, den: usize) -> f64 {
        if rates[den] > 0.0 {
            rates[num] / rates[den]
        } else {
            0.0
        }
    }

    /// Geometric mean of the `num`/`den` ratio over the two workload
    /// shapes, weighting steady state and churn equally.
    fn geomean(&self, num: usize, den: usize) -> f64 {
        (Self::ratio(&self.pairs, num, den) * Self::ratio(&self.sawtooth, num, den)).sqrt()
    }
}

/// Measure the sequential arms interleaved; returns per-workload rates
/// plus the pool-on arm's final pool stats.
fn bench_seq_arms(size: usize, ops: usize, seed: u64) -> (SeqRates, lsm::PoolStats) {
    let mut heap = BinaryHeap::new();
    let mut pool_off = Lsm::with_pool_disabled();
    let mut pool_on = Lsm::new();
    // Identical key streams per arm: independent queues, same workload.
    let mut rng = [seed; ARMS];
    prep_seq(&mut heap, size, &mut rng[0]);
    prep_seq(&mut pool_off, size, &mut rng[1]);
    prep_seq(&mut pool_on, size, &mut rng[2]);
    let chunk = (ops / SEQ_ROUNDS).max(1);
    // Per-arm *minimum* chunk time: on a shared core, each arm's rate
    // is taken from its cleanest window, so co-tenant steal time and
    // frequency dips don't land on whichever arm was running during
    // them. Interleaving gives every arm the same shot at clean slots.
    let mut best_pairs = [Duration::MAX; ARMS];
    let mut best_saw = [Duration::MAX; ARMS];
    for _ in 0..SEQ_ROUNDS {
        best_pairs[0] = best_pairs[0].min(chunk_seq(&mut heap, chunk, &mut rng[0]));
        best_pairs[1] = best_pairs[1].min(chunk_seq(&mut pool_off, chunk, &mut rng[1]));
        best_pairs[2] = best_pairs[2].min(chunk_seq(&mut pool_on, chunk, &mut rng[2]));
        best_saw[0] = best_saw[0].min(chunk_sawtooth(&mut heap, chunk, size, &mut rng[0]));
        best_saw[1] = best_saw[1].min(chunk_sawtooth(&mut pool_off, chunk, size, &mut rng[1]));
        best_saw[2] = best_saw[2].min(chunk_sawtooth(&mut pool_on, chunk, size, &mut rng[2]));
    }
    let rates = SeqRates {
        pairs: std::array::from_fn(|i| chunk as f64 / best_pairs[i].as_secs_f64()),
        sawtooth: std::array::from_fn(|i| chunk as f64 / best_saw[i].as_secs_f64()),
    };
    (rates, pool_on.pool_stats())
}

fn result_json(r: &ThroughputResult, indent: &str) -> String {
    let reps = r
        .per_rep_ops_per_sec
        .iter()
        .map(|v| format!("{v:.1}"))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{indent}{{ \"queue\": \"{}\", \"threads\": {}, \"mops_mean\": {:.4}, \
         \"ops_per_sec_ci95\": {:.1}, \"per_rep_ops_per_sec\": [{reps}] }}",
        r.queue, r.threads, r.mops(), r.summary.ci95,
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lsm_kernels: {e}");
            std::process::exit(2);
        }
    };

    eprintln!(
        "sequential kernels: size={} ops={} ({} interleaved rounds, uniform keys)",
        args.size, args.ops, SEQ_ROUNDS
    );
    let (rates, pool_stats) = bench_seq_arms(args.size, args.ops, args.seed);
    for (idx, name) in ARM_NAMES.iter().enumerate() {
        eprintln!(
            "  {name:<11}  steady {:.3} M pairs/s | sawtooth {:.3} M pairs/s",
            rates.pairs[idx] / 1e6,
            rates.sawtooth[idx] / 1e6,
        );
    }
    eprintln!("  pool hit rate {:.4}", pool_stats.hit_rate());
    let speedup = rates.geomean(POOL_ON, HEAP);
    let pool_speedup = rates.geomean(POOL_ON, POOL_OFF);
    eprintln!(
        "  speedup pool-on/binary-heap: steady {:.3}x, sawtooth {:.3}x, geomean {speedup:.3}x",
        SeqRates::ratio(&rates.pairs, POOL_ON, HEAP),
        SeqRates::ratio(&rates.sawtooth, POOL_ON, HEAP),
    );
    eprintln!(
        "  speedup pool-on/pool-off: steady {:.3}x, sawtooth {:.3}x, geomean {pool_speedup:.3}x",
        SeqRates::ratio(&rates.pairs, POOL_ON, POOL_OFF),
        SeqRates::ratio(&rates.sawtooth, POOL_ON, POOL_OFF),
    );

    // Concurrent LSM-family cells on the uniform workload, for
    // pre/post-PR comparison at the JSON level. The batched variants
    // exercise the PqHandle::flush() insert-buffering path.
    let exp = experiments::by_id("fig4a").expect("uniform experiment registered");
    let cfg = BenchConfig {
        threads: args.threads,
        workload: exp.workload,
        key_dist: exp.key_dist,
        prefill: args.prefill,
        stop: StopCondition::Duration(Duration::from_millis(args.duration_ms)),
        reps: args.reps,
        seed: args.seed,
    };
    let specs = [
        QueueSpec::Dlsm,
        QueueSpec::DlsmBatch(16),
        QueueSpec::Klsm(128),
        QueueSpec::KlsmBatch(128, 16),
        QueueSpec::Klsm(256),
        QueueSpec::Klsm(4096),
    ];
    let mut tracefile = args.trace.as_ref().map(|_| TraceFile::new());
    let mut results: Vec<ThroughputResult> = Vec::new();
    for spec in specs {
        eprintln!("running {} ({} threads)...", spec.name(), args.threads);
        if tracefile.is_some() {
            trace::start(trace::DEFAULT_CAPACITY);
        }
        let r = run_throughput(spec, &cfg);
        if let Some(tf) = tracefile.as_mut() {
            tf.push_cell(
                &format!("lsm_kernels {} t{}", r.queue, args.threads),
                args.threads,
                trace::stop(),
            );
        }
        eprintln!("  {:.3} MOps/s", r.mops());
        results.push(r);
    }
    if let (Some(path), Some(tf)) = (&args.trace, &tracefile) {
        if let Err(e) = tf.write(path) {
            eprintln!("lsm_kernels: cannot write trace {path}: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "wrote trace {path} (dropped records: {})",
            tf.dropped_total()
        );
    }

    let body = results
        .iter()
        .map(|r| result_json(r, "    "))
        .collect::<Vec<_>>()
        .join(",\n");
    let arm_rates = |rates: &[f64; ARMS]| {
        format!(
            "{{ \"binary_heap\": {:.1}, \"pool_off\": {:.1}, \"pool_on\": {:.1} }}",
            rates[0], rates[1], rates[2]
        )
    };
    let json = format!(
        "{{\n  \"meta\": {},\n  \"size\": {},\n  \"ops\": {},\n  \"seed\": {},\n  \
         \"steady_pairs_per_sec\": {},\n  \"sawtooth_pairs_per_sec\": {},\n  \
         \"steady_speedup\": {:.4},\n  \"sawtooth_speedup\": {:.4},\n  \
         \"pool_on_speedup_vs_binary_heap\": {:.4},\n  \
         \"pool_on_speedup_vs_pool_off\": {:.4},\n  \
         \"pool_hits\": {},\n  \"pool_misses\": {},\n  \"pool_hit_rate\": {:.6},\n  \
         \"pool_recycled_bytes\": {},\n  \"threads\": {},\n  \"prefill\": {},\n  \
         \"duration_ms\": {},\n  \"reps\": {},\n  \"concurrent\": [\n{body}\n  ]\n}}\n",
        run_metadata_json(args.threads),
        args.size,
        args.ops,
        args.seed,
        arm_rates(&rates.pairs),
        arm_rates(&rates.sawtooth),
        SeqRates::ratio(&rates.pairs, POOL_ON, HEAP),
        SeqRates::ratio(&rates.sawtooth, POOL_ON, HEAP),
        speedup,
        pool_speedup,
        pool_stats.hits,
        pool_stats.misses,
        pool_stats.hit_rate(),
        pool_stats.recycled_bytes,
        args.threads,
        args.prefill,
        args.duration_ms,
        args.reps,
    );
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("lsm_kernels: cannot write {}: {e}", args.out);
        std::process::exit(1);
    }
    println!(
        "wrote {} — pooled LSM {speedup:.2}x vs binary heap, {pool_speedup:.2}x vs pool-off \
         (pool hit rate {:.4})",
        args.out,
        pool_stats.hit_rate(),
    );
    if args.min_speedup > 0.0 && speedup < args.min_speedup {
        eprintln!(
            "lsm_kernels: FAIL — pool-on/binary-heap speedup {speedup:.3}x below required {:.3}x",
            args.min_speedup
        );
        std::process::exit(1);
    }
}
