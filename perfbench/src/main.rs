//! The repository's benchmark: nine registry queues, driven closed-loop
//! through their public handle API on one of two seeded workloads.
//!
//! ```text
//! perfbench --workload <split|sssp> --seed <n> --seconds <s> [--out <dir>]
//! ```
//!
//! The untraced build prints the end-to-end metrics; the build with the
//! `traced` feature prints the per-layer metrics and, with `--out`,
//! writes its spans there. `run.py` builds both and is the entry point.
//! The last line of standard output is the JSON result.

mod drive;
mod inputs;
#[cfg(feature = "traced")]
mod ladder;
mod probe;
mod report;

#[cfg(not(feature = "traced"))]
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use harness::{with_queue, QueueSpec};
use pq_traits::telemetry::Event;
use pq_traits::RelaxationBound;

use drive::Pass;
use inputs::Graph;
use probe::Spans;
use report::{median, ratio, Host, Metrics};

/// The queue set, in the order every round runs it.
const QUEUES: [&str; 9] = [
    "klsm128",
    "klsm4096",
    "dlsm",
    "linden",
    "spray",
    "multiqueue",
    "mq-sticky",
    "globallock",
    "fc-mound",
];

/// Queues whose mean rank error is an end-to-end metric.
#[cfg_attr(feature = "traced", allow(dead_code))]
const RANKED: [&str; 4] = ["klsm128", "klsm4096", "spray", "mq-sticky"];

/// Operations of the rank replay behind `<q>.rank_mean`; a shorter
/// replay is dominated by the transient after the prefill, whose mean
/// rank varies more from seed to seed.
#[cfg_attr(feature = "traced", allow(dead_code))]
const RANK_OPS: usize = 2_000_000;
/// Operations of the rank replay of the queues without a `rank_mean`
/// metric, which only checks their guaranteed bound.
#[cfg_attr(feature = "traced", allow(dead_code))]
const BOUND_OPS: usize = 200_000;

/// Rounds measured even when `--seconds` is already spent.
const MIN_ROUNDS: usize = 4;

/// Worker threads of both workloads.
const THREADS: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Split,
    Sssp,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "split" => Some(Self::Split),
            "sssp" => Some(Self::Sssp),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::Split => "split",
            Self::Sssp => "sssp",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    #[cfg_attr(not(feature = "traced"), allow(dead_code))]
    out: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut out) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed '{value}'"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds '{value}'"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {value}"));
                }
                seconds = Some(s);
            }
            "--out" => out = Some(value.into()),
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        out,
    })
}

/// One round's inputs, generated every round as part of set-up.
enum Inputs {
    Split {
        prefill: Vec<pq_traits::Item>,
        inserts: Vec<pq_traits::Item>,
    },
    Sssp {
        graph: Graph,
        reference: Vec<u64>,
    },
}

impl Inputs {
    /// Round `round`'s inputs, from a stream of its own.
    fn generate(workload: Workload, seed: u64, round: usize) -> Self {
        let seed = inputs::stream_seed(seed, round);
        match workload {
            Workload::Split => {
                let (prefill, inserts) = inputs::split(seed);
                Self::Split { prefill, inserts }
            }
            Workload::Sssp => {
                let graph = Graph::random(inputs::SSSP_VERTICES, inputs::SSSP_EXTRA_EDGES, seed);
                let reference = graph.dijkstra();
                Self::Sssp { graph, reference }
            }
        }
    }
}

/// Build one queue and run its pass. The queue is dropped on return.
fn run_queue(spec: QueueSpec, inputs: &Inputs, spans: &mut [Spans], cpus: &[usize]) -> Pass {
    let built = Instant::now();
    with_queue!(spec, THREADS, q => match inputs {
        Inputs::Split { prefill, inserts } => {
            drive::split(&q, built, prefill, inserts, inputs::SPLIT_OPS, spans, cpus)
        }
        Inputs::Sssp { graph, reference } => {
            drive::sssp(&q, built, graph, reference, spans, cpus)
        }
    })
}

/// Everything measured for one queue across the rounds.
#[derive(Default)]
struct QueueRecord {
    passes: Vec<Pass>,
    /// Heap bytes still allocated after the first round's queue was
    /// dropped (traced build).
    leaked_bytes: u64,
}

impl QueueRecord {
    #[cfg_attr(not(feature = "traced"), allow(dead_code))]
    fn events(&self, e: Event) -> f64 {
        self.passes.iter().map(|p| p.events.get(e) as f64).sum()
    }

    #[cfg_attr(not(feature = "traced"), allow(dead_code))]
    fn attempted(&self) -> f64 {
        self.passes.iter().map(|p| p.attempted as f64).sum()
    }

    fn median_of(&self, f: impl Fn(&Pass) -> f64) -> f64 {
        median(&self.passes.iter().map(f).collect::<Vec<_>>())
    }
}

/// The mean rank error of a one-thread replay of the paper's uniform
/// 50/50 mix through `harness::quality` (`RANK_OPS` long for the ranked
/// queues, `BOUND_OPS` for the others), and whether the largest rank stays within the
/// queue's guaranteed bound (if it claims one).
#[cfg_attr(feature = "traced", allow(dead_code))]
fn rank_replay(name: &str, seed: u64) -> (f64, Option<String>) {
    let spec = QueueSpec::parse(name).expect("queue set names registry queues");
    let ops = if RANKED.contains(&name) {
        RANK_OPS
    } else {
        BOUND_OPS
    };
    let cfg = inputs::config(workloads::Workload::Uniform, 1, seed, ops);
    let r = harness::run_quality(spec, &cfg);
    let (bound, guaranteed) =
        with_queue!(spec, 1, q => (q.rank_bound(1), q.rank_bound_is_guaranteed()));
    let violation = match bound {
        Some(b) if guaranteed && r.max > b => Some(format!(
            "{name}: rank {} exceeds its guaranteed bound {b}",
            r.max
        )),
        _ => None,
    };
    (r.rank.mean, violation)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let workload = args.workload;
    let host = Host::detect(THREADS);
    println!("# host {}", host.to_json(probe::TRACED));
    if host.oversubscribed() {
        eprintln!(
            "error: {} needs {} worker threads but only {} cores are available",
            workload.name(),
            host.threads,
            host.cpus.len()
        );
        std::process::exit(3);
    }

    let origin = Instant::now();
    // The traced build keeps spans for its rounds in memory. Past this
    // budget, spans are dropped and counted.
    let span_capacity = if probe::TRACED { 2_000_000 } else { 0 };
    let mut spans: Vec<Spans> = (0..THREADS)
        .map(|t| Spans::new(origin, span_capacity, t as u8))
        .collect();
    // The traced build splits its time between the rounds and the ladder.
    let round_budget = Duration::from_secs_f64(if probe::TRACED {
        args.seconds / 2.0
    } else {
        args.seconds
    });

    let specs: Vec<QueueSpec> = QUEUES
        .iter()
        .map(|n| QueueSpec::parse(n).expect("queue set names registry queues"))
        .collect();
    let mut records: Vec<QueueRecord> = QUEUES.iter().map(|_| QueueRecord::default()).collect();
    let mut setups = Vec::new();
    let mut wrong: Vec<String> = Vec::new();
    let mut peak_rss = 0.0;
    let started = Instant::now();
    let mut round = 0;
    let mut steal_shares = Vec::new();
    while round < MIN_ROUNDS || started.elapsed() < round_budget {
        let t = Instant::now();
        let stolen = report::steal_s();
        let inputs = Inputs::generate(workload, args.seed, round);
        let mut setup = t.elapsed();
        for (qi, spec) in specs.iter().enumerate() {
            spans.iter_mut().for_each(|s| s.label(qi, round));
            let live = probe::live_bytes();
            let pass = run_queue(*spec, &inputs, &mut spans, &host.cpus);
            if round == 0 {
                records[qi].leaked_bytes = probe::live_bytes().saturating_sub(live);
            }
            setup += pass.setup;
            if let Some(w) = &pass.wrong {
                wrong.push(format!("{} round {round}: {w}", QUEUES[qi]));
            }
            records[qi].passes.push(pass);
        }
        setups.push(setup.as_secs_f64());
        let wall = t.elapsed().as_secs_f64() * host.available_parallelism as f64;
        steal_shares.push((report::steal_s() - stolen) / wall);
        if round == 0 {
            peak_rss = report::peak_rss_mib();
        }
        round += 1;
        if !wrong.is_empty() {
            break;
        }
    }

    let attempted: u64 = records
        .iter()
        .flat_map(|r| &r.passes)
        .map(|p| p.attempted)
        .sum();
    let failed: u64 = records
        .iter()
        .flat_map(|r| &r.passes)
        .map(|p| p.failed)
        .sum();
    // Calls of each round that did not serve their operation (failed
    // calls and false empties), over all nine queues.
    let round_missed: Vec<u64> = (0..round)
        .map(|i| records.iter().map(|r| r.passes[i].missed()).sum())
        .collect();
    let mut metrics = Metrics::default();
    #[cfg(feature = "traced")]
    let (more_attempted, more_failed) =
        traced_metrics(&args, &records, &mut spans, &mut metrics, &host);
    #[cfg(not(feature = "traced"))]
    let (more_attempted, more_failed) = {
        metrics.push("setup_s", median(&setups), "s");
        for (name, rec) in QUEUES.iter().zip(&records) {
            metrics.push(format!("{name}.mops"), rec.median_of(Pass::mops), "M/s");
        }
        // Ranks are replayed on one thread, where they are exact; every
        // queue that guarantees a bound is checked against it. A replay's
        // result does not depend on timing, so the worker threads share
        // the replays, longest (the ranked queues) first.
        let order: Vec<&str> = RANKED
            .iter()
            .chain(QUEUES.iter().filter(|q| !RANKED.contains(q)))
            .copied()
            .collect();
        let next = AtomicUsize::new(0);
        let mut replays: Vec<(usize, (f64, Option<String>))> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        let mut done = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(name) = order.get(i) else {
                                return done;
                            };
                            done.push((i, rank_replay(name, args.seed)));
                        }
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("rank replay panicked"))
                .collect()
        });
        replays.sort_by_key(|r| r.0);
        for (i, (mean, violation)) in replays {
            let name = order[i];
            if RANKED.contains(&name) {
                metrics.push(format!("{name}.rank_mean"), mean, "rank");
            }
            wrong.extend(violation);
        }
        // The median round's share of calls that served their operation:
        // a systematic failure or false empty moves it, a burst of false
        // empties in a few rounds (a preempted inserter holding a DLSM
        // lock) does not, and shows in the per-round lines below.
        let round_ok: Vec<f64> = (0..round)
            .map(|i| {
                let tried: u64 = records.iter().map(|r| r.passes[i].attempted).sum();
                100.0 * ratio((tried - round_missed[i]) as f64, tried as f64)
            })
            .collect();
        metrics.push("ok_ops_pct", median(&round_ok), "%");
        metrics.push("peak_rss_mb", peak_rss, "MiB");
        (0, 0)
    };
    let (attempted, failed) = (attempted + more_attempted, failed + more_failed);
    println!(
        "# rounds {round}, setup_s {}, peak_rss_mb {peak_rss}",
        median(&setups)
    );
    for (what, count) in [
        ("failed calls", (|p: &Pass| p.failed) as fn(&Pass) -> u64),
        ("false empties", |p: &Pass| p.false_empties),
    ] {
        let by_queue: Vec<String> = QUEUES
            .iter()
            .zip(&records)
            .map(|(n, r)| format!("{n}={}", r.passes.iter().map(count).sum::<u64>()))
            .collect();
        println!("# {what} per queue: {}", by_queue.join(" "));
    }
    let per_round: Vec<String> = round_missed.iter().map(u64::to_string).collect();
    println!(
        "# failed calls and false empties per round: {}",
        per_round.join(" ")
    );
    // CPU time the hypervisor took from this machine, as a share of the
    // round's wall time on all its cores.
    let steal: Vec<String> = steal_shares.iter().map(|x| format!("{x:.3}")).collect();
    println!("# steal share per round: {}", steal.join(" "));
    for (name, rec) in QUEUES.iter().zip(&records) {
        let per_round: Vec<String> = rec
            .passes
            .iter()
            .map(|p| format!("{:.4}", p.mops()))
            .collect();
        println!("# {name} mops per round: {}", per_round.join(" "));
    }
    for w in &wrong {
        eprintln!("wrong answer: {w}");
    }
    let correct = wrong.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    );
    if !correct {
        std::process::exit(1);
    }
}

/// Per-layer metrics of the traced build (all but `trace_overhead`,
/// which `run.py` adds from an untraced run of the same workload).
#[cfg(feature = "traced")]
fn traced_metrics(
    args: &Args,
    records: &[QueueRecord],
    spans: &mut [Spans],
    metrics: &mut Metrics,
    host: &Host,
) -> (u64, u64) {
    use probe::Kind;

    // Handle-boundary latency, emptiness and application waste.
    for (qi, (name, rec)) in QUEUES.iter().zip(records).enumerate() {
        let mut ins: Vec<u32> = Vec::new();
        let mut del: Vec<u32> = Vec::new();
        let mut empty = 0u64;
        for s in spans
            .iter()
            .flat_map(|s| s.spans())
            .filter(|s| s.subject as usize == qi)
        {
            match s.kind {
                k if k == Kind::Insert as u8 => ins.push(s.dur_ns),
                k if k == Kind::DeleteHit as u8 => del.push(s.dur_ns),
                k if k == Kind::DeleteEmpty as u8 => {
                    del.push(s.dur_ns);
                    empty += 1;
                }
                _ => {}
            }
        }
        ins.sort_unstable();
        del.sort_unstable();
        for (op, v) in [("insert", &ins), ("delete", &del)] {
            metrics.push(
                format!("{name}.{op}_ns.p50"),
                report::quantile_sorted(v, 0.5),
                "ns",
            );
            metrics.push(
                format!("{name}.{op}_ns.p999"),
                report::quantile_sorted(v, 0.999),
                "ns",
            );
        }
        metrics.push(
            format!("{name}.empty_share"),
            ratio(empty as f64, del.len() as f64),
            "share",
        );
        metrics.push(
            format!("{name}.failed_share"),
            ratio(
                rec.passes.iter().map(|p| p.missed() as f64).sum(),
                rec.attempted(),
            ),
            "share",
        );
        metrics.push(
            format!("{name}.leaked_mb"),
            rec.leaked_bytes as f64 / 1048576.0,
            "MiB",
        );
        let (stale, pops) = rec.passes.iter().fold((0.0, 0.0), |a, p| {
            (a.0 + p.stale as f64, a.1 + p.pops as f64)
        });
        metrics.push(
            format!("{name}.stale_pop_share"),
            ratio(stale, pops),
            "share",
        );
        metrics.push(
            format!("{name}.setup_s"),
            rec.median_of(|p| p.setup.as_secs_f64()),
            "s",
        );
        println!(
            "# spans {name}: insert {} delete {} empty {}",
            ins.len(),
            del.len(),
            empty
        );
    }

    // The layer ladder on the uniform stream of this seed.
    let (prefill, ops) = inputs::uniform(args.seed, ladder::LADDER_OPS);
    let lad = ladder::run(
        &prefill,
        &ops,
        3,
        Duration::from_secs_f64(args.seconds / 2.0),
        &mut spans[0],
    );
    for (name, ns) in ladder::RUNGS.iter().zip(lad.ns_per_op) {
        metrics.push(format!("rung.{name}.ns_per_op"), ns, "ns");
    }
    for (name, ns) in ladder::marginals(&lad) {
        metrics.push(name, ns, "ns");
    }
    println!("# ladder passes {}", lad.passes);

    // Telemetry counters, attributed by snapshot deltas around each
    // queue's fixed work.
    let rec = |n: &str| &records[QUEUES.iter().position(|q| *q == n).expect("queue in set")];
    let ev = |qs: &[&str], e: Event| qs.iter().map(|q| rec(q).events(e)).sum::<f64>();
    let kops = |qs: &[&str]| qs.iter().map(|q| rec(q).attempted()).sum::<f64>() / 1000.0;
    let klsm = ["klsm128", "klsm4096"];
    let skip = ["linden", "spray"];
    let mq = ["multiqueue", "mq-sticky"];
    let pairs: [(&str, f64, &'static str); 10] = [
        (
            "slsm.pivot_rebuilds_per_kop",
            ratio(ev(&klsm, Event::SlsmPivotRebuild), kops(&klsm)),
            "1/kop",
        ),
        (
            "slsm.lost_races_per_kop",
            ratio(ev(&klsm, Event::SlsmLostRace), kops(&klsm)),
            "1/kop",
        ),
        (
            "dlsm.spy_success_ratio",
            ratio(
                ev(&["dlsm"], Event::DlsmSpySteal),
                ev(&["dlsm"], Event::DlsmSpyAttempt),
            ),
            "ratio",
        ),
        (
            "dlsm.items_per_steal",
            ratio(
                ev(&["dlsm"], Event::DlsmSpyItems),
                ev(&["dlsm"], Event::DlsmSpySteal),
            ),
            "items",
        ),
        (
            "lsm.pool_hit_ratio",
            ratio(
                ev(&["dlsm"], Event::LsmPoolHit),
                ev(&["dlsm"], Event::LsmPoolHit) + ev(&["dlsm"], Event::LsmPoolMiss),
            ),
            "ratio",
        ),
        (
            "skiplist.restarts_per_kop",
            ratio(ev(&skip, Event::SkiplistFindRestart), kops(&skip)),
            "1/kop",
        ),
        (
            "skiplist.cas_retries_per_kop",
            ratio(ev(&skip, Event::SkiplistCasRetry), kops(&skip)),
            "1/kop",
        ),
        (
            "fc.ops_per_combine",
            ratio(
                ev(&["fc-mound"], Event::FcOpsCombined),
                ev(&["fc-mound"], Event::FcCombineRound),
            ),
            "ops",
        ),
        (
            "mq.empty_samples_per_kop",
            ratio(ev(&mq, Event::MqEmptySample), kops(&mq)),
            "1/kop",
        ),
        (
            "mq.items_per_flush",
            ratio(
                ev(&["mq-sticky"], Event::MqBufferFlushItems),
                ev(&["mq-sticky"], Event::MqBufferFlush),
            ),
            "items",
        ),
    ];
    for (name, v, unit) in pairs {
        metrics.push(name, v, unit);
    }

    let dropped: u64 = spans.iter().map(|s| s.dropped()).sum();
    if let Some(dir) = &args.out {
        if let Err(e) = write_spans(dir, args, spans, host, dropped) {
            eprintln!("warning: could not write spans to {}: {e}", dir.display());
        }
    }
    (lad.attempted, lad.failed)
}

/// Write the spans kept in memory: `spans-<workload>-<seed>.bin` holds
/// 16-byte little-endian records (`start_ns: u64, dur_ns: u32, kind: u8,
/// subject: u8, round: u8, thread: u8`), and the `.json` beside it names
/// the subjects and kinds.
#[cfg(feature = "traced")]
fn write_spans(
    dir: &std::path::Path,
    args: &Args,
    spans: &[Spans],
    host: &Host,
    dropped: u64,
) -> std::io::Result<()> {
    use std::io::Write;
    std::fs::create_dir_all(dir)?;
    let stem = format!("spans-{}-{}", args.workload.name(), args.seed);
    let mut bin = std::io::BufWriter::new(std::fs::File::create(dir.join(format!("{stem}.bin")))?);
    let mut count = 0u64;
    for s in spans.iter().flat_map(|s| s.spans()) {
        bin.write_all(&s.start_ns.to_le_bytes())?;
        bin.write_all(&s.dur_ns.to_le_bytes())?;
        bin.write_all(&[s.kind, s.subject, s.round, s.thread])?;
        count += 1;
    }
    bin.flush()?;
    let names = |xs: &[&str]| {
        xs.iter()
            .map(|x| report::json_str(x))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let meta = format!(
        "{{\"workload\": {}, \"seed\": {}, \"host\": {}, \"spans\": {count}, \"dropped\": {dropped}, \"kinds\": [\"insert\", \"delete_hit\", \"delete_empty\", \"rung\"], \"queues\": [{}], \"rungs\": [{}]}}\n",
        report::json_str(args.workload.name()),
        args.seed,
        host.to_json(true),
        names(&QUEUES),
        names(&ladder::RUNGS),
    );
    std::fs::write(dir.join(format!("{stem}.json")), meta)
}
