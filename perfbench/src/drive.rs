//! One queue's pass through one workload: build, prefill, run the fixed
//! work closed-loop through the public handle API, then check the
//! outputs. Every call into the queue goes through a handle.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use pq_traits::telemetry::{self, EventCounts};
use pq_traits::{ConcurrentPq, Item, PqHandle};

use crate::inputs::{Digest, Graph};
use crate::probe::{Kind, Spans};
use crate::report::pin_current_thread;

/// How long the `split` deleter keeps calling a queue that holds items
/// but returns `None` before the pass fails. A whole pass normally takes
/// well under a second.
const STUCK: Duration = Duration::from_secs(10);

/// Outcome of one queue's pass in one round.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Queue construction and prefill.
    pub setup: Duration,
    /// Wall time of the fixed work.
    pub elapsed: Duration,
    /// Handle calls made in the fixed work.
    pub attempted: u64,
    /// Calls that failed: deletes still unserved when a pass gave up,
    /// items missing at the final drain, or every call of a wrong solve.
    pub failed: u64,
    /// `None` from a provably non-empty queue (`split`). The relaxed
    /// handle contract allows it, so the deleter calls again; it counts
    /// against `ok_ops_pct`, not as a failed operation.
    pub false_empties: u64,
    /// Units of work done: successful operations, or solved vertices.
    pub work: f64,
    /// `delete_min` calls that returned an item (`sssp`).
    #[cfg_attr(not(feature = "traced"), allow(dead_code))]
    pub pops: u64,
    /// Pops whose label was already improved (`sssp`).
    #[cfg_attr(not(feature = "traced"), allow(dead_code))]
    pub stale: u64,
    /// Telemetry events of the fixed work (zero in the untraced build).
    pub events: EventCounts,
    /// A wrong answer, described.
    pub wrong: Option<String>,
}

impl Pass {
    /// Millions of work units per second.
    pub fn mops(&self) -> f64 {
        self.work / self.elapsed.as_secs_f64() / 1e6
    }

    /// Calls that did not serve their operation.
    pub fn missed(&self) -> u64 {
        self.failed + self.false_empties
    }
}

/// Remove everything left in the queue once it is quiescent.
fn drain<H: PqHandle>(h: &mut H) -> Digest {
    let mut d = Digest::default();
    let mut empties = 0;
    while empties < 3 {
        match h.delete_min() {
            Some(it) => {
                d.add(it);
                empties = 0;
            }
            None => {
                h.flush();
                empties += 1;
            }
        }
    }
    d
}

/// Compare what went in with what came out, counting a mismatch as
/// failed operations.
fn conserve(pass: &mut Pass, inserted: Digest, removed: Digest) {
    if inserted != removed {
        pass.failed += inserted.count.abs_diff(removed.count).max(1);
        pass.wrong = Some(format!(
            "conservation: inserted {} items, deleted and drained {} (digests {:#x} vs {:#x})",
            inserted.count, removed.count, inserted.sum, removed.sum
        ));
    }
}

/// `split`: thread 0 prefills and then only inserts, thread 1 only
/// deletes; thread `t` runs on `cpus[t]`. The deleter removes at most
/// `prefill.len() / 2` items, so the queue is never below half its
/// prefill and every `None` is a false empty, after which the deleter
/// calls again. A delete still unserved after `STUCK` fails the pass.
pub fn split<Q: ConcurrentPq>(
    q: &Q,
    built: Instant,
    prefill: &[Item],
    inserts: &[Item],
    deletes: usize,
    spans: &mut [Spans],
    cpus: &[usize],
) -> Pass {
    assert!(
        deletes <= prefill.len() / 2,
        "split work would empty the queue"
    );
    let [ins_spans, del_spans] = spans else {
        panic!("split runs two threads")
    };
    let barrier = Barrier::new(2);
    let ((setup_done, events, ins_start, ins_end), (del_start, del_end, deleted, empties, stuck)) =
        std::thread::scope(|s| {
            let barrier = &barrier;
            let inserter = s.spawn(move || {
                pin_current_thread(cpus[0]);
                let mut h = q.handle();
                for it in prefill {
                    h.insert(it.key, it.value);
                }
                h.flush();
                let setup_done = Instant::now();
                let events = telemetry::snapshot();
                barrier.wait();
                let start = Instant::now();
                for it in inserts {
                    let t = ins_spans.start();
                    h.insert(it.key, it.value);
                    ins_spans.end(t, Kind::Insert);
                }
                h.flush();
                (setup_done, events, start, Instant::now())
            });
            let deleter = s.spawn(move || {
                pin_current_thread(cpus[1]);
                let mut h = q.handle();
                let mut deleted = Digest::default();
                let (mut empties, mut stuck) = (0u64, false);
                barrier.wait();
                let start = Instant::now();
                'work: for _ in 0..deletes {
                    loop {
                        let t = del_spans.start();
                        let got = h.delete_min();
                        match got {
                            Some(it) => {
                                del_spans.end(t, Kind::DeleteHit);
                                deleted.add(it);
                                break;
                            }
                            None => {
                                del_spans.end(t, Kind::DeleteEmpty);
                                empties += 1;
                                if empties % 4096 == 0 && start.elapsed() > STUCK {
                                    stuck = true;
                                    break 'work;
                                }
                                std::hint::spin_loop();
                            }
                        }
                    }
                }
                let end = Instant::now();
                h.flush();
                (start, end, deleted, empties, stuck)
            });
            (
                inserter.join().expect("inserter thread panicked"),
                deleter.join().expect("deleter thread panicked"),
            )
        });
    let mut pass = Pass {
        setup: setup_done - built,
        elapsed: ins_end.max(del_end) - ins_start.min(del_start),
        attempted: (inserts.len() + deletes) as u64 + empties,
        failed: deletes as u64 - deleted.count,
        false_empties: empties,
        work: (inserts.len() as u64 + deleted.count) as f64,
        events: telemetry::snapshot().since(&events),
        ..Pass::default()
    };
    if stuck {
        pass.wrong = Some(format!(
            "split: delete_min returned None for {STUCK:?} while the queue held at least {} items",
            prefill.len() - deletes
        ));
    }
    let inserted = Digest::of(prefill).merge(Digest::of(inserts));
    let drained = drain(&mut q.handle());
    conserve(&mut pass, inserted, deleted.merge(drained));
    pass
}

/// `sssp`: parallel label-correcting shortest paths from vertex 0 on
/// two threads, thread `t` on `cpus[t]`, checked against sequential
/// Dijkstra.
pub fn sssp<Q: ConcurrentPq>(
    q: &Q,
    built: Instant,
    graph: &Graph,
    reference: &[u64],
    spans: &mut [Spans],
    cpus: &[usize],
) -> Pass {
    let setup = built.elapsed();
    let dist: Vec<AtomicU64> = (0..graph.vertices())
        .map(|_| AtomicU64::new(u64::MAX))
        .collect();
    dist[0].store(0, Ordering::Relaxed);
    // Labels queued or being expanded; the search ends at zero.
    let outstanding = AtomicUsize::new(1);
    let barrier = Barrier::new(spans.len());
    let events = telemetry::snapshot();
    let results: Vec<_> = std::thread::scope(|s| {
        let workers: Vec<_> = spans
            .iter_mut()
            .enumerate()
            .map(|(t, sp)| {
                let (dist, outstanding, barrier) = (&dist, &outstanding, &barrier);
                s.spawn(move || {
                    pin_current_thread(cpus[t]);
                    let mut h = q.handle();
                    if t == 0 {
                        h.insert(0, 0);
                        h.flush();
                    }
                    let (mut inserts, mut pops, mut empties, mut stale) = (0u64, 0u64, 0u64, 0u64);
                    barrier.wait();
                    let start = Instant::now();
                    loop {
                        let tm = sp.start();
                        let got = h.delete_min();
                        let Some(item) = got else {
                            sp.end(tm, Kind::DeleteEmpty);
                            empties += 1;
                            if outstanding.load(Ordering::Acquire) == 0 {
                                break;
                            }
                            // Publish buffered inserts before waiting on them.
                            h.flush();
                            std::hint::spin_loop();
                            continue;
                        };
                        sp.end(tm, Kind::DeleteHit);
                        pops += 1;
                        let (d, u) = (item.key, item.value as usize);
                        if d > dist[u].load(Ordering::Acquire) {
                            stale += 1;
                        } else {
                            for &(v, w) in graph.neighbors(u) {
                                let nd = d + w as u64;
                                let slot = &dist[v as usize];
                                let mut cur = slot.load(Ordering::Acquire);
                                while nd < cur {
                                    match slot.compare_exchange_weak(
                                        cur,
                                        nd,
                                        Ordering::AcqRel,
                                        Ordering::Acquire,
                                    ) {
                                        Ok(_) => {
                                            outstanding.fetch_add(1, Ordering::AcqRel);
                                            let ti = sp.start();
                                            h.insert(nd, v as u64);
                                            sp.end(ti, Kind::Insert);
                                            inserts += 1;
                                            break;
                                        }
                                        Err(now) => cur = now,
                                    }
                                }
                            }
                        }
                        outstanding.fetch_sub(1, Ordering::AcqRel);
                    }
                    (start, Instant::now(), inserts, pops, empties, stale)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("sssp worker panicked"))
            .collect()
    });
    let start = results
        .iter()
        .map(|r| r.0)
        .min()
        .expect("at least one worker");
    let end = results
        .iter()
        .map(|r| r.1)
        .max()
        .expect("at least one worker");
    let (inserts, pops, empties, stale) = results.iter().fold((0, 0, 0, 0), |a, r| {
        (a.0 + r.2, a.1 + r.3, a.2 + r.4, a.3 + r.5)
    });
    let mut pass = Pass {
        setup,
        elapsed: end - start,
        attempted: inserts + pops + empties,
        work: graph.vertices() as f64,
        pops,
        stale,
        events: telemetry::snapshot().since(&events),
        ..Pass::default()
    };
    let wrong = dist
        .iter()
        .zip(reference)
        .filter(|(d, r)| d.load(Ordering::Relaxed) != **r)
        .count();
    if wrong > 0 {
        pass.failed = pass.attempted;
        pass.wrong = Some(format!("sssp: {wrong} vertices with wrong distances"));
    }
    pass
}
