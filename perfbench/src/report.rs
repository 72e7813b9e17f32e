//! Medians, the host record and the one-line JSON result.

use std::fmt::Write as _;

/// Median of the samples (mean of the middle two for an even count);
/// 0 for none.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `q`-quantile of sorted samples, nearest rank; 0 for none.
#[cfg_attr(not(feature = "traced"), allow(dead_code))]
pub fn quantile_sorted(sorted: &[u32], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    f64::from(sorted[idx])
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Escape a string for a JSON literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
pub fn json_num(x: f64) -> String {
    assert!(x.is_finite(), "metric value {x} is not a finite number");
    format!("{x:?}")
}

/// Named metrics with units, in insertion order.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(n),
                    json_num(*v),
                    json_str(u)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// The machine the run used.
pub struct Host {
    pub available_parallelism: usize,
    pub cpu_model: String,
    pub kernel_tier: &'static str,
    pub threads: usize,
    /// The CPU worker thread `t` is pinned to: the first `threads` CPUs
    /// this process may run on.
    pub cpus: Vec<usize>,
}

impl Host {
    pub fn detect(threads: usize) -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, m)| m.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        Self {
            available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            kernel_tier: lsm::active_tier().name(),
            threads,
            cpus: allowed_cpus().into_iter().take(threads).collect(),
        }
    }

    pub fn oversubscribed(&self) -> bool {
        self.threads > self.available_parallelism || self.cpus.len() < self.threads
    }

    pub fn to_json(&self, traced: bool) -> String {
        format!(
            "{{\"available_parallelism\": {}, \"cpu_model\": {}, \"kernel_tier\": {}, \"threads\": {}, \"cpus\": {:?}, \"oversubscribed\": {}, \"traced\": {}}}",
            self.available_parallelism,
            json_str(&self.cpu_model),
            json_str(self.kernel_tier),
            self.threads,
            self.cpus,
            self.oversubscribed(),
            traced
        )
    }
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time stolen from this machine by its hypervisor so far, summed
/// over all CPUs, in seconds (`/proc/stat`, 100 ticks per second); 0
/// where the kernel does not report it.
pub fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("cpu "))
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|t| t.parse::<f64>().ok())
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Words of glibc's `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPUs this process may run on, in increasing order.
fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed; pid
    // 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Vec::new();
    }
    (0..CPU_SET_WORDS * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Pin the calling thread to `cpu`. Worker threads are spawned for every
/// pass, and a new thread starts on its parent's CPU: unpinned, both
/// workers often shared one CPU for a whole pass while the other stayed
/// idle, which made lock-based queues about 1.7x faster and thread-local
/// ones slower than on two CPUs, changing from run to run.
pub fn pin_current_thread(cpu: usize) {
    let mut mask = [0u64; CPU_SET_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed; pid
    // 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    assert_eq!(rc, 0, "could not pin a worker thread to CPU {cpu}");
}
