//! Facts about the host recorded with every run, so drift between run sets
//! is visible: cores, revision, steal time, a calibration loop, peak RSS.

use std::time::Instant;

/// Logical cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The revision being measured: `HEAD` of an enclosing git checkout, or
/// `unknown` when the tree is not a repository (an exported copy).
pub fn revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head,
        Err(_) => return "unknown".to_owned(),
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_owned(),
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(reference))
                    .map(|l| l.split(' ').next().unwrap_or_default().to_owned())
            })
            .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned()),
    }
}

/// Aggregate CPU jiffies from the first line of `/proc/stat`:
/// `(steal, total)`.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted inside user/nice.
    let steal = *fields.get(7)?;
    let total = fields.iter().take(8).sum();
    Some((steal, total))
}

/// Share of CPU time the hypervisor stole between `start()` and `share()`.
pub struct StealMeter(Option<(u64, u64)>);

impl StealMeter {
    pub fn start() -> Self {
        StealMeter(cpu_jiffies())
    }

    /// Stolen / total jiffies since `start` (0 when `/proc/stat` is
    /// unreadable or no time passed).
    pub fn share(&self) -> f64 {
        match (self.0, cpu_jiffies()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
            _ => 0.0,
        }
    }
}

/// Milliseconds a fixed, program-independent integer loop takes: the
/// median of five repetitions. A change in this figure between run sets
/// is the host, not the code under test.
pub fn calib_ms() -> f64 {
    let mut times: Vec<f64> = (0..5)
        .map(|rep| {
            let started = Instant::now();
            let mut x: u64 = std::hint::black_box(0x9E37_79B9_7F4A_7C15 ^ rep);
            for i in 0..2_000_000u64 {
                x = (x ^ (x >> 29))
                    .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                    .wrapping_add(i);
            }
            std::hint::black_box(x);
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[2]
}

/// Peak resident set of this process in MiB (`VmHWM`), if readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
