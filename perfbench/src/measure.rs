//! Statistics over timing samples and process-level counters read from the
//! kernel (`/proc/self`, `getrusage`).

/// Linear-interpolated quantile `q` in `[0, 1]` of `sorted` (ascending).
/// Returns 0.0 for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (0.0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// Percentiles tried for a tail figure, highest first.
const TAIL_LADDER: [f64; 8] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile of the ladder that leaves at least ten samples
/// beyond it, and its value: `(percentile, value)`. With fewer than twenty
/// samples the median is the best tail figure there is.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let n = s.len() as f64;
    let pct = TAIL_LADDER
        .into_iter()
        .find(|p| n * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0);
    (pct, quantile(&s, pct / 100.0))
}

/// Bytes this process has passed to `write`-like system calls so far
/// (`wchar` in `/proc/self/io`); 0 where the file is unavailable.
pub fn written_bytes() -> u64 {
    proc_field("/proc/self/io", "wchar:")
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:") as f64 / 1024.0
}

fn proc_field(path: &str, key: &str) -> u64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

/// CPU time and involuntary context switches of this process, summed over
/// all its threads.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User plus system CPU seconds.
    pub cpu_s: f64,
    /// Involuntary context switches (preemptions).
    pub invol_ctx_switches: u64,
}

impl std::ops::Sub for Usage {
    type Output = Usage;
    fn sub(self, rhs: Usage) -> Usage {
        Usage {
            cpu_s: self.cpu_s - rhs.cpu_s,
            invol_ctx_switches: self
                .invol_ctx_switches
                .saturating_sub(rhs.invol_ctx_switches),
        }
    }
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` as laid out on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: Timeval,
    stime: Timeval,
    // maxrss, ixrss, idrss, isrss, minflt, majflt, nswap, inblock, oublock,
    // msgsnd, msgrcv, nsignals, nvcsw, nivcsw
    longs: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// Current resource usage of this process (zero if the call fails).
pub fn usage() -> Usage {
    let mut ru = RUsage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` with the C layout of
    // 64-bit Linux (two timevals then fourteen longs), so the kernel writes
    // only inside it; RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    if rc != 0 {
        return Usage::default();
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage {
        cpu_s: secs(&ru.utime) + secs(&ru.stime),
        invol_ctx_switches: u64::try_from(ru.longs[13]).unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert!((quantile(&s, 0.5) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        let (pct, _) = tail(&v);
        assert_eq!(pct, 99.0);
        let (pct, _) = tail(&v[..15]);
        assert_eq!(pct, 50.0);
    }

    #[test]
    fn usage_reads_cpu_time() {
        let before = usage();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!((usage() - before).cpu_s >= 0.0);
        assert!(x > 0);
    }
}
