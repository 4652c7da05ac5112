//! Host-side measurement: wall and process CPU clocks, peak memory, and
//! the order statistics the metrics report.

use std::time::Instant;

/// One timed call: host wall time and the process's user+sys CPU time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// User+sys CPU seconds of every thread of the process.
    pub cpu_s: f64,
}

/// Runs `f` and returns its result with the wall and CPU time it took.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, Sample) {
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let out = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    (out, Sample { wall_s, cpu_s })
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User+sys CPU seconds consumed so far by every thread of this process,
/// at nanosecond resolution.
///
/// # Panics
///
/// Panics if the clock cannot be read, which Linux never refuses for
/// this clock id.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, matching `#[repr(C)]` above), and
    // `clock_gettime` writes only within it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
///
/// # Errors
///
/// Fails when `/proc/self/status` cannot be read or lacks the field.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The median of `xs` (the mean of the middle two for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of `xs`; 0 for an
/// empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn clocks_advance() {
        let (_, s) = measure(|| (0..2_000_000u64).map(std::hint::black_box).sum::<u64>());
        assert!(s.wall_s > 0.0 && s.cpu_s > 0.0, "{s:?}");
        assert!(peak_rss_mib().expect("linux /proc") > 0.0);
    }
}
