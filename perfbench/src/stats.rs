//! Statistics and process probes: percentiles, the open-loop schedule,
//! process CPU time and context switches (`getrusage`), and the
//! `/proc/self/status` fields the report needs.

use std::time::Duration;

/// Nearest-rank percentile of an ascending slice, `p` in `[0, 1]`.
/// Empty input gives 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of `values`: their total over their count, so a value moves
/// smoothly as the share of slow samples changes, where a median of
/// bimodal samples jumps between the modes. Empty input gives 0.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// A fixed-rate open-loop schedule. Tuples leave in groups of `group`;
/// group `g` is due `g * group / rate` seconds after the phase starts, so
/// tuple `i` is due when its group is, whatever the system does.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Tuples per second.
    pub rate: u64,
    /// Tuples per send.
    pub group: usize,
}

impl Schedule {
    /// Offset of tuple `i`'s due time from the phase start.
    pub fn due(&self, i: usize) -> Duration {
        let first = (i / self.group * self.group) as u128;
        Duration::from_nanos((first * 1_000_000_000 / self.rate as u128) as u64)
    }
}

/// Event-to-result latency in microseconds: from when the tuple was due
/// (not when it was sent, so generator lateness counts) to `arrived`,
/// both measured from the phase start.
pub fn latency_us(due: Duration, arrived: Duration) -> f64 {
    arrived.saturating_sub(due).as_nanos() as f64 / 1e3
}

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` as Linux lays it out on 64-bit targets.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
/// Index of `ru_nvcsw` in `Rusage::rest` (after maxrss, ixrss, idrss,
/// isrss, minflt, majflt, nswap, inblock, oublock, msgsnd, msgrcv,
/// nsignals); `ru_nivcsw` follows it.
const NVCSW: usize = 12;

/// Process-wide resource counters at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User plus system CPU time of every thread, live or exited.
    pub cpu_ns: u64,
    /// Voluntary context switches (a thread blocked).
    pub ctx_voluntary: u64,
    /// Involuntary context switches (a thread was preempted).
    pub ctx_involuntary: u64,
}

/// Read the process's CPU time and context switches.
pub fn usage() -> Usage {
    let mut ru = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        rest: [0; 14],
    };
    // SAFETY: `ru` is a live, writable value whose layout matches the
    // kernel's `struct rusage` on 64-bit Linux (two timevals then fourteen
    // longs); getrusage writes only within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    let ns = |t: &Timeval| t.tv_sec as u64 * 1_000_000_000 + t.tv_usec as u64 * 1_000;
    Usage {
        cpu_ns: ns(&ru.ru_utime) + ns(&ru.ru_stime),
        ctx_voluntary: ru.rest[NVCSW] as u64,
        ctx_involuntary: ru.rest[NVCSW + 1] as u64,
    }
}

/// A numeric field of `/proc/self/status` (e.g. `VmHWM` in kB, `Threads`).
pub fn proc_status(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn mean_is_total_over_count() {
        // Three fast setups and two slow ones: the median is a fast one,
        // the mean moves with the share of slow ones.
        assert_eq!(median(&[0.07, 0.07, 0.07, 0.11, 0.11]), 0.07);
        assert!((mean(&[0.07, 0.07, 0.07, 0.11, 0.11]) - 0.086).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn schedule_groups_share_a_due_time() {
        let s = Schedule {
            rate: 1_000,
            group: 10,
        };
        assert_eq!(s.due(0), Duration::ZERO);
        assert_eq!(s.due(9), Duration::ZERO);
        assert_eq!(s.due(10), Duration::from_millis(10));
        assert_eq!(s.due(25), Duration::from_millis(20));
    }

    #[test]
    fn latency_counts_from_due_time_and_never_goes_negative() {
        // Sent 300 µs late and answered 200 µs after sending: the latency
        // is 500 µs, lateness included.
        let due = Duration::from_micros(1_000);
        assert_eq!(latency_us(due, Duration::from_micros(1_500)), 500.0);
        assert_eq!(latency_us(due, Duration::from_micros(900)), 0.0);
    }

    #[test]
    fn cpu_time_grows_with_work_done() {
        let before = usage();
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed() < Duration::from_millis(30) {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let spent = usage().cpu_ns - before.cpu_ns;
        // Lenient: another test thread may share the core.
        assert!(spent >= 10_000_000, "30 ms of spinning read as {spent} ns");
        assert!(spent < 10_000_000_000, "implausible CPU time {spent} ns");
    }

    #[test]
    fn proc_status_reads_numeric_fields() {
        assert!(proc_status("Threads").unwrap() >= 1);
        assert!(proc_status("VmHWM").unwrap() > 0);
        assert_eq!(proc_status("NoSuchField"), None);
    }
}
