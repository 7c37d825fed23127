//! Process-level measurements (CPU time, peak resident memory) and the
//! order statistics the benchmark reports.

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals followed by fourteen
/// `long` counters the benchmark does not read.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    _rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User plus system CPU seconds consumed so far by every thread of this
/// process, at microsecond resolution.
#[must_use]
pub fn cpu_seconds() -> f64 {
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        _rest: [0; 14],
    };
    // SAFETY: `usage` is a properly sized and aligned `struct rusage`
    // that getrusage fills in; RUSAGE_SELF cannot fail on Linux.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&usage.utime) + secs(&usage.stime)
}

/// The process's peak resident set size so far (`VmHWM`), in MiB.
///
/// # Errors
///
/// Returns a message when `/proc/self/status` is unreadable or has no
/// `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// Slots of the speed probe's table: 4 MiB of `u64`, larger than a core's
/// private caches, so the probe feels the shared-cache and memory
/// contention that slows the pipeline.
const PROBE_SLOTS: usize = 1 << 19;

/// Random read-modify-writes per timed probe (about 9 ms on a quiet host).
const PROBE_UPDATES: usize = 1 << 21;

/// Probe time, in seconds, that defines the reference host speed.
pub const PROBE_REFERENCE_S: f64 = 0.009;

/// A fixed kernel, kept with the benchmark and never changed by the
/// program, that measures how fast the host runs right now.
///
/// On a shared host the speed of a core drifts over minutes as other
/// tenants load the shared caches and memory. A probe timed next to each
/// iteration turns the iteration's wall time into reference seconds: the
/// time it would take when the probe takes [`PROBE_REFERENCE_S`].
pub struct SpeedProbe {
    table: Vec<u64>,
    state: u64,
}

impl SpeedProbe {
    /// A probe with its table resident (every page written).
    #[must_use]
    pub fn new() -> SpeedProbe {
        SpeedProbe {
            table: (0..PROBE_SLOTS as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
            state: 0x2545_F491_4F6C_DD1D,
        }
    }

    /// Wall seconds one run of the kernel takes now. An untimed half run
    /// first brings the table back into cache, so the reading does not
    /// depend on what the work before it left there.
    pub fn measure(&mut self) -> f64 {
        self.run(PROBE_UPDATES / 2);
        let start = std::time::Instant::now();
        self.run(PROBE_UPDATES);
        start.elapsed().as_secs_f64()
    }

    fn run(&mut self, updates: usize) {
        let mask = self.table.len() - 1;
        let mut x = self.state;
        let mut acc = 0u64;
        for _ in 0..updates {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = (x >> 20) as usize & mask;
            acc = acc.wrapping_add(self.table[slot]);
            self.table[slot] = acc ^ x;
        }
        self.state = std::hint::black_box(x ^ acc);
    }

    /// MiB the probe's table keeps resident.
    #[must_use]
    pub fn resident_mb() -> f64 {
        (PROBE_SLOTS * std::mem::size_of::<u64>()) as f64 / (1024.0 * 1024.0)
    }

    /// Converts seconds measured between probe readings `before` and
    /// `after` into reference seconds.
    #[must_use]
    pub fn to_reference(seconds: f64, before: f64, after: f64) -> f64 {
        seconds * PROBE_REFERENCE_S * 2.0 / (before + after)
    }
}

/// Median and quartiles of a sample, computed like Python's
/// `statistics.quantiles(data, n=4)` (the "exclusive" method).
#[derive(Debug, Clone, Copy)]
pub struct Quartiles {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Quartiles {
    /// Quartiles of `values` (which must not be empty).
    #[must_use]
    pub fn of(values: &[f64]) -> Quartiles {
        assert!(!values.is_empty(), "quartiles of an empty sample");
        let mut data = values.to_vec();
        data.sort_by(f64::total_cmp);
        let ld = data.len();
        if ld == 1 {
            return Quartiles {
                q1: data[0],
                median: data[0],
                q3: data[0],
            };
        }
        let m = ld + 1;
        let cut = |i: usize| {
            let j = (i * m / 4).clamp(1, ld - 1);
            // Negative when the clamp moved `j` up: Python extrapolates then.
            let delta = (i * m) as f64 - (j * 4) as f64;
            (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
        };
        Quartiles {
            q1: cut(1),
            median: cut(2),
            q3: cut(3),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let q = Quartiles::of(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        let q = Quartiles::of(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        let q = Quartiles::of(&[2.0, 1.0]);
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
        let q = Quartiles::of(&[4.0]);
        assert_eq!(q.median, 4.0);
    }

    #[test]
    fn process_probes_read_sensible_values() {
        assert!(cpu_seconds() >= 0.0);
        let mut probe = SpeedProbe::new();
        assert!(probe.measure() > 0.0);
        assert!(peak_rss_mb().unwrap() > SpeedProbe::resident_mb());
        // A host running the probe at twice the reference time is half
        // as fast, so two seconds there are one reference second.
        let half_speed = 2.0 * PROBE_REFERENCE_S;
        assert!((SpeedProbe::to_reference(2.0, half_speed, half_speed) - 1.0).abs() < 1e-12);
    }
}
