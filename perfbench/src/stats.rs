//! Pure helpers: percentiles, the open-loop arrival schedule, canonical
//! answer hashing and the result line. Everything here is deterministic and
//! unit-tested; the workloads only combine these with timing.

use psi::{PointI, RectI};

/// The percentiles a tail metric may use, from the median upwards.
const TAIL_LADDER: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// Samples that must lie beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The highest percentile of [`TAIL_LADDER`] that leaves at least
/// [`TAIL_SAMPLES`] samples beyond it, or `None` when even the median does
/// not.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rfind(|q| (n as f64) * (1.0 - q) >= TAIL_SAMPLES as f64 - 1e-9)
}

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a sample in place and return it, for [`percentile`].
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample (mean of the middle two for even sizes).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of an empty sample");
    let s = sorted(v.to_vec());
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Samples per chunk of [`chunked_p99`]: the fewest that support a p99.
pub const P99_CHUNK: usize = 1_000;

/// The median over consecutive chunks of `chunk` samples (in the order
/// taken; a short last chunk is dropped) of each chunk's p99. One stall of
/// the shared host moves one chunk, not the figure. `NaN` when no chunk is
/// full or `chunk` is too small for a p99.
pub fn chunked_p99(samples: &[f64], chunk: usize) -> f64 {
    if supported_tail(chunk).is_none_or(|q| q < 0.99) {
        return f64::NAN;
    }
    let p99s: Vec<f64> = samples
        .chunks_exact(chunk)
        .map(|c| percentile(&sorted(c.to_vec()), 0.99))
        .collect();
    if p99s.is_empty() {
        f64::NAN
    } else {
        median(&p99s)
    }
}

/// SplitMix64: a small seeded generator for the benchmark's own schedule and
/// sampling, independent of the program's generators.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in the open interval `(0, 1)`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }
}

/// Poisson arrivals at a fixed rate: each call to [`Poisson::next_due`]
/// returns the next due time in nanoseconds from the schedule's start.
#[derive(Clone, Debug)]
pub struct Poisson {
    rng: SplitMix,
    mean_gap_ns: f64,
    t_ns: f64,
}

impl Poisson {
    pub fn new(rate_per_s: f64, seed: u64) -> Self {
        assert!(rate_per_s > 0.0, "arrival rate must be positive");
        Poisson {
            rng: SplitMix::new(seed),
            mean_gap_ns: 1e9 / rate_per_s,
            t_ns: 0.0,
        }
    }

    pub fn next_due(&mut self) -> u64 {
        self.t_ns += -self.rng.unit().ln() * self.mean_gap_ns;
        self.t_ns as u64
    }
}

/// FNV-1a, the hash the repository's own load generators use for answer
/// checksums.
pub fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(psi_net::loadgen::FNV_PRIME)
    })
}

pub const FNV_OFFSET: u64 = psi_net::loadgen::FNV_OFFSET;

/// Canonical hash of a kNN answer: its sorted squared distances, so points
/// tied at the k-th distance may differ between indexes and epochs.
pub fn hash_knn(q: &PointI<2>, answer: &[PointI<2>]) -> u64 {
    let mut d: Vec<i128> = answer.iter().map(|p| q.dist_sq(p)).collect();
    d.sort_unstable();
    d.iter()
        .fold(fnv(FNV_OFFSET, b"knn"), |h, x| fnv(h, &x.to_le_bytes()))
}

/// Canonical hash of a range-list answer: its points in sorted order, so
/// the order a traversal happens to produce does not matter.
pub fn hash_points(answer: &[PointI<2>]) -> u64 {
    let mut pts: Vec<[i64; 2]> = answer.iter().map(|p| p.coords).collect();
    pts.sort_unstable();
    pts.iter().fold(fnv(FNV_OFFSET, b"list"), |h, c| {
        fnv(fnv(h, &c[0].to_le_bytes()), &c[1].to_le_bytes())
    })
}

/// Canonical hash of a range count.
pub fn hash_count(count: usize) -> u64 {
    fnv(fnv(FNV_OFFSET, b"count"), &(count as u64).to_le_bytes())
}

/// A square around `centre` whose area equals the disc of radius
/// `sqrt(dist_sq)`, clamped to `[0, max]^2`: it holds about as many points
/// as the disc does.
pub fn square_around(centre: &PointI<2>, dist_sq: i128, max: i64) -> RectI<2> {
    let r = (dist_sq as f64).sqrt();
    let half = (r * std::f64::consts::PI.sqrt() / 2.0).ceil() as i64;
    let lo = psi::Point::new([
        (centre.coords[0] - half).clamp(0, max),
        (centre.coords[1] - half).clamp(0, max),
    ]);
    let hi = psi::Point::new([
        (centre.coords[0] + half).clamp(0, max),
        (centre.coords[1] + half).clamp(0, max),
    ]);
    psi::Rect::from_corners(lo, hi)
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The result line: the last line the benchmark prints. A non-finite value
/// cannot be written as JSON, so it makes the run incorrect instead.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, v, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct && finite,
        attempted.max(1),
        failed,
        body.join(", ")
    )
}

/// The host's CPU time counters (`/proc/stat`, all CPUs): stolen ticks
/// and all ticks.
#[derive(Clone, Copy, Debug)]
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

impl CpuTicks {
    pub fn now() -> Self {
        let line = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = line
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        CpuTicks {
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().take(8).sum(),
        }
    }

    /// Percentage of CPU time the hypervisor gave to other machines since
    /// `earlier`: on a shared host, the main source of run-to-run spread.
    pub fn steal_pct_since(&self, earlier: &CpuTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        100.0 * self.steal.saturating_sub(earlier.steal) as f64 / total.max(1) as f64
    }
}

/// CPU time this process's threads have run, in nanoseconds
/// (`CLOCK_PROCESS_CPUTIME_ID`, threads that have ended included). Under a
/// hypervisor with steal-time accounting the kernel leaves out the time
/// the host gave to other machines, so this moves far less with the host's
/// steal than wall time does.
pub fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: clock_gettime writes one timespec through a valid pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// Run `f`, one set-up, and return its result with the wall seconds and
/// the process's CPU seconds it took.
pub fn time_setup<R>(f: impl FnOnce() -> R) -> (R, (f64, f64)) {
    let cpu = process_cpu_ns();
    let t = std::time::Instant::now();
    let r = f();
    let wall = t.elapsed().as_secs_f64();
    (r, (wall, (process_cpu_ns() - cpu) as f64 / 1e9))
}

/// `setup_s` (median CPU seconds) and `setup.wall_s` (median wall seconds)
/// of a run's set-ups.
pub fn setup_metrics(setups: &[(f64, f64)]) -> (Metric, Metric) {
    let wall: Vec<f64> = setups.iter().map(|s| s.0).collect();
    let cpu: Vec<f64> = setups.iter().map(|s| s.1).collect();
    (
        metric("setup_s", median(&cpu), "s"),
        metric("setup.wall_s", median(&wall), "s"),
    )
}

/// Name prefix of the benchmark's own threads, whose CPU time
/// [`program_cpu_ns`] leaves out.
pub const BENCH_THREAD: &str = "perfbench-";

/// CPU time (ns) of the program's threads: [`process_cpu_ns`] minus the
/// main thread and the threads named with [`BENCH_THREAD`], read from
/// `/proc/self/task/*/schedstat`.
pub fn program_cpu_ns() -> u64 {
    let total = process_cpu_ns();
    let main = std::process::id().to_string();
    let own: u64 = std::fs::read_dir("/proc/self/task")
        .into_iter()
        .flatten()
        .flatten()
        .filter(|task| {
            task.file_name().to_str() == Some(main.as_str())
                || std::fs::read_to_string(task.path().join("comm"))
                    .is_ok_and(|name| name.starts_with(BENCH_THREAD))
        })
        .filter_map(|task| {
            let stat = std::fs::read_to_string(task.path().join("schedstat")).ok()?;
            stat.split_whitespace().next()?.parse::<u64>().ok()
        })
        .sum();
    total.saturating_sub(own)
}

/// Resident set size of this process in MiB, from `/proc/self/status`,
/// read after the allocator has returned its free memory to the system
/// (glibc `malloc_trim`), so it counts memory in use, not what earlier frees
/// happened to leave cached.
pub fn rss_mib() -> f64 {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: malloc_trim takes no pointers and only releases free memory.
    unsafe { malloc_trim(0) };
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmRSS:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psi::Point;
    use std::hint::black_box;

    #[test]
    fn poisson_schedule_realises_its_rate() {
        let rate = 20_000.0;
        let mut s = Poisson::new(rate, 7);
        let n = 200_000;
        let mut last = 0;
        for _ in 0..n {
            let t = s.next_due();
            assert!(t >= last, "due times never go backwards");
            last = t;
        }
        let realised = n as f64 / (last as f64 / 1e9);
        assert!(
            (realised / rate - 1.0).abs() < 0.01,
            "realised {realised} q/s for a {rate} q/s schedule"
        );
        let mut again = Poisson::new(rate, 7);
        let mut first = Poisson::new(rate, 7);
        assert_eq!(
            again.next_due(),
            first.next_due(),
            "same seed, same schedule"
        );
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(supported_tail(9), None);
        assert_eq!(supported_tail(20), Some(0.5));
        assert_eq!(supported_tail(99), Some(0.5));
        assert_eq!(supported_tail(100), Some(0.9));
        assert_eq!(supported_tail(999), Some(0.9));
        assert_eq!(supported_tail(1_000), Some(0.99));
        assert_eq!(supported_tail(10_000), Some(0.999));
        assert_eq!(supported_tail(10_000_000), Some(0.9999));
    }

    #[test]
    fn chunked_p99_is_the_median_chunk_tail() {
        // Three chunks whose p99s are 990, 1990 and 2990 (plus a dropped
        // short tail): the median chunk wins over the outlier chunk.
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        v.extend((1..=1000).map(|x| f64::from(x) + 1000.0));
        v.extend((1..=1000).map(|x| f64::from(x) * 1000.0));
        v.extend([1e12; 10]);
        assert_eq!(chunked_p99(&v, 1000), 1990.0);
        assert!(chunked_p99(&v[..999], 1000).is_nan(), "no full chunk");
        assert!(
            chunked_p99(&v, 500).is_nan(),
            "500 samples cannot carry a p99"
        );
    }

    #[test]
    fn cpu_clocks_count_this_process() {
        let t0 = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu_ns() > t0, "a busy loop takes CPU time");
        // The test thread is not the main thread and not a benchmark
        // thread, so it counts as the program's.
        assert!(program_cpu_ns() <= process_cpu_ns());
        black_box(x);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = sorted((1..=100).rev().map(f64::from).collect());
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn answer_hashes_are_canonical() {
        let q = Point::new([0, 0]);
        let a = Point::new([3, 4]);
        let b = Point::new([4, 3]);
        let c = Point::new([1, 1]);
        // Ties at one distance and list order do not change the hash.
        assert_eq!(hash_knn(&q, &[c, a]), hash_knn(&q, &[c, b]));
        assert_eq!(hash_points(&[a, b, c]), hash_points(&[c, a, b]));
        // Different answers do.
        assert_ne!(hash_points(&[a, c]), hash_points(&[b, c]));
        assert_ne!(hash_knn(&q, &[c]), hash_knn(&q, &[a]));
        assert_ne!(hash_count(3), hash_count(4));
        assert_ne!(hash_count(0), hash_points(&[]));
    }

    #[test]
    fn square_holds_the_disc_area() {
        let r = square_around(&Point::new([100, 100]), 400, 1_000);
        assert_eq!(r.lo.coords, [82, 82]);
        assert_eq!(r.hi.coords, [118, 118]);
        let clamped = square_around(&Point::new([0, 5]), 400, 10);
        assert_eq!(clamped.lo.coords, [0, 0]);
        assert_eq!(clamped.hi.coords, [10, 10]);
    }

    #[test]
    fn result_line_shape() {
        let line = result_line(
            true,
            10,
            0,
            &[metric("a_ms", 1.25, "ms"), metric("b", 3.0, "count")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"b\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
        let bad = result_line(true, 0, 0, &[metric("x", f64::NAN, "ms")]);
        assert!(bad.starts_with("{\"correct\": false, \"attempted\": 1,"));
    }
}
