//! Shared machinery: the metric sink, percentiles, process resource
//! usage, input fingerprints and the open-loop load generator.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Result type of every workload: a failed output check or a program
/// error ends the run.
pub type BenchResult<T> = Result<T, String>;

/// Converts any displayable error into the bench's error string.
pub fn err<E: std::fmt::Display>(context: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{context}: {e}")
}

/// Named metric values collected by one run.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, f64>,
}

impl Metrics {
    /// Records (or overwrites) one metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// The recorded value of a metric, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }
}

/// The workload's request accounting, reported in the result line.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Requests sent.
    pub sent: u64,
    /// Requests answered successfully.
    pub succeeded: u64,
    /// Requests that failed or were refused (intended defense refusals of
    /// adversarial accounts excluded).
    pub failed: u64,
}

impl Tally {
    /// Adds another tally.
    pub fn add(&mut self, other: Tally) {
        self.sent += other.sent;
        self.succeeded += other.succeeded;
        self.failed += other.failed;
    }
}

/// Median of a sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Nearest-rank percentile `p` (0–100) of a sample; `+inf` entries stand
/// for requests that failed and so missed every latency limit.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Consecutive windows a run's latencies are cut into.
pub const WINDOWS: usize = 8;

/// Medians of `windows` consecutive, equally sized runs of a sample kept
/// in schedule order (fewer windows when the sample is smaller).
pub fn window_medians(values: &[f64], windows: usize) -> Vec<f64> {
    let n = windows.clamp(1, values.len().max(1));
    (0..n)
        .map(|w| median(&values[w * values.len() / n..(w + 1) * values.len() / n]))
        .collect()
}

/// The reported median latency of a run: the sample, in schedule order,
/// is cut into [`WINDOWS`] consecutive windows and the lower quartile of
/// the windows' medians is reported (the second-fastest window of eight).
/// The reference host is a shared VM whose speed moves by up to 2× within
/// minutes, mostly as CPU time stolen by other tenants; that only ever
/// adds time and comes in spells, so the fastest windows are the ones
/// least touched by it (the argument for minimum-type estimators in Chen
/// and Revels, "Robust benchmarking in noisy environments", 2016). A
/// program that is slower throughout raises every window and so this
/// figure too. The plain median is printed beside it.
pub fn query_p50(values: &[f64]) -> f64 {
    percentile(&window_medians(values, WINDOWS), 25.0)
}

/// One report line for a latency sample: its size and quantiles.
pub fn describe_latencies(ms: &[f64]) -> String {
    let q: Vec<String> = [50.0, 75.0, 90.0, 95.0, 99.0]
        .iter()
        .map(|&p| format!("p{p} {:.3}", percentile(ms, p)))
        .collect();
    let windows: Vec<String> = window_medians(ms, WINDOWS)
        .iter()
        .map(|v| format!("{v:.2}"))
        .collect();
    format!(
        "{} samples, {} ms; p50 per eighth of the run: [{}] ms, reported {:.3} ms",
        ms.len(),
        q.join(", "),
        windows.join(" "),
        query_p50(ms)
    )
}

/// Mean of a sample (0 for an empty one).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds in a duration.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Median wall time of `reps` calls of `f`, after one warm-up call.
pub fn time_median<T>(reps: usize, mut f: impl FnMut() -> T) -> Duration {
    std::hint::black_box(f());
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    Duration::from_secs_f64(samples[samples.len() / 2])
}

/// Caps glibc's allocator at one arena per core. Called first thing in
/// `main`, before any thread exists. By default glibc gives each thread
/// that meets a locked arena an arena of its own, up to eight per core,
/// and memory freed into one arena is not reused by another, so peak RSS
/// followed how the scheduler happened to interleave the service's
/// threads (it moved by a third between runs of one seed). With one arena
/// per core it follows the program's live memory, and threads still
/// rarely wait for an arena. Returns the cap, or `None` when it was not
/// set (off glibc, or refused).
pub fn cap_malloc_arenas() -> Option<usize> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        /// glibc's `M_ARENA_MAX` parameter.
        const M_ARENA_MAX: i32 = -8;
        let cap = i32::try_from(cores).unwrap_or(i32::MAX);
        // SAFETY: `mallopt` only changes allocator tuning; no other
        // thread is allocating while `main` calls it.
        (unsafe { mallopt(M_ARENA_MAX, cap) } == 1).then_some(cores)
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    {
        let _ = cores;
        None
    }
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Process CPU seconds (user + system, all threads) and peak resident
/// set size in MB, from `getrusage(RUSAGE_SELF)`.
pub fn resource_usage() -> (f64, f64) {
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss_kib: 0,
        rest: [0; 13],
    };
    // SAFETY: `Rusage` mirrors the x86-64/aarch64 Linux `struct rusage`
    // layout (two `timeval`s followed by fourteen `long`s), so the kernel
    // writes entirely inside the value we own; `RUSAGE_SELF` is 0.
    let rc = unsafe { getrusage(0, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    (
        secs(&usage.utime) + secs(&usage.stime),
        usage.maxrss_kib as f64 / 1024.0,
    )
}

/// Prints the set-up times and the peak RSS they left behind.
pub fn report_setup(setups: &[f64]) {
    println!(
        "set-up: {:?} s (median {:.3} s); peak RSS after set-up {:.1} MB",
        setups,
        median(setups),
        resource_usage().1
    );
}

/// FNV-1a accumulator for input fingerprints: two runs that print the
/// same fingerprint offered the program byte-identical inputs.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// Folds raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds one integer in.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds floats in by their bit patterns, one word per step.
    pub fn f32s(&mut self, values: &[f32]) {
        for v in values {
            self.0 ^= u64::from(v.to_bits());
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest.
    pub fn digest(&self) -> u64 {
        self.0
    }
}

/// Seeded Poisson arrival offsets at `rate` per second over `seconds`,
/// conditioned on their expected count: `round(rate * seconds)` times
/// drawn uniformly over the span and sorted (given its count, a Poisson
/// process's arrival times are exactly such order statistics). Every seed
/// so offers the same number of requests; only their placement varies.
pub fn poisson_arrivals(rng: &mut duo_tensor::Rng64, rate: f64, seconds: f64) -> Vec<Duration> {
    let count = (rate * seconds).round() as usize;
    let mut at: Vec<f64> = (0..count)
        .map(|_| (rng.as_rng().next_u64() >> 11) as f64 / (1u64 << 53) as f64 * seconds)
        .collect();
    at.sort_by(f64::total_cmp);
    at.into_iter().map(Duration::from_secs_f64).collect()
}

/// What one scheduled request saw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sent {
    /// How late the generator sent it after its scheduled time.
    pub lag: Duration,
    /// Scheduled send time to reply.
    pub latency: Duration,
    /// Send to reply (the program's busy-plus-queue time for it).
    pub service: Duration,
}

/// Drives an open-loop schedule: request `i` is due at `due[i]` after the
/// phase starts and is sent then, whether or not earlier requests have
/// completed, by whichever of `senders` threads is free. Each sender
/// blocks on its request, so at most `senders` are in flight; a stalled
/// program makes later requests late, and their latency counts from when
/// they were due. Returns each request's timing and its outcome.
pub fn open_loop<T: Send>(
    due: &[Duration],
    senders: usize,
    send: impl Fn(usize) -> T + Sync,
) -> Vec<(Sent, T)> {
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<(Sent, T)>>> = Mutex::new((0..due.len()).map(|_| None).collect());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..senders.max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= due.len() {
                    break;
                }
                let at = start + due[i];
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                let sent_at = Instant::now();
                let outcome = send(i);
                let done = Instant::now();
                let timing = Sent {
                    lag: sent_at.saturating_duration_since(at),
                    latency: done.saturating_duration_since(at),
                    service: done - sent_at,
                };
                slots
                    .lock()
                    .expect("no sender panics while holding the slot lock")[i] =
                    Some((timing, outcome));
            });
        }
    });
    slots
        .into_inner()
        .expect("senders joined")
        .into_iter()
        .map(|s| s.expect("every scheduled request was sent"))
        .collect()
}

/// One rung of an offered-rate ladder and its verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Median latency of the counted requests (ms).
    pub p50_ms: f64,
    /// p90 latency of the counted requests (ms), a failed one counting as
    /// infinitely late. A rung of a hundred-odd requests supports p90
    /// (ten or more samples beyond it); its p99 would be its maximum.
    pub p90_ms: f64,
    /// Median generator lag over the last tenth of the rung's requests
    /// (ms): large when a backlog built up over the rung.
    pub end_lag_ms: f64,
}

impl Rung {
    /// Summarizes one rung from its counted latencies and its requests'
    /// generator lags in schedule order.
    pub fn measure(rate: f64, latencies_ms: &[f64], lags_ms: &[f64]) -> Rung {
        let last = (lags_ms.len() / 10).max(1).min(lags_ms.len());
        Rung {
            rate,
            p50_ms: median(latencies_ms),
            p90_ms: percentile(latencies_ms, 90.0),
            end_lag_ms: median(&lags_ms[lags_ms.len() - last..]),
        }
    }

    /// Whether the rung meets the latency limit without a growing
    /// backlog: p90 within the limit, and requests at the rung's end sent
    /// no later than the limit after they were due.
    pub fn meets(&self, slo_ms: f64) -> bool {
        self.p90_ms <= slo_ms && self.end_lag_ms <= slo_ms
    }

    /// One report line.
    pub fn describe(&self, slo_ms: f64) -> String {
        format!(
            "rung {:>6.1} req/s: p50 {:>8.3} ms, p90 {:>8.3} ms, end lag {:>8.3} ms: {} the {slo_ms} ms limit",
            self.rate,
            self.p50_ms,
            self.p90_ms,
            self.end_lag_ms,
            if self.meets(slo_ms) { "meets" } else { "misses" }
        )
    }
}

/// The highest offered rate of a ladder whose rung, and every rung below
/// it, meets the limit (0 when even the lowest rung misses).
pub fn max_rate_under_slo(rungs: &[Rung], slo_ms: f64) -> f64 {
    let mut best = 0.0;
    for rung in rungs {
        if !rung.meets(slo_ms) {
            break;
        }
        best = rung.rate;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_and_failures_sort_last() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        let mut with_fail = v.clone();
        with_fail[0] = f64::INFINITY;
        assert_eq!(percentile(&with_fail, 100.0), f64::INFINITY);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn ladder_stops_at_the_first_missed_rung() {
        let rung = |rate, p90_ms| Rung {
            rate,
            p50_ms: 1.0,
            p90_ms,
            end_lag_ms: 1.0,
        };
        let rungs = [
            rung(10.0, 20.0),
            rung(20.0, 40.0),
            rung(40.0, 500.0),
            rung(80.0, 30.0),
        ];
        assert_eq!(max_rate_under_slo(&rungs, 100.0), 20.0);
        assert_eq!(max_rate_under_slo(&rungs[2..], 100.0), 0.0);
        let backlog: Vec<f64> = (0..100).map(f64::from).collect();
        let late = Rung::measure(10.0, &[1.0; 100], &backlog);
        assert_eq!(late.end_lag_ms, 94.0);
        assert!(!late.meets(90.0) && late.meets(100.0));
    }

    #[test]
    fn poisson_schedule_repeats_per_seed_and_offers_its_count() {
        let a = poisson_arrivals(&mut duo_tensor::Rng64::new(3), 100.0, 20.0);
        let b = poisson_arrivals(&mut duo_tensor::Rng64::new(3), 100.0, 20.0);
        let c = poisson_arrivals(&mut duo_tensor::Rng64::new(4), 100.0, 20.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!((a.len(), c.len()), (2000, 2000));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|t| t.as_secs_f64() < 20.0));
        // Roughly uniform: each second holds about a twentieth of them.
        let first = a.iter().filter(|t| t.as_secs_f64() < 1.0).count();
        assert!((60..140).contains(&first), "{first} in the first second");
    }

    #[test]
    fn window_medians_cut_the_sample_in_order() {
        let v: Vec<f64> = (0..16).map(f64::from).collect();
        assert_eq!(
            window_medians(&v, WINDOWS),
            vec![0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0]
        );
        assert_eq!(window_medians(&v[..3], WINDOWS), vec![0.0, 1.0, 2.0]);
        assert_eq!(window_medians(&[], WINDOWS), vec![0.0]);
    }

    #[test]
    fn query_p50_ignores_a_spell_of_contention_but_not_a_slower_program() {
        let quiet: Vec<f64> = (0..160).map(|i| 10.0 + f64::from(i % 5)).collect();
        let base = query_p50(&quiet);
        assert_eq!(base, 12.0);
        // Contention doubling the latencies of three quarters of the run.
        let mut spell = quiet.clone();
        spell[40..160].iter_mut().for_each(|v| *v *= 2.0);
        assert_eq!(query_p50(&spell), base);
        // A program 30 % slower throughout.
        let slower: Vec<f64> = quiet.iter().map(|v| v * 1.3).collect();
        assert!((query_p50(&slower) - 1.3 * base).abs() < 1e-9);
        // One slow request in a window does not move its median.
        let mut outlier = quiet.clone();
        outlier[0] = f64::INFINITY;
        assert_eq!(query_p50(&outlier), base);
    }

    #[test]
    fn open_loop_sends_every_request_once() {
        let due: Vec<Duration> = (0..20).map(|i| Duration::from_micros(i * 100)).collect();
        let out = open_loop(&due, 2, |i| i * 2);
        assert_eq!(
            out.iter().map(|(_, v)| *v).collect::<Vec<_>>(),
            (0..20).map(|i| i * 2).collect::<Vec<_>>()
        );
        assert!(out.iter().all(|(t, _)| t.latency >= t.service));
    }

    #[test]
    fn resource_usage_reports_positive_rss() {
        let (cpu, rss) = resource_usage();
        assert!(cpu >= 0.0 && rss > 0.0);
    }
}
