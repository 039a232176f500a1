//! Load generation: seeded key samplers, the open-loop send schedule, and
//! the percentile rule every latency metric uses.
//!
//! The open loop sends request `i` at `start + i / rate` whatever happened
//! to earlier requests, and times each one from that due time, so a stall
//! also charges the requests it delayed (no coordinated omission). The
//! generator's own lateness is reported separately as lag.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Zipf-distributed ranks `0..n` with `P(k) ∝ 1 / (k + 1)^s`, sampled by
/// binary search over the cumulative distribution.
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf sampler over an empty key set");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        ZipfSampler { cdf }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// Key distribution of a read phase.
#[derive(Clone, Copy, Debug)]
pub enum KeyDist {
    /// Uniform over the key set.
    Uniform,
    /// Zipf with exponent `s` over a seeded permutation of the key set.
    Zipf(f64),
}

/// A seeded, reproducible sequence of indices into a key set of size `n`.
pub fn key_indices(dist: KeyDist, n: usize, count: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    match dist {
        KeyDist::Uniform => (0..count).map(|_| rng.gen_range(0..n)).collect(),
        KeyDist::Zipf(s) => {
            let zipf = ZipfSampler::new(n, s);
            // Rank k maps to a seeded random key, so the hot keys are not
            // simply the first trained ties.
            let mut perm: Vec<usize> = (0..n).collect();
            rand::seq::SliceRandom::shuffle(perm.as_mut_slice(), &mut rng);
            (0..count).map(|_| perm[zipf.sample(&mut rng)]).collect()
        }
    }
}

/// Fixed-rate send schedule: request `i` is due `i / rate` seconds after
/// `start`.
#[derive(Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    pub rate: f64,
}

impl Schedule {
    pub fn due(&self, i: usize) -> Instant {
        self.start + Duration::from_secs_f64(i as f64 / self.rate)
    }

    /// Requests due within the first `seconds`.
    pub fn count_within(&self, seconds: f64) -> usize {
        (seconds * self.rate).ceil() as usize
    }
}

/// Sleeps until `due`. The generator never spins: on a small machine a
/// spinning generator takes the cores the servers need.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if now < due {
        std::thread::sleep(due - now);
    }
}

/// What one request returned, as far as the checks care.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Outcome {
    /// `200` with the score and the answering model's fingerprint.
    Scored { score: f64, fingerprint: u64 },
    /// Any other HTTP status.
    Status(u16),
    /// The request never got a parsable response.
    Transport,
}

/// One timed request of an open-loop phase.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Request index in the phase's schedule.
    pub index: usize,
    /// Seconds from the schedule start to the due time.
    pub due_s: f64,
    /// How late the generator sent it.
    pub lag_s: f64,
    /// Send to reply.
    pub service_s: f64,
    /// Due time to reply, less the generator's oversleep: the service
    /// time plus any wait for this thread's previous request.
    pub latency_s: f64,
    pub key: (u32, u32),
    pub outcome: Outcome,
}

/// Runs an open-loop phase on `threads` generator threads. Request `i`
/// goes to thread `i % threads`. The phase ends when the schedule passes
/// `seconds` or, when `stop` is given, once it is set. `send` issues
/// request `i` and returns its key and outcome.
pub fn open_loop<F>(
    rate: f64,
    seconds: f64,
    threads: usize,
    stop: Option<&AtomicBool>,
    send: F,
) -> (Schedule, Vec<Sample>)
where
    F: Fn(usize) -> ((u32, u32), Outcome) + Sync,
{
    let schedule = Schedule { start: Instant::now() + Duration::from_millis(2), rate };
    let limit = if seconds.is_finite() { schedule.count_within(seconds) } else { usize::MAX };
    let mut samples = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let send = &send;
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut i = t;
                    // When this thread's previous request finished.
                    let mut free_at = schedule.start;
                    while i < limit {
                        if stop.is_some_and(|f| f.load(Ordering::SeqCst)) {
                            break;
                        }
                        let due = schedule.due(i);
                        wait_until(due);
                        let sent = Instant::now();
                        let (key, outcome) = send(i);
                        let done = Instant::now();
                        out.push(Sample {
                            index: i,
                            due_s: (due - schedule.start).as_secs_f64(),
                            lag_s: (sent - due).as_secs_f64(),
                            service_s: (done - sent).as_secs_f64(),
                            latency_s: (free_at.max(due) - due + (done - sent)).as_secs_f64(),
                            key,
                            outcome,
                        });
                        free_at = done;
                        i += threads;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator thread panicked"))
            .collect::<Vec<_>>()
    });
    samples.sort_by_key(|s| s.index);
    (schedule, samples)
}

/// Percentiles the rule may report, lowest first.
pub const PERCENTILES: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Nearest-rank percentile of ascending `sorted` (`p` in percent).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps decimal percentiles such as 99.99 from rounding up
    // one rank through binary floating point.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Highest percentile in [`PERCENTILES`] with at least ten samples beyond
/// it, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    PERCENTILES.iter().rev().copied().find(|&p| n >= 10 && n - rank(n, p) >= 10)
}

/// A latency summary under the percentile rule.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    pub p99: f64,
    /// The highest percentile the rule supports, and its value.
    pub tail: Option<(f64, f64)>,
}

pub fn summarize(values: &[f64]) -> Summary {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let tail = tail_percentile(sorted.len()).map(|p| (p, percentile(&sorted, p)));
    Summary {
        count: sorted.len(),
        p50: percentile(&sorted, 50.0),
        p99: percentile(&sorted, 99.0),
        tail,
    }
}

/// Latency over consecutive windows of `window_s` seconds of due time:
/// the median across full windows of each window's `p50` and `p99`, so a
/// short stall of the machine moves one window, not the result. Windows
/// with fewer than 1000 samples (where the rule does not support `p99`)
/// are skipped; `None` treats the whole phase as one window.
pub fn windowed(samples: &[Sample], window_s: Option<f64>) -> (f64, f64, usize) {
    let mut windows: Vec<Vec<f64>> = Vec::new();
    match window_s {
        None => windows.push(samples.iter().map(|s| s.latency_s).collect()),
        Some(w) => {
            for s in samples {
                let k = (s.due_s / w) as usize;
                if windows.len() <= k {
                    windows.resize(k + 1, Vec::new());
                }
                windows[k].push(s.latency_s);
            }
            windows.retain(|v| v.len() >= 1000);
        }
    }
    let sums: Vec<Summary> =
        windows.iter().filter(|v| !v.is_empty()).map(|v| summarize(v)).collect();
    let mid = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        if v.is_empty() {
            f64::NAN
        } else {
            v[v.len() / 2]
        }
    };
    (
        mid(sums.iter().map(|s| s.p50).collect()),
        mid(sums.iter().map(|s| s.p99).collect()),
        sums.len(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_seeded_and_skewed() {
        let a = key_indices(KeyDist::Zipf(1.1), 10_000, 20_000, 7);
        assert_eq!(a, key_indices(KeyDist::Zipf(1.1), 10_000, 20_000, 7));
        assert_ne!(a, key_indices(KeyDist::Zipf(1.1), 10_000, 20_000, 8));
        let mut counts = std::collections::HashMap::new();
        for &k in &a {
            *counts.entry(k).or_insert(0usize) += 1;
        }
        let mut freq: Vec<usize> = counts.into_values().collect();
        freq.sort_unstable_by(|x, y| y.cmp(x));
        // Rank 1 carries ~1/H(10000, 1.1) ≈ 12% of draws; uniform would be 0.01%.
        assert!(freq[0] > 1_500, "hottest key drew {}", freq[0]);
        assert!(freq.len() < 8_000, "Zipf draws touched {} distinct keys", freq.len());
    }

    #[test]
    fn zipf_cdf_matches_the_law() {
        let z = ZipfSampler::new(3, 1.0);
        // Weights 1, 1/2, 1/3 normalised by 11/6.
        let want = [6.0 / 11.0, 9.0 / 11.0, 1.0];
        for (c, w) in z.cdf.iter().zip(want) {
            assert!((c - w).abs() < 1e-12);
        }
    }

    #[test]
    fn uniform_covers_the_range_evenly() {
        let a = key_indices(KeyDist::Uniform, 4, 40_000, 1);
        assert!(a.iter().all(|&k| k < 4));
        for k in 0..4 {
            let c = a.iter().filter(|&&x| x == k).count();
            assert!((9_000..11_000).contains(&c), "key {k} drawn {c} times");
        }
    }

    #[test]
    fn schedule_spaces_requests_by_the_rate() {
        let s = Schedule { start: Instant::now(), rate: 1000.0 };
        assert_eq!(s.due(250) - s.start, Duration::from_millis(250));
        assert_eq!(s.count_within(2.0), 2000);
    }

    #[test]
    fn open_loop_times_from_the_due_time() {
        // Every request stalls 3 ms at 1000 req/s on one thread: the
        // generator falls behind, and latency counts the wait behind
        // earlier requests, not only the request's own service time.
        let (_, samples) = open_loop(1000.0, 0.02, 1, None, |i| {
            std::thread::sleep(Duration::from_millis(3));
            ((i as u32, 0), Outcome::Status(200))
        });
        assert_eq!(samples.len(), 20);
        let last = samples.last().expect("samples");
        assert!(last.lag_s > 0.030, "lag {}", last.lag_s);
        // Late only because the previous request held the thread: all of
        // the lag is charged.
        assert!((last.latency_s - (last.lag_s + last.service_s)).abs() < 1e-3);
        assert!(last.latency_s > 0.030);
        assert!(samples.windows(2).all(|w| w[0].index < w[1].index));
    }

    #[test]
    fn open_loop_splits_indices_across_threads_and_stops() {
        let stop = AtomicBool::new(true);
        let (_, none) = open_loop(1000.0, f64::INFINITY, 2, Some(&stop), |i| {
            ((i as u32, 0), Outcome::Transport)
        });
        assert!(none.is_empty());
        let (_, two) = open_loop(2000.0, 0.01, 2, None, |i| ((i as u32, 1), Outcome::Transport));
        let idx: Vec<usize> = two.iter().map(|s| s.index).collect();
        assert_eq!(idx, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn windowed_takes_the_median_window() {
        let sample = |i: usize, latency_s: f64| Sample {
            index: i,
            due_s: i as f64 / 1000.0,
            lag_s: 0.0,
            service_s: latency_s,
            latency_s,
            key: (0, 0),
            outcome: Outcome::Transport,
        };
        // Three 1 s windows at 1000 req/s; the middle one stalls 5% of its
        // requests, and a 500-sample tail window is too short to count.
        let samples: Vec<Sample> = (0..3500)
            .map(|i| {
                sample(
                    i,
                    if (1000..1050).contains(&i) {
                        0.1
                    } else {
                        0.001 * (1.0 + (i % 100) as f64 / 100.0)
                    },
                )
            })
            .collect();
        let (p50, p99, n) = windowed(&samples, Some(1.0));
        assert_eq!(n, 3);
        assert!((p99 - 0.00198).abs() < 1e-9, "p99 {p99}");
        assert!((p50 - 0.00149).abs() < 1e-9, "p50 {p50}");
        let (_, whole, n) = windowed(&samples, None);
        assert_eq!(n, 1);
        assert_eq!(whole, 0.1);
    }

    #[test]
    fn percentile_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(9), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        let s = summarize(&v);
        assert_eq!((s.count, s.p50, s.p99), (1000, 500.0, 990.0));
        assert_eq!(s.tail, Some((99.0, 990.0)));
    }
}
