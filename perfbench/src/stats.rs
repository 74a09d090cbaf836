//! The benchmark's own arithmetic: order statistics, the tail-percentile
//! rule, the fastest-rounds filter, SQNR, the seeded open-loop arrival
//! schedule and due-time latency accounting. Everything here is pure and
//! unit-tested.

use std::time::Duration;

/// Samples a percentile must leave beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), q)]
}

/// Zero-based nearest rank of percentile `q` in a sample of `n`.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank percentile `q` of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank(n, q)
}

/// The highest of `candidates` (ascending) that leaves at least
/// [`MIN_BEYOND`] samples beyond it, or `None` if even the lowest does not.
pub fn highest_supported(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .rev()
        .find(|&q| beyond(n, q) >= MIN_BEYOND)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Sorts a sample ascending (NaN-safe total order).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The samples of the fastest rounds of a closed loop. `samples` are
/// per-call milliseconds in call order; they are cut into consecutive rounds
/// of at least `round_ms` (a short last round is dropped), the rounds are
/// ranked by their mean and the fastest `share` of them (at least one) are
/// pooled. On a shared host a neighbour's burst slows whole rounds; keeping
/// the fastest ones measures the program rather than the neighbours, while a
/// slow call the program makes in every round stays in every kept round.
pub fn fastest_rounds(samples: &[f64], round_ms: f64, share: f64) -> Vec<f64> {
    let mut rounds: Vec<&[f64]> = Vec::new();
    let (mut start, mut acc) = (0, 0.0);
    for (i, &x) in samples.iter().enumerate() {
        acc += x;
        if acc >= round_ms {
            rounds.push(&samples[start..=i]);
            (start, acc) = (i + 1, 0.0);
        }
    }
    let mean = |r: &[f64]| r.iter().sum::<f64>() / r.len() as f64;
    rounds.sort_by(|a, b| mean(a).total_cmp(&mean(b)));
    let keep = ((rounds.len() as f64 * share) as usize).max(1);
    rounds.into_iter().take(keep).flatten().copied().collect()
}

/// Accumulates signal and error power across several output tensors, so one
/// SQNR covers a whole sample of outputs.
#[derive(Debug, Default, Clone, Copy)]
pub struct Sqnr {
    signal: f64,
    noise: f64,
}

impl Sqnr {
    /// Adds one `(reference, test)` pair of equally long outputs.
    pub fn add(&mut self, reference: &[f32], test: &[f32]) {
        assert_eq!(reference.len(), test.len(), "SQNR of mismatched outputs");
        for (&r, &t) in reference.iter().zip(test) {
            let (r, t) = (f64::from(r), f64::from(t));
            self.signal += r * r;
            self.noise += (r - t) * (r - t);
        }
    }

    /// `10·log10(Σ ref² / Σ (ref − test)²)` in dB; infinite when exact.
    pub fn db(&self) -> f64 {
        10.0 * (self.signal / self.noise).log10()
    }
}

/// SQNR of one `(reference, test)` pair in dB.
pub fn sqnr_db(reference: &[f32], test: &[f32]) -> f64 {
    let mut s = Sqnr::default();
    s.add(reference, test);
    s.db()
}

/// SplitMix64: a tiny seeded generator, so schedules depend on nothing but
/// the seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// Seeded Poisson arrivals at `rate_per_s` over `window`, conditioned on
/// their count: `rate·window` arrivals at independent uniform times, sorted.
/// The offered rate is then exact while the gaps stay exponential. Returns
/// the offsets from the window start at which each request is due; same
/// seed, same schedule.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, window: Duration) -> Vec<Duration> {
    assert!(rate_per_s > 0.0, "arrival rate must be positive");
    let mut rng = SplitMix64::new(seed);
    let n = (rate_per_s * window.as_secs_f64()).round() as usize;
    let mut due: Vec<Duration> = (0..n).map(|_| window.mul_f64(1.0 - rng.unit())).collect();
    due.sort_unstable();
    due
}

/// One open-loop request's timeline, as offsets from the window start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestTimes {
    /// When the schedule said to send it.
    pub due: Duration,
    /// When the generator actually wrote it.
    pub sent: Duration,
    /// When its reply was read (`None`: never answered).
    pub done: Option<Duration>,
}

impl RequestTimes {
    /// Latency counted from the due time, so a stalled generator or server
    /// charges its wait to every request queued behind the stall.
    pub fn latency(&self) -> Option<Duration> {
        self.done.map(|d| d.saturating_sub(self.due))
    }

    /// How late the generator sent this request.
    pub fn lag(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }
}

/// Due-time latencies in milliseconds of the answered requests, ascending.
pub fn latencies_ms(times: &[RequestTimes]) -> Vec<f64> {
    sorted(
        times
            .iter()
            .filter_map(RequestTimes::latency)
            .map(|d| d.as_secs_f64() * 1e3)
            .collect(),
    )
}

/// Peak resident set (`VmHWM`) of this process in MiB, if the OS reports it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // 100 samples: p90 leaves exactly 10 beyond, p99 only 1.
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(100, 0.99), 1);
        let qs = [0.5, 0.9, 0.99, 0.999];
        assert_eq!(highest_supported(100, &qs), Some(0.9));
        assert_eq!(highest_supported(99, &qs), Some(0.5));
        assert_eq!(highest_supported(1000, &qs), Some(0.99));
        assert_eq!(highest_supported(10_000, &qs), Some(0.999));
        assert_eq!(highest_supported(15, &qs), None);
        assert_eq!(beyond(0, 0.5), 0);
    }

    #[test]
    fn fastest_rounds_keep_the_quickest_share() {
        // Rounds of at least 10 ms: [4, 7] [20] [5, 5] [3, 3, 3, 3]; the
        // trailing 1 never completes a round.
        let v = [4.0, 7.0, 20.0, 5.0, 5.0, 3.0, 3.0, 3.0, 3.0, 1.0];
        assert_eq!(
            fastest_rounds(&v, 10.0, 0.5),
            vec![3.0, 3.0, 3.0, 3.0, 5.0, 5.0]
        );
        assert_eq!(fastest_rounds(&v, 10.0, 0.1), vec![3.0, 3.0, 3.0, 3.0]);
        assert_eq!(fastest_rounds(&v, 10.0, 1.0).len(), 9);
        assert!(fastest_rounds(&[1.0, 2.0], 10.0, 0.5).is_empty());
    }

    #[test]
    fn sqnr_matches_definition() {
        let r = [1.0f32, -2.0, 3.0, 0.5];
        assert!(sqnr_db(&r, &r).is_infinite());
        // Error power 1% of signal power → 20 dB.
        let signal: f32 = r.iter().map(|v| v * v).sum();
        let e = (0.01 * signal / r.len() as f32).sqrt();
        let t: Vec<f32> = r.iter().map(|v| v + e).collect();
        assert!((sqnr_db(&r, &t) - 20.0).abs() < 1e-4);
        // Sign-flipped output: error power 4× signal → about −6 dB.
        let neg: Vec<f32> = r.iter().map(|v| -v).collect();
        assert!((sqnr_db(&r, &neg) + 6.0206).abs() < 1e-3);
        // Accumulating pairs equals one pair over the concatenation.
        let mut acc = Sqnr::default();
        acc.add(&r[..2], &t[..2]);
        acc.add(&r[2..], &t[2..]);
        assert!((acc.db() - sqnr_db(&r, &t)).abs() < 1e-9);
    }

    #[test]
    fn arrival_schedule_is_seeded_poisson() {
        let w = Duration::from_secs(20);
        let a = poisson_schedule(7, 500.0, w);
        assert_eq!(a, poisson_schedule(7, 500.0, w));
        assert_ne!(a, poisson_schedule(8, 500.0, w));
        assert!(a.windows(2).all(|p| p[0] <= p[1]));
        assert!(a.last().is_some_and(|&t| t < w));
        assert_eq!(a.len(), 10_000, "the count is exact");
        // Exponential gaps: about 1/e of them exceed the mean gap.
        let mean_gap = 1.0 / 500.0;
        let long = a
            .windows(2)
            .filter(|p| (p[1] - p[0]).as_secs_f64() > mean_gap)
            .count() as f64
            / (a.len() - 1) as f64;
        assert!((long - (-1.0f64).exp()).abs() < 0.02, "{long}");
    }

    #[test]
    fn latency_counts_from_due_time() {
        let ms = Duration::from_millis;
        // The generator stalled: due at 10 ms, sent at 14 ms, answered at
        // 15 ms. The user waited 5 ms, not the 1 ms the wire saw.
        let late = RequestTimes {
            due: ms(10),
            sent: ms(14),
            done: Some(ms(15)),
        };
        assert_eq!(late.latency(), Some(ms(5)));
        assert_eq!(late.lag(), ms(4));
        let lost = RequestTimes {
            due: ms(20),
            sent: ms(20),
            done: None,
        };
        assert_eq!(lost.latency(), None);
        assert_eq!(lost.lag(), Duration::ZERO);
        let on_time = RequestTimes {
            due: ms(30),
            sent: ms(30),
            done: Some(ms(32)),
        };
        assert_eq!(latencies_ms(&[on_time, lost, late]), vec![2.0, 5.0]);
    }
}
