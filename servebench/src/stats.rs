//! Quantiles over raw samples and the seeded open-loop arrival schedule.
//!
//! Every quantile the benchmark reports is computed here from the full list
//! of samples, never from a bucketed histogram, so a p99 is a measured
//! value rather than a bucket bound.

use tia_tensor::SeededRng;

/// Nearest-rank quantile of `sorted` (ascending): the smallest sample with
/// at least `q · n` samples at or below it. Returns NaN for no samples.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `v` in place and returns its median (nearest rank).
pub fn median(v: &mut [f64]) -> f64 {
    sort(v);
    quantile(v, 0.5)
}

/// Sorts ascending (samples are finite; NaN would be a bug upstream).
pub fn sort(v: &mut [f64]) {
    v.sort_by(f64::total_cmp);
}

/// Arithmetic mean (NaN for no samples).
pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// End-to-end figures of a timed phase cut into equal windows, each the
/// median over the windows, so a burst of host contention confined to one
/// window does not move them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Windowed {
    /// Median over windows of the answers completed in the window per
    /// second.
    pub rate: f64,
    /// Median over windows of the latency p50 of requests due in the
    /// window.
    pub p50: f64,
    /// Median over windows of the latency p99 of requests due in the
    /// window.
    pub p99: f64,
    /// Fewest latency samples in any window.
    pub min_samples: usize,
}

/// Cuts `[0, seconds)` into `windows` windows and computes [`Windowed`]
/// from `(due, latency)` pairs in ns: a sample's latency counts in the
/// window it was due in, its completion (`due + latency`) in the window it
/// landed in (completions after the phase are not counted).
pub fn windowed(
    samples: impl Iterator<Item = (u64, u64)>,
    seconds: f64,
    windows: usize,
) -> Windowed {
    let windows = windows.max(1);
    let span = seconds * 1e9 / windows as f64;
    let mut lat = vec![Vec::new(); windows];
    let mut done = vec![0usize; windows];
    for (due, l) in samples {
        lat[((due as f64 / span) as usize).min(windows - 1)].push(l as f64);
        let w = ((due + l) as f64 / span) as usize;
        if w < windows {
            done[w] += 1;
        }
    }
    let mut rate: Vec<f64> = done.iter().map(|&d| d as f64 / (span / 1e9)).collect();
    let (mut p50, mut p99) = (Vec::new(), Vec::new());
    for v in &mut lat {
        sort(v);
        p50.push(quantile(v, 0.5));
        p99.push(quantile(v, 0.99));
    }
    Windowed {
        rate: median(&mut rate),
        p50: median(&mut p50),
        p99: median(&mut p99),
        min_samples: lat.iter().map(Vec::len).min().unwrap_or(0),
    }
}

/// Poisson arrivals at `rate` per second over `[0, duration_s)`, as
/// nanosecond offsets from the start, drawn from `seed` alone: exponential
/// gaps `-ln(1 - u) / rate`.
pub fn poisson_schedule(seed: u64, rate: f64, duration_s: f64) -> Vec<u64> {
    let mut rng = SeededRng::new(seed);
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity((rate * duration_s * 1.1) as usize + 16);
    loop {
        let u = f64::from(rng.uniform());
        t += -(1.0 - u).ln() / rate;
        if t >= duration_s {
            return out;
        }
        out.push((t * 1e9) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_on_one_to_hundred() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 0.999), 100.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.011), 2.0);
    }

    #[test]
    fn quantile_is_a_sample_not_a_bucket_bound() {
        // A log2 histogram would report 65.536 for every one of these.
        let mut v: Vec<f64> = (0..1000).map(|i| 40.0 + f64::from(i) * 0.01).collect();
        sort(&mut v);
        assert_eq!(quantile(&v, 0.99), 40.0 + 989.0 * 0.01);
        assert!(quantile(&[], 0.5).is_nan());
        let mut w = vec![3.0, 1.0, 2.0];
        assert_eq!(median(&mut w), 2.0);
        assert_eq!(w, vec![1.0, 2.0, 3.0]);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn windowed_takes_medians_over_windows() {
        // Four 1 s windows; window 2 holds a burst of slow answers.
        let mut s = Vec::new();
        for w in 0..4u64 {
            for i in 0..100u64 {
                let lat = if w == 2 { 1_500_000_000 } else { 1_000 + i };
                s.push((w * 1_000_000_000 + i * 1_000_000, lat));
            }
        }
        let r = windowed(s.iter().copied(), 4.0, 4);
        assert_eq!(r.min_samples, 100);
        assert_eq!(r.p50, 1_049.0);
        assert_eq!(r.p99, 1_098.0);
        // Window 2's answers all land in window 3: completions per window
        // are [100, 100, 0, 200], whose nearest-rank median is 100.
        assert_eq!(r.rate, 100.0);
    }

    #[test]
    fn poisson_schedule_is_seeded_sorted_and_at_rate() {
        let a = poisson_schedule(7, 800.0, 10.0);
        assert_eq!(a, poisson_schedule(7, 800.0, 10.0));
        assert_ne!(a, poisson_schedule(8, 800.0, 10.0));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| t < 10_000_000_000));
        // 8000 expected arrivals; a Poisson count has sd ≈ 89.
        assert!((7600..=8400).contains(&a.len()), "{} arrivals", a.len());
        // Exponential gaps: the coefficient of variation is ≈ 1.
        let gaps: Vec<f64> = a.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
        let m = mean(&gaps);
        let sd = (gaps.iter().map(|g| (g - m).powi(2)).sum::<f64>() / gaps.len() as f64).sqrt();
        assert!((0.9..1.1).contains(&(sd / m)), "cv {}", sd / m);
        assert!((m - 1.25e6).abs() < 0.05e6, "mean gap {m} ns");
    }

    #[test]
    fn poisson_schedule_pins_its_first_arrivals() {
        // Pinned so a change to the generator (and thus to every open-loop
        // run's inputs) is a visible, deliberate edit.
        let a = poisson_schedule(1, 800.0, 1.0);
        assert_eq!(&a[..3], &[1_517_199, 2_435_798, 3_502_753]);
    }
}
