//! The benchmark's own arithmetic: order statistics, the geometric mean,
//! span self time, and the seeded request order. Everything here is pure so
//! the unit tests below pin it exactly.

/// Median of `values` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sorted = sorted(values);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The tail order statistic: the highest percentile that still has at least
/// ten samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at that rank.
    pub value: f64,
    /// 1-based rank of the sample in ascending order.
    pub rank: usize,
    /// Number of samples the statistic was taken over.
    pub count: usize,
}

impl Tail {
    /// Share of the samples at or below the tail sample, in percent.
    pub fn percentile(&self) -> f64 {
        100.0 * self.rank as f64 / self.count as f64
    }
}

/// Samples that must lie strictly beyond the tail statistic.
pub const TAIL_BEYOND: usize = 10;

/// The tail statistic of `values`, or `None` with fewer than
/// `TAIL_BEYOND + 1` samples (no percentile has ten samples beyond it).
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let sorted = sorted(values);
    let rank = n - TAIL_BEYOND;
    Some(Tail {
        value: sorted[rank - 1],
        rank,
        count: n,
    })
}

/// Geometric mean of strictly positive values; `None` when the slice is
/// empty or holds a value that is not a positive finite number.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| !(v.is_finite() && *v > 0.0)) {
        return None;
    }
    let mean_log = values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64;
    Some(mean_log.exp())
}

/// Self time of a span: its duration minus the part of `[start, end)` that
/// the child intervals cover. Children may overlap each other or stick out
/// of the parent; only the covered part inside the parent counts, once.
pub fn self_time(start: f64, end: f64, children: &[(f64, f64)]) -> f64 {
    let mut clipped: Vec<(f64, f64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (s, e) in clipped {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        covered += ce - cs;
    }
    (end - start) - covered
}

/// Each sample replaced by the median of the samples of its group
/// (`groups[i]` is the group of `values[i]`). With the repeats of one
/// distinct request as a group, spread across the run, a burst of host noise
/// that slows a minority of a request's repeats does not move its value.
pub fn median_of_group(values: &[f64], groups: &[usize]) -> Vec<f64> {
    let mut by_group: std::collections::HashMap<usize, Vec<f64>> = Default::default();
    for (&v, &g) in values.iter().zip(groups) {
        by_group.entry(g).or_default().push(v);
    }
    let medians: std::collections::HashMap<usize, f64> =
        by_group.iter().map(|(&g, v)| (g, median(v))).collect();
    groups.iter().map(|g| medians[g]).collect()
}

/// Completion rate of each window of `size` consecutive samples:
/// the work done in the window over the time from the previous window's
/// last completion (or 0) to its own last one. `done_s` are completion
/// times, `work` the work each sample completed. A trailing partial window
/// is dropped.
pub fn window_rates(done_s: &[f64], work: &[f64], size: usize) -> Vec<f64> {
    let mut rates = Vec::new();
    let mut previous_end = 0.0;
    for (times, work) in done_s.chunks_exact(size).zip(work.chunks_exact(size)) {
        let end = times.iter().copied().fold(previous_end, f64::max);
        rates.push(work.iter().sum::<f64>() / (end - previous_end));
        previous_end = end;
    }
    rates
}

/// SplitMix64: a small, seedable generator whose output is fixed by the seed
/// on every platform.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n
    }
}

/// The request order of one round: a seeded permutation of `0..pool`.
/// Round `round` of seed `seed` is the same on every run, so a run of whole
/// rounds compiles every pool entry equally often and its order statistics
/// do not depend on which entries a draw happened to favour.
pub fn round_order(seed: u64, round: u64, pool: usize) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed ^ round.wrapping_mul(0xD1B5_4A32_D192_ED03));
    let mut order: Vec<usize> = (0..pool).collect();
    for i in (1..pool).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_exactly_ten_samples_beyond_it() {
        assert_eq!(tail(&[1.0; 10]), None, "ten samples leave none to report");
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&eleven).unwrap();
        assert_eq!((t.value, t.rank, t.count), (1.0, 1, 11));
        // 100 samples: the 90th is the highest with ten beyond it.
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&hundred).unwrap();
        assert_eq!((t.value, t.rank), (90.0, 90));
        assert_eq!(t.percentile(), 90.0);
        let beyond = hundred.iter().filter(|&&v| v > t.value).count();
        assert_eq!(beyond, TAIL_BEYOND);
    }

    #[test]
    fn geomean_matches_closed_forms() {
        assert!((geomean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        assert!((geomean(&[0.5, 0.5, 0.5]).unwrap() - 0.5).abs() < 1e-12);
        assert!((geomean(&[1.0, 10.0, 100.0]).unwrap() - 10.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn self_time_subtracts_the_covered_union() {
        assert_eq!(self_time(0.0, 10.0, &[]), 10.0);
        // Disjoint children.
        assert_eq!(self_time(0.0, 10.0, &[(1.0, 2.0), (5.0, 8.0)]), 6.0);
        // Overlapping children count their union once.
        assert_eq!(self_time(0.0, 10.0, &[(1.0, 4.0), (3.0, 6.0)]), 5.0);
        // Nested children add nothing.
        assert_eq!(self_time(0.0, 10.0, &[(2.0, 8.0), (3.0, 4.0)]), 4.0);
        // Children sticking out of the parent are clipped to it.
        assert_eq!(self_time(2.0, 6.0, &[(0.0, 3.0), (5.0, 9.0)]), 2.0);
        // A child entirely outside the parent does not count.
        assert_eq!(self_time(2.0, 6.0, &[(7.0, 9.0)]), 4.0);
        // Fully covered.
        assert_eq!(self_time(2.0, 6.0, &[(0.0, 9.0)]), 0.0);
    }

    #[test]
    fn group_medians_ignore_a_minority_of_slow_repeats() {
        let values = [1.0, 1.1, 9.0, 5.0, 5.0, 5.2];
        let groups = [0, 0, 0, 1, 1, 1];
        assert_eq!(
            median_of_group(&values, &groups),
            [1.1, 1.1, 1.1, 5.0, 5.0, 5.0]
        );
    }

    #[test]
    fn window_rates_use_the_span_between_window_ends() {
        // Windows of two: ends at 2 s and 3 s.
        let done = [1.0, 2.0, 2.5, 3.0, 9.0];
        let work = [1.0, 1.0, 10.0, 10.0, 1.0];
        assert_eq!(window_rates(&done, &work, 2), [1.0, 20.0]);
    }

    #[test]
    fn round_order_is_a_seeded_permutation() {
        let a = round_order(7, 0, 10);
        assert_eq!(a, round_order(7, 0, 10), "same seed, same draw");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>(), "a permutation");
        assert_ne!(a, round_order(8, 0, 10), "another seed, another draw");
        assert_ne!(a, round_order(7, 1, 10), "rounds differ within a run");
    }

    #[test]
    fn splitmix_is_fixed_by_its_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut r = SplitMix64::new(1);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
            assert!(r.below(7) < 7);
        }
    }
}
