//! Summary statistics, digests and failure accounting.

/// Nearest-rank percentile (`p` in 0..=100) of `sorted`, which must be
/// sorted ascending. Non-finite samples (failed requests) sort last and
/// are returned as-is when the rank lands on them.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (upper median for even counts; 0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    percentile(&v, 50.0)
}

/// Harrell–Davis estimate of the `p`-th percentile (`p` in 1..=99) of
/// `sorted`, which must be sorted ascending and finite: a mean of every
/// sample weighted by a Beta((n+1)q, (n+1)(1-q)) density. With a few
/// dozen samples of different inputs the nearest-rank percentile jumps
/// from one sample to its neighbour when a single sample changes rank;
/// this estimate moves smoothly instead.
pub fn harrell_davis(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n < 2 {
        return sorted.first().copied().unwrap_or(0.0);
    }
    let q = p / 100.0;
    let m = n as f64 + 1.0;
    let (a, b) = (m * q, m * (1.0 - q));
    // the density at the midpoints of 64 cells per sample; cell k lies
    // in the (k / 64)-th sample's interval ((i - 1) / n, i / n)
    let cells = 64 * n;
    let mut weight = vec![0.0; n];
    for k in 0..cells {
        let x = (k as f64 + 0.5) / cells as f64;
        weight[k / 64] += ((a - 1.0) * x.ln() + (b - 1.0) * (1.0 - x).ln()).exp();
    }
    let total: f64 = weight.iter().sum();
    weight.iter().zip(sorted).map(|(w, v)| w * v).sum::<f64>() / total
}

/// Sort ascending with non-finite values last.
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.total_cmp(b));
}

/// Percentiles a timing is reported at, highest first.
pub const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// The highest percentile of `ladder` (ordered highest first) that has
/// at least ten of `n` samples beyond it, so the tail it reports is made
/// of more than one or two unlucky samples. `None` when even the lowest
/// rung is not supported.
pub fn highest_supported_percentile(n: usize, ladder: &[f64]) -> Option<f64> {
    ladder
        .iter()
        .copied()
        .find(|p| (n as f64) * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Attempted and failed operations of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one operation; `ok == false` counts it as failed too.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Count `n` attempted operations whose verdicts come later through
    /// [`Tally::fail_attempted`].
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Mark `n` already-attempted operations as failed (a later check
    /// rejected them), never counting one operation twice.
    pub fn fail_attempted(&mut self, n: u64) {
        self.failed = (self.failed + n).min(self.attempted);
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed share of attempted operations; a run that attempted
    /// nothing has failed entirely.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// 64-bit FNV-1a, used to digest program outputs for the correctness gate.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Feed one length-delimited part, so `("ab","c")` and `("a","bc")` differ.
    pub fn part(&mut self, bytes: &[u8]) -> &mut Digest {
        for b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Digest of a single byte string.
pub fn digest(bytes: &[u8]) -> String {
    Digest::default().part(bytes).hex()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn harrell_davis_is_a_smooth_median() {
        assert_eq!(harrell_davis(&[], 50.0), 0.0);
        assert_eq!(harrell_davis(&[4.0], 50.0), 4.0);
        assert!((harrell_davis(&[2.0; 7], 50.0) - 2.0).abs() < 1e-12);
        // symmetric weights: the median of evenly spaced samples
        let v: Vec<f64> = (1..=16).map(f64::from).collect();
        assert!((harrell_davis(&v, 50.0) - 8.5).abs() < 1e-9);
        // one sample crossing the middle moves the estimate a little,
        // where the nearest-rank median jumps by the whole gap
        let low = [1.0, 2.0, 3.0, 4.0, 10.0, 11.0, 12.0];
        let high = [1.0, 2.0, 3.0, 10.0, 10.5, 11.0, 12.0];
        assert_eq!(percentile(&high, 50.0) - percentile(&low, 50.0), 6.0);
        let (hl, hh) = (harrell_davis(&low, 50.0), harrell_davis(&high, 50.0));
        assert!(hl < hh && hh - hl < 3.0, "{hl} {hh}");
        assert!(harrell_davis(&v, 90.0) > harrell_davis(&v, 50.0));
    }

    #[test]
    fn failed_samples_miss_every_latency_bound() {
        let mut v = vec![1.0, 2.0, f64::INFINITY, 3.0];
        sort(&mut v);
        assert_eq!(v[3], f64::INFINITY);
        assert_eq!(percentile(&v, 100.0), f64::INFINITY);
        assert_eq!(percentile(&v, 50.0), 2.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(
            highest_supported_percentile(10_000, &TAIL_LADDER),
            Some(99.9)
        );
        assert_eq!(
            highest_supported_percentile(9_999, &TAIL_LADDER),
            Some(99.0)
        );
        assert_eq!(
            highest_supported_percentile(1_000, &TAIL_LADDER),
            Some(99.0)
        );
        assert_eq!(highest_supported_percentile(999, &TAIL_LADDER), Some(90.0));
        assert_eq!(highest_supported_percentile(100, &TAIL_LADDER), Some(90.0));
        assert_eq!(highest_supported_percentile(99, &TAIL_LADDER), Some(50.0));
        assert_eq!(highest_supported_percentile(20, &TAIL_LADDER), Some(50.0));
        assert_eq!(highest_supported_percentile(19, &TAIL_LADDER), None);
        assert_eq!(highest_supported_percentile(0, &TAIL_LADDER), None);
    }

    #[test]
    fn error_rate_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.error_rate(), 1.0, "nothing attempted is total failure");
        t.record(true);
        t.record(false);
        t.attempt(8);
        assert_eq!((t.attempted, t.failed), (10, 1));
        assert!((t.error_rate() - 0.1).abs() < 1e-12);
        t.fail_attempted(3);
        assert_eq!(t.failed, 4);
        t.fail_attempted(100);
        assert_eq!(t.failed, 10, "failures never exceed attempts");
        let mut u = Tally::default();
        u.attempt(5);
        u.fail_attempted(5);
        t.merge(u);
        assert_eq!((t.attempted, t.failed), (15, 15));
        assert_eq!(t.error_rate(), 1.0);
    }

    #[test]
    fn digest_separates_parts() {
        let a = Digest::default().part(b"ab").part(b"c").hex();
        let b = Digest::default().part(b"a").part(b"bc").hex();
        assert_ne!(a, b);
        assert_eq!(digest(b"x"), digest(b"x"));
    }
}
