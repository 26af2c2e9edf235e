//! Streaming (Welford) statistics.

/// Numerically stable streaming mean/variance accumulator.
///
/// # Example
///
/// ```
/// use eproc_stats::OnlineStats;
///
/// let mut acc = OnlineStats::new();
/// for x in [2.0, 4.0, 6.0] {
///     acc.push(x);
/// }
/// assert_eq!(acc.count(), 3);
/// assert!((acc.mean() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for OnlineStats {
    /// The empty accumulator of [`OnlineStats::new`], with its `±∞`
    /// min/max sentinels, so a defaulted field folds like a fresh one.
    fn default() -> OnlineStats {
        OnlineStats::new()
    }
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> OnlineStats {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds an observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN.
    pub fn push(&mut self, x: f64) {
        assert!(!x.is_nan(), "cannot accumulate NaN");
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 for fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation, `None` when empty.
    ///
    /// The internal sentinel of an empty accumulator is `+∞` — returning
    /// `Option` here keeps that non-finite value from ever leaking into
    /// strict-JSON artifacts through a forgotten emptiness check.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, `None` when empty (see
    /// [`min`](OnlineStats::min)).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Snapshots the raw accumulator state as `(count, [mean, m2, min,
    /// max])` with the floats as IEEE-754 bit patterns.
    ///
    /// This is the **bit-exact** serialisation: `m2` is not recoverable
    /// from [`variance`](OnlineStats::variance) without rounding, and the
    /// `±∞` sentinels of an empty accumulator have no decimal form, so
    /// anything that persists an accumulator and later
    /// [`merge`](OnlineStats::merge)s it (e.g. shard artifacts combined
    /// by `eproc merge`) must round-trip the bits, not the values.
    pub fn to_raw(&self) -> (u64, [u64; 4]) {
        (
            self.count,
            [
                self.mean.to_bits(),
                self.m2.to_bits(),
                self.min.to_bits(),
                self.max.to_bits(),
            ],
        )
    }

    /// Reconstructs an accumulator from a [`to_raw`](OnlineStats::to_raw)
    /// snapshot, bit for bit.
    pub fn from_raw(count: u64, bits: [u64; 4]) -> OnlineStats {
        OnlineStats {
            count,
            mean: f64::from_bits(bits[0]),
            m2: f64::from_bits(bits[1]),
            min: f64::from_bits(bits[2]),
            max: f64::from_bits(bits[3]),
        }
    }

    /// Merges another accumulator (parallel Welford combination).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64) * (other.count as f64) / total as f64;
        self.mean += delta * other.count as f64 / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_batch_statistics() {
        let data = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut acc = OnlineStats::new();
        for &x in &data {
            acc.push(x);
        }
        let s = crate::Summary::from_slice(&data);
        assert!((acc.mean() - s.mean).abs() < 1e-12);
        assert!((acc.variance() - s.variance).abs() < 1e-12);
        assert_eq!(acc.min(), Some(s.min));
        assert_eq!(acc.max(), Some(s.max));
    }

    #[test]
    fn empty_defaults() {
        let acc = OnlineStats::new();
        assert_eq!(acc.count(), 0);
        assert_eq!(acc.mean(), 0.0);
        assert_eq!(acc.variance(), 0.0);
        assert_eq!(acc.min(), None);
        assert_eq!(acc.max(), None);
    }

    #[test]
    fn default_is_new() {
        assert_eq!(OnlineStats::default(), OnlineStats::new());
        let mut acc = OnlineStats::default();
        acc.push(5.0);
        assert_eq!(acc.min(), Some(5.0));
        assert_eq!(acc.max(), Some(5.0));
    }

    #[test]
    fn merge_equals_sequential() {
        let all = [1.0, 2.0, 3.0, 10.0, 20.0, 30.0];
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &all[..3] {
            a.push(x);
        }
        for &x in &all[3..] {
            b.push(x);
        }
        a.merge(&b);
        let mut seq = OnlineStats::new();
        for &x in &all {
            seq.push(x);
        }
        assert_eq!(a.count(), seq.count());
        assert!((a.mean() - seq.mean()).abs() < 1e-12);
        assert!((a.variance() - seq.variance()).abs() < 1e-9);
    }

    #[test]
    fn raw_round_trip_is_bit_exact() {
        let mut acc = OnlineStats::new();
        for x in [0.1, 0.2, 0.3000000004, 1e17, -3.5] {
            acc.push(x);
        }
        let (count, bits) = acc.to_raw();
        let back = OnlineStats::from_raw(count, bits);
        assert_eq!(back, acc);
        assert_eq!(back.mean().to_bits(), acc.mean().to_bits());
        assert_eq!(back.variance().to_bits(), acc.variance().to_bits());
        // The empty accumulator's ±∞ sentinels survive too (as raw bits;
        // the accessors hide them behind `None`).
        let (count, bits) = OnlineStats::new().to_raw();
        let empty = OnlineStats::from_raw(count, bits);
        assert_eq!(empty, OnlineStats::new());
        assert_eq!(bits[2], f64::INFINITY.to_bits());
        assert_eq!(bits[3], f64::NEG_INFINITY.to_bits());
        assert_eq!(empty.min(), None);
        assert_eq!(empty.max(), None);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(5.0);
        let before = a;
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);
        let mut empty = OnlineStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }
}
