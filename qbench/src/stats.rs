//! Latency histograms with fixed memory.
//!
//! A run may time millions of calls; keeping every sample would make the
//! benchmark's own memory grow with the throughput it measures (and show
//! up in `peak_rss_mb`). Values go into log-linear buckets instead: exact
//! below 128 ns, then 128 buckets per power of two (under 0.8 % relative
//! width). A quantile is located by rank and interpolated linearly inside
//! its bucket, treating the bucket's samples as evenly spread.

const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let shift = e - SUB_BITS;
    SUB + shift as usize * SUB + ((v >> shift) as usize - SUB)
}

/// `(lowest value, width)` of bucket `b`.
fn bounds(b: usize) -> (f64, f64) {
    if b < SUB {
        return (b as f64, 1.0);
    }
    let shift = ((b - SUB) / SUB) as i32;
    let width = 2f64.powi(shift);
    (((b - SUB) % SUB + SUB) as f64 * width, width)
}

/// A histogram of nanosecond samples.
#[derive(Clone)]
pub struct Histogram {
    counts: Box<[u64]>,
    n: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            n: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.n += 1;
        self.sum += ns;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.n += other.n;
        self.sum += other.sum;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The value of the `rank`-th smallest sample (0-based).
    fn value_at(&self, rank: u64) -> f64 {
        let mut below = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            if rank < below + c {
                let (lo, width) = bounds(b);
                return lo + width * (rank - below) as f64 / c as f64;
            }
            below += c;
        }
        0.0
    }

    /// The `q`-quantile (`0.0..=1.0`), interpolating between the two
    /// closest ranks (the "type 7" rule of R and NumPy's default); `0.0`
    /// when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let pos = q.clamp(0.0, 1.0) * (self.n - 1) as f64;
        let lo = pos.floor() as u64;
        let a = self.value_at(lo);
        if lo + 1 >= self.n {
            return a;
        }
        a + (self.value_at(lo + 1) - a) * (pos - lo as f64)
    }

    /// How many samples lie above the `q`-quantile: a percentile is worth
    /// reporting only with at least ten beyond it.
    pub fn beyond(&self, q: f64) -> u64 {
        ((1.0 - q) * self.n as f64).floor() as u64
    }
}

/// The median of `values` (`0.0` when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(values: impl IntoIterator<Item = u64>) -> Histogram {
        let mut h = Histogram::default();
        for v in values {
            h.record(v);
        }
        h
    }

    #[test]
    fn small_values_give_exact_quantiles() {
        let h = of(1..=100);
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.quantile(1.0), 100.0);
        assert!((h.quantile(0.5) - 50.5).abs() < 1e-9);
        assert!((h.quantile(0.99) - 99.01).abs() < 1e-9);
        assert_eq!(h.sum(), 5050);
        assert_eq!(of([7]).quantile(0.99), 7.0);
        assert_eq!(Histogram::default().quantile(0.5), 0.0);
    }

    #[test]
    fn large_values_are_within_a_bucket() {
        // 1000 samples at 10 µs and 10 at 1 ms: the median is 10 µs and
        // p99.9 lands in the 1 ms bucket.
        let h = of(std::iter::repeat_n(10_000, 1000).chain(std::iter::repeat_n(1_000_000, 10)));
        assert!((h.quantile(0.5) / 10_000.0 - 1.0).abs() < 0.008);
        assert!((h.quantile(0.999) / 1_000_000.0 - 1.0).abs() < 0.008);
        assert_eq!(h.beyond(0.99), 10);
    }

    #[test]
    fn buckets_cover_every_value_in_order() {
        let mut last = 0;
        for v in [
            0,
            1,
            127,
            128,
            129,
            255,
            256,
            1 << 20,
            (1 << 20) + 9999,
            u64::MAX,
        ] {
            let b = bucket_of(v);
            assert!(b >= last && b < BUCKETS, "{v}");
            let (lo, width) = bounds(b);
            assert!(lo <= v as f64 && (v as f64) < lo + width * 1.000001, "{v}");
            last = b;
        }
    }

    #[test]
    fn merged_histograms_add_up() {
        let mut a = of([1, 2, 3]);
        a.merge(&of([4, 5]));
        assert_eq!((a.count(), a.quantile(0.5)), (5, 3.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
