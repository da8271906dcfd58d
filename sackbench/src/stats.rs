//! Latency histograms.
//!
//! Samples go into a log-linear histogram (128 linear sub-buckets per
//! power of two, so a bucket is at most 0.8 % wide) instead of a vector:
//! the benchmark's own memory then stays constant however many ops a run
//! completes, which keeps `peak_rss_mb` a property of the program.

/// Linear sub-buckets per power of two; values below this are exact.
const SUB: u64 = 128;
const SUB_BITS: u32 = 7;

fn index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let shift = e - SUB_BITS;
    (SUB + u64::from(shift) * SUB + ((v >> shift) - SUB)) as usize
}

/// Lower bound and width of bucket `i`.
fn bounds(i: usize) -> (f64, f64) {
    let i = i as u64;
    if i < SUB {
        return (i as f64, 1.0);
    }
    let shift = (i - SUB) / SUB;
    let sub = (i - SUB) % SUB;
    (((SUB + sub) << shift) as f64, (1u64 << shift) as f64)
}

/// Latency samples in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    counts: Vec<u64>,
    n: u64,
}

impl Samples {
    /// An empty sample set.
    pub fn new() -> Samples {
        Samples::default()
    }

    /// Adds one sample.
    pub fn push(&mut self, ns: u64) {
        let i = index(ns);
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
        self.n += 1;
    }

    /// Adds every sample of `other`.
    pub fn extend(&mut self, other: &Samples) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.n as usize
    }

    /// True when no sample was taken.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The `q` quantile (0..=1), interpolating linearly by rank inside the
    /// bucket that holds it; 0 for an empty set.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.n - 1) as f64;
        let mut before = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if rank < (before + c) as f64 {
                let (lo, width) = bounds(i);
                return lo + width * ((rank - before as f64) + 0.5) / c as f64;
            }
            before += c;
        }
        let (lo, width) = bounds(self.counts.len() - 1);
        lo + width
    }
}

/// Median of a slice of floats; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when the base is empty.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_values_exactly_once() {
        for v in [
            0u64,
            1,
            127,
            128,
            129,
            255,
            256,
            1000,
            123_456,
            u64::MAX / 3,
        ] {
            let (lo, width) = bounds(index(v));
            assert!(
                lo <= v as f64 && (v as f64) < lo + width,
                "{v}: {lo}+{width}"
            );
            assert!(width <= (v as f64 / 127.0).max(1.0), "{v}: width {width}");
        }
    }

    #[test]
    fn quantiles_stay_within_a_bucket_of_the_truth() {
        let mut s = Samples::new();
        for v in 1..=10_000u64 {
            s.push(v);
        }
        for (q, want) in [(0.5, 5000.5), (0.99, 9900.0), (0.01, 101.0)] {
            let got = s.quantile(q);
            assert!((got - want).abs() / want < 0.01, "q{q}: {got} vs {want}");
        }
        assert_eq!(s.len(), 10_000);
    }

    #[test]
    fn small_values_are_exact() {
        let mut s = Samples::new();
        for v in [10, 20, 30] {
            s.push(v);
        }
        assert_eq!(s.quantile(0.5).floor(), 20.0);
        let mut t = Samples::new();
        t.extend(&s);
        t.push(40);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
