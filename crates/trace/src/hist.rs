//! Log-bucketed histograms over deterministic work units.
//!
//! Every distribution the observability layer records — sanitizer walk
//! sizes, search backtracks, unify attempts, touched-set sizes, mailbox
//! residence in scheduler steps — is a count of *work units*, never wall
//! clock, so the histograms are byte-identical across machines and runs.
//!
//! Buckets are powers of two: bucket `0` holds exactly the value `0`,
//! and bucket `i ≥ 1` holds the half-open range `[2^(i-1), 2^i)`. The
//! representation is sparse (only non-empty buckets are stored), and
//! [`Histogram::merge`] is associative and commutative, so per-worker
//! shards fold into one byte-stable aggregate regardless of worker
//! count or completion order — the property the proptests in
//! `tests/hist_props.rs` pin down.

use std::collections::BTreeMap;

use crate::Json;

/// The largest index [`bucket_index`] returns (the bucket of `u64::MAX`).
const MAX_BUCKET: u32 = 64;

/// Index of the log2 bucket holding `value`.
///
/// `0 → 0`; for `v ≥ 1` the index `i` satisfies `2^(i-1) ≤ v < 2^i`.
pub fn bucket_index(value: u64) -> u32 {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros()
    }
}

/// Inclusive lower bound of bucket `i`.
pub fn bucket_lo(i: u32) -> u64 {
    match i {
        0 => 0,
        _ => 1u64 << (i - 1),
    }
}

/// Exclusive upper bound of bucket `i` (saturating for the top bucket).
pub fn bucket_hi(i: u32) -> u64 {
    match i {
        0 => 1,
        1..=63 => 1u64 << i,
        _ => u64::MAX,
    }
}

/// A sparse powers-of-two histogram with exact count/sum/max sidecars.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: BTreeMap<u32, u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        *self.buckets.entry(bucket_index(value)).or_insert(0) += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Folds another shard into this one. Associative and commutative:
    /// any merge order over any sharding of the same samples produces
    /// identical bytes.
    pub fn merge(&mut self, other: &Histogram) {
        for (bucket, n) in &other.buckets {
            *self.buckets.entry(*bucket).or_insert(0) += n;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample seen.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Non-empty `(bucket_index, count)` pairs, ascending.
    pub fn buckets(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.buckets.iter().map(|(b, n)| (*b, *n))
    }

    /// Lower bound of the bucket holding the `percent`-th percentile
    /// sample (rank `⌈count·percent/100⌉`, clamped to at least the
    /// first sample). Integer-only, so the answer is a deterministic
    /// function of the bucket contents; returns 0 on an empty
    /// histogram. A log2 bucket lower bound is the conventional
    /// conservative quantile estimate for sparse histograms.
    pub fn quantile_lo(&self, percent: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (self.count.saturating_mul(percent).div_ceil(100)).clamp(1, self.count);
        let mut seen = 0u64;
        for (bucket, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_lo(*bucket);
            }
        }
        self.max
    }

    /// The histogram as a JSON object. Buckets carry their boundaries
    /// so consumers need not re-derive the bucketing rule:
    /// `{"count", "sum", "max", "buckets": [{"bucket","lo","hi","count"}]}`.
    pub fn to_json_value(&self) -> Json {
        let buckets = self
            .buckets
            .iter()
            .map(|(b, n)| {
                Json::obj([
                    ("bucket", Json::U64(u64::from(*b))),
                    ("lo", Json::U64(bucket_lo(*b))),
                    ("hi", Json::U64(bucket_hi(*b))),
                    ("count", Json::U64(*n)),
                ])
            })
            .collect();
        Json::obj([
            ("count", Json::U64(self.count)),
            ("sum", Json::U64(self.sum)),
            ("max", Json::U64(self.max)),
            ("buckets", Json::Arr(buckets)),
        ])
    }

    /// Reconstructs a histogram from [`Histogram::to_json_value`]
    /// output. Returns `None` if the shape is wrong, any bucket index
    /// is one [`bucket_index`] cannot return, any bucket's recorded
    /// `lo`/`hi` disagree with its index, or the bucket counts do not
    /// sum to `count` — drift between writer and reader is a hard
    /// error, not a guess.
    pub fn from_json_value(json: &Json) -> Option<Histogram> {
        let count = json.get("count")?.as_u64()?;
        let sum = json.get("sum")?.as_u64()?;
        let max = json.get("max")?.as_u64()?;
        let Json::Arr(items) = json.get("buckets")? else {
            return None;
        };
        let mut buckets = BTreeMap::new();
        let mut total = 0u64;
        for item in items {
            let bucket = u32::try_from(item.get("bucket")?.as_u64()?)
                .ok()
                .filter(|b| *b <= MAX_BUCKET)?;
            if item.get("lo")?.as_u64()? != bucket_lo(bucket)
                || item.get("hi")?.as_u64()? != bucket_hi(bucket)
            {
                return None;
            }
            let n = item.get("count")?.as_u64()?;
            total = total.checked_add(n)?;
            if buckets.insert(bucket, n).is_some() {
                return None;
            }
        }
        (total == count).then_some(Histogram {
            buckets,
            count,
            sum,
            max,
        })
    }
}

/// A named family of histograms, sorted by name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSet {
    hists: BTreeMap<String, Histogram>,
}

impl HistogramSet {
    /// An empty set.
    pub fn new() -> Self {
        HistogramSet::default()
    }

    /// Records one sample under `name`, creating the histogram on first
    /// use.
    pub fn record(&mut self, name: &str, value: u64) {
        self.hists
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// Folds another set into this one (associative and commutative,
    /// like [`Histogram::merge`]).
    pub fn merge(&mut self, other: &HistogramSet) {
        for (name, hist) in &other.hists {
            self.hists.entry(name.clone()).or_default().merge(hist);
        }
    }

    /// Folds one whole histogram into the entry named `name`.
    pub fn merge_histogram(&mut self, name: &str, hist: &Histogram) {
        self.hists.entry(name.to_string()).or_default().merge(hist);
    }

    /// The named histograms, sorted by name.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.hists.iter().map(|(n, h)| (n.as_str(), h))
    }

    /// The set as one JSON object keyed by histogram name (sorted).
    pub fn to_json_value(&self) -> Json {
        Json::Obj(
            self.hists
                .iter()
                .map(|(name, hist)| (name.clone(), hist.to_json_value()))
                .collect(),
        )
    }

    /// Reconstructs a set from [`HistogramSet::to_json_value`] output.
    pub fn from_json_value(json: &Json) -> Option<HistogramSet> {
        let Json::Obj(fields) = json else {
            return None;
        };
        let mut hists = BTreeMap::new();
        for (name, value) in fields {
            hists.insert(name.clone(), Histogram::from_json_value(value)?);
        }
        Some(HistogramSet { hists })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_follow_the_spec() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(u64::MAX), 64);
        for v in [0u64, 1, 2, 3, 4, 5, 127, 128, 129, u64::MAX] {
            let i = bucket_index(v);
            assert!(bucket_lo(i) <= v, "{v} below bucket {i}");
            if i < 64 {
                assert!(v < bucket_hi(i), "{v} above bucket {i}");
            }
        }
    }

    #[test]
    fn merge_equals_single_stream() {
        let samples = [0u64, 1, 1, 3, 8, 8, 9, 1000, 0];
        let mut whole = Histogram::new();
        for s in samples {
            whole.record(s);
        }
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for (i, s) in samples.iter().enumerate() {
            if i % 2 == 0 {
                a.record(*s);
            } else {
                b.record(*s);
            }
        }
        let mut merged = Histogram::new();
        merged.merge(&b);
        merged.merge(&a);
        assert_eq!(merged, whole);
        assert_eq!(
            merged.to_json_value().render(),
            whole.to_json_value().render()
        );
    }

    #[test]
    fn quantiles_return_bucket_lower_bounds() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile_lo(50), 0);
        for v in [1u64, 2, 3, 4, 100, 1000, 100_000] {
            h.record(v);
        }
        // rank(50%) = ceil(7·50/100) = 4 → the 4th sample (4) sits in
        // bucket [4,8) whose lower bound is 4.
        assert_eq!(h.quantile_lo(50), 4);
        // rank(99%) = 7 → bucket of 100_000 is [65536,131072).
        assert_eq!(h.quantile_lo(99), 65536);
        // rank(1%) clamps to the first sample.
        assert_eq!(h.quantile_lo(1), 1);
        assert_eq!(h.quantile_lo(100), 65536);
        let mut zeros = Histogram::new();
        zeros.record(0);
        zeros.record(0);
        assert_eq!(zeros.quantile_lo(99), 0);
    }

    #[test]
    fn json_round_trips() {
        let mut h = Histogram::new();
        for s in [0u64, 5, 17, 17, 90000] {
            h.record(s);
        }
        let json = h.to_json_value();
        let back = Histogram::from_json_value(&json).unwrap();
        assert_eq!(back, h);
        // A tampered boundary is rejected, not silently rebucketed.
        let rendered = json.render().replace("\"lo\": 16", "\"lo\": 15");
        let tampered = crate::parse_json(&rendered).unwrap();
        assert!(Histogram::from_json_value(&tampered).is_none());
        // A bucket past the top one would shift out of range.
        let beyond = Json::obj([
            ("count", Json::U64(1)),
            ("sum", Json::U64(1)),
            ("max", Json::U64(1)),
            (
                "buckets",
                Json::Arr(vec![Json::obj([
                    ("bucket", Json::U64(65)),
                    ("lo", Json::U64(1)),
                    ("hi", Json::U64(u64::MAX)),
                    ("count", Json::U64(1)),
                ])]),
            ),
        ]);
        assert!(Histogram::from_json_value(&beyond).is_none());
        // Bucket counts that disagree with the total are rejected.
        let rendered = json.render().replace("\"count\": 5", "\"count\": 6");
        let tampered = crate::parse_json(&rendered).unwrap();
        assert!(Histogram::from_json_value(&tampered).is_none());
    }

    #[test]
    fn set_merges_and_round_trips() {
        let mut a = HistogramSet::new();
        a.record("walks", 3);
        a.record("walks", 900);
        a.record("depth", 0);
        let mut b = HistogramSet::new();
        b.record("walks", 4);
        b.record("residence", 12);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.to_json_value().render(), ba.to_json_value().render());
        let back = HistogramSet::from_json_value(&ab.to_json_value()).unwrap();
        assert_eq!(back, ab);
    }
}
