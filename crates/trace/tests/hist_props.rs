//! Property tests for the histogram merge laws — the invariant that
//! lets per-worker shards fold into one byte-stable aggregate no matter
//! how the parallel pool sliced or ordered the work.
//!
//! * Sharding: splitting a sample stream into any number of shards and
//!   merging them equals recording the stream serially.
//! * Order: merging shards in any rotation/permutation produces the
//!   same bytes (associativity + commutativity).
//! * JSON: bucket boundaries and sidecar counts survive a round trip
//!   through the rendered document.

use proptest::prelude::*;

use fearless_trace::{bucket_hi, bucket_index, bucket_lo, Histogram, HistogramSet};

fn record_all(samples: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for s in samples {
        h.record(*s);
    }
    h
}

/// Splits `samples` into `shards` round-robin histograms.
fn shard(samples: &[u64], shards: usize) -> Vec<Histogram> {
    let mut out = vec![Histogram::new(); shards.max(1)];
    for (i, s) in samples.iter().enumerate() {
        out[i % shards.max(1)].record(*s);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Serial recording and any sharded fold produce identical bytes.
    #[test]
    fn sharded_fold_matches_serial(
        samples in prop::collection::vec(0u64..1u64 << 40, 0..64),
        shards in 1usize..8,
    ) {
        let serial = record_all(&samples);
        let mut folded = Histogram::new();
        for piece in shard(&samples, shards) {
            folded.merge(&piece);
        }
        prop_assert_eq!(
            folded.to_json_value().render(),
            serial.to_json_value().render()
        );
    }

    /// Merge order does not matter: folding shards starting from any
    /// rotation, and pairwise in tree order, all agree.
    #[test]
    fn merge_is_order_independent(
        samples in prop::collection::vec(0u64..1u64 << 40, 1..64),
        shards in 2usize..8,
        rotate in 0usize..8,
    ) {
        let pieces = shard(&samples, shards);
        let mut forward = Histogram::new();
        for p in &pieces {
            forward.merge(p);
        }
        let mut rotated = Histogram::new();
        for i in 0..pieces.len() {
            rotated.merge(&pieces[(i + rotate) % pieces.len()]);
        }
        // Tree fold: merge pairs, then merge the pair results.
        let mut layer: Vec<Histogram> = pieces;
        while layer.len() > 1 {
            let mut next = Vec::new();
            for pair in layer.chunks(2) {
                let mut m = pair[0].clone();
                if let Some(rhs) = pair.get(1) {
                    m.merge(rhs);
                }
                next.push(m);
            }
            layer = next;
        }
        let forward_bytes = forward.to_json_value().render();
        prop_assert_eq!(&forward_bytes, &rotated.to_json_value().render());
        prop_assert_eq!(&forward_bytes, &layer[0].to_json_value().render());
    }

    /// Every sample lands in the bucket whose boundaries contain it,
    /// and the boundaries round-trip through JSON exactly.
    #[test]
    fn buckets_contain_their_samples_and_round_trip(
        samples in prop::collection::vec(0u64..u64::MAX, 1..32),
    ) {
        for s in &samples {
            let i = bucket_index(*s);
            prop_assert!(bucket_lo(i) <= *s);
            prop_assert!(*s < bucket_hi(i) || (i == 64 && *s >= bucket_lo(64)));
        }
        let h = record_all(&samples);
        let rendered = h.to_json_value().render();
        let parsed = fearless_trace::parse_json(&rendered).unwrap();
        let back = Histogram::from_json_value(&parsed).unwrap();
        prop_assert_eq!(back.to_json_value().render(), rendered);
    }

    /// Named sets obey the same laws: merging per-worker sets in any
    /// order equals one serial recording pass.
    #[test]
    fn histogram_sets_fold_deterministically(
        samples in prop::collection::vec((0u64..3, 0u64..1u64 << 20), 0..48),
        shards in 1usize..6,
    ) {
        let names = ["walks", "residence", "depth"];
        let mut serial = HistogramSet::new();
        for (which, value) in &samples {
            serial.record(names[*which as usize], *value);
        }
        let mut pieces = vec![HistogramSet::new(); shards];
        for (i, (which, value)) in samples.iter().enumerate() {
            pieces[i % shards].record(names[*which as usize], *value);
        }
        let mut forward = HistogramSet::new();
        for p in &pieces {
            forward.merge(p);
        }
        let mut backward = HistogramSet::new();
        for p in pieces.iter().rev() {
            backward.merge(p);
        }
        let serial_bytes = serial.to_json_value().render();
        prop_assert_eq!(&serial_bytes, &forward.to_json_value().render());
        prop_assert_eq!(&serial_bytes, &backward.to_json_value().render());
        let parsed = fearless_trace::parse_json(&serial_bytes).unwrap();
        let back = HistogramSet::from_json_value(&parsed).unwrap();
        prop_assert_eq!(back.to_json_value().render(), serial_bytes);
    }
}
