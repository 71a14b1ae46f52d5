//! Property tests for the integer [`Histogram`] behind the windowed SLO
//! time-series.
//!
//! The load-bearing property is *merge associativity/commutativity*: any
//! grouping of the same observations must produce the identical
//! histogram, so folding histograms together never depends on the fold
//! order. The percentile edge cases (empty, single bucket, p0/p1000) are pinned
//! alongside because the window exporter calls them on sparse windows
//! where single-observation histograms are the common case.

use accl_sim::stats::Histogram;
use proptest::prelude::*;

fn from_values(vals: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in vals {
        h.observe(v);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// merge(merge(a, b), c) == merge(a, merge(b, c)) == observing the
    /// concatenation directly — any grouping is equivalent.
    #[test]
    fn merge_is_associative_and_matches_sequential(
        a in proptest::collection::vec(any::<u64>(), 0..64),
        b in proptest::collection::vec(any::<u64>(), 0..64),
        c in proptest::collection::vec(any::<u64>(), 0..64),
    ) {
        let (ha, hb, hc) = (from_values(&a), from_values(&b), from_values(&c));

        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);

        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);

        let all: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
        let sequential = from_values(&all);

        prop_assert_eq!(&left, &right);
        prop_assert_eq!(&left, &sequential);
    }

    /// Merging is commutative: fold order cannot matter.
    #[test]
    fn merge_is_commutative(
        a in proptest::collection::vec(any::<u64>(), 0..64),
        b in proptest::collection::vec(any::<u64>(), 0..64),
    ) {
        let (ha, hb) = (from_values(&a), from_values(&b));
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(ab, ba);
    }

    /// Merging an empty histogram is the identity, in either direction.
    #[test]
    fn merge_with_empty_is_identity(
        a in proptest::collection::vec(any::<u64>(), 0..64),
    ) {
        let ha = from_values(&a);
        let mut left = ha.clone();
        left.merge(&Histogram::new());
        prop_assert_eq!(&left, &ha);
        let mut right = Histogram::new();
        right.merge(&ha);
        prop_assert_eq!(&right, &ha);
    }

    /// Percentiles are monotone in `p`, bracketed by min/max, and p1000
    /// is exactly the max. Out-of-range `p` clamps to 1000.
    #[test]
    fn percentiles_are_monotone_and_bracketed(
        vals in proptest::collection::vec(any::<u64>(), 1..128),
        p_lo in 0u64..1001,
        p_hi in 0u64..1001,
    ) {
        let h = from_values(&vals);
        let (lo, hi) = (p_lo.min(p_hi), p_lo.max(p_hi));
        let at_lo = h.percentile_permille(lo).unwrap();
        let at_hi = h.percentile_permille(hi).unwrap();
        prop_assert!(at_lo <= at_hi, "p{lo}={at_lo} > p{hi}={at_hi}");
        let min = h.min().unwrap();
        let max = h.max().unwrap();
        prop_assert!(at_lo >= min && at_hi <= max);
        prop_assert_eq!(h.percentile_permille(1000).unwrap(), max);
        prop_assert_eq!(h.percentile_permille(u64::MAX), h.percentile_permille(1000));
    }

    /// A single observation answers every percentile with itself — the
    /// sparse-window common case the SLO exporter leans on.
    #[test]
    fn single_observation_answers_every_percentile(v in any::<u64>(), p in 0u64..1001) {
        let h = from_values(&[v]);
        prop_assert_eq!(h.percentile_permille(p), Some(v));
        prop_assert_eq!(h.min(), Some(v));
        prop_assert_eq!(h.max(), Some(v));
        prop_assert_eq!(h.count(), 1);
    }

    /// Values confined to one power-of-two bucket clamp to the observed
    /// min/max, never to the bucket's theoretical bounds.
    #[test]
    fn single_bucket_percentiles_stay_within_observations(
        bucket in 1usize..64,
        offsets in proptest::collection::vec(0u64..1024, 1..32),
        p in 0u64..1001,
    ) {
        let floor = Histogram::bucket_floor(bucket);
        let width = floor; // bucket i spans [2^(i-1), 2^i)
        let vals: Vec<u64> = offsets.iter().map(|o| floor + o % width.max(1)).collect();
        let h = from_values(&vals);
        let got = h.percentile_permille(p).unwrap();
        prop_assert!(got >= h.min().unwrap() && got <= h.max().unwrap());
    }
}

#[test]
fn empty_histogram_has_no_percentiles() {
    let h = Histogram::new();
    for p in [0, 1, 500, 999, 1000, u64::MAX] {
        assert_eq!(h.percentile_permille(p), None);
    }
    assert_eq!(h.min(), None);
    assert_eq!(h.max(), None);
    assert_eq!(h.mean(), None);
    assert_eq!(h.count(), 0);
}

#[test]
fn p0_and_p1_hit_the_first_observation_rank() {
    // p=0 still ranks at least one observation (rank clamps to 1), so it
    // answers the smallest bucket's clamped ceiling, never `None`.
    let mut h = Histogram::new();
    h.observe(10);
    h.observe(1000);
    let p0 = h.percentile_permille(0).unwrap();
    let p1 = h.percentile_permille(1).unwrap();
    assert!(
        (10..1000).contains(&p0),
        "p0 ranks the first observation: {p0}"
    );
    assert_eq!(p0, p1, "rank 1 for both at this count");
    assert_eq!(h.percentile_permille(1000), Some(1000));
}
