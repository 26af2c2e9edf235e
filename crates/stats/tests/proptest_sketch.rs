//! Property tests for [`QuantileSketch`]: the canonical-order merge fold
//! must be bit-deterministic no matter how the parts were produced, the
//! rank error must stay within the `depth·n/k` analysis bound, answers
//! must be bracketed by the pushed sample, and the raw codec must
//! round-trip bit-exactly through arbitrary push/merge histories.

use eproc_stats::summary;
use eproc_stats::QuantileSketch;
use proptest::prelude::*;

/// Splits `data` into `parts` contiguous chunks, sketches each with a
/// seed derived from its chunk index (the engine's block-seed shape),
/// then left-folds the chunk sketches into an accumulator in canonical
/// (index) order — the only merge order the engine ever uses.
fn fold_chunks(data: &[f64], parts: usize, k: usize, base_seed: u64) -> QuantileSketch {
    let parts = parts.max(1);
    let chunk = data.len().div_ceil(parts).max(1);
    let mut acc = QuantileSketch::with_k(k, base_seed);
    for (ci, slice) in data.chunks(chunk).enumerate() {
        let mut sk = QuantileSketch::with_k(k, base_seed ^ (ci as u64 + 1).wrapping_mul(0x9e37));
        for &x in slice {
            sk.push(x);
        }
        acc.merge(&sk);
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Two canonical-order folds of the same data with the same chunking
    /// are bit-identical — and identical to building the chunk sketches
    /// in reverse order first. The fold is a pure function of the data,
    /// the chunk boundaries and the seeds; worker scheduling cannot
    /// perturb it, which is what makes sharded and resumed engine runs
    /// byte-identical to uninterrupted ones.
    #[test]
    fn canonical_fold_is_schedule_independent(
        len in 0usize..400,
        parts in 1usize..8,
        k in 4usize..32,
        seed in 0u64..1000,
    ) {
        let data: Vec<f64> = (0..len).map(|i| ((i as u64 * 7919 + seed) % 1000) as f64).collect();
        let a = fold_chunks(&data, parts, k, seed);
        let b = fold_chunks(&data, parts, k, seed);
        prop_assert_eq!(a.to_raw(), b.to_raw());

        // Build the same chunk sketches in reverse, merge in canonical
        // order: still bit-identical (construction order of the parts is
        // irrelevant; only the fold order matters).
        let parts_n = parts.max(1);
        let chunk = data.len().div_ceil(parts_n).max(1);
        let mut built: Vec<(usize, QuantileSketch)> = data
            .chunks(chunk)
            .enumerate()
            .rev()
            .map(|(ci, slice)| {
                let mut sk =
                    QuantileSketch::with_k(k, seed ^ (ci as u64 + 1).wrapping_mul(0x9e37));
                for &x in slice {
                    sk.push(x);
                }
                (ci, sk)
            })
            .collect();
        built.sort_by_key(|&(ci, _)| ci);
        let mut acc = QuantileSketch::with_k(k, seed);
        for (_, sk) in &built {
            acc.merge(sk);
        }
        prop_assert_eq!(acc.to_raw(), a.to_raw());
    }

    /// Chunk count changes *which* items survive compaction, but never
    /// the total weight, and every answer stays within the pushed
    /// sample's range.
    #[test]
    fn fold_conserves_weight_and_brackets_the_sample(
        len in 1usize..300,
        parts in 1usize..6,
        k in 4usize..24,
        seed in 0u64..1000,
    ) {
        let data: Vec<f64> = (0..len)
            .map(|i| ((i as u64 * 2654435761 + seed) % 997) as f64 - 500.0)
            .collect();
        let acc = fold_chunks(&data, parts, k, seed);
        prop_assert_eq!(acc.count(), len as u64);
        prop_assert!(acc.retained() as u64 <= acc.count());
        let lo = data.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let est = acc.quantile(q).unwrap();
            prop_assert!((lo..=hi).contains(&est), "q={}: {} outside [{}, {}]", q, est, lo, hi);
        }
    }

    /// On a permutation of `0..n` (value == rank) the sketch's answer is
    /// within the module's advertised `depth·n/k` rank-error bound of
    /// the exact quantile, even after heavy compaction and merging.
    #[test]
    fn rank_error_stays_within_the_analysis_bound(
        len in 1usize..1500,
        parts in 1usize..6,
        stride in 1u64..50,
        seed in 0u64..1000,
    ) {
        // A coprime stride walks a full permutation of 0..len.
        let n = len as u64;
        let mut s = stride;
        while gcd(s, n.max(1)) != 1 {
            s += 1;
        }
        let data: Vec<f64> = (0..n).map(|i| ((i * s) % n) as f64).collect();
        let k = 16;
        let acc = fold_chunks(&data, parts, k, seed);
        let bound = (acc.depth() as f64) * (n as f64) / (k as f64);
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let est = acc.quantile(q).unwrap();
            // Values are 0..n, so exact quantile == interpolated rank.
            let exact = summary::quantile(&data, q).unwrap();
            prop_assert!(
                (est - exact).abs() <= bound + 1.0,
                "q={}: |{} - {}| > {}", q, est, exact, bound
            );
        }
    }

    /// Below capacity the sketch never compacts, so it answers *exactly*
    /// like the order-statistic helper on the buffered sample.
    #[test]
    fn uncompacted_sketch_is_exact(
        values in collection::vec(-1000i64..1000, 1..64),
        q_millis in 0u32..=1000,
    ) {
        let data: Vec<f64> = values.iter().map(|&v| v as f64).collect();
        let mut sk = QuantileSketch::new(9);
        for &x in &data {
            sk.push(x);
        }
        prop_assert_eq!(sk.depth(), 1);
        let q = f64::from(q_millis) / 1000.0;
        prop_assert_eq!(
            sk.quantile(q).unwrap().to_bits(),
            summary::quantile(&data, q).unwrap().to_bits()
        );
    }

    /// `to_raw`/`from_raw` is a bit-exact round trip at any point in an
    /// arbitrary push/merge history, and the revived sketch continues
    /// identically (same coin stream) under further pushes.
    #[test]
    fn raw_round_trip_preserves_state_and_future(
        len in 0usize..500,
        extra in 0usize..100,
        k in 2usize..32,
        seed in 0u64..1000,
    ) {
        let mut sk = QuantileSketch::with_k(k, seed);
        for i in 0..len {
            sk.push(((i as u64 * 31 + seed) % 211) as f64 * 0.5 - 20.0);
        }
        let raw = sk.to_raw();
        let mut back = QuantileSketch::from_raw(raw.clone());
        prop_assert_eq!(back.to_raw(), raw);
        // The revival carries the coin-stream state: both copies must
        // stay bit-identical through the same future pushes.
        for i in 0..extra {
            let x = (i as f64) * 1.25 - 3.0;
            sk.push(x);
            back.push(x);
        }
        prop_assert_eq!(back.to_raw(), sk.to_raw());
    }
}

/// Greatest common divisor (for picking a full-cycle stride).
fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}
