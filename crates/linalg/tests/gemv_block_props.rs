//! `MatFx::gemv_block` against `MatFx::gemv` on a copied block, bit for bit.
//!
//! On x86_64 `gemv_block` sums 16-bit split products in i32 SIMD lanes
//! whenever a guard on the weight and input magnitudes proves the lanes
//! cannot wrap, and falls back to `gemv`'s scalar loop otherwise. Vectors
//! whose high halves are all 0 sum their low products in i16 lanes first,
//! for as many chunks as a per-tile budget allows. The kernel runs in tiles
//! of two weight rows by four vectors over panels of 16 KiB of narrowed
//! weights (32 rows of 256 columns), on AVX2 when the CPU has it and on
//! SSE2 otherwise; [`check`] runs the SSE2 body too on a CPU with AVX2. These properties draw blocks and batches on both
//! sides of the guard: DLRM-sized magnitudes (fast path), weights at
//! `|a| = 2^15 - 1` (fast) and `2^15` (fallback), inputs at `i32::MIN` and
//! `i32::MAX`, low halves with the sign bit set, widths with every `n % 8`
//! and `n % 16`, empty ranges, batch sizes 0 to 7, 16 and 17, widths on
//! either side of the guard's overflow edge, batches mixing zero-high and
//! nonzero-high vectors, widths at the i16 budget's edge, row counts on
//! both sides of a panel edge, fallback rows inside a panel, and tiles
//! whose two rows have different budgets.

use accl_linalg::fx::MatFx;
#[cfg(target_arch = "x86_64")]
use accl_linalg::fx::Simd;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The block `[rows, cols]` of `a` as a matrix of its own.
fn copy_block(a: &MatFx, rows: std::ops::Range<usize>, cols: std::ops::Range<usize>) -> MatFx {
    MatFx {
        rows: rows.len(),
        cols: cols.len(),
        data: rows
            .flat_map(|r| a.data[r * a.cols + cols.start..r * a.cols + cols.end].to_vec())
            .collect(),
    }
}

/// Asserts `gemv_block` equals `gemv` on the copied block for every vector;
/// on x86_64 with AVX2, so does `gemv_block_on` SSE2.
fn check(a: &MatFx, rows: std::ops::Range<usize>, cols: std::ops::Range<usize>, xs: &[Vec<i32>]) {
    let copy = copy_block(a, rows.clone(), cols.clone());
    #[allow(unused_mut)] // only x86_64 adds a second run
    let mut runs = vec![("detected", a.gemv_block(rows.clone(), cols.clone(), xs))];
    #[cfg(target_arch = "x86_64")]
    if Simd::detect() != Simd::Sse2 {
        runs.push((
            "SSE2",
            a.gemv_block_on(Simd::Sse2, rows.clone(), cols.clone(), xs),
        ));
    }
    for (set, ys) in runs {
        assert_eq!(ys.len(), xs.len());
        for (b, (y, x)) in ys.iter().zip(xs).enumerate() {
            assert_eq!(
                *y,
                copy.gemv(x),
                "{set}: vector {b} of {}, rows {rows:?}, cols {cols:?}",
                xs.len()
            );
        }
    }
}

/// Weight magnitudes, from DLRM-sized to past the i16 range.
fn weight(rng: &mut StdRng, regime: usize) -> i32 {
    match regime {
        // `DlrmModel`'s weights: ±0.05 in Q16.16.
        0 => rng.random_range(-3_277..3_278),
        // The largest i16 magnitude, which the kernel takes.
        1 => [32_767, -32_767, 0, 1][rng.random_range(0..4)],
        // `|a| = 2^15` falls back for the whole row.
        2 => [32_768, -32_768, 32_767, -32_767][rng.random_range(0..4)],
        _ => rng.random_range(i32::MIN..i32::MAX),
    }
}

/// Input values, from DLRM-sized to the i32 extremes.
fn input(rng: &mut StdRng, regime: usize) -> i32 {
    match regime {
        // Embeddings and activations: a few units in Q16.16.
        0 => rng.random_range(-(4 << 16)..(4 << 16)),
        // Low half with its sign bit set (`ls < 0`) under a small high half.
        1 => (rng.random_range(-8..8) << 16) | rng.random_range(0x8000..0x1_0000),
        // The i32 extremes and their neighbours.
        2 => [
            i32::MIN,
            i32::MAX,
            i32::MIN + 1,
            i32::MAX - 1,
            0x7fff_8000,
            -1,
        ][rng.random_range(0..6)],
        _ => rng.random_range(i32::MIN..i32::MAX),
    }
}

proptest! {
    // Miri interprets every SIMD lane; a few cases cover its UB check.
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 8 } else { 192 }))]

    /// Random blocks of random matrices, batches of 0, 1, 16 or 17 vectors.
    #[test]
    fn block_equals_gemv_on_a_copied_block(
        seed in any::<u64>(),
        regimes in (0usize..4, 0usize..4),
        shape in (1usize..12, 0usize..41),
        batch in 0usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (rows, cols) = shape;
        let a = MatFx {
            rows,
            cols,
            data: (0..rows * cols).map(|_| weight(&mut rng, regimes.0)).collect(),
        };
        let r0 = rng.random_range(0..rows + 1);
        let r1 = rng.random_range(r0..rows + 1);
        let c0 = rng.random_range(0..cols + 1);
        let c1 = rng.random_range(c0..cols + 1);
        let xs: Vec<Vec<i32>> = (0..[0, 1, 16, 17][batch])
            .map(|_| (c0..c1).map(|_| input(&mut rng, regimes.1)).collect())
            .collect();
        check(&a, r0..r1, c0..c1, &xs);
    }
}

#[test]
fn every_width_mod_8_on_dlrm_magnitudes() {
    let mut rng = StdRng::seed_from_u64(8);
    for n in 0..=33 {
        let a = MatFx {
            rows: 5,
            cols: n + 3,
            data: (0..5 * (n + 3)).map(|_| weight(&mut rng, 0)).collect(),
        };
        for batch in [0, 1, 16, 17] {
            let xs: Vec<Vec<i32>> = (0..batch)
                .map(|_| (0..n).map(|_| input(&mut rng, 1)).collect())
                .collect();
            check(&a, 1..5, 2..2 + n, &xs);
        }
    }
}

#[test]
fn empty_ranges_and_batches() {
    let a = MatFx {
        rows: 4,
        cols: 9,
        data: (0..36).collect(),
    };
    let xs = vec![vec![1 << 16; 9]; 3];
    check(&a, 2..2, 0..9, &xs);
    check(&a, 0..4, 0..9, &[]);
    let empty: Vec<Vec<i32>> = vec![Vec::new(); 17];
    check(&a, 0..4, 5..5, &empty);
    assert_eq!(a.gemv_block(0..4, 5..5, &empty), vec![vec![0; 4]; 17]);
}

/// Every product at the guard's worst case: `|a| = 2^15 - 1`, high half `h`,
/// and `|(a·ls) >> 16| = 2^14`, all of one sign. The guard admits `n` up
/// to `(2^31 - 1) / (32767·h + 2^14)`, where the exact sum still fits an
/// i32 and the lanes must not wrap; one column more falls back, and there
/// the scalar sum saturates. (Under Miri only the narrow edges run.)
#[test]
fn widths_at_the_guard_edge() {
    let hs: &[i64] = if cfg!(miri) {
        &[64, 32_767]
    } else {
        &[0, 1, 3, 64, 32_767]
    };
    for &h in hs {
        let per = 32_767 * h + (1 << 14);
        let edge = ((1i64 << 31) - 1) / per;
        for n in [edge - 1, edge, edge + 1, edge + 8] {
            let n = n as usize;
            let a = MatFx {
                rows: 2,
                cols: n,
                data: [vec![-32_767; n], vec![32_767; n]].concat(),
            };
            // x = h·2^16 + 0x7fff: (a·x) >> 16 = a·h + floor(a·0x7fff / 2^16).
            let x = ((h as i32) << 16) | 0x7fff;
            let xs = [vec![x; n], vec![-x; n]];
            check(&a, 0..2, 0..n, &xs);
        }
    }
}

#[test]
fn i32_extremes_in_every_lane() {
    let a = MatFx {
        rows: 3,
        cols: 16,
        data: [vec![32_767; 16], vec![-32_767; 16], vec![1; 16]].concat(),
    };
    for x in [i32::MIN, i32::MAX, i32::MIN + 0x8000, 0x7fff_7fff, -0x8000] {
        let xs: Vec<Vec<i32>> = (0..5).map(|b| vec![x.wrapping_add(b); 16]).collect();
        check(&a, 0..3, 0..16, &xs);
    }
}

/// A vector of `n` values of one kind: 0 has every high half 0 (`|x| <=
/// 2^15`, both ends included), 1 has some nonzero high half, and 2 has one
/// high half of `2^15`, which no i16 holds (the scalar fallback).
fn vector_of_kind(rng: &mut StdRng, kind: usize, n: usize) -> Vec<i32> {
    let mut x: Vec<i32> = (0..n).map(|_| rng.random_range(-32_768..32_768)).collect();
    if n > 0 {
        x[0] = [-32_768, 32_767][rng.random_range(0..2)];
        let k = rng.random_range(0..n);
        match kind {
            0 => {}
            1 => x[k] = rng.random_range(1..8) << 16,
            _ => x[k] = i32::MAX,
        }
    }
    x
}

/// Zero-high vectors (kind 0) take the i16 path and the others the i32 one,
/// so batches that interleave them, inside one group of four and across
/// groups, must give every vector its own `gemv` result.
#[test]
fn zero_high_and_nonzero_high_vectors_in_one_batch() {
    let mut rng = StdRng::seed_from_u64(30);
    let kinds: &[&[usize]] = &[
        &[0, 1, 0, 0],
        &[1, 0, 0, 0, 0, 1, 1, 0, 0, 1, 0],
        &[0, 0, 2, 0, 1, 0, 0, 0, 2, 1, 1, 0, 1],
        &[1, 1, 1, 1, 0, 0, 0, 0, 0],
    ];
    for n in [7, 8, 37, 200] {
        let a = MatFx {
            rows: 6,
            cols: n + 2,
            data: (0..6 * (n + 2)).map(|_| weight(&mut rng, 0)).collect(),
        };
        for batch in kinds {
            let xs: Vec<Vec<i32>> = batch
                .iter()
                .map(|&kind| vector_of_kind(&mut rng, kind, n))
                .collect();
            check(&a, 0..6, 1..1 + n, &xs);
        }
    }
}

/// Zero-high vectors sum `floor(a·ls / 2^16)` in i16 lanes for up to `K =
/// 32767 / ((A·L >> 16) + 1)` chunks (registers of 8 columns on SSE2, 16 on
/// AVX2) before widening, where `A` is the tile's largest `|a|` and `L` the
/// group's largest `|ls|`. Here
/// every product of the first row sits at the negative extreme `-((A·L >>
/// 16) + 1)` (`A·L` is not a multiple of 2^16), so a lane that summed more
/// chunks than the budget, or a budget without the `+ 1`, could wrap. The
/// largest `|ls|` belongs to the fourth vector of a group of four, and
/// widths run at `K - 1`, `K` and `K + 1` chunks and past `2K` (not under
/// Miri), for chunks of both widths (only 8 under Miri, which has no AVX2).
#[test]
fn widths_at_the_lane_budget_edge() {
    let widths: &[usize] = if cfg!(miri) { &[8] } else { &[8, 16] };
    // (A, L, K): FC1's magnitudes, a middling pair, and K = 1.
    for (max_a, l, k) in [
        (3_277, 3_277, 199),
        (1_000, 20_000, 107),
        (32_767, -32_768, 1),
    ] {
        let per = ((i64::from(max_a) * i64::from(l).abs()) >> 16) + 1;
        assert_ne!(i64::from(max_a) * i64::from(l) % (1 << 16), 0);
        assert_eq!(32_767 / per, k);
        // `a·ls < 0` for every product of row 0, `> 0` for row 1.
        let a = if l > 0 { -max_a } else { max_a };
        let past = if cfg!(miri) { k + 1 } else { 2 * k + 1 };
        for (chunks, &lanes) in [k - 1, k, k + 1, past]
            .into_iter()
            .flat_map(|c| widths.iter().map(move |w| (c, w)))
        {
            let n = lanes * chunks as usize;
            let m = MatFx {
                rows: 2,
                cols: n,
                data: [vec![a; n], vec![-a; n]].concat(),
            };
            let xs = [vec![1; n], vec![-1; n], vec![7; n], vec![l; n], vec![l; n]];
            check(&m, 0..2, 0..n, &xs);
        }
    }
}

/// `rows × cols` weights at DLRM's magnitudes.
fn dlrm_weights(rng: &mut StdRng, rows: usize, cols: usize) -> MatFx {
    MatFx {
        rows,
        cols,
        data: (0..rows * cols).map(|_| weight(rng, 0)).collect(),
    }
}

/// Odd row counts end in a one-row tile, and at 256 columns (a 32-row
/// panel) 31 to 33 and 63 to 65 rows sit on both sides of a panel edge. Batches of 1 to 7 vectors give
/// every partial group of four, once with only zero-high vectors and once
/// with zero-high, nonzero-high and scalar (`hr = 2^15`) ones mixed.
#[test]
fn row_counts_around_the_panel_edge_and_partial_groups() {
    let mut rng = StdRng::seed_from_u64(32);
    let row_counts: &[usize] = if cfg!(miri) {
        &[1, 3, 33]
    } else {
        &[1, 2, 3, 5, 31, 32, 33, 63, 64, 65]
    };
    for &rows in row_counts {
        let n = 256;
        let a = dlrm_weights(&mut rng, rows + 1, n + 2);
        for mixed in [false, true] {
            for batch in 1..=7 {
                let xs: Vec<Vec<i32>> = (0..batch)
                    .map(|b| {
                        let kind = if mixed { [0, 1, 0, 0, 1, 2, 0][b] } else { 0 };
                        vector_of_kind(&mut rng, kind, n)
                    })
                    .collect();
                check(&a, 1..1 + rows, 2..2 + n, &xs);
            }
        }
    }
}

/// Rows with some `|a| >= 2^15` take the scalar loop for every vector, and
/// the narrowed rows around them still pair into tiles: fallback rows at
/// odd and even positions, in both panels of a 40-row block of 256
/// columns (32-row panels), and the same block shifted by one row.
#[test]
fn fallback_rows_inside_a_panel() {
    let mut rng = StdRng::seed_from_u64(15);
    let (rows, n) = (40, 256);
    let mut a = dlrm_weights(&mut rng, rows, n);
    for (r, c) in [(0, 3), (5, 0), (6, 255), (17, 11), (33, 7)] {
        a.data[r * n + c] = [32_768, -32_768, i32::MAX][r % 3];
    }
    let xs: Vec<Vec<i32>> = (0..6).map(|b| vector_of_kind(&mut rng, b % 2, n)).collect();
    check(&a, 0..rows, 0..n, &xs);
    check(&a, 1..rows, 0..n, &xs);
}

/// A tile widens both of its rows every `min(K_row0, K_row1)` chunks. One
/// row here has `A = 1` (a budget of 32767 chunks), the other `A = 2^15 - 1`
/// against `ls = -2^15`, where every product is `-2^14` and `K = 1`: a tile
/// on the first row's budget would wrap the second row's i16 lanes from
/// the third chunk on. Both row orders, 1 to 5 chunks of either width.
#[test]
fn tile_rows_with_different_lane_budgets() {
    let widths: &[usize] = if cfg!(miri) { &[8] } else { &[8, 16] };
    for &lanes in widths {
        for chunks in 1..=5 {
            let n = lanes * chunks;
            let (small, large) = (vec![1; n], vec![32_767; n]);
            for data in [
                [small.clone(), large.clone()].concat(),
                [large, small].concat(),
            ] {
                let m = MatFx {
                    rows: 2,
                    cols: n,
                    data,
                };
                check(&m, 0..2, 0..n, &vec![vec![-32_768; n]; 4]);
            }
        }
    }
}

/// The guard checks a tile's vectors against its larger `|a|`. The row
/// with `|a| = 1` would admit these vectors at every width here; the row
/// with `|a| = 2^15 - 1` admits them only up to the guard's edge, past
/// which both rows take the scalar loop and the second row's sum
/// saturates.
#[test]
fn tile_guard_uses_the_larger_weight() {
    let h = 64;
    let edge = ((1i64 << 31) - 1) / (32_767 * h + (1 << 14));
    for n in [edge, edge + 1, edge + 9] {
        let n = n as usize;
        let (small, large) = (vec![1; n], vec![32_767; n]);
        let x = ((h as i32) << 16) | 0x7fff;
        for data in [
            [small.clone(), large.clone()].concat(),
            [large, small].concat(),
        ] {
            let m = MatFx {
                rows: 2,
                cols: n,
                data,
            };
            check(&m, 0..2, 0..n, &[vec![x; n], vec![-x; n]]);
        }
    }
}

/// Widths of whole 8-column chunks, odd and even in number (an odd count
/// leaves the last 256-bit register half padding), one column either side,
/// and `n = 0`, over 33 rows (an odd count, so the last tile has one row).
#[test]
fn odd_and_even_chunk_counts() {
    let mut rng = StdRng::seed_from_u64(16);
    let max_chunks: usize = if cfg!(miri) { 3 } else { 7 };
    for chunks in 0..=max_chunks {
        for n in [8 * chunks, 8 * chunks + 1, (8 * chunks).saturating_sub(1)] {
            let a = dlrm_weights(&mut rng, 33, n);
            for kind in [0, 1] {
                let xs: Vec<Vec<i32>> = (0..5).map(|_| vector_of_kind(&mut rng, kind, n)).collect();
                check(&a, 0..33, 0..n, &xs);
            }
        }
    }
    let zero = MatFx {
        rows: 33,
        cols: 0,
        data: Vec::new(),
    };
    let xs = vec![Vec::new(); 5];
    assert_eq!(zero.gemv_block(0..33, 0..0, &xs), vec![vec![0; 33]; 5]);
}

/// The AVX2 body called directly, on a CPU that has it: DLRM-sized blocks
/// with zero-high and nonzero-high vectors, across a panel edge.
#[cfg(target_arch = "x86_64")]
#[test]
fn avx2_body_equals_gemv() {
    if !Simd::Avx2.available() {
        return;
    }
    let mut rng = StdRng::seed_from_u64(256);
    let a = dlrm_weights(&mut rng, 37, 203);
    let xs: Vec<Vec<i32>> = (0..11)
        .map(|b| vector_of_kind(&mut rng, b % 3, 200))
        .collect();
    let copy = copy_block(&a, 1..36, 3..203);
    let ys = a.gemv_block_on(Simd::Avx2, 1..36, 3..203, &xs);
    for (y, x) in ys.iter().zip(&xs) {
        assert_eq!(*y, copy.gemv(x));
    }
}
