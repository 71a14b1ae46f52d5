//! The Q16.16 block GEMV on SSE2, exact by a 16-bit split of the input.
//!
//! [`MatFx::gemv`](crate::fx::MatFx::gemv) sums `(a·x) >> 16` per element in
//! an i64. SSE2 has no 32×32→64 multiply, so this kernel splits each input
//! `x` into a signed low half `ls = x as i16` and the high half
//! `hr = (x >> 16) + (ls < 0)`, which gives `x = hr·2^16 + ls` exactly. Then
//!
//! ```text
//! (a·x) >> 16 == a·hr + ((a·ls) >> 16)
//! ```
//!
//! holds for every weight, because `a·hr·2^16` is a multiple of `2^16` and
//! drops out of the floor. (`hr = h + s` folds the identity's correction:
//! `a·h + a·s`, with `h = x >> 16` and `s = [ls < 0]`.) With `|a| < 2^15`
//! and `hr` in i16 range, both terms are i16×i16 products that SSE2
//! evaluates eight at a time: `pmaddwd` gives `a·hr` summed in pairs into
//! i32 lanes, and `pmulhw` gives `(a·ls) >> 16` directly, at most `2^14` in
//! magnitude.
//!
//! The i32 lanes cannot wrap when a row and a vector pass the guard
//! `n·(max|a|·max|hr| + 2^14) < 2^31`. Every lane, every pairwise sum and
//! the final horizontal sum is a sum of some of the `2n` terms, and the
//! guard bounds their absolute sum. The exact sum then fits an i32, so
//! `gemv`'s output clamp is a no-op and the result is `gemv`'s, bit for
//! bit. A (row, vector) pair that fails the guard, a row with some
//! `|a| >= 2^15`, and a vector with some `hr = 2^15` take `gemv`'s scalar
//! loop instead.
//!
//! A vector whose every `hr` is 0 (every `|x| <= 2^15`, as DLRM's FC1
//! embeddings always are) needs only `pmulhw(a, ls)`, which is then
//! exactly `(a·x) >> 16`. Each [`Split`] stores its low halves
//! contiguously and its high halves only when some `hr != 0`, and a group
//! of vectors without high halves sums those products in i16 lanes for up
//! to `K` chunks before one `pmaddwd(acc, 1)` widens them into i32. `K` is
//! set per (row, group) from the row's `A = max|a|` and the group's
//! `L = max|ls|`:
//!
//! ```text
//! K = 32767 / ((A·L >> 16) + 1)
//! ```
//!
//! Every term obeys `|floor(a·ls / 2^16)| <= floor(A·L / 2^16) + 1` (the
//! floor of a negative product adds at most 1 to its magnitude), so `K`
//! terms cannot wrap an i16 lane. `A < 2^15` and `L <= 2^15` make `K >= 1`.
//! For FC1 (`A, L <= 3277`) `K` is 199 chunks, more than the 100 chunks of
//! an 800-column block, so each row widens once. The widened sums are the
//! same terms the i32 guard bounds, so the result is still `gemv`'s.

use std::arch::x86_64::{
    __m128i, _mm_add_epi16, _mm_add_epi32, _mm_cvtsi128_si32, _mm_madd_epi16, _mm_mulhi_epi16,
    _mm_set1_epi16, _mm_setr_epi16, _mm_setzero_si128, _mm_shuffle_epi32,
};

use crate::fx::dot;

/// i16 lanes per SSE2 register.
const LANES: usize = 8;
/// Batch vectors that share one pass over a weight row.
const GROUP: usize = 4;

/// One input vector split into 16-bit halves, eight elements per chunk; a
/// short last chunk is padded with zeros.
struct Split {
    /// The low halves `ls`.
    lo: Vec<__m128i>,
    /// The high halves `hr`, or empty when every `hr` is 0.
    hi: Vec<__m128i>,
    /// Largest `|hr|`, or `None` when some `hr` is `2^15` (no i16 holds it).
    max_hi: Option<u64>,
    /// Largest `|ls|`, at most `2^15`.
    max_lo: u64,
}

/// `x`'s halves `(hr, ls)`, with `x = hr·2^16 + ls`.
fn halves(x: i32) -> (i32, i16) {
    let ls = x as i16;
    ((x >> 16) + i32::from(ls < 0), ls)
}

impl Split {
    #[target_feature(enable = "sse2")]
    fn new(x: &[i32]) -> Split {
        let (mut max_hi, mut max_lo, mut wide) = (0u64, 0u64, false);
        for &v in x {
            let (hr, ls) = halves(v);
            max_hi = max_hi.max(u64::from(hr.unsigned_abs()));
            max_lo = max_lo.max(u64::from(ls.unsigned_abs()));
            wide |= hr > i32::from(i16::MAX);
        }
        let mut lo = Vec::new();
        pack(x, &mut lo, |v| halves(v).1);
        let mut hi = Vec::new();
        if max_hi > 0 {
            // Truncates only `hr == 2^15`, which `wide` rejects below.
            pack(x, &mut hi, |v| halves(v).0 as i16);
        }
        Split {
            lo,
            hi,
            max_hi: (!wide).then_some(max_hi),
            max_lo,
        }
    }

    /// Whether a row of `n` weights with `|a| <= max_a` keeps every lane of
    /// the product with this vector inside i32 (the module's guard).
    fn fits(&self, n: usize, max_a: u64) -> bool {
        self.max_hi.is_some_and(|h| {
            (n as u64)
                .checked_mul(max_a * h + (1 << 14))
                .is_some_and(|bound| bound < 1 << 31)
        })
    }
}

/// Chunks an i16 lane may sum, when every weight has `|a| <= max_a` and
/// every low half `|ls| <= max_lo`: each term `floor(a·ls / 2^16)` is at
/// most `(max_a·max_lo >> 16) + 1` in magnitude. At least 1, because
/// `max_a < 2^15` and `max_lo <= 2^15`.
fn lane_budget(max_a: u64, max_lo: u64) -> usize {
    (i16::MAX as u64 / (((max_a * max_lo) >> 16) + 1)) as usize
}

/// Packs eight i16 values into one register, first value in lane 0.
#[target_feature(enable = "sse2")]
fn i16x8(v: [i16; LANES]) -> __m128i {
    _mm_setr_epi16(v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7])
}

/// Replaces `out` with `f` of each of `v` as i16 chunks (zero-padded).
#[target_feature(enable = "sse2")]
fn pack(v: &[i32], out: &mut Vec<__m128i>, f: impl Fn(i32) -> i16) {
    out.clear();
    out.reserve(v.len().div_ceil(LANES));
    for c in v.chunks(LANES) {
        let mut w = [0i16; LANES];
        for (d, &x) in w.iter_mut().zip(c) {
            *d = f(x);
        }
        out.push(i16x8(w));
    }
}

/// Narrows `row` into `out` as i16 chunks (zero-padded) and returns its
/// largest `|a|`, or `None` (leaving `out` stale) if some `|a| >= 2^15`.
#[target_feature(enable = "sse2")]
fn narrow(row: &[i32], out: &mut Vec<__m128i>) -> Option<u64> {
    let max_a = row.iter().map(|a| a.unsigned_abs()).max().unwrap_or(0);
    if max_a >= 1 << 15 {
        return None;
    }
    pack(row, out, |a| a as i16);
    Some(u64::from(max_a))
}

/// The sum of `v`'s four i32 lanes.
#[target_feature(enable = "sse2")]
fn hsum(v: __m128i) -> i32 {
    let v = _mm_add_epi32(v, _mm_shuffle_epi32::<0b01_00_11_10>(v));
    let v = _mm_add_epi32(v, _mm_shuffle_epi32::<0b10_11_00_01>(v));
    _mm_cvtsi128_si32(v)
}

/// `row · x` for `V` split vectors at once, one i32 accumulator each. The
/// caller has checked every vector against the guard, and every vector
/// stores its high halves.
#[target_feature(enable = "sse2")]
fn dot_split<const V: usize>(row: &[__m128i], xs: [&Split; V]) -> [i32; V] {
    let ones = _mm_set1_epi16(1);
    let his = xs.map(|x| &x.hi[..row.len()]);
    let los = xs.map(|x| &x.lo[..row.len()]);
    let mut acc = [_mm_setzero_si128(); V];
    for (c, &a) in row.iter().enumerate() {
        for ((acc, hi), lo) in acc.iter_mut().zip(&his).zip(&los) {
            let high = _mm_madd_epi16(a, hi[c]);
            let low = _mm_madd_epi16(_mm_mulhi_epi16(a, lo[c]), ones);
            *acc = _mm_add_epi32(*acc, _mm_add_epi32(high, low));
        }
    }
    acc.map(|v| hsum(v))
}

/// [`dot_split`] for `V` vectors whose every `hr` is 0, where
/// `(a·x) >> 16` is `pmulhw(a, ls)` alone. Each lane sums those products
/// in i16 for `budget` chunks (see [`lane_budget`]), then widens once into
/// its i32 accumulator.
#[target_feature(enable = "sse2")]
fn dot_low<const V: usize>(row: &[__m128i], xs: [&Split; V], budget: usize) -> [i32; V] {
    let ones = _mm_set1_epi16(1);
    let mut acc = [_mm_setzero_si128(); V];
    for (start, run) in (0..).step_by(budget).zip(row.chunks(budget)) {
        let los = xs.map(|x| &x.lo[start..start + run.len()]);
        let mut sum = [_mm_setzero_si128(); V];
        for (c, &a) in run.iter().enumerate() {
            for (sum, lo) in sum.iter_mut().zip(&los) {
                *sum = _mm_add_epi16(*sum, _mm_mulhi_epi16(a, lo[c]));
            }
        }
        for (acc, sum) in acc.iter_mut().zip(sum) {
            *acc = _mm_add_epi32(*acc, _mm_madd_epi16(sum, ones));
        }
    }
    acc.map(|v| hsum(v))
}

/// Pushes `row · xs[b]` onto `ys[b]` for every block row and vector: the
/// body of [`MatFx::gemv_block`](crate::fx::MatFx::gemv_block). Each row
/// is narrowed once and each vector split once per call. Vectors with and
/// without high halves go in separate groups.
#[target_feature(enable = "sse2")]
pub(crate) fn gemv_rows<'a, X: AsRef<[i32]>>(
    rows: impl Iterator<Item = &'a [i32]>,
    n: usize,
    xs: &[X],
    ys: &mut [Vec<i32>],
) {
    let splits: Vec<Split> = xs.iter().map(|x| Split::new(x.as_ref())).collect();
    let mut narrowed = Vec::with_capacity(n.div_ceil(LANES));
    let (mut low, mut full) = (Vec::with_capacity(xs.len()), Vec::with_capacity(xs.len()));
    for row in rows {
        let max_a = narrow(row, &mut narrowed);
        low.clear();
        full.clear();
        for (b, ((y, x), split)) in ys.iter_mut().zip(xs).zip(&splits).enumerate() {
            if !max_a.is_some_and(|m| split.fits(n, m)) {
                y.push(dot(row, x.as_ref()));
            } else if split.hi.is_empty() {
                low.push(b);
            } else {
                full.push(b);
            }
        }
        // Both lists are empty when `max_a` is `None`.
        let max_a = max_a.unwrap_or(0);
        for group in low.chunks(GROUP).chain(full.chunks(GROUP)) {
            match *group {
                [b0, b1, b2, b3] => push_group(&narrowed, max_a, &splits, [b0, b1, b2, b3], ys),
                [b0, b1, b2] => push_group(&narrowed, max_a, &splits, [b0, b1, b2], ys),
                [b0, b1] => push_group(&narrowed, max_a, &splits, [b0, b1], ys),
                [b0] => push_group(&narrowed, max_a, &splits, [b0], ys),
                _ => unreachable!("groups hold 1..=GROUP vectors"),
            }
        }
    }
}

/// Pushes `row · xs[b]` onto `ys[b]` for the `V` vectors `group`, which
/// either all store high halves or none does; every weight has
/// `|a| <= max_a`.
#[target_feature(enable = "sse2")]
fn push_group<const V: usize>(
    row: &[__m128i],
    max_a: u64,
    splits: &[Split],
    group: [usize; V],
    ys: &mut [Vec<i32>],
) {
    let xs = group.map(|b| &splits[b]);
    let out = if xs[0].hi.is_empty() {
        let max_lo = xs.iter().map(|x| x.max_lo).max().unwrap_or(0);
        dot_low(row, xs, lane_budget(max_a, max_lo))
    } else {
        dot_split(row, xs)
    };
    for (b, y) in group.into_iter().zip(out) {
        ys[b].push(y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fits(x: &[i32], n: usize, max_a: u64) -> bool {
        // SAFETY: SSE2 is part of the x86_64 baseline.
        unsafe { Split::new(x) }.fits(n, max_a)
    }

    #[test]
    fn guard_edges() {
        // Worst case per element: |a| = 2^15 - 1, hr = 3, |(a·ls) >> 16| = 2^14.
        let per = 32_767 * 3 + (1 << 14);
        let n = ((1u64 << 31) - 1) / per;
        let x = [3 << 16];
        assert!(fits(&x, n as usize, 32_767));
        assert!(!fits(&x, n as usize + 1, 32_767));
        // hr = 2^15 has no i16; i32::MIN splits to hr = -2^15, which does.
        assert!(!fits(&[i32::MAX], 1, 1));
        assert!(fits(&[i32::MIN], 1, 1));
        assert!(fits(&[], 0, 32_767));
    }

    #[test]
    fn lane_budget_edges() {
        // FC1: |a|, |ls| <= 3277, so |term| <= 164 and 199 chunks fit.
        assert_eq!(lane_budget(3_277, 3_277), 199);
        // |a| = 2^15 - 1, ls = -2^15: one term of -2^14 per chunk.
        assert_eq!(lane_budget(32_767, 1 << 15), 1);
        // Terms are 0 or -1 (floor of a negative fraction).
        assert_eq!(lane_budget(0, 1 << 15), 32_767);
        assert_eq!(lane_budget(1, 1), 32_767);
    }
}
