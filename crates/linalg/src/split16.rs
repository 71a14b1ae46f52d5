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

use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_cvtsi128_si32, _mm_madd_epi16, _mm_mulhi_epi16, _mm_set1_epi16,
    _mm_setr_epi16, _mm_setzero_si128, _mm_shuffle_epi32,
};

use crate::fx::dot;

/// i16 lanes per SSE2 register.
const LANES: usize = 8;
/// Batch vectors that share one pass over a weight row.
const GROUP: usize = 4;

/// One input vector split into 16-bit halves, eight elements per chunk.
struct Split {
    /// `[hr, ls]` per chunk; a short last chunk is padded with zeros.
    chunks: Vec<[__m128i; 2]>,
    /// Largest `|hr|`, or `None` when some `hr` is `2^15` (no i16 holds it).
    max_hi: Option<u64>,
}

impl Split {
    #[target_feature(enable = "sse2")]
    fn new(x: &[i32]) -> Split {
        let (mut max_hi, mut wide) = (0u64, false);
        let mut chunks = Vec::with_capacity(x.len().div_ceil(LANES));
        for c in x.chunks(LANES) {
            let (mut hi, mut lo) = ([0i16; LANES], [0i16; LANES]);
            for ((h, l), &v) in hi.iter_mut().zip(&mut lo).zip(c) {
                let ls = v as i16;
                let hr = (v >> 16) + i32::from(ls < 0);
                max_hi = max_hi.max(u64::from(hr.unsigned_abs()));
                wide |= hr > i32::from(i16::MAX);
                // Truncates only `hr == 2^15`, which `wide` rejects below.
                *h = hr as i16;
                *l = ls;
            }
            chunks.push([i16x8(hi), i16x8(lo)]);
        }
        Split {
            chunks,
            max_hi: (!wide).then_some(max_hi),
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

/// Packs eight i16 values into one register, first value in lane 0.
#[target_feature(enable = "sse2")]
fn i16x8(v: [i16; LANES]) -> __m128i {
    _mm_setr_epi16(v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7])
}

/// Narrows `row` into `out` as i16 chunks (zero-padded) and returns its
/// largest `|a|`, or `None` (leaving `out` stale) if some `|a| >= 2^15`.
#[target_feature(enable = "sse2")]
fn narrow(row: &[i32], out: &mut Vec<__m128i>) -> Option<u64> {
    let max_a = row.iter().map(|a| a.unsigned_abs()).max().unwrap_or(0);
    if max_a >= 1 << 15 {
        return None;
    }
    out.clear();
    for c in row.chunks(LANES) {
        let mut w = [0i16; LANES];
        for (d, &a) in w.iter_mut().zip(c) {
            *d = a as i16;
        }
        out.push(i16x8(w));
    }
    Some(u64::from(max_a))
}

/// `row · x` for `V` split vectors at once, one i32 accumulator each. The
/// caller has checked every vector against the guard.
#[target_feature(enable = "sse2")]
fn dot_split<const V: usize>(row: &[__m128i], xs: [&Split; V]) -> [i32; V] {
    let ones = _mm_set1_epi16(1);
    let chunks = xs.map(|x| &x.chunks[..row.len()]);
    let mut acc = [_mm_setzero_si128(); V];
    for (c, &a) in row.iter().enumerate() {
        for (acc, x) in acc.iter_mut().zip(&chunks) {
            let [hi, lo] = x[c];
            let high = _mm_madd_epi16(a, hi);
            let low = _mm_madd_epi16(_mm_mulhi_epi16(a, lo), ones);
            *acc = _mm_add_epi32(*acc, _mm_add_epi32(high, low));
        }
    }
    acc.map(|v| {
        let v = _mm_add_epi32(v, _mm_shuffle_epi32::<0b01_00_11_10>(v));
        let v = _mm_add_epi32(v, _mm_shuffle_epi32::<0b10_11_00_01>(v));
        _mm_cvtsi128_si32(v)
    })
}

/// Pushes `row · xs[b]` onto `ys[b]` for every block row and vector: the
/// body of [`MatFx::gemv_block`](crate::fx::MatFx::gemv_block). Each row
/// is narrowed once and each vector split once per call.
#[target_feature(enable = "sse2")]
pub(crate) fn gemv_rows<'a, X: AsRef<[i32]>>(
    rows: impl Iterator<Item = &'a [i32]>,
    n: usize,
    xs: &[X],
    ys: &mut [Vec<i32>],
) {
    let splits: Vec<Split> = xs.iter().map(|x| Split::new(x.as_ref())).collect();
    let mut narrowed = Vec::with_capacity(n.div_ceil(LANES));
    let mut fast = Vec::with_capacity(xs.len());
    for row in rows {
        let max_a = narrow(row, &mut narrowed);
        fast.clear();
        for (b, ((y, x), split)) in ys.iter_mut().zip(xs).zip(&splits).enumerate() {
            if max_a.is_some_and(|m| split.fits(n, m)) {
                fast.push(b);
            } else {
                y.push(dot(row, x.as_ref()));
            }
        }
        for group in fast.chunks(GROUP) {
            match *group {
                [b0, b1, b2, b3] => push_group(&narrowed, &splits, [b0, b1, b2, b3], ys),
                [b0, b1, b2] => push_group(&narrowed, &splits, [b0, b1, b2], ys),
                [b0, b1] => push_group(&narrowed, &splits, [b0, b1], ys),
                [b0] => push_group(&narrowed, &splits, [b0], ys),
                _ => unreachable!("groups hold 1..=GROUP vectors"),
            }
        }
    }
}

/// Pushes `row · xs[b]` onto `ys[b]` for the `V` vectors `group`.
#[target_feature(enable = "sse2")]
fn push_group<const V: usize>(
    row: &[__m128i],
    splits: &[Split],
    group: [usize; V],
    ys: &mut [Vec<i32>],
) {
    let out = dot_split(row, group.map(|b| &splits[b]));
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
}
