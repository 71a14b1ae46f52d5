//! The Q16.16 block GEMV in SIMD lanes, exact by a 16-bit split of the
//! input, computed in register tiles of two weight rows by four vectors.
//!
//! [`MatFx::gemv`](crate::fx::MatFx::gemv) sums `(a·x) >> 16` per element in
//! an i64. x86 has no 32×32→64 lane multiply, so this kernel splits each
//! input `x` into a signed low half `ls = x as i16` and the high half
//! `hr = (x >> 16) + (ls < 0)`, which gives `x = hr·2^16 + ls` exactly. Then
//!
//! ```text
//! (a·x) >> 16 == a·hr + ((a·ls) >> 16)
//! ```
//!
//! holds for every weight, because `a·hr·2^16` is a multiple of `2^16` and
//! drops out of the floor. (`hr = h + s` folds the identity's correction:
//! `a·h + a·s`, with `h = x >> 16` and `s = [ls < 0]`.) With `|a| < 2^15`
//! and `hr` in i16 range, both terms are i16×i16 products evaluated a
//! register at a time: `pmaddwd` gives `a·hr` summed in pairs into i32
//! lanes, and `pmulhw` gives `(a·ls) >> 16` directly, at most `2^14` in
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
//! to `K` chunks (registers) before one `pmaddwd(acc, 1)` widens them into
//! i32. For a row with `A = max|a|` and a group with `L = max|ls|`,
//!
//! ```text
//! K = 32767 / ((A·L >> 16) + 1)
//! ```
//!
//! Every term obeys `|floor(a·ls / 2^16)| <= floor(A·L / 2^16) + 1` (the
//! floor of a negative product adds at most 1 to its magnitude), so `K`
//! terms cannot wrap an i16 lane. `A < 2^15` and `L <= 2^15` make `K >= 1`.
//! A tile widens both of its rows together, so it uses the smaller of the
//! two rows' budgets, which is the budget of the larger `A`; the guard
//! likewise checks a tile's vectors against the larger `A`. For FC1
//! (`A, L <= 3277`) `K` is 199 chunks, more than the 100 SSE2 chunks of an
//! 800-column block, so each tile widens once. The widened sums are the
//! same terms the i32 guard bounds, so the result is still `gemv`'s.
//!
//! **Blocking.** A batch of hundreds of vectors does not fit in L1
//! (DLRM's 200 FC1 vectors per worker hold 320 KB of low halves), so a
//! loop that passes every vector along one row at a time streams the whole
//! batch from L2 once per row. Instead the rows are narrowed to i16 one
//! panel at a time, as many rows as fit in [`PANEL_BYTES`] (ten FC1 rows of
//! 800 columns), and each group of [`GROUP`] vectors walks the panel in
//! tiles of two rows. In a tile each loaded chunk of a vector feeds two
//! rows and each chunk of a row feeds four vectors: 6 loads per 8 products,
//! where a one-row pass made 5 per 4. The panel and one group (6.4 KB for
//! FC1) fit in L1 together, so a group is read from L2 once per panel
//! rather than once per row. Narrowing one panel at a time into a reused
//! buffer keeps the narrowed copy at a panel's size, not a block's, and
//! still narrows each row once per call.
//!
//! **Instruction sets.** The tile body is written once against [`Isa`] and
//! compiled twice: for SSE2 (128-bit, the x86_64 baseline) and for AVX2
//! (256-bit), which [`Simd::detect`] picks at run time. A chunk is one
//! register: 8 lanes on SSE2, 16 on AVX2, the last one zero-padded.

use std::arch::x86_64::{
    __m128i, __m256i, _mm256_add_epi16, _mm256_add_epi32, _mm256_castsi256_si128,
    _mm256_extracti128_si256, _mm256_loadu_si256, _mm256_madd_epi16, _mm256_mulhi_epi16,
    _mm256_set1_epi16, _mm_add_epi16, _mm_add_epi32, _mm_cvtsi128_si32, _mm_loadu_si128,
    _mm_madd_epi16, _mm_mulhi_epi16, _mm_set1_epi16, _mm_shuffle_epi32,
};

use crate::fx::dot;

/// Bytes of narrowed weights in one panel (at least two rows).
const PANEL_BYTES: usize = 16 << 10;
/// Batch vectors that share one pass over a panel.
const GROUP: usize = 4;
/// The most i16 lanes in one register of any [`Isa`].
const MAX_LANES: usize = 16;

/// An x86_64 instruction set that [`MatFx::gemv_block_on`] can run on.
///
/// [`MatFx::gemv_block_on`]: crate::fx::MatFx::gemv_block_on
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Simd {
    /// 128-bit SSE2, part of every x86_64 CPU.
    Sse2,
    /// 256-bit AVX2.
    Avx2,
}

impl Simd {
    /// The widest set this CPU has.
    pub fn detect() -> Simd {
        if Simd::Avx2.available() {
            Simd::Avx2
        } else {
            Simd::Sse2
        }
    }

    /// Whether this CPU has the set.
    pub fn available(self) -> bool {
        match self {
            Simd::Sse2 => true,
            Simd::Avx2 => is_x86_feature_detected!("avx2"),
        }
    }
}

/// The lane operations of the tile on one instruction set. A value of an
/// implementing type exists only on a CPU with that set, which makes the
/// operations safe to call. Each is `#[inline(always)]`, so it compiles
/// into the set's `#[target_feature]` entry point.
trait Isa: Copy {
    /// One register of i16 lanes (or of i32 lanes, two i16 lanes each).
    type V: Copy;
    /// i16 lanes per register.
    const LANES: usize;
    /// Every i16 lane `v`.
    fn splat(self, v: i16) -> Self::V;
    /// The first `LANES` values of `w`, first value in lane 0.
    fn load(self, w: &[i16; MAX_LANES]) -> Self::V;
    /// Lane-wise wrapping i16 sum.
    fn add16(self, a: Self::V, b: Self::V) -> Self::V;
    /// Lane-wise wrapping i32 sum.
    fn add32(self, a: Self::V, b: Self::V) -> Self::V;
    /// `(a·b) >> 16` per i16 lane (`pmulhw`).
    fn mulhi(self, a: Self::V, b: Self::V) -> Self::V;
    /// `a·b` per i16 lane, adjacent products summed into i32 (`pmaddwd`).
    fn madd(self, a: Self::V, b: Self::V) -> Self::V;
    /// The sum of the i32 lanes.
    fn hsum(self, v: Self::V) -> i32;
}

/// SSE2, part of the x86_64 baseline.
#[derive(Clone, Copy)]
struct Sse2;

impl Isa for Sse2 {
    type V = __m128i;
    const LANES: usize = 8;

    #[inline(always)]
    fn splat(self, v: i16) -> __m128i {
        // SAFETY: SSE2 is part of the x86_64 baseline.
        unsafe { _mm_set1_epi16(v) }
    }

    #[inline(always)]
    fn load(self, w: &[i16; MAX_LANES]) -> __m128i {
        // SAFETY: SSE2 is part of the x86_64 baseline; the load reads 16 of
        // `w`'s 32 bytes, unaligned.
        unsafe { _mm_loadu_si128(w.as_ptr().cast()) }
    }

    #[inline(always)]
    fn add16(self, a: __m128i, b: __m128i) -> __m128i {
        // SAFETY: SSE2 is part of the x86_64 baseline.
        unsafe { _mm_add_epi16(a, b) }
    }

    #[inline(always)]
    fn add32(self, a: __m128i, b: __m128i) -> __m128i {
        // SAFETY: SSE2 is part of the x86_64 baseline.
        unsafe { _mm_add_epi32(a, b) }
    }

    #[inline(always)]
    fn mulhi(self, a: __m128i, b: __m128i) -> __m128i {
        // SAFETY: SSE2 is part of the x86_64 baseline.
        unsafe { _mm_mulhi_epi16(a, b) }
    }

    #[inline(always)]
    fn madd(self, a: __m128i, b: __m128i) -> __m128i {
        // SAFETY: SSE2 is part of the x86_64 baseline.
        unsafe { _mm_madd_epi16(a, b) }
    }

    #[inline(always)]
    fn hsum(self, v: __m128i) -> i32 {
        // SAFETY: SSE2 is part of the x86_64 baseline.
        unsafe {
            let v = _mm_add_epi32(v, _mm_shuffle_epi32::<0b01_00_11_10>(v));
            let v = _mm_add_epi32(v, _mm_shuffle_epi32::<0b10_11_00_01>(v));
            _mm_cvtsi128_si32(v)
        }
    }
}

/// AVX2. Only [`Avx2::detect`] makes one, after
/// `is_x86_feature_detected!("avx2")` holds.
#[derive(Clone, Copy)]
struct Avx2(());

impl Avx2 {
    fn detect() -> Option<Avx2> {
        is_x86_feature_detected!("avx2").then_some(Avx2(()))
    }
}

impl Isa for Avx2 {
    type V = __m256i;
    const LANES: usize = 16;

    #[inline(always)]
    fn splat(self, v: i16) -> __m256i {
        // SAFETY: `self` exists, so `is_x86_feature_detected!("avx2")` held.
        unsafe { _mm256_set1_epi16(v) }
    }

    #[inline(always)]
    fn load(self, w: &[i16; MAX_LANES]) -> __m256i {
        // SAFETY: `self` exists, so `is_x86_feature_detected!("avx2")` held;
        // the load reads exactly `w`'s 32 bytes, unaligned.
        unsafe { _mm256_loadu_si256(w.as_ptr().cast()) }
    }

    #[inline(always)]
    fn add16(self, a: __m256i, b: __m256i) -> __m256i {
        // SAFETY: `self` exists, so `is_x86_feature_detected!("avx2")` held.
        unsafe { _mm256_add_epi16(a, b) }
    }

    #[inline(always)]
    fn add32(self, a: __m256i, b: __m256i) -> __m256i {
        // SAFETY: `self` exists, so `is_x86_feature_detected!("avx2")` held.
        unsafe { _mm256_add_epi32(a, b) }
    }

    #[inline(always)]
    fn mulhi(self, a: __m256i, b: __m256i) -> __m256i {
        // SAFETY: `self` exists, so `is_x86_feature_detected!("avx2")` held.
        unsafe { _mm256_mulhi_epi16(a, b) }
    }

    #[inline(always)]
    fn madd(self, a: __m256i, b: __m256i) -> __m256i {
        // SAFETY: `self` exists, so `is_x86_feature_detected!("avx2")` held.
        unsafe { _mm256_madd_epi16(a, b) }
    }

    #[inline(always)]
    fn hsum(self, v: __m256i) -> i32 {
        // SAFETY: `self` exists, so `is_x86_feature_detected!("avx2")` held.
        let v =
            unsafe { _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v)) };
        Sse2.hsum(v)
    }
}

/// One input vector split into 16-bit halves, one register per chunk; a
/// short last chunk is padded with zeros.
struct Split<S: Isa> {
    /// The low halves `ls`.
    lo: Vec<S::V>,
    /// The high halves `hr`, or empty when every `hr` is 0.
    hi: Vec<S::V>,
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

impl<S: Isa> Split<S> {
    #[inline(always)]
    fn new(isa: S, x: &[i32]) -> Self {
        let (mut max_hi, mut max_lo, mut wide) = (0u64, 0u64, false);
        for &v in x {
            let (hr, ls) = halves(v);
            max_hi = max_hi.max(u64::from(hr.unsigned_abs()));
            max_lo = max_lo.max(u64::from(ls.unsigned_abs()));
            wide |= hr > i32::from(i16::MAX);
        }
        let mut lo = Vec::new();
        pack(isa, x, &mut lo, |v| halves(v).1);
        let mut hi = Vec::new();
        if max_hi > 0 {
            // Truncates only `hr == 2^15`, which `wide` rejects below.
            pack(isa, x, &mut hi, |v| halves(v).0 as i16);
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

/// Appends `f` of each of `v` to `out` as i16 chunks (zero-padded).
#[inline(always)]
fn pack<S: Isa>(isa: S, v: &[i32], out: &mut Vec<S::V>, f: impl Fn(i32) -> i16) {
    out.reserve(v.len().div_ceil(S::LANES));
    for c in v.chunks(S::LANES) {
        let mut w = [0i16; MAX_LANES];
        for (d, &x) in w.iter_mut().zip(c) {
            *d = f(x);
        }
        out.push(isa.load(&w));
    }
}

/// Appends `row` to `out` as i16 chunks (zero-padded) and returns its
/// largest `|a|`, or `None` (appending nothing) if some `|a| >= 2^15`.
#[inline(always)]
fn narrow<S: Isa>(isa: S, row: &[i32], out: &mut Vec<S::V>) -> Option<u64> {
    let max_a = row.iter().map(|a| a.unsigned_abs()).max().unwrap_or(0);
    if max_a >= 1 << 15 {
        return None;
    }
    pack(isa, row, out, |a| a as i16);
    Some(u64::from(max_a))
}

/// Writes `row · xs[b]` to `ys[b][r]` for every block row `r` and vector
/// `b`: the body of [`MatFx::gemv_block`](crate::fx::MatFx::gemv_block) on
/// `simd`, which the CPU must have. Every `ys[b]` is as long as the block.
///
/// # Panics
///
/// Panics if the CPU lacks `simd`.
pub(crate) fn gemv_rows<'a, X: AsRef<[i32]>>(
    simd: Simd,
    rows: impl Iterator<Item = &'a [i32]>,
    n: usize,
    xs: &[X],
    ys: &mut [Vec<i32>],
) {
    match simd {
        Simd::Sse2 => tiles(Sse2, rows, n, xs, ys),
        Simd::Avx2 => {
            let isa = Avx2::detect().expect("gemv_block on AVX2 needs a CPU with AVX2");
            // SAFETY: `Avx2::detect` returned `Some`, so
            // `is_x86_feature_detected!("avx2")` held on this CPU.
            unsafe { tiles_avx2(isa, rows, n, xs, ys) }
        }
    }
}

/// [`tiles`] compiled for AVX2.
#[target_feature(enable = "avx2")]
fn tiles_avx2<'a, X: AsRef<[i32]>>(
    isa: Avx2,
    rows: impl Iterator<Item = &'a [i32]>,
    n: usize,
    xs: &[X],
    ys: &mut [Vec<i32>],
) {
    tiles(isa, rows, n, xs, ys);
}

/// [`gemv_rows`] on `isa`. Each vector is split once. The rows are
/// narrowed a panel at a time, and each group of vectors with (or
/// without) high halves walks the panel in tiles of two rows; a (row,
/// vector) pair outside the guard runs the scalar [`dot`].
#[inline(always)]
fn tiles<'a, S: Isa, X: AsRef<[i32]>>(
    isa: S,
    rows: impl Iterator<Item = &'a [i32]>,
    n: usize,
    xs: &[X],
    ys: &mut [Vec<i32>],
) {
    let splits: Vec<Split<S>> = xs.iter().map(|x| Split::new(isa, x.as_ref())).collect();
    let (low, full): (Vec<usize>, Vec<usize>) =
        (0..xs.len()).partition(|&b| splits[b].hi.is_empty());
    let chunks = n.div_ceil(S::LANES);
    let panel_rows = (PANEL_BYTES / size_of::<S::V>() / chunks.max(1)).max(2);
    let mut panel = Vec::with_capacity(panel_rows * chunks);
    // The panel's narrowed rows: output index, weights and largest `|a|`.
    let mut narrowed: Vec<(usize, &[i32], u64)> = Vec::with_capacity(panel_rows);
    let mut rows = rows.enumerate().peekable();
    while rows.peek().is_some() {
        panel.clear();
        narrowed.clear();
        for (r, row) in rows.by_ref().take(panel_rows) {
            match narrow(isa, row, &mut panel) {
                Some(max_a) => narrowed.push((r, row, max_a)),
                None => {
                    for (y, x) in ys.iter_mut().zip(xs) {
                        y[r] = dot(row, x.as_ref());
                    }
                }
            }
        }
        for group in low.chunks(GROUP).chain(full.chunks(GROUP)) {
            for (p, pair) in narrowed.chunks(2).enumerate() {
                let max_a = pair.iter().map(|&(_, _, a)| a).max().unwrap_or(0);
                let (mut fit, mut k) = ([0; GROUP], 0);
                for &b in group {
                    if splits[b].fits(n, max_a) {
                        fit[k] = b;
                        k += 1;
                    } else {
                        for &(r, row, _) in pair {
                            ys[b][r] = dot(row, xs[b].as_ref());
                        }
                    }
                }
                let weights = |i: usize| &panel[(2 * p + i) * chunks..][..chunks];
                match *pair {
                    [(r0, ..), (r1, ..)] => {
                        let tile = [(r0, weights(0)), (r1, weights(1))];
                        tile_group(isa, tile, max_a, &splits, &fit[..k], ys);
                    }
                    [(r0, ..)] => {
                        tile_group(isa, [(r0, weights(0))], max_a, &splits, &fit[..k], ys)
                    }
                    _ => unreachable!("tiles hold one or two rows"),
                }
            }
        }
    }
}

/// [`tile`] for the (at most [`GROUP`]) vectors `group`.
#[inline(always)]
fn tile_group<S: Isa, const R: usize>(
    isa: S,
    rows: [(usize, &[S::V]); R],
    max_a: u64,
    splits: &[Split<S>],
    group: &[usize],
    ys: &mut [Vec<i32>],
) {
    match *group {
        [b0, b1, b2, b3] => tile(isa, rows, max_a, splits, [b0, b1, b2, b3], ys),
        [b0, b1, b2] => tile(isa, rows, max_a, splits, [b0, b1, b2], ys),
        [b0, b1] => tile(isa, rows, max_a, splits, [b0, b1], ys),
        [b0] => tile(isa, rows, max_a, splits, [b0], ys),
        [] => {}
        _ => unreachable!("groups hold at most GROUP vectors"),
    }
}

/// Writes `row · xs[b]` to `ys[b][r]` for the `R` narrowed rows `(r, row)`
/// and the `V` vectors `group`, which pass the guard for `|a| <= max_a`
/// and either all store high halves or none does.
#[inline(always)]
fn tile<S: Isa, const R: usize, const V: usize>(
    isa: S,
    rows: [(usize, &[S::V]); R],
    max_a: u64,
    splits: &[Split<S>],
    group: [usize; V],
    ys: &mut [Vec<i32>],
) {
    let xs = group.map(|b| &splits[b]);
    let weights = rows.map(|(_, row)| row);
    let out = if xs[0].hi.is_empty() {
        let max_lo = xs.iter().map(|x| x.max_lo).max().unwrap_or(0);
        low_sums(
            isa,
            weights,
            xs.map(|x| &x.lo[..]),
            lane_budget(max_a, max_lo),
        )
    } else {
        split_sums(isa, weights, xs)
    };
    for ((r, _), out) in rows.into_iter().zip(out) {
        for (b, y) in group.into_iter().zip(out) {
            ys[b][r] = y;
        }
    }
}

/// `rows[i] · x` for every row and vector `x` with every `hr` 0, whose low
/// halves are `los`: `(a·x) >> 16` is then `pmulhw(a, ls)` alone. Each lane
/// sums those products in i16 for `budget` chunks (see [`lane_budget`]),
/// then widens into its i32 accumulator.
#[inline(always)]
fn low_sums<S: Isa, const R: usize, const V: usize>(
    isa: S,
    rows: [&[S::V]; R],
    los: [&[S::V]; V],
    budget: usize,
) -> [[i32; V]; R] {
    let ones = isa.splat(1);
    let chunks = rows.first().map_or(0, |row| row.len());
    let rows = rows.map(|row| &row[..chunks]);
    let los = los.map(|lo| &lo[..chunks]);
    let mut acc = [[isa.splat(0); V]; R];
    let mut c = 0;
    while c < chunks {
        let end = chunks.min(c + budget);
        let mut sum = [[isa.splat(0); V]; R];
        while c < end {
            let a = rows.map(|row| row[c]);
            for (v, lo) in los.iter().enumerate() {
                let x = lo[c];
                for (s, &a) in sum.iter_mut().zip(&a) {
                    s[v] = isa.add16(s[v], isa.mulhi(a, x));
                }
            }
            c += 1;
        }
        for (acc, sum) in acc.iter_mut().zip(sum) {
            for (acc, sum) in acc.iter_mut().zip(sum) {
                *acc = isa.add32(*acc, isa.madd(sum, ones));
            }
        }
    }
    hsums(isa, acc)
}

/// `rows[i] · x` for every row and vector `x` of `xs`, each of which stores
/// its high halves: `pmaddwd(a, hr) + pmaddwd(pmulhw(a, ls), 1)` per chunk,
/// summed in i32 lanes.
#[inline(always)]
fn split_sums<S: Isa, const R: usize, const V: usize>(
    isa: S,
    rows: [&[S::V]; R],
    xs: [&Split<S>; V],
) -> [[i32; V]; R] {
    let ones = isa.splat(1);
    let mut acc = [[isa.splat(0); V]; R];
    let chunks = rows.first().map_or(0, |row| row.len());
    let a = rows.map(|row| &row[..chunks]);
    let his = xs.map(|x| &x.hi[..chunks]);
    let los = xs.map(|x| &x.lo[..chunks]);
    for c in 0..chunks {
        let a = a.map(|a| a[c]);
        for (v, (hi, lo)) in his.iter().zip(&los).enumerate() {
            let (h, l) = (hi[c], lo[c]);
            for (s, &a) in acc.iter_mut().zip(&a) {
                let high = isa.madd(a, h);
                let low = isa.madd(isa.mulhi(a, l), ones);
                s[v] = isa.add32(s[v], isa.add32(high, low));
            }
        }
    }
    hsums(isa, acc)
}

/// The horizontal sum of each accumulator. (Loops, not `array::map`: a
/// closure that is not inlined would run outside the `#[target_feature]`
/// body.)
#[inline(always)]
fn hsums<S: Isa, const R: usize, const V: usize>(isa: S, acc: [[S::V; V]; R]) -> [[i32; V]; R] {
    let mut out = [[0; V]; R];
    for (out, acc) in out.iter_mut().zip(acc) {
        for (out, acc) in out.iter_mut().zip(acc) {
            *out = isa.hsum(acc);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fits(x: &[i32], n: usize, max_a: u64) -> bool {
        Split::new(Sse2, x).fits(n, max_a)
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
