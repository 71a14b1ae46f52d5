//! Dense matrix/vector kernels in f32 and Q16.16 fixed point.
//!
//! These are the *numeric* kernels behind both use cases: the distributed
//! CPU GEMV of §6.2 (Eigen in the paper) and the DLRM FC layers computed in
//! 32-bit fixed point on the FPGAs (§6.2, "32-bit fixed-point precision").

/// A row-major f32 matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct MatF32 {
    /// Rows.
    pub rows: usize,
    /// Columns.
    pub cols: usize,
    /// Row-major data, `rows * cols` long.
    pub data: Vec<f32>,
}

impl MatF32 {
    /// Creates a matrix from a generator function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        MatF32 { rows, cols, data }
    }

    /// Element access.
    pub fn at(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Size in bytes.
    pub fn bytes(&self) -> u64 {
        (self.data.len() * 4) as u64
    }

    /// `y = A x` (matrix-vector product).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn gemv(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cols, "gemv dimension mismatch");
        let mut y = vec![0.0f32; self.rows];
        #[allow(clippy::needless_range_loop)] // r indexes both y and rows
        for r in 0..self.rows {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            let mut acc = 0.0f32;
            for (a, b) in row.iter().zip(x) {
                acc += a * b;
            }
            y[r] = acc;
        }
        y
    }

    /// The column block `[c0, c1)` as a new matrix (column-partitioned
    /// distribution of §6.2: each rank owns a subset of columns).
    pub fn col_block(&self, c0: usize, c1: usize) -> MatF32 {
        assert!(c0 < c1 && c1 <= self.cols, "bad column range");
        let mut data = Vec::with_capacity(self.rows * (c1 - c0));
        for r in 0..self.rows {
            data.extend_from_slice(&self.data[r * self.cols + c0..r * self.cols + c1]);
        }
        MatF32 {
            rows: self.rows,
            cols: c1 - c0,
            data,
        }
    }

    /// The row block `[r0, r1)` as a new matrix.
    pub fn row_block(&self, r0: usize, r1: usize) -> MatF32 {
        assert!(r0 < r1 && r1 <= self.rows, "bad row range");
        MatF32 {
            rows: r1 - r0,
            cols: self.cols,
            data: self.data[r0 * self.cols..r1 * self.cols].to_vec(),
        }
    }
}

/// Splits `n` items into `parts` contiguous ranges, remainder spread over
/// the leading parts (the standard block distribution).
pub fn block_ranges(n: usize, parts: usize) -> Vec<(usize, usize)> {
    assert!(parts > 0);
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        out.push((start, start + len));
        start += len;
    }
    out
}

/// Elementwise vector sum, in place: `acc += v`.
pub fn vec_add(acc: &mut [f32], v: &[f32]) {
    assert_eq!(acc.len(), v.len());
    for (a, b) in acc.iter_mut().zip(v) {
        *a += b;
    }
}

/// Fixed-point (Q16.16) kernels for the DLRM datapath.
pub mod fx {
    use std::ops::Range;

    #[cfg(target_arch = "x86_64")]
    pub use crate::split16::Simd;

    /// A row-major Q16.16 matrix.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct MatFx {
        /// Rows.
        pub rows: usize,
        /// Columns.
        pub cols: usize,
        /// Row-major Q16.16 data.
        pub data: Vec<i32>,
    }

    /// Converts f64 to Q16.16 (saturating).
    pub fn q(v: f64) -> i32 {
        (v * 65_536.0)
            .round()
            .clamp(i32::MIN as f64, i32::MAX as f64) as i32
    }

    /// Converts Q16.16 to f64.
    pub fn fq(v: i32) -> f64 {
        v as f64 / 65_536.0
    }

    impl MatFx {
        /// Creates a matrix from a generator of `(row, col)` → f64.
        pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
            let mut data = Vec::with_capacity(rows * cols);
            for r in 0..rows {
                for c in 0..cols {
                    data.push(q(f(r, c)));
                }
            }
            MatFx { rows, cols, data }
        }

        /// `y = A x` in Q16.16 with 64-bit accumulation (the hardware's
        /// DSP-cascade accumulator), saturating on output.
        ///
        /// # Panics
        ///
        /// Panics if `x.len() != cols`.
        pub fn gemv(&self, x: &[i32]) -> Vec<i32> {
            assert_eq!(x.len(), self.cols, "gemv dimension mismatch");
            let mut y = vec![0i32; self.rows];
            #[allow(clippy::needless_range_loop)] // r indexes both y and rows
            for r in 0..self.rows {
                let row = &self.data[r * self.cols..(r + 1) * self.cols];
                let mut acc = 0i64;
                for (a, b) in row.iter().zip(x) {
                    acc += (i64::from(*a) * i64::from(*b)) >> 16;
                }
                y[r] = acc.clamp(i32::MIN as i64, i32::MAX as i64) as i32;
            }
            y
        }

        /// `ys[b] = A[rows, cols] · xs[b]` for a batch of vectors: the
        /// block view's GEMV, with each vector `cols.len()` long and each
        /// output `rows.len()` long. Every weight row of the block is read
        /// once per batch rather than once per vector, and nothing is
        /// copied. A block's result equals [`MatFx::gemv`] on a copy of
        /// that block, bit for bit.
        ///
        /// On x86_64 the per-element arithmetic is not `gemv`'s: each input
        /// is split into 16-bit halves and the products are summed in i32
        /// SIMD lanes, on the widest `Simd` set the CPU has. The split
        /// makes every truncated product exact, and a per-(row, vector)
        /// guard on the weight and input magnitudes proves that no lane can
        /// wrap, so the sum is the same integer `gemv` computes in i64 (see
        /// `split16.rs`). Pairs outside the guard, and other targets, run
        /// `gemv`'s scalar loop.
        ///
        /// # Panics
        ///
        /// Panics if the block exceeds the matrix or a vector's length is
        /// not `cols.len()`.
        pub fn gemv_block<X: AsRef<[i32]>>(
            &self,
            rows: Range<usize>,
            cols: Range<usize>,
            xs: &[X],
        ) -> Vec<Vec<i32>> {
            #[cfg(target_arch = "x86_64")]
            let ys = self.gemv_block_on(Simd::detect(), rows, cols, xs);
            #[cfg(not(target_arch = "x86_64"))]
            let ys = {
                let mut ys = self.block_outputs(&rows, &cols, xs);
                for (r, row) in self.block_rows(rows, cols).enumerate() {
                    for (y, x) in ys.iter_mut().zip(xs) {
                        y[r] = dot(row, x.as_ref());
                    }
                }
                ys
            };
            ys
        }

        /// [`MatFx::gemv_block`] on the instruction set `simd` rather than
        /// the widest one the CPU has; the result is the same.
        ///
        /// # Panics
        ///
        /// As `gemv_block`, and if the CPU lacks `simd`.
        #[cfg(target_arch = "x86_64")]
        pub fn gemv_block_on<X: AsRef<[i32]>>(
            &self,
            simd: Simd,
            rows: Range<usize>,
            cols: Range<usize>,
            xs: &[X],
        ) -> Vec<Vec<i32>> {
            let mut ys = self.block_outputs(&rows, &cols, xs);
            let n = cols.len();
            crate::split16::gemv_rows(simd, self.block_rows(rows, cols), n, xs, &mut ys);
            ys
        }

        /// Zeroed outputs for the block `[rows, cols]` and the batch `xs`,
        /// after checking both.
        fn block_outputs<X: AsRef<[i32]>>(
            &self,
            rows: &Range<usize>,
            cols: &Range<usize>,
            xs: &[X],
        ) -> Vec<Vec<i32>> {
            assert!(
                rows.start <= rows.end && rows.end <= self.rows,
                "row block out of range"
            );
            assert!(
                cols.start <= cols.end && cols.end <= self.cols,
                "column block out of range"
            );
            for x in xs {
                assert_eq!(x.as_ref().len(), cols.len(), "gemv dimension mismatch");
            }
            vec![vec![0; rows.len()]; xs.len()]
        }

        /// The weights of each row of the block `[rows, cols]`.
        fn block_rows(
            &self,
            rows: Range<usize>,
            cols: Range<usize>,
        ) -> impl Iterator<Item = &[i32]> {
            rows.map(move |r| &self.data[r * self.cols + cols.start..r * self.cols + cols.end])
        }
    }

    /// `row · x` in Q16.16, exactly as [`MatFx::gemv`] computes one output.
    pub(crate) fn dot(row: &[i32], x: &[i32]) -> i32 {
        let mut acc = 0i64;
        for (a, b) in row.iter().zip(x) {
            acc += (i64::from(*a) * i64::from(*b)) >> 16;
        }
        acc.clamp(i32::MIN as i64, i32::MAX as i64) as i32
    }

    /// ReLU in Q16.16.
    pub fn relu(v: &mut [i32]) {
        for x in v {
            if *x < 0 {
                *x = 0;
            }
        }
    }

    /// Serializes Q16.16 values to little-endian bytes.
    pub fn to_bytes(v: &[i32]) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 * v.len());
        for x in v {
            out.extend_from_slice(&x.to_le_bytes());
        }
        out
    }

    /// Deserializes little-endian bytes to Q16.16 values.
    pub fn from_bytes(b: &[u8]) -> Vec<i32> {
        assert_eq!(b.len() % 4, 0, "misaligned fixed-point buffer");
        b.chunks_exact(4)
            .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemv_matches_hand_computation() {
        let a = MatF32::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
        // [0 1 2; 3 4 5] * [1 1 1] = [3, 12]
        assert_eq!(a.gemv(&[1.0, 1.0, 1.0]), vec![3.0, 12.0]);
        assert_eq!(a.gemv(&[1.0, 0.0, 0.0]), vec![0.0, 3.0]);
    }

    #[test]
    fn column_partition_sums_to_full_gemv() {
        let a = MatF32::from_fn(16, 24, |r, c| ((r * 7 + c * 3) % 13) as f32 - 6.0);
        let x: Vec<f32> = (0..24).map(|i| (i as f32) * 0.25 - 3.0).collect();
        let full = a.gemv(&x);
        let mut acc = vec![0.0f32; 16];
        for (c0, c1) in block_ranges(24, 5) {
            let part = a.col_block(c0, c1).gemv(&x[c0..c1]);
            vec_add(&mut acc, &part);
        }
        for (f, g) in full.iter().zip(&acc) {
            assert!((f - g).abs() < 1e-4, "{f} vs {g}");
        }
    }

    #[test]
    fn row_blocks_concatenate_to_full_gemv() {
        let a = MatF32::from_fn(10, 8, |r, c| (r + c) as f32);
        let x: Vec<f32> = (0..8).map(|i| i as f32).collect();
        let full = a.gemv(&x);
        let mut cat = Vec::new();
        for (r0, r1) in block_ranges(10, 3) {
            cat.extend(a.row_block(r0, r1).gemv(&x));
        }
        assert_eq!(full, cat);
    }

    #[test]
    fn block_ranges_cover_exactly() {
        for (n, p) in [(10, 3), (7, 7), (5, 2), (100, 8)] {
            let ranges = block_ranges(n, p);
            assert_eq!(ranges.len(), p);
            assert_eq!(ranges[0].0, 0);
            assert_eq!(ranges[p - 1].1, n);
            for w in ranges.windows(2) {
                assert_eq!(w[0].1, w[1].0);
            }
        }
    }

    #[test]
    fn fixed_point_gemv_tracks_float() {
        let af = MatF32::from_fn(8, 16, |r, c| ((r * 5 + c) % 9) as f32 * 0.125 - 0.5);
        let ax = fx::MatFx::from_fn(8, 16, |r, c| f64::from(af.at(r, c)));
        let xf: Vec<f32> = (0..16).map(|i| (i as f32) * 0.1 - 0.8).collect();
        let xq: Vec<i32> = xf.iter().map(|&v| fx::q(f64::from(v))).collect();
        let yf = af.gemv(&xf);
        let yq = ax.gemv(&xq);
        for (f, q) in yf.iter().zip(&yq) {
            assert!(
                (f64::from(*f) - fx::fq(*q)).abs() < 1e-2,
                "float {f} vs fixed {}",
                fx::fq(*q)
            );
        }
    }

    #[test]
    fn fx_checkerboard_decomposition_is_exact() {
        // Checkerboard: row × column blocks; partials concat over rows and
        // sum over columns — the Fig. 14 structure, in fixed point.
        // Each block is a view of `a`, computed for a batch of two vectors.
        let a = fx::MatFx::from_fn(12, 20, |r, c| ((r * 3 + c) % 7) as f64 * 0.25 - 0.75);
        let xs: Vec<Vec<i32>> = (0..2)
            .map(|b| (0..20).map(|i| fx::q((i + b) as f64 * 0.05)).collect())
            .collect();
        for (b, x) in xs.iter().enumerate() {
            let full = a.gemv(x);
            let mut result = Vec::new();
            for (r0, r1) in block_ranges(12, 2) {
                let mut acc = vec![0i32; r1 - r0];
                for (c0, c1) in block_ranges(20, 4) {
                    let slices: Vec<&[i32]> = xs.iter().map(|x| &x[c0..c1]).collect();
                    let part = &a.gemv_block(r0..r1, c0..c1, &slices)[b];
                    for (a, b) in acc.iter_mut().zip(part) {
                        *a = a.saturating_add(*b);
                    }
                }
                result.extend(acc);
            }
            // Each partial is a sum of the same per-element terms `gemv`
            // adds, far from saturation, so the blocks recombine exactly.
            assert_eq!(full, result);
        }
    }

    #[test]
    fn fx_block_view_equals_gemv_on_a_copied_block() {
        let a = fx::MatFx::from_fn(9, 11, |r, c| ((r * 5 + c * 3) % 11) as f64 * 0.5 - 2.5);
        let xs: Vec<Vec<i32>> = (0..3)
            .map(|b| {
                (0..4)
                    .map(|i| fx::q((i * 7 + b) as f64 * 0.3 - 1.0))
                    .collect()
            })
            .collect();
        let (rows, cols) = (2..7, 5..9);
        let copy = fx::MatFx {
            rows: rows.len(),
            cols: cols.len(),
            data: rows
                .clone()
                .flat_map(|r| {
                    a.data[r * 11 + cols.start..r * 11 + cols.end]
                        .iter()
                        .copied()
                })
                .collect(),
        };
        let ys = a.gemv_block(rows, cols, &xs);
        assert_eq!(ys.len(), 3);
        for (y, x) in ys.iter().zip(&xs) {
            assert_eq!(*y, copy.gemv(x));
        }
        // The whole matrix as one block is plain gemv; an empty batch is empty.
        let x: Vec<i32> = (0..11).map(|i| fx::q(i as f64 * 0.1)).collect();
        assert_eq!(a.gemv_block(0..9, 0..11, &[&x[..]]), vec![a.gemv(&x)]);
        assert!(a.gemv_block::<Vec<i32>>(0..9, 0..11, &[]).is_empty());
    }

    #[test]
    fn fx_bytes_roundtrip() {
        let v: Vec<i32> = (-5..5).map(|i| fx::q(f64::from(i) * 1.5)).collect();
        assert_eq!(fx::from_bytes(&fx::to_bytes(&v)), v);
    }

    #[test]
    fn relu_clamps_negatives() {
        let mut v = vec![fx::q(-1.0), fx::q(0.5), fx::q(-0.1), 0];
        fx::relu(&mut v);
        assert_eq!(v[0], 0);
        assert_eq!(v[1], fx::q(0.5));
        assert_eq!(v[2], 0);
    }
}
