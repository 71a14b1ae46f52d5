//! Streaming plugins: in-flight unary and binary operators (paper §4.4.2).
//!
//! The binary plugin implements reductions — two 64 B/cycle input streams
//! combined elementwise into one output stream. The unary plugin hosts
//! transformations such as compression. Plugins are selected by the control
//! plane via the NoC `dest` field; here they are plain functions invoked by
//! the data-movement processor, with their throughput charged to the shared
//! datapath pipe.

use bytes::Bytes;

use crate::msg::{DType, ReduceFn};

/// Q16.16 fixed-point helpers used by the DLRM use case.
pub mod fx32 {
    /// Converts an `f64` to Q16.16, saturating.
    pub fn from_f64(v: f64) -> i32 {
        (v * 65_536.0)
            .round()
            .clamp(i32::MIN as f64, i32::MAX as f64) as i32
    }

    /// Converts Q16.16 to `f64`.
    pub fn to_f64(v: i32) -> f64 {
        v as f64 / 65_536.0
    }

    /// Saturating Q16.16 multiply.
    pub fn mul(a: i32, b: i32) -> i32 {
        let wide = ((a as i64) * (b as i64)) >> 16;
        wide.clamp(i32::MIN as i64, i32::MAX as i64) as i32
    }
}

macro_rules! combine_as {
    ($ty:ty, $a:expr, $b:expr, $out:expr, $f:expr) => {{
        const STEP: usize = core::mem::size_of::<$ty>();
        let lanes = $out
            .chunks_exact_mut(STEP)
            .zip($a.chunks_exact(STEP).zip($b.chunks_exact(STEP)));
        for (co, (ca, cb)) in lanes {
            let va = <$ty>::from_le_bytes(ca.try_into().unwrap());
            let vb = <$ty>::from_le_bytes(cb.try_into().unwrap());
            let r: $ty = $f(va, vb);
            co.copy_from_slice(&r.to_le_bytes());
        }
    }};
}

/// Applies `func` elementwise over two equal-length byte buffers of `dtype`.
///
/// # Panics
///
/// Panics if lengths differ or are not a multiple of the element size —
/// the control plane guarantees aligned slot lengths.
pub fn combine(dtype: DType, func: ReduceFn, a: &[u8], b: &[u8]) -> Bytes {
    assert_eq!(a.len(), b.len(), "operand length mismatch");
    assert_eq!(
        a.len() % dtype.size(),
        0,
        "operand not a multiple of element size"
    );
    let mut out = vec![0u8; a.len()];
    match (dtype, func) {
        (DType::U8, ReduceFn::Sum) => combine_as!(u8, a, b, out, |x: u8, y: u8| x.wrapping_add(y)),
        (DType::U8, ReduceFn::Max) => combine_as!(u8, a, b, out, |x: u8, y: u8| x.max(y)),
        (DType::U8, ReduceFn::Min) => combine_as!(u8, a, b, out, |x: u8, y: u8| x.min(y)),
        (DType::U8, ReduceFn::Prod) => {
            combine_as!(u8, a, b, out, |x: u8, y: u8| x.wrapping_mul(y))
        }
        (DType::I32, ReduceFn::Sum) => {
            combine_as!(i32, a, b, out, |x: i32, y: i32| x.wrapping_add(y))
        }
        (DType::I32, ReduceFn::Max) => combine_as!(i32, a, b, out, |x: i32, y: i32| x.max(y)),
        (DType::I32, ReduceFn::Min) => combine_as!(i32, a, b, out, |x: i32, y: i32| x.min(y)),
        (DType::I32, ReduceFn::Prod) => {
            combine_as!(i32, a, b, out, |x: i32, y: i32| x.wrapping_mul(y))
        }
        (DType::I64, ReduceFn::Sum) => {
            combine_as!(i64, a, b, out, |x: i64, y: i64| x.wrapping_add(y))
        }
        (DType::I64, ReduceFn::Max) => combine_as!(i64, a, b, out, |x: i64, y: i64| x.max(y)),
        (DType::I64, ReduceFn::Min) => combine_as!(i64, a, b, out, |x: i64, y: i64| x.min(y)),
        (DType::I64, ReduceFn::Prod) => {
            combine_as!(i64, a, b, out, |x: i64, y: i64| x.wrapping_mul(y))
        }
        (DType::F32, ReduceFn::Sum) => combine_as!(f32, a, b, out, |x: f32, y: f32| x + y),
        (DType::F32, ReduceFn::Max) => combine_as!(f32, a, b, out, |x: f32, y: f32| x.max(y)),
        (DType::F32, ReduceFn::Min) => combine_as!(f32, a, b, out, |x: f32, y: f32| x.min(y)),
        (DType::F32, ReduceFn::Prod) => combine_as!(f32, a, b, out, |x: f32, y: f32| x * y),
        (DType::F64, ReduceFn::Sum) => combine_as!(f64, a, b, out, |x: f64, y: f64| x + y),
        (DType::F64, ReduceFn::Max) => combine_as!(f64, a, b, out, |x: f64, y: f64| x.max(y)),
        (DType::F64, ReduceFn::Min) => combine_as!(f64, a, b, out, |x: f64, y: f64| x.min(y)),
        (DType::F64, ReduceFn::Prod) => combine_as!(f64, a, b, out, |x: f64, y: f64| x * y),
        (DType::Fx32, ReduceFn::Sum) => {
            combine_as!(i32, a, b, out, |x: i32, y: i32| x.saturating_add(y))
        }
        (DType::Fx32, ReduceFn::Max) => combine_as!(i32, a, b, out, |x: i32, y: i32| x.max(y)),
        (DType::Fx32, ReduceFn::Min) => combine_as!(i32, a, b, out, |x: i32, y: i32| x.min(y)),
        (DType::Fx32, ReduceFn::Prod) => {
            combine_as!(i32, a, b, out, |x: i32, y: i32| fx32::mul(x, y))
        }
    }
    Bytes::from(out)
}

/// Unary plugin functions (compression and casts; paper §4.4.2 lists
/// compression/encryption as examples).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryFn {
    /// Identity pass-through.
    Identity,
    /// Run-length encodes the stream (toy compression: `(count, byte)*`).
    RleCompress,
    /// Inverse of [`UnaryFn::RleCompress`].
    RleDecompress,
    /// Length-preserving stream cipher (keystream XOR, keyed by the seed).
    /// Involutive: applying it twice with the same key decrypts — the
    /// §4.4.2 "encryption" plugin in its simplest deployable form.
    XorCipher(u64),
}

/// Applies a unary plugin function to a byte stream.
pub fn unary(func: UnaryFn, data: &[u8]) -> Bytes {
    match func {
        UnaryFn::Identity => Bytes::copy_from_slice(data),
        UnaryFn::RleCompress => {
            let mut out = Vec::new();
            let mut iter = data.iter().copied().peekable();
            while let Some(b) = iter.next() {
                let mut run = 1u8;
                while run < u8::MAX {
                    if iter.peek() == Some(&b) {
                        iter.next();
                        run += 1;
                    } else {
                        break;
                    }
                }
                out.push(run);
                out.push(b);
            }
            Bytes::from(out)
        }
        UnaryFn::XorCipher(key) => {
            // xorshift64* keystream, 8 bytes per step.
            let mut state = key | 1;
            let mut out = Vec::with_capacity(data.len());
            let mut ks = [0u8; 8];
            for (i, b) in data.iter().enumerate() {
                if i % 8 == 0 {
                    state ^= state >> 12;
                    state ^= state << 25;
                    state ^= state >> 27;
                    ks = state.wrapping_mul(0x2545_f491_4f6c_dd1d).to_le_bytes();
                }
                out.push(b ^ ks[i % 8]);
            }
            Bytes::from(out)
        }
        UnaryFn::RleDecompress => {
            assert!(data.len().is_multiple_of(2), "corrupt RLE stream");
            let mut out = Vec::new();
            for pair in data.chunks_exact(2) {
                out.extend(core::iter::repeat_n(pair[1], pair[0] as usize));
            }
            Bytes::from(out)
        }
    }
}

/// Convenience: reduces a whole set of equal-length buffers pairwise.
pub fn combine_all<'a>(
    dtype: DType,
    func: ReduceFn,
    bufs: impl IntoIterator<Item = &'a [u8]>,
) -> Bytes {
    let mut iter = bufs.into_iter();
    let first = iter.next().expect("empty reduction");
    let mut acc = Bytes::copy_from_slice(first);
    for b in iter {
        acc = combine(dtype, func, &acc, b);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f32s(vals: &[f32]) -> Vec<u8> {
        vals.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    #[test]
    fn f32_sum_matches_scalar() {
        let a = f32s(&[1.0, 2.5, -3.0]);
        let b = f32s(&[0.5, 0.5, 10.0]);
        let r = combine(DType::F32, ReduceFn::Sum, &a, &b);
        assert_eq!(r, f32s(&[1.5, 3.0, 7.0]));
    }

    #[test]
    fn i32_minmax() {
        let a: Vec<u8> = [1i32, -5, 7].iter().flat_map(|v| v.to_le_bytes()).collect();
        let b: Vec<u8> = [2i32, -9, 3].iter().flat_map(|v| v.to_le_bytes()).collect();
        let mx = combine(DType::I32, ReduceFn::Max, &a, &b);
        let mn = combine(DType::I32, ReduceFn::Min, &a, &b);
        let back = |bytes: &Bytes| -> Vec<i32> {
            bytes
                .chunks_exact(4)
                .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
                .collect()
        };
        assert_eq!(back(&mx), vec![2, -5, 7]);
        assert_eq!(back(&mn), vec![1, -9, 3]);
    }

    #[test]
    fn integer_sum_wraps() {
        let a = i32::MAX.to_le_bytes();
        let b = 1i32.to_le_bytes();
        let r = combine(DType::I32, ReduceFn::Sum, &a, &b);
        assert_eq!(i32::from_le_bytes(r[..4].try_into().unwrap()), i32::MIN);
    }

    #[test]
    fn fx32_saturates_instead_of_wrapping() {
        let a = i32::MAX.to_le_bytes();
        let b = 1i32.to_le_bytes();
        let r = combine(DType::Fx32, ReduceFn::Sum, &a, &b);
        assert_eq!(i32::from_le_bytes(r[..4].try_into().unwrap()), i32::MAX);
    }

    #[test]
    fn fx32_roundtrip_and_mul() {
        let a = fx32::from_f64(1.5);
        let b = fx32::from_f64(-2.25);
        assert!((fx32::to_f64(a) - 1.5).abs() < 1e-4);
        assert!((fx32::to_f64(fx32::mul(a, b)) + 3.375).abs() < 1e-4);
    }

    #[test]
    fn combine_all_folds_many() {
        let bufs: Vec<Vec<u8>> = (1..=4).map(|i| f32s(&[i as f32, 1.0])).collect();
        let r = combine_all(DType::F32, ReduceFn::Sum, bufs.iter().map(|v| v.as_slice()));
        assert_eq!(r, f32s(&[10.0, 4.0]));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_operands_panic() {
        combine(DType::U8, ReduceFn::Sum, &[1, 2], &[1]);
    }

    #[test]
    fn rle_roundtrip() {
        let data = [vec![0u8; 300], b"hello".to_vec(), vec![7u8; 17]].concat();
        let packed = unary(UnaryFn::RleCompress, &data);
        assert!(packed.len() < data.len());
        let unpacked = unary(UnaryFn::RleDecompress, &packed);
        assert_eq!(&unpacked[..], &data[..]);
    }

    #[test]
    fn xor_cipher_is_involutive_and_scrambles() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let enc = unary(UnaryFn::XorCipher(0xdead_beef), &data);
        assert_eq!(enc.len(), data.len(), "length preserving");
        assert_ne!(&enc[..], &data[..], "ciphertext differs");
        let dec = unary(UnaryFn::XorCipher(0xdead_beef), &enc);
        assert_eq!(&dec[..], &data[..], "involution decrypts");
        // A different key does not decrypt.
        let wrong = unary(UnaryFn::XorCipher(0x1234), &enc);
        assert_ne!(&wrong[..], &data[..]);
    }

    #[test]
    fn rle_handles_incompressible() {
        let data: Vec<u8> = (0..=255).collect();
        let packed = unary(UnaryFn::RleCompress, &data);
        assert_eq!(packed.len(), 512); // worst case: 2x expansion
        assert_eq!(&unary(UnaryFn::RleDecompress, &packed)[..], &data[..]);
    }
}
