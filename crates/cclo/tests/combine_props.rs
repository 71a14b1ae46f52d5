//! Oracle property test for the binary reduce plugin.
//!
//! `reference_elem` applies each `(DType, ReduceFn)` pair one element at a time,
//! computing integer results in `i128` and wrapping or saturating them
//! explicitly. `plugins::combine` must produce the same bytes for every
//! pair, on operands that mix random bit patterns with the edges that
//! differ between the arithmetic rules: wrap-around, saturation, NaN
//! payloads, ±0 and the infinities.
//!
//! One case is not fixed by the language: when both float operands are
//! NaN, Rust lets the code generator pick which payload propagates, and
//! release builds of one kernel do pick differently per type. There the
//! result must be one of the two operands, either as it was or quieted.

use accl_cclo::msg::{DType, ReduceFn};
use accl_cclo::plugins::combine;
use proptest::collection::vec;
use proptest::prelude::*;

const DTYPES: [DType; 6] = [
    DType::U8,
    DType::I32,
    DType::I64,
    DType::F32,
    DType::F64,
    DType::Fx32,
];
const FUNCS: [ReduceFn; 4] = [ReduceFn::Sum, ReduceFn::Max, ReduceFn::Min, ReduceFn::Prod];

/// Integer result of `func` before wrapping or saturating to the type.
fn exact(func: ReduceFn, x: i128, y: i128) -> i128 {
    match func {
        ReduceFn::Sum => x + y,
        ReduceFn::Max => x.max(y),
        ReduceFn::Min => x.min(y),
        ReduceFn::Prod => x * y,
    }
}

/// IEEE result of `func` on one little-endian element pair of `$ty`.
macro_rules! float_elem {
    ($ty:ty, $func:expr, $x:expr, $y:expr) => {{
        let x = <$ty>::from_le_bytes($x.try_into().unwrap());
        let y = <$ty>::from_le_bytes($y.try_into().unwrap());
        let r = match $func {
            ReduceFn::Sum => x + y,
            ReduceFn::Max => x.max(y),
            ReduceFn::Min => x.min(y),
            ReduceFn::Prod => x * y,
        };
        r.to_le_bytes().to_vec()
    }};
}

/// Element-wise reference for one element pair.
fn reference_elem(dtype: DType, func: ReduceFn, x: &[u8], y: &[u8]) -> Vec<u8> {
    match dtype {
        DType::U8 => vec![exact(func, x[0].into(), y[0].into()) as u8],
        DType::I32 => {
            let (x, y) = (
                i32::from_le_bytes(x.try_into().unwrap()),
                i32::from_le_bytes(y.try_into().unwrap()),
            );
            (exact(func, x.into(), y.into()) as i32)
                .to_le_bytes()
                .to_vec()
        }
        DType::I64 => {
            let (x, y) = (
                i64::from_le_bytes(x.try_into().unwrap()),
                i64::from_le_bytes(y.try_into().unwrap()),
            );
            (exact(func, x.into(), y.into()) as i64)
                .to_le_bytes()
                .to_vec()
        }
        DType::Fx32 => {
            let (x, y) = (
                i128::from(i32::from_le_bytes(x.try_into().unwrap())),
                i128::from(i32::from_le_bytes(y.try_into().unwrap())),
            );
            // Q16.16: sums saturate, products rescale by 2^16 and saturate.
            let r = match func {
                ReduceFn::Prod => (x * y) >> 16,
                f => exact(f, x, y),
            };
            let r = r.clamp(i32::MIN.into(), i32::MAX.into()) as i32;
            r.to_le_bytes().to_vec()
        }
        DType::F32 => float_elem!(f32, func, x, y),
        DType::F64 => float_elem!(f64, func, x, y),
    }
}

fn is_nan(dtype: DType, x: &[u8]) -> bool {
    match dtype {
        DType::F32 => f32::from_le_bytes(x.try_into().unwrap()).is_nan(),
        DType::F64 => f64::from_le_bytes(x.try_into().unwrap()).is_nan(),
        _ => false,
    }
}

/// `x` with its NaN quiet bit set, as arithmetic returns a signalling NaN.
fn quieted(dtype: DType, x: &[u8]) -> Vec<u8> {
    let mut q = x.to_vec();
    let top = q.len() - 1;
    q[top - 1] |= if dtype == DType::F32 { 0x40 } else { 0x08 };
    q
}

/// Checks `combine` against the reference, element by element.
fn check(dtype: DType, func: ReduceFn, a: &[u8], b: &[u8]) {
    let got = combine(dtype, func, a, b);
    assert_eq!(got.len(), a.len(), "{dtype:?} {func:?}");
    let n = dtype.size();
    let elems = got
        .chunks_exact(n)
        .zip(a.chunks_exact(n).zip(b.chunks_exact(n)));
    for (i, (g, (x, y))) in elems.enumerate() {
        if is_nan(dtype, x) && is_nan(dtype, y) {
            let (qx, qy) = (quieted(dtype, x), quieted(dtype, y));
            assert!(
                g == x || g == y || g == &qx[..] || g == &qy[..],
                "{dtype:?} {func:?} element {i}: {g:02x?} from {x:02x?}, {y:02x?}"
            );
        } else {
            let want = reference_elem(dtype, func, x, y);
            assert_eq!(
                g,
                &want[..],
                "{dtype:?} {func:?} element {i}: {x:02x?}, {y:02x?}"
            );
        }
    }
}

/// Little-endian bytes of the edge value `pick` for `dtype`.
fn edge(dtype: DType, pick: usize) -> Vec<u8> {
    match dtype {
        DType::U8 => {
            let e = [0u8, 1, 2, 0x7f, 0x80, 0xfe, 0xff];
            vec![e[pick % e.len()]]
        }
        DType::I32 | DType::Fx32 => {
            let e = [
                0i32,
                1,
                -1,
                2,
                1 << 16,
                -(1 << 16),
                1 << 24,
                i32::MAX,
                i32::MIN,
                i32::MAX - 1,
                i32::MIN + 1,
            ];
            e[pick % e.len()].to_le_bytes().to_vec()
        }
        DType::I64 => {
            let e = [
                0i64,
                1,
                -1,
                2,
                1 << 32,
                i64::MAX,
                i64::MIN,
                i64::MAX - 1,
                i64::MIN + 1,
            ];
            e[pick % e.len()].to_le_bytes().to_vec()
        }
        DType::F32 => {
            let nan_payload = f32::from_bits(0x7fc0_1234);
            let e = [
                0.0f32,
                -0.0,
                1.0,
                -1.0,
                f32::NAN,
                -f32::NAN,
                nan_payload,
                f32::INFINITY,
                f32::NEG_INFINITY,
                f32::MAX,
                f32::MIN,
                f32::MIN_POSITIVE,
                f32::from_bits(1),
            ];
            e[pick % e.len()].to_le_bytes().to_vec()
        }
        DType::F64 => {
            let nan_payload = f64::from_bits(0x7ff8_0000_dead_beef);
            let e = [
                0.0f64,
                -0.0,
                1.0,
                -1.0,
                f64::NAN,
                -f64::NAN,
                nan_payload,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::MAX,
                f64::MIN,
                f64::MIN_POSITIVE,
                f64::from_bits(1),
            ];
            e[pick % e.len()].to_le_bytes().to_vec()
        }
    }
}

/// Builds an operand from per-element `(is_edge, bits)` draws.
fn operand(dtype: DType, draws: &[(bool, u64)]) -> Vec<u8> {
    let n = dtype.size();
    draws
        .iter()
        .flat_map(|&(is_edge, bits)| {
            if is_edge {
                edge(dtype, bits as usize)
            } else {
                bits.to_le_bytes()[..n].to_vec()
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn combine_matches_the_elementwise_reference(
        elems in vec((any::<bool>(), any::<u64>(), any::<bool>(), any::<u64>()), 0..80),
    ) {
        let da: Vec<(bool, u64)> = elems.iter().map(|e| (e.0, e.1)).collect();
        let db: Vec<(bool, u64)> = elems.iter().map(|e| (e.2, e.3)).collect();
        for dtype in DTYPES {
            let (a, b) = (operand(dtype, &da), operand(dtype, &db));
            for func in FUNCS {
                check(dtype, func, &a, &b);
            }
        }
    }
}

#[test]
fn every_edge_pair_matches_the_reference() {
    for dtype in DTYPES {
        let picks: Vec<usize> = (0..13).collect();
        // Every ordered pair of edge values, one element each.
        let a: Vec<u8> = picks
            .iter()
            .flat_map(|&i| picks.iter().map(move |_| i))
            .flat_map(|i| edge(dtype, i))
            .collect();
        let b: Vec<u8> = picks
            .iter()
            .flat_map(|_| picks.iter().copied())
            .flat_map(|j| edge(dtype, j))
            .collect();
        for func in FUNCS {
            check(dtype, func, &a, &b);
        }
    }
}
