//! Property tests for the workspace JSON codec ([`accl_sim::json`]).
//!
//! Random value trees — up to four levels deep, strings drawn from every
//! C0 control character, `"`, `\` and multi-byte UTF-8, integers pinned
//! to their extremes as often as drawn at random — must survive
//! `parse(write(v)) == v`, and writing must be a pure function of the
//! value. The same trees also pin the layout rule by counting lines.

use accl_sim::json::{parse, write, Json};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::RngExt;

/// Characters the generated strings are built from.
const CHARS: &[char] = &[
    '"', '\\', '/', 'a', 'Z', '0', ' ', ':', ',', '{', ']', 'é', 'μ', '€', '😀', '\u{7f}',
    '\u{fffd}',
];

/// Integers that sit on a representation boundary.
const EDGES: &[i128] = &[
    0,
    1,
    -1,
    i64::MAX as i128,
    i64::MIN as i128,
    i64::MIN as i128 + 1,
    u64::MAX as i128,
];

/// A random [`Json`] tree of at most `depth` container levels.
struct Tree {
    depth: u32,
}

fn string(rng: &mut StdRng) -> String {
    (0..rng.random_range(0..8usize))
        .map(|_| {
            if rng.random_bool(0.5) {
                char::from(rng.random_range(0u8..0x20))
            } else {
                CHARS[rng.random_range(0..CHARS.len())]
            }
        })
        .collect()
}

fn integer(rng: &mut StdRng) -> Json {
    let v: i128 = match rng.random_range(0..3u8) {
        0 => EDGES[rng.random_range(0..EDGES.len())],
        1 => i128::from(rng.random_range(i64::MIN..0)),
        _ => i128::from(rng.random_range(0..u64::MAX)),
    };
    u64::try_from(v).map_or_else(|_| Json::I64(v as i64), Json::U64)
}

fn tree(rng: &mut StdRng, depth: u32) -> Json {
    let kinds = if depth == 0 { 4 } else { 6 };
    match rng.random_range(0..kinds) {
        0 => Json::Null,
        1 => Json::Bool(rng.random_bool(0.5)),
        2 => integer(rng),
        3 => Json::Str(string(rng)),
        4 => Json::Arr(
            (0..rng.random_range(0..5usize))
                .map(|_| tree(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.random_range(0..5usize))
                .map(|_| (string(rng), tree(rng, depth - 1)))
                .collect(),
        ),
    }
}

impl Strategy for Tree {
    type Value = Json;
    fn generate(&self, rng: &mut StdRng) -> Json {
        tree(rng, self.depth)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn write_then_parse_is_identity(v in Tree { depth: 4 }) {
        let text = write(&v);
        prop_assert_eq!(parse(&text), Ok(v.clone()), "document:\n{}", text);
        prop_assert_eq!(write(&v), text);
    }

    #[test]
    fn layout_is_one_line_per_flat_container(v in Tree { depth: 4 }) {
        let text = write(&v);
        prop_assert!(text.bytes().all(|b| b >= 0x20 || b == b'\n'), "raw control in {:?}", text);
        prop_assert_eq!(text.lines().count(), lines(&v), "document:\n{}", text);
    }
}

/// The line count the layout rule implies: a scalar or a container of
/// scalars takes one line; any other container takes its opening line,
/// its members' lines and its closing line.
fn lines(v: &Json) -> usize {
    let members: Vec<&Json> = match v {
        Json::Arr(items) => items.iter().collect(),
        Json::Obj(pairs) => pairs.iter().map(|(_, m)| m).collect(),
        _ => return 1,
    };
    if members
        .iter()
        .all(|m| !matches!(m, Json::Arr(_) | Json::Obj(_)))
    {
        1
    } else {
        2 + members.into_iter().map(lines).sum::<usize>()
    }
}
