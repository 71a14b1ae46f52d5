//! Oracle property test for the extent-map `MemStore`.
//!
//! The model is one flat `Vec<u8>`. Random `write`, `write_bytes`, `read`
//! and `read_bytes` calls, at and around TLB page edges, must read back
//! what the model holds. Every `read_bytes` result and every buffer handed
//! to `write_bytes` is kept for the rest of the case, and must never
//! change: the store's extents are slices of the writers' buffers and
//! readers get slices of the extents, so a write that patched an extent
//! in place would show up here.

use accl_mem::{MemStore, PAGE_SIZE};
use bytes::Bytes;
use proptest::collection::vec;
use proptest::prelude::*;

const PAGES: u64 = 8;
const SPAN: usize = (PAGES * PAGE_SIZE) as usize;

/// An address near a page edge (or anywhere, for `at == 3`).
fn address(page: u64, at: u8, offset: u64) -> u64 {
    let within = match at {
        0 => 0,
        1 => 1,
        2 => PAGE_SIZE - 1,
        _ => offset % PAGE_SIZE,
    };
    page * PAGE_SIZE + within
}

/// A length of zero, one byte, a page and its neighbours, or anything up
/// to three pages; clipped to the modelled span.
fn length(kind: u8, raw: u64, addr: u64) -> usize {
    let page = PAGE_SIZE as usize;
    let len = match kind {
        0 => 0,
        1 => 1,
        2 => page,
        3 => page - 1,
        4 => page + 1,
        5 => 2 * page,
        _ => (raw % (3 * PAGE_SIZE)) as usize,
    };
    len.min(SPAN - addr as usize)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn extent_store_matches_a_flat_model(
        ops in vec((0u8..4, 0u64..PAGES, 0u8..4, any::<u64>(), 0u8..7, any::<u64>()), 1..48),
    ) {
        let mut store = MemStore::new();
        let mut model = vec![0u8; SPAN];
        // (handle, the bytes it held when it was taken)
        let mut held: Vec<(Bytes, Vec<u8>)> = Vec::new();
        for (step, &(kind, page, at, offset, len_kind, raw)) in ops.iter().enumerate() {
            let addr = address(page, at, offset);
            let len = length(len_kind, raw, addr);
            let range = addr as usize..addr as usize + len;
            let fill: Vec<u8> = (0..len).map(|i| (raw as usize + i * 7 + step) as u8).collect();
            match kind {
                0 => {
                    store.write(addr, &fill);
                    model[range].copy_from_slice(&fill);
                }
                1 => {
                    // A window into a larger buffer, as a frame body or a
                    // read chunk would be.
                    let lead = (raw % 9) as usize;
                    let mut buf = vec![0xeeu8; lead + len + 3];
                    buf[lead..lead + len].copy_from_slice(&fill);
                    let data = Bytes::from(buf).slice(lead..lead + len);
                    store.write_bytes(addr, &data);
                    model[range].copy_from_slice(&fill);
                    held.push((data, fill));
                }
                2 => {
                    prop_assert_eq!(store.read(addr, len), model[range].to_vec(), "step {}", step);
                }
                _ => {
                    let got = store.read_bytes(addr, len);
                    prop_assert_eq!(&got[..], &model[range.clone()], "step {}", step);
                    held.push((got, model[range].to_vec()));
                }
            }
            for (i, (b, expect)) in held.iter().enumerate() {
                prop_assert_eq!(&b[..], &expect[..], "held buffer {} changed at step {}", i, step);
            }
        }
        prop_assert_eq!(store.read(0, SPAN), model);
    }
}
