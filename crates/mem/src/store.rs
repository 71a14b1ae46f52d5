//! Sparse byte-addressable backing store with shared pages.
//!
//! Every simulated memory (host DDR, FPGA HBM) holds real bytes so that
//! collectives, reductions and the DLRM use case produce verifiable results,
//! not just timing. The store is sparse — pages materialize on first write —
//! because experiments address gigabyte-scale spaces while touching only the
//! buffers in use.
//!
//! Pages are shared [`Bytes`] of exactly [`PAGE_SIZE`], so payloads move by
//! reference, as they do through the CCLO datapath:
//!
//! - A write that covers a whole page stores that page as a slice of the
//!   writer's buffer; no bytes are copied.
//! - A write that covers part of a page patches it in place when the store
//!   holds the only handle on it. Otherwise (a reader, or a sibling page
//!   from the same write, still holds it) that one page is copied first:
//!   copy-on-write. Bytes a reader was handed never change.
//! - A read within one page returns a slice of it; a read across pages
//!   gathers into a fresh buffer.
//!
//! Retention: each resident page pins exactly one allocation, the one
//! behind the write that stored it (or its own copied page). That
//! allocation is freed once every page and reader slice cut from it has
//! let go, so a rewritten buffer frees its old writers' buffers.

use bytes::{Bytes, BytesMut};
use std::collections::BTreeMap;

/// Page size of the backing store, in bytes.
pub const PAGE_SIZE: u64 = 4096;

const PAGE: usize = PAGE_SIZE as usize;

/// A sparse, zero-initialized byte store.
#[derive(Default)]
pub struct MemStore {
    /// Resident pages by base address; each is exactly `PAGE_SIZE` long.
    pages: BTreeMap<u64, Bytes>,
}

/// Splits `[addr, addr + len)` into per-page pieces
/// `(page base, offset in page, offset in range, length)`.
fn pieces(addr: u64, len: usize) -> impl Iterator<Item = (u64, usize, usize, usize)> {
    let mut off = 0usize;
    std::iter::from_fn(move || {
        if off == len {
            return None;
        }
        let a = addr + off as u64;
        let base = a & !(PAGE_SIZE - 1);
        let in_page = (a - base) as usize;
        let n = (PAGE - in_page).min(len - off);
        let piece = (base, in_page, off, n);
        off += n;
        Some(piece)
    })
}

impl MemStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes a copy of `data` starting at `addr`.
    ///
    /// The copy is one allocation, which every whole page it covers then
    /// shares (see [`MemStore::write_bytes`]).
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        self.write_bytes(addr, &Bytes::copy_from_slice(data));
    }

    /// Writes `data` starting at `addr`, sharing its allocation for every
    /// whole page it covers and patching (or copying on write) the partial
    /// pages at either end.
    pub fn write_bytes(&mut self, addr: u64, data: &Bytes) {
        for (base, in_page, off, n) in pieces(addr, data.len()) {
            if n == PAGE {
                self.pages.insert(base, data.slice(off..off + n));
                continue;
            }
            let mut page = match self.pages.remove(&base) {
                None => BytesMut::from(vec![0u8; PAGE]),
                Some(page) => page
                    .try_into_mut()
                    .unwrap_or_else(|shared| BytesMut::from(shared.to_vec())),
            };
            page[in_page..in_page + n].copy_from_slice(&data[off..off + n]);
            self.pages.insert(base, page.freeze());
        }
    }

    /// Reads `len` bytes starting at `addr`; untouched bytes read as zero.
    pub fn read(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        for (base, in_page, off, n) in pieces(addr, len) {
            if let Some(page) = self.pages.get(&base) {
                out[off..off + n].copy_from_slice(&page[in_page..in_page + n]);
            }
        }
        out
    }

    /// Reads `len` bytes starting at `addr` as a shared buffer.
    ///
    /// This is the DMA-path entry point. A range within one resident page
    /// is a slice of that page (no copy); any other range is gathered into
    /// one new buffer. Either way the result keeps the bytes it was read
    /// with, whatever is written afterwards.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Bytes {
        let base = addr & !(PAGE_SIZE - 1);
        let in_page = (addr - base) as usize;
        match self.pages.get(&base) {
            Some(page) if in_page + len <= PAGE => page.slice(in_page..in_page + len),
            _ => Bytes::from(self.read(addr, len)),
        }
    }

    /// Number of materialized pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_within_a_page() {
        let mut m = MemStore::new();
        m.write(100, &[1, 2, 3]);
        assert_eq!(m.read(100, 3), vec![1, 2, 3]);
        assert_eq!(m.read(99, 5), vec![0, 1, 2, 3, 0]);
        assert_eq!(m.resident_pages(), 1);
    }

    #[test]
    fn roundtrip_across_pages() {
        let mut m = MemStore::new();
        let data: Vec<u8> = (0..=255)
            .cycle()
            .take(3 * PAGE_SIZE as usize)
            .map(|v| v as u8)
            .collect();
        let addr = PAGE_SIZE - 7;
        m.write(addr, &data);
        assert_eq!(m.read(addr, data.len()), data);
        assert_eq!(&m.read_bytes(addr, data.len())[..], &data[..]);
        assert_eq!(m.resident_pages(), 4);
    }

    #[test]
    fn unwritten_memory_reads_zero() {
        let m = MemStore::new();
        assert_eq!(m.read(1 << 40, 8), vec![0; 8]);
        assert_eq!(&m.read_bytes(1 << 40, 8)[..], &[0; 8]);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn read_bytes_matches_read_and_slices_share_storage() {
        let mut m = MemStore::new();
        m.write(10, &[9u8; 100]);
        let b = m.read_bytes(0, 200);
        assert_eq!(&b[..], &m.read(0, 200)[..]);
        let again = m.read_bytes(10, 100);
        assert_eq!(again.as_ptr(), b[10..].as_ptr(), "one page, one allocation");
    }

    #[test]
    fn whole_page_write_bytes_shares_the_writers_allocation() {
        let mut m = MemStore::new();
        let data = Bytes::from(vec![7u8; 2 * PAGE + 5]);
        m.write_bytes(PAGE_SIZE, &data);
        assert_eq!(m.read_bytes(PAGE_SIZE, PAGE).as_ptr(), data.as_ptr());
        assert_eq!(
            m.read_bytes(2 * PAGE_SIZE, PAGE).as_ptr(),
            data[PAGE..].as_ptr()
        );
        // The 5-byte tail landed in a zero page of its own.
        assert_eq!(m.read(3 * PAGE_SIZE, 6), vec![7, 7, 7, 7, 7, 0]);
    }

    #[test]
    fn partial_write_to_an_unshared_page_patches_it_in_place() {
        let mut m = MemStore::new();
        m.write(0, &[1u8; 16]);
        let before = m.read_bytes(0, 1).as_ptr();
        m.write(4, &[2u8; 4]);
        assert_eq!(m.read_bytes(0, 1).as_ptr(), before, "no reallocation");
        let mut expect = vec![1u8; 16];
        expect[4..8].fill(2);
        assert_eq!(m.read(0, 16), expect);
    }

    #[test]
    fn partial_write_copies_a_shared_page_and_leaves_readers_alone() {
        let mut m = MemStore::new();
        let data = Bytes::from(vec![3u8; 2 * PAGE]);
        m.write_bytes(0, &data);
        let held = m.read_bytes(0, PAGE);
        m.write(8, &[4u8; 8]);
        assert!(held.iter().all(|&b| b == 3), "a held read never changes");
        assert!(
            data.iter().all(|&b| b == 3),
            "the writer's buffer never changes"
        );
        assert_ne!(
            m.read_bytes(0, 1).as_ptr(),
            held.as_ptr(),
            "copied on write"
        );
        assert_eq!(m.read(6, 4), vec![3, 3, 4, 4]);
    }

    #[test]
    fn overwrite_is_last_writer_wins() {
        let mut m = MemStore::new();
        m.write(0, &[1; 16]);
        m.write(4, &[2; 4]);
        let mut expect = vec![1u8; 16];
        expect[4..8].fill(2);
        assert_eq!(m.read(0, 16), expect);
    }
}
