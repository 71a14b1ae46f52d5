//! Sparse byte-addressable backing store of shared extents.
//!
//! Every simulated memory (host DDR, FPGA HBM) holds real bytes so that
//! collectives, reductions and the DLRM use case produce verifiable results,
//! not just timing. The store is sparse — it holds only the ranges written —
//! because experiments address gigabyte-scale spaces while touching only the
//! buffers in use.
//!
//! The store is a map of disjoint, non-empty extents, each a shared
//! [`Bytes`] keyed by its start address, so payloads move by reference, as
//! they do through the CCLO datapath:
//!
//! - A write stores the writer's buffer as one extent. The extents it
//!   overlaps are cut back to their slices outside it; no bytes are copied.
//! - A read within one extent returns a slice of it; any other read gathers
//!   into a fresh buffer, with unwritten bytes reading as zero.
//! - A write replaces extents and never modifies one, so bytes a reader was
//!   handed and the buffer a writer stored never change.
//!
//! Retention: an extent pins its writer's allocation. A partly overwritten
//! extent keeps pinning all of it through its head and tail slices, however
//! few of its bytes are still live. The allocation is freed once every
//! extent and reader slice cut from it has let go.

use bytes::Bytes;
use std::collections::BTreeMap;

/// A sparse, zero-initialized byte store.
#[derive(Default)]
pub struct MemStore {
    /// Written bytes as disjoint, non-empty extents: start address → bytes.
    extents: BTreeMap<u64, Bytes>,
}

impl MemStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes a copy of `data` starting at `addr`.
    ///
    /// The copy is one allocation, stored as one extent (see
    /// [`MemStore::write_bytes`]).
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        self.write_bytes(addr, &Bytes::copy_from_slice(data));
    }

    /// Writes `data` starting at `addr` as one extent that shares the
    /// writer's allocation. The extents it overlaps keep only their slices
    /// outside the written range; nothing is copied.
    pub fn write_bytes(&mut self, addr: u64, data: &Bytes) {
        // An empty extent inserted at an existing start would erase it.
        if data.is_empty() {
            return;
        }
        let end = addr + data.len() as u64;
        // An extent starting before `addr` keeps its head; if it also
        // reaches past `end`, its tail survives as a separate extent.
        if let Some((&start, e)) = self.extents.range_mut(..addr).next_back() {
            let reach = start + e.len() as u64;
            if reach > addr {
                let tail = (reach > end).then(|| e.slice((end - start) as usize..));
                *e = e.slice(..(addr - start) as usize);
                if let Some(tail) = tail {
                    self.extents.insert(end, tail);
                }
            }
        }
        // Extents starting inside the new one are replaced; only the last
        // can reach past `end`, and its tail survives.
        while let Some((&start, _)) = self.extents.range(addr..end).next() {
            let e = self.extents.remove(&start).expect("the extent just found");
            if start + e.len() as u64 > end {
                self.extents.insert(end, e.slice((end - start) as usize..));
            }
        }
        self.extents.insert(addr, data.clone());
    }

    /// Reads `len` bytes starting at `addr`; unwritten bytes read as zero.
    pub fn read(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        let end = addr + len as u64;
        let first = self
            .extents
            .range(..=addr)
            .next_back()
            .map_or(addr, |(&start, _)| start);
        for (&start, e) in self.extents.range(first..end) {
            let lo = start.max(addr);
            let hi = (start + e.len() as u64).min(end);
            if lo < hi {
                out[(lo - addr) as usize..(hi - addr) as usize]
                    .copy_from_slice(&e[(lo - start) as usize..(hi - start) as usize]);
            }
        }
        out
    }

    /// Reads `len` bytes starting at `addr` as a shared buffer.
    ///
    /// This is the DMA-path entry point. A range within one extent is a
    /// slice of it (no copy); any other range is gathered into one new
    /// buffer. Either way the result keeps the bytes it was read with,
    /// whatever is written afterwards.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Bytes {
        match self.extents.range(..=addr).next_back() {
            Some((&start, e)) if addr + len as u64 <= start + e.len() as u64 => {
                let off = (addr - start) as usize;
                e.slice(off..off + len)
            }
            _ => Bytes::from(self.read(addr, len)),
        }
    }

    /// Number of extents the store holds.
    #[cfg(test)]
    fn extents(&self) -> usize {
        self.extents.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: usize = 4096;

    #[test]
    fn roundtrip_within_a_page() {
        let mut m = MemStore::new();
        m.write(100, &[1, 2, 3]);
        assert_eq!(m.read(100, 3), vec![1, 2, 3]);
        assert_eq!(m.read(99, 5), vec![0, 1, 2, 3, 0]);
        assert_eq!(m.extents(), 1);
    }

    #[test]
    fn roundtrip_across_pages() {
        let mut m = MemStore::new();
        let data: Vec<u8> = (0..=255).cycle().take(3 * PAGE).map(|v| v as u8).collect();
        let addr = PAGE as u64 - 7;
        m.write(addr, &data);
        assert_eq!(m.read(addr, data.len()), data);
        assert_eq!(&m.read_bytes(addr, data.len())[..], &data[..]);
        assert_eq!(m.extents(), 1, "one write, one extent");
    }

    #[test]
    fn unwritten_memory_reads_zero() {
        let m = MemStore::new();
        assert_eq!(m.read(1 << 40, 8), vec![0; 8]);
        assert_eq!(&m.read_bytes(1 << 40, 8)[..], &[0; 8]);
        assert_eq!(m.extents(), 0);
    }

    #[test]
    fn read_bytes_matches_read_and_slices_share_storage() {
        let mut m = MemStore::new();
        m.write(10, &[9u8; 100]);
        let b = m.read_bytes(0, 200);
        assert_eq!(&b[..], &m.read(0, 200)[..]);
        let whole = m.read_bytes(10, 100);
        let part = m.read_bytes(30, 50);
        assert_eq!(
            part.as_ptr(),
            whole[20..].as_ptr(),
            "one extent, one allocation"
        );
    }

    #[test]
    fn whole_page_write_bytes_shares_the_writers_allocation() {
        let mut m = MemStore::new();
        let data = Bytes::from(vec![7u8; 2 * PAGE + 5]);
        m.write_bytes(PAGE as u64, &data);
        assert_eq!(m.read_bytes(PAGE as u64, PAGE).as_ptr(), data.as_ptr());
        assert_eq!(
            m.read_bytes(2 * PAGE as u64, PAGE).as_ptr(),
            data[PAGE..].as_ptr()
        );
        // The 5-byte tail ends the extent; past it memory reads zero.
        assert_eq!(m.read(3 * PAGE as u64, 6), vec![7, 7, 7, 7, 7, 0]);
    }

    #[test]
    fn unaligned_write_bytes_reads_back_as_one_slice() {
        let mut m = MemStore::new();
        let data = Bytes::from((0..2 * PAGE + 5).map(|i| i as u8).collect::<Vec<u8>>());
        let addr = 3 * PAGE as u64 + 11;
        m.write_bytes(addr, &data);
        let back = m.read_bytes(addr, data.len());
        assert_eq!(back.as_ptr(), data.as_ptr(), "a slice across page edges");
        assert_eq!(back, data);
    }

    #[test]
    fn write_inside_an_extent_slices_its_neighbours_and_leaves_readers_alone() {
        let mut m = MemStore::new();
        let data = Bytes::from(vec![3u8; 2 * PAGE]);
        m.write_bytes(0, &data);
        let held = m.read_bytes(0, 2 * PAGE);
        let patch = Bytes::from(vec![4u8; 8]);
        m.write_bytes(8, &patch);
        assert_eq!(m.extents(), 3);
        assert_eq!(
            m.read_bytes(0, 8).as_ptr(),
            data.as_ptr(),
            "head is a slice"
        );
        assert_eq!(
            m.read_bytes(16, 2 * PAGE - 16).as_ptr(),
            data[16..].as_ptr(),
            "tail is a slice"
        );
        assert_eq!(m.read_bytes(8, 8).as_ptr(), patch.as_ptr());
        assert!(held.iter().all(|&b| b == 3), "a held read never changes");
        assert!(
            data.iter().all(|&b| b == 3),
            "the writer's buffer never changes"
        );
        let mut expect = [3u8; 24];
        expect[4..12].fill(4);
        assert_eq!(&m.read_bytes(4, 24)[..], &expect[..]);
    }

    #[test]
    fn rewrites_keep_one_extent_and_empty_writes_change_nothing() {
        let mut m = MemStore::new();
        for i in 0..1000u32 {
            m.write(64, &i.to_le_bytes().repeat(32));
        }
        assert_eq!(m.extents(), 1);
        assert_eq!(m.read(64, 4), 999u32.to_le_bytes());
        m.write_bytes(64, &Bytes::new());
        assert_eq!(m.extents(), 1);
        assert_eq!(m.read(64, 128), 999u32.to_le_bytes().repeat(32));
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
