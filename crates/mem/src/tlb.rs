//! Coyote-style memory translation: software-populated TLB with page faults.
//!
//! Coyote's shell translates FPGA-side virtual addresses through a TLB that
//! the host driver populates; an unmapped page raises an interrupt to the
//! CPU and costs a page-fault round trip (§4.2). The ACCL+ CoyoteBuffer
//! class *eagerly maps* its pages at allocation time precisely to avoid
//! that penalty — behaviour this model lets us quantify.
//!
//! The driver's page map is stored as disjoint extents of virtual pages,
//! not one entry per page: eagerly mapping a buffer (or the 1 GiB CCLO
//! scratch window) costs O(log extents), and translating a page is one
//! ordered-map lookup. Page-fault mappings coalesce with same-target
//! neighbours, so faults over a contiguous region stay one extent.

use std::collections::BTreeMap;

use accl_sim::time::Dur;
use serde::{Deserialize, Serialize};

/// Page size of the Coyote TLB, in bytes.
pub const PAGE_SIZE: u64 = 4096;

/// Where a page physically resides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemTarget {
    /// Host DRAM, reached over PCIe.
    Host,
    /// FPGA card memory (HBM/DDR).
    Device,
}

/// TLB geometry and penalty configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TlbConfig {
    /// Number of sets.
    pub sets: usize,
    /// Associativity (ways per set). The paper's integration work increased
    /// this for ACCL+ (§4.2).
    pub ways: usize,
    /// Cost of a TLB miss whose page *is* mapped (walk of the shell's
    /// mapping structures).
    pub miss_penalty_ns: u64,
    /// Cost of an unmapped page: interrupt, host fault handler, map, retry.
    pub fault_penalty_us: u64,
}

impl Default for TlbConfig {
    fn default() -> Self {
        TlbConfig {
            sets: 64,
            ways: 4,
            miss_penalty_ns: 250,
            fault_penalty_us: 20,
        }
    }
}

/// Result of translating one page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// Physical location of the page.
    pub target: MemTarget,
    /// Modelled cost of the lookup.
    pub penalty: Dur,
    /// Whether a page fault was taken.
    pub faulted: bool,
}

/// A software-populated page map plus a set-associative TLB cache.
pub struct Tlb {
    cfg: TlbConfig,
    /// Driver-populated translations (the "mapped pages") as disjoint,
    /// non-empty extents: first vpn → (end vpn, exclusive; target).
    /// Adjacent extents with the same target are always coalesced.
    map: BTreeMap<u64, (u64, MemTarget)>,
    /// TLB cache: per-set LRU lists of virtual page numbers (front = MRU).
    cache: Vec<Vec<u64>>,
    hits: u64,
    misses: u64,
    faults: u64,
}

impl Tlb {
    /// Creates an empty TLB.
    pub fn new(cfg: TlbConfig) -> Self {
        assert!(cfg.sets > 0 && cfg.ways > 0, "degenerate TLB geometry");
        Tlb {
            cfg,
            map: BTreeMap::new(),
            cache: vec![Vec::new(); cfg.sets],
            hits: 0,
            misses: 0,
            faults: 0,
        }
    }

    /// Maps the pages covering `[addr, addr+len)` to `target`
    /// (what `CoyoteBuffer` does eagerly at allocation). Pages already
    /// mapped are remapped: the last mapping wins.
    pub fn map_range(&mut self, addr: u64, len: u64, target: MemTarget) {
        let first = addr / PAGE_SIZE;
        let last = (addr + len.max(1) - 1) / PAGE_SIZE;
        self.insert_extent(first, last + 1, target);
    }

    /// Number of mapped pages.
    pub fn mapped_pages(&self) -> usize {
        self.map
            .iter()
            .map(|(&start, &(end, _))| (end - start) as usize)
            .sum()
    }

    /// Number of extents the page map holds.
    #[cfg(test)]
    fn extents(&self) -> usize {
        self.map.len()
    }

    /// The target of page `vpn`, if mapped.
    fn lookup(&self, vpn: u64) -> Option<MemTarget> {
        self.map
            .range(..=vpn)
            .next_back()
            .filter(|(_, &(end, _))| vpn < end)
            .map(|(_, &(_, target))| target)
    }

    /// Maps pages `[first, end)` to `target`, trimming or splitting the
    /// extents it overlaps and coalescing it with same-target neighbours.
    fn insert_extent(&mut self, mut first: u64, mut end: u64, target: MemTarget) {
        // An extent starting before `first` keeps its head; if it also
        // reaches past `end`, its tail survives as a separate extent.
        if let Some((&start, &(e, t))) = self.map.range(..first).next_back() {
            if e > first {
                self.map.insert(start, (first, t));
                if e > end {
                    self.map.insert(end, (e, t));
                }
            }
        }
        // Extents starting inside the new one are replaced; only the last
        // can reach past `end`, and its tail survives.
        while let Some((&start, &(e, t))) = self.map.range(first..end).next() {
            self.map.remove(&start);
            if e > end {
                self.map.insert(end, (e, t));
            }
        }
        if let Some((&start, &(e, t))) = self.map.range(..first).next_back() {
            if e == first && t == target {
                self.map.remove(&start);
                first = start;
            }
        }
        if let Some(&(e, t)) = self.map.get(&end) {
            if t == target {
                self.map.remove(&end);
                end = e;
            }
        }
        self.map.insert(first, (end, target));
    }

    /// (hits, misses, faults) observed so far.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.faults)
    }

    /// Translates the page containing `addr`.
    ///
    /// Unmapped pages fault and are then mapped to host memory (the Coyote
    /// fault handler pins the host page and installs the translation).
    pub fn translate(&mut self, addr: u64) -> Translation {
        let vpn = addr / PAGE_SIZE;
        let set = (vpn as usize) % self.cfg.sets;
        if let Some(pos) = self.cache[set].iter().position(|&v| v == vpn) {
            // Hit: refresh LRU position.
            let v = self.cache[set].remove(pos);
            self.cache[set].insert(0, v);
            self.hits += 1;
            let target = self.lookup(vpn).expect("cached page is mapped");
            return Translation {
                target,
                penalty: Dur::ZERO,
                faulted: false,
            };
        }
        // Miss: consult the mapping structures.
        let (target, penalty, faulted) = match self.lookup(vpn) {
            Some(t) => (t, Dur::from_ns(self.cfg.miss_penalty_ns), false),
            None => {
                self.faults += 1;
                self.insert_extent(vpn, vpn + 1, MemTarget::Host);
                (
                    MemTarget::Host,
                    Dur::from_us(self.cfg.fault_penalty_us),
                    true,
                )
            }
        };
        self.misses += 1;
        // Fill, evicting LRU if the set is full.
        if self.cache[set].len() >= self.cfg.ways {
            self.cache[set].pop();
        }
        self.cache[set].insert(0, vpn);
        Translation {
            target,
            penalty,
            faulted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapped_page_misses_then_hits() {
        let mut tlb = Tlb::new(TlbConfig::default());
        tlb.map_range(0x1_0000, PAGE_SIZE, MemTarget::Device);
        let t1 = tlb.translate(0x1_0000);
        assert_eq!(t1.target, MemTarget::Device);
        assert!(!t1.faulted);
        assert_eq!(t1.penalty, Dur::from_ns(250));
        let t2 = tlb.translate(0x1_0008);
        assert_eq!(t2.penalty, Dur::ZERO);
        assert_eq!(tlb.counters(), (1, 1, 0));
    }

    #[test]
    fn unmapped_page_faults_once() {
        let mut tlb = Tlb::new(TlbConfig::default());
        let t1 = tlb.translate(0xdead_0000);
        assert!(t1.faulted);
        assert_eq!(t1.target, MemTarget::Host);
        assert_eq!(t1.penalty, Dur::from_us(20));
        // Fault handler mapped it; next access hits the cache.
        let t2 = tlb.translate(0xdead_0004);
        assert!(!t2.faulted);
        assert_eq!(t2.penalty, Dur::ZERO);
        assert_eq!(tlb.counters(), (1, 1, 1));
    }

    #[test]
    fn map_range_covers_partial_pages() {
        let mut tlb = Tlb::new(TlbConfig::default());
        // 1 byte shy of two full pages starting mid-page: must map 3 pages.
        tlb.map_range(PAGE_SIZE / 2, 2 * PAGE_SIZE - 1, MemTarget::Device);
        assert_eq!(tlb.mapped_pages(), 3);
    }

    #[test]
    fn low_associativity_thrashes() {
        // 1-way, 1-set TLB: alternating pages always miss.
        let cfg = TlbConfig {
            sets: 1,
            ways: 1,
            ..TlbConfig::default()
        };
        let mut tlb = Tlb::new(cfg);
        tlb.map_range(0, 4 * PAGE_SIZE, MemTarget::Device);
        for _ in 0..4 {
            tlb.translate(0);
            tlb.translate(PAGE_SIZE);
        }
        let (hits, misses, _) = tlb.counters();
        assert_eq!(hits, 0);
        assert_eq!(misses, 8);
        // Higher associativity fixes it — the paper's Coyote modification.
        let mut tlb = Tlb::new(TlbConfig {
            sets: 1,
            ways: 2,
            ..TlbConfig::default()
        });
        tlb.map_range(0, 4 * PAGE_SIZE, MemTarget::Device);
        for _ in 0..4 {
            tlb.translate(0);
            tlb.translate(PAGE_SIZE);
        }
        let (hits, misses, _) = tlb.counters();
        assert_eq!((hits, misses), (6, 2));
    }

    fn target_of(tlb: &mut Tlb, vpn: u64) -> MemTarget {
        tlb.translate(vpn * PAGE_SIZE).target
    }

    #[test]
    fn remap_splits_an_extent_on_both_sides() {
        let mut tlb = Tlb::new(TlbConfig::default());
        tlb.map_range(0, 10 * PAGE_SIZE, MemTarget::Device);
        tlb.map_range(4 * PAGE_SIZE, 2 * PAGE_SIZE, MemTarget::Host);
        assert_eq!(tlb.extents(), 3);
        assert_eq!(tlb.mapped_pages(), 10);
        for (vpn, want) in [
            (3, MemTarget::Device),
            (4, MemTarget::Host),
            (5, MemTarget::Host),
            (6, MemTarget::Device),
            (9, MemTarget::Device),
        ] {
            assert_eq!(target_of(&mut tlb, vpn), want, "page {vpn}");
        }
        assert_eq!(tlb.counters().2, 0);
        // Remapping the hole back restores one extent.
        tlb.map_range(4 * PAGE_SIZE, 2 * PAGE_SIZE, MemTarget::Device);
        assert_eq!(tlb.extents(), 1);
        assert_eq!(tlb.mapped_pages(), 10);
    }

    #[test]
    fn fault_in_gap_between_extents() {
        let mut tlb = Tlb::new(TlbConfig::default());
        tlb.map_range(0, 2 * PAGE_SIZE, MemTarget::Device);
        tlb.map_range(5 * PAGE_SIZE, 2 * PAGE_SIZE, MemTarget::Device);
        let t = tlb.translate(3 * PAGE_SIZE);
        assert!(t.faulted);
        assert_eq!(t.target, MemTarget::Host);
        // The fault maps exactly its page; its neighbours stay unmapped.
        assert_eq!(tlb.extents(), 3);
        assert_eq!(tlb.mapped_pages(), 5);
        assert!(tlb.translate(2 * PAGE_SIZE).faulted);
        assert!(tlb.translate(4 * PAGE_SIZE).faulted);
        // Host pages 2..5 coalesce; the Device extents around them do not.
        assert_eq!(tlb.extents(), 3);
        assert_eq!(tlb.mapped_pages(), 7);
        assert_eq!(target_of(&mut tlb, 1), MemTarget::Device);
        assert_eq!(target_of(&mut tlb, 5), MemTarget::Device);
        assert_eq!(tlb.counters().2, 3);
    }

    #[test]
    fn consecutive_faults_merge_into_one_extent() {
        let mut tlb = Tlb::new(TlbConfig::default());
        for vpn in 100..164 {
            assert!(tlb.translate(vpn * PAGE_SIZE).faulted);
        }
        assert_eq!(tlb.extents(), 1);
        assert_eq!(tlb.mapped_pages(), 64);
        // Faults below an existing extent merge with it too.
        assert!(tlb.translate(99 * PAGE_SIZE).faulted);
        assert_eq!(tlb.extents(), 1);
        assert_eq!(tlb.counters().2, 65);
    }

    #[test]
    fn zero_length_map_covers_one_page() {
        let mut tlb = Tlb::new(TlbConfig::default());
        tlb.map_range(3 * PAGE_SIZE + 17, 0, MemTarget::Device);
        assert_eq!(tlb.mapped_pages(), 1);
        assert!(!tlb.translate(3 * PAGE_SIZE).faulted);
        assert!(tlb.translate(4 * PAGE_SIZE).faulted);
    }

    #[test]
    fn gib_mapping_is_one_extent() {
        let mut tlb = Tlb::new(TlbConfig::default());
        tlb.map_range(0xc000_0000, 1 << 30, MemTarget::Device);
        assert_eq!(tlb.extents(), 1);
        assert_eq!(tlb.mapped_pages(), (1 << 30) / PAGE_SIZE as usize);
    }
}
