//! Oracle property test for the extent-based TLB page map.
//!
//! `PageTlb` below is the straightforward per-page model: one map entry per
//! mapped 4 KiB page, the same set-associative LRU cache and the same
//! penalties. Random sequences of overlapping `map_range` and `translate`
//! calls must produce the same translations, counters and mapped-page count
//! from both, on small geometries where evictions are frequent.

use std::collections::BTreeMap;

use accl_mem::tlb::Translation;
use accl_mem::{MemTarget, Tlb, TlbConfig, PAGE_SIZE};
use accl_sim::time::Dur;
use proptest::collection::vec;
use proptest::prelude::*;

/// Reference model: the page map stores every page separately.
struct PageTlb {
    cfg: TlbConfig,
    map: BTreeMap<u64, MemTarget>,
    cache: Vec<Vec<u64>>,
    hits: u64,
    misses: u64,
    faults: u64,
}

impl PageTlb {
    fn new(cfg: TlbConfig) -> Self {
        PageTlb {
            cfg,
            map: BTreeMap::new(),
            cache: vec![Vec::new(); cfg.sets],
            hits: 0,
            misses: 0,
            faults: 0,
        }
    }

    fn map_range(&mut self, addr: u64, len: u64, target: MemTarget) {
        let first = addr / PAGE_SIZE;
        let last = (addr + len.max(1) - 1) / PAGE_SIZE;
        for vpn in first..=last {
            self.map.insert(vpn, target);
        }
    }

    fn mapped_pages(&self) -> usize {
        self.map.len()
    }

    fn counters(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.faults)
    }

    fn translate(&mut self, addr: u64) -> Translation {
        let vpn = addr / PAGE_SIZE;
        let set = (vpn as usize) % self.cfg.sets;
        if let Some(pos) = self.cache[set].iter().position(|&v| v == vpn) {
            let v = self.cache[set].remove(pos);
            self.cache[set].insert(0, v);
            self.hits += 1;
            return Translation {
                target: self.map[&vpn],
                penalty: Dur::ZERO,
                faulted: false,
            };
        }
        let (target, penalty, faulted) = match self.map.get(&vpn) {
            Some(&t) => (t, Dur::from_ns(self.cfg.miss_penalty_ns), false),
            None => {
                self.faults += 1;
                self.map.insert(vpn, MemTarget::Host);
                (
                    MemTarget::Host,
                    Dur::from_us(self.cfg.fault_penalty_us),
                    true,
                )
            }
        };
        self.misses += 1;
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

/// An address on page `page` of one of two distant windows, at the page's
/// first byte, its second byte, its last byte, or a random offset.
fn address(high: bool, page: u64, at: u8, offset: u64) -> u64 {
    let base = if high { 1 << 40 } else { 0 };
    let within = match at {
        0 => 0,
        1 => 1,
        2 => PAGE_SIZE - 1,
        _ => offset,
    };
    base + page * PAGE_SIZE + within
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn extent_map_matches_per_page_model(
        geometry in (1usize..5, 1usize..3),
        ops in vec(
            (0u8..5, any::<bool>(), 0u64..48, 0u8..4, 0u64..PAGE_SIZE, 0u64..12 * PAGE_SIZE),
            1..160,
        ),
    ) {
        let cfg = TlbConfig {
            sets: geometry.0,
            ways: geometry.1,
            ..TlbConfig::default()
        };
        let mut tlb = Tlb::new(cfg);
        let mut model = PageTlb::new(cfg);
        for (step, &(kind, high, page, at, offset, len)) in ops.iter().enumerate() {
            let addr = address(high, page, at, offset);
            match kind {
                0 | 1 => {
                    let target = if kind == 0 { MemTarget::Host } else { MemTarget::Device };
                    // Lengths of zero, one byte and whole pages hit the
                    // `len.max(1)` and page-boundary cases.
                    let len = match offset % 4 {
                        0 => 0,
                        1 => 1,
                        2 => len / PAGE_SIZE * PAGE_SIZE,
                        _ => len,
                    };
                    tlb.map_range(addr, len, target);
                    model.map_range(addr, len, target);
                }
                _ => {
                    prop_assert_eq!(
                        tlb.translate(addr),
                        model.translate(addr),
                        "step {} translate {:#x}",
                        step,
                        addr
                    );
                }
            }
            prop_assert_eq!(tlb.counters(), model.counters(), "step {}", step);
            prop_assert_eq!(tlb.mapped_pages(), model.mapped_pages(), "step {}", step);
        }
        // Every page either model has touched translates the same way.
        for high in [false, true] {
            for page in 0..64 {
                let addr = address(high, page, 0, 0);
                prop_assert_eq!(tlb.translate(addr), model.translate(addr));
            }
        }
        prop_assert_eq!(tlb.counters(), model.counters());
        prop_assert_eq!(tlb.mapped_pages(), model.mapped_pages());
    }
}
