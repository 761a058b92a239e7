//! Memory hierarchy timing: L1I/L1D → L2 bus → L2 → front-side bus → SDRAM.
//!
//! Latency *and contention* are modeled at every level, as the paper
//! requires (§4): the L2 bus (at core frequency, Table 4.1 varies its
//! width) and the front-side bus (Table 4.1 varies its frequency) are
//! occupancy-tracked resources, so bursts of misses queue behind each
//! other; outstanding misses to the same block merge MSHR-style.

use crate::cache::Cache;
use crate::config::{DerivedTiming, SimConfig, WritePolicy};
use crate::dram::Sdram;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Hasher for block addresses: one multiply and a fold, in place of
/// SipHash on the per-load MSHR lookup. Blocks are trusted simulator
/// state, so flooding resistance buys nothing here.
#[derive(Debug, Default, Clone, Copy)]
struct BlockHasher(u64);

impl Hasher for BlockHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        let h = (self.0 ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

type BlockMap = HashMap<u64, u64, BuildHasherDefault<BlockHasher>>;

/// Statistics of one simulation's memory system activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// L1I misses.
    pub l1i_misses: u64,
    /// L1I accesses.
    pub l1i_accesses: u64,
    /// L1D misses.
    pub l1d_misses: u64,
    /// L1D accesses.
    pub l1d_accesses: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// L2 accesses.
    pub l2_accesses: u64,
    /// Core cycles the L2 bus was occupied.
    pub l2_bus_busy: u64,
    /// Core cycles the FSB was occupied.
    pub fsb_busy: u64,
    /// Dirty write-backs from L1D to L2.
    pub l1_writebacks: u64,
    /// Dirty write-backs from L2 to memory.
    pub l2_writebacks: u64,
    /// Next-line prefetches issued into the L1D.
    pub prefetches: u64,
}

/// The full cache/bus/DRAM timing model.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    timing: DerivedTiming,
    l1d_policy: WritePolicy,
    prefetch_nextline: bool,
    sdram: Sdram,
    /// Next cycle the L2 bus is free.
    l2_bus_free: u64,
    /// Next cycle the front-side bus is free.
    fsb_free: u64,
    /// Outstanding L1D misses: block -> fill-complete cycle (MSHR merge).
    outstanding: BlockMap,
    stats: MemoryStats,
}

impl MemoryHierarchy {
    /// Builds the hierarchy for a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation; call [`SimConfig::derive`]
    /// first if validity is uncertain.
    pub fn new(config: &SimConfig) -> Self {
        let timing = config.derive().expect("validated config");
        let sdram = if config.sdram_banks == 0 {
            Sdram::flat(timing.dram_cycles)
        } else {
            Sdram::banked(timing.dram_cycles, config.sdram_banks)
        };
        Self {
            sdram,
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            timing,
            l1d_policy: config.l1d.write_policy,
            prefetch_nextline: config.prefetch_nextline,
            l2_bus_free: 0,
            fsb_free: 0,
            outstanding: BlockMap::default(),
            stats: MemoryStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> MemoryStats {
        let mut s = self.stats;
        s.l1i_accesses = self.l1i.hits() + self.l1i.misses();
        s.l1i_misses = self.l1i.misses();
        s.l1d_accesses = self.l1d.hits() + self.l1d.misses();
        s.l1d_misses = self.l1d.misses();
        s.l2_accesses = self.l2.hits() + self.l2.misses();
        s.l2_misses = self.l2.misses();
        s
    }

    /// Derived timing constants in use.
    pub fn timing(&self) -> DerivedTiming {
        self.timing
    }

    /// Occupies the L2 bus for `cycles` starting no earlier than `earliest`;
    /// returns the completion cycle.
    fn l2_bus_transfer(&mut self, earliest: u64, cycles: u64) -> u64 {
        let start = earliest.max(self.l2_bus_free);
        self.l2_bus_free = start + cycles;
        self.stats.l2_bus_busy += cycles;
        start + cycles
    }

    /// Occupies the FSB for `cycles` starting no earlier than `earliest`;
    /// returns the cycle the *data* is fully delivered (bus occupancy plus
    /// SDRAM latency overlaps: the bus is held for the transfer only).
    fn fsb_transfer(&mut self, earliest: u64, cycles: u64) -> u64 {
        let start = earliest.max(self.fsb_free);
        self.fsb_free = start + cycles;
        self.stats.fsb_busy += cycles;
        start + cycles
    }

    /// The DRAM + FSB leg of an L2 miss; returns data-delivered cycle.
    fn memory_trip(&mut self, addr: u64, lookup_done: u64) -> u64 {
        // SDRAM access begins at lookup completion (command over the
        // address lines), then the block crosses the FSB.
        let data_at_dram = self.sdram.access(addr, lookup_done);
        self.fsb_transfer(data_at_dram, self.timing.fsb_block_cycles)
    }

    /// An L2 lookup for a block requested at `cycle`; returns the cycle the
    /// block is available at the L2's output. Handles L2 dirty evictions
    /// (extra FSB traffic).
    fn access_l2(&mut self, block: u64, cycle: u64, write: bool) -> u64 {
        let lookup_done = cycle + self.timing.l2_lat;
        let outcome = self.l2.access(block, write, true);
        if outcome.hit {
            return lookup_done;
        }
        let done = self.memory_trip(block, lookup_done);
        if outcome.writeback.is_some() {
            self.stats.l2_writebacks += 1;
            // The victim's write-back occupies the FSB after the fill.
            let cycles = self.timing.fsb_block_cycles;
            self.fsb_transfer(done, cycles);
        }
        done
    }

    /// Timing of a demand load issued at `cycle`; returns data-ready cycle.
    pub fn load(&mut self, addr: u64, cycle: u64) -> u64 {
        let block = self.l1d.block_of(addr);
        let l1_done = cycle + self.timing.l1d_lat;
        let outcome = self.l1d.access(addr, false, true);
        if outcome.hit {
            // The line was allocated by an earlier miss; if its fill is
            // still in flight this is a delayed hit that completes with the
            // primary miss (MSHR merge).
            if let Some(&ready) = self.outstanding.get(&block) {
                if ready > l1_done {
                    return ready;
                }
            }
            return l1_done;
        }
        // The L1 fill may evict a dirty line: write-back traffic to L2.
        if outcome.writeback.is_some() {
            self.stats.l1_writebacks += 1;
            let cycles = self.timing.l2_bus_l1_block;
            self.l2_bus_transfer(cycle, cycles);
        }
        // L1 miss path: L2 lookup, then block crosses the L2 bus.
        let l2_out = self.access_l2(block, l1_done, false);
        let ready = self.l2_bus_transfer(l2_out, self.timing.l2_bus_l1_block);
        self.outstanding.insert(block, ready);
        if self.prefetch_nextline {
            self.prefetch(block + self.l1d.block_bytes(), ready);
        }
        if self.outstanding.len() > 4096 {
            self.outstanding.retain(|_, &mut r| r > cycle);
        }
        ready
    }

    /// Issues a next-line prefetch of `block` into the L1D, starting no
    /// earlier than `after` (prefetches yield to the demand fill). Only
    /// L2-resident lines are prefetched — speculative DRAM traffic would
    /// compete with demand misses for the front-side bus. The prefetched
    /// line is treated as another outstanding miss so demand loads that
    /// arrive before the fill merge with it instead of paying the full
    /// miss again.
    fn prefetch(&mut self, block: u64, after: u64) {
        if self.l1d.probe(block) || self.outstanding.contains_key(&block) || !self.l2.probe(block) {
            return;
        }
        self.stats.prefetches += 1;
        let l2_out = self.access_l2(block, after, false);
        let done = self.l2_bus_transfer(l2_out, self.timing.l2_bus_l1_block);
        if self.l1d.fill(block).is_some() {
            self.stats.l1_writebacks += 1;
            let cycles = self.timing.l2_bus_l1_block;
            self.l2_bus_transfer(done, cycles);
        }
        self.outstanding.insert(block, done);
    }

    /// Timing effects of a committed store at `cycle`.
    ///
    /// Stores retire through a store buffer, so no completion latency is
    /// returned; only cache state and bus occupancy are updated.
    pub fn store(&mut self, addr: u64, cycle: u64) {
        match self.l1d_policy {
            WritePolicy::WriteBack => {
                let outcome = self.l1d.access(addr, true, true);
                if !outcome.hit {
                    // Write-allocate: fetch the block (read-for-ownership).
                    let block = self.l1d.block_of(addr);
                    let l2_out = self.access_l2(block, cycle + self.timing.l1d_lat, false);
                    self.l2_bus_transfer(l2_out, self.timing.l2_bus_l1_block);
                }
                if outcome.writeback.is_some() {
                    self.stats.l1_writebacks += 1;
                    self.l2_bus_transfer(cycle, self.timing.l2_bus_l1_block);
                }
            }
            WritePolicy::WriteThrough => {
                // Update L1 on hit, no allocate on miss; data always goes to
                // the L2, consuming L2 bus bandwidth per store.
                self.l1d.access(addr, true, false);
                let store_cycles = self.timing.l2_bus_store;
                self.l2_bus_transfer(cycle, store_cycles);
                let block = self.l1d.block_of(addr);
                self.access_l2(block, cycle, true);
            }
        }
    }

    /// Timing of an instruction fetch of the block containing `pc` at
    /// `cycle`; returns fetch-complete cycle.
    pub fn fetch(&mut self, pc: u64, cycle: u64) -> u64 {
        let l1_done = cycle + self.timing.l1i_lat;
        if self.l1i.access(pc, false, true).hit {
            return l1_done;
        }
        let block = self.l1i.block_of(pc);
        let l2_out = self.access_l2(block, l1_done, false);
        self.l2_bus_transfer(l2_out, self.timing.l2_bus_l1i_block)
    }

    /// Whether the L1I currently holds the block containing `pc` (no state
    /// change).
    pub fn l1i_has(&self, pc: u64) -> bool {
        self.l1i.probe(pc)
    }

    /// Block address in L1I terms.
    pub fn l1i_block_of(&self, pc: u64) -> u64 {
        self.l1i.block_of(pc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheParams, SimConfig};

    fn cfg() -> SimConfig {
        SimConfig::default()
    }

    #[test]
    fn l1_hit_costs_l1_latency() {
        let mut m = MemoryHierarchy::new(&cfg());
        let t = m.timing();
        m.load(0x1000_0000, 0); // cold miss fills
        let ready = m.load(0x1000_0000, 1000);
        assert_eq!(ready, 1000 + t.l1d_lat);
    }

    #[test]
    fn cold_miss_pays_dram_and_buses() {
        let mut m = MemoryHierarchy::new(&cfg());
        let t = m.timing();
        let ready = m.load(0x1000_0000, 0);
        let expected =
            t.l1d_lat + t.l2_lat + t.dram_cycles + t.fsb_block_cycles + t.l2_bus_l1_block;
        assert_eq!(ready, expected);
    }

    #[test]
    fn l2_hit_skips_dram() {
        let mut m = MemoryHierarchy::new(&cfg());
        let t = m.timing();
        m.load(0x1000_0000, 0); // now in L1 and L2
                                // Evict from L1 only: touch conflicting blocks. Easier: a second
                                // address in the same L2 block but a different L1 block is an L1
                                // miss + L2 hit (L1 blocks 32B, L2 blocks 64B).
        let ready = m.load(0x1000_0020, 10_000);
        assert_eq!(ready, 10_000 + t.l1d_lat + t.l2_lat + t.l2_bus_l1_block);
    }

    #[test]
    fn concurrent_misses_queue_on_fsb() {
        let mut m = MemoryHierarchy::new(&cfg());
        // Two cold misses to distinct L2 blocks at the same cycle: the
        // second's FSB transfer must queue behind the first's.
        let r1 = m.load(0x1000_0000, 0);
        let r2 = m.load(0x2000_0000, 0);
        assert!(r2 > r1, "second miss must queue: {r2} !> {r1}");
        assert_eq!(r2 - r1, m.timing().fsb_block_cycles);
    }

    #[test]
    fn mshr_merges_same_block_misses() {
        let mut m = MemoryHierarchy::new(&cfg());
        let r1 = m.load(0x1000_0000, 0);
        let r2 = m.load(0x1000_0008, 1); // same 32B block, still in flight
        assert_eq!(r2, r1, "merged miss completes with the primary");
        // And no extra FSB occupancy was charged.
        assert_eq!(m.stats().fsb_busy, m.timing().fsb_block_cycles);
    }

    #[test]
    fn write_through_store_consumes_l2_bus() {
        let mut wt_cfg = cfg();
        wt_cfg.l1d.write_policy = WritePolicy::WriteThrough;
        let mut m = MemoryHierarchy::new(&wt_cfg);
        m.load(0x1000_0000, 0); // warm L2
        let busy_before = m.stats().l2_bus_busy;
        for i in 0..10 {
            m.store(0x1000_0000 + i * 8, 5000 + i * 10);
        }
        let busy = m.stats().l2_bus_busy - busy_before;
        assert!(busy >= 10, "10 WT stores must occupy the bus, got {busy}");
    }

    #[test]
    fn write_back_batches_store_traffic() {
        // WB: repeated stores to one resident block cost no bus traffic.
        let mut m = MemoryHierarchy::new(&cfg());
        m.load(0x1000_0000, 0);
        let busy_before = m.stats().l2_bus_busy;
        for i in 0..10 {
            m.store(0x1000_0000, 5000 + i * 10);
        }
        assert_eq!(m.stats().l2_bus_busy, busy_before);
    }

    #[test]
    fn dirty_eviction_generates_writeback_traffic() {
        let mut small_cfg = cfg();
        small_cfg.l1d = CacheParams::write_back(1024, 1, 32); // 32 sets
        let mut m = MemoryHierarchy::new(&small_cfg);
        m.store(0x1000_0000, 0); // dirty line (write-allocate)
                                 // Conflicting block (same set): 32 sets * 32B stride = 1024. The
                                 // load's fill evicts the dirty line: write-back traffic.
        m.load(0x1000_0000 + 1024, 10_000);
        assert_eq!(m.stats().l1_writebacks, 1);
        // A store to another conflicting block evicts the (clean) loaded
        // line: no additional write-back.
        m.store(0x1000_0000 + 2048, 20_000);
        assert_eq!(m.stats().l1_writebacks, 1);
    }

    #[test]
    fn narrow_l2_bus_slows_l1_fills() {
        let mut narrow = cfg();
        narrow.l2_bus_bytes = 8;
        let mut wide = cfg();
        wide.l2_bus_bytes = 32;
        let mut mn = MemoryHierarchy::new(&narrow);
        let mut mw = MemoryHierarchy::new(&wide);
        let rn = mn.load(0x1000_0000, 0);
        let rw = mw.load(0x1000_0000, 0);
        assert!(rn > rw);
    }

    #[test]
    fn slower_fsb_raises_miss_latency() {
        let mut slow = cfg();
        slow.fsb_ghz = 0.533;
        let mut fast = cfg();
        fast.fsb_ghz = 1.4;
        let rs = MemoryHierarchy::new(&slow).load(0x1000_0000, 0);
        let rf = MemoryHierarchy::new(&fast).load(0x1000_0000, 0);
        assert!(rs > rf);
    }

    #[test]
    fn instruction_fetch_uses_l1i() {
        let mut m = MemoryHierarchy::new(&cfg());
        let t = m.timing();
        let cold = m.fetch(0x0040_0000, 0);
        assert!(cold > t.l1i_lat);
        let warm = m.fetch(0x0040_0000, 10_000);
        assert_eq!(warm, 10_000 + t.l1i_lat);
        assert_eq!(m.stats().l1i_misses, 1);
    }
}

#[cfg(test)]
mod prefetch_tests {
    use super::*;
    use crate::config::SimConfig;
    use archpredict_workloads::{Benchmark, TraceGenerator};

    #[test]
    fn nextline_prefetch_hides_strided_misses() {
        // applu's strided sweeps are the prefetcher's best case.
        let on = SimConfig {
            prefetch_nextline: true,
            ..SimConfig::default()
        };
        let off = SimConfig::default();
        let generator = TraceGenerator::new(Benchmark::Applu);
        let run = |cfg: &SimConfig| {
            crate::simulate_with_warmup(cfg, generator.interval(0), 8_000, 16_000)
        };
        let with = run(&on);
        let without = run(&off);
        assert!(
            with.l1d_misses < without.l1d_misses,
            "prefetch should cut strided misses: {} vs {}",
            with.l1d_misses,
            without.l1d_misses
        );
        assert!(
            with.ipc() >= without.ipc() * 0.99,
            "{} vs {}",
            with.ipc(),
            without.ipc()
        );
    }

    #[test]
    fn prefetch_counter_only_moves_when_enabled() {
        let mut m = MemoryHierarchy::new(&SimConfig::default());
        m.load(0x1000_0000, 0);
        assert_eq!(m.stats().prefetches, 0);
        let cfg = SimConfig {
            prefetch_nextline: true,
            ..SimConfig::default()
        };
        let mut m = MemoryHierarchy::new(&cfg);
        m.load(0x1000_0000, 0);
        assert_eq!(m.stats().prefetches, 1);
        // The prefetched next line is now a (delayed) hit, not a new miss.
        let _ready = m.load(0x1000_0000 + 32, 1);
        assert_eq!(m.stats().prefetches, 1, "no cascade on the merged hit");
    }
}
