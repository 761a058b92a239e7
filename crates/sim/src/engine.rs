//! The cycle-by-cycle out-of-order execution engine.
//!
//! Each cycle proceeds commit → issue → dispatch → fetch (so a newly
//! dispatched instruction issues at the earliest one cycle later, and a
//! newly issued one commits no earlier than its completion cycle). The
//! engine models:
//!
//! * a fetch unit limited by fetch width, taken branches, I-cache misses,
//!   BTB misses, and branch mispredictions (front end redirects when the
//!   branch *resolves*, plus the frequency-derived minimum penalty);
//! * dispatch limited by ROB, load/store queues, physical registers, and
//!   the in-flight branch cap;
//! * out-of-order issue limited by issue width, per-family functional-unit
//!   throughput, and load/store ports, selecting oldest-first;
//! * in-order commit limited by commit width, with stores draining to the
//!   memory hierarchy at commit time.
//!
//! The issue stage is wakeup-driven rather than a scan of the ROB. At
//! dispatch each operand either links the instruction into its producer's
//! consumer list (producer not yet issued) or folds the producer's known
//! completion cycle into the instruction's ready time. When a producer
//! issues it walks its consumer list; an instruction with no outstanding
//! operands enters a min-heap keyed by `(ready_time, seq)`, and each cycle
//! the heap releases every instruction whose operands are complete into
//! the age-ordered ready queue of its issue group. Select then takes the
//! oldest head among the groups that still have throughput, until the
//! issue width is reached — the same instructions, in the same order, as
//! an oldest-first walk of the whole ROB. The idle-cycle skip reads the
//! next event off the heap and the ROB head instead of scanning.

use crate::branch::{Btb, TournamentPredictor};
use crate::config::SimConfig;
use crate::memory::MemoryHierarchy;
use crate::result::SimResult;
use archpredict_workloads::{Instruction, OpClass};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Completion-time ring size; must exceed ROB size + maximum dependency
/// distance by a comfortable margin.
const RING: usize = 8192;

/// End of a consumer list.
const NO_LINK: u32 = u32::MAX;

/// Issue groups: op families that share one per-cycle throughput limit
/// (integer ALU and branches, multiply, FP, load ports, store ports).
const GROUPS: usize = 5;

fn issue_group(op: OpClass) -> usize {
    match op {
        OpClass::IntAlu | OpClass::Branch => 0,
        OpClass::IntMul => 1,
        OpClass::FpAlu | OpClass::FpMul => 2,
        OpClass::Load => 3,
        OpClass::Store => 4,
    }
}

/// Execution latencies (cycles) by op family; loads add memory time.
const LAT_INT_ALU: u64 = 1;
const LAT_INT_MUL: u64 = 8;
const LAT_FP_ALU: u64 = 4;
const LAT_FP_MUL: u64 = 6;
const LAT_AGEN: u64 = 1;
const LAT_BRANCH: u64 = 1;

/// Front-end bubble when a predicted-taken branch misses in the BTB.
const BTB_BUBBLE: u64 = 2;

#[derive(Debug, Clone, Copy)]
struct Snapshot {
    cycle: u64,
    committed: u64,
    branches: u64,
    mispredicts: u64,
    btb_misses: u64,
    fetch_stall_cycles: u64,
    stall_icache: u64,
    stall_branch: u64,
    stall_btb: u64,
    mem: crate::memory::MemoryStats,
}

#[derive(Debug, Clone, Copy)]
struct RobEntry {
    seq: u64,
    op: OpClass,
    addr: u64,
    mispredicted: bool,
    /// Completion cycle; `u64::MAX` until issued.
    complete: u64,
    /// Latest completion cycle among the operands known so far.
    ready_time: u64,
    /// Operands whose producer has not issued yet.
    waiting: u8,
    /// Next link of each operand in its producer's consumer list.
    next_link: [u32; 2],
}

const EMPTY_ENTRY: RobEntry = RobEntry {
    seq: 0,
    op: OpClass::IntAlu,
    addr: 0,
    mispredicted: false,
    complete: u64::MAX,
    ready_time: 0,
    waiting: 0,
    next_link: [NO_LINK; 2],
};

#[derive(Debug)]
pub(crate) struct Engine<I: Iterator<Item = Instruction>> {
    cfg: SimConfig,
    mem: MemoryHierarchy,
    predictor: TournamentPredictor,
    btb: Btb,
    trace: I,
    pending: Option<Instruction>,
    trace_done: bool,

    /// Reorder buffer: a power-of-two ring indexed by `seq & rob_mask`
    /// holding sequence numbers `rob_head..seq`.
    rob: Vec<RobEntry>,
    rob_mask: u64,
    rob_head: u64,
    fetch_q: VecDeque<(Instruction, bool)>, // (instr, mispredicted)
    /// Completion cycle by `seq % RING`; `u64::MAX` while in flight and
    /// unissued.
    complete_at: Vec<u64>,
    /// Head of each producer's consumer list, by `seq % RING`. A link is
    /// `rob slot << 1 | operand`.
    consumers: Vec<u32>,
    /// Instructions with every operand's producer issued, keyed by
    /// `(ready_time, seq)`.
    wakeups: BinaryHeap<Reverse<(u64, u64)>>,
    /// Per issue group, ready instructions by age.
    ready: [BinaryHeap<Reverse<u64>>; GROUPS],
    /// Per issue group, instructions issued per cycle.
    group_limit: [u32; GROUPS],

    int_regs_free: u32,
    fp_regs_free: u32,
    loads_free: u32,
    stores_free: u32,
    branches_free: u32,

    cycle: u64,
    seq: u64,
    committed: u64,
    target: u64,
    warmup: u64,
    warmup_snapshot: Option<Snapshot>,

    fetch_stall_until: u64,
    stalled_on_branch: Option<u64>,
    last_fetch_block: u64,

    branches: u64,
    mispredicts: u64,
    btb_misses: u64,
    fetch_stall_cycles: u64,
    stall_cause: StallCause,
    stall_icache: u64,
    stall_branch: u64,
    stall_btb: u64,
}

/// Why the front end is currently stalled (for cycle attribution).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StallCause {
    None,
    Icache,
    Branch,
    Btb,
}

impl<I: Iterator<Item = Instruction>> Engine<I> {
    pub(crate) fn new(cfg: &SimConfig, trace: I, target: u64) -> Self {
        Self::with_warmup(cfg, trace, 0, target)
    }

    /// Like `new`, but the first `warmup` committed instructions warm the
    /// caches and predictors without being counted in the result.
    pub(crate) fn with_warmup(cfg: &SimConfig, trace: I, warmup: u64, measured: u64) -> Self {
        let mem = MemoryHierarchy::new(cfg);
        let fu = cfg.fu_throughput();
        let rob_slots = (cfg.rob_size as usize).next_power_of_two();
        Self {
            predictor: TournamentPredictor::new(cfg.predictor_entries),
            btb: Btb::new(cfg.btb_sets),
            mem,
            trace,
            pending: None,
            trace_done: false,
            rob: vec![EMPTY_ENTRY; rob_slots],
            rob_mask: rob_slots as u64 - 1,
            rob_head: 0,
            fetch_q: VecDeque::with_capacity(2 * cfg.width as usize + 8),
            complete_at: vec![0; RING],
            consumers: vec![NO_LINK; RING],
            wakeups: BinaryHeap::with_capacity(rob_slots),
            ready: std::array::from_fn(|_| BinaryHeap::with_capacity(rob_slots)),
            group_limit: [fu.int_alu, fu.mul, fu.fp, cfg.load_ports, cfg.store_ports],
            int_regs_free: cfg.int_regs,
            fp_regs_free: cfg.fp_regs,
            loads_free: cfg.lsq_loads,
            stores_free: cfg.lsq_stores,
            branches_free: cfg.max_branches,
            cycle: 0,
            seq: 0,
            committed: 0,
            target: warmup + measured,
            warmup,
            warmup_snapshot: None,
            fetch_stall_until: 0,
            stalled_on_branch: None,
            last_fetch_block: u64::MAX,
            branches: 0,
            mispredicts: 0,
            btb_misses: 0,
            fetch_stall_cycles: 0,
            stall_cause: StallCause::None,
            stall_icache: 0,
            stall_branch: 0,
            stall_btb: 0,
            cfg: cfg.clone(),
        }
    }

    pub(crate) fn run(mut self) -> SimResult {
        let mut last_progress = (0u64, 0u64); // (cycle, committed)
        while self.committed < self.target {
            self.cycle += 1;
            let committed = self.commit();
            let issued = self.issue();
            let dispatched = self.dispatch();
            let q_before = self.fetch_q.len();
            self.fetch();
            let fetched = self.fetch_q.len() != q_before;
            // Idle-cycle skip: when nothing moved, jump to the next known
            // event (a completion, an operand becoming ready, or a fetch
            // redirect); a ready instruction still waiting for throughput
            // makes that the next cycle. Stall counters are advanced as if
            // the cycles had been stepped.
            if committed == 0 && issued == 0 && dispatched == 0 && !fetched {
                if let Some(next) = self.next_event() {
                    if next > self.cycle + 1 {
                        let skipped = next - 1 - self.cycle;
                        if self.stalled_on_branch.is_some() || self.cycle < self.fetch_stall_until {
                            self.charge_stall(skipped);
                        }
                        self.cycle = next - 1;
                    }
                }
            }
            if self.warmup_snapshot.is_none() && self.committed >= self.warmup {
                self.warmup_snapshot = Some(Snapshot {
                    cycle: self.cycle,
                    committed: self.committed,
                    branches: self.branches,
                    mispredicts: self.mispredicts,
                    btb_misses: self.btb_misses,
                    fetch_stall_cycles: self.fetch_stall_cycles,
                    stall_icache: self.stall_icache,
                    stall_branch: self.stall_branch,
                    stall_btb: self.stall_btb,
                    mem: self.mem.stats(),
                });
            }
            if self.trace_exhausted() && self.rob_head == self.seq && self.fetch_q.is_empty() {
                break;
            }
            // Forward-progress watchdog: a structural deadlock is a
            // simulator bug and must be loud, not a hang.
            if self.committed > last_progress.1 {
                last_progress = (self.cycle, self.committed);
            } else {
                assert!(
                    self.cycle - last_progress.0 < 1_000_000,
                    "simulator deadlock at cycle {} ({} committed)",
                    self.cycle,
                    self.committed
                );
            }
        }
        let base = self.warmup_snapshot.unwrap_or(Snapshot {
            cycle: 0,
            committed: 0,
            branches: 0,
            mispredicts: 0,
            btb_misses: 0,
            fetch_stall_cycles: 0,
            stall_icache: 0,
            stall_branch: 0,
            stall_btb: 0,
            mem: crate::memory::MemoryStats::default(),
        });
        let mem = self.mem.stats();
        SimResult {
            instructions: self.committed - base.committed,
            cycles: self.cycle - base.cycle,
            l1i_misses: mem.l1i_misses - base.mem.l1i_misses,
            l1d_misses: mem.l1d_misses - base.mem.l1d_misses,
            l2_misses: mem.l2_misses - base.mem.l2_misses,
            branches: self.branches - base.branches,
            mispredicts: self.mispredicts - base.mispredicts,
            btb_misses: self.btb_misses - base.btb_misses,
            l2_bus_busy: mem.l2_bus_busy - base.mem.l2_bus_busy,
            fsb_busy: mem.fsb_busy - base.mem.fsb_busy,
            fetch_stall_cycles: self.fetch_stall_cycles - base.fetch_stall_cycles,
            icache_stall_cycles: self.stall_icache - base.stall_icache,
            branch_stall_cycles: self.stall_branch - base.stall_branch,
            btb_stall_cycles: self.stall_btb - base.stall_btb,
        }
    }

    fn trace_exhausted(&self) -> bool {
        self.trace_done && self.pending.is_none()
    }

    fn commit(&mut self) -> u32 {
        let mut committed = 0;
        for _ in 0..self.cfg.width {
            if self.committed >= self.target {
                break;
            }
            if self.rob_head == self.seq {
                break;
            }
            let entry = self.rob[(self.rob_head & self.rob_mask) as usize];
            if entry.complete > self.cycle {
                break;
            }
            self.rob_head += 1;
            match entry.op {
                OpClass::Store => {
                    self.mem.store(entry.addr, self.cycle);
                    self.stores_free += 1;
                }
                OpClass::Load => {
                    self.loads_free += 1;
                    self.int_regs_free += 1;
                }
                OpClass::Branch => {
                    self.branches_free += 1;
                }
                OpClass::FpAlu | OpClass::FpMul => {
                    self.fp_regs_free += 1;
                }
                OpClass::IntAlu | OpClass::IntMul => {
                    self.int_regs_free += 1;
                }
            }
            self.committed += 1;
            committed += 1;
        }
        committed
    }

    /// Issues up to `width` ready instructions, oldest first; returns how
    /// many.
    fn issue(&mut self) -> u32 {
        let cycle = self.cycle;
        while let Some(&Reverse((ready_time, seq))) = self.wakeups.peek() {
            if ready_time > cycle {
                break;
            }
            self.wakeups.pop();
            let op = self.rob[(seq & self.rob_mask) as usize].op;
            self.ready[issue_group(op)].push(Reverse(seq));
        }
        let mut used = [0u32; GROUPS];
        let mut issued = 0u32;
        while issued < self.cfg.width {
            // Oldest ready instruction among the groups with throughput left.
            let mut oldest: Option<(u64, usize)> = None;
            for (g, queue) in self.ready.iter().enumerate() {
                if used[g] >= self.group_limit[g] {
                    continue;
                }
                if let Some(&Reverse(seq)) = queue.peek() {
                    if oldest.is_none_or(|(o, _)| seq < o) {
                        oldest = Some((seq, g));
                    }
                }
            }
            let Some((seq, g)) = oldest else { break };
            self.ready[g].pop();
            used[g] += 1;
            issued += 1;
            self.issue_one(seq);
        }
        issued
    }

    /// Issues `seq` this cycle and wakes its consumers.
    fn issue_one(&mut self, seq: u64) {
        let cycle = self.cycle;
        let slot = (seq & self.rob_mask) as usize;
        let entry = self.rob[slot];
        let complete = match entry.op {
            OpClass::IntAlu => cycle + LAT_INT_ALU,
            OpClass::IntMul => cycle + LAT_INT_MUL,
            OpClass::FpAlu => cycle + LAT_FP_ALU,
            OpClass::FpMul => cycle + LAT_FP_MUL,
            OpClass::Load => self.mem.load(entry.addr, cycle + LAT_AGEN),
            OpClass::Store => cycle + LAT_AGEN,
            OpClass::Branch => cycle + LAT_BRANCH,
        };
        self.rob[slot].complete = complete;
        let ring = (seq % RING as u64) as usize;
        self.complete_at[ring] = complete;
        if entry.mispredicted && self.stalled_on_branch == Some(seq) {
            // Redirect the front end when the branch resolves, plus the
            // frequency-derived minimum pipeline-refill penalty.
            let penalty = self.mem.timing().mispredict_penalty;
            self.fetch_stall_until = complete + penalty;
            self.stall_cause = StallCause::Branch;
            self.stalled_on_branch = None;
        }
        let mut link = std::mem::replace(&mut self.consumers[ring], NO_LINK);
        while link != NO_LINK {
            let consumer = &mut self.rob[(link >> 1) as usize];
            link = consumer.next_link[(link & 1) as usize];
            consumer.ready_time = consumer.ready_time.max(complete);
            consumer.waiting -= 1;
            if consumer.waiting == 0 {
                self.wakeups
                    .push(Reverse((consumer.ready_time, consumer.seq)));
            }
        }
    }

    /// Earliest future cycle at which anything can change, used to skip
    /// idle cycles. `None` when no bound is known.
    fn next_event(&self) -> Option<u64> {
        let mut t = u64::MAX;
        if self.rob_head < self.seq {
            // `u64::MAX` while the head is unissued.
            t = self.rob[(self.rob_head & self.rob_mask) as usize].complete;
        }
        if let Some(&Reverse((ready_time, _))) = self.wakeups.peek() {
            t = t.min(ready_time.max(self.cycle + 1));
        }
        if self.ready.iter().any(|q| !q.is_empty()) {
            t = t.min(self.cycle + 1);
        }
        if self.stalled_on_branch.is_none() && self.cycle < self.fetch_stall_until {
            t = t.min(self.fetch_stall_until);
        }
        if t == u64::MAX {
            None
        } else {
            Some(t)
        }
    }

    fn dispatch(&mut self) -> u32 {
        let mut dispatched = 0;
        for _ in 0..self.cfg.width {
            if self.seq - self.rob_head >= self.cfg.rob_size as u64 {
                break;
            }
            let Some(&(instr, mispredicted)) = self.fetch_q.front() else {
                break;
            };
            // Structural resources.
            match instr.op {
                OpClass::Load => {
                    if self.loads_free == 0 || self.int_regs_free == 0 {
                        break;
                    }
                    self.loads_free -= 1;
                    self.int_regs_free -= 1;
                }
                OpClass::Store => {
                    if self.stores_free == 0 {
                        break;
                    }
                    self.stores_free -= 1;
                }
                OpClass::Branch => {
                    if self.branches_free == 0 {
                        break;
                    }
                    self.branches_free -= 1;
                }
                OpClass::FpAlu | OpClass::FpMul => {
                    if self.fp_regs_free == 0 {
                        break;
                    }
                    self.fp_regs_free -= 1;
                }
                OpClass::IntAlu | OpClass::IntMul => {
                    if self.int_regs_free == 0 {
                        break;
                    }
                    self.int_regs_free -= 1;
                }
            }
            self.fetch_q.pop_front();
            let seq = self.seq;
            self.seq += 1;
            let ring = (seq % RING as u64) as usize;
            self.complete_at[ring] = u64::MAX;
            self.consumers[ring] = NO_LINK;
            let slot = seq & self.rob_mask;
            let mut entry = RobEntry {
                seq,
                op: instr.op,
                addr: instr.addr,
                mispredicted,
                ..EMPTY_ENTRY
            };
            // Operand distances of zero, or reaching before seq 0, name no
            // producer.
            for (operand, dep) in [instr.dep1, instr.dep2].into_iter().enumerate() {
                let Some(producer) = seq.checked_sub(dep as u64).filter(|_| dep != 0) else {
                    continue;
                };
                let producer_ring = (producer % RING as u64) as usize;
                match self.complete_at[producer_ring] {
                    u64::MAX => {
                        entry.next_link[operand] = self.consumers[producer_ring];
                        self.consumers[producer_ring] = (slot << 1) as u32 | operand as u32;
                        entry.waiting += 1;
                    }
                    complete => entry.ready_time = entry.ready_time.max(complete),
                }
            }
            if entry.waiting == 0 {
                self.wakeups.push(Reverse((entry.ready_time, seq)));
            }
            self.rob[slot as usize] = entry;
            dispatched += 1;
        }
        dispatched
    }

    fn next_instr(&mut self) -> Option<Instruction> {
        if let Some(i) = self.pending.take() {
            return Some(i);
        }
        let next = self.trace.next();
        if next.is_none() {
            self.trace_done = true;
        }
        next
    }

    fn charge_stall(&mut self, cycles: u64) {
        self.fetch_stall_cycles += cycles;
        match self.stall_cause {
            StallCause::Icache => self.stall_icache += cycles,
            StallCause::Btb => self.stall_btb += cycles,
            // Waiting on an unresolved mispredicted branch, or in its
            // post-resolution refill window.
            StallCause::Branch | StallCause::None => self.stall_branch += cycles,
        }
    }

    fn fetch(&mut self) {
        if self.stalled_on_branch.is_some() {
            self.stall_cause = StallCause::Branch;
            self.charge_stall(1);
            return;
        }
        if self.cycle < self.fetch_stall_until {
            self.charge_stall(1);
            return;
        }
        self.stall_cause = StallCause::None;
        let cap = 2 * self.cfg.width as usize + 8;
        let mut fetched = 0;
        while fetched < self.cfg.width && self.fetch_q.len() < cap {
            let Some(instr) = self.next_instr() else {
                break;
            };
            // Instruction cache: one access per new block.
            let block = self.mem.l1i_block_of(instr.pc);
            if block != self.last_fetch_block {
                if self.mem.l1i_has(instr.pc) {
                    self.mem.fetch(instr.pc, self.cycle);
                    self.last_fetch_block = block;
                } else {
                    let ready = self.mem.fetch(instr.pc, self.cycle);
                    self.last_fetch_block = block;
                    self.fetch_stall_until = ready;
                    self.stall_cause = StallCause::Icache;
                    self.pending = Some(instr);
                    return;
                }
            }
            fetched += 1;
            if instr.op == OpClass::Branch {
                self.branches += 1;
                let predicted = self.predictor.predict_and_update(instr.pc, instr.taken);
                let mispredicted = predicted != instr.taken;
                let mut ends_group = false;
                if predicted {
                    // Need a target from the BTB; a miss costs a bubble.
                    if !self.btb.lookup_and_update(instr.pc, instr.target) {
                        self.btb_misses += 1;
                        self.fetch_stall_until = self.cycle + BTB_BUBBLE;
                        self.stall_cause = StallCause::Btb;
                    }
                    ends_group = true; // taken branches end the fetch group
                }
                self.fetch_q.push_back((instr, mispredicted));
                if mispredicted {
                    self.mispredicts += 1;
                    // Fetch goes down the wrong path; it resumes when the
                    // branch resolves (see `issue`).
                    self.stalled_on_branch = Some(self.seq + self.fetch_q.len() as u64 - 1);
                    return;
                }
                if ends_group {
                    return;
                }
            } else {
                self.fetch_q.push_back((instr, false));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate;
    use archpredict_workloads::{Benchmark, TraceGenerator};

    fn run(cfg: &SimConfig, benchmark: Benchmark, n: u64) -> SimResult {
        let generator = TraceGenerator::new(benchmark);
        crate::simulate_with_warmup(cfg, generator.interval(0), n / 2, n)
    }

    #[test]
    fn deterministic() {
        let cfg = SimConfig::default();
        let a = run(&cfg, Benchmark::Gzip, 5000);
        let b = run(&cfg, Benchmark::Gzip, 5000);
        assert_eq!(a, b);
    }

    #[test]
    fn commits_exactly_target() {
        let cfg = SimConfig::default();
        let r = run(&cfg, Benchmark::Mesa, 3000);
        assert_eq!(r.instructions, 3000);
        assert!(r.cycles > 0);
    }

    #[test]
    fn ipc_is_bounded_by_width() {
        let cfg = SimConfig::default();
        for b in Benchmark::ALL {
            let r = run(&cfg, b, 8000);
            let ipc = r.ipc();
            assert!(
                ipc > 0.02 && ipc <= cfg.width as f64,
                "{}: ipc {ipc}",
                b.name()
            );
        }
    }

    #[test]
    fn memory_bound_app_has_low_ipc() {
        let cfg = SimConfig::default();
        let mcf = run(&cfg, Benchmark::Mcf, 8000);
        let gzip = run(&cfg, Benchmark::Gzip, 8000);
        assert!(
            mcf.ipc() < gzip.ipc(),
            "mcf {} should trail gzip {}",
            mcf.ipc(),
            gzip.ipc()
        );
    }

    #[test]
    fn bigger_l1d_helps_cache_sensitive_app() {
        let mut small = SimConfig::default();
        small.l1d.capacity_bytes = 8 * 1024;
        let mut large = SimConfig::default();
        large.l1d.capacity_bytes = 64 * 1024;
        let rs = run(&small, Benchmark::Twolf, 10_000);
        let rl = run(&large, Benchmark::Twolf, 10_000);
        assert!(rs.l1d_misses > rl.l1d_misses);
        assert!(rl.ipc() > rs.ipc(), "{} !> {}", rl.ipc(), rs.ipc());
    }

    #[test]
    fn bigger_l2_helps_l2_sensitive_app() {
        let mut small = SimConfig::default();
        small.l2.capacity_bytes = 256 * 1024;
        let mut large = SimConfig::default();
        large.l2.capacity_bytes = 2048 * 1024;
        let rs = run(&small, Benchmark::Equake, 12_000);
        let rl = run(&large, Benchmark::Equake, 12_000);
        assert!(rs.l2_misses > rl.l2_misses);
    }

    #[test]
    fn wider_machine_is_not_slower() {
        let narrow = SimConfig {
            width: 4,
            ..SimConfig::default()
        };
        let wide = SimConfig {
            width: 8,
            functional_units: 8,
            ..SimConfig::default()
        };
        let rn = run(&narrow, Benchmark::Mgrid, 8000);
        let rw = run(&wide, Benchmark::Mgrid, 8000);
        assert!(rw.ipc() >= rn.ipc() * 0.98, "{} vs {}", rw.ipc(), rn.ipc());
    }

    #[test]
    fn branch_stats_are_sane() {
        let cfg = SimConfig::default();
        let r = run(&cfg, Benchmark::Crafty, 10_000);
        assert!(r.branches > 500);
        let rate = r.mispredict_rate();
        assert!((0.01..0.40).contains(&rate), "rate {rate}");
    }

    #[test]
    fn frequency_tradeoff_materializes() {
        // At 2 GHz memory is relatively closer: IPC should be at least as
        // high as at 4 GHz for a memory-bound code.
        let slow = SimConfig {
            freq_ghz: 2.0,
            ..SimConfig::default()
        };
        let fast = SimConfig {
            freq_ghz: 4.0,
            ..SimConfig::default()
        };
        let r2 = run(&slow, Benchmark::Mcf, 8000);
        let r4 = run(&fast, Benchmark::Mcf, 8000);
        assert!(r2.ipc() >= r4.ipc(), "{} vs {}", r2.ipc(), r4.ipc());
    }

    #[test]
    fn write_policy_changes_behavior() {
        let wb = SimConfig::default();
        let mut wt = SimConfig::default();
        wt.l1d.write_policy = crate::config::WritePolicy::WriteThrough;
        let rb = run(&wb, Benchmark::Gzip, 8000);
        let rt = run(&wt, Benchmark::Gzip, 8000);
        assert_ne!(rb.cycles, rt.cycles);
        assert!(rt.l2_bus_busy > rb.l2_bus_busy, "WT must add bus traffic");
    }

    #[test]
    fn stall_attribution_sums_and_responds() {
        let cfg = SimConfig::default();
        let r = run(&cfg, Benchmark::Crafty, 10_000);
        assert_eq!(
            r.fetch_stall_cycles,
            r.icache_stall_cycles + r.branch_stall_cycles + r.btb_stall_cycles,
            "attribution must partition the total"
        );
        // crafty is branchy with a large code footprint: both major causes
        // must register.
        assert!(r.branch_stall_cycles > 0);
        // A tiny L1I must shift stalls toward the I-cache.
        let mut small_icache = SimConfig::default();
        small_icache.l1i.capacity_bytes = 8 * 1024;
        small_icache.l1i.associativity = 1;
        let rs = run(&small_icache, Benchmark::Crafty, 10_000);
        assert!(
            rs.icache_stall_cycles > r.icache_stall_cycles,
            "{} !> {}",
            rs.icache_stall_cycles,
            r.icache_stall_cycles
        );
    }

    #[test]
    fn banked_sdram_helps_streaming_workloads() {
        let flat = SimConfig::default();
        let banked = SimConfig {
            sdram_banks: 8,
            ..SimConfig::default()
        };
        let rf = run(&flat, Benchmark::Applu, 10_000);
        let rb = run(&banked, Benchmark::Applu, 10_000);
        // applu streams rows: the open-row model must not be slower, and
        // usually wins outright.
        assert!(
            rb.ipc() >= rf.ipc() * 0.98,
            "banked {} vs flat {}",
            rb.ipc(),
            rf.ipc()
        );
    }

    /// Steps the engine one cycle at a time (no idle-cycle skip) until the
    /// trace drains, returning the issue profile as runs of consecutive
    /// cycles that issued the same nonzero count: `(first, last, issued)`.
    fn issue_profile(cfg: &SimConfig, trace: &[Instruction]) -> Vec<(u64, u64, u32)> {
        let n = trace.len() as u64;
        let mut engine = Engine::new(cfg, trace.iter().copied(), n);
        let mut runs: Vec<(u64, u64, u32)> = Vec::new();
        while engine.committed < n {
            engine.cycle += 1;
            engine.commit();
            let issued = engine.issue();
            engine.dispatch();
            engine.fetch();
            let cycle = engine.cycle;
            match runs.last_mut() {
                _ if issued == 0 => {}
                Some(run) if run.1 + 1 == cycle && run.2 == issued => run.1 = cycle,
                _ => runs.push((cycle, cycle, issued)),
            }
        }
        runs
    }

    /// Every `SimResult` field, in declaration order.
    fn fields(r: &SimResult) -> [u64; 14] {
        [
            r.instructions,
            r.cycles,
            r.l1i_misses,
            r.l1d_misses,
            r.l2_misses,
            r.branches,
            r.mispredicts,
            r.btb_misses,
            r.l2_bus_busy,
            r.fsb_busy,
            r.fetch_stall_cycles,
            r.icache_stall_cycles,
            r.branch_stall_cycles,
            r.btb_stall_cycles,
        ]
    }

    /// Handcrafted trace instruction: every one at the same PC (a single
    /// I-cache miss), every load or store to the same data block.
    fn op(op: OpClass, dep1: u32, dep2: u32) -> Instruction {
        Instruction {
            addr: if op.is_memory() { 0x1000_0000 } else { 0 },
            ..Instruction::compute(op, 0x40_0000, dep1, dep2, 0)
        }
    }

    /// Checks the issue profile and the full result against values
    /// recorded from the engine that scanned the whole ROB each cycle.
    fn check(
        cfg: &SimConfig,
        trace: &[Instruction],
        profile: &[(u64, u64, u32)],
        result: [u64; 14],
    ) {
        assert_eq!(issue_profile(cfg, trace), profile, "issue profile");
        let r = simulate(cfg, trace.iter().copied(), trace.len() as u64);
        assert_eq!(fields(&r), result, "SimResult fields");
    }

    #[test]
    fn load_blocked_on_ports_does_not_stop_younger_int_alu() {
        // One load port: each cycle issues one of the three ready loads
        // plus the younger IntAlu behind them, then drains the loads.
        let cfg = SimConfig {
            load_ports: 1,
            ..SimConfig::default()
        };
        let group = [OpClass::Load, OpClass::Load, OpClass::Load, OpClass::IntAlu];
        let trace: Vec<_> = (0..8).flat_map(|_| group.map(|o| op(o, 0, 0))).collect();
        let result = [32, 465, 0, 1, 1, 0, 0, 0, 1, 40, 0, 0, 0, 0];
        check(&cfg, &trace, &[(457, 464, 2), (465, 480, 1)], result);
    }

    #[test]
    fn issue_width_caps_ready_instructions() {
        let cfg = SimConfig {
            width: 2,
            functional_units: 8,
            ..SimConfig::default()
        };
        let trace = vec![op(OpClass::IntAlu, 0, 0); 16];
        let result = [16, 11, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
        check(&cfg, &trace, &[(457, 464, 2)], result);
    }

    #[test]
    fn both_operands_on_one_producer() {
        // A serial IntMul chain (8 cycles each) whose consumers name their
        // producer through both operands.
        let cfg = SimConfig::default();
        let trace = vec![op(OpClass::IntMul, 1, 1); 6];
        let profile: Vec<_> = (0..6).map(|i| (457 + 8 * i, 457 + 8 * i, 1)).collect();
        let result = [6, 51, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
        check(&cfg, &trace, &profile, result);
    }

    #[test]
    fn dependency_before_the_first_instruction_is_no_dependency() {
        // seq 3 waits on seq 0 (dep2 = 3), seq 4 on seq 2, seq 5 on seq 4;
        // every other operand reaches before seq 0.
        let cfg = SimConfig::default();
        let mut trace = vec![op(OpClass::IntAlu, 5, 3); 4];
        trace.extend([op(OpClass::FpMul, 2, 7), op(OpClass::IntAlu, 1, 6)]);
        let result = [6, 11, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
        check(
            &cfg,
            &trace,
            &[(457, 457, 3), (458, 458, 2), (464, 464, 1)],
            result,
        );
    }

    #[test]
    fn producer_committed_before_consumer_dispatches() {
        // With an 8-entry ROB, seq 0 has long committed when seqs 31 and
        // 32 name it as a producer.
        let cfg = SimConfig {
            rob_size: 8,
            ..SimConfig::default()
        };
        let mut trace = vec![op(OpClass::IntMul, 0, 0)];
        trace.extend(vec![op(OpClass::IntAlu, 0, 0); 30]);
        trace.extend([op(OpClass::IntAlu, 31, 1), op(OpClass::Store, 32, 1)]);
        let profile = [(457, 458, 4), (466, 470, 4), (471, 471, 3), (472, 473, 1)];
        let result = [33, 20, 0, 1, 1, 0, 0, 0, 1, 40, 0, 0, 0, 0];
        check(&cfg, &trace, &profile, result);
    }

    #[test]
    fn finite_trace_drains() {
        let cfg = SimConfig::default();
        let generator = TraceGenerator::new(Benchmark::Gzip);
        let trace: Vec<_> = generator.interval(0).take(500).collect();
        let r = simulate(&cfg, trace.into_iter(), 10_000);
        assert_eq!(r.instructions, 500);
    }
}
