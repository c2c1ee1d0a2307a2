//! The cycle-level out-of-order pipeline.
//!
//! A trace-driven model of the paper's 15-stage, 6-wide superscalar core,
//! organized as one submodule per stage behind the [`Simulator`] façade:
//!
//! * `front` — fetch (branch-predicted, I$-limited) and decode/rename
//!   (width- and resource-limited; this is where handles amplify
//!   bandwidth and capacity);
//! * `issue` — FU, write-port, and sliding-window constrained issue;
//! * `execute` — event-scheduled completion; D$ hierarchy; store-set
//!   load scheduling with violation squashes; MGST-sequenced mini-graph
//!   execution with interior-load replay;
//! * `commit` — width-limited retirement, freeing registers;
//! * `entries` — the struct-of-arrays in-flight state (ROB/LQ/SQ/
//!   front-queue rings and their flag bitsets) those stages share;
//! * `decode` — the per-static-instruction predecode plane, shareable
//!   across simulations of the same image.
//!
//! Wrong-path instructions are not simulated: a mispredicted control
//! transfer stalls fetch until it resolves, then the front-end refills —
//! reproducing the misprediction penalty of the paper's pipeline without
//! wrong-path cache pollution (see `DESIGN.md` §2 for the substitution
//! argument).

pub(crate) mod commit;
pub mod decode;
pub(crate) mod entries;
pub(crate) mod execute;
pub(crate) mod front;
pub(crate) mod issue;
#[cfg(test)]
mod tests;
pub(crate) mod wheel;

use crate::bpred::{Btb, HybridPredictor, Ras};
use crate::cache::MemHierarchy;
use crate::config::SimConfig;
use crate::rename::Renamer;
use crate::stats::SimStats;
use crate::storesets::StoreSets;
use decode::{MgtLanes, Predecode};
use entries::{FrontQ, MemQ, Rob};
use mg_core::MgTable;
use mg_isa::{HandleCatalog, Program};
use mg_profile::Trace;
use std::sync::Arc;
use wheel::EventWheel;

/// Ring size for near-future resource reservations (FUs, write ports).
pub(crate) const RESV_RING: usize = 256;
/// Maximum instruction-cache lines fetch may touch per cycle.
pub(crate) const MAX_FETCH_LINES: u32 = 2;

/// The trace-driven cycle-level simulator.
///
/// Construct with [`Simulator::new`] (or [`Simulator::with_predecode`]
/// to share one predecode plane across runs) and run to completion with
/// [`Simulator::run`].
pub struct Simulator<'a> {
    pub(crate) cfg: SimConfig,
    pub(crate) prog: &'a Program,
    pub(crate) trace: &'a Trace,
    /// Config-independent per-static-instruction decode lanes.
    pub(crate) pd: Arc<Predecode>,
    /// Config-dependent flattened MGT lanes.
    pub(crate) mg: MgtLanes,
    // Front end.
    pub(crate) fetch_ptr: usize,
    pub(crate) fetch_resume_at: u64,
    pub(crate) fetch_blocked_on: Option<usize>,
    pub(crate) frontq: FrontQ,
    // Back end.
    pub(crate) rob: Rob,
    pub(crate) next_seq: u64,
    pub(crate) iq_used: usize,
    pub(crate) renamer: Renamer,
    pub(crate) preg_ready: Vec<u64>,
    pub(crate) lq: MemQ,
    pub(crate) sq: MemQ,
    // Predictors and memory.
    pub(crate) bpred: HybridPredictor,
    pub(crate) btb: Btb,
    pub(crate) ras: Ras,
    pub(crate) storesets: StoreSets,
    pub(crate) mem: MemHierarchy,
    // Events and reservations.
    pub(crate) events: EventWheel,
    /// Operand-readiness wake calendar: when the issue scan finds an
    /// entry whose sources become ready at a *known* future cycle, it
    /// clears the entry's `poll` bit and schedules a wake here; the wake
    /// re-sets the bit that cycle. Payloads are the same packed
    /// `(seq << 16) | slot` as completion events.
    pub(crate) wakes: EventWheel,
    /// Per-physical-register waiter lists for entries blocked on a
    /// producer that has not itself issued (so its ready cycle is
    /// unknown). The producer's issue drains its destination's list into
    /// `wakes` at the operands' actual ready cycle. Entries are packed
    /// `(seq << 16) | slot`; stale (squashed) waiters are filtered at
    /// wake delivery.
    pub(crate) preg_waiters: Vec<Vec<u64>>,
    pub(crate) resv_fu: Vec<[u16; 4]>, // [ap, alu, load, store] per future cycle
    pub(crate) resv_wb: Vec<u16>,
    pub(crate) now: u64,
    pub(crate) stats: SimStats,
    // Run bookkeeping.
    /// Number of trace operations this run simulates.
    pub(crate) limit: usize,
    /// Cycles actually simulated (idle-skipped spans excluded).
    pub(crate) worked: u64,
    /// Wedge bound on `worked` (see [`Simulator::run`]).
    pub(crate) cycle_cap: u64,
    // Idle-skip bookkeeping, reset every cycle (see `run_cycles`).
    /// Machine state changed this cycle (commit/complete/issue/dispatch/
    /// fetch touched something beyond the per-cycle stat sums).
    pub(crate) progress: bool,
    /// An operand-ready operation was denied only by this cycle's FU /
    /// write-port / window availability; those constraints are functions
    /// of `now`, so the next cycle must be simulated, not skipped.
    pub(crate) retry_next_cycle: bool,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator for the rewritten `prog`, its committed-path
    /// `trace`, and the mini-graph `catalog` used by the image (pass an
    /// empty catalog for baseline images).
    pub fn new(
        cfg: SimConfig,
        prog: &'a Program,
        trace: &'a Trace,
        catalog: &HandleCatalog,
    ) -> Simulator<'a> {
        let pd = Arc::new(Predecode::new(prog, catalog));
        Simulator::with_predecode(cfg, prog, trace, catalog, pd)
    }

    /// Like [`Simulator::new`], but reuses a predecode plane previously
    /// built (by [`Predecode::new`]) for exactly this `prog`/`catalog`
    /// pair — the sharing hook for multi-config sweeps and warm re-runs.
    pub fn with_predecode(
        cfg: SimConfig,
        prog: &'a Program,
        trace: &'a Trace,
        catalog: &HandleCatalog,
        predecode: Arc<Predecode>,
    ) -> Simulator<'a> {
        debug_assert_eq!(
            predecode.kind.len(),
            prog.insts.len(),
            "predecode plane built for a different program"
        );
        let mgt = MgTable::from_catalog(catalog, &cfg.mgt_config());
        let mg = MgtLanes::new(&mgt);
        let renamer = Renamer::new(cfg.phys_regs);
        let preg_ready = vec![0u64; cfg.phys_regs];
        let limit = if cfg.max_ops == 0 {
            trace.len()
        } else {
            (cfg.max_ops as usize).min(trace.len())
        };
        // Guard against pathological configs: bound *worked* cycles (the
        // ones actually simulated). Idle-skipped spans are excluded, so a
        // legitimately long-latency configuration (slow memory, deep
        // queues) cannot trip the wedge assertion just by waiting.
        let cycle_cap = 2_000 + 600 * limit as u64;
        let frontq = FrontQ::new((cfg.front_width * cfg.frontend_depth) as usize);
        let rob = Rob::new(cfg.rob_size);
        let lq = MemQ::new(cfg.lq_size);
        let sq = MemQ::new(cfg.sq_size);
        Simulator {
            pd: predecode,
            mg,
            renamer,
            preg_ready,
            fetch_ptr: 0,
            fetch_resume_at: 0,
            fetch_blocked_on: None,
            frontq,
            rob,
            next_seq: 0,
            iq_used: 0,
            lq,
            sq,
            bpred: HybridPredictor::paper_12kb(),
            btb: Btb::paper_2k(),
            ras: Ras::new(16),
            storesets: StoreSets::default_size(),
            mem: MemHierarchy::new(
                cfg.il1,
                cfg.dl1,
                cfg.l2,
                cfg.mem_latency,
                cfg.mem_bus_occupancy,
            ),
            events: EventWheel::new(),
            wakes: EventWheel::new(),
            // Capacity is a hard bound so steady state never allocates:
            // every live waiter is a distinct unissued scheduler entry
            // (at most `iq_size`), and registration compacts stale
            // entries away before it could ever exceed that.
            preg_waiters: (0..cfg.phys_regs)
                .map(|_| Vec::with_capacity(cfg.iq_size + 1))
                .collect(),
            resv_fu: vec![[0; 4]; RESV_RING],
            resv_wb: vec![0; RESV_RING],
            now: 0,
            stats: SimStats::default(),
            limit,
            worked: 0,
            cycle_cap,
            progress: false,
            retry_next_cycle: false,
            cfg,
            prog,
            trace,
        }
    }

    /// Runs the whole trace (or `cfg.max_ops` operations) to completion and
    /// returns the statistics.
    ///
    /// # Panics
    ///
    /// Panics if the image contains integer-memory handles but the machine
    /// has no sliding-window scheduler, or handles with no mini-graph
    /// support at all (selection policy and machine must agree); also
    /// asserts the wedge bound on worked cycles.
    pub fn run(mut self) -> SimStats {
        self.run_cycles();
        let mut stats = self.stats;
        stats.cycles = self.now;
        stats.il1_accesses = self.mem.il1.accesses;
        stats.il1_misses = self.mem.il1.misses;
        stats.dl1_accesses = self.mem.dl1.accesses;
        stats.dl1_misses = self.mem.dl1.misses;
        stats.l2_accesses = self.mem.l2.accesses;
        stats.l2_misses = self.mem.l2.misses;
        stats
    }

    /// The cycle loop of [`Simulator::run`], until the machine drains.
    /// It stays a `&mut self` method: inlined into the by-value `run`, the
    /// request mix of the `serve_mix` benchmark ran ≈ 3% slower.
    fn run_cycles(&mut self) {
        while !(self.fetch_ptr >= self.limit && self.frontq.is_empty() && self.rob.is_empty()) {
            // Hot-path allocation tripwire (debug builds, armed test
            // harnesses only): a simulated cycle must not touch the heap.
            #[cfg(debug_assertions)]
            let alloc_mark = crate::allocwatch::count();
            self.progress = false;
            self.retry_next_cycle = false;
            let stalls_before = [
                self.stats.stall_pregs,
                self.stats.stall_rob,
                self.stats.stall_iq,
                self.stats.stall_lsq,
            ];
            self.commit();
            self.process_events();
            self.deliver_wakes();
            self.issue();
            self.dispatch();
            self.fetch(self.limit);
            self.stats.preg_occupancy_sum += self.renamer.in_use() as u64;
            self.stats.iq_occupancy_sum += self.iq_used as u64;
            self.stats.rob_occupancy_sum += self.rob.len() as u64;
            let idx = (self.now as usize) % RESV_RING;
            self.resv_fu[idx] = [0; 4];
            self.resv_wb[idx] = 0;
            self.worked += 1;
            assert!(
                self.worked < self.cycle_cap,
                "simulation wedged after {} worked cycles at cycle {} (fetch {}/{} rob {})",
                self.worked,
                self.now,
                self.fetch_ptr,
                self.limit,
                self.rob.len()
            );
            #[cfg(debug_assertions)]
            crate::allocwatch::check(alloc_mark);
            // Idle-cycle skipping: a cycle that changed nothing would be
            // followed by identical empty cycles until the next wake-up
            // (completion event, operand-ready bound, front-queue ready
            // time, or fetch resume) — jump straight there, accumulating
            // the per-cycle stats the skipped cycles would have gathered.
            if !self.progress && !self.retry_next_cycle {
                if let Some(wake) = self.next_wake(self.limit) {
                    if wake > self.now + 1 {
                        self.skip_idle_to(wake, stalls_before);
                        continue;
                    }
                }
            }
            self.now += 1;
        }
    }

    /// Logical ROB index (0 = oldest) of the live entry with sequence
    /// `seq`, or `None` if it was squashed or retired. The hot paths
    /// carry `(seq, slot)` pairs instead; this resolver remains for
    /// diagnostics and tests.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn rob_index(&self, seq: u64) -> Option<usize> {
        self.rob.find_seq(seq)
    }

    /// The earliest future cycle at which a zero-progress machine can
    /// change state: the next completion event, the next operand-ready
    /// wake, the front-queue head's decode-ready time, or the fetch
    /// resume cycle. Waking *early* is merely a missed
    /// optimisation (the cycle re-evaluates as idle); waking late would
    /// change timing, so every state-changing trigger must be covered
    /// here or in `retry_next_cycle`.
    fn next_wake(&self, limit: usize) -> Option<u64> {
        let mut wake = self.events.next_due_after(self.now);
        let mut fold = |t: u64| wake = Some(wake.map_or(t, |w: u64| w.min(t)));
        if let Some(t) = self.wakes.next_due_after(self.now) {
            fold(t);
        }
        if !self.rob.is_empty() {
            // Passive completion: the head becomes retirable the cycle
            // after its `completed_at` (younger completed entries cannot
            // change state before the head retires).
            let t = self.rob.completed_at[self.rob.head_slot()];
            if t != u64::MAX {
                fold(t + 1);
            }
        }
        if !self.frontq.is_empty() {
            let ready = self.frontq.ready_at[self.frontq.head_slot()];
            if ready > self.now {
                fold(ready);
            }
        }
        if self.fetch_blocked_on.is_none()
            && self.fetch_ptr < limit
            && self.fetch_resume_at > self.now
        {
            fold(self.fetch_resume_at);
        }
        wake
    }

    /// Advances `now` to `wake` across an idle span, accumulating the
    /// per-cycle statistics the skipped cycles would have gathered (the
    /// occupancy sums, and the dispatch stall counter the idle cycle hit,
    /// both frozen across the span because nothing changes state) and
    /// clearing the reservation-ring slots those cycles would have
    /// recycled.
    fn skip_idle_to(&mut self, wake: u64, stalls_before: [u64; 4]) {
        let skipped = wake - self.now - 1; // cycles now+1 ..= wake-1
        self.stats.preg_occupancy_sum += skipped * self.renamer.in_use() as u64;
        self.stats.iq_occupancy_sum += skipped * self.iq_used as u64;
        self.stats.rob_occupancy_sum += skipped * self.rob.len() as u64;
        self.stats.stall_pregs += skipped * (self.stats.stall_pregs - stalls_before[0]);
        self.stats.stall_rob += skipped * (self.stats.stall_rob - stalls_before[1]);
        self.stats.stall_iq += skipped * (self.stats.stall_iq - stalls_before[2]);
        self.stats.stall_lsq += skipped * (self.stats.stall_lsq - stalls_before[3]);
        if skipped >= RESV_RING as u64 {
            self.resv_fu.iter_mut().for_each(|s| *s = [0; 4]);
            self.resv_wb.iter_mut().for_each(|s| *s = 0);
        } else {
            for c in (self.now + 1)..wake {
                let idx = (c as usize) % RESV_RING;
                self.resv_fu[idx] = [0; 4];
                self.resv_wb[idx] = 0;
            }
        }
        self.now = wake;
    }
}
