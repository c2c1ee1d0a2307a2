//! The execute stage: event-scheduled completion (with control
//! resolution and predictor training), cache-latency computation —
//! including MGST-sequenced mini-graph execution with interior-load
//! replay (paper §4.3) — executed-address bookkeeping, memory-ordering
//! violation detection, and the resulting squashes.
//!
//! Completion events carry `(seq << 16) | rob_slot` payloads, so
//! delivery indexes the ROB lanes directly and filters stale (squashed)
//! events with one sequence compare — no search. Only operations whose
//! completion does work beyond becoming retirable get an event at all:
//! control operations (predictor training, fetch redirect) and handles
//! (scheduler-entry release). Everything else completes passively via
//! the ROB's `completed_at` lane, which commit compares against `now`.

use super::decode::{Ctrl, NO_REG};
use super::entries::{bit_clear, bit_get, overlap, Kind};
use super::Simulator;
use crate::rename::RenamedDest;
use mg_isa::exec::MemRef;
use mg_isa::reg;

impl Simulator<'_> {
    // ----------------------------------------------------------- events --
    pub(crate) fn process_events(&mut self) {
        // `needs_harvest` covers overflow drainage too, so skipping the
        // harvest on an empty cycle never strands an in-horizon event.
        if !self.events.needs_harvest(self.now) {
            return;
        }
        let due = self.events.take_due(self.now);
        for &payload in &due {
            let slot = (payload & 0xFFFF) as usize;
            let seq = payload >> 16;
            // A live completion changes machine state; a stale (squashed)
            // one is dropped without trace, so it does not block
            // idle-skipping.
            if !self.rob.is_live(slot, seq) {
                continue;
            }
            self.progress = true;
            if bit_get(&self.rob.in_iq, slot) {
                // Handles hold their scheduler entry until the terminal
                // instruction (paper §4.1).
                bit_clear(&mut self.rob.in_iq, slot);
                self.iq_used -= 1;
            }
            let sidx = self.rob.sidx[slot] as usize;
            let trace_idx = self.rob.trace_idx[slot] as usize;
            // Control resolution: train predictor, redirect fetch.
            if let Some(br) = self.trace.br(trace_idx) {
                let pc = self.prog.byte_addr(sidx);
                // Handles train the direction predictor through their own
                // PC, like the conditional branch they embed (§4.1).
                let is_cond = matches!(self.pd.ctrl[sidx], Ctrl::Cond | Ctrl::Handle);
                if is_cond {
                    self.bpred.resolve(
                        pc,
                        self.rob.pred_token[slot],
                        bit_get(&self.rob.pred_taken, slot),
                        br.taken,
                    );
                }
                if br.taken {
                    self.btb.update(pc, self.prog.byte_addr(br.target));
                }
                if bit_get(&self.rob.mispredicted, slot) {
                    self.stats.mispredicts += 1;
                    if self.fetch_blocked_on == Some(trace_idx) {
                        self.fetch_blocked_on = None;
                        self.fetch_resume_at = self.now + 1;
                    }
                }
            }
        }
        self.events.recycle(due);
    }

    /// Execution latencies `(output, total)` for the entry at ROB slot
    /// `slot`, accounting for cache behaviour of its memory reference
    /// `mem` and mini-graph interior-load replays.
    pub(crate) fn latencies(&mut self, slot: usize, mem: Option<MemRef>) -> (u32, u32) {
        match self.rob.kind[slot] {
            Kind::Alu | Kind::Control => (1, 1),
            Kind::Mul => (3, 3),
            Kind::Direct => (1, 1),
            Kind::Load => {
                let mem = mem.expect("load has a memory reference");
                let res = self.mem.data(mem.addr, self.now);
                let lat = 1 + res.latency;
                (lat, lat)
            }
            Kind::Store => (1, 1), // agen only; data written at commit
            Kind::Handle => {
                let mgid = self.pd.mgid[self.rob.sidx[slot] as usize] as usize;
                let mut out = self.mg.out_lat[mgid];
                let mut total = self.mg.total_lat[mgid];
                if let Some(mem) = mem {
                    if !mem.store {
                        let slot_cycle = self.mg.load_slot_cycle[mgid];
                        debug_assert!(
                            slot_cycle != u32::MAX,
                            "load-bearing handle has a load slot"
                        );
                        let hit_lat = self.cfg.load_hit_latency();
                        let res = self.mem.data(mem.addr, self.now + slot_cycle as u64);
                        let actual = 1 + res.latency;
                        if actual > hit_lat {
                            let extra = actual - hit_lat;
                            if self.mg.load_terminal[mgid] {
                                // Terminal load: behaves like a singleton miss.
                                total += extra;
                                if self.mg.out_tracks_total[mgid] {
                                    out += extra;
                                }
                            } else {
                                // Interior load: the pre-scheduled MGST
                                // sequence ran with the wrong data — the
                                // entire mini-graph replays once the line
                                // arrives (paper §4.3).
                                self.stats.mg_replays += 1;
                                let data_at = slot_cycle + actual;
                                total = data_at + self.mg.total_lat[mgid];
                                out = data_at + self.mg.out_lat[mgid];
                            }
                        }
                    }
                }
                (out, total)
            }
        }
    }

    /// Records the executed memory address `mem` of the entry at ROB slot
    /// `slot` and performs violation detection.
    pub(crate) fn issue_memory_effects(&mut self, slot: usize, mem: Option<MemRef>) {
        let Some(mem) = mem else { return };
        let seq = self.rob.seq[slot];
        if mem.store {
            if let Some(s) = self.sq.find_seq(seq) {
                self.sq.addr[s] = mem.addr;
                self.sq.width[s] = mem.width;
                self.sq.executed[s] = true;
            }
            // A later load must not have run already: memory-ordering
            // violation — squash from the offending load and refetch.
            // The LQ is in sequence order, so the first match scanning
            // from the head is the oldest offending load.
            let mut victim = None;
            for i in 0..self.lq.len() {
                let l = self.lq.slot(i);
                if self.lq.seq[l] > seq
                    && self.lq.executed[l]
                    && overlap(self.lq.addr[l], self.lq.width[l], mem.addr, mem.width)
                {
                    victim =
                        Some((self.lq.seq[l], self.lq.pc[l], self.lq.trace_idx[l] as usize));
                    break;
                }
            }
            if let Some((vseq, vpc, vtrace)) = victim {
                let pc = self.prog.byte_addr(self.rob.sidx[slot] as usize);
                self.stats.violations += 1;
                self.storesets.violation(vpc, pc);
                self.squash_from(vseq, vtrace);
            }
        } else if let Some(l) = self.lq.find_seq(seq) {
            self.lq.addr[l] = mem.addr;
            self.lq.width[l] = mem.width;
            self.lq.executed[l] = true;
        }
    }

    /// Squashes all operations with sequence ≥ `seq` and restarts fetch at
    /// trace position `trace_idx`.
    pub(crate) fn squash_from(&mut self, seq: u64, trace_idx: usize) {
        while !self.rob.is_empty() {
            let t = self.rob.tail_slot();
            if self.rob.seq[t] < seq {
                break;
            }
            if bit_get(&self.rob.in_iq, t) {
                self.iq_used -= 1;
            }
            let da = self.rob.dest_arch[t];
            if da != NO_REG {
                self.renamer.undo(
                    reg(da),
                    RenamedDest { preg: self.rob.dest_preg[t], prev: self.rob.dest_prev[t] },
                );
            }
            if bit_get(&self.rob.is_load, t) {
                self.lq.pop_back();
            }
            if bit_get(&self.rob.is_store, t) {
                let s = self.sq.pop_back();
                self.storesets.retire_store(self.sq.pc[s], self.sq.seq[s]);
            }
            self.rob.pop_back();
        }
        self.frontq.clear();
        self.fetch_ptr = trace_idx;
        self.fetch_resume_at = self.now + 1;
        if let Some(b) = self.fetch_blocked_on {
            if b >= trace_idx {
                self.fetch_blocked_on = None;
            }
        }
    }
}
