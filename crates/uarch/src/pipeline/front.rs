//! The front end: branch-predicted, I$-limited fetch and width- and
//! resource-limited decode/rename (dispatch). Decode/rename is where
//! handles amplify bandwidth (one slot represents several instructions)
//! and capacity (one ROB/IQ entry, one destination register).
//!
//! Static-instruction properties (kind, control class, operands,
//! represented-instruction counts) come from the shared predecode plane
//! (`decode::Predecode`), so neither stage touches `Inst` on the hot
//! path. Fetch reads each op's static index from the trace once and
//! carries it to dispatch in the front queue's `sidx` lane.

use super::decode::{Ctrl, NO_REG};
use super::entries::{Kind, RobPush, NO_PREG, NO_WAIT};
use super::{Simulator, MAX_FETCH_LINES};
use mg_isa::exec::BrRec;
use mg_isa::reg;

impl Simulator<'_> {
    // --------------------------------------------------------- dispatch --
    pub(crate) fn dispatch(&mut self) {
        let mut n = 0;
        while n < self.cfg.front_width {
            if self.frontq.is_empty() {
                break;
            }
            let f = self.frontq.head_slot();
            if self.frontq.ready_at[f] > self.now {
                break;
            }
            let trace_idx = self.frontq.trace_idx[f] as usize;
            let mispredicted = self.frontq.mispredicted[f];
            let pred_taken = self.frontq.pred_taken[f];
            let pred_token = self.frontq.pred_token[f];
            let sidx = self.frontq.sidx[f] as usize;
            let flags = self.trace.flags(trace_idx);
            let kind = self.pd.kind[sidx];
            let is_load = flags.load();
            let is_store = flags.store();

            // Structural resources.
            if self.rob.len() >= self.cfg.rob_size {
                self.stats.stall_rob += 1;
                break;
            }
            let needs_iq = kind != Kind::Direct;
            if needs_iq && self.iq_used >= self.cfg.iq_size {
                self.stats.stall_iq += 1;
                break;
            }
            if (is_load && self.lq.len() >= self.cfg.lq_size)
                || (is_store && self.sq.len() >= self.cfg.sq_size)
            {
                self.stats.stall_lsq += 1;
                break;
            }
            let dest_arch = self.pd.dest[sidx];
            if dest_arch != NO_REG && self.renamer.free_count() == 0 {
                self.stats.stall_pregs += 1;
                break;
            }

            // Rename.
            let a0 = self.pd.src0[sidx];
            let a1 = self.pd.src1[sidx];
            let src0 = if a0 != NO_REG { self.renamer.lookup(reg(a0)) } else { NO_PREG };
            let src1 = if a1 != NO_REG { self.renamer.lookup(reg(a1)) } else { NO_PREG };
            let (dest_preg, dest_prev) = if dest_arch != NO_REG {
                let renamed =
                    self.renamer.rename_dest(reg(dest_arch)).expect("free list checked above");
                self.preg_ready[renamed.preg as usize] = u64::MAX;
                (renamed.preg, renamed.prev)
            } else {
                (0, 0)
            };

            let seq = self.next_seq;
            self.next_seq += 1;
            let pc = self.prog.byte_addr(sidx);

            // Store sets participate via handle PCs for embedded memory ops.
            let mut wait_store = NO_WAIT;
            if is_load {
                if let Some(ws) = self.storesets.dispatch_load(pc) {
                    // Pack the predicted store's (seq, slot) so issue
                    // validates liveness in O(1). A store already retired
                    // by now can never block, exactly as before.
                    if let Some(i) = self.rob.find_seq(ws) {
                        wait_store = (ws << 16) | self.rob.slot(i) as u64;
                    }
                }
                self.lq.push_back(seq, pc, trace_idx as u32);
            }
            if is_store {
                self.storesets.dispatch_store(pc, seq);
                self.sq.push_back(seq, pc, trace_idx as u32);
            }

            if needs_iq {
                self.iq_used += 1;
            }
            if flags.br() {
                self.stats.branches += 1;
            }
            self.rob.push(RobPush {
                seq,
                trace_idx: trace_idx as u32,
                sidx: sidx as u32,
                kind,
                represents: self.pd.represents[sidx],
                dest_arch,
                dest_preg,
                dest_prev,
                src0,
                src1,
                in_iq: needs_iq,
                issued: !needs_iq,
                completed: kind == Kind::Direct,
                mispredicted,
                pred_taken,
                pred_token,
                wait_store,
                is_load,
                is_store,
            });
            self.frontq.pop_front();
            n += 1;
            self.progress = true;
        }
    }

    // ------------------------------------------------------------ fetch --
    pub(crate) fn fetch(&mut self, limit: usize) {
        if self.now < self.fetch_resume_at || self.fetch_blocked_on.is_some() {
            return;
        }
        let qcap = (self.cfg.front_width * self.cfg.frontend_depth) as usize;
        let line_bytes = self.cfg.il1.2 as u64;
        let mut fetched = 0;
        let mut lines_touched = 0u32;
        let mut last_line: Option<u64> = None;

        while fetched < self.cfg.front_width
            && self.frontq.len() < qcap
            && self.fetch_ptr < limit
        {
            // Entering the loop body always touches machine state: at
            // minimum an I$ access (which counts, and may start a miss).
            self.progress = true;
            let sidx = self.trace.sidx(self.fetch_ptr) as usize;
            let addr = self.prog.byte_addr(sidx);
            let line = addr / line_bytes;
            if last_line != Some(line) {
                if lines_touched >= MAX_FETCH_LINES {
                    break;
                }
                let res = self.mem.fetch(addr, self.now);
                lines_touched += 1;
                last_line = Some(line);
                if res.l1_miss {
                    // Stall fetch until the line arrives.
                    self.fetch_resume_at = self.now + res.latency as u64;
                    break;
                }
            }

            let br = self.trace.br(self.fetch_ptr);
            let (mispredicted, pred_taken, pred_token) = self.predict(sidx, addr, br);
            self.frontq.push_back(
                self.fetch_ptr as u32,
                sidx as u32,
                self.now + self.cfg.frontend_depth as u64,
                mispredicted,
                pred_taken,
                pred_token,
            );
            let taken = br.is_some_and(|b| b.taken);
            self.fetch_ptr += 1;
            fetched += 1;
            if mispredicted {
                self.fetch_blocked_on = Some(self.fetch_ptr - 1);
                break;
            }
            if taken {
                break; // redirect: fetch resumes at the target next cycle
            }
        }
    }

    /// Predicts a control transfer at fetch. Returns
    /// `(mispredicted, predicted_taken, prediction_token)`.
    pub(crate) fn predict(
        &mut self,
        sidx: usize,
        pc: u64,
        br: Option<BrRec>,
    ) -> (bool, bool, u32) {
        let Some(br) = br else { return (false, false, 0) };
        let actual_target = self.prog.byte_addr(br.target);
        match self.pd.ctrl[sidx] {
            // The handle PC stands in for the embedded branch's PC for
            // prediction and update (paper §4.1).
            Ctrl::Cond | Ctrl::Handle => {
                let (pred, token) = self.bpred.predict_and_speculate(pc);
                let target_ok = !br.taken || self.btb.lookup(pc) == Some(actual_target);
                (pred != br.taken || (br.taken && !target_ok), pred, token)
            }
            Ctrl::Bsr => {
                // Return address is the next sequential instruction.
                self.ras.push(pc + mg_isa::program::INST_BYTES);
                let hit = self.btb.lookup(pc) == Some(actual_target);
                (!hit, true, 0)
            }
            Ctrl::OtherUncond | Ctrl::OtherJump => {
                let hit = self.btb.lookup(pc) == Some(actual_target);
                (!hit, true, 0)
            }
            Ctrl::Ret => {
                let pred = self.ras.pop();
                (pred != Some(actual_target), true, 0)
            }
            Ctrl::Jsr => {
                self.ras.push(pc + mg_isa::program::INST_BYTES);
                let hit = self.btb.lookup(pc) == Some(actual_target);
                (!hit, true, 0)
            }
            Ctrl::None => (false, false, 0),
        }
    }
}
