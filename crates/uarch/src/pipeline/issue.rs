//! The issue stage: operand readiness, store-set ordering, functional-unit
//! and write-port admission, and the sliding-window scheduler that
//! reserves an integer-memory handle's downstream functional units at
//! issue (`FU0` + `FUBMP` from the MGHT, paper §4.3).
//!
//! Candidates are found by scanning the ROB's `poll & unissued` bitsets
//! with masked trailing-zeros iteration in ring order from the head —
//! which is age (sequence) order, preserving the FIFO-per-cycle select
//! semantics of the previous entry-walking scan exactly.
//!
//! # Wake-driven polling
//!
//! An entry whose sources are not ready cannot issue this cycle, and
//! `preg_ready` times only ever move from "unknown" (`u64::MAX`, set at
//! rename) to one fixed future cycle (set at the producer's issue) — so
//! instead of re-scanning stalled entries every cycle, the scan *parks*
//! them: it clears their `poll` bit and arranges exactly one wake-up at
//! the first cycle the entry could possibly issue. If the blocking
//! ready-time is known, the wake is a calendar entry on
//! `Simulator::wakes`; if the producer has not issued yet, the entry
//! joins the producer's destination-register waiter list and the
//! producer's own issue schedules the calendar wake. Parking is purely a
//! scan filter — re-delivered entries re-validate readiness from
//! scratch, and entries blocked by anything *other* than operands
//! (store-set ordering, FU or write-port availability) stay polled, so
//! selection order and timing are bit-identical to the always-scan core.

use super::decode::Ctrl;
use super::entries::{bit_clear, bit_get, bit_set, Kind, NO_PREG, NO_WAIT};
use super::{Simulator, RESV_RING};
use crate::config::MgSupport;

impl Simulator<'_> {
    /// Delivers this cycle's operand-readiness wakes: re-sets the `poll`
    /// bit of every parked entry whose sources may now be ready. Runs
    /// before [`Simulator::issue`] each cycle. Stale payloads (squashed
    /// or already-issued entries) are dropped here.
    pub(crate) fn deliver_wakes(&mut self) {
        if !self.wakes.needs_harvest(self.now) {
            return;
        }
        let due = self.wakes.take_due(self.now);
        for &payload in &due {
            let slot = (payload & 0xFFFF) as usize;
            let seq = payload >> 16;
            if self.rob.is_live(slot, seq) && bit_get(&self.rob.unissued, slot) {
                bit_set(&mut self.rob.poll, slot);
            }
        }
        self.wakes.recycle(due);
    }

    // ------------------------------------------------------------ issue --
    pub(crate) fn issue(&mut self) {
        let mut issued = 0u32;
        let mut used = [0u16; 4]; // ap, alu, load, store (this cycle)
        let mut intmem_handles = 0u32;
        let plain_alus = self.cfg.plain_alus() as u16;
        let pipes = self.cfg.pipes() as u16;
        // Per-FU capacity, indexed like `used` / `resv_fu`.
        let caps: [u16; 4] =
            [pipes, plain_alus, self.cfg.load_ports as u16, self.cfg.store_ports as u16];

        // Ring-order scan: the phase [head, cap) then the wrapped phase
        // [0, head). Bits outside the live span are always clear (pops
        // clear them), so scanning whole phases is safe; a squash during
        // the scan clears tail bits, so each candidate re-validates its
        // bit before use (dispatch runs after issue, so a cleared slot
        // cannot be repopulated within this scan).
        let head = self.rob.head_slot();
        let cap = self.rob.capacity();
        'scan: for (start, end) in [(head, cap), (0, head)] {
            if start >= end {
                continue;
            }
            let first_w = start >> 6;
            let last_w = (end - 1) >> 6;
            for w in first_w..=last_w {
                let mut bits = self.rob.unissued[w] & self.rob.poll[w];
                if w == first_w {
                    bits &= !0u64 << (start & 63);
                }
                if w == last_w && (end & 63) != 0 {
                    bits &= (1u64 << (end & 63)) - 1;
                }
                while bits != 0 {
                    let slot = (w << 6) + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if issued >= self.cfg.issue_width {
                        break 'scan;
                    }
                    // Re-validate: a violation squash triggered by an
                    // earlier candidate may have popped this slot.
                    if !bit_get(&self.rob.unissued, slot) {
                        continue;
                    }
                    issued += self.try_issue_slot(slot, &mut used, &caps, &mut intmem_handles);
                }
            }
        }
    }

    /// Attempts to issue the unissued scheduler entry at `slot`; returns
    /// how many issue slots the attempt consumed (1 on issue, 1 for an
    /// integer-memory handle's lost slot, 0 otherwise).
    #[inline]
    fn try_issue_slot(
        &mut self,
        slot: usize,
        used: &mut [u16; 4],
        caps: &[u16; 4],
        intmem_handles: &mut u32,
    ) -> u32 {
        // Operand readiness (including the scheduler-loop latency
        // already folded into preg_ready at the producer's issue).
        let srcs = [self.rob.src0[slot], self.rob.src1[slot]];
        let mut latest: u64 = 0;
        for s in srcs {
            if s != NO_PREG {
                latest = latest.max(self.preg_ready[s as usize]);
            }
        }
        if latest > self.now {
            // Park the entry: stop polling it and arrange exactly one
            // wake at the first cycle it could issue. `u64::MAX` marks a
            // producer that has not itself issued — its ready time is
            // unknown, so wait on the producer's destination register
            // instead; the producer's issue converts the registration
            // into a calendar wake.
            let seq = self.rob.seq[slot];
            debug_assert!(seq < 1 << 48, "sequence number overflows wake payload");
            let packed = (seq << 16) | slot as u64;
            bit_clear(&mut self.rob.poll, slot);
            if latest != u64::MAX {
                self.wakes.schedule(self.now, latest, packed);
            } else {
                let p = srcs
                    .into_iter()
                    .find(|&s| s != NO_PREG && self.preg_ready[s as usize] == u64::MAX)
                    .expect("a MAX bound implies a MAX source");
                let rob = &self.rob;
                let list = &mut self.preg_waiters[p as usize];
                if list.len() == list.capacity() {
                    // Squashed waiters linger until their producer's
                    // register is drained; compact them away in place so
                    // the list never outgrows its pre-sized capacity
                    // (live waiters are distinct unissued entries, at
                    // most `iq_size` of them).
                    list.retain(|&w| rob.is_live((w & 0xFFFF) as usize, w >> 16));
                }
                debug_assert!(list.len() < list.capacity(), "waiter list overflow");
                list.push(packed);
            }
            return 0;
        }
        // Store-set ordering: loads wait for their predicted store. The
        // packed (seq, slot) link validates in O(1); a dead link means
        // the store retired (a squashed store takes the load with it).
        let ws = self.rob.wait_store[slot];
        if ws != NO_WAIT {
            let wslot = (ws & 0xFFFF) as usize;
            let wseq = ws >> 16;
            if self.rob.is_live(wslot, wseq) && bit_get(&self.rob.unissued, wslot) {
                return 0;
            }
        }

        let kind = self.rob.kind[slot];
        let seq = self.rob.seq[slot];
        let ring = (self.now as usize) % RESV_RING;
        // Functional unit + write-port admission for this cycle.
        let admitted = match kind {
            Kind::Alu | Kind::Mul | Kind::Control => {
                // Prefer a plain ALU; singletons may use an AP entry
                // with no penalty.
                if used[1] < caps[1] {
                    used[1] += 1;
                    true
                } else if used[0] < caps[0] {
                    used[0] += 1;
                    true
                } else {
                    false
                }
            }
            Kind::Load => {
                if used[2] + self.resv_fu[ring][2] < caps[2] {
                    used[2] += 1;
                    true
                } else {
                    false
                }
            }
            Kind::Store => {
                if used[3] + self.resv_fu[ring][3] < caps[3] {
                    used[3] += 1;
                    true
                } else {
                    false
                }
            }
            Kind::Handle => {
                let mgid = self.pd.mgid[self.rob.sidx[slot] as usize] as usize;
                if self.mg.on_alu_pipe[mgid] {
                    if used[0] < caps[0] {
                        used[0] += 1;
                        true
                    } else {
                        false
                    }
                } else {
                    // Integer-memory handle: sliding-window scheduler,
                    // at most one per cycle; all downstream FUs must be
                    // reservable or the issue slot is lost (§4.3).
                    assert_eq!(
                        self.cfg.mg,
                        MgSupport::IntegerMemory,
                        "integer-memory handle on a machine without a sliding-window scheduler"
                    );
                    if *intmem_handles >= 1 {
                        false
                    } else {
                        let fu0 = self.mg.fu0[mgid] as usize;
                        let fu0_ok = used[fu0] + self.resv_fu[ring][fu0] < caps[fu0];
                        let window_ok = self.mg.fubmp_of(mgid as u32).iter().all(|&(c, f)| {
                            let r = ((self.now + c as u64) as usize) % RESV_RING;
                            self.resv_fu[r][f as usize] < caps[f as usize]
                        });
                        if fu0_ok && window_ok {
                            used[fu0] += 1;
                            for &(c, f) in self.mg.fubmp_of(mgid as u32) {
                                let r = ((self.now + c as u64) as usize) % RESV_RING;
                                self.resv_fu[r][f as usize] += 1;
                            }
                            *intmem_handles += 1;
                            true
                        } else {
                            // The slot used to attempt issue is lost.
                            self.retry_next_cycle = true;
                            return 1;
                        }
                    }
                }
            }
            Kind::Direct => true,
        };
        if !admitted {
            // Denied by this cycle's FU availability or reservation
            // window — both functions of `now`, so the next cycle must
            // actually be simulated (no idle skip).
            self.retry_next_cycle = true;
            return 0;
        }

        // Write-port reservation at the (nominal) output cycle. The
        // nominal latency assumes a cache hit; a miss writes back later
        // through one of the ports freed by the stall it causes.
        let nominal = self.nominal_out_latency(slot);
        let has_dest = self.rob.dest_arch[slot] != super::decode::NO_REG;
        if has_dest {
            let r = ((self.now + nominal as u64) as usize) % RESV_RING;
            if self.resv_wb[r] >= self.cfg.prf_write_ports as u16 {
                // Reverting FU bookkeeping is unnecessary: counters are
                // per-attempt upper bounds within one cycle; skipping
                // here only under-uses the FU this cycle.
                self.retry_next_cycle = true;
                return 0;
            }
            self.resv_wb[r] += 1;
        }
        // Committed to issuing: perform the (single) cache access and
        // compute actual latencies.
        let mem = self.trace.mem(self.rob.trace_idx[slot] as usize);
        let (out_lat, total_lat) = self.latencies(slot, mem);

        // Issue!
        self.progress = true;
        bit_clear(&mut self.rob.unissued, slot);
        bit_clear(&mut self.rob.poll, slot);
        if kind != Kind::Handle {
            // Handles keep their scheduler entry until the terminal op.
            bit_clear(&mut self.rob.in_iq, slot);
            self.iq_used -= 1;
        }
        if has_dest {
            let dest = self.rob.dest_preg[slot] as usize;
            let ready = self.now + (out_lat.max(self.cfg.sched_loop)) as u64;
            self.preg_ready[dest] = ready;
            // Convert consumers waiting on this register into calendar
            // wakes at the ready cycle (stale waiters — squashed along
            // with a squashed previous producer — are filtered at
            // delivery, so the drain itself needs no validation).
            let mut waiters = std::mem::take(&mut self.preg_waiters[dest]);
            for &w in &waiters {
                self.wakes.schedule(self.now, ready, w);
            }
            waiters.clear();
            self.preg_waiters[dest] = waiters;
        }
        self.rob.completed_at[slot] = self.now + total_lat as u64;
        // Completion *events* only for operations whose completion does
        // work: control resolution (anything with a static control
        // classification) or a handle's scheduler-entry release. Plain
        // operations become retirable passively through `completed_at`.
        if kind == Kind::Handle || self.pd.ctrl[self.rob.sidx[slot] as usize] != Ctrl::None {
            debug_assert!(seq < 1 << 48, "sequence number overflows event payload");
            self.events.schedule(
                self.now,
                self.now + total_lat as u64,
                (seq << 16) | slot as u64,
            );
        } else {
            debug_assert!(
                !self.trace.flags(self.rob.trace_idx[slot] as usize).br(),
                "a branch-recording op must have a completion event"
            );
        }

        // Memory side effects (agen/dcache) and violation checks (may
        // squash younger entries; this slot is always older than any
        // victim, so it survives).
        self.issue_memory_effects(slot, mem);
        1
    }

    /// Nominal (cache-hit) output latency used for write-port reservation,
    /// computed without touching the memory hierarchy.
    pub(crate) fn nominal_out_latency(&self, slot: usize) -> u32 {
        match self.rob.kind[slot] {
            Kind::Alu | Kind::Control | Kind::Direct | Kind::Store => 1,
            Kind::Mul => 3,
            Kind::Load => self.cfg.load_hit_latency(),
            Kind::Handle => {
                let mgid = self.pd.mgid[self.rob.sidx[slot] as usize] as usize;
                self.mg.out_lat[mgid]
            }
        }
    }
}
