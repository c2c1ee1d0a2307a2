//! Data-oriented in-flight pipeline state shared by the stage modules:
//! the struct-of-arrays reorder buffer, front-end queue, and load/store
//! queues, plus the bitset helpers the stages scan them with.
//!
//! Every structure here is a fixed-capacity power-of-two ring
//! (`head`/`len`/`mask`) over dense per-field lanes, allocated once at
//! simulator construction: pushing and popping move indices and flip
//! bits, never the heap. Boolean per-entry state lives in `u64` bitset
//! words indexed by **physical slot**, so the issue stage finds
//! candidates with masked trailing-zeros scans instead of walking entry
//! structs, and the idle-cycle-skip machinery inherited the same trick
//! in the event wheel's occupancy words.
//!
//! Ring-order-from-head equals age order (sequence order): entries are
//! pushed at the tail in dispatch order and only ever leave from the
//! head (commit) or the tail (squash), so a two-phase slot scan —
//! `[head, cap)` then `[0, head)` — visits live entries oldest-first.

use mg_core::FuReq;

/// The functional-unit class an operation occupies at issue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum Kind {
    Alu,
    Mul,
    Load,
    Store,
    Control,
    Handle,
    Direct, // nop/halt: no execution
}

/// Sentinel for "no physical register" in the u16 source lanes.
pub(crate) const NO_PREG: u16 = u16::MAX;
/// Sentinel for "no predicted store" in the packed wait-store lane.
pub(crate) const NO_WAIT: u64 = u64::MAX;

/// Reads bit `i` of a bitset.
#[inline(always)]
pub(crate) fn bit_get(words: &[u64], i: usize) -> bool {
    words[i >> 6] & (1u64 << (i & 63)) != 0
}

/// Sets bit `i` of a bitset.
#[inline(always)]
pub(crate) fn bit_set(words: &mut [u64], i: usize) {
    words[i >> 6] |= 1u64 << (i & 63);
}

/// Clears bit `i` of a bitset.
#[inline(always)]
pub(crate) fn bit_clear(words: &mut [u64], i: usize) {
    words[i >> 6] &= !(1u64 << (i & 63));
}

/// Everything dispatch knows about one renamed operation, handed to
/// [`Rob::push`] in one piece so the lane writes stay together.
pub(crate) struct RobPush {
    pub(crate) seq: u64,
    pub(crate) trace_idx: u32,
    pub(crate) sidx: u32,
    pub(crate) kind: Kind,
    pub(crate) represents: u32,
    /// Architectural destination register, or `decode::NO_REG`.
    pub(crate) dest_arch: u8,
    /// Newly allocated physical destination (meaningful iff `dest_arch`
    /// is a register).
    pub(crate) dest_preg: u16,
    /// The overwritten previous mapping (freed at commit).
    pub(crate) dest_prev: u16,
    pub(crate) src0: u16,
    pub(crate) src1: u16,
    pub(crate) in_iq: bool,
    pub(crate) issued: bool,
    pub(crate) completed: bool,
    pub(crate) mispredicted: bool,
    pub(crate) pred_taken: bool,
    pub(crate) pred_token: u32,
    /// Packed `(store seq << 16) | store rob slot`, or [`NO_WAIT`].
    pub(crate) wait_store: u64,
    pub(crate) is_load: bool,
    pub(crate) is_store: bool,
}

/// The struct-of-arrays reorder buffer (which doubles as the issue
/// queue's candidate store: scheduler membership is the `in_iq` bit).
///
/// Slots are physical ring positions; they are stable for an entry's
/// whole lifetime, which is what lets completion events and store-set
/// dependences carry `(seq, slot)` pairs and validate liveness in O(1)
/// with [`Rob::is_live`] instead of searching.
pub(crate) struct Rob {
    cap: usize,
    mask: usize,
    head: usize,
    len: usize,
    // Value lanes, indexed by physical slot.
    pub(crate) seq: Box<[u64]>,
    pub(crate) trace_idx: Box<[u32]>,
    pub(crate) sidx: Box<[u32]>,
    pub(crate) kind: Box<[Kind]>,
    pub(crate) represents: Box<[u32]>,
    pub(crate) dest_arch: Box<[u8]>,
    pub(crate) dest_preg: Box<[u16]>,
    pub(crate) dest_prev: Box<[u16]>,
    pub(crate) src0: Box<[u16]>,
    pub(crate) src1: Box<[u16]>,
    pub(crate) pred_token: Box<[u32]>,
    pub(crate) wait_store: Box<[u64]>,
    /// Cycle the entry's result is architecturally complete: commit may
    /// retire it from any cycle *strictly after* this one — matching the
    /// old completion-bit visibility, where the event at `issue +
    /// total_lat` landed after commit had already run that cycle.
    /// `u64::MAX` until issue (dispatch-completed ops push `0`). This
    /// lane is what lets most completion *events* be elided: only
    /// operations whose completion does work beyond "become retirable"
    /// (control resolution, a handle's scheduler-entry release) still
    /// schedule one.
    pub(crate) completed_at: Box<[u64]>,
    // Flag bitsets, one bit per physical slot. `unissued` is set iff the
    // entry is in the scheduler and not yet issued (pop clears every
    // flag, so a set bit implies a live entry). The issue stage scans
    // `poll & unissued`: `poll` is cleared while an entry is known to be
    // operand-blocked (a wake event or producer waiter-list entry will
    // re-set it), so stalled entries cost nothing per cycle.
    pub(crate) unissued: Box<[u64]>,
    pub(crate) poll: Box<[u64]>,
    pub(crate) in_iq: Box<[u64]>,
    pub(crate) mispredicted: Box<[u64]>,
    pub(crate) pred_taken: Box<[u64]>,
    pub(crate) is_load: Box<[u64]>,
    pub(crate) is_store: Box<[u64]>,
}

impl Rob {
    /// A ROB holding up to `capacity` entries (rounded up to a power of
    /// two for ring arithmetic; occupancy limits stay the caller's job).
    pub(crate) fn new(capacity: usize) -> Rob {
        let cap = capacity.next_power_of_two().max(2);
        // Slots are packed into 16 payload bits alongside sequence
        // numbers (events, wait-store links).
        assert!(cap <= 1 << 16, "ROB capacity exceeds slot encoding");
        let words = cap.div_ceil(64);
        Rob {
            cap,
            mask: cap - 1,
            head: 0,
            len: 0,
            seq: vec![0; cap].into(),
            trace_idx: vec![0; cap].into(),
            sidx: vec![0; cap].into(),
            kind: vec![Kind::Direct; cap].into(),
            represents: vec![0; cap].into(),
            dest_arch: vec![0; cap].into(),
            dest_preg: vec![0; cap].into(),
            dest_prev: vec![0; cap].into(),
            src0: vec![NO_PREG; cap].into(),
            src1: vec![NO_PREG; cap].into(),
            pred_token: vec![0; cap].into(),
            wait_store: vec![NO_WAIT; cap].into(),
            completed_at: vec![u64::MAX; cap].into(),
            unissued: vec![0; words].into(),
            poll: vec![0; words].into(),
            in_iq: vec![0; words].into(),
            mispredicted: vec![0; words].into(),
            pred_taken: vec![0; words].into(),
            is_load: vec![0; words].into(),
            is_store: vec![0; words].into(),
        }
    }

    #[inline(always)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline(always)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Physical ring capacity (a power of two; may exceed the
    /// architectural ROB size).
    #[inline(always)]
    pub(crate) fn capacity(&self) -> usize {
        self.cap
    }

    /// Physical slot of the oldest entry (valid only when non-empty).
    #[inline(always)]
    pub(crate) fn head_slot(&self) -> usize {
        self.head
    }

    /// Physical slot of the youngest entry (valid only when non-empty).
    #[inline(always)]
    pub(crate) fn tail_slot(&self) -> usize {
        (self.head + self.len - 1) & self.mask
    }

    /// Physical slot of the `i`-th oldest entry.
    #[inline(always)]
    pub(crate) fn slot(&self, i: usize) -> usize {
        (self.head + i) & self.mask
    }

    /// Whether `slot` currently holds a live entry with sequence `seq` —
    /// the staleness filter for completion events and wait-store links
    /// (sequence numbers are never reused, so a match is definitive).
    #[inline(always)]
    pub(crate) fn is_live(&self, slot: usize, seq: u64) -> bool {
        let pos = (slot.wrapping_sub(self.head)) & self.mask;
        pos < self.len && self.seq[slot] == seq
    }

    /// Appends a dispatched entry at the tail; returns its slot.
    pub(crate) fn push(&mut self, p: RobPush) -> usize {
        debug_assert!(self.len < self.cap, "ROB ring overflow");
        let slot = (self.head + self.len) & self.mask;
        self.len += 1;
        self.seq[slot] = p.seq;
        self.trace_idx[slot] = p.trace_idx;
        self.sidx[slot] = p.sidx;
        self.kind[slot] = p.kind;
        self.represents[slot] = p.represents;
        self.dest_arch[slot] = p.dest_arch;
        self.dest_preg[slot] = p.dest_preg;
        self.dest_prev[slot] = p.dest_prev;
        self.src0[slot] = p.src0;
        self.src1[slot] = p.src1;
        self.pred_token[slot] = p.pred_token;
        self.wait_store[slot] = p.wait_store;
        self.completed_at[slot] = if p.completed { 0 } else { u64::MAX };
        // Popped slots leave every flag clear; only set what's true.
        debug_assert!(!bit_get(&self.unissued, slot) && !bit_get(&self.in_iq, slot));
        if !p.issued {
            bit_set(&mut self.unissued, slot);
            bit_set(&mut self.poll, slot);
        }
        if p.in_iq {
            bit_set(&mut self.in_iq, slot);
        }
        if p.mispredicted {
            bit_set(&mut self.mispredicted, slot);
        }
        if p.pred_taken {
            bit_set(&mut self.pred_taken, slot);
        }
        if p.is_load {
            bit_set(&mut self.is_load, slot);
        }
        if p.is_store {
            bit_set(&mut self.is_store, slot);
        }
        slot
    }

    /// Retires the head entry (read its lanes first). Clears every flag
    /// bit so the slot is pristine for reuse.
    pub(crate) fn pop_front(&mut self) {
        debug_assert!(self.len > 0);
        self.clear_flags(self.head);
        self.head = (self.head + 1) & self.mask;
        self.len -= 1;
    }

    /// Squashes the tail entry (read its lanes first).
    pub(crate) fn pop_back(&mut self) {
        debug_assert!(self.len > 0);
        self.clear_flags(self.tail_slot());
        self.len -= 1;
    }

    #[inline]
    fn clear_flags(&mut self, slot: usize) {
        bit_clear(&mut self.unissued, slot);
        bit_clear(&mut self.poll, slot);
        bit_clear(&mut self.in_iq, slot);
        bit_clear(&mut self.mispredicted, slot);
        bit_clear(&mut self.pred_taken, slot);
        bit_clear(&mut self.is_load, slot);
        bit_clear(&mut self.is_store, slot);
    }

    /// Logical index (0 = oldest) of the live entry with sequence `seq`.
    ///
    /// Sequence numbers are unique and increasing but NOT contiguous:
    /// violation squashes pop the tail without rolling back the
    /// allocator (so stale sequence numbers can never alias a newer
    /// entry). Binary-search by sequence over the logical order.
    pub(crate) fn find_seq(&self, seq: u64) -> Option<usize> {
        let mut lo = 0usize;
        let mut hi = self.len;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.seq[self.slot(mid)] < seq {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        (lo < self.len && self.seq[self.slot(lo)] == seq).then_some(lo)
    }
}

/// The struct-of-arrays front-end queue: fetched operations waiting out
/// the decode pipeline before dispatch. Fetch decodes each op's static
/// index once and carries it here, so dispatch never re-derives it from
/// the trace.
pub(crate) struct FrontQ {
    cap: usize,
    mask: usize,
    head: usize,
    len: usize,
    pub(crate) trace_idx: Box<[u32]>,
    pub(crate) sidx: Box<[u32]>,
    pub(crate) ready_at: Box<[u64]>,
    pub(crate) pred_token: Box<[u32]>,
    pub(crate) mispredicted: Box<[bool]>,
    pub(crate) pred_taken: Box<[bool]>,
}

impl FrontQ {
    /// A queue holding up to `capacity` fetched operations.
    pub(crate) fn new(capacity: usize) -> FrontQ {
        let cap = capacity.next_power_of_two().max(2);
        FrontQ {
            cap,
            mask: cap - 1,
            head: 0,
            len: 0,
            trace_idx: vec![0; cap].into(),
            sidx: vec![0; cap].into(),
            ready_at: vec![0; cap].into(),
            pred_token: vec![0; cap].into(),
            mispredicted: vec![false; cap].into(),
            pred_taken: vec![false; cap].into(),
        }
    }

    #[inline(always)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline(always)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Physical slot of the oldest entry (valid only when non-empty).
    #[inline(always)]
    pub(crate) fn head_slot(&self) -> usize {
        self.head
    }

    pub(crate) fn push_back(
        &mut self,
        trace_idx: u32,
        sidx: u32,
        ready_at: u64,
        mispredicted: bool,
        pred_taken: bool,
        pred_token: u32,
    ) {
        debug_assert!(self.len < self.cap, "front-queue ring overflow");
        let slot = (self.head + self.len) & self.mask;
        self.len += 1;
        self.trace_idx[slot] = trace_idx;
        self.sidx[slot] = sidx;
        self.ready_at[slot] = ready_at;
        self.pred_token[slot] = pred_token;
        self.mispredicted[slot] = mispredicted;
        self.pred_taken[slot] = pred_taken;
    }

    pub(crate) fn pop_front(&mut self) {
        debug_assert!(self.len > 0);
        self.head = (self.head + 1) & self.mask;
        self.len -= 1;
    }

    /// Empties the queue (fetch redirect).
    pub(crate) fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }
}

/// A struct-of-arrays load or store queue. Entries are pushed in
/// dispatch (sequence) order and leave from the head (commit) or tail
/// (squash), so ring order is age order; scans are linear — the queues
/// hold at most a few dozen entries.
pub(crate) struct MemQ {
    cap: usize,
    mask: usize,
    head: usize,
    len: usize,
    pub(crate) seq: Box<[u64]>,
    pub(crate) pc: Box<[u64]>,
    pub(crate) addr: Box<[u64]>,
    pub(crate) width: Box<[u8]>,
    pub(crate) trace_idx: Box<[u32]>,
    pub(crate) executed: Box<[bool]>,
}

impl MemQ {
    /// A queue holding up to `capacity` in-flight memory operations.
    pub(crate) fn new(capacity: usize) -> MemQ {
        let cap = capacity.next_power_of_two().max(2);
        MemQ {
            cap,
            mask: cap - 1,
            head: 0,
            len: 0,
            seq: vec![0; cap].into(),
            pc: vec![0; cap].into(),
            addr: vec![0; cap].into(),
            width: vec![0; cap].into(),
            trace_idx: vec![0; cap].into(),
            executed: vec![false; cap].into(),
        }
    }

    #[inline(always)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Physical slot of the `i`-th oldest entry.
    #[inline(always)]
    pub(crate) fn slot(&self, i: usize) -> usize {
        (self.head + i) & self.mask
    }

    /// Appends an entry at dispatch (address filled at execution).
    pub(crate) fn push_back(&mut self, seq: u64, pc: u64, trace_idx: u32) {
        debug_assert!(self.len < self.cap, "memory-queue ring overflow");
        let slot = (self.head + self.len) & self.mask;
        self.len += 1;
        self.seq[slot] = seq;
        self.pc[slot] = pc;
        self.addr[slot] = 0;
        self.width[slot] = 0;
        self.trace_idx[slot] = trace_idx;
        self.executed[slot] = false;
    }

    /// Retires the head entry; returns its slot (lanes stay readable
    /// until the next push).
    pub(crate) fn pop_front(&mut self) -> usize {
        debug_assert!(self.len > 0);
        let slot = self.head;
        self.head = (self.head + 1) & self.mask;
        self.len -= 1;
        slot
    }

    /// Squashes the tail entry; returns its slot (lanes stay readable
    /// until the next push).
    pub(crate) fn pop_back(&mut self) -> usize {
        debug_assert!(self.len > 0);
        self.len -= 1;
        (self.head + self.len) & self.mask
    }

    /// Slot of the live entry with sequence `seq` (linear scan).
    pub(crate) fn find_seq(&self, seq: u64) -> Option<usize> {
        (0..self.len).map(|i| self.slot(i)).find(|&s| self.seq[s] == seq)
    }
}

/// Index of a functional-unit requirement in the `[ap, alu, load, store]`
/// reservation counters.
pub(crate) fn fu_index(f: FuReq) -> usize {
    match f {
        FuReq::AluPipeEntry => 0,
        FuReq::Alu => 1,
        FuReq::LoadPort => 2,
        FuReq::StorePort => 3,
    }
}

/// Whether two byte ranges `[a1, a1+w1)` and `[a2, a2+w2)` overlap.
pub(crate) fn overlap(a1: u64, w1: u8, a2: u64, w2: u8) -> bool {
    a1 < a2 + w2 as u64 && a2 < a1 + w1 as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blank_push(seq: u64) -> RobPush {
        RobPush {
            seq,
            trace_idx: 0,
            sidx: 0,
            kind: Kind::Alu,
            represents: 1,
            dest_arch: crate::pipeline::decode::NO_REG,
            dest_preg: 0,
            dest_prev: 0,
            src0: NO_PREG,
            src1: NO_PREG,
            in_iq: true,
            issued: false,
            completed: false,
            mispredicted: false,
            pred_taken: false,
            pred_token: 0,
            wait_store: NO_WAIT,
            is_load: false,
            is_store: false,
        }
    }

    #[test]
    fn rob_ring_wraps_and_reuses_slots() {
        let mut rob = Rob::new(4);
        for seq in 0..4 {
            rob.push(blank_push(seq));
        }
        assert_eq!(rob.len(), 4);
        // Retire two, push two more: the ring wraps and the freed slots
        // come back with clean flags.
        rob.pop_front();
        rob.pop_front();
        let s4 = rob.push(blank_push(4));
        let s5 = rob.push(blank_push(5));
        assert_eq!((s4, s5), (0, 1), "slots recycle in ring order");
        assert!(bit_get(&rob.unissued, s4));
        assert!(rob.is_live(s4, 4));
        assert!(!rob.is_live(s4, 0), "stale seq must not read as live");
    }

    #[test]
    fn rob_find_seq_handles_gaps_and_wrap() {
        let mut rob = Rob::new(8);
        for seq in [0u64, 1, 5, 7, 9] {
            rob.push(blank_push(seq));
        }
        // Wrap the ring: retire the two oldest, add two younger.
        rob.pop_front();
        rob.pop_front();
        for seq in [12u64, 20, 21, 30, 31] {
            rob.push(blank_push(seq));
        }
        assert_eq!(rob.len(), 8);
        for (i, seq) in [5u64, 7, 9, 12, 20, 21, 30, 31].into_iter().enumerate() {
            assert_eq!(rob.find_seq(seq), Some(i));
        }
        for stale in [0u64, 1, 2, 6, 13, 32] {
            assert_eq!(rob.find_seq(stale), None, "stale seq {stale} must miss");
        }
    }

    #[test]
    fn memq_ring_order_is_age_order() {
        let mut q = MemQ::new(4);
        q.push_back(10, 0x100, 1);
        q.push_back(11, 0x104, 2);
        q.push_back(12, 0x108, 3);
        q.pop_front();
        q.push_back(13, 0x10c, 4);
        q.push_back(14, 0x110, 5);
        let seqs: Vec<u64> = (0..q.len()).map(|i| q.seq[q.slot(i)]).collect();
        assert_eq!(seqs, vec![11, 12, 13, 14]);
        let tail = q.pop_back();
        assert_eq!(q.seq[tail], 14);
        assert_eq!(q.find_seq(12), Some(q.slot(1)));
        assert_eq!(q.find_seq(14), None);
    }
}
