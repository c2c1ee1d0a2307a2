//! Greedy coverage-ranked mini-graph selection (paper §3.2).
//!
//! Candidates are coalesced by canonical template ("we consider static
//! mini-graphs with identical dataflows and immediate operands as
//! equivalent"), ranked by estimated coverage `Σ (n-1)·f` over their still-
//! available instances, and picked greedily. Selecting a mini-graph marks
//! its static instructions as used, which may invalidate overlapping
//! candidates; weights are re-adjusted every iteration. The process stops
//! when the candidate list is exhausted or the MGT capacity (template
//! limit) is reached.
//!
//! # Determinism and the tie-break order
//!
//! Template groups are formed in **first-appearance order** (the order
//! instances occur in the candidate list), never in hash-iteration order.
//! Each greedy round picks the group with the strictly largest current
//! benefit, breaking ties by position in a *swap-filled* working list:
//! the list starts in group order, and a selected group's slot is
//! back-filled by the last live group (the historical `Vec::swap_remove`
//! discipline). Both rules are part of the output contract — selections
//! feed program rewriting, so the golden-stats tests pin them down.
//!
//! # Inner-loop data structures
//!
//! The greedy loop used to rescan every (group × instance × member) per
//! round. `GreedyPicker` replaces that with
//!
//! * a dense **bitset** of taken static-instruction indices (instead of a
//!   `HashMap<usize, ()>` per program),
//! * an instruction-index → overlapping-instances adjacency, so taking an
//!   instruction **incrementally** invalidates exactly the candidates it
//!   kills and debits their groups' benefits, and
//! * a **lazy max-heap** of `(benefit, position)` claims, re-validated on
//!   pop: benefits only decrease, so a popped claim that still matches
//!   the group's current benefit and position is the true maximum; a
//!   stale claim is replaced by a fresh one and the pop retries.

use crate::minigraph::MiniGraph;
use crate::policy::Policy;
use mg_isa::{HandleCatalog, MgTemplate};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// One selected mini-graph instance with its assigned MGID.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChosenInstance {
    /// The candidate.
    pub graph: MiniGraph,
    /// Index of the instance's template in the catalog.
    pub mgid: u32,
}

/// The outcome of selection for one program.
///
/// # Invariants
///
/// Every selection algorithm in the tree ([`select`], [`select_domain`],
/// [`select_with_benefits`], and the `mg-policy` selectors behind the
/// [`Selector`](crate::selector::Selector) trait) upholds the same output
/// contract, which the rewriter and the MGT packer rely on:
///
/// * **Admissibility** — every chosen instance was approved by the
///   selecting policy's [`Policy::admits`]; no selector may smuggle in a
///   candidate the policy filtered out.
/// * **Instance disjointness** — the `members` sets of the chosen
///   instances are pairwise disjoint: each static instruction belongs to
///   at most one selected mini-graph (atomicity, paper §3.1).
/// * **Catalog consistency** — `catalog.len() <= policy.capacity`, and
///   every `mgid` indexes a catalog entry equal to its instance's
///   template.
///
/// `tests/policy_properties.rs` asserts all three properties across every
/// selection family on generated programs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Selection {
    /// Selected instances (non-overlapping).
    pub chosen: Vec<ChosenInstance>,
    /// The MGT content: one entry per distinct template.
    pub catalog: HandleCatalog,
}

impl Selection {
    /// Dynamic instructions that are members of selected mini-graphs:
    /// `Σ n·f`.
    pub fn covered_insts(&self) -> u64 {
        self.chosen.iter().map(|c| c.graph.size() as u64 * c.graph.freq).sum()
    }

    /// Dynamic pipeline slots saved: `Σ (n-1)·f` — the paper's coverage
    /// metric ("the fraction of dynamic instructions it removes from the
    /// pipeline", §3.2, relative to the total).
    pub fn saved_slots(&self) -> u64 {
        self.chosen.iter().map(|c| c.graph.benefit()).sum()
    }

    /// The paper's coverage metric, as a fraction of `total_dyn_insts`.
    pub fn coverage(&self, total_dyn_insts: u64) -> f64 {
        if total_dyn_insts == 0 {
            return 0.0;
        }
        self.saved_slots() as f64 / total_dyn_insts as f64
    }
}

/// Dense bitset over static-instruction indices: the "already a member of
/// a selected mini-graph" set.
struct TakenSet {
    words: Vec<u64>,
}

impl TakenSet {
    fn new(universe: usize) -> TakenSet {
        TakenSet { words: vec![0; universe.div_ceil(64)] }
    }

    #[inline]
    fn contains(&self, i: usize) -> bool {
        (self.words[i / 64] >> (i % 64)) & 1 != 0
    }

    #[inline]
    fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }
}

/// The incremental greedy core shared by [`select`] and [`select_domain`].
///
/// Instances are identified by index into a caller-held pool; groups by
/// index in first-appearance order. Members live in a dense `0..universe`
/// index space (multi-program callers offset each program's indices).
struct GreedyPicker<'a> {
    /// Per group: its instances (pool indices) in pool order.
    groups: Vec<Vec<u32>>,
    /// Per group: summed benefit over still-valid instances.
    benefit: Vec<u64>,
    /// Per group: still a pick candidate (not yet selected).
    live: Vec<bool>,
    /// Per group: current position in the swap-filled working list.
    pos: Vec<usize>,
    /// Inverse of `pos` over live groups: `slot[p]` is the group at `p`.
    slot: Vec<usize>,
    /// Live-group count: `slot[..live_n]` is the working list.
    live_n: usize,
    /// Per instance: owning group.
    inst_group: Vec<u32>,
    /// Per instance: `(n-1)·f` benefit.
    inst_benefit: Vec<u64>,
    /// Per instance: member instruction indices (ascending).
    inst_members: Vec<&'a [usize]>,
    /// Per instance: offset of its program's slice of the member space.
    inst_offset: Vec<usize>,
    /// Per instance: not yet consumed or overlapped by a selected one.
    valid: Vec<bool>,
    /// Member index → instances containing it.
    member_map: Vec<Vec<u32>>,
    /// Taken member instructions.
    taken: TakenSet,
    /// Lazy claims: `(benefit, Reverse(position), group)`.
    heap: BinaryHeap<(u64, Reverse<usize>, usize)>,
}

impl<'a> GreedyPicker<'a> {
    /// Builds the picker. `instances` yields, in pool order, each
    /// instance's `(members, member-space offset, benefit)`; `group_of`
    /// assigns each to a group id `< n_groups` (groups must be numbered in
    /// first-appearance order). `universe` bounds `offset + member`.
    fn new(
        n_groups: usize,
        universe: usize,
        instances: impl Iterator<Item = (&'a [usize], usize, u64)>,
        group_of: &[u32],
    ) -> GreedyPicker<'a> {
        let mut picker = GreedyPicker {
            groups: vec![Vec::new(); n_groups],
            benefit: vec![0; n_groups],
            live: vec![true; n_groups],
            pos: (0..n_groups).collect(),
            slot: (0..n_groups).collect(),
            live_n: n_groups,
            inst_group: group_of.to_vec(),
            inst_benefit: Vec::new(),
            inst_members: Vec::new(),
            inst_offset: Vec::new(),
            valid: Vec::new(),
            member_map: vec![Vec::new(); universe],
            taken: TakenSet::new(universe),
            heap: BinaryHeap::new(),
        };
        for (ii, (members, offset, benefit)) in instances.enumerate() {
            let gi = group_of[ii] as usize;
            picker.groups[gi].push(ii as u32);
            picker.benefit[gi] += benefit;
            picker.inst_benefit.push(benefit);
            picker.inst_members.push(members);
            picker.inst_offset.push(offset);
            picker.valid.push(true);
            for &m in members {
                picker.member_map[offset + m].push(ii as u32);
            }
        }
        for gi in 0..n_groups {
            if picker.benefit[gi] > 0 {
                picker.heap.push((picker.benefit[gi], Reverse(gi), gi));
            }
        }
        picker
    }

    /// The next greedy pick: the live group with the strictly largest
    /// current benefit, ties broken by working-list position. `None` when
    /// every remaining group has zero benefit.
    fn pick(&mut self) -> Option<usize> {
        while let Some((b, Reverse(p), gi)) = self.heap.pop() {
            if !self.live[gi] {
                continue;
            }
            if b == self.benefit[gi] && p == self.pos[gi] {
                return Some(gi);
            }
            // Stale claim: benefits only decrease, so every other claim is
            // an upper bound of its group and the refreshed one re-enters
            // fairly.
            if self.benefit[gi] > 0 {
                self.heap.push((self.benefit[gi], Reverse(self.pos[gi]), gi));
            }
        }
        None
    }

    /// Consumes group `gi`: takes every still-valid instance (in pool
    /// order, feeding each to `chosen`), marks its members taken,
    /// invalidates overlapping instances, and debits their groups'
    /// benefits. Finishes with the swap-fill that keeps the working-list
    /// tie-break order.
    fn consume(&mut self, gi: usize, mut chosen: impl FnMut(u32)) {
        self.live[gi] = false;
        for k in 0..self.groups[gi].len() {
            let ii = self.groups[gi][k] as usize;
            if !self.valid[ii] {
                continue; // overlapped by an earlier pick (or sibling)
            }
            self.valid[ii] = false;
            let offset = self.inst_offset[ii];
            for &m in self.inst_members[ii] {
                let g = offset + m;
                debug_assert!(!self.taken.contains(g), "valid instance has a taken member");
                self.taken.insert(g);
                for &jj in &self.member_map[g] {
                    let jj = jj as usize;
                    if !self.valid[jj] {
                        continue;
                    }
                    self.valid[jj] = false;
                    let g2 = self.inst_group[jj] as usize;
                    if self.live[g2] {
                        self.benefit[g2] -= self.inst_benefit[jj];
                    }
                }
            }
            chosen(ii as u32);
        }
        // Swap-fill: the last live group takes the selected slot. Its
        // position key just changed, so it needs a fresh heap claim (the
        // old, larger-position claims now under-rank it).
        let p = self.pos[gi];
        let moved = self.slot[self.live_n - 1];
        if moved != gi {
            self.slot[p] = moved;
            self.pos[moved] = p;
            if self.benefit[moved] > 0 {
                self.heap.push((self.benefit[moved], Reverse(p), moved));
            }
        }
        self.live_n -= 1;
    }
}

/// Groups `templates` (in iteration order) by equality, returning each
/// item's group id plus one representative index per group. Groups are
/// numbered in first-appearance order — never hash-iteration order — so
/// greedy tie-breaking is reproducible.
fn group_by_template<'a>(
    templates: impl Iterator<Item = &'a MgTemplate>,
) -> (Vec<u32>, Vec<usize>) {
    let mut index: HashMap<&MgTemplate, u32> = HashMap::new();
    let mut group_of = Vec::new();
    let mut rep = Vec::new();
    for (i, t) in templates.enumerate() {
        let next = rep.len() as u32;
        let gi = *index.entry(t).or_insert_with(|| {
            rep.push(i);
            next
        });
        group_of.push(gi);
    }
    (group_of, rep)
}

/// Selects mini-graphs for one program from `candidates` under `policy`.
///
/// Only `policy.admits()`-approved candidates are considered, and the
/// returned selection's instances are member-disjoint (see the
/// [`Selection`] invariants).
pub fn select(candidates: &[MiniGraph], policy: &Policy) -> Selection {
    select_with_benefits(candidates, policy, MiniGraph::benefit)
}

/// [`select`] with a caller-supplied benefit function: the greedy rank of
/// each candidate uses `benefit_of(c)` instead of the paper's `(n-1)·f`
/// [`MiniGraph::benefit`].
///
/// This is the entry point for *weighted* selection policies (e.g. the
/// loop-depth-scaled weights of `mg-policy::weighted`): the greedy
/// mechanics — template grouping, incremental invalidation, the
/// swap-filled tie-break — are identical, only the ranking weight changes.
/// With `MiniGraph::benefit` as the weight this is exactly [`select`], bit
/// for bit. Candidates whose weight is 0 are never picked (a zero-benefit
/// group ends selection), and the returned [`Selection`] still reports
/// coverage in true `(n-1)·f` terms regardless of the weights used to
/// rank. The [`Selection`] invariants (admissibility, disjointness,
/// catalog consistency) hold for any weight function.
pub fn select_with_benefits(
    candidates: &[MiniGraph],
    policy: &Policy,
    benefit_of: impl Fn(&MiniGraph) -> u64,
) -> Selection {
    let instances: Vec<&MiniGraph> = candidates.iter().filter(|c| policy.admits(c)).collect();
    let (group_of, rep) = group_by_template(instances.iter().map(|c| &c.template));
    let universe =
        instances.iter().map(|c| c.members.last().copied().unwrap_or(0) + 1).max().unwrap_or(0);
    let mut picker = GreedyPicker::new(
        rep.len(),
        universe,
        instances.iter().map(|c| (c.members.as_slice(), 0, benefit_of(c))),
        &group_of,
    );

    let mut selection = Selection::default();
    while selection.catalog.len() < policy.capacity {
        let Some(gi) = picker.pick() else { break };
        let mgid = selection.catalog.add(instances[rep[gi]].template.clone());
        picker.consume(gi, |ii| {
            selection
                .chosen
                .push(ChosenInstance { graph: instances[ii as usize].clone(), mgid });
        });
    }
    selection
}

/// Selects one *domain-specific* MGT shared by several programs
/// (paper Figure 5 bottom): templates are pooled across programs, benefits
/// summed, and capacity shared; per-program selections are returned in
/// input order alongside the shared catalog.
///
/// The [`Selection`] invariants hold per program: each program's returned
/// selection contains only `policy.admits()`-approved candidates from
/// *that program's* pool, and its instances are member-disjoint within
/// the program (two programs may of course select the same instruction
/// index — member spaces are per-program, offset internally so one taken
/// bitset covers all of them without aliasing). The shared catalog obeys
/// `catalog.len() <= policy.capacity` across the whole domain.
pub fn select_domain(
    per_program_candidates: &[Vec<MiniGraph>],
    policy: &Policy,
) -> (Vec<Selection>, HandleCatalog) {
    struct Tagged<'a> {
        prog: usize,
        inst: &'a MiniGraph,
    }
    let mut all: Vec<Tagged<'_>> = Vec::new();
    for (pi, cands) in per_program_candidates.iter().enumerate() {
        for c in cands.iter().filter(|c| policy.admits(c)) {
            all.push(Tagged { prog: pi, inst: c });
        }
    }
    // Group across programs by template (first-appearance order) and give
    // each program its own slice of the member-index space, so one bitset
    // covers every program's taken instructions.
    let (group_of, rep) = group_by_template(all.iter().map(|t| &t.inst.template));
    let mut offsets = vec![0usize; per_program_candidates.len()];
    for t in &all {
        let end = t.inst.members.last().copied().unwrap_or(0) + 1;
        offsets[t.prog] = offsets[t.prog].max(end);
    }
    let mut universe = 0usize;
    for off in &mut offsets {
        let size = *off;
        *off = universe;
        universe += size;
    }
    let mut picker = GreedyPicker::new(
        rep.len(),
        universe,
        all.iter().map(|t| (t.inst.members.as_slice(), offsets[t.prog], t.inst.benefit())),
        &group_of,
    );

    let mut catalog = HandleCatalog::new();
    let mut selections: Vec<Selection> =
        vec![Selection::default(); per_program_candidates.len()];
    while catalog.len() < policy.capacity {
        let Some(gi) = picker.pick() else { break };
        let mgid = catalog.add(all[rep[gi]].inst.template.clone());
        picker.consume(gi, |ii| {
            let t = &all[ii as usize];
            selections[t.prog].chosen.push(ChosenInstance { graph: t.inst.clone(), mgid });
        });
    }
    // Each per-program selection shares the pooled catalog.
    for s in &mut selections {
        s.catalog = catalog.clone();
    }
    (selections, catalog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::enumerate_candidates;
    use mg_isa::{reg, Asm, Memory, Program};
    use mg_profile::{build_cfg, profile_program};

    fn candidates_for(p: &Program) -> (Vec<MiniGraph>, u64) {
        let cfg = build_cfg(p);
        let prof = profile_program(p, &mut Memory::new(), None, 1_000_000).unwrap();
        (enumerate_candidates(p, &cfg, &prof, 4), prof.total)
    }

    fn loop_program(iters: i64) -> Program {
        let mut a = Asm::new();
        a.li(reg(18), 0);
        a.li(reg(5), iters);
        a.label("top");
        a.addl(reg(18), 1, reg(18));
        a.cmplt(reg(18), reg(5), reg(7));
        a.bne(reg(7), "top");
        a.halt();
        a.finish().unwrap()
    }

    /// The pre-optimisation greedy loop, kept verbatim as an executable
    /// specification: full benefit rescan per round over `HashMap` member
    /// sets, `swap_remove` on pick. [`select`] must match it exactly.
    fn reference_select(candidates: &[MiniGraph], policy: &Policy) -> Selection {
        let instances: Vec<&MiniGraph> =
            candidates.iter().filter(|c| policy.admits(c)).collect();
        let mut index: HashMap<&MgTemplate, usize> = HashMap::new();
        let mut groups: Vec<(&MgTemplate, Vec<&MiniGraph>)> = Vec::new();
        for &inst in &instances {
            let gi = *index.entry(&inst.template).or_insert_with(|| {
                groups.push((&inst.template, Vec::new()));
                groups.len() - 1
            });
            groups[gi].1.push(inst);
        }
        let mut taken: HashMap<usize, ()> = HashMap::new();
        let mut selection = Selection::default();
        let mut remaining: Vec<&(&MgTemplate, Vec<&MiniGraph>)> = groups.iter().collect();
        while selection.catalog.len() < policy.capacity {
            let mut best: Option<(usize, u64)> = None;
            for (gi, (_, insts)) in remaining.iter().enumerate() {
                let b: u64 = insts
                    .iter()
                    .filter(|i| i.members.iter().all(|m| !taken.contains_key(m)))
                    .map(|i| i.benefit())
                    .sum();
                if b > 0 && best.is_none_or(|(_, bb)| b > bb) {
                    best = Some((gi, b));
                }
            }
            let Some((gi, _)) = best else { break };
            let (template, insts) = remaining.swap_remove(gi);
            let mgid = selection.catalog.add((*template).clone());
            for inst in insts {
                if inst.members.iter().any(|m| taken.contains_key(m)) {
                    continue;
                }
                for &m in &inst.members {
                    taken.insert(m, ());
                }
                selection.chosen.push(ChosenInstance { graph: (*inst).clone(), mgid });
            }
        }
        selection
    }

    /// The pre-optimisation domain-selection loop, kept verbatim like
    /// [`reference_select`]: per-program `HashMap` taken sets, full
    /// rescan, `swap_remove`. [`select_domain`] must match it exactly.
    fn reference_select_domain(
        per_program_candidates: &[Vec<MiniGraph>],
        policy: &Policy,
    ) -> (Vec<Selection>, HandleCatalog) {
        struct Tagged<'a> {
            prog: usize,
            inst: &'a MiniGraph,
        }
        let mut all: Vec<Tagged<'_>> = Vec::new();
        for (pi, cands) in per_program_candidates.iter().enumerate() {
            for c in cands.iter().filter(|c| policy.admits(c)) {
                all.push(Tagged { prog: pi, inst: c });
            }
        }
        let mut index: HashMap<&MgTemplate, usize> = HashMap::new();
        let mut groups: Vec<(&MgTemplate, Vec<usize>)> = Vec::new();
        for (i, t) in all.iter().enumerate() {
            let gi = *index.entry(&t.inst.template).or_insert_with(|| {
                groups.push((&t.inst.template, Vec::new()));
                groups.len() - 1
            });
            groups[gi].1.push(i);
        }
        let mut taken: Vec<HashMap<usize, ()>> =
            vec![HashMap::new(); per_program_candidates.len()];
        let mut catalog = HandleCatalog::new();
        let mut selections: Vec<Selection> =
            vec![Selection::default(); per_program_candidates.len()];
        let mut remaining: Vec<&(&MgTemplate, Vec<usize>)> = groups.iter().collect();
        while catalog.len() < policy.capacity {
            let mut best: Option<(usize, u64)> = None;
            for (gi, (_, members)) in remaining.iter().enumerate() {
                let b: u64 = members
                    .iter()
                    .map(|&i| &all[i])
                    .filter(|t| t.inst.members.iter().all(|m| !taken[t.prog].contains_key(m)))
                    .map(|t| t.inst.benefit())
                    .sum();
                if b > 0 && best.is_none_or(|(_, bb)| b > bb) {
                    best = Some((gi, b));
                }
            }
            let Some((gi, _)) = best else { break };
            let (template, members) = remaining.swap_remove(gi);
            let mgid = catalog.add((*template).clone());
            for &i in members {
                let t = &all[i];
                if t.inst.members.iter().any(|m| taken[t.prog].contains_key(m)) {
                    continue;
                }
                for &m in &t.inst.members {
                    taken[t.prog].insert(m, ());
                }
                selections[t.prog].chosen.push(ChosenInstance { graph: t.inst.clone(), mgid });
            }
        }
        for s in &mut selections {
            s.catalog = catalog.clone();
        }
        (selections, catalog)
    }

    fn assert_same(a: &Selection, b: &Selection) {
        assert_eq!(a.catalog.len(), b.catalog.len(), "catalog size");
        assert_eq!(a.chosen.len(), b.chosen.len(), "chosen count");
        for (x, y) in a.chosen.iter().zip(&b.chosen) {
            assert_eq!(x.mgid, y.mgid);
            assert_eq!(x.graph.members, y.graph.members);
            assert_eq!(x.graph.freq, y.graph.freq);
        }
    }

    /// Synthetic candidate pools with heavy template sharing, overlapping
    /// members, and *deliberate benefit ties*: the incremental picker must
    /// reproduce the reference algorithm's swap-filled tie-break exactly.
    #[test]
    fn matches_reference_implementation() {
        use mg_isa::{Opcode, TmplInst, TmplOperand};
        let template = |k: i64, n: usize| MgTemplate {
            ops: (0..n)
                .map(|_| TmplInst {
                    op: Opcode::Addq,
                    a: TmplOperand::E0,
                    b: TmplOperand::Imm(k),
                    disp: 0,
                })
                .collect(),
            out: Some((n - 1) as u8),
        };
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut rng = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            seed >> 33
        };
        for round in 0..40 {
            let n_templates = 1 + (rng() % 12) as usize;
            let n_insts = 1 + (rng() % 60) as usize;
            let mut cands = Vec::new();
            for _ in 0..n_insts {
                let k = (rng() % n_templates as u64) as i64;
                let size = 2 + (rng() % 3) as usize;
                let start = (rng() % 40) as usize;
                let members: Vec<usize> = (start..start + size).collect();
                // Frequencies drawn from a tiny set to force ties.
                let freq = [0, 5, 5, 10][(rng() % 4) as usize];
                cands.push(MiniGraph {
                    members,
                    anchor: start + size - 1,
                    inputs: vec![],
                    output: None,
                    template: template(k, size),
                    freq,
                    branch_target: None,
                });
            }
            for capacity in [1usize, 3, 1024] {
                let policy = Policy::default().with_capacity(capacity);
                assert_same(&select(&cands, &policy), &reference_select(&cands, &policy));
            }
            let _ = round;
        }
    }

    /// Same adversarial pools, split across several "programs": the
    /// shared-bitset / per-program-offset domain path must reproduce the
    /// reference algorithm (and the offsets must never let one program's
    /// members alias another's — the split pools deliberately reuse the
    /// same member indices in every program).
    #[test]
    fn domain_matches_reference_implementation() {
        use mg_isa::{Opcode, TmplInst, TmplOperand};
        let template = |k: i64| MgTemplate {
            ops: vec![
                TmplInst {
                    op: Opcode::Addq,
                    a: TmplOperand::E0,
                    b: TmplOperand::Imm(k),
                    disp: 0
                };
                2
            ],
            out: Some(1),
        };
        let mut seed = 0x0dd0_5eed_0dd0_5eedu64;
        let mut rng = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            seed >> 33
        };
        for _round in 0..30 {
            let n_progs = 1 + (rng() % 4) as usize;
            let mut pools: Vec<Vec<MiniGraph>> = vec![Vec::new(); n_progs];
            for _ in 0..(5 + rng() % 50) {
                let start = (rng() % 30) as usize; // same index space per program
                pools[(rng() % n_progs as u64) as usize].push(MiniGraph {
                    members: vec![start, start + 1],
                    anchor: start + 1,
                    inputs: vec![],
                    output: None,
                    template: template((rng() % 8) as i64),
                    freq: [0u64, 4, 4, 9][(rng() % 4) as usize],
                    branch_target: None,
                });
            }
            for capacity in [1usize, 4, 1024] {
                let policy = Policy::default().with_capacity(capacity);
                let (got, got_cat) = select_domain(&pools, &policy);
                let (want, want_cat) = reference_select_domain(&pools, &policy);
                assert_eq!(got_cat.len(), want_cat.len(), "shared catalog size");
                for (g, w) in got.iter().zip(&want) {
                    assert_same(g, w);
                }
            }
        }
    }

    #[test]
    fn greedy_picks_largest_benefit() {
        let p = loop_program(100);
        let (cands, total) = candidates_for(&p);
        let sel = select(&cands, &Policy::default());
        assert_eq!(sel.catalog.len(), 1, "one 3-inst template wins");
        assert_eq!(sel.chosen.len(), 1);
        assert_eq!(sel.chosen[0].graph.size(), 3);
        // Coverage: loop body (3 insts) runs 100 times; saves 2 slots each.
        assert_eq!(sel.saved_slots(), 200);
        assert!(sel.coverage(total) > 0.6);
    }

    #[test]
    fn members_never_overlap() {
        let p = loop_program(50);
        let (cands, _) = candidates_for(&p);
        let sel = select(&cands, &Policy::default());
        let mut seen = std::collections::HashSet::new();
        for c in &sel.chosen {
            for &m in &c.graph.members {
                assert!(seen.insert(m), "instruction {m} selected twice");
            }
        }
    }

    #[test]
    fn capacity_limits_templates() {
        // Two distinct hot idioms; capacity 1 keeps only the better one.
        let mut a = Asm::new();
        a.li(reg(1), 200);
        a.li(reg(9), 0);
        a.label("top");
        a.addq(reg(9), 3, reg(9)); // idiom A (higher frequency via size)
        a.srl(reg(9), 1, reg(9));
        a.xor(reg(9), 5, reg(9));
        a.subq(reg(1), 1, reg(1));
        a.bne(reg(1), "top");
        a.halt();
        let p = a.finish().unwrap();
        let (cands, _) = candidates_for(&p);
        let full = select(&cands, &Policy::default());
        let capped = select(&cands, &Policy::default().with_capacity(1));
        assert!(capped.catalog.len() <= 1);
        assert!(capped.saved_slots() <= full.saved_slots());
        assert!(!full.catalog.is_empty());
    }

    #[test]
    fn identical_idioms_share_one_template() {
        // The same add/shift pair appears in two places.
        let mut a = Asm::new();
        a.li(reg(1), 30);
        a.label("top");
        a.addq(reg(2), 7, reg(3));
        a.sll(reg(3), 2, reg(3));
        a.stq(reg(3), 0, reg(28)); // keep r3 dead afterwards
        a.addq(reg(2), 7, reg(4));
        a.sll(reg(4), 2, reg(4));
        a.stq(reg(4), 8, reg(28));
        a.subq(reg(1), 1, reg(1));
        a.bne(reg(1), "top");
        a.halt();
        let p = a.finish().unwrap();
        let (cands, _) = candidates_for(&p);
        let sel = select(&cands, &Policy::integer());
        let pair_instances: Vec<_> = sel
            .chosen
            .iter()
            .filter(|c| c.graph.size() == 2 && c.graph.template.mem_op().is_none())
            .collect();
        if pair_instances.len() >= 2 {
            assert_eq!(
                pair_instances[0].mgid, pair_instances[1].mgid,
                "identical dataflow + immediates coalesce to one MGT entry"
            );
        }
    }

    #[test]
    fn domain_selection_shares_capacity() {
        let p1 = loop_program(100);
        let p2 = loop_program(80); // identical idiom, different program
        let (c1, _) = candidates_for(&p1);
        let (c2, _) = candidates_for(&p2);
        let (sels, catalog) = select_domain(&[c1, c2], &Policy::default().with_capacity(4));
        assert!(catalog.len() <= 4);
        assert!(!sels[0].chosen.is_empty());
        assert!(!sels[1].chosen.is_empty());
        // The shared idiom maps to the same MGID in both programs.
        assert_eq!(sels[0].chosen[0].mgid, sels[1].chosen[0].mgid);
    }
}
