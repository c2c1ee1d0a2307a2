//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own code, around each call it
//! makes into a layer of the pipeline: name, start, end, parent span and
//! op id, kept in memory and written out when the run ends. A layer's
//! **self time** is its span's duration minus the part its child spans
//! cover; the op's root span (named [`OP`]) keeps whatever no layer span
//! covers, reported as `harness.unattributed.ms`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::time::Instant;

/// Name of every op's root span.
pub const OP: &str = "op";

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer span name (`<crate>.<call>`), or [`OP`].
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Index of the enclosing span in the same recorder, if any.
    pub parent: Option<usize>,
    /// Op the span belongs to; `None` for set-up spans.
    pub op: Option<u32>,
}

/// Single-threaded span and counter recorder for one traced phase.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: Option<u32>,
    counts: BTreeMap<&'static str, u64>,
}

impl Recorder {
    /// A recorder whose span times count from `epoch`.
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            op: None,
            counts: BTreeMap::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let idx = self.spans.len();
        let parent = self.stack.last().copied();
        let start = self.now();
        self.spans.push(Span { name, start, end: start, parent, op: self.op });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end = self.now();
        out
    }

    /// Runs `f` as op `op`: a root span named [`OP`].
    pub fn op<R>(&mut self, op: u32, f: impl FnOnce(&mut Recorder) -> R) -> R {
        assert!(self.stack.is_empty(), "ops do not nest");
        self.op = Some(op);
        let out = self.span(OP, f);
        self.op = None;
        out
    }

    /// Records a span with explicit bounds (for intervals observed on
    /// other threads, such as a serve worker's run).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        op: Option<u32>,
    ) -> usize {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span { name, start: at(start), end: at(end), parent, op });
        self.spans.len() - 1
    }

    /// Adds `n` to the counter `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_insert(0) += n;
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The recorded counters.
    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }
}

/// Self time of every span, in ns: duration minus the covered part of
/// its children (children of one span run one after another, so their
/// durations add up to the covered part).
fn self_times(spans: &[Span]) -> Vec<i64> {
    let mut out: Vec<i64> = spans.iter().map(|s| (s.end - s.start) as i64).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] -= (s.end - s.start) as i64;
        }
    }
    out
}

/// Total self time per span name, in ms.
pub fn self_ms_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0.0) += t as f64 / 1e6;
    }
    out
}

/// How far an op's summed self times may stand from its wall time
/// measured apart from the recorder: the clock reads between the two,
/// plus room for the thread being preempted between them.
pub fn clock_slack_ms(wall_ms: f64) -> f64 {
    1.0 + 0.1 * wall_ms
}

/// Checks, per op, that every span of the op lies inside its root and
/// has no negative self time (recorded intervals that overlap would),
/// and that the layer self times plus the root's own (unattributed)
/// remainder come within [`clock_slack_ms`] of `wall_ms[op]`, the op's
/// wall time read from a clock outside the recorder. The self times of
/// properly nested spans always add up to the root's duration, so it is
/// the outside clock that can catch work the root span does not cover.
/// Returns the number of ops that fail.
pub fn inconsistent_ops(spans: &[Span], wall_ms: &[f64]) -> usize {
    let roots: BTreeMap<u32, &Span> = spans
        .iter()
        .filter(|s| s.name == OP && s.parent.is_none())
        .filter_map(|s| Some((s.op?, s)))
        .collect();
    let mut bad = BTreeSet::new();
    let mut sums: BTreeMap<u32, i64> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        let Some(op) = s.op else { continue };
        match roots.get(&op) {
            Some(r) if t >= 0 && s.start >= r.start && s.end <= r.end => {
                *sums.entry(op).or_default() += t;
            }
            _ => {
                bad.insert(op);
            }
        }
    }
    for (op, &wall) in wall_ms.iter().enumerate() {
        let op = op as u32;
        let sum_ms = sums.get(&op).map(|&ns| ns as f64 / 1e6);
        if !roots.contains_key(&op)
            || sum_ms.is_none_or(|ms| (ms - wall).abs() > clock_slack_ms(wall))
        {
            bad.insert(op);
        }
    }
    bad.extend(roots.keys().filter(|&&op| op as usize >= wall_ms.len()));
    bad.len()
}

/// The spans as JSON lines (one object per span).
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let op = s.op.map_or("null".to_string(), |o| o.to_string());
        let _ = writeln!(
            out,
            "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
             \"parent\": {parent}, \"op\": {op}}}",
            s.name, s.start, s.end
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Op 0: a root of 20 ms with one 8 ms layer span inside it.
    fn one_op(layer: (u64, u64)) -> Vec<Span> {
        let ms = 1_000_000;
        vec![
            Span { name: OP, start: 0, end: 20 * ms, parent: None, op: Some(0) },
            Span {
                name: "l",
                start: layer.0 * ms,
                end: layer.1 * ms,
                parent: Some(0),
                op: Some(0),
            },
        ]
    }

    #[test]
    fn ops_are_checked_against_the_outside_clock() {
        assert_eq!(inconsistent_ops(&one_op((2, 10)), &[20.5]), 0);
        // Work outside the root span: the outside clock read 30 ms.
        assert_eq!(inconsistent_ops(&one_op((2, 10)), &[30.0]), 1);
        // A layer span that leaves its op.
        assert_eq!(inconsistent_ops(&one_op((15, 23)), &[20.0]), 1);
        // An op with no wall time, and a wall time with no op.
        assert_eq!(inconsistent_ops(&one_op((2, 10)), &[]), 1);
        assert_eq!(inconsistent_ops(&[], &[20.0]), 1);
    }
}
