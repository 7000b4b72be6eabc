//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around the public calls it makes
//! into the workspace crates: name, start, end, parent span and request
//! id. They stay in memory until the run ends and are then written out
//! as JSON lines. A span's *self time* is its duration minus the part of
//! its interval covered by its children; children of one parent may run
//! on parallel workers and overlap, so their intervals are merged before
//! they are subtracted.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub req: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span; `f` receives the span's id so that work it
    /// hands to other threads can name it as parent.
    pub fn span<T>(
        &self,
        parent: Option<SpanId>,
        name: &str,
        req: u64,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let id = {
            let mut spans = self.spans.lock().expect("span list lock");
            spans.push(Span {
                name: name.to_string(),
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                req,
            });
            spans.len() - 1
        };
        let out = f(id);
        let end = self.now_ns();
        self.spans.lock().expect("span list lock")[id].end_ns = end;
        out
    }

    /// Record a span measured elsewhere (for example a request's round
    /// trip timed by a client thread).
    pub fn record(
        &self,
        parent: Option<SpanId>,
        name: &str,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.lock().expect("span list lock").push(Span {
            name: name.to_string(),
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            req,
        });
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock").clone()
    }
}

/// Run `f` in a span when tracing, or just run it.
pub fn maybe<T>(
    tracer: Option<&Tracer>,
    parent: Option<SpanId>,
    name: &str,
    req: u64,
    f: impl FnOnce(Option<SpanId>) -> T,
) -> T {
    match tracer {
        Some(t) => t.span(parent, name, req, |id| f(Some(id))),
        None => f(None),
    }
}

/// Self time of every span, in span order.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            dur.saturating_sub(covered(s.start_ns, s.end_ns, kids))
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered(lo: u64, hi: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (a, b) in intervals {
        let (a, b) = (a.max(cursor), b.min(hi));
        if b > a {
            total += b - a;
            cursor = b;
        }
    }
    total
}

/// Per-name totals: call count, summed duration and summed self time (ns).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<String, NameTotals> {
    let mut out: BTreeMap<String, NameTotals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name.clone()).or_default();
        t.calls += 1;
        t.total_ns += s.end_ns.saturating_sub(s.start_ns);
        t.self_ns += own;
    }
    out
}

/// JSON lines, one span per line, times in microseconds from run start.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for ((id, s), own) in spans.iter().enumerate().zip(self_times(spans)) {
        out.push_str(&format!(
            "{{\"id\":{id},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3},\"parent\":{},\"req\":{}}}\n",
            s.name,
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3,
            own as f64 / 1e3,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.req
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // two parallel workers under one parent: [10,60) and [30,80)
        // overlap, so together they cover [10,80) = 70 of the parent's 100
        let spans = vec![
            span("suite", 0, 100, None),
            span("build", 10, 60, Some(0)),
            span("build", 30, 80, Some(0)),
            span("leaf", 40, 50, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 50, 40, 10]);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        // a child that outlives its parent (a detached worker) covers at
        // most the parent's own interval
        let spans = vec![
            span("outer", 100, 200, None),
            span("inner", 50, 150, Some(0)),
            span("inner", 180, 400, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn nested_children_only_count_against_their_direct_parent() {
        let spans = vec![
            span("a", 0, 100, None),
            span("b", 0, 100, Some(0)),
            span("c", 0, 100, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![0, 0, 100]);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["c"].self_ns, 100);
        assert_eq!(totals["a"].total_ns, 100);
    }

    #[test]
    fn recorded_spans_nest_under_their_parent() {
        let t = Tracer::default();
        let got = t.span(None, "outer", 7, |outer| {
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| t.span(Some(outer), "worker", 7, |_| std::hint::black_box(1)));
                }
            });
            outer
        });
        let spans = t.spans();
        assert_eq!(got, 0);
        assert_eq!(spans.len(), 3);
        assert!(spans[1..].iter().all(|s| s.parent == Some(0) && s.req == 7));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let lines = to_json_lines(&spans);
        assert_eq!(lines.lines().count(), 3);
    }
}
