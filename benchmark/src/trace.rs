//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer: `workload → repetition → op → public call`. A
//! [`Tracer`] that is off costs one predictable branch per call, which
//! is how the untraced repetitions run. Each thread records into its
//! own tracer; [`Tracer::absorb`] merges a finished thread's spans under
//! the span that spawned it.

use lmpr_bench::{json_f64, json_string};
use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span inside one [`Tracer`].
pub type SpanId = u32;

/// "No parent" marker.
pub const ROOT: SpanId = u32::MAX;

/// One recorded interval, in nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// Operation index inside the repetition (`u32::MAX` outside ops).
    pub op: u32,
}

/// Span recorder; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<SpanId>,
    /// For a thread tracer: the spawning tracer's span that its
    /// top-level spans hang under once absorbed.
    base_parent: SpanId,
    op: u32,
}

impl Tracer {
    /// A tracer that records nothing until [`Tracer::set_on`].
    pub fn new() -> Self {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            base_parent: ROOT,
            op: u32::MAX,
        }
    }

    /// A tracer for another thread: same clock origin and on/off state,
    /// top-level spans parented to this tracer's innermost open span.
    pub fn for_thread(&self) -> Tracer {
        Tracer {
            on: self.on,
            origin: self.origin,
            spans: Vec::new(),
            stack: Vec::new(),
            base_parent: self.stack.last().copied().unwrap_or(ROOT),
            op: u32::MAX,
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Operation index stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span (no-op when off).
    #[inline]
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let id = self.spans.len() as SpanId;
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.op,
        });
        self.stack.push(id);
    }

    /// Close the innermost open span (no-op when off).
    #[inline]
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        if let Some(id) = self.stack.pop() {
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span named `name`.
    #[inline]
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Merge a thread tracer made by [`Tracer::for_thread`]: its
    /// top-level spans hang under the span that was open when the thread
    /// tracer was made, deeper ones are re-based onto this tracer's
    /// indices.
    pub fn absorb(&mut self, child: Tracer) {
        let offset = self.spans.len() as SpanId;
        for mut s in child.spans {
            s.parent = if s.parent == ROOT {
                child.base_parent
            } else {
                s.parent + offset
            };
            self.spans.push(s);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (children may overlap one another when
/// they ran on different threads, so the union is taken, clipped to the
/// parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            let p = &spans[s.parent as usize];
            let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if hi > lo {
                children[s.parent as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Count, total and self time per span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut by_name: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let e = by_name.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.end_ns - s.start_ns;
        e.self_ns += self_ns;
    }
    by_name
}

/// The trace document: a name table, the per-name summary, and one
/// `[name, start_ns, end_ns, parent, op]` row per span (`-1` = none).
pub fn to_json(spans: &[Span]) -> String {
    let summary = summarize(spans);
    let names: Vec<&'static str> = summary.keys().copied().collect();
    let index: BTreeMap<&str, usize> = names.iter().enumerate().map(|(i, n)| (*n, i)).collect();
    let mut out = String::from("{\n  \"names\": [");
    for (i, n) in names.iter().enumerate() {
        out.push_str(if i == 0 { "" } else { ", " });
        out.push_str(&json_string(n));
    }
    out.push_str("],\n  \"summary\": {");
    for (i, (name, t)) in summary.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    {}: {{\"count\": {}, \"total_us\": {}, \"self_us\": {}}}",
            json_string(name),
            t.count,
            json_f64(t.total_ns as f64 / 1e3),
            json_f64(t.self_ns as f64 / 1e3)
        ));
    }
    out.push_str("\n  },\n  \"columns\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"op\"],\n  \"spans\": [");
    let signed = |x: u32| if x == u32::MAX { -1 } else { i64::from(x) };
    for (i, s) in spans.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    [{}, {}, {}, {}, {}]",
            index[s.name],
            s.start_ns,
            s.end_ns,
            signed(s.parent),
            signed(s.op)
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: u32::MAX,
        }
    }

    #[test]
    fn self_time_is_duration_minus_the_union_of_children() {
        let spans = vec![
            span("op", 0, 100, ROOT),
            span("a", 10, 40, 0),
            // Overlaps `a` (another thread): the union 10..60 counts once.
            span("b", 30, 60, 0),
            span("leaf", 15, 20, 1),
            // Sticks out of the parent: only 90..100 is inside.
            span("late", 90, 130, 0),
        ];
        assert_eq!(self_times(&spans), vec![40, 25, 30, 5, 40]);
        let sum = summarize(&spans);
        assert_eq!(
            sum["op"],
            NameTotals {
                count: 1,
                total_ns: 100,
                self_ns: 40
            }
        );
    }

    #[test]
    fn an_off_tracer_records_nothing_and_an_on_tracer_nests() {
        let mut t = Tracer::new();
        assert_eq!(t.call("x", || 7), 7);
        assert!(t.spans().is_empty());
        t.set_on(true);
        t.enter("rep");
        t.set_op(3);
        t.call("op", || ());
        let mut th = t.for_thread();
        th.enter("client");
        th.call("request", || ());
        th.exit();
        t.exit();
        t.absorb(th);
        let s = t.spans();
        assert_eq!(
            s.iter().map(|s| s.name).collect::<Vec<_>>(),
            ["rep", "op", "client", "request"]
        );
        assert_eq!(s[0].parent, ROOT);
        assert_eq!((s[1].parent, s[1].op), (0, 3));
        // The thread's top-level span hangs under `rep`; its child is
        // re-based past the two spans already recorded.
        assert_eq!(s[2].parent, 0);
        assert_eq!(s[3].parent, 2);
        assert!(s.iter().all(|s| s.end_ns >= s.start_ns));
        let doc = to_json(s);
        assert!(lmpr_bench::jsonio::parse(&doc).is_ok());
    }
}
