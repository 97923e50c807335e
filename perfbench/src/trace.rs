//! Spans recorded by the benchmark around its own calls into each layer.
//! Nothing inside the program is instrumented: a span covers one public
//! call, from the caller's side. Spans stay in memory until the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique within the run, starting at 1.
    pub id: u64,
    /// The span that made this call, if any.
    pub parent: Option<u64>,
    /// Shared by every span of one request (0 for work that is no request).
    pub request: u64,
    /// The layer call, e.g. `gateway.estimate`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was made.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was made.
    pub end_ns: u64,
}

/// An in-memory span recorder that can be switched off, in which case
/// [`Tracer::span`] only runs the call.
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Switch recording on or off for the calls that follow.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Run `call`, recording a span named `name` around it when recording
    /// is on. `call` receives the new span's id, to pass as the parent of
    /// the spans it makes.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        call: impl FnOnce(Option<u64>) -> T,
    ) -> T {
        if !self.enabled.load(Ordering::Relaxed) {
            return call(None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = call(Some(id));
        let end_ns = self.now_ns();
        self.spans.lock().expect("span log poisoned").push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far, ordered by start.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span log poisoned").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    /// Write the spans as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Summed self time per span name, in ns. A span's self time is its
/// duration minus the length of the union of its children's intervals,
/// each clipped to the span, so overlapping children are not subtracted
/// twice.
pub fn self_ns_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans {
        let duration = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        *totals.entry(s.name).or_default() += duration - covered.min(duration);
    }
    totals
}

/// Length of the union of `intervals` within `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span(1, None, "estimators.train", 0, 100),
            // Two overlapping children cover [10, 50]: 40 ns, not 50.
            span(2, Some(1), "reduction.reduce", 10, 40),
            span(3, Some(1), "reduction.reduce", 20, 50),
            // A child running past its parent counts only inside it.
            span(4, Some(1), "snapshot.fit", 90, 130),
        ];
        let t = self_ns_by_name(&spans);
        assert_eq!(t["estimators.train"], 100 - 40 - 10);
        assert_eq!(t["reduction.reduce"], 30 + 30);
        assert_eq!(t["snapshot.fit"], 40);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = [
            span(1, None, "a", 0, 100),
            span(2, Some(1), "b", 0, 60),
            span(3, Some(2), "c", 0, 60),
        ];
        let t = self_ns_by_name(&spans);
        assert_eq!(t["a"], 40);
        assert_eq!(t["b"], 0);
        assert_eq!(t["c"], 60);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_parents_nest() {
        let tracer = Tracer::default();
        assert_eq!(tracer.span("x", None, 0, |id| id), None);
        assert!(tracer.spans().is_empty());
        tracer.set_enabled(true);
        tracer.span("outer", None, 7, |outer| {
            tracer.span("inner", outer, 7, |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.request, outer.request);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }
}
