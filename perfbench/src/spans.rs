//! In-memory span recorder for the traced run.
//!
//! A span is one timed call into a layer: name, start, end, the span that
//! caused it, and the thread it ran on. Spans are kept in memory and
//! written out once the run ends. A layer's self time is its span's
//! duration minus the part of that interval covered by its children on the
//! same thread; children on other threads (pool workers) ran in parallel
//! and are reported as busy time, not subtracted.
//!
//! A disabled recorder runs the closure and records nothing, so the
//! untraced passes pay one branch per call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the recorder's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// Open spans of this thread, innermost last: the implicit parent.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// Small dense id of this thread, assigned on first span.
    static THREAD: u64 = {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The innermost open span of the calling thread.
    pub fn current(&self) -> Option<u64> {
        OPEN.with(|open| open.borrow().last().copied())
    }

    /// Runs `f` inside a span named `name`, child of the calling thread's
    /// innermost open span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span_under(None, name, f)
    }

    /// [`Tracer::span`] for calls that may run on a pool worker: when the
    /// calling thread has no open span, `fallback` (the submitting span)
    /// becomes the parent.
    pub fn span_under<R>(
        &self,
        fallback: Option<u64>,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.enabled {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.current().or(fallback);
        OPEN.with(|open| open.borrow_mut().push(id));
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        OPEN.with(|open| open.borrow_mut().pop());
        let span = Span {
            id,
            parent,
            name,
            thread: THREAD.with(|t| *t),
            start_ns,
            end_ns,
        };
        self.spans.lock().expect("span list poisoned").push(span);
        out
    }

    /// Every span recorded so far, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span list poisoned").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }
}

/// Self time of every span: duration minus the union of its same-thread
/// children's intervals.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    let thread_of: BTreeMap<u64, u64> = spans.iter().map(|s| (s.id, s.thread)).collect();
    for s in spans {
        if let Some(parent) = s.parent {
            if thread_of.get(&parent) == Some(&s.thread) {
                children
                    .entry(parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// The closure check of one traced run: per-layer self times on the
/// root's thread, and how well they account for the root's wall time.
pub struct Closure {
    /// Self seconds per span name on the root's thread (the root's own
    /// self time is listed as `unattributed`).
    pub self_s: BTreeMap<&'static str, f64>,
    /// `|Σ self − wall| / wall`: non-zero only if spans overlap on one
    /// thread or escape their parent, i.e. the breakdown double-counts.
    pub error: f64,
    /// Share of the wall time inside no layer span.
    pub unattributed: f64,
    pub wall_s: f64,
}

/// Largest closure error accepted: self times are whole nanoseconds, so
/// only overlapping or escaping spans can get near it.
pub const CLOSURE_TOLERANCE: f64 = 0.001;
/// Largest share of the wall time the harness may spend outside every
/// layer span before the breakdown counts as incomplete.
pub const UNATTRIBUTED_TOLERANCE: f64 = 0.05;

impl Closure {
    pub fn holds(&self) -> bool {
        self.error <= CLOSURE_TOLERANCE && self.unattributed <= UNATTRIBUTED_TOLERANCE
    }
}

/// Derives the closure of the tree under `root` on the root's thread.
pub fn closure(spans: &[Span], root: u64) -> Closure {
    let selfs = self_times(spans);
    let root_span = spans
        .iter()
        .find(|s| s.id == root)
        .expect("root span recorded");
    let mut in_tree: BTreeMap<u64, bool> = BTreeMap::new();
    in_tree.insert(root, true);
    let mut self_s: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut sum = 0u64;
    // Spans are start-ordered, so a parent is classified before its child.
    for s in spans {
        let member = s.id == root
            || (s.thread == root_span.thread
                && s.parent.is_some_and(|p| in_tree.get(&p) == Some(&true)));
        in_tree.insert(s.id, member);
        if !member {
            continue;
        }
        let own = selfs[&s.id];
        sum += own;
        let name = if s.id == root { "unattributed" } else { s.name };
        *self_s.entry(name).or_default() += own as f64 / 1e9;
    }
    let wall = root_span.duration_ns() as f64;
    Closure {
        error: (sum as f64 - wall).abs() / wall,
        unattributed: selfs[&root] as f64 / wall,
        wall_s: wall / 1e9,
        self_s,
    }
}

/// The span list as JSON, one object per span.
pub fn to_json(spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.thread,
                s.start_ns,
                s.end_ns
            )
        })
        .collect();
    format!("[\n{}\n]", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, thread: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "layer",
            thread,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_same_thread_children() {
        let spans = [
            span(1, None, 0, 0, 100),
            // Overlapping children on the root's thread cover [10, 50).
            span(2, Some(1), 0, 10, 40),
            span(3, Some(1), 0, 30, 50),
            // A child on a pool worker ran in parallel: not subtracted.
            span(4, Some(1), 1, 0, 90),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 60);
        assert_eq!(selfs[&2], 30);
        assert_eq!(selfs[&4], 90);
    }

    #[test]
    fn closure_sums_self_times_on_the_root_thread() {
        let spans = [
            span(1, None, 0, 0, 1000),
            span(2, Some(1), 0, 0, 600),
            span(3, Some(2), 0, 100, 200),
            span(4, Some(1), 0, 600, 990),
            span(5, Some(2), 1, 0, 600),
        ];
        let tree = closure(&spans, 1);
        assert_eq!(tree.error, 0.0);
        assert!((tree.unattributed - 0.01).abs() < 1e-12);
        assert!(tree.holds());
        // Nesting that escapes the parent double-counts and is caught.
        let escaping = [span(1, None, 0, 0, 100), span(2, Some(1), 0, 50, 150)];
        assert!(!closure(&escaping, 1).holds());
    }
}
