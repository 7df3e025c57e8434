//! In-memory span recorder for the traced run.
//!
//! Every call the benchmark makes into a toolkit crate goes through
//! [`Tracer::span`]; every benchmark operation (a Table 1 flow, a served
//! job, a Section 4 screen) goes through [`Tracer::op`]. Spans carry a
//! name, start, end, parent and the id of the operation they belong to.
//! They are buffered in memory and read once when the run ends. With the
//! tracer switched off a span is one relaxed atomic load, and the
//! operations still time themselves, because the end-to-end metrics
//! need their wall time.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique id (≥ 1).
    pub id: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    /// Id of the operation (root span) this span belongs to, 0 if none.
    pub op: u64,
    /// `layer.call` for crate calls, `op.kind` for operations.
    pub name: &'static str,
    /// Start, ns since epoch.
    pub start_ns: u64,
    /// End, ns since epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    #[must_use]
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Span recorder shared by every thread of a run.
pub struct Tracer {
    on: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// Open spans of this thread: `(span id, op id)`.
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

impl Tracer {
    /// A recorder, initially on or off.
    #[must_use]
    pub fn new(on: bool) -> Self {
        Self {
            on: AtomicBool::new(on),
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Switches recording on or off for the calls that follow.
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Runs `f` inside a span named `name` (a call into one crate).
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.is_on() {
            return f();
        }
        let start = Instant::now();
        let (id, parent, op) = self.open(false);
        let out = f();
        self.close(name, id, parent, op, start, Instant::now());
        out
    }

    /// Runs `f` as one benchmark operation and returns its wall time in
    /// seconds. When recording, the operation is a root span whose id
    /// becomes the operation id of every span opened inside it.
    pub fn op<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        if !self.is_on() {
            let start = Instant::now();
            let out = f();
            return (out, start.elapsed().as_secs_f64());
        }
        let start = Instant::now();
        let (id, parent, op) = self.open(true);
        let out = f();
        let end = Instant::now();
        self.close(name, id, parent, op, start, end);
        (out, (end - start).as_secs_f64())
    }

    fn open(&self, is_op: bool) -> (u64, u64, u64) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            let (parent, inherited) = s.last().copied().unwrap_or((0, 0));
            let op = if is_op { id } else { inherited };
            s.push((id, op));
            (id, parent, op)
        })
    }

    fn close(&self, name: &'static str, id: u64, parent: u64, op: u64, start: Instant, end: Instant) {
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
        let span = Span {
            id,
            parent,
            op,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).push(span);
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every span recorded so far, ordered by start time.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().unwrap_or_else(|e| e.into_inner()).clone();
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }
}

/// Measured cost of recording one span (open, close, store), seconds:
/// the median over a few batches of empty spans on a scratch tracer.
#[must_use]
pub fn span_cost_s() -> f64 {
    const BATCH: u32 = 20_000;
    let mut per = Vec::new();
    for _ in 0..5 {
        let tr = Tracer::new(true);
        let start = Instant::now();
        for _ in 0..BATCH {
            tr.span("trace.calibrate", || ());
        }
        per.push(start.elapsed().as_secs_f64() / f64::from(BATCH));
    }
    crate::report::median(&per)
}

/// Summed duration, in seconds, of every span named `name`.
#[must_use]
pub fn total(spans: &[Span], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).map(Span::secs).sum()
}

/// Summed duration of spans named `name` that belong to operations
/// named `op_name`.
#[must_use]
pub fn total_in_op(spans: &[Span], name: &str, op_name: &str) -> f64 {
    let ops: std::collections::HashSet<u64> = spans
        .iter()
        .filter(|s| s.name == op_name && s.op == s.id)
        .map(|s| s.id)
        .collect();
    spans
        .iter()
        .filter(|s| s.name == name && s.id != s.op && ops.contains(&s.op))
        .map(Span::secs)
        .sum()
}

/// Number of spans named `name`.
#[must_use]
pub fn count(spans: &[Span], name: &str) -> usize {
    spans.iter().filter(|s| s.name == name).count()
}

/// `(operation wall time, part of it no inner span covers)`, both in
/// seconds, summed over every operation in `spans`.
#[must_use]
pub fn coverage(spans: &[Span]) -> (f64, f64) {
    let mut inner: std::collections::HashMap<u64, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for s in spans.iter().filter(|s| s.op != 0 && s.op != s.id) {
        inner.entry(s.op).or_default().push((s.start_ns, s.end_ns));
    }
    let mut wall = 0u64;
    let mut uncovered = 0u64;
    for root in spans.iter().filter(|s| s.op == s.id) {
        let dur = root.end_ns - root.start_ns;
        let mut iv = inner.remove(&root.id).unwrap_or_default();
        iv.sort_unstable();
        let mut covered = 0u64;
        let mut cursor = root.start_ns;
        for (a, b) in iv {
            let a = a.max(cursor);
            let b = b.min(root.end_ns);
            if b > a {
                covered += b - a;
                cursor = b;
            }
        }
        wall += dur;
        uncovered += dur - covered.min(dur);
    }
    (wall as f64 * 1e-9, uncovered as f64 * 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_their_operation() {
        let tr = Tracer::new(true);
        let ((), _) = tr.op("op.a", || {
            tr.span("x.one", || tr.span("x.two", || ()));
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.name == "op.a").unwrap();
        let one = spans.iter().find(|s| s.name == "x.one").unwrap();
        let two = spans.iter().find(|s| s.name == "x.two").unwrap();
        assert_eq!(root.op, root.id);
        assert_eq!((one.parent, one.op), (root.id, root.id));
        assert_eq!((two.parent, two.op), (one.id, root.id));
    }

    #[test]
    fn off_records_nothing_but_still_times_ops() {
        let tr = Tracer::new(false);
        let (v, secs) = tr.op("op.a", || tr.span("x.one", || 7));
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn coverage_counts_gaps_once() {
        let mk = |id, parent, op, name, start_ns, end_ns| Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns,
        };
        let spans = vec![
            mk(1, 0, 1, "op.a", 0, 100),
            mk(2, 1, 1, "x.one", 10, 50),
            mk(3, 2, 1, "x.two", 20, 40),
            mk(4, 1, 1, "x.three", 45, 90),
        ];
        let (wall, gap) = coverage(&spans);
        assert!((wall - 100e-9).abs() < 1e-15);
        assert!((gap - 20e-9).abs() < 1e-15, "gap {gap}");
    }
}
