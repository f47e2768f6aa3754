//! The traced run's recorder: spans around every call the benchmark makes
//! into a layer, counter snapshots at phase boundaries, both kept in memory
//! and written out when the run ends.
//!
//! A span has a name (the layer-metric prefix, e.g. `query.knn`), a start
//! and an end on one process-wide clock, its parent (the span open on the
//! same thread when it began), and the id of the request it belongs to.
//! Threads buffer their own spans and hand them over when they exit or
//! call [`flush`], so recording takes no lock on the hot path.
//!
//! Storage and oracle spans come from wrappers around the engine's public
//! seams ([`TracingStore`] around a `PageStore`, [`TracingOracle`] around an
//! `ApproxDistanceOracle`), installed only in traced runs.

use silc::QueryError;
use silc_network::VertexId;
use silc_query::ApproxDistanceOracle;
use silc_storage::{PageId, PageStore};
use std::cell::RefCell;
use std::collections::HashMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Most spans one run records. A traced phase ends early when the budget
/// is spent, so every query it counts is traced in full and the trace file
/// stays a few tens of MB.
pub const MAX_SPANS: usize = 250_000;

static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDED: AtomicUsize = AtomicUsize::new(0);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static SNAPSHOTS: Mutex<Vec<Snapshot>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds on the trace clock.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// The trace-clock reading of `t`.
pub fn ns_of(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// `0` for a root span.
    pub parent: u64,
    /// `0` when the span serves no single request (setup, server threads).
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub thread: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

/// Named counter values read at one boundary.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub at_ns: u64,
    pub label: String,
    pub values: Vec<(&'static str, f64)>,
}

struct Local {
    thread: u64,
    stack: Vec<u64>,
    request: u64,
    buf: Vec<Span>,
}

impl Drop for Local {
    fn drop(&mut self) {
        // A poisoned recorder loses this thread's spans rather than
        // panicking in a destructor.
        if let Ok(mut spans) = SPANS.lock() {
            spans.append(&mut self.buf);
        }
    }
}

const POISONED: &str = "a thread panicked while recording spans";

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        stack: Vec::new(),
        request: 0,
        buf: Vec::new(),
    });
}

pub fn enable(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Whether the span budget is spent.
pub fn full() -> bool {
    RECORDED.load(Ordering::Relaxed) >= MAX_SPANS
}

/// Claims one span of the budget.
fn claim() -> bool {
    enabled() && RECORDED.fetch_add(1, Ordering::Relaxed) < MAX_SPANS
}

/// Tags every span this thread opens from now on with request `id`.
pub fn set_request(id: u64) {
    if enabled() {
        LOCAL.with(|l| l.borrow_mut().request = id);
    }
}

/// An open span; closes when dropped.
pub struct Guard {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
}

/// Opens a span named `name` under this thread's innermost open span, or
/// does nothing when tracing is off.
pub fn span(name: &'static str) -> Option<Guard> {
    if !claim() {
        return None;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let parent = l.stack.last().copied().unwrap_or(0);
        l.stack.push(id);
        parent
    });
    Some(Guard { id, parent, name, start_ns: now_ns() })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end_ns = now_ns();
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            l.stack.pop();
            let span = Span {
                id: self.id,
                parent: self.parent,
                request: l.request,
                name: self.name,
                start_ns: self.start_ns,
                end_ns,
                thread: l.thread,
            };
            l.buf.push(span);
        });
    }
}

/// Records a finished span with explicit bounds (for intervals measured
/// across threads, such as a batch's scheduled send to its last answer).
pub fn record(name: &'static str, start_ns: u64, end_ns: u64, request: u64) {
    if !claim() {
        return;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let span = Span {
            id,
            parent: l.stack.last().copied().unwrap_or(0),
            request,
            name,
            start_ns,
            end_ns,
            thread: l.thread,
        };
        l.buf.push(span);
    });
}

/// Records counter values read at a boundary named `label`.
pub fn snapshot(label: &str, values: Vec<(&'static str, f64)>) {
    if enabled() {
        let s = Snapshot { at_ns: now_ns(), label: label.to_string(), values };
        SNAPSHOTS.lock().expect(POISONED).push(s);
    }
}

/// Hands this thread's buffered spans to the process-wide list.
pub fn flush() {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if !l.buf.is_empty() {
            let mut buf = std::mem::take(&mut l.buf);
            SPANS.lock().expect(POISONED).append(&mut buf);
        }
    });
}

/// A copy of every span recorded so far (this thread flushed first).
pub fn collected() -> Vec<Span> {
    flush();
    SPANS.lock().expect(POISONED).clone()
}

/// Everything recorded so far (this thread flushed first); the recorder is
/// left empty.
pub fn take() -> (Vec<Span>, Vec<Snapshot>) {
    flush();
    RECORDED.store(0, Ordering::Relaxed);
    let spans = std::mem::take(&mut *SPANS.lock().expect(POISONED));
    let snaps = std::mem::take(&mut *SNAPSHOTS.lock().expect(POISONED));
    (spans, snaps)
}

/// Writes spans and snapshots as JSON lines.
pub fn write(path: &Path, spans: &[Span], snaps: &[Snapshot]) -> io::Result<()> {
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"span\":\"{}\",\"id\":{},\"parent\":{},\"request\":{},\"start_ns\":{},\
             \"end_ns\":{},\"thread\":{}}}",
            s.name, s.id, s.parent, s.request, s.start_ns, s.end_ns, s.thread
        )?;
    }
    for s in snaps {
        let values: Vec<String> = s.values.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        writeln!(
            out,
            "{{\"snapshot\":\"{}\",\"at_ns\":{},\"values\":{{{}}}}}",
            s.label,
            s.at_ns,
            values.join(",")
        )?;
    }
    out.flush()
}

/// Span statistics by name.
pub struct Analysis<'a> {
    spans: &'a [Span],
    child_ns: HashMap<u64, u64>,
}

impl<'a> Analysis<'a> {
    pub fn new(spans: &'a [Span]) -> Self {
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *child_ns.entry(s.parent).or_default() += s.end_ns.saturating_sub(s.start_ns);
        }
        Analysis { spans, child_ns }
    }

    fn named(&self, name: &str) -> impl Iterator<Item = &'a Span> + '_ {
        let name = name.to_string();
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Durations in µs, sorted.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        let mut v: Vec<f64> = self.named(name).map(Span::us).collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Total self time of spans named `name`, in µs: each span's duration
    /// less the durations of its direct children.
    pub fn self_us(&self, name: &str) -> f64 {
        self.named(name)
            .map(|s| {
                let own = s.end_ns.saturating_sub(s.start_ns);
                own.saturating_sub(self.child_ns.get(&s.id).copied().unwrap_or(0)) as f64 / 1e3
            })
            .sum()
    }

    pub fn total_us(&self, name: &str) -> f64 {
        self.named(name).map(Span::us).sum()
    }

    /// The distinct span names, for the record.
    pub fn names(&self) -> Vec<&'static str> {
        let mut v: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// A page store whose every read is a `storage.read` span.
pub struct TracingStore<S: PageStore>(pub S);

impl<S: PageStore> PageStore for TracingStore<S> {
    fn read_page(&self, page: PageId) -> io::Result<Arc<[u8]>> {
        let _s = span("storage.read");
        self.0.read_page(page)
    }

    fn page_count(&self) -> u64 {
        self.0.page_count()
    }

    fn read_pages(&self, first: PageId, count: usize) -> io::Result<Vec<Arc<[u8]>>> {
        let _s = span("storage.read");
        self.0.read_pages(first, count)
    }
}

/// An oracle whose every distance probe is a `pcp.probe` span.
pub struct TracingOracle<'a, O: ?Sized>(pub &'a O);

impl<O: ApproxDistanceOracle + ?Sized> ApproxDistanceOracle for TracingOracle<'_, O> {
    fn distance(&self, u: VertexId, v: VertexId) -> f64 {
        let _s = span("pcp.probe");
        self.0.distance(u, v)
    }

    fn epsilon(&self) -> f64 {
        self.0.epsilon()
    }

    fn distance_with_epsilon(&self, u: VertexId, v: VertexId) -> (f64, f64) {
        let _s = span("pcp.probe");
        self.0.distance_with_epsilon(u, v)
    }

    fn try_distance_with_epsilon(
        &self,
        u: VertexId,
        v: VertexId,
    ) -> Result<(f64, f64), QueryError> {
        let _s = span("pcp.probe");
        self.0.try_distance_with_epsilon(u, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_carry_requests_and_yield_self_time() {
        enable(true);
        take();
        set_request(7);
        {
            let _outer = span("query.knn");
            std::thread::sleep(std::time::Duration::from_millis(2));
            let _inner = span("storage.read");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        set_request(0);
        enable(false);
        assert!(span("query.knn").is_none(), "spans are free when tracing is off");
        let (spans, _) = take();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "query.knn").unwrap();
        let inner = spans.iter().find(|s| s.name == "storage.read").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!((outer.request, inner.request), (7, 7));
        let a = Analysis::new(&spans);
        let self_us = a.self_us("query.knn");
        assert!((self_us - (outer.us() - inner.us())).abs() < 1e-6);
        assert!(self_us >= 1_500.0 && a.total_us("storage.read") >= 1_500.0);
    }
}
