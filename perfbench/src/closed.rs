//! The closed loop shared by `knn_local`, `routed_large` and
//! `approx_oracle`: one thread per session, back-to-back queries from the
//! shared query stream until the window ends.

use crate::metrics::Record;
use crate::sys::Usage;
use crate::trace::{self, Analysis, Span};
use crate::{cache_delta, io_delta, io_values, stats};
use silc_network::VertexId;
use silc_storage::{CacheStats, IoStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Request ids are unique across the whole run, so trace spans of one
/// query can be grouped.
static NEXT_REQUEST: AtomicU64 = AtomicU64::new(1);

/// One measured window of a closed loop.
#[derive(Debug, Default)]
pub struct Window {
    /// Per-call latency in µs.
    pub latency_us: Vec<f64>,
    /// Window start → last completion, in s.
    pub elapsed_s: f64,
    pub answered: u64,
    pub failed: u64,
}

impl Window {
    pub fn mean_us(&self) -> f64 {
        crate::stats::mean(&self.latency_us)
    }

    pub fn rate(&self) -> f64 {
        self.answered as f64 / self.elapsed_s
    }
}

/// Runs one thread per session for `seconds` (or, traced, until the span
/// budget is spent). Thread `t` takes queries `offset + t`,
/// `offset + t + threads`, … of `queries`; `run` answers one query into
/// the thread's accumulator and reports whether it succeeded.
pub fn run<S, A, R>(
    sessions: &mut [S],
    seconds: f64,
    queries: &[VertexId],
    offset: usize,
    accs: &mut [A],
    run: &R,
) -> Window
where
    S: Send,
    A: Send,
    R: Fn(&mut S, VertexId, &mut A) -> bool + Sync,
{
    let threads = sessions.len();
    let start = Instant::now();
    let deadline = Duration::from_secs_f64(seconds);
    let per_thread: Vec<(Vec<f64>, u64, u64, Duration)> = std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .iter_mut()
            .zip(accs.iter_mut())
            .enumerate()
            .map(|(t, (session, acc))| {
                scope.spawn(move || {
                    let mut lat = Vec::with_capacity(1 << 12);
                    let (mut answered, mut failed) = (0u64, 0u64);
                    let mut i = offset + t;
                    let at = loop {
                        let q = queries[i % queries.len()];
                        i += threads;
                        trace::set_request(NEXT_REQUEST.fetch_add(1, Ordering::Relaxed));
                        let t0 = Instant::now();
                        let ok = run(session, q, acc);
                        let t1 = Instant::now();
                        lat.push((t1 - t0).as_secs_f64() * 1e6);
                        if ok {
                            answered += 1;
                        } else {
                            failed += 1;
                        }
                        let at = t1 - start;
                        if at >= deadline || trace::full() {
                            break at;
                        }
                    };
                    trace::set_request(0);
                    trace::flush();
                    (lat, answered, failed, at)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("closed-loop thread panicked")).collect()
    });
    let mut w = Window::default();
    for (lat, answered, failed, at) in per_thread {
        w.latency_us.extend(lat);
        w.answered += answered;
        w.failed += failed;
        w.elapsed_s = w.elapsed_s.max(at.as_secs_f64());
    }
    w
}

/// The timed part of an untraced closed-loop run: windows with one session
/// (unloaded) alternating with windows with every session (loaded), so a
/// burst of host noise lands in a few windows of both kinds instead of all
/// of one phase.
pub struct Interleaved {
    pub unloaded: Vec<Window>,
    pub loaded: Vec<Window>,
    /// Process CPU and scheduling over all windows.
    pub usage: Usage,
}

/// Runs `windows` unloaded and `windows` loaded windows, alternating, in
/// `seconds` in all.
pub fn interleaved<S, A, R>(
    sessions: &mut [S],
    seconds: f64,
    windows: usize,
    queries: &[VertexId],
    accs: &mut [A],
    run: &R,
) -> Interleaved
where
    S: Send,
    A: Send,
    R: Fn(&mut S, VertexId, &mut A) -> bool + Sync,
{
    let per = seconds / (2 * windows) as f64;
    let usage0 = Usage::now();
    let (mut unloaded, mut loaded) = (Vec::new(), Vec::new());
    for w in 0..windows {
        let offset = 2 * w * (queries.len() / (2 * windows));
        unloaded.push(self::run(&mut sessions[..1], per, queries, offset, &mut accs[..1], run));
        let offset = offset + queries.len() / (2 * windows);
        loaded.push(self::run(sessions, per, queries, offset, accs, run));
    }
    Interleaved { unloaded, loaded, usage: Usage::now().since(usage0) }
}

/// The counters a traced phase brackets: the pool the workload reads, its
/// cache of decoded entries (or oracle pairs), and a second pool where
/// there is one (the frontier tier).
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub io: IoStats,
    pub cache: CacheStats,
    pub tier: IoStats,
}

impl Counters {
    fn since(self, before: Counters) -> Counters {
        Counters {
            io: io_delta(self.io, before.io),
            cache: cache_delta(self.cache, before.cache),
            tier: io_delta(self.tier, before.tier),
        }
    }
}

/// What the traced phase of a closed loop measured.
pub struct Traced {
    /// The untraced phase run just before it, for `trace.overhead_frac`.
    pub base: Window,
    pub phase: Window,
    /// Counter deltas over the traced phase.
    pub counters: Counters,
    pub usage: Usage,
    pub spans: Vec<Span>,
}

/// Runs one session for half of `seconds` untraced and then for the other
/// half traced, reading `counters` around the traced half.
pub fn traced<S, A, R>(
    sessions: &mut [S],
    seconds: f64,
    queries: &[VertexId],
    accs: &mut [A],
    run: &R,
    counters: impl Fn() -> Counters,
) -> Traced
where
    S: Send,
    A: Send + Default,
    R: Fn(&mut S, VertexId, &mut A) -> bool + Sync,
{
    let half = seconds / 2.0;
    let one = &mut sessions[..1];
    let base = self::run(one, half, queries, 1 << 14, &mut [A::default()], run);
    let before = counters();
    let usage0 = Usage::now();
    trace::enable(true);
    trace::snapshot("traced_phase_start", io_values(&before.io));
    let phase = self::run(one, half, queries, 1 << 15, &mut accs[..1], run);
    let after = counters();
    trace::snapshot("traced_phase_end", io_values(&after.io));
    trace::enable(false);
    let usage = Usage::now().since(usage0);
    Traced { base, phase, counters: after.since(before), usage, spans: trace::collected() }
}

impl Traced {
    /// Calls made in the traced phase.
    pub fn queries(&self) -> u64 {
        self.phase.answered + self.phase.failed
    }

    /// `total` spread over the traced phase's calls.
    pub fn per_query(&self, total: f64) -> f64 {
        total / self.queries().max(1) as f64
    }

    /// Writes the metrics every closed-loop workload shares, for calls
    /// traced as spans named `call` (`<layer>.<op>`): the call's median
    /// latency `<call>_us`, its layer's self time, the storage and process
    /// metrics, the tracing overhead, and the attempted and failed tallies.
    pub fn record_shared(&self, rec: &mut Record, call: &str) {
        let a = Analysis::new(&self.spans);
        let layer = call.split('.').next().unwrap_or(call);
        let busy_us = a.total_us(call);
        rec.set(&format!("{call}_us"), stats::median(&a.durations_us(call)));
        rec.set(&format!("{layer}.self_us_per_query"), self.per_query(a.self_us(call)));
        rec.set("storage.self_us_per_query", self.per_query(a.total_us("storage.read")));
        crate::storage_metrics(rec, &self.counters.io, self.queries(), busy_us);
        crate::process_metrics(rec, &self.usage, self.queries());
        crate::overhead(rec, self.phase.mean_us(), self.base.mean_us());
        for w in [&self.base, &self.phase] {
            rec.attempted += w.answered + w.failed;
            rec.failed += w.failed;
        }
    }
}
