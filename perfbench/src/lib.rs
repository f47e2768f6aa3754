//! One benchmark for the SILC engine, from the query session to the socket.
//!
//! Four workloads share one seeded generator ([`gen`]); each measures the
//! engine only through its public functions and the statistics its layers
//! already export, and checks a sample of its answers against an exact
//! reference outside the timed window. An untraced run reports the
//! end-to-end metrics; a traced run ([`trace`]) reports the per-layer ones.
//! The README next to this crate is the metric dictionary.

pub mod gen;
pub mod metrics;
pub mod stats;
pub mod sys;
pub mod trace;

mod approx;
mod closed;
mod local;
mod routed;
mod served;

use metrics::Record;
use silc_storage::{CacheStats, IoStats};
use std::path::PathBuf;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    KnnLocal,
    KnnServed,
    RoutedLarge,
    ApproxOracle,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::KnnLocal, Workload::KnnServed, Workload::RoutedLarge, Workload::ApproxOracle];

    pub fn name(self) -> &'static str {
        match self {
            Workload::KnnLocal => "knn_local",
            Workload::KnnServed => "knn_served",
            Workload::RoutedLarge => "routed_large",
            Workload::ApproxOracle => "approx_oracle",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The per-layer metrics this workload's traced run does not measure,
    /// because it never calls into what they measure: whole layers by name,
    /// single metrics by full name. They are reported as 0; every other
    /// per-layer metric must be measured.
    pub fn idle(self) -> &'static [&'static str] {
        match self {
            Workload::KnnLocal => &[
                "server",
                "bench",
                "router",
                "pcp",
                "query.approx_us",
                "query.approx_candidates_per_query",
                "query.approx_useful_ratio",
                "core.tier_misses_per_query",
                "core.shard_build_s",
                "core.frontier_build_s",
                "network.partition_s",
            ],
            Workload::KnnServed => &[
                "query",
                "router",
                "pcp",
                "core.tier_misses_per_query",
                "core.shard_build_s",
                "core.frontier_build_s",
                "network.partition_s",
            ],
            Workload::RoutedLarge => &["server", "bench", "query", "pcp", "core.write_s"],
            Workload::ApproxOracle => &[
                "server",
                "bench",
                "router",
                "core",
                "query.knn_us",
                "query.refinements_per_query",
                "query.queue_pushes_per_query",
                "query.max_queue_mean",
                "query.pq_frac",
                "network.partition_s",
            ],
        }
    }

    /// Whether per-layer metric `metric` is one this workload leaves idle.
    pub fn idles(self, metric: &str) -> bool {
        self.idle().iter().any(|&e| {
            metric == e || metric.strip_prefix(e).is_some_and(|rest| rest.starts_with('.'))
        })
    }
}

/// Completes a traced run's per-layer metrics: the idle ones (see
/// [`Workload::idle`]) read 0 with no samples behind them. Errors when the
/// run measured an idle metric or left a metric it uses unmeasured.
fn fill_idle(workload: Workload, rec: &mut Record) -> Result<(), String> {
    for m in metrics::PER_LAYER {
        match (workload.idles(m.name), rec.values.contains_key(m.name)) {
            (true, true) => return Err(format!("{} is idle but was measured", m.name)),
            (true, false) => rec.set_n(m.name, 0.0, Some(0)),
            (false, false) => return Err(format!("{} was not measured", m.name)),
            (false, true) => {}
        }
    }
    Ok(())
}

/// Every constant the workloads depend on. All of them are stamped into
/// each record: records whose constants differ are not comparable.
#[derive(Debug, Clone)]
pub struct Constants {
    /// Network size of `knn_local`, `knn_served` and `approx_oracle`.
    pub vertices: usize,
    /// Network size of `routed_large`.
    pub routed_vertices: usize,
    /// `routed_large` aims for this many vertices per shard.
    pub shard_target: usize,
    pub grid_exponent: u32,
    /// Objects per vertex.
    pub density: f64,
    pub k: usize,
    /// Buffer-pool fraction of `knn_local`, of each `routed_large` shard
    /// and tier, and of the `approx_oracle` oracle (the paper's 5 %).
    pub cache_fraction: f64,
    /// Buffer-pool fraction of `knn_served` (fully cached).
    pub served_cache_fraction: f64,
    /// WSPD separation of the PCP oracle.
    pub separation: f64,
    /// Sessions of the loaded closed-loop phase.
    pub sessions: usize,
    /// Query bodies per `BATCH` frame.
    pub batch: usize,
    /// First rate of the served ladder (queries/s); rates double from it.
    pub base_rate: f64,
    /// The second fixed rung (queries/s), reported as `loaded_*`.
    pub loaded_rate: f64,
    /// Most rungs of the doubling phase of the ladder.
    pub max_rungs: usize,
    /// Bisection probes between the last rate that met the limit and the
    /// first that missed it.
    pub bisect_steps: usize,
    /// p99 bound a served rung must meet, in µs.
    pub limit_p99_us: f64,
    /// Fewest batches a served rung holds.
    pub min_rung_batches: usize,
    /// Period of `Server::status()` sampling, in µs.
    pub status_period_us: u64,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setup_repeats: usize,
    /// Closed loops alternate this many one-session windows with as many
    /// all-session windows. Percentiles and rates are the best of them.
    pub windows: usize,
    /// Sub-windows of the served loaded rung, each of `min_rung_batches`.
    pub served_windows: usize,
    /// Closed-loop warm-up before the timed window, in s.
    pub warmup_s: f64,
    /// Checked answers of `knn_local` and `approx_oracle`.
    pub gate_queries: usize,
    /// Checked answers of `routed_large` (each costs a 100 k Dijkstra).
    pub routed_gate_queries: usize,
    /// `knn_served` keeps every n-th batch of its fixed rungs for the gate.
    pub served_gate_every: usize,
    /// Length of the query stream.
    pub queries: usize,
}

impl Constants {
    pub fn full() -> Self {
        Constants {
            vertices: 4000,
            routed_vertices: 100_000,
            shard_target: 1000,
            grid_exponent: 11,
            density: 0.07,
            k: 10,
            cache_fraction: 0.05,
            served_cache_fraction: 1.0,
            separation: 8.0,
            sessions: 2,
            batch: 8,
            base_rate: 300.0,
            loaded_rate: 1200.0,
            max_rungs: 7,
            bisect_steps: 4,
            limit_p99_us: 100_000.0,
            min_rung_batches: stats::min_samples(99.0),
            status_period_us: 5_000,
            setup_repeats: 3,
            windows: 5,
            served_windows: 2,
            warmup_s: 0.3,
            gate_queries: 300,
            routed_gate_queries: 40,
            served_gate_every: 8,
            queries: 1 << 16,
        }
    }

    /// Small sizes for the benchmark's own tests: every code path, every
    /// metric, seconds instead of minutes.
    pub fn smoke() -> Self {
        Constants {
            vertices: 400,
            routed_vertices: 3000,
            shard_target: 400,
            base_rate: 1200.0,
            loaded_rate: 1200.0,
            max_rungs: 2,
            windows: 1,
            served_windows: 1,
            bisect_steps: 1,
            setup_repeats: 2,
            warmup_s: 0.05,
            gate_queries: 40,
            routed_gate_queries: 10,
            ..Constants::full()
        }
    }

    fn stamp(&self, rec: &mut Record) {
        // Destructured in full, so a new constant cannot go unstamped.
        let Constants {
            vertices,
            routed_vertices,
            shard_target,
            grid_exponent,
            density,
            k,
            cache_fraction,
            served_cache_fraction,
            separation,
            sessions,
            batch,
            base_rate,
            loaded_rate,
            max_rungs,
            bisect_steps,
            limit_p99_us,
            min_rung_batches,
            status_period_us,
            setup_repeats,
            windows,
            served_windows,
            warmup_s,
            gate_queries,
            routed_gate_queries,
            served_gate_every,
            queries,
        } = self;
        for (key, v) in [
            ("vertices", vertices.to_string()),
            ("routed_vertices", routed_vertices.to_string()),
            ("shard_target", shard_target.to_string()),
            ("grid_exponent", grid_exponent.to_string()),
            ("density", density.to_string()),
            ("k", k.to_string()),
            ("cache_fraction", cache_fraction.to_string()),
            ("served_cache_fraction", served_cache_fraction.to_string()),
            ("separation", separation.to_string()),
            ("sessions", sessions.to_string()),
            ("batch", batch.to_string()),
            ("base_rate", base_rate.to_string()),
            ("loaded_rate", loaded_rate.to_string()),
            ("max_rungs", max_rungs.to_string()),
            ("bisect_steps", bisect_steps.to_string()),
            ("limit_p99_us", limit_p99_us.to_string()),
            ("min_rung_batches", min_rung_batches.to_string()),
            ("status_period_us", status_period_us.to_string()),
            ("setup_repeats", setup_repeats.to_string()),
            ("windows", windows.to_string()),
            ("served_windows", served_windows.to_string()),
            ("warmup_s", warmup_s.to_string()),
            ("gate_queries", gate_queries.to_string()),
            ("routed_gate_queries", routed_gate_queries.to_string()),
            ("served_gate_every", served_gate_every.to_string()),
            ("queries", queries.to_string()),
            ("network_seed", gen::NETWORK_SEED.to_string()),
            ("object_seed", gen::OBJECT_SEED.to_string()),
            ("stream_queries", gen::STREAM_QUERIES.to_string()),
            ("stream_schedule", gen::STREAM_SCHEDULE.to_string()),
            ("edge_factor", gen::EDGE_FACTOR.to_string()),
            ("detour", gen::DETOUR.to_string()),
            ("extent", gen::EXTENT.to_string()),
        ] {
            rec.stamp(key, v);
        }
    }
}

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    pub trace: bool,
    pub constants: Constants,
    /// The checkout root (sources are hashed from here).
    pub root: PathBuf,
    /// Where index files, traces and records go.
    pub work_dir: PathBuf,
}

/// Runs one workload and returns its record.
pub fn run(cfg: &Config) -> Result<Record, String> {
    let mut rec = Record::default();
    rec.stamp("workload", cfg.workload.name());
    rec.stamp("seed", cfg.seed);
    rec.stamp("seconds", cfg.seconds);
    rec.stamp("trace", cfg.trace);
    rec.stamp("host_threads", sys::host_threads());
    rec.stamp("commit", sys::commit(&cfg.root).unwrap_or_else(|| "unknown".into()));
    rec.stamp("source_fnv", sys::source_hash(&cfg.root));
    cfg.constants.stamp(&mut rec);

    let dir = cfg.work_dir.join(format!("{}-{}", cfg.workload.name(), std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    trace::enable(false);
    let _ = trace::take();
    let outcome = match cfg.workload {
        Workload::KnnLocal => local::run(cfg, &dir, &mut rec),
        Workload::KnnServed => served::run(cfg, &dir, &mut rec),
        Workload::RoutedLarge => routed::run(cfg, &dir, &mut rec),
        Workload::ApproxOracle => approx::run(cfg, &dir, &mut rec),
    };
    trace::enable(false);
    std::fs::remove_dir_all(&dir).ok();
    outcome?;

    rec.set("peak_rss_mib", sys::peak_rss_mib());
    if cfg.trace {
        let (spans, snaps) = trace::take();
        rec.stamp("trace_spans", spans.len());
        let names = trace::Analysis::new(&spans).names().join(",");
        rec.stamp("span_names", names);
        let path = cfg.work_dir.join(format!("trace-{}.jsonl", cfg.workload.name()));
        trace::write(&path, &spans, &snaps).map_err(|e| format!("write trace: {e}"))?;
        rec.stamp("trace_file", path.display());
        fill_idle(cfg.workload, &mut rec)?;
    }
    Ok(rec)
}

/// Relative tolerance of the gates' distance comparisons. The reference
/// distances are Dijkstra sums, which carry a few ulps of rounding error of
/// their own; answers must match them to within this much.
pub const GATE_REL_TOL: f64 = 1e-12;

fn slack(d: f64) -> f64 {
    GATE_REL_TOL * d.abs().max(1.0)
}

/// Whether `d` lies in `[lo, hi]` up to the gate tolerance.
fn contains(lo: f64, hi: f64, d: f64) -> bool {
    lo - slack(d) <= d && d <= hi + slack(d)
}

/// Whether `a` equals `b` up to the gate tolerance.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= slack(a.abs().max(b.abs()))
}

/// Sets a workload up. A traced run sets up once, tracing the set-up
/// calls. An untraced run sets up `setup_repeats` times, dropping each
/// result before the next build, keeps the last and records the median
/// time as `setup_s`.
fn set_up<T>(
    cfg: &Config,
    rec: &mut Record,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    if cfg.trace {
        trace::enable(true);
        let built = setup();
        trace::enable(false);
        return built;
    }
    let repeats = cfg.constants.setup_repeats.max(1);
    let mut kept = None;
    let mut times = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        drop(kept.take());
        let t = Instant::now();
        let built = setup()?;
        times.push(t.elapsed().as_secs_f64());
        kept = Some(built);
    }
    rec.set_n("setup_s", stats::median(&times), Some(repeats));
    Ok(kept.expect("at least one set-up"))
}

/// Times `f` as a span named `name`; returns its result and seconds.
fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let _s = trace::span(name);
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

fn io_delta(after: IoStats, before: IoStats) -> IoStats {
    IoStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
        bytes_read: after.bytes_read - before.bytes_read,
        read_nanos: after.read_nanos - before.read_nanos,
        retries: after.retries - before.retries,
        faults_seen: after.faults_seen - before.faults_seen,
        prefetched: after.prefetched - before.prefetched,
        prefetch_hits: after.prefetch_hits - before.prefetch_hits,
    }
}

fn cache_delta(after: CacheStats, before: CacheStats) -> CacheStats {
    CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
    }
}

fn io_values(io: &IoStats) -> Vec<(&'static str, f64)> {
    vec![
        ("hits", io.hits as f64),
        ("misses", io.misses as f64),
        ("evictions", io.evictions as f64),
        ("bytes_read", io.bytes_read as f64),
        ("read_nanos", io.read_nanos as f64),
        ("retries", io.retries as f64),
        ("faults_seen", io.faults_seen as f64),
        ("prefetched", io.prefetched as f64),
        ("prefetch_hits", io.prefetch_hits as f64),
    ]
}

/// Per-layer storage metrics from the pool counters of `queries` queries
/// whose calling layer was busy for `busy_us` in total.
fn storage_metrics(rec: &mut Record, io: &IoStats, queries: u64, busy_us: f64) {
    let q = queries.max(1) as f64;
    rec.set("storage.pool_hit_rate", io.hit_rate());
    rec.set("storage.pool_misses_per_query", io.misses as f64 / q);
    rec.set("storage.bytes_read_per_query", io.bytes_read as f64 / q);
    rec.set("storage.evictions_per_query", io.evictions as f64 / q);
    rec.set("storage.read_us_per_query", io.read_nanos as f64 / 1e3 / q);
    rec.set("storage.read_frac", io.read_nanos as f64 / 1e3 / busy_us.max(1e-9));
    let useful =
        if io.prefetched == 0 { 0.0 } else { io.prefetch_hits as f64 / io.prefetched as f64 };
    rec.set("storage.prefetch_useful_ratio", useful);
    rec.set("storage.retries", io.retries as f64);
    rec.set("storage.faults_seen", io.faults_seen as f64);
}

/// Per-layer process metrics of a measured phase.
fn process_metrics(rec: &mut Record, usage: &sys::Usage, queries: u64) {
    rec.set("process.sys_frac", usage.sys_s / usage.cpu_s().max(1e-9));
    rec.set("process.ctx_switches_per_query", usage.ctx_switches as f64 / queries.max(1) as f64);
}

/// The closed-loop end-to-end metrics: unloaded latency from the
/// one-session windows; loaded latency and throughput from the all-session
/// windows, whose loop is also the highest rate the engine serves. Each is
/// the best of its per-window values (see [`stats::best_percentile`]).
fn closed_loop_metrics(rec: &mut Record, run: &closed::Interleaved) -> Result<(), String> {
    let pct = |windows: &[closed::Window], p: f64, what: &str| {
        stats::best_percentile(windows.iter().map(|w| w.latency_us.as_slice()), p)
            .ok_or_else(|| format!("no {what} window has enough samples for p{p}"))
    };
    let samples = |ws: &[closed::Window]| Some(ws.iter().map(|w| w.latency_us.len()).sum());
    let (n_u, n_l) = (samples(&run.unloaded), samples(&run.loaded));
    rec.set_n("p50_us", pct(&run.unloaded, 50.0, "one-session")?, n_u);
    rec.set_n("p99_us", pct(&run.unloaded, 99.0, "one-session")?, n_u);
    rec.set_n("loaded_p50_us", pct(&run.loaded, 50.0, "all-session")?, n_l);
    rec.set_n("loaded_p99_us", pct(&run.loaded, 99.0, "all-session")?, n_l);
    let qps = run.loaded.iter().map(closed::Window::rate).fold(0.0, f64::max);
    rec.set_n("qps", qps, n_l);
    rec.set_n("served_max_qps", qps, n_l);
    let all = run.unloaded.iter().chain(&run.loaded);
    let (answered, failed) = all.fold((0, 0), |(a, f), w| (a + w.answered, f + w.failed));
    let cpu_us = run.usage.cpu_s() * 1e6;
    rec.set_n("cpu_us_per_query", cpu_us / answered.max(1) as f64, Some(answered as usize));
    rec.attempted += answered + failed;
    rec.failed += failed;
    Ok(())
}

/// `ok_frac` from the record's tallies.
fn finish_ok_frac(rec: &mut Record) {
    let attempted = rec.attempted.max(1) as f64;
    rec.set("ok_frac", 1.0 - rec.failed as f64 / attempted);
}

/// Relative gap between a traced and an untraced phase's mean call time.
fn overhead(rec: &mut Record, traced_mean_us: f64, untraced_mean_us: f64) {
    rec.set("trace.overhead_frac", traced_mean_us / untraced_mean_us.max(1e-9) - 1.0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::PER_LAYER;

    #[test]
    fn every_idle_entry_names_per_layer_metrics() {
        for w in Workload::ALL {
            for &e in w.idle() {
                let layer = format!("{e}.");
                assert!(
                    PER_LAYER.iter().any(|m| m.name == e || m.name.starts_with(&layer)),
                    "{}: idle entry {e} names no per-layer metric",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn fill_idle_refuses_a_missing_or_a_stray_metric() {
        let w = Workload::KnnLocal;
        let mut all_used = Record::default();
        for m in PER_LAYER.iter().filter(|m| !w.idles(m.name)) {
            all_used.set(m.name, 1.0);
        }
        let mut rec = Record { values: all_used.values.clone(), ..Default::default() };
        fill_idle(w, &mut rec).unwrap();
        assert_eq!(rec.values["server.queue_depth_max"], (0.0, Some(0)));
        assert!(rec.result_line(PER_LAYER).is_ok());

        let mut missing = Record { values: all_used.values.clone(), ..Default::default() };
        missing.values.remove("storage.pool_hit_rate");
        let err = fill_idle(w, &mut missing).unwrap_err();
        assert!(err.contains("storage.pool_hit_rate"), "{err}");

        let mut stray = Record { values: all_used.values, ..Default::default() };
        stray.set("router.knn_us", 5.0);
        let err = fill_idle(w, &mut stray).unwrap_err();
        assert!(err.contains("router.knn_us"), "{err}");
    }

    #[test]
    fn idle_matches_whole_layers_and_single_metrics() {
        let w = Workload::RoutedLarge;
        assert!(w.idles("server.send_us") && w.idles("core.write_s"));
        assert!(!w.idles("core.write") && !w.idles("core.build_s") && !w.idles("router.knn_us"));
    }
}
