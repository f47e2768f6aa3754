//! `approx_oracle`: the PCP ε-oracle over the `knn_local` network, written
//! to disk and served as a `DiskDistanceOracle` with a 5 % pool, queried by
//! `QuerySession::approx_knn` in a closed loop. It never touches the SILC
//! index, so it moves with PCP changes and nothing else.

use crate::metrics::Record;
use crate::trace::{self, Analysis, TracingOracle, TracingStore};
use crate::{close, closed, contains, gen, timed, Config};
use silc::sp_quadtree::{BlockEntry, CellRect};
use silc::DistanceBrowser;
use silc_geom::GridMapper;
use silc_morton::MortonCode;
use silc_network::dijkstra::full_sssp;
use silc_network::{SpatialNetwork, VertexId};
use silc_pcp::{write_oracle, DiskDistanceOracle, DistanceOracle, PcpBuildConfig, PcpBuildStats};
use silc_query::{ine, ApproxDistanceOracle, ObjectSet, QueryEngine, QuerySession};
use silc_storage::{FilePageStore, PageStore};
use std::path::Path;
use std::sync::Arc;

/// The session's view of the network for approximate kNN, which reads
/// nothing of a SILC index but the network itself.
struct NetworkOnly(Arc<SpatialNetwork>);

impl DistanceBrowser for NetworkOnly {
    fn network(&self) -> &SpatialNetwork {
        &self.0
    }

    fn mapper(&self) -> &GridMapper {
        unreachable!("approximate kNN reads no SILC index")
    }

    fn vertex_code(&self, _: VertexId) -> MortonCode {
        unreachable!("approximate kNN reads no SILC index")
    }

    fn entry(&self, _: VertexId, _: MortonCode) -> Option<BlockEntry> {
        unreachable!("approximate kNN reads no SILC index")
    }

    fn min_lambda(&self, _: VertexId, _: &CellRect) -> Option<f64> {
        unreachable!("approximate kNN reads no SILC index")
    }

    fn global_min_ratio(&self) -> f64 {
        self.0.min_weight_ratio()
    }
}

type Oracle = DiskDistanceOracle<Box<dyn PageStore>>;

struct Approx {
    network: Arc<SpatialNetwork>,
    objects: Arc<ObjectSet>,
    queries: Vec<VertexId>,
    oracle: Oracle,
    build: PcpBuildStats,
    bytes: u64,
    generate_s: f64,
    build_s: f64,
}

fn setup(cfg: &Config, dir: &Path) -> Result<Approx, String> {
    let c = &cfg.constants;
    let (inputs, generate_s) =
        timed("network.generate", || gen::inputs(c.vertices, c.density, c.queries, cfg.seed));
    let pcfg =
        PcpBuildConfig { grid_exponent: c.grid_exponent, separation: c.separation, threads: 0 };
    let (memory, build_s) =
        timed("pcp.build", || DistanceOracle::build_with(&inputs.network, &pcfg));
    let path = dir.join("oracle.pcp");
    let (written, _) = timed("pcp.write", || write_oracle(&memory, &path));
    written.map_err(|e| format!("write oracle: {e}"))?;
    let build = memory.build_stats().clone();
    drop(memory);
    let (oracle, _) = timed("pcp.open", || {
        let store = FilePageStore::open(&path)?;
        let store: Box<dyn PageStore> =
            if cfg.trace { Box::new(TracingStore(store)) } else { Box::new(store) };
        DiskDistanceOracle::from_store(store, c.cache_fraction, None)
    });
    let oracle = oracle.map_err(|e| format!("open oracle: {e}"))?;
    Ok(Approx {
        bytes: std::fs::metadata(&path).map_err(|e| e.to_string())?.len(),
        network: inputs.network,
        objects: inputs.objects,
        queries: inputs.queries,
        oracle,
        build,
        generate_s,
        build_s,
    })
}

#[derive(Default)]
struct ApproxAcc {
    candidates: u64,
}

fn approx_call<O: ApproxDistanceOracle + ?Sized>(
    s: &mut QuerySession<NetworkOnly>,
    oracle: &O,
    q: VertexId,
    k: usize,
    acc: &mut ApproxAcc,
) -> bool {
    let _span = trace::span("query.approx");
    match s.try_approx_knn(oracle, q, k) {
        Ok(r) => {
            acc.candidates += r.stats.index_queries as u64;
            r.neighbors.len() == k
        }
        Err(_) => false,
    }
}

pub(crate) fn run(cfg: &Config, dir: &Path, rec: &mut Record) -> Result<(), String> {
    let c = &cfg.constants;
    let a = crate::set_up(cfg, rec, || setup(cfg, dir))?;
    let k = c.k.min(a.objects.len());
    let engine = QueryEngine::new(Arc::new(NetworkOnly(a.network.clone())), a.objects.clone());
    let mut sessions: Vec<_> = (0..c.sessions).map(|_| engine.session()).collect();
    let mut accs: Vec<ApproxAcc> = (0..c.sessions).map(|_| ApproxAcc::default()).collect();
    let oracle = &a.oracle;
    let call = |s: &mut QuerySession<NetworkOnly>, q, acc: &mut ApproxAcc| {
        approx_call(s, oracle, q, k, acc)
    };
    let qs = &a.queries;
    closed::run(&mut sessions[..1], c.warmup_s, qs, 0, &mut [ApproxAcc::default()], &call);

    if cfg.trace {
        // Every probe is a `pcp.probe` span; the untraced half of the
        // phase runs through the same wrapper with tracing off.
        let traced = TracingOracle(oracle);
        let call_traced = |s: &mut QuerySession<NetworkOnly>, q, acc: &mut ApproxAcc| {
            approx_call(s, &traced, q, k, acc)
        };
        let counters = || closed::Counters {
            io: oracle.io_stats(),
            cache: oracle.pair_cache_stats(),
            ..Default::default()
        };
        let t = closed::traced(&mut sessions, cfg.seconds, qs, &mut accs, &call_traced, counters);
        t.record_shared(rec, "query.approx");
        let candidates = t.per_query(accs[0].candidates as f64);
        let an = Analysis::new(&t.spans);
        rec.set("query.approx_candidates_per_query", candidates);
        rec.set("query.approx_useful_ratio", k as f64 / candidates.max(1e-9));
        rec.set("pcp.self_us_per_query", t.per_query(an.self_us("pcp.probe")));
        rec.set("pcp.pair_hit_rate", t.counters.cache.hit_rate());
        rec.set("pcp.pool_misses_per_query", t.per_query(t.counters.io.misses as f64));
        rec.set("network.generate_s", a.generate_s);
        rec.set("pcp.build_s", a.build_s);
        rec.set("pcp.batch_sssp", a.build.batch_sources as f64);
        rec.set("pcp.pairs", a.build.pairs as f64);
    } else {
        let run = closed::interleaved(&mut sessions, cfg.seconds, c.windows, qs, &mut accs, &call);
        crate::closed_loop_metrics(rec, &run)?;
        rec.set("index_bytes", a.bytes as f64);
    }

    // Gate: every reported interval contains the exact network distance.
    // The same sample yields the oracle's error and the share of reported
    // neighbours that belong to the exact kNN (within the k-th exact
    // distance).
    let mut session = engine.session();
    let sample = &a.queries[..c.gate_queries.min(a.queries.len())];
    let (mut rel_error, mut pairs, mut strict_misses) = (0.0, 0usize, 0usize);
    let (mut exact, mut reported) = (0usize, 0usize);
    for &q in sample {
        let got = match session.try_approx_knn(oracle, q, k) {
            Ok(r) => r.clone(),
            Err(e) => {
                rec.mismatch(format!("approx_oracle: query {q} failed: {e}"));
                continue;
            }
        };
        let dist = full_sssp(&a.network, q).dist;
        let d = |v: VertexId| dist[v.0 as usize];
        let strict = |n: &&silc_query::Neighbor| {
            n.interval.lo <= d(n.vertex) && d(n.vertex) <= n.interval.hi
        };
        strict_misses += got.neighbors.iter().filter(|n| !strict(n)).count();
        let miss =
            got.neighbors.iter().find(|n| !contains(n.interval.lo, n.interval.hi, d(n.vertex)));
        if let Some(n) = miss {
            rec.mismatch(format!(
                "approx_oracle: query {q}: interval [{}, {}] misses the distance {} of vertex {}",
                n.interval.lo,
                n.interval.hi,
                d(n.vertex),
                n.vertex
            ));
        }
        for n in &got.neighbors {
            let truth = d(n.vertex);
            if truth > 0.0 {
                rel_error += (oracle.distance(q, n.vertex) - truth).abs() / truth;
                pairs += 1;
            }
        }
        let kth = ine(&a.network, &a.objects, q, k)
            .neighbors
            .iter()
            .map(|n| d(n.vertex))
            .fold(0.0, f64::max);
        exact +=
            got.neighbors.iter().filter(|n| d(n.vertex) <= kth || close(d(n.vertex), kth)).count();
        reported += got.neighbors.len();
    }
    rec.stamp("gate_strict_interval_misses", strict_misses);
    rec.attempted += sample.len() as u64;
    let mean_rel_error = rel_error / pairs.max(1) as f64;
    rec.set_n("error_factor", 1.0 + mean_rel_error, Some(pairs));
    rec.set_n("complete_frac", exact as f64 / reported.max(1) as f64, Some(reported));
    if cfg.trace {
        rec.set_n("pcp.mean_rel_error", mean_rel_error, Some(pairs));
    }
    crate::finish_ok_frac(rec);
    Ok(())
}
