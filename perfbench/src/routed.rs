//! `routed_large`: a 100 000-vertex network split into ~1 000-vertex
//! shards by `PartitionedSilcIndex::build_in_dir`, with its frontier tier,
//! queried by `PartitionedSession`s in a closed loop. The only workload in
//! which the router, the frontier tier and the partitioned build work.

use crate::metrics::Record;
use crate::trace::{self, TracingStore};
use crate::{close, closed, gen, timed, Config};
use silc::partitioned::{PartitionedBuildConfig, PartitionedSilcIndex};
use silc_network::dijkstra::full_sssp;
use silc_network::partition::PartitionConfig;
use silc_network::{SpatialNetwork, VertexId};
use silc_query::{ine, ObjectSet, PartitionedEngine, PartitionedSession};
use silc_storage::{CacheStats, IoStats, PageStore};
use std::path::Path;
use std::sync::Arc;

struct Routed {
    network: Arc<SpatialNetwork>,
    objects: Arc<ObjectSet>,
    queries: Vec<VertexId>,
    index: Arc<PartitionedSilcIndex>,
    engine: PartitionedEngine,
    bytes: u64,
    generate_s: f64,
    build_s: f64,
    shard_build_s: f64,
    frontier_build_s: f64,
    open_s: f64,
}

fn setup(cfg: &Config, dir: &Path) -> Result<Routed, String> {
    let c = &cfg.constants;
    let (inputs, generate_s) = timed("network.generate", || {
        gen::inputs(c.routed_vertices, c.density, c.queries, cfg.seed)
    });
    let shards = inputs.network.vertex_count().div_ceil(c.shard_target).clamp(2, 1024);
    let pcfg = PartitionedBuildConfig {
        partition: PartitionConfig { shards, ..Default::default() },
        grid_exponent: c.grid_exponent,
        threads: 0,
        cache_fraction: c.cache_fraction,
    };
    let idx_dir = dir.join("routed");
    let (built, build_s) = timed("core.build", || {
        PartitionedSilcIndex::build_in_dir(inputs.network.clone(), &idx_dir, &pcfg)
    });
    let built = built.map_err(|e| format!("partitioned build: {e}"))?;
    let timings = built.build_timings().ok_or("a fresh build records its timings")?;
    drop(built);
    // Serve the directory as a deployment would: opened from disk.
    let (index, open_s) = timed("core.open", || {
        PartitionedSilcIndex::open_dir_with(inputs.network.clone(), &idx_dir, &pcfg, |_, store| {
            if cfg.trace {
                Box::new(TracingStore(store)) as Box<dyn PageStore>
            } else {
                Box::new(store)
            }
        })
    });
    let index = Arc::new(index.map_err(|e| format!("open partitioned index: {e}"))?);
    let (engine, _) =
        timed("router.engine", || PartitionedEngine::new(index.clone(), inputs.objects.clone()));
    if !engine.exact_routing() {
        return Err("the frontier tier did not open: routing is not exact".into());
    }
    Ok(Routed {
        bytes: index.total_bytes() + index.frontier_bytes(),
        network: inputs.network,
        objects: inputs.objects,
        queries: inputs.queries,
        index,
        engine,
        generate_s,
        build_s,
        shard_build_s: timings.shards_s,
        frontier_build_s: timings.frontier_s,
        open_s,
    })
}

/// Router counters summed over one thread's calls.
#[derive(Default)]
struct RouterAcc {
    complete: u64,
    degraded: u64,
    shards_expanded: u64,
    frontier_dijkstra: u64,
    candidates: u64,
    pruned: u64,
}

fn knn_call(s: &mut PartitionedSession, q: VertexId, k: usize, acc: &mut RouterAcc) -> bool {
    let _span = trace::span("router.knn");
    let r = s.knn(q, k);
    acc.complete += r.complete as u64;
    acc.degraded += r.degraded.len() as u64;
    acc.shards_expanded += r.stats.shards_expanded as u64;
    acc.frontier_dijkstra += r.stats.frontier_dijkstra as u64;
    acc.candidates += r.stats.candidates as u64;
    acc.pruned += r.stats.pruned as u64;
    r.neighbors.len() == k && r.degraded.is_empty()
}

/// Entry-cache counters summed over every shard.
fn entry_cache(index: &PartitionedSilcIndex) -> CacheStats {
    (0..index.shard_count()).map(|s| index.shard_index(s).entry_cache_stats()).fold(
        CacheStats::default(),
        |a, b| CacheStats {
            hits: a.hits + b.hits,
            misses: a.misses + b.misses,
            evictions: a.evictions + b.evictions,
        },
    )
}

fn tier_io(index: &PartitionedSilcIndex) -> IoStats {
    index.frontier_tier().map(|t| t.io_stats()).unwrap_or_default()
}

pub(crate) fn run(cfg: &Config, dir: &Path, rec: &mut Record) -> Result<(), String> {
    let c = &cfg.constants;
    let r = crate::set_up(cfg, rec, || setup(cfg, dir))?;
    let k = c.k.min(r.objects.len());
    let mut sessions: Vec<_> = (0..c.sessions).map(|_| r.engine.session()).collect();
    let mut accs: Vec<RouterAcc> = (0..c.sessions).map(|_| RouterAcc::default()).collect();
    let call = |s: &mut PartitionedSession, q, acc: &mut RouterAcc| knn_call(s, q, k, acc);
    let qs = &r.queries;
    closed::run(&mut sessions[..1], c.warmup_s, qs, 0, &mut [RouterAcc::default()], &call);

    if cfg.trace {
        let index = &r.index;
        let counters = || closed::Counters {
            io: index.io_stats(),
            cache: entry_cache(index),
            tier: tier_io(index),
        };
        let t = closed::traced(&mut sessions, cfg.seconds, qs, &mut accs, &call, counters);
        t.record_shared(rec, "router.knn");
        let acc = &accs[0];
        rec.set("router.shards_expanded_mean", t.per_query(acc.shards_expanded as f64));
        rec.set("router.frontier_dijkstra_frac", t.per_query(acc.frontier_dijkstra as f64));
        rec.set("router.candidates_per_query", t.per_query(acc.candidates as f64));
        rec.set("router.prune_ratio", acc.pruned as f64 / acc.candidates.max(1) as f64);
        rec.set("router.degraded_total", acc.degraded as f64);
        rec.set("core.entry_hit_rate", t.counters.cache.hit_rate());
        rec.set("core.entry_decodes_per_query", t.per_query(t.counters.cache.misses as f64));
        rec.set("core.tier_misses_per_query", t.per_query(t.counters.tier.misses as f64));
        rec.set("network.generate_s", r.generate_s);
        rec.set("network.partition_s", (r.build_s - r.shard_build_s - r.frontier_build_s).max(0.0));
        rec.set("core.build_s", r.build_s);
        rec.set("core.shard_build_s", r.shard_build_s);
        rec.set("core.frontier_build_s", r.frontier_build_s);
        rec.set("core.open_s", r.open_s);
    } else {
        let run = closed::interleaved(&mut sessions, cfg.seconds, c.windows, qs, &mut accs, &call);
        crate::closed_loop_metrics(rec, &run)?;
        let complete: u64 = accs.iter().map(|a| a.complete).sum();
        let answers =
            run.unloaded.iter().chain(&run.loaded).map(|w| w.answered + w.failed).sum::<u64>();
        rec.set_n("complete_frac", complete as f64 / answers.max(1) as f64, Some(answers as usize));
        rec.set("index_bytes", r.bytes as f64);
    }

    // Gate: complete answers whose point intervals are the Dijkstra
    // distances and whose k-th distance is INE's (both up to the gate
    // tolerance: routed distances are sums across shards; how many answers
    // match Dijkstra bit for bit is stamped).
    let mut session = r.engine.session();
    let sample = &r.queries[..c.routed_gate_queries.min(r.queries.len())];
    let mut identical = 0usize;
    for &q in sample {
        let got = session.knn(q, k).clone();
        let dist = full_sssp(&r.network, q).dist;
        let want = ine(&r.network, &r.objects, q, k);
        let points_exact = got.neighbors.iter().all(|n| {
            n.interval.lo == n.interval.hi && close(n.interval.lo, dist[n.vertex.0 as usize])
        });
        identical += got
            .neighbors
            .iter()
            .all(|n| n.interval.lo.to_bits() == dist[n.vertex.0 as usize].to_bits())
            as usize;
        let kth = |v: Vec<f64>| v.into_iter().fold(f64::NEG_INFINITY, f64::max);
        let kth_got = kth(got.neighbors.iter().map(|n| n.interval.hi).collect());
        let kth_want = kth(want.neighbors.iter().map(|n| dist[n.vertex.0 as usize]).collect());
        if !(got.complete
            && got.degraded.is_empty()
            && got.neighbors.len() == k
            && points_exact
            && close(kth_got, kth_want))
        {
            rec.mismatch(format!(
                "routed_large: query {q}: complete {}, degraded {:?}, points exact {points_exact}, \
                 k-th {kth_got} vs INE {kth_want}",
                got.complete, got.degraded
            ));
        }
    }
    rec.attempted += sample.len() as u64;
    rec.stamp("gate_bit_identical", format!("{identical}/{}", sample.len()));
    rec.set_n("error_factor", 1.0, Some(sample.len()));
    crate::finish_ok_frac(rec);
    Ok(())
}
