//! `knn_local`: two `QuerySession`s in a closed loop over one shared
//! disk-resident SILC index whose pool holds 5 % of its pages. Query,
//! core decode and storage do all the work.

use crate::metrics::Record;
use crate::trace::{self, Analysis, TracingStore};
use crate::{closed, contains, gen, timed, Config};
use silc::disk::{write_index, DiskSilcIndex};
use silc::{BuildConfig, DistanceBrowser, SilcIndex};
use silc_network::dijkstra::full_sssp;
use silc_network::VertexId;
use silc_query::{KnnResult, KnnVariant, ObjectSet, QueryEngine, QuerySession};
use silc_storage::FilePageStore;
use std::path::Path;
use std::sync::Arc;

/// A built, written and re-opened SILC index with its inputs.
pub(crate) struct Built {
    pub objects: Arc<ObjectSet>,
    pub queries: Vec<VertexId>,
    /// The in-memory index the disk one was written from: the gate's
    /// reference.
    pub memory: Arc<SilcIndex>,
    pub disk: Arc<DiskSilcIndex>,
    pub bytes: u64,
    pub generate_s: f64,
    pub build_s: f64,
    pub write_s: f64,
    pub open_s: f64,
}

/// Generates the inputs, builds the index, writes it to `dir` and opens it
/// disk-resident with `cache_fraction` of its pages pooled and a decoded
/// entry cache of the engine's default size, or of one list per vertex
/// when `full_entry_cache`.
pub(crate) fn build(
    cfg: &Config,
    dir: &Path,
    cache_fraction: f64,
    full_entry_cache: bool,
) -> Result<Built, String> {
    let c = &cfg.constants;
    let (inputs, generate_s) =
        timed("network.generate", || gen::inputs(c.vertices, c.density, c.queries, cfg.seed));
    let (memory, build_s) = timed("core.build", || {
        SilcIndex::build(
            inputs.network.clone(),
            &BuildConfig { grid_exponent: c.grid_exponent, threads: 0 },
        )
    });
    let memory = Arc::new(memory.map_err(|e| format!("build: {e}"))?);
    let path = dir.join("silc.idx");
    let (written, write_s) = timed("core.write", || write_index(&memory, &path));
    written.map_err(|e| format!("write index: {e}"))?;
    let n = inputs.network.vertex_count();
    let cap = if full_entry_cache { n } else { silc_storage::default_decoded_capacity(n) };
    let (disk, open_s) = timed("core.open", || {
        let net = inputs.network.clone();
        if cfg.trace {
            let store = FilePageStore::open(&path).map_err(silc::BuildError::Io)?;
            DiskSilcIndex::from_store(Box::new(TracingStore(store)), net, cache_fraction, cap)
        } else {
            DiskSilcIndex::open_with_entry_cache(&path, net, cache_fraction, cap)
        }
    });
    let disk = Arc::new(disk.map_err(|e| format!("open index: {e}"))?);
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    Ok(Built {
        objects: inputs.objects,
        queries: inputs.queries,
        memory,
        disk,
        bytes,
        generate_s,
        build_s,
        write_s,
        open_s,
    })
}

/// Query counters summed over one thread's calls.
#[derive(Default)]
pub(crate) struct QueryAcc {
    pub refinements: u64,
    pub queue_pushes: u64,
    pub max_queue: u64,
    pub pq_nanos: u64,
}

impl QueryAcc {
    fn add(&mut self, r: &KnnResult) {
        self.refinements += r.stats.refinements as u64;
        self.queue_pushes += r.stats.queue_pushes as u64;
        self.max_queue += r.stats.max_queue as u64;
        self.pq_nanos += r.stats.pq_nanos;
    }
}

/// One timed kNN call (a `query.knn` span when tracing).
fn knn_call(
    s: &mut QuerySession<DiskSilcIndex>,
    q: VertexId,
    k: usize,
    acc: &mut QueryAcc,
) -> bool {
    let _span = trace::span("query.knn");
    match s.try_knn(q, k, KnnVariant::Basic) {
        Ok(r) => {
            acc.add(r);
            r.neighbors.len() == k
        }
        Err(_) => false,
    }
}

/// Bit-level equality of two answers: objects, vertices, interval bits.
pub(crate) fn same_bits(a: &KnnResult, b: &KnnResult) -> bool {
    a.neighbors.len() == b.neighbors.len()
        && a.neighbors.iter().zip(&b.neighbors).all(|(x, y)| {
            x.object == y.object
                && x.vertex == y.vertex
                && x.interval.lo.to_bits() == y.interval.lo.to_bits()
                && x.interval.hi.to_bits() == y.interval.hi.to_bits()
        })
}

pub(crate) fn run(cfg: &Config, dir: &Path, rec: &mut Record) -> Result<(), String> {
    let c = &cfg.constants;
    let built = crate::set_up(cfg, rec, || build(cfg, dir, c.cache_fraction, false))?;
    let engine = QueryEngine::new(built.disk.clone(), built.objects.clone());
    let k = c.k.min(built.objects.len());
    let mut sessions: Vec<_> = (0..c.sessions).map(|_| engine.session()).collect();
    let mut accs: Vec<QueryAcc> = (0..c.sessions).map(|_| QueryAcc::default()).collect();
    let call = |s: &mut QuerySession<DiskSilcIndex>, q, acc: &mut QueryAcc| knn_call(s, q, k, acc);
    let qs = &built.queries;
    closed::run(&mut sessions[..1], c.warmup_s, qs, 0, &mut [QueryAcc::default()], &call);

    if cfg.trace {
        let disk = &built.disk;
        let counters = || closed::Counters {
            io: disk.io_stats(),
            cache: disk.entry_cache_stats(),
            ..Default::default()
        };
        let t = closed::traced(&mut sessions, cfg.seconds, qs, &mut accs, &call, counters);
        t.record_shared(rec, "query.knn");
        let acc = &accs[0];
        let busy_us = Analysis::new(&t.spans).total_us("query.knn");
        rec.set("query.refinements_per_query", t.per_query(acc.refinements as f64));
        rec.set("query.queue_pushes_per_query", t.per_query(acc.queue_pushes as f64));
        rec.set("query.max_queue_mean", t.per_query(acc.max_queue as f64));
        rec.set("query.pq_frac", acc.pq_nanos as f64 / 1e3 / busy_us.max(1e-9));
        rec.set("core.entry_hit_rate", t.counters.cache.hit_rate());
        rec.set("core.entry_decodes_per_query", t.per_query(t.counters.cache.misses as f64));
        rec.set("network.generate_s", built.generate_s);
        rec.set("core.build_s", built.build_s);
        rec.set("core.write_s", built.write_s);
        rec.set("core.open_s", built.open_s);
    } else {
        let run = closed::interleaved(&mut sessions, cfg.seconds, c.windows, qs, &mut accs, &call);
        crate::closed_loop_metrics(rec, &run)?;
        rec.set("index_bytes", built.bytes as f64);
    }

    // Gate: the disk session must return the in-memory session's
    // neighbours, each with an interval holding its exact network distance.
    // (Bit-identical intervals are not expected: SILCIDX3 stores λ bounds
    // as f32; how many answers are bit-identical anyway is stamped.)
    let memory = QueryEngine::new(built.memory.clone(), built.objects.clone());
    let (mut ms, mut ds) = (memory.session(), engine.session());
    let sample = &built.queries[..c.gate_queries.min(built.queries.len())];
    let (mut exact, mut identical) = (0usize, 0usize);
    for &q in sample {
        let want = ms.knn(q, k, KnnVariant::Basic).clone();
        let got = match ds.try_knn(q, k, KnnVariant::Basic) {
            Ok(got) => got,
            Err(e) => {
                rec.mismatch(format!("knn_local: query {q} failed: {e}"));
                continue;
            }
        };
        let dist = full_sssp(built.memory.network(), q).dist;
        let sound = got.neighbors.iter().all(|n| {
            let d = dist[n.vertex.0 as usize];
            contains(n.interval.lo, n.interval.hi, d)
        });
        if got.neighbors.len() == k && got.object_ids() == want.object_ids() && sound {
            exact += 1;
            identical += same_bits(got, &want) as usize;
        } else {
            rec.mismatch(format!(
                "knn_local: query {q}: neighbours {:?} vs in-memory {:?}, intervals sound: {sound}",
                got.object_ids(),
                want.object_ids()
            ));
        }
    }
    rec.stamp("gate_bit_identical", format!("{identical}/{}", sample.len()));
    rec.attempted += sample.len() as u64;
    rec.set_n("complete_frac", exact as f64 / sample.len().max(1) as f64, Some(sample.len()));
    rec.set_n("error_factor", 1.0, Some(sample.len()));
    crate::finish_ok_frac(rec);
    Ok(())
}
