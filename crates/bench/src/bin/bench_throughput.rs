//! Closed-loop multi-threaded query throughput over one shared disk index.
//!
//! The serving scenario the session layer exists for: W worker threads,
//! each holding one `QuerySession`, hammer a single `Arc<DiskSilcIndex>`
//! (sharded buffer pool + decoded-entries cache) with back-to-back kNN
//! queries for a fixed wall-clock window. Reported per worker count:
//! aggregate QPS, per-query p50/p99 latency, and the hit rates of both
//! cache layers — the numbers that tell you whether the pool scales.
//!
//! ```text
//! cargo run -p silc-bench --release --bin bench_throughput -- [FLAGS]
//!
//! FLAGS
//!   --vertices N      road-network size                 (default 2000)
//!   --seed S          master RNG seed                   (default 2008)
//!   --workers W       max worker count; runs 1 and W    (default 4)
//!   --duration-ms D   measured window per worker count  (default 2000)
//!   --out PATH        output file                       (default BENCH_throughput.json)
//!   --smoke           CI smoke mode: 300 vertices, 2 workers, 150 ms,
//!                     write to target/ — only checks the pipeline runs
//! ```
//!
//! Workload constants match `bench_baseline`: kNN (Basic), `k = 10`,
//! object density 0.07, cache fraction 0.05 (the paper's 5 %).

use silc::disk::{write_index, DiskSilcIndex};
use silc::{BuildConfig, DistanceBrowser, SilcIndex};
use silc_bench::stats::percentile;
use silc_network::generate::{road_network, RoadConfig};
use silc_network::VertexId;
use silc_query::{KnnVariant, ObjectSet, QueryEngine};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    vertices: usize,
    seed: u64,
    workers: usize,
    duration_ms: u64,
    out: String,
    smoke: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        vertices: 2000,
        seed: 2008,
        workers: 4,
        duration_ms: 2000,
        out: "BENCH_throughput.json".to_string(),
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    let (mut saw_vertices, mut saw_workers, mut saw_duration, mut saw_out) =
        (false, false, false, false);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--vertices" => {
                args.vertices = it.next().and_then(|v| v.parse().ok()).expect("--vertices N");
                saw_vertices = true;
            }
            "--seed" => args.seed = it.next().and_then(|v| v.parse().ok()).expect("--seed S"),
            "--workers" => {
                args.workers =
                    it.next().and_then(|v| v.parse().ok()).filter(|&w| w > 0).expect("--workers W");
                saw_workers = true;
            }
            "--duration-ms" => {
                args.duration_ms = it.next().and_then(|v| v.parse().ok()).expect("--duration-ms D");
                saw_duration = true;
            }
            "--out" => {
                args.out = it.next().expect("--out PATH");
                saw_out = true;
            }
            "--smoke" => args.smoke = true,
            "--help" | "-h" => {
                println!("see the module docs at the top of bench_throughput.rs for usage");
                std::process::exit(0);
            }
            other => panic!("unknown flag {other}"),
        }
    }
    if args.smoke {
        if !saw_vertices {
            args.vertices = 300;
        }
        if !saw_workers {
            args.workers = 2;
        }
        if !saw_duration {
            args.duration_ms = 150;
        }
        if !saw_out {
            args.out = "target/bench_throughput_smoke.json".to_string();
        }
    }
    args
}

struct RunResult {
    workers: usize,
    queries: usize,
    elapsed_s: f64,
    qps: f64,
    p50_us: f64,
    p99_us: f64,
    pool_hit_rate: f64,
    entry_cache_hit_rate: f64,
}

/// One closed-loop run: `workers` sessions over the shared engine, each
/// issuing back-to-back kNN queries until the deadline.
fn run(
    engine: &QueryEngine<DiskSilcIndex>,
    disk: &Arc<DiskSilcIndex>,
    workers: usize,
    duration: Duration,
    k: usize,
) -> RunResult {
    let n = engine.browser().network().vertex_count() as u32;
    // Warm-up: one short pass so caches reach steady state, then measure.
    {
        let mut session = engine.session();
        for i in 0..64u32 {
            let _ = session.knn(VertexId((i * 31 + 7) % n), k, KnnVariant::Basic);
        }
    }
    disk.reset_io_stats();

    let start = Instant::now();
    let handles: Vec<_> = (0..workers)
        .map(|w| {
            let engine = engine.clone();
            std::thread::spawn(move || {
                let mut session = engine.session();
                let mut latencies_us: Vec<f64> = Vec::with_capacity(1 << 14);
                let mut i = 0u64;
                while start.elapsed() < duration {
                    let q = VertexId(((i * 31 + 7 + w as u64 * 13) % n as u64) as u32);
                    let t = Instant::now();
                    let r = session.knn(q, k, KnnVariant::Basic);
                    let us = t.elapsed().as_secs_f64() * 1e6;
                    assert_eq!(r.neighbors.len(), k, "short result mid-benchmark");
                    latencies_us.push(us);
                    i += 1;
                }
                latencies_us
            })
        })
        .collect();
    let mut all: Vec<f64> = Vec::new();
    for h in handles {
        all.extend(h.join().expect("worker panicked"));
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    all.sort_by(f64::total_cmp);
    let io = disk.io_stats();
    let cache = disk.entry_cache_stats();
    RunResult {
        workers,
        queries: all.len(),
        elapsed_s,
        qps: all.len() as f64 / elapsed_s,
        p50_us: percentile(&all, 50.0),
        p99_us: percentile(&all, 99.0),
        pool_hit_rate: io.hit_rate(),
        entry_cache_hit_rate: cache.hit_rate(),
    }
}

fn main() {
    let args = parse_args();
    let grid_exponent = 11u32;
    let (k, density, cache_fraction) = (10usize, 0.07f64, 0.05f64);
    eprintln!(
        "# bench throughput: n = {}, seed = {}, workers = 1 and {}, {} ms windows",
        args.vertices, args.seed, args.workers, args.duration_ms
    );

    let network = Arc::new(road_network(&RoadConfig {
        vertices: args.vertices,
        edge_factor: 1.25,
        detour: 0.2,
        extent: 1000.0,
        seed: args.seed,
    }));
    let index = SilcIndex::build(network.clone(), &BuildConfig { grid_exponent, threads: 0 })
        .expect("throughput network must satisfy the index preconditions");

    let dir = std::env::temp_dir().join("silc-bench-throughput");
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    let idx_path = dir.join(format!("tp-{}-{}.idx", args.vertices, args.seed));
    write_index(&index, &idx_path).expect("serialize index");
    drop(index);
    let disk = Arc::new(
        DiskSilcIndex::open(&idx_path, network.clone(), cache_fraction).expect("open disk index"),
    );
    eprintln!(
        "# disk index: {} pages, pool capacity {} pages",
        disk.page_count(),
        (disk.page_count() as f64 * cache_fraction).ceil() as u64
    );

    let objects = Arc::new(ObjectSet::random(&network, density, args.seed ^ 0xBA5E));
    let k = k.min(objects.len());
    let engine = QueryEngine::new(disk.clone(), objects);

    let duration = Duration::from_millis(args.duration_ms);
    let mut runs = vec![run(&engine, &disk, 1, duration, k)];
    if args.workers > 1 {
        runs.push(run(&engine, &disk, args.workers, duration, k));
    }
    for r in &runs {
        eprintln!(
            "# workers {}: {} queries in {:.2}s = {:.0} QPS, p50 {:.1}µs, p99 {:.1}µs, \
             pool hit {:.3}, entry cache hit {:.3}",
            r.workers,
            r.queries,
            r.elapsed_s,
            r.qps,
            r.p50_us,
            r.p99_us,
            r.pool_hit_rate,
            r.entry_cache_hit_rate
        );
    }

    // Hand-assembled JSON (the workspace has no JSON library); flat fields
    // plus one object per run so re-recorded files diff line by line.
    let host_threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let mut json = format!(
        "{{\n  \"vertices\": {},\n  \"seed\": {},\n  \"grid_exponent\": {},\n  \
         \"cache_fraction\": {},\n  \"knn_k\": {},\n  \"knn_density\": {},\n  \
         \"duration_ms\": {},\n  \"host_threads\": {},\n  \"runs\": [\n",
        args.vertices,
        args.seed,
        grid_exponent,
        cache_fraction,
        k,
        density,
        args.duration_ms,
        host_threads,
    );
    for (i, r) in runs.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workers\": {}, \"queries\": {}, \"qps\": {:.1}, \"p50_us\": {:.3}, \
             \"p99_us\": {:.3}, \"pool_hit_rate\": {:.6}, \"entry_cache_hit_rate\": {:.6}}}{}\n",
            r.workers,
            r.queries,
            r.qps,
            r.p50_us,
            r.p99_us,
            r.pool_hit_rate,
            r.entry_cache_hit_rate,
            if i + 1 < runs.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");

    if let Some(dir) = std::path::Path::new(&args.out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(&args.out, &json).expect("write throughput file");
    println!("{json}");
    eprintln!("# wrote {}", args.out);
    std::fs::remove_file(&idx_path).ok();
}
