//! Records the in-repo bench baseline: precompute cost and query latency
//! at fixed sizes/seeds, written as JSON so later perf PRs have a
//! committed denominator to compare against.
//!
//! ```text
//! cargo run -p silc-bench --release --bin bench_baseline -- [FLAGS]
//!
//! FLAGS
//!   --vertices N   road-network size                  (default 2000)
//!   --seed S       master RNG seed                    (default 2008)
//!   --out PATH     output file                        (default BENCH_baseline.json)
//!   --smoke        CI smoke mode: 300 vertices, write to target/, no
//!                  assertions on absolute time — only that the pipeline runs
//! ```
//!
//! The recorded quantities:
//! * `build_seconds_serial` / `build_seconds_parallel` — `SilcIndex::build`
//!   wall-clock with `threads = 1` and `threads = 0` (all cores),
//! * `total_blocks` — index size in Morton blocks (machine-independent),
//! * `knn_mean_us` / `knn_p95_us` — kNN (Basic) latency at `k = 10`,
//!   object density 0.07, over a fixed query sample.

use silc::{BuildConfig, SilcIndex};
use silc_bench::stats::percentile;
use silc_network::generate::{road_network, RoadConfig};
use silc_network::VertexId;
use silc_query::{knn, KnnVariant, ObjectSet};
use std::sync::Arc;
use std::time::Instant;

struct Args {
    vertices: usize,
    seed: u64,
    out: String,
    smoke: bool,
}

fn parse_args() -> Args {
    let mut args =
        Args { vertices: 2000, seed: 2008, out: "BENCH_baseline.json".to_string(), smoke: false };
    let mut it = std::env::args().skip(1);
    let mut saw_vertices = false;
    let mut saw_out = false;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--vertices" => {
                args.vertices = it.next().and_then(|v| v.parse().ok()).expect("--vertices N");
                saw_vertices = true;
            }
            "--seed" => args.seed = it.next().and_then(|v| v.parse().ok()).expect("--seed S"),
            "--out" => {
                args.out = it.next().expect("--out PATH");
                saw_out = true;
            }
            "--smoke" => args.smoke = true,
            "--help" | "-h" => {
                println!("see the module docs at the top of bench_baseline.rs for usage");
                std::process::exit(0);
            }
            other => panic!("unknown flag {other}"),
        }
    }
    if args.smoke {
        if !saw_vertices {
            args.vertices = 300;
        }
        if !saw_out {
            args.out = "target/bench_baseline_smoke.json".to_string();
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let grid_exponent = 11u32;
    eprintln!("# bench baseline: n = {}, seed = {}", args.vertices, args.seed);

    let network = Arc::new(road_network(&RoadConfig {
        vertices: args.vertices,
        edge_factor: 1.25,
        detour: 0.2,
        extent: 1000.0,
        seed: args.seed,
    }));

    // Precompute cost, serial then parallel (separate builds so the parallel
    // number is a clean wall-clock, not contaminated by a warm allocator).
    let serial = SilcIndex::build(network.clone(), &BuildConfig { grid_exponent, threads: 1 })
        .expect("baseline network must satisfy the index preconditions");
    let parallel = SilcIndex::build(network.clone(), &BuildConfig { grid_exponent, threads: 0 })
        .expect("baseline network must satisfy the index preconditions");
    assert_eq!(serial.stats().total_blocks, parallel.stats().total_blocks);
    eprintln!(
        "# build: serial {:.3}s, parallel {:.3}s, {} blocks",
        serial.stats().build_seconds,
        parallel.stats().build_seconds,
        parallel.stats().total_blocks
    );

    // Query latency: kNN (Basic) at the paper's k = 10, density 0.07.
    let k = 10usize;
    let density = 0.07f64;
    let objects = ObjectSet::random(&network, density, args.seed ^ 0xBA5E);
    let n = network.vertex_count() as u32;
    let queries: Vec<VertexId> = (0..64u32).map(|i| VertexId((i * 31 + 7) % n)).collect();
    let k = k.min(objects.len());
    // Warm-up pass (page in the index), then the measured pass.
    for &q in &queries {
        let _ = knn(&parallel, &objects, q, k, KnnVariant::Basic);
    }
    let mut lat_us: Vec<f64> = queries
        .iter()
        .map(|&q| {
            let t = Instant::now();
            let r = knn(&parallel, &objects, q, k, KnnVariant::Basic);
            let us = t.elapsed().as_secs_f64() * 1e6;
            assert_eq!(r.neighbors.len(), k);
            us
        })
        .collect();
    lat_us.sort_by(f64::total_cmp);
    let mean_us: f64 = lat_us.iter().sum::<f64>() / lat_us.len().max(1) as f64;
    let p95_us = percentile(&lat_us, 95.0);
    eprintln!("# knn: mean {mean_us:.1}µs, p95 {p95_us:.1}µs over {} queries", lat_us.len());

    // The workspace has no JSON library, so the JSON is assembled by hand;
    // the format is flat on purpose — diffs of re-recorded baselines should
    // read line-by-line.
    let threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let json = format!(
        "{{\n  \"vertices\": {},\n  \"seed\": {},\n  \"grid_exponent\": {},\n  \
         \"edge_factor\": 1.25,\n  \"host_threads\": {},\n  \
         \"build_seconds_serial\": {:.6},\n  \"build_seconds_parallel\": {:.6},\n  \
         \"total_blocks\": {},\n  \"knn_k\": {},\n  \"knn_density\": {},\n  \
         \"knn_queries\": {},\n  \"knn_mean_us\": {:.3},\n  \"knn_p95_us\": {:.3}\n}}\n",
        args.vertices,
        args.seed,
        grid_exponent,
        threads,
        serial.stats().build_seconds,
        parallel.stats().build_seconds,
        parallel.stats().total_blocks,
        k,
        density,
        lat_us.len(),
        mean_us,
        p95_us,
    );
    if let Some(dir) = std::path::Path::new(&args.out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(&args.out, &json).expect("write baseline file");
    println!("{json}");
    eprintln!("# wrote {}", args.out);
}
