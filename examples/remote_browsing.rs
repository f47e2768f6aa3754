//! Distance browsing over a wire.
//!
//! Everything the other walkthroughs do locally — exact kNN, the
//! incremental variants, ε-approximate answers — served here through
//! `silc-server`'s length-prefixed binary protocol on a loopback TCP
//! socket, and checked bit-identical to a local `QuerySession` on the
//! same index. Every query submitted over the wire is drained from one
//! bounded queue, and each drained batch is sorted by query-point Morton
//! code before execution, so spatially adjacent queries share
//! just-faulted pages.
//!
//! ```sh
//! cargo run -p silc-bench --release --example remote_browsing
//! ```

use silc::{BuildConfig, SilcIndex};
use silc_network::generate::{road_network, RoadConfig};
use silc_network::VertexId;
use silc_pcp::DistanceOracle;
use silc_query::{ApproxDistanceOracle, KnnVariant, ObjectSet, QueryEngine};
use silc_server::server::DynBrowser;
use silc_server::{Algorithm, Client, Outcome, QueryBody, Server, ServerBackend, ServerConfig};
use std::sync::Arc;

fn main() {
    let k = 4u32;

    // The embedder's side: a network, its SILC index, an object set, and
    // the ε-approximate oracle — exactly what a local session would use.
    let network = Arc::new(road_network(&RoadConfig {
        vertices: silc_bench::example_vertices(2000),
        seed: 2718,
        ..Default::default()
    }));
    let n = network.vertex_count();
    println!("building the SILC index and PCP oracle for {n} vertices…");
    let index = Arc::new(SilcIndex::build(network.clone(), &BuildConfig::default()).unwrap());
    let cafes = Arc::new(ObjectSet::random(&network, 0.08, 41));
    let engine: Arc<QueryEngine<DynBrowser>> = Arc::new(QueryEngine::new(index, cafes));
    let oracle: Arc<dyn ApproxDistanceOracle> = Arc::new(DistanceOracle::build(&network, 9, 8.0));

    // The server: an ephemeral loopback port, Morton-ordered batching.
    let backend = ServerBackend {
        engine: engine.clone(),
        routable: None,
        oracle: Some(oracle),
        warnings: Vec::new(),
    };
    let server = Server::start("127.0.0.1:0", backend, ServerConfig::default()).unwrap();
    println!("serving on {}…", server.addr());

    // The browser's side: a TCP client, no index in sight.
    let mut client = Client::connect(server.addr()).unwrap();
    let info = client.info();
    println!(
        "connected: protocol v{}, {} vertices, {} objects, capability bits {:#04b}",
        info.version, info.vertex_count, info.object_count, info.capabilities
    );

    // One interactive query: the k nearest cafés by network distance.
    let q = VertexId(7 % n as u32);
    let answer =
        match client.query(QueryBody { algorithm: Algorithm::Knn, vertex: q.0, k }).unwrap() {
            Outcome::Answer(a) => a,
            other => panic!("unexpected outcome: {other:?}"),
        };
    println!("\nnearest {k} cafés to vertex {}:", q.0);
    for wn in &answer.neighbors {
        println!(
            "  object {:>4} at vertex {:>5}, network distance {:.3}",
            wn.object,
            wn.vertex,
            f64::from_bits(wn.lo_bits)
        );
    }

    // The wire answer is bit-identical to a local session on the same
    // engine — distances travel as f64 bit patterns, not decimal text.
    let mut local = engine.session();
    let local_answer = local.knn(q, k as usize, KnnVariant::Basic);
    for (wn, ln) in answer.neighbors.iter().zip(&local_answer.neighbors) {
        assert_eq!(wn.object, ln.object.0);
        assert_eq!(wn.lo_bits, ln.interval.lo.to_bits());
        assert_eq!(wn.hi_bits, ln.interval.hi.to_bits());
    }
    println!("  … bit-identical to a local QuerySession.");

    // A batch: scattered query points, mixed algorithms (exact variants
    // and the ε-approximate oracle), one round trip. The server sorts
    // the drained batch by Morton code before executing it.
    let algorithms =
        [Algorithm::Knn, Algorithm::KnnI, Algorithm::KnnM, Algorithm::Inn, Algorithm::Approx];
    let bodies: Vec<QueryBody> = (0..40u32)
        .map(|i| QueryBody {
            algorithm: algorithms[i as usize % algorithms.len()],
            vertex: (i * 97) % n as u32,
            k,
        })
        .collect();
    let outcomes = client.batch(&bodies).unwrap();
    let answered = outcomes.iter().filter(|o| matches!(o, Outcome::Answer(_))).count();
    println!(
        "\nbatch of {} mixed queries: {answered} answered, {} shed as SERVER_BUSY",
        bodies.len(),
        outcomes.len() - answered
    );

    // The status frame: the server's own accounting of this session.
    let status = client.status().unwrap();
    println!(
        "server status: {} queries answered, {} batches drained, queue {}/{}",
        status.queries_answered, status.batches_drained, status.queue_depth, status.queue_capacity
    );

    client.goodbye().unwrap();
    server.shutdown();
    println!("\nclean shutdown — remote browsing works.");
}
