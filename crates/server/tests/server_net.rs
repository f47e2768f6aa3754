//! End-to-end TCP tests: the acceptance gates of the serving tier.
//!
//! * ≥4 simultaneous clients receive answers bit-identical to local
//!   `QuerySession` execution, across every algorithm the backend serves,
//!   and every `QUERY` body is counted as executed by the executors.
//! * Malformed / truncated / oversized / garbage frames produce typed
//!   error frames — never a panic, never a hang; a malformed payload in
//!   a well-formed frame leaves the connection up.
//! * Mid-request disconnects leave the server healthy.
//! * Flooding a tiny submission queue, with `BATCH` bodies or with
//!   pipelined `QUERY` frames, engages `SERVER_BUSY` backpressure and
//!   every body is accounted for (answered + busy == sent).
//! * A `BATCH` carrying all eight algorithms, routed and approximate
//!   included, submitted out of Morton order, answers every sequence slot
//!   bit-identically to local execution.
//! * Running out of file descriptors does not take the listener down.

use silc::partitioned::{PartitionedBuildConfig, PartitionedSilcIndex};
use silc::{BuildConfig, SilcIndex};
use silc_morton::MortonCode;
use silc_network::generate::{road_network, RoadConfig};
use silc_network::{PartitionConfig, SpatialNetwork, VertexId};
use silc_query::{
    ApproxDistanceOracle, KnnVariant, ObjectSet, PartitionedEngine, PartitionedSession,
    QueryEngine, QuerySession,
};
use silc_server::protocol::{self, Frame, WireNeighbor, HEADER_LEN, MAGIC, MAX_FRAME_LEN, VERSION};
use silc_server::server::DynBrowser;
use silc_server::{
    Algorithm, AnswerBody, Client, ErrorCode, Outcome, QueryBody, Server, ServerBackend,
    ServerConfig,
};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;

fn fixture(
    vertices: usize,
    seed: u64,
) -> (Arc<SpatialNetwork>, Arc<QueryEngine<DynBrowser>>, Arc<ObjectSet>) {
    let g = Arc::new(road_network(&RoadConfig { vertices, seed, ..Default::default() }));
    let objects = Arc::new(ObjectSet::random(&g, 0.12, seed.wrapping_add(1)));
    let idx = Arc::new(
        SilcIndex::build(Arc::clone(&g), &BuildConfig { grid_exponent: 9, threads: 0 }).unwrap(),
    );
    let browser: Arc<DynBrowser> = idx;
    (g, Arc::new(QueryEngine::new(browser, Arc::clone(&objects))), objects)
}

fn exact_only_backend(engine: &Arc<QueryEngine<DynBrowser>>) -> ServerBackend {
    ServerBackend { engine: Arc::clone(engine), routable: None, oracle: None, warnings: Vec::new() }
}

fn wire(r: &silc_query::KnnResult) -> Vec<WireNeighbor> {
    r.neighbors
        .iter()
        .map(|n| WireNeighbor {
            object: n.object.0,
            vertex: n.vertex.0,
            lo_bits: n.interval.lo.to_bits(),
            hi_bits: n.interval.hi.to_bits(),
        })
        .collect()
}

/// A backend serving all eight algorithms over `g`: the exact engine, a
/// 3-shard router built in `dir`, and a PCP oracle.
fn full_backend(
    g: &Arc<SpatialNetwork>,
    engine: &Arc<QueryEngine<DynBrowser>>,
    objects: &Arc<ObjectSet>,
    dir: &std::path::Path,
) -> ServerBackend {
    std::fs::remove_dir_all(dir).ok();
    let pcfg = PartitionedBuildConfig {
        partition: PartitionConfig { shards: 3, ..Default::default() },
        grid_exponent: 9,
        threads: 1,
        cache_fraction: 0.5,
    };
    let pidx = Arc::new(PartitionedSilcIndex::build_in_dir(Arc::clone(g), dir, &pcfg).unwrap());
    ServerBackend {
        engine: Arc::clone(engine),
        routable: Some(Arc::new(PartitionedEngine::new(pidx, Arc::clone(objects)))),
        oracle: Some(Arc::new(silc_pcp::DistanceOracle::build(g, 9, 8.0))),
        warnings: Vec::new(),
    }
}

/// The answer a local session gives `body`: what the server must send,
/// bit for bit.
fn local_answer(
    exact: &mut QuerySession<DynBrowser>,
    routed: &mut PartitionedSession,
    oracle: &dyn ApproxDistanceOracle,
    body: QueryBody,
) -> AnswerBody {
    let (q, k) = (VertexId(body.vertex), body.k as usize);
    let (neighbors, complete, degraded) = match body.algorithm {
        Algorithm::Knn => (wire(exact.knn(q, k, KnnVariant::Basic)), true, vec![]),
        Algorithm::KnnI => (wire(exact.knn(q, k, KnnVariant::EarlyEstimate)), true, vec![]),
        Algorithm::KnnM => (wire(exact.knn(q, k, KnnVariant::MinDist)), true, vec![]),
        Algorithm::Inn => (wire(exact.inn(q, k)), true, vec![]),
        Algorithm::Ine => (wire(exact.ine(q, k)), true, vec![]),
        Algorithm::Ier => (wire(exact.ier(q, k)), true, vec![]),
        Algorithm::Approx => (wire(exact.approx_knn(oracle, q, k)), true, vec![]),
        Algorithm::Routed => {
            let r = routed.knn(q, k);
            let neighbors = r
                .neighbors
                .iter()
                .map(|n| WireNeighbor {
                    object: n.object.0,
                    vertex: n.vertex.0,
                    lo_bits: n.interval.lo.to_bits(),
                    hi_bits: n.interval.hi.to_bits(),
                })
                .collect();
            (neighbors, r.complete, r.degraded.clone())
        }
    };
    AnswerBody { algorithm: body.algorithm as u8, complete, degraded, neighbors }
}

#[test]
fn four_concurrent_clients_get_bit_identical_answers() {
    let (g, engine, objects) = fixture(200, 99);

    // Full backend: exact + routed + approx, so every algorithm is
    // exercised concurrently.
    let dir = std::env::temp_dir().join("silc-server-net-concurrent");
    let backend = full_backend(&g, &engine, &objects, &dir);
    let routed = Arc::clone(backend.routable.as_ref().unwrap());
    let oracle = Arc::clone(backend.oracle.as_ref().unwrap());
    let server = Server::start("127.0.0.1:0", backend, ServerConfig::default()).unwrap();
    let addr = server.addr();

    let n = g.vertex_count() as u32;
    let rounds = 6u32;
    let threads: Vec<_> = (0..4u32)
        .map(|t| {
            let engine = Arc::clone(&engine);
            let routed = Arc::clone(&routed);
            let oracle = Arc::clone(&oracle);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut local = engine.session();
                let mut local_routed = routed.session();
                for round in 0..rounds {
                    let q = (t * 37 + round * 13) % n;
                    let k = 1 + (t + round) % 4;
                    for algorithm in Algorithm::ALL {
                        let body = QueryBody { algorithm, vertex: q, k };
                        let got = match client.query(body).unwrap() {
                            Outcome::Answer(a) => a,
                            other => panic!("client {t}: {algorithm:?} answered {other:?}"),
                        };
                        let want = local_answer(&mut local, &mut local_routed, &*oracle, body);
                        assert_eq!(
                            got, want,
                            "client {t} {algorithm:?} q={q} k={k}: remote answer must be \
                             bit-identical to local"
                        );
                    }
                }
                client.goodbye().unwrap();
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    // Every QUERY ran on an executor: the executors' body count is the
    // number of queries sent.
    let sent = 4 * rounds as u64 * Algorithm::ALL.len() as u64;
    let status = server.status();
    assert_eq!(status.bodies_executed, sent, "QUERY bodies run on the executors");
    assert_eq!(status.queries_answered, sent);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flood_engages_backpressure_and_accounts_for_every_body() {
    let (_, engine, _) = fixture(150, 7);
    let cfg = ServerConfig { queue_capacity: 2, max_batch: 1, executor_threads: 1 };
    let server = Server::start("127.0.0.1:0", exact_only_backend(&engine), cfg).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let bodies: Vec<QueryBody> =
        (0..300).map(|i| QueryBody { algorithm: Algorithm::Knn, vertex: i % 150, k: 3 }).collect();
    let outcomes = client.batch(&bodies).unwrap();
    let answered = outcomes.iter().filter(|o| matches!(o, Outcome::Answer(_))).count();
    let busy = outcomes.iter().filter(|o| matches!(o, Outcome::Busy)).count();
    assert_eq!(answered + busy, bodies.len(), "every body gets exactly one reply");
    assert!(busy > 0, "a 2-deep queue flooded with 300 bodies must bounce some");
    assert!(answered > 0, "the executor must also make progress");

    let status = client.status().unwrap();
    assert_eq!(status.busy_rejections, busy as u64);
    assert_eq!(status.queue_capacity, 2);
    client.goodbye().unwrap();
    server.shutdown();

    // The same flood as pipelined QUERY frames: they go through the same
    // bounded queue, so a one-slot queue must bounce some of them too.
    let cfg = ServerConfig { queue_capacity: 1, max_batch: 1, executor_threads: 1 };
    let server = Server::start("127.0.0.1:0", exact_only_backend(&engine), cfg).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let sent = 300u64;
    let mut frames = Vec::new();
    for id in 1..=sent {
        let body = QueryBody { algorithm: Algorithm::Knn, vertex: (id % 150) as u32, k: 3 };
        frames.extend(protocol::encode_frame(&Frame::Query { request_id: id, body }));
    }
    client.send_raw(&frames).unwrap();
    let (mut answered, mut busy) = (0u64, 0u64);
    let mut seen = vec![false; sent as usize + 1];
    for _ in 0..sent {
        let (id, sequence, outcome) = client.recv().unwrap().expect("a reply per QUERY");
        assert_eq!(sequence, 0, "a QUERY is a one-body job at sequence 0");
        assert!(!std::mem::replace(&mut seen[id as usize], true), "one reply for request {id}");
        match outcome {
            Outcome::Answer(_) => answered += 1,
            Outcome::Busy => busy += 1,
            other => panic!("request {id} answered {other:?}"),
        }
    }
    assert_eq!(answered + busy, sent, "every QUERY gets exactly one reply");
    assert!(busy > 0, "a 1-deep queue flooded with {sent} QUERY frames must bounce some");
    assert!(answered > 0, "the executor must also make progress");

    let status = client.status().unwrap();
    assert_eq!(status.busy_rejections, busy);
    assert_eq!(status.queries_answered, answered);
    assert_eq!(status.bodies_executed, answered);
    assert_eq!(status.queue_capacity, 1);
    client.goodbye().unwrap();
    server.shutdown();
}

#[test]
fn hardening_bad_frames_get_typed_errors_and_disconnects_leave_server_healthy() {
    let (_, engine, _) = fixture(120, 31);
    let server =
        Server::start("127.0.0.1:0", exact_only_backend(&engine), ServerConfig::default()).unwrap();
    let addr = server.addr();

    // Garbage magic → BAD_MAGIC, closed.
    let mut c = Client::connect(addr).unwrap();
    c.send_raw(&[0u8; 32]).unwrap();
    match c.recv_frame().unwrap().unwrap() {
        Frame::Error { code, .. } => assert_eq!(code, ErrorCode::BadMagic as u16),
        other => panic!("garbage answered {other:?}"),
    }
    assert!(c.recv_frame().unwrap().is_none());

    // Oversized header → FRAME_TOO_LARGE, closed.
    let mut c = Client::connect(addr).unwrap();
    let mut hdr = Vec::new();
    hdr.extend_from_slice(&MAGIC.to_le_bytes());
    hdr.extend_from_slice(&VERSION.to_le_bytes());
    hdr.push(0x03);
    hdr.push(0);
    hdr.extend_from_slice(&(MAX_FRAME_LEN + 7).to_le_bytes());
    c.send_raw(&hdr).unwrap();
    match c.recv_frame().unwrap().unwrap() {
        Frame::Error { code, .. } => assert_eq!(code, ErrorCode::FrameTooLarge as u16),
        other => panic!("oversized answered {other:?}"),
    }
    assert!(c.recv_frame().unwrap().is_none());

    // Unknown kind → UNKNOWN_KIND, closed.
    let mut c = Client::connect(addr).unwrap();
    let mut hdr = Vec::new();
    hdr.extend_from_slice(&MAGIC.to_le_bytes());
    hdr.extend_from_slice(&VERSION.to_le_bytes());
    hdr.push(0x6F);
    hdr.push(0);
    hdr.extend_from_slice(&0u32.to_le_bytes());
    c.send_raw(&hdr).unwrap();
    match c.recv_frame().unwrap().unwrap() {
        Frame::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownKind as u16),
        other => panic!("unknown kind answered {other:?}"),
    }
    assert!(c.recv_frame().unwrap().is_none());

    // Truncated frame then hard disconnect: no reply owed; the server
    // must survive. (This is the mid-request-disconnect gate.)
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        protocol::write_frame(&mut raw, &Frame::Hello { version: VERSION }).unwrap();
        let mut hello_reply = raw.try_clone().unwrap();
        protocol::read_frame(&mut hello_reply).unwrap().unwrap();
        let full = protocol::encode_frame(&Frame::Query {
            request_id: 1,
            body: QueryBody { algorithm: Algorithm::Knn, vertex: 0, k: 1 },
        });
        raw.write_all(&full[..HEADER_LEN + 3]).unwrap();
        // Drop mid-payload.
    }

    // Bad vertex / bad k / unavailable algorithm → typed per-query errors
    // on a connection that stays up.
    let mut c = Client::connect(addr).unwrap();
    match c.query(QueryBody { algorithm: Algorithm::Knn, vertex: 10_000, k: 1 }).unwrap() {
        Outcome::ServerError { code, .. } => assert_eq!(code, ErrorCode::BadVertex as u16),
        other => panic!("bad vertex answered {other:?}"),
    }
    match c.query(QueryBody { algorithm: Algorithm::Knn, vertex: 0, k: 0 }).unwrap() {
        Outcome::ServerError { code, .. } => assert_eq!(code, ErrorCode::BadK as u16),
        other => panic!("k=0 answered {other:?}"),
    }
    for algorithm in [Algorithm::Routed, Algorithm::Approx] {
        match c.query(QueryBody { algorithm, vertex: 0, k: 1 }).unwrap() {
            Outcome::ServerError { code, .. } => {
                assert_eq!(code, ErrorCode::Unavailable as u16, "{algorithm:?}")
            }
            other => panic!("{algorithm:?} answered {other:?}"),
        }
    }
    // A well-framed QUERY whose algorithm byte is out of range is
    // MALFORMED but recoverable: typed error, connection stays up.
    let mut bad_query = protocol::encode_frame(&Frame::Query {
        request_id: 99,
        body: QueryBody { algorithm: Algorithm::Knn, vertex: 0, k: 1 },
    });
    bad_query[HEADER_LEN + 8] = 0xEE; // the algorithm byte
    c.send_raw(&bad_query).unwrap();
    match c.recv_frame().unwrap().unwrap() {
        Frame::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed as u16),
        other => panic!("bad algorithm byte answered {other:?}"),
    }
    // And the connection still answers real queries after all that.
    match c.query(QueryBody { algorithm: Algorithm::Knn, vertex: 1, k: 2 }).unwrap() {
        Outcome::Answer(a) => assert!(!a.neighbors.is_empty()),
        other => panic!("healthy query answered {other:?}"),
    }

    // Protocol-order violation: HELLO twice → MALFORMED, closed.
    c.send_raw(&protocol::encode_frame(&Frame::Hello { version: VERSION })).unwrap();
    match c.recv_frame().unwrap().unwrap() {
        Frame::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed as u16),
        other => panic!("double HELLO answered {other:?}"),
    }
    assert!(c.recv_frame().unwrap().is_none());

    server.shutdown();
}

#[test]
fn batch_answers_match_local_sessions_bit_for_bit() {
    let (g, engine, objects) = fixture(160, 55);
    let browser = engine.browser();
    let morton_of =
        |v: u32| MortonCode::encode(browser.mapper().to_grid(&g.position(VertexId(v)))).0;

    // Submit in descending Morton order, so the executor's stable Morton
    // sort must reorder the batch before it runs.
    let mut vertices: Vec<u32> = (0..40).map(|i| (i * 7) % 160).collect();
    vertices.sort_by_key(|&v| std::cmp::Reverse(morton_of(v)));
    let mortons: Vec<u64> = vertices.iter().map(|&v| morton_of(v)).collect();
    assert!(
        mortons.windows(2).any(|w| w[0] > w[1]),
        "precondition: the batch is submitted out of Morton order"
    );
    // One batch cycles through all eight algorithms, routed and
    // approximate included.
    let bodies: Vec<QueryBody> = vertices
        .iter()
        .enumerate()
        .map(|(i, &vertex)| QueryBody {
            algorithm: Algorithm::ALL[i % Algorithm::ALL.len()],
            vertex,
            k: 1 + (i % 4) as u32,
        })
        .collect();

    let dir = std::env::temp_dir().join("silc-server-net-batch");
    let backend = full_backend(&g, &engine, &objects, &dir);
    let routed = Arc::clone(backend.routable.as_ref().unwrap());
    let oracle = Arc::clone(backend.oracle.as_ref().unwrap());
    let server = Server::start("127.0.0.1:0", backend, ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    assert_eq!(client.info().capabilities, 0b11, "routed + approx both configured");
    let outcomes = client.batch(&bodies).unwrap();
    client.goodbye().unwrap();
    server.shutdown();

    let mut local = engine.session();
    let mut local_routed = routed.session();
    for (i, (&body, outcome)) in bodies.iter().zip(outcomes).enumerate() {
        let want = local_answer(&mut local, &mut local_routed, &*oracle, body);
        assert_eq!(
            outcome,
            Outcome::Answer(want),
            "sequence {i} ({body:?}) must be bit-identical to local execution"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Set in the child process [`accept_loop_survives_fd_exhaustion`] re-execs
/// itself into under a 64-descriptor limit.
const FD_CHILD_ENV: &str = "SILC_SERVER_NET_FD_CHILD";

#[test]
fn accept_loop_survives_fd_exhaustion() {
    // Running out of descriptors is process-wide, so the scenario runs in
    // a child process of its own with `ulimit -n 64`.
    if std::env::var_os(FD_CHILD_ENV).is_none() {
        let exe = std::env::current_exe().unwrap();
        let out = std::process::Command::new("sh")
            .arg("-c")
            .arg(r#"ulimit -n 64 && exec "$0" "$@""#)
            .arg(exe)
            .args(["--exact", "accept_loop_survives_fd_exhaustion", "--test-threads=1"])
            .env(FD_CHILD_ENV, "1")
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "child failed:\n{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        return;
    }

    let (_, engine, _) = fixture(60, 3);
    let server =
        Server::start("127.0.0.1:0", exact_only_backend(&engine), ServerConfig::default()).unwrap();
    let addr = server.addr();

    // Take every free descriptor, then hand them back one at a time until
    // the client socket fits: the server's accept of that connection then
    // finds none free and fails with EMFILE.
    let mut hogs = Vec::new();
    let err = loop {
        match std::fs::File::open("/dev/null") {
            Ok(f) => hogs.push(f),
            Err(e) => break e,
        }
        assert!(hogs.len() < 4096, "the descriptor limit must be reachable (ulimit -n 64)");
    };
    assert_eq!(err.raw_os_error(), Some(24), "open must fail with EMFILE, got {err}");
    let mut stranded = loop {
        drop(hogs.pop().expect("a descriptor to hand back"));
        match TcpStream::connect(addr) {
            Ok(s) => break s,
            Err(e) if e.raw_os_error() == Some(24) => continue,
            Err(e) => panic!("connect with one descriptor free: {e}"),
        }
    };
    // The accept loop polls every 5 ms; 100 ms lets it meet EMFILE. No
    // server event marks that moment, so this is a sleep: a slower host
    // can only make the test miss the defect, never fail the fix.
    std::thread::sleep(std::time::Duration::from_millis(100));
    drop(hogs);

    // The listener must still be up: both the stranded connection and a
    // fresh one complete the handshake and get answers.
    protocol::write_frame(&mut stranded, &Frame::Hello { version: VERSION }).unwrap();
    match protocol::read_frame(&mut stranded).unwrap() {
        Some(Frame::ServerHello { .. }) => {}
        other => panic!("stranded connection answered {other:?}"),
    }
    let mut client = Client::connect(addr).unwrap();
    match client.query(QueryBody { algorithm: Algorithm::Knn, vertex: 1, k: 2 }).unwrap() {
        Outcome::Answer(a) => assert!(!a.neighbors.is_empty()),
        other => panic!("query after fd exhaustion answered {other:?}"),
    }
    client.goodbye().unwrap();
    server.shutdown();
}
