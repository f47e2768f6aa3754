//! The TCP server: one session per connection thread, one shared bounded
//! submission queue, executor threads draining Morton-sorted batches.
//!
//! ## Threading model
//!
//! * **Accept thread** — polls the listener, spawns one thread per
//!   connection, registers each connection's writer so shutdown can
//!   unblock its reader by closing the socket.
//! * **Connection threads** — own the socket's read half and a
//!   `SessionSet` (a `QuerySession`, plus a routing session when the
//!   backend has one). `QUERY` frames execute inline on this session;
//!   `BATCH` bodies are submitted to the shared queue. All writes to the
//!   socket go through a mutex-guarded `ConnWriter`, one whole frame per
//!   lock hold, so executor replies and inline replies never interleave
//!   partial frames.
//! * **Executor threads** — each owns its *own* `SessionSet`; they block
//!   on the queue, drain up to [`ServerConfig::max_batch`] jobs, sort the
//!   batch into Morton order ([`order_batch`]), execute, and reply through
//!   each job's writer.
//!
//! Every query answered by any thread is bit-identical to a local
//! [`QuerySession`] run: the sessions *are* local sessions, and the wire
//! codec moves `f64`s as bit patterns.

use crate::batch::{order_batch, Job, SubmissionQueue};
use crate::protocol::{
    self, Algorithm, AnswerBody, ErrorCode, Frame, QueryBody, StatusReply, WireNeighbor,
    CAP_APPROX, CAP_ROUTED, VERSION,
};
use silc::{DistanceBrowser, QueryError};
use silc_morton::MortonCode;
use silc_network::VertexId;
use silc_query::{
    ApproxDistanceOracle, KnnResult, KnnVariant, QueryEngine, QuerySession, Routable, RoutedAnswer,
    RoutingSession,
};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// The index type every connection serves: any [`DistanceBrowser`] behind
/// a vtable — the memory and disk indexes alike.
pub type DynBrowser = dyn DistanceBrowser + Send + Sync;

/// What the server serves. The exact engine is mandatory; the routed and
/// approximate backends are optional and advertised via `SERVER_HELLO`
/// capability bits.
pub struct ServerBackend {
    /// Exact algorithms (kNN/kNN-I/kNN-M/INN/INE/IER) run here.
    pub engine: Arc<QueryEngine<DynBrowser>>,
    /// `Routed` queries, when present ([`CAP_ROUTED`]).
    pub routable: Option<Arc<dyn Routable>>,
    /// `Approx` queries, when present ([`CAP_APPROX`]).
    pub oracle: Option<Arc<dyn ApproxDistanceOracle>>,
    /// Open-time degradations to surface in `STATUS_REPLY` — e.g. the
    /// display forms of [`silc::OpenWarning`] from
    /// `PartitionedSilcIndex::open_warnings`.
    pub warnings: Vec<String>,
}

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Submission-queue capacity; the backpressure threshold.
    pub queue_capacity: usize,
    /// Most jobs an executor drains (and sorts) at once.
    pub max_batch: usize,
    /// Executor thread count.
    pub executor_threads: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { queue_capacity: 256, max_batch: 64, executor_threads: 1 }
    }
}

/// Lifetime counters, visible in `STATUS_REPLY`.
#[derive(Default)]
struct ServerStats {
    queries_answered: AtomicU64,
    busy_rejections: AtomicU64,
    batches_drained: AtomicU64,
    bodies_executed: AtomicU64,
}

/// The socket's write half behind a mutex: one whole frame per lock hold.
struct ConnWriter {
    stream: Mutex<TcpStream>,
}

impl ConnWriter {
    /// Writes one frame; errors are swallowed — a dead client's replies
    /// have nowhere to go, and its reader thread notices independently.
    fn send(&self, frame: &Frame) {
        let mut s = self.stream.lock().unwrap();
        let _ = protocol::write_frame(&mut *s, frame);
    }

    /// Tears the socket down (both halves), unblocking the reader thread.
    fn kill(&self) {
        let s = self.stream.lock().unwrap();
        let _ = s.shutdown(std::net::Shutdown::Both);
    }
}

struct Shared {
    backend: ServerBackend,
    cfg: ServerConfig,
    queue: SubmissionQueue<Arc<ConnWriter>>,
    stats: ServerStats,
    shutdown: AtomicBool,
    /// Writers of live connections, so shutdown can unblock their readers.
    writers: Mutex<Vec<Arc<ConnWriter>>>,
}

impl Shared {
    fn vertex_count(&self) -> u32 {
        self.backend.engine.browser().network().vertex_count() as u32
    }

    fn capabilities(&self) -> u8 {
        let mut caps = 0;
        if self.backend.routable.is_some() {
            caps |= CAP_ROUTED;
        }
        if self.backend.oracle.is_some() {
            caps |= CAP_APPROX;
        }
        caps
    }

    /// Morton code of a query vertex's position, on the index's own grid.
    /// Out-of-range vertices get `0`: they fail validation at execution,
    /// so their batch position is irrelevant.
    fn morton_of(&self, vertex: u32) -> u64 {
        let browser = self.backend.engine.browser();
        if vertex >= self.vertex_count() {
            return 0;
        }
        let p = browser.network().position(VertexId(vertex));
        MortonCode::encode(browser.mapper().to_grid(&p)).0
    }

    fn status(&self) -> StatusReply {
        StatusReply {
            queue_depth: self.queue.depth() as u32,
            queue_capacity: self.queue.capacity() as u32,
            queries_answered: self.stats.queries_answered.load(Ordering::Relaxed),
            busy_rejections: self.stats.busy_rejections.load(Ordering::Relaxed),
            batches_drained: self.stats.batches_drained.load(Ordering::Relaxed),
            bodies_executed: self.stats.bodies_executed.load(Ordering::Relaxed),
            warnings: self.backend.warnings.clone(),
        }
    }
}

/// Per-thread query state: a local session per backend kind. Connection
/// threads and executor threads each own one.
struct SessionSet {
    exact: QuerySession<DynBrowser>,
    routed: Option<Box<dyn RoutingSession>>,
    routed_answer: RoutedAnswer,
}

impl SessionSet {
    fn new(backend: &ServerBackend) -> Self {
        SessionSet {
            exact: backend.engine.session(),
            routed: backend.routable.as_ref().map(|r| r.routing_session()),
            routed_answer: RoutedAnswer::default(),
        }
    }
}

fn answer_from_knn(algorithm: Algorithm, r: &KnnResult) -> AnswerBody {
    AnswerBody {
        algorithm: algorithm as u8,
        complete: true,
        degraded: Vec::new(),
        neighbors: r
            .neighbors
            .iter()
            .map(|n| WireNeighbor {
                object: n.object.0,
                vertex: n.vertex.0,
                lo_bits: n.interval.lo.to_bits(),
                hi_bits: n.interval.hi.to_bits(),
            })
            .collect(),
    }
}

fn answer_from_routed(algorithm: Algorithm, r: &RoutedAnswer) -> AnswerBody {
    AnswerBody {
        algorithm: algorithm as u8,
        complete: r.complete,
        degraded: r.degraded.clone(),
        neighbors: r
            .neighbors
            .iter()
            .map(|n| WireNeighbor {
                object: n.object.0,
                vertex: n.vertex.0,
                lo_bits: n.interval.lo.to_bits(),
                hi_bits: n.interval.hi.to_bits(),
            })
            .collect(),
    }
}

fn query_error_reply(e: QueryError) -> (ErrorCode, String) {
    match e {
        QueryError::Io(_) => (ErrorCode::QueryIo, e.to_string()),
        QueryError::Corrupt { .. } => (ErrorCode::QueryCorrupt, e.to_string()),
    }
}

/// Validates and executes one query body on `set`, against `shared`'s
/// backend. This is the single dispatch path both inline `QUERY` handling
/// and the batching executor go through.
fn execute(
    shared: &Shared,
    set: &mut SessionSet,
    body: &QueryBody,
) -> Result<AnswerBody, (ErrorCode, String)> {
    if body.k == 0 {
        return Err((ErrorCode::BadK, "k must be at least 1".into()));
    }
    let n = shared.vertex_count();
    if body.vertex >= n {
        return Err((ErrorCode::BadVertex, format!("vertex {} out of range 0..{n}", body.vertex)));
    }
    let q = VertexId(body.vertex);
    let k = body.k as usize;
    let algo = body.algorithm;
    match algo {
        Algorithm::Knn | Algorithm::KnnI | Algorithm::KnnM => {
            let variant = match algo {
                Algorithm::Knn => KnnVariant::Basic,
                Algorithm::KnnI => KnnVariant::EarlyEstimate,
                _ => KnnVariant::MinDist,
            };
            let r = set.exact.try_knn(q, k, variant).map_err(query_error_reply)?;
            Ok(answer_from_knn(algo, r))
        }
        Algorithm::Inn => {
            let r = set.exact.try_inn(q, k).map_err(query_error_reply)?;
            Ok(answer_from_knn(algo, r))
        }
        Algorithm::Ine => {
            let r = set.exact.ine(q, k);
            Ok(answer_from_knn(algo, r))
        }
        Algorithm::Ier => {
            let r = set.exact.ier(q, k);
            Ok(answer_from_knn(algo, r))
        }
        Algorithm::Routed => match set.routed.as_mut() {
            Some(routed) => {
                routed.try_knn(q, k, &mut set.routed_answer).map_err(query_error_reply)?;
                Ok(answer_from_routed(algo, &set.routed_answer))
            }
            None => Err((ErrorCode::Unavailable, "no partitioned backend configured".into())),
        },
        Algorithm::Approx => match shared.backend.oracle.as_deref() {
            Some(oracle) => {
                let r = set.exact.try_approx_knn(oracle, q, k).map_err(query_error_reply)?;
                Ok(answer_from_knn(algo, r))
            }
            None => Err((ErrorCode::Unavailable, "no approximate oracle configured".into())),
        },
    }
}

/// Executes one job and replies through its writer. Shared by nothing but
/// the executor loop, but split out so the success/error accounting reads
/// straight-line.
fn run_job(shared: &Shared, set: &mut SessionSet, job: &Job<Arc<ConnWriter>>) {
    match execute(shared, set, &job.body) {
        Ok(answer) => {
            shared.stats.queries_answered.fetch_add(1, Ordering::Relaxed);
            job.reply.send(&Frame::Response {
                request_id: job.request_id,
                sequence: job.sequence,
                answer,
            });
        }
        Err((code, detail)) => {
            job.reply.send(&Frame::Error {
                request_id: job.request_id,
                sequence: job.sequence,
                code: code as u16,
                detail,
            });
        }
    }
}

fn executor_loop(shared: Arc<Shared>) {
    let mut set = SessionSet::new(&shared.backend);
    let mut batch: Vec<Job<Arc<ConnWriter>>> = Vec::with_capacity(shared.cfg.max_batch);
    while shared.queue.drain(shared.cfg.max_batch, &mut batch) {
        shared.stats.batches_drained.fetch_add(1, Ordering::Relaxed);
        shared.stats.bodies_executed.fetch_add(batch.len() as u64, Ordering::Relaxed);
        order_batch(&mut batch);
        for job in &batch {
            run_job(&shared, &mut set, job);
        }
        batch.clear();
    }
}

/// Outcome of one handled frame: keep the connection or close it.
enum Flow {
    Continue,
    Close,
}

fn handle_frame(
    shared: &Shared,
    set: &mut SessionSet,
    writer: &Arc<ConnWriter>,
    frame: Frame,
) -> Flow {
    match frame {
        Frame::Query { request_id, body } => {
            match execute(shared, set, &body) {
                Ok(answer) => {
                    shared.stats.queries_answered.fetch_add(1, Ordering::Relaxed);
                    writer.send(&Frame::Response { request_id, sequence: 0, answer });
                }
                Err((code, detail)) => {
                    writer.send(&Frame::Error {
                        request_id,
                        sequence: 0,
                        code: code as u16,
                        detail,
                    });
                }
            }
            Flow::Continue
        }
        Frame::Batch { request_id, bodies } => {
            for (i, body) in bodies.into_iter().enumerate() {
                let job = Job {
                    reply: Arc::clone(writer),
                    request_id,
                    sequence: i as u32,
                    body,
                    morton: shared.morton_of(body.vertex),
                };
                if shared.queue.try_submit(job).is_err() {
                    shared.stats.busy_rejections.fetch_add(1, Ordering::Relaxed);
                    writer.send(&Frame::ServerBusy { request_id, sequence: i as u32 });
                }
            }
            Flow::Continue
        }
        Frame::Status => {
            writer.send(&Frame::StatusReply(shared.status()));
            Flow::Continue
        }
        Frame::Goodbye => Flow::Close,
        // Client resending HELLO, or speaking server-direction frames:
        // protocol-order violation — MALFORMED, closed (see spec).
        Frame::Hello { .. }
        | Frame::ServerHello { .. }
        | Frame::Response { .. }
        | Frame::Error { .. }
        | Frame::ServerBusy { .. }
        | Frame::StatusReply(_) => {
            writer.send(&Frame::Error {
                request_id: 0,
                sequence: 0,
                code: ErrorCode::Malformed as u16,
                detail: "protocol-order violation".into(),
            });
            Flow::Close
        }
    }
}

fn connection_loop(shared: Arc<Shared>, mut stream: TcpStream, writer: Arc<ConnWriter>) {
    // Handshake: the first frame must be HELLO with a speakable version.
    match protocol::read_frame(&mut stream) {
        Ok(Some(Frame::Hello { version })) if version == VERSION => {
            writer.send(&Frame::ServerHello {
                version: VERSION,
                capabilities: shared.capabilities(),
                vertex_count: shared.vertex_count(),
                object_count: shared.backend.engine.objects().len() as u32,
            });
        }
        Ok(Some(Frame::Hello { .. })) => {
            writer.send(&Frame::Error {
                request_id: 0,
                sequence: 0,
                code: ErrorCode::UnsupportedVersion as u16,
                detail: format!("server speaks version {VERSION}"),
            });
            return;
        }
        Ok(Some(_)) => {
            writer.send(&Frame::Error {
                request_id: 0,
                sequence: 0,
                code: ErrorCode::Malformed as u16,
                detail: "expected HELLO first".into(),
            });
            return;
        }
        Ok(None) => return,
        Err(e) => {
            if let Some((code, _)) = e.wire_reply() {
                writer.send(&Frame::Error {
                    request_id: 0,
                    sequence: 0,
                    code: code as u16,
                    detail: e.to_string(),
                });
            }
            return;
        }
    }

    let mut set = SessionSet::new(&shared.backend);
    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        match protocol::read_frame(&mut stream) {
            Ok(Some(frame)) => match handle_frame(&shared, &mut set, &writer, frame) {
                Flow::Continue => {}
                Flow::Close => return,
            },
            // Clean close, truncation, reset: nothing is owed. The spec's
            // "MUST NOT panic or hang" for mid-request disconnects is this
            // arm — the thread just winds down.
            Ok(None) => return,
            Err(e) => match e.wire_reply() {
                Some((code, keep)) => {
                    writer.send(&Frame::Error {
                        request_id: 0,
                        sequence: 0,
                        code: code as u16,
                        detail: e.to_string(),
                    });
                    if !keep {
                        return;
                    }
                }
                None => return,
            },
        }
    }
}

/// A running server. Dropping it shuts everything down: the listener, the
/// executors, and every live connection.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    executors: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving
    /// in background threads.
    pub fn start<A: ToSocketAddrs>(
        addr: A,
        backend: ServerBackend,
        cfg: ServerConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            queue: SubmissionQueue::new(cfg.queue_capacity),
            backend,
            cfg,
            stats: ServerStats::default(),
            shutdown: AtomicBool::new(false),
            writers: Mutex::new(Vec::new()),
        });

        let executors = (0..shared.cfg.executor_threads.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || executor_loop(shared))
            })
            .collect();

        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || {
            accept_loop(accept_shared, listener);
        });

        Ok(Server { shared, addr, accept: Some(accept), executors })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time status snapshot — the same data `STATUS` returns.
    pub fn status(&self) -> StatusReply {
        self.shared.status()
    }

    /// Stops accepting, closes every connection, drains the executors.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.queue.close();
        for w in self.shared.writers.lock().unwrap().drain(..) {
            w.kill();
        }
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.executors.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(shared: Arc<Shared>, listener: TcpListener) {
    let mut conn_threads = Vec::new();
    while !shared.shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                let writer = match stream.try_clone() {
                    Ok(w) => Arc::new(ConnWriter { stream: Mutex::new(w) }),
                    Err(_) => continue,
                };
                shared.writers.lock().unwrap().push(Arc::clone(&writer));
                let shared = Arc::clone(&shared);
                conn_threads.push(std::thread::spawn(move || {
                    connection_loop(Arc::clone(&shared), stream, Arc::clone(&writer));
                    // The reader is done with this connection: close the
                    // write-half clone too (the client is owed its EOF) and
                    // drop it from the shutdown registry.
                    writer.kill();
                    let mut writers = shared.writers.lock().unwrap();
                    if let Some(i) = writers.iter().position(|w| Arc::ptr_eq(w, &writer)) {
                        writers.swap_remove(i);
                    }
                }));
            }
            // `WouldBlock` is the idle poll. Any other error (EMFILE when
            // file descriptors run out, a connection aborted before it was
            // accepted) is transient for the listener: back off and keep
            // accepting rather than drop the listener for good.
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    for h in conn_threads {
        let _ = h.join();
    }
}
