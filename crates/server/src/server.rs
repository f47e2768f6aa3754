//! The TCP server: connection threads that decode and submit, one shared
//! bounded submission queue, executor threads draining Morton-sorted
//! batches.
//!
//! ## Threading model
//!
//! * **Accept thread** — polls the listener, spawns one thread per
//!   connection, registers each connection's writer so shutdown can
//!   unblock its reader by closing the socket, and drops the handles of
//!   connection threads that have finished.
//! * **Connection threads** — own the socket's read half. They decode
//!   frames, submit every query body (a `QUERY` as a one-body job with
//!   sequence `0`, each `BATCH` body at its own sequence) to the shared
//!   queue, answer `SERVER_BUSY` when it is full, answer `STATUS`, and
//!   report framing errors. They never execute a query.
//! * **Executor threads** — the only place a query body runs. Each owns a
//!   `SessionSet` (a `QuerySession`, plus a `PartitionedSession` when the
//!   backend routes); they block on the queue, drain up to
//!   [`ServerConfig::max_batch`] jobs, sort the batch into Morton order
//!   ([`order_batch`]), execute, and reply through each job's writer.
//!
//! All writes to a socket go through a mutex-guarded `ConnWriter`, one
//! whole frame per lock hold, so executor replies and connection-thread
//! replies never interleave partial frames. Every answer is bit-identical
//! to a local [`QuerySession`] or [`PartitionedSession`] run: the sessions
//! *are* local sessions, and the wire codec moves `f64`s as bit patterns.

use crate::batch::{order_batch, Job, SubmissionQueue};
use crate::protocol::{
    self, Algorithm, AnswerBody, ErrorCode, Frame, QueryBody, StatusReply, WireNeighbor,
    CAP_APPROX, CAP_ROUTED, VERSION,
};
use silc::{DistInterval, DistanceBrowser, QueryError};
use silc_morton::MortonCode;
use silc_network::VertexId;
use silc_query::{
    ApproxDistanceOracle, KnnVariant, ObjectId, PartitionedEngine, PartitionedSession, QueryEngine,
    QuerySession,
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
    /// `Routed` queries, when present ([`CAP_ROUTED`]): the cross-shard
    /// router over a partitioned index.
    pub routable: Option<Arc<PartitionedEngine>>,
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

/// An executor's query state: a local session per backend kind.
struct SessionSet {
    exact: QuerySession<DynBrowser>,
    routed: Option<PartitionedSession>,
}

impl SessionSet {
    fn new(backend: &ServerBackend) -> Self {
        SessionSet {
            exact: backend.engine.session(),
            routed: backend.routable.as_ref().map(|r| r.session()),
        }
    }
}

/// Encodes one answer for the wire: each neighbor's interval travels as
/// its `f64` bit patterns.
fn encode_answer(
    algorithm: Algorithm,
    complete: bool,
    degraded: &[u32],
    neighbors: impl Iterator<Item = (ObjectId, VertexId, DistInterval)>,
) -> AnswerBody {
    AnswerBody {
        algorithm: algorithm as u8,
        complete,
        degraded: degraded.to_vec(),
        neighbors: neighbors
            .map(|(object, vertex, interval)| WireNeighbor {
                object: object.0,
                vertex: vertex.0,
                lo_bits: interval.lo.to_bits(),
                hi_bits: interval.hi.to_bits(),
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

/// Validates and executes one query body on an executor's `set`, against
/// `shared`'s backend.
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
    let r = match algo {
        Algorithm::Knn => set.exact.try_knn(q, k, KnnVariant::Basic),
        Algorithm::KnnI => set.exact.try_knn(q, k, KnnVariant::EarlyEstimate),
        Algorithm::KnnM => set.exact.try_knn(q, k, KnnVariant::MinDist),
        Algorithm::Inn => set.exact.try_inn(q, k),
        Algorithm::Ine => Ok(set.exact.ine(q, k)),
        Algorithm::Ier => Ok(set.exact.ier(q, k)),
        Algorithm::Approx => match shared.backend.oracle.as_deref() {
            Some(oracle) => set.exact.try_approx_knn(oracle, q, k),
            None => {
                return Err((ErrorCode::Unavailable, "no approximate oracle configured".into()))
            }
        },
        Algorithm::Routed => {
            let Some(routed) = set.routed.as_mut() else {
                return Err((ErrorCode::Unavailable, "no partitioned backend configured".into()));
            };
            // The router is infallible by design: a failing shard degrades
            // the answer (reported in `degraded`) instead of failing it.
            let r = routed.knn(q, k);
            let neighbors = r.neighbors.iter().map(|n| (n.object, n.vertex, n.interval));
            return Ok(encode_answer(algo, r.complete, &r.degraded, neighbors));
        }
    }
    .map_err(query_error_reply)?;
    let neighbors = r.neighbors.iter().map(|n| (n.object, n.vertex, n.interval));
    Ok(encode_answer(algo, true, &[], neighbors))
}

/// Executes one job and replies through its writer. Split out of the
/// executor loop so the success/error accounting reads straight-line.
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

/// Queues one query body for the executors, or answers `SERVER_BUSY` when
/// the queue is full (or closed by shutdown). `QUERY` and `BATCH` bodies
/// both enter here.
fn submit(
    shared: &Shared,
    writer: &Arc<ConnWriter>,
    request_id: u64,
    sequence: u32,
    body: QueryBody,
) {
    let job = Job {
        reply: Arc::clone(writer),
        request_id,
        sequence,
        body,
        morton: shared.morton_of(body.vertex),
    };
    if shared.queue.try_submit(job).is_err() {
        shared.stats.busy_rejections.fetch_add(1, Ordering::Relaxed);
        writer.send(&Frame::ServerBusy { request_id, sequence });
    }
}

fn handle_frame(shared: &Shared, writer: &Arc<ConnWriter>, frame: Frame) -> Flow {
    match frame {
        Frame::Query { request_id, body } => {
            submit(shared, writer, request_id, 0, body);
            Flow::Continue
        }
        Frame::Batch { request_id, bodies } => {
            for (i, body) in bodies.into_iter().enumerate() {
                submit(shared, writer, request_id, i as u32, body);
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

    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        match protocol::read_frame(&mut stream) {
            Ok(Some(frame)) => match handle_frame(&shared, &writer, frame) {
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

/// Drops the handles of connection threads that have finished, so a
/// long-running server holds one handle per live connection rather than
/// one per connection it ever served. A finished thread's handle only
/// carries its exit status, which nothing reads.
fn reap_finished(threads: &mut Vec<JoinHandle<()>>) {
    threads.retain(|h| !h.is_finished());
}

fn accept_loop(shared: Arc<Shared>, listener: TcpListener) {
    let mut conn_threads = Vec::new();
    while !shared.shutdown.load(Ordering::Relaxed) {
        reap_finished(&mut conn_threads);
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn reap_finished_drops_only_finished_handles() {
        let (release, wait) = mpsc::channel::<()>();
        let live = std::thread::spawn(move || {
            let _ = wait.recv();
        });
        let done = std::thread::spawn(|| {});
        while !done.is_finished() {
            std::thread::yield_now();
        }
        let mut threads = vec![done, live];
        reap_finished(&mut threads);
        assert_eq!(threads.len(), 1, "the finished handle is dropped");
        assert!(!threads[0].is_finished(), "the live handle is kept");

        release.send(()).unwrap();
        threads.pop().unwrap().join().unwrap();
    }
}
