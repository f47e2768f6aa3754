//! `silc-server` — the TCP serving front-end for SILC indexes.
//!
//! Nine PRs built an index stack that answers network-distance queries
//! from disk with zero hot-path allocations; this crate puts a wire on it.
//! It is a deliberately small, dependency-free server — `std::net` TCP, a
//! hand-rolled length-prefixed binary protocol (module [`protocol`]; the
//! normative spec is embedded at [`spec`]) — built around three ideas:
//!
//! 1. **Sessions are the unit of serving.** Every executor thread owns a
//!    plain [`silc_query::QuerySession`] (plus a
//!    [`silc_query::PartitionedSession`] when a partitioned backend is
//!    configured). Remote answers are *bit-identical* to local ones
//!    because they are produced by the same code, and `f64`s travel as bit
//!    patterns.
//! 2. **One path for every query.** `QUERY` and `BATCH` bodies from all
//!    connections funnel into one bounded submission queue (module
//!    [`batch`]); connection threads only decode, submit and reply to
//!    `STATUS`. Executors drain up to a configured batch size and execute
//!    each batch in Morton order of the query points, so spatially
//!    adjacent queries touch overlapping index pages and the buffer pool
//!    amortizes faults across them. The `knn_served` workload of
//!    `perfbench/` measures this path end to end.
//! 3. **Overload is a typed answer, not a growing queue.** When the
//!    submission queue is full the server answers `SERVER_BUSY` per
//!    rejected body — open-loop clients see backpressure instead of
//!    unbounded queueing delay, and the queue's capacity bounds the
//!    queries in flight however many connections send them.
//!
//! The serving surface covers all six exact algorithms (kNN, kNN-I,
//! kNN-M, INN, INE, IER), routed partitioned kNN (through a
//! [`silc_query::PartitionedEngine`]), and approximate-oracle kNN, each
//! selected by a byte in the query body. Typed error frames mirror
//! [`silc::QueryError`], and a `STATUS` frame exposes queue depth,
//! lifetime counters, and any [`silc::OpenWarning`] degradations the
//! backend recorded at open time.
//!
//! Start a server with [`server::Server::start`]; talk to it with
//! [`client::Client`]. `examples/remote_browsing.rs` (in the workspace
//! `silc-bench` crate) walks through both ends, and the crate's
//! `server_net` tests drive real loopback servers end to end.

pub mod batch;
pub mod client;
pub mod protocol;
pub mod server;

/// The normative wire-protocol specification (`docs/PROTOCOL.md`),
/// embedded verbatim so the rendered docs and the repository file cannot
/// drift apart.
#[doc = include_str!("../../../docs/PROTOCOL.md")]
pub mod spec {}

pub use client::{Client, ClientError, Outcome, ServerInfo};
pub use protocol::{Algorithm, AnswerBody, ErrorCode, Frame, QueryBody, StatusReply};
pub use server::{Server, ServerBackend, ServerConfig};
