//! The bounded submission queue and its locality-sorted drain.
//!
//! Every query body from every connection, whether it came as a `QUERY` or
//! inside a `BATCH`, lands in one server-wide [`SubmissionQueue`];
//! executor threads drain up to `max_batch` jobs at a time and execute
//! each drained batch in Morton order of the query vertices' positions
//! ([`order_batch`]). Spatially adjacent query points
//! read overlapping shortest-path-quadtree pages, so sorting a batch turns
//! random page faults into sequential-ish, cache-friendly runs; this is the
//! paper's locality argument applied to the *arrival stream* instead of the
//! index layout. Ordering never changes an answer — only cache behavior.
//!
//! The queue is deliberately **bounded**: when it fills, submission fails
//! and the connection answers `SERVER_BUSY` instead of queueing unbounded
//! work (the open-loop bench's backpressure signal).

use crate::protocol::QueryBody;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// One queued query body, tagged with everything needed to route its
/// answer back: which reply channel, which request, which sequence slot.
#[derive(Debug)]
pub struct Job<R> {
    /// Reply channel of the submitting connection.
    pub reply: R,
    /// Request id of the `QUERY` or `BATCH` frame the body came in.
    pub request_id: u64,
    /// Zero-based position of this body within its batch (`0` for a
    /// `QUERY`).
    pub sequence: u32,
    /// The query itself.
    pub body: QueryBody,
    /// Morton code of the query vertex's position (`0` for out-of-range
    /// vertices — they fail validation at execution, order is moot).
    pub morton: u64,
}

struct QueueState<R> {
    jobs: VecDeque<Job<R>>,
    closed: bool,
}

/// A bounded MPMC queue of [`Job`]s: `Mutex` + `Condvar`, nothing fancier,
/// because the contended path is the executor draining in bulk.
pub struct SubmissionQueue<R> {
    state: Mutex<QueueState<R>>,
    nonempty: Condvar,
    capacity: usize,
}

impl<R> SubmissionQueue<R> {
    /// Creates a queue holding at most `capacity` jobs.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        SubmissionQueue {
            state: Mutex::new(QueueState { jobs: VecDeque::new(), closed: false }),
            nonempty: Condvar::new(),
            capacity,
        }
    }

    /// Total job slots.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Jobs currently queued.
    pub fn depth(&self) -> usize {
        self.state.lock().unwrap().jobs.len()
    }

    /// Submits one job. `Err(job)` hands the job back when the queue is
    /// full or closed — the caller answers `SERVER_BUSY` (or drops it on
    /// shutdown). Never blocks: backpressure is the point.
    pub fn try_submit(&self, job: Job<R>) -> Result<(), Job<R>> {
        let mut s = self.state.lock().unwrap();
        if s.closed || s.jobs.len() >= self.capacity {
            return Err(job);
        }
        s.jobs.push_back(job);
        drop(s);
        self.nonempty.notify_one();
        Ok(())
    }

    /// Blocks until at least one job is available (or the queue closes),
    /// then moves up to `max` jobs into `out`. Returns `false` when the
    /// queue is closed *and* drained — the executor's exit signal.
    pub fn drain(&self, max: usize, out: &mut Vec<Job<R>>) -> bool {
        let mut s = self.state.lock().unwrap();
        while s.jobs.is_empty() {
            if s.closed {
                return false;
            }
            s = self.nonempty.wait(s).unwrap();
        }
        let n = s.jobs.len().min(max);
        out.extend(s.jobs.drain(..n));
        // More work left: wake a sibling executor, if any.
        if !s.jobs.is_empty() {
            self.nonempty.notify_one();
        }
        true
    }

    /// Closes the queue: submissions fail, blocked drains wake, executors
    /// drain the remainder and exit.
    pub fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.nonempty.notify_all();
    }
}

/// Orders a drained batch for execution: Morton order of the query
/// vertices, stable, so jobs on the same cell keep arrival order.
pub fn order_batch<R>(jobs: &mut [Job<R>]) {
    jobs.sort_by_key(|j| j.morton);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Algorithm;
    use std::sync::Arc;

    fn job(seq: u32, morton: u64) -> Job<()> {
        Job {
            reply: (),
            request_id: 1,
            sequence: seq,
            body: QueryBody { algorithm: Algorithm::Knn, vertex: seq, k: 1 },
            morton,
        }
    }

    #[test]
    fn backpressure_engages_at_capacity() {
        let q: SubmissionQueue<()> = SubmissionQueue::new(2);
        assert!(q.try_submit(job(0, 0)).is_ok());
        assert!(q.try_submit(job(1, 0)).is_ok());
        let bounced = q.try_submit(job(2, 0)).unwrap_err();
        assert_eq!(bounced.sequence, 2, "the rejected job comes back intact");
        assert_eq!(q.depth(), 2);

        let mut out = Vec::new();
        assert!(q.drain(1, &mut out));
        assert_eq!(out.len(), 1);
        assert!(q.try_submit(job(3, 0)).is_ok(), "draining frees a slot");
    }

    #[test]
    fn drain_respects_max_and_close_drains_remainder() {
        let q: SubmissionQueue<()> = SubmissionQueue::new(8);
        for i in 0..5 {
            q.try_submit(job(i, 0)).unwrap();
        }
        let mut out = Vec::new();
        assert!(q.drain(3, &mut out));
        assert_eq!(out.len(), 3);
        q.close();
        assert!(q.try_submit(job(9, 0)).is_err(), "closed queue rejects");
        assert!(q.drain(10, &mut out), "close still hands out queued jobs");
        assert_eq!(out.len(), 5);
        assert!(!q.drain(10, &mut out), "closed and empty ends the executor");
    }

    #[test]
    fn close_wakes_a_blocked_drain() {
        let q: Arc<SubmissionQueue<()>> = Arc::new(SubmissionQueue::new(2));
        let q2 = Arc::clone(&q);
        let t = std::thread::spawn(move || {
            let mut out = Vec::new();
            q2.drain(4, &mut out)
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert!(!t.join().unwrap(), "blocked drain observes the close");
    }

    #[test]
    fn morton_order_is_stable() {
        let mut jobs = vec![job(0, 30), job(1, 10), job(2, 20), job(3, 10)];
        order_batch(&mut jobs);
        // Stable: the two morton==10 jobs keep arrival order 1 then 3.
        assert_eq!(jobs.iter().map(|j| j.sequence).collect::<Vec<_>>(), vec![1, 3, 2, 0]);
    }
}
