//! Request coalescing: fold many clients' individual point queries into the
//! batched query paths.
//!
//! Each query the paper's batch APIs answer costs one pool-job dispatch
//! (`knn_batch` / `range_count_batch` / `range_list_batch` amortise that
//! over thousands of queries). A serving front-end receives queries one at
//! a time from many client threads — dispatching each individually would
//! pay the batch machinery per query. The [`Coalescer`] sits in between:
//!
//! * clients enqueue a [`Query`] plus a callback ([`CoalesceHandle::submit`],
//!   nonblocking — the evented socket transport never parks a reactor
//!   thread) or block on the answer ([`CoalesceHandle::query`]),
//! * one **flusher** thread drains the queue (up to `max_batch` requests
//!   per flush), answers the drained slice through [`execute`] — one
//!   pinned [`RouterView`](crate::router::RouterView) per requested epoch,
//!   one batched call per operation (and per `k` for kNN) — and runs each
//!   request's callback with its [`Answer`].
//!
//! Every current-epoch request in one flush is answered against the *same*
//! pinned view, so a flush is per-shard epoch-consistent; requests pinned
//! to an epoch outside the history window answer [`Answer::EpochGone`].
//! Under load the queue fills while a flush runs and the next flush drains
//! a large batch — the coalescing window grows with load and shrinks to a
//! single request when idle (no artificial latency is added: the flusher
//! sleeps only when the queue is empty).

use crate::query::{execute, Answer, Query};
use crate::router::ServeCoord;
use crate::Router;
use psi_geometry::{Point, Rect};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};

/// Requests answered through the coalescer, process-wide.
static OBS_SERVED: psi_obs::LazyCounter = psi_obs::LazyCounter::new(
    "psi_serve_requests_total",
    "queries answered through the coalescer",
);
/// Batched flushes executed, process-wide (`requests/flushes` is the
/// achieved coalescing factor).
static OBS_FLUSHES: psi_obs::LazyCounter = psi_obs::LazyCounter::new(
    "psi_serve_flushes_total",
    "batched coalescer flushes executed",
);
/// Requests folded into each flush.
static OBS_FLUSH_SIZE: psi_obs::LazyHistogram = psi_obs::LazyHistogram::new(
    "psi_serve_coalesce_flush_size",
    "requests folded into one coalescer flush",
);

/// Delivers one answer; runs on the flusher thread, so keep it cheap
/// (encode + hand off).
type Done<T, const D: usize> = Box<dyn FnOnce(Answer<T, D>) + Send>;

struct QueueState<T: ServeCoord, const D: usize> {
    buf: Vec<(Query<T, D>, Done<T, D>)>,
    shutdown: bool,
}

/// Shared client/flusher state.
pub struct Coalescer<T: ServeCoord, const D: usize> {
    queue: Mutex<QueueState<T, D>>,
    ready: Condvar,
    /// Flushes executed (for the batching-factor statistic).
    flushes: AtomicU64,
    /// Requests answered.
    served: AtomicU64,
}

impl<T: ServeCoord, const D: usize> Coalescer<T, D> {
    pub(crate) fn new() -> Self {
        Coalescer {
            queue: Mutex::new(QueueState {
                buf: Vec::new(),
                shutdown: false,
            }),
            ready: Condvar::new(),
            flushes: AtomicU64::new(0),
            served: AtomicU64::new(0),
        }
    }

    /// Requests answered so far.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Batched flushes executed so far. `served / flushes` is the achieved
    /// coalescing factor.
    pub fn flushes(&self) -> u64 {
        self.flushes.load(Ordering::Relaxed)
    }

    pub(crate) fn request_stop(&self) {
        self.queue.lock().unwrap().shutdown = true;
        self.ready.notify_all();
    }

    /// The flusher loop: drain, execute, deliver. Returns when
    /// shutdown is requested and the queue has fully drained.
    pub(crate) fn run_flusher(&self, router: &Router<T, D>, max_batch: usize) {
        loop {
            let batch: Vec<(Query<T, D>, Done<T, D>)> = {
                let mut q = self.queue.lock().unwrap();
                loop {
                    if !q.buf.is_empty() {
                        let take = q.buf.len().min(max_batch.max(1));
                        break q.buf.drain(..take).collect();
                    }
                    if q.shutdown {
                        return;
                    }
                    q = self.ready.wait(q).unwrap();
                }
            };
            self.flush(router, batch);
        }
    }

    fn flush(&self, router: &Router<T, D>, batch: Vec<(Query<T, D>, Done<T, D>)>) {
        self.flushes.fetch_add(1, Ordering::Relaxed);
        self.served.fetch_add(batch.len() as u64, Ordering::Relaxed);
        OBS_FLUSHES.bump();
        OBS_SERVED.add(batch.len() as u64);
        OBS_FLUSH_SIZE.record(batch.len() as u64);
        let (queries, dones): (Vec<_>, Vec<_>) = batch.into_iter().unzip();
        for (answer, done) in execute(router, &queries).into_iter().zip(dones) {
            done(answer);
        }
    }
}

/// A cloneable client handle; each call enqueues one request and blocks
/// until the flusher answers it. Handles must not outlive the server (a
/// request submitted after shutdown panics rather than hanging).
pub struct CoalesceHandle<T: ServeCoord, const D: usize> {
    pub(crate) shared: Arc<Coalescer<T, D>>,
}

impl<T: ServeCoord, const D: usize> Clone for CoalesceHandle<T, D> {
    fn clone(&self) -> Self {
        CoalesceHandle {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T: ServeCoord, const D: usize> CoalesceHandle<T, D> {
    /// Enqueue one query for the next flush; `done` receives the answer on
    /// the flusher thread. Socket front-ends use this so a reactor thread
    /// never parks waiting on the flusher.
    pub fn submit(&self, query: Query<T, D>, done: impl FnOnce(Answer<T, D>) + Send + 'static) {
        {
            let mut q = self
                .shared
                .queue
                .lock()
                .expect("no thread panics while holding the coalescer queue");
            assert!(
                !q.shutdown,
                "psi-server client used after the server shut down"
            );
            q.buf.push((query, Box::new(done)));
        }
        self.shared.ready.notify_all();
    }

    /// Enqueue one query and block until the flusher answers it.
    pub fn query(&self, query: Query<T, D>) -> Answer<T, D> {
        let (tx, rx) = mpsc::sync_channel(1);
        // A client that gave up (dropped its receiver) is not an error.
        self.submit(query, move |answer| drop(tx.send(answer)));
        rx.recv()
            .expect("the psi-server flusher answers every queued request")
    }

    /// The `k` nearest stored neighbours of `q`, closest first.
    pub fn knn(&self, q: &Point<T, D>, k: usize) -> Vec<Point<T, D>> {
        self.query(Query::knn(*q, k))
            .points()
            .expect("kNN answers with points")
    }

    /// Number of stored points in the closed box.
    pub fn range_count(&self, rect: &Rect<T, D>) -> usize {
        self.query(Query::range_count(*rect))
            .count()
            .expect("range count answers with a count")
    }

    /// The stored points in the closed box (shard order).
    pub fn range_list(&self, rect: &Rect<T, D>) -> Vec<Point<T, D>> {
        self.query(Query::range_list(*rect))
            .points()
            .expect("range list answers with points")
    }
}
