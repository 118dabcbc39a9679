//! The global worker pool behind the whole parallel substrate: chunked
//! work-distribution for `par_*` jobs **and** per-worker task deques for
//! pool-native fork-join (`join` / `scope` / `Scope::spawn`).
//!
//! # Execution model
//!
//! The pool schedules two kinds of work:
//!
//! 1. **Jobs** — a parallel operation over `n` items (`par_iter`,
//!    `for_each`, `collect`, …). The index space `0..n` is partitioned into
//!    one contiguous range per participant slot, each slot backed by an
//!    atomic `(lo, hi)` pair — the slot's *range queue*. Every participating
//!    thread (the submitting caller plus pool workers) owns one slot and
//!    repeatedly claims a grain-sized chunk from the front of its own queue;
//!    when the queue runs dry it steals the back half of the fullest other
//!    queue and continues. The claim/steal loop lets *any single participant
//!    drain the entire job*, so a job completes even if every pool worker is
//!    busy elsewhere — which is exactly what happens with nested
//!    parallelism. No participant ever waits for work it could do itself,
//!    so nesting cannot deadlock.
//!
//! 2. **Tasks** — the forked halves of `join` calls and `scope`-spawned
//!    closures. Every pool worker owns a **lock-free Chase-Lev deque**: it
//!    pushes forked tasks onto the bottom, pops its own work LIFO from the
//!    bottom (preserving the sequential depth-first order and its cache
//!    footprint), and thieves steal FIFO from the top (taking the oldest,
//!    biggest subtrees) with a single CAS. Non-worker callers push into a
//!    shared FIFO **injector** instead (a mutex-guarded ring — injection is
//!    rare and never on the fork fast path). Crucially, `join` never blocks
//!    while its forked half is outstanding: if the task was not stolen the
//!    caller pops it straight back and runs it inline (the overwhelmingly
//!    common case — one release store to push, one fenced load to pop, no
//!    lock, no OS interaction); if it *was* stolen, the caller executes
//!    other tasks from the deques until the thief's completion latch fires.
//!    A blocked state exists only when there is provably nothing to steal,
//!    and every such wait is bounded by a running thread making progress, so
//!    deeply nested `join`-inside-`par_iter`-inside-`join` compositions stay
//!    deadlock-free. **No OS thread is ever spawned on the fork-join path**;
//!    an n-leaf fork tree costs n task pushes, not n thread spawns.
//!
//! # The Chase-Lev deques and their memory orderings
//!
//! Each worker deque is the classic Chase-Lev growable ring (Chase & Lev,
//! SPAA '05) with the C11 orderings of Lê et al. (PPoPP '13):
//!
//! * **`push` (owner only):** write the task words into the ring, then
//!   publish with `bottom.store(b + 1, Release)`. A thief's `Acquire` load
//!   of `bottom` therefore observes fully-written slots.
//! * **`pop` (owner only):** speculatively take the slot with
//!   `bottom.store(b - 1, Relaxed)` followed by a single **SeqCst fence**,
//!   then read `top`. The fence globally orders the bottom decrement against
//!   the fence in every thief's `steal`: either the thief sees the
//!   decremented bottom and aborts, or the owner sees the advanced top and
//!   backs off. With two or more tasks queued the pop completes with no RMW
//!   at all; with exactly one task left, owner and thieves race through a
//!   SeqCst CAS on `top`, which at most one of them wins.
//! * **`steal` (any thread):** `Acquire`-load `top`, SeqCst fence,
//!   `Acquire`-load `bottom`, read the slot words, then claim with a SeqCst
//!   `compare_exchange` on `top`. A failed CAS means the words just read may
//!   be stale; they are discarded without being interpreted as a task. The
//!   ABA argument: the ring slot for logical index `t` is only reused by
//!   index `t + cap`, and the owner only writes index `t + cap` after
//!   `top > t` (push grows the ring before overwriting a live window), so a
//!   reused slot always implies the CAS on `t` fails.
//! * **Ring growth and reclamation (owner only):** on a full ring the owner
//!   copies the live window `[top, bottom)` into a ring of twice the
//!   capacity at the same logical indices, publishes it with a SeqCst store
//!   of the buffer pointer, and *retires* the old ring to an owner-private
//!   limbo list. Thieves pin the buffer with a SeqCst counter increment for
//!   the duration of their pointer-load → slot-read window. The owner frees
//!   retired rings only when it observes the pin counter at zero *after*
//!   publication: in the SeqCst total order every later pin re-loads the
//!   buffer pointer after the new ring was published, so no thief can still
//!   hold a retired pointer — a single-epoch deferred-reclamation scheme
//!   (and if a pin is always in flight, the limbo list keeps the rings
//!   alive; their total size is bounded by the geometric series under the
//!   live ring's capacity). Slot words are relaxed atomics, so the racy
//!   reads that the failed-CAS path discards are well-defined loads, never
//!   torn plain memory.
//!
//! The deque fast paths — push, pop, steal — contain no mutex; the only
//! blocking state on the fork-join path is the versioned park below, taken
//! exclusively when a thread has provably nothing to run.
//!
//! # Pool sizing
//!
//! Workers are spawned on first use, up to `current_num_threads() - 1`
//! (so [`crate::ThreadPool::install`] and the `RAYON_NUM_THREADS`
//! environment variable genuinely control parallelism, including
//! oversubscription beyond the core count, as upstream rayon allows). Idle
//! workers park on a condition variable; they are never torn down. A worker
//! whose index is outside the currently-installed thread budget parks until
//! the budget grows back, so `install(k)` bounds active parallelism even
//! after a larger pool has warmed up, and `install(1)` (or
//! `RAYON_NUM_THREADS=1`) runs everything inline on the caller with no
//! tasks published at all.
//!
//! # Waking
//!
//! All sleeping — idle workers, `join`/`scope` waiters with nothing to
//! steal, job submitters waiting for stragglers — goes through one
//! versioned park: publishing work (task push, job push, latch set, scope
//! completion) bumps a version counter and wakes the parked set only when
//! someone is actually parked, so the fork fast path stays a couple of
//! atomic operations. A job submitter waiting on straggler workers does not
//! park outright: it lends itself to the fork-join layer and steals queued
//! tasks (typically the nested forks of the very workers it is waiting on)
//! until the last registration drains.
//!
//! # Panics
//!
//! A panic in worker-executed code is caught at the task or job boundary,
//! carried through the latch or job state, and re-raised on the thread that
//! forked the work — the same contract as upstream rayon.

use std::any::Any;
use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{
    fence, AtomicBool, AtomicIsize, AtomicPtr, AtomicU64, AtomicUsize, Ordering,
};
use std::sync::{Condvar, Mutex, OnceLock};

// Pool observability: job submissions, steal traffic, contention, sleep
// pressure and ring growth, reported into the process-global ψ-obs
// registry. All five are `LazyCounter`s — the hot-path cost is one
// initialised-`OnceLock` load plus a striped relaxed `fetch_add`; no lock is
// ever taken on a push/pop/steal path.
static OBS_JOBS: psi_obs::LazyCounter = psi_obs::LazyCounter::new(
    "psi_pool_jobs_total",
    "par_* jobs split across pool participants (jobs run inline on the caller are not counted)",
);
static OBS_STEALS: psi_obs::LazyCounter = psi_obs::LazyCounter::new(
    "psi_pool_steals_total",
    "tasks claimed from another worker's deque (successful top CAS)",
);
static OBS_STEAL_CAS_FAILS: psi_obs::LazyCounter = psi_obs::LazyCounter::new(
    "psi_pool_steal_cas_fails_total",
    "steal attempts that lost the top CAS race and retried",
);
static OBS_PARKS: psi_obs::LazyCounter = psi_obs::LazyCounter::new(
    "psi_pool_parks_total",
    "threads that went to sleep with provably nothing to run",
);
static OBS_RING_GROWS: psi_obs::LazyCounter = psi_obs::LazyCounter::new(
    "psi_pool_ring_grows_total",
    "Chase-Lev ring buffers doubled on overflow",
);

/// Hard cap on pool threads, a guard against runaway
/// `ThreadPool::install(huge)` requests.
const MAX_WORKERS: usize = 192;

/// Worker stack size: deep fork-join recursions (tree builds over millions
/// of points) plus steal-driven nesting run on these stacks.
const WORKER_STACK: usize = 8 * 1024 * 1024;

/// Each participant splits its fair share into roughly this many grains, so
/// late-starting participants and uneven item costs still balance via steals.
pub(crate) const CHUNKS_PER_WORKER: usize = 8;

/// Default grain size for `n` items across `threads` participants, floored by
/// the caller's `with_min_len`-style hint.
pub(crate) fn grain_for(n: usize, threads: usize, min_len: usize) -> usize {
    (n / (threads.max(1) * CHUNKS_PER_WORKER))
        .max(min_len)
        .max(1)
}

// ---------------------------------------------------------------------------
// Per-slot range queues with steal-on-idle (the job work-distribution core).
// ---------------------------------------------------------------------------

#[inline]
fn pack(lo: usize, hi: usize) -> u64 {
    ((lo as u64) << 32) | hi as u64
}

#[inline]
fn unpack(v: u64) -> (usize, usize) {
    ((v >> 32) as usize, (v & 0xFFFF_FFFF) as usize)
}

/// The shared work-distribution state of one job: one packed `(lo, hi)`
/// index range per participant slot.
pub(crate) struct RangeQueues {
    slots: Box<[AtomicU64]>,
    grain: usize,
}

impl RangeQueues {
    /// Partition `0..n` evenly across `nslots` queues. Requires
    /// `n < u32::MAX` (enforced by [`run`]'s sequential fallback).
    fn new(n: usize, nslots: usize, grain: usize) -> Self {
        let slots: Vec<AtomicU64> = (0..nslots)
            .map(|s| AtomicU64::new(pack(n * s / nslots, n * (s + 1) / nslots)))
            .collect();
        RangeQueues {
            slots: slots.into_boxed_slice(),
            grain: grain.max(1),
        }
    }

    /// Claim up to one grain from the front of `slot`'s own queue.
    fn claim_own(&self, slot: usize) -> Option<Range<usize>> {
        let cell = &self.slots[slot];
        let mut cur = cell.load(Ordering::Acquire);
        loop {
            let (lo, hi) = unpack(cur);
            if lo >= hi {
                return None;
            }
            let next = (lo + self.grain).min(hi);
            match cell.compare_exchange_weak(
                cur,
                pack(next, hi),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(lo..next),
                Err(now) => cur = now,
            }
        }
    }

    /// Steal the back half of the fullest other queue into `slot`'s (empty)
    /// own queue. Returns `false` only when every queue was observed empty.
    fn steal_into(&self, slot: usize) -> bool {
        loop {
            let mut best: Option<(usize, usize, usize)> = None; // (victim, lo, hi)
            for (i, cell) in self.slots.iter().enumerate() {
                if i == slot {
                    continue;
                }
                let (lo, hi) = unpack(cell.load(Ordering::Acquire));
                if hi > lo && best.is_none_or(|(_, blo, bhi)| hi - lo > bhi - blo) {
                    best = Some((i, lo, hi));
                }
            }
            let Some((victim, lo, hi)) = best else {
                return false;
            };
            let rem = hi - lo;
            let take = (rem - rem / 2).min(rem); // ceil(rem / 2)
            let split = hi - take;
            if self.slots[victim]
                .compare_exchange(
                    pack(lo, hi),
                    pack(lo, split),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok()
            {
                // Deposit the stolen tail into our own (currently empty)
                // queue, where other thieves may in turn steal from it.
                self.slots[slot].store(pack(split, hi), Ordering::Release);
                return true;
            }
            // Lost the race; rescan.
        }
    }

    fn next(&self, slot: usize) -> Option<Range<usize>> {
        loop {
            if let Some(r) = self.claim_own(slot) {
                return Some(r);
            }
            if !self.steal_into(slot) {
                return None;
            }
        }
    }
}

/// One participant's view of a job's work distribution: an iterator-like
/// source of disjoint index ranges. Handed to the per-worker body exactly
/// once per participant, which is what makes per-worker state (`map_init`)
/// genuinely per-worker.
pub(crate) struct WorkerRanges<'a> {
    inner: RangesInner<'a>,
}

enum RangesInner<'a> {
    /// Sequential fallback: the whole index space, delivered once.
    Seq(Option<Range<usize>>),
    /// A slot of a pooled job.
    Pool {
        queues: &'a RangeQueues,
        slot: usize,
    },
}

impl WorkerRanges<'_> {
    /// The next range of indices this participant should process, or `None`
    /// when the whole job's index space has been claimed.
    pub(crate) fn next(&mut self) -> Option<Range<usize>> {
        match &mut self.inner {
            RangesInner::Seq(r) => r.take(),
            RangesInner::Pool { queues, slot } => queues.next(*slot),
        }
    }
}

// ---------------------------------------------------------------------------
// Tasks: the unit of stealable fork-join work.
// ---------------------------------------------------------------------------

/// A type-erased unit of work sitting in a deque: an `execute` thunk plus a
/// pointer to its state — either a [`StackJob`] on a `join` caller's stack
/// or a boxed `scope`-spawned closure.
struct Task {
    execute: unsafe fn(*mut ()),
    data: *mut (),
}

// SAFETY: the pointed-to state is `Sync`-shared between exactly the forking
// thread and the (at most one) thief that removed the task from a deque;
// the deque removal protocol (a successful `top` CAS, an owner pop ordered
// by the SeqCst fence, or the injector mutex) is the ownership hand-off.
unsafe impl Send for Task {}

impl Task {
    /// Rebuild a task from its two ring-slot words.
    ///
    /// # Safety
    ///
    /// The words must be *certified*: read by the owner in `pop`, or read by
    /// a thief whose subsequent `top` CAS succeeded. Certified words are
    /// exactly what some `push` wrote for a live, not-yet-executed task.
    unsafe fn from_words(exec: usize, data: usize) -> Task {
        Task {
            // SAFETY: `exec` was produced by `push` from a real fn pointer.
            execute: unsafe { std::mem::transmute::<usize, unsafe fn(*mut ())>(exec) },
            data: data as *mut (),
        }
    }
}

/// Initial capacity of a worker deque's ring buffer (grows by doubling).
const DEQUE_INITIAL_CAP: usize = 64;

/// A ring-slot: the two words of a [`Task`], stored as relaxed atomics. A
/// thief racing with slot reuse can read a stale pair, but such a pair is
/// only interpreted as a task after the `top` CAS certifies it (the ABA
/// argument in the module docs) — relaxed atomics make the racy read itself
/// well-defined, where plain memory would be UB.
struct RingSlot {
    exec: AtomicUsize,
    data: AtomicUsize,
}

/// One power-of-two ring buffer of a Chase-Lev deque. Logical index `i`
/// lives in slot `i & mask`; the live window `[top, bottom)` never exceeds
/// the capacity, so live entries are never overwritten.
struct RingBuffer {
    mask: usize,
    slots: Box<[RingSlot]>,
}

impl RingBuffer {
    fn new(cap: usize) -> Box<RingBuffer> {
        debug_assert!(cap.is_power_of_two());
        Box::new(RingBuffer {
            mask: cap - 1,
            slots: (0..cap)
                .map(|_| RingSlot {
                    exec: AtomicUsize::new(0),
                    data: AtomicUsize::new(0),
                })
                .collect(),
        })
    }

    fn cap(&self) -> usize {
        self.mask + 1
    }

    fn write(&self, idx: isize, exec: usize, data: usize) {
        let slot = &self.slots[idx as usize & self.mask];
        slot.exec.store(exec, Ordering::Relaxed);
        slot.data.store(data, Ordering::Relaxed);
    }

    fn read(&self, idx: isize) -> (usize, usize) {
        let slot = &self.slots[idx as usize & self.mask];
        (
            slot.exec.load(Ordering::Relaxed),
            slot.data.load(Ordering::Relaxed),
        )
    }
}

/// One worker's lock-free Chase-Lev work-stealing deque: owner LIFO
/// push/pop at `bottom`, thief FIFO steal at `top`, growable ring storage
/// with deferred reclamation. The memory-ordering argument lives in the
/// module docs; the orderings below follow Lê et al. (PPoPP '13).
struct ChaseLev {
    top: AtomicIsize,
    bottom: AtomicIsize,
    buf: AtomicPtr<RingBuffer>,
    /// Thieves currently inside the pinned window of `steal` (buffer-pointer
    /// load through slot read). The owner frees retired rings only after
    /// observing this at zero post-publication.
    pinned: AtomicUsize,
    /// Retired ring buffers whose storage may still be pinned by a thief.
    /// The boxes are reconstituted from the raw pointers thieves may still
    /// hold — the heap allocation itself must survive unmoved until freed,
    /// so `Vec<RingBuffer>` (which would move the rings) is not an option.
    #[allow(clippy::vec_box)]
    /// Owner-only (a worker is the sole mutator of its own deque), hence no
    /// lock: ring-growth bookkeeping needs none.
    retired: UnsafeCell<Vec<Box<RingBuffer>>>,
}

// SAFETY: `top`/`bottom`/`buf`/`pinned` are atomics; `retired` is touched
// only by the deque's owner (single thread) as documented on the field.
unsafe impl Sync for ChaseLev {}
unsafe impl Send for ChaseLev {}

impl ChaseLev {
    fn new() -> ChaseLev {
        ChaseLev::with_capacity(DEQUE_INITIAL_CAP)
    }

    fn with_capacity(cap: usize) -> ChaseLev {
        ChaseLev {
            top: AtomicIsize::new(0),
            bottom: AtomicIsize::new(0),
            buf: AtomicPtr::new(Box::into_raw(RingBuffer::new(cap))),
            pinned: AtomicUsize::new(0),
            retired: UnsafeCell::new(Vec::new()),
        }
    }

    /// Owner push: write the slot, then publish with a release store of
    /// `bottom`. No RMW, no lock.
    fn push(&self, task: Task) {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Acquire);
        // SAFETY: only the owner swaps `buf`, so the pointer is live here.
        let mut buf = unsafe { &*self.buf.load(Ordering::Relaxed) };
        if b - t >= buf.cap() as isize {
            buf = self.grow(b, t);
        }
        buf.write(b, task.execute as usize, task.data as usize);
        self.bottom.store(b + 1, Ordering::Release);
    }

    /// Owner pop: LIFO from the bottom (depth-first, cache-warm order). The
    /// single SeqCst fence orders the speculative bottom decrement against
    /// every thief's fence; the CAS on `top` settles the last-element race.
    fn pop(&self) -> Option<Task> {
        let b = self.bottom.load(Ordering::Relaxed) - 1;
        // SAFETY: only the owner swaps `buf`, so the pointer is live here.
        let buf = unsafe { &*self.buf.load(Ordering::Relaxed) };
        self.bottom.store(b, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        let t = self.top.load(Ordering::Relaxed);
        if t < b {
            // Two or more tasks: thieves cannot reach index b.
            let (exec, data) = buf.read(b);
            // SAFETY: owner-read below bottom ⇒ certified.
            return Some(unsafe { Task::from_words(exec, data) });
        }
        if t == b {
            // Exactly one task left: race thieves for it on `top`.
            let won = self
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok();
            self.bottom.store(b + 1, Ordering::Relaxed);
            if won {
                let (exec, data) = buf.read(b);
                // SAFETY: the CAS certified the words.
                return Some(unsafe { Task::from_words(exec, data) });
            }
            return None;
        }
        // Already empty; undo the speculative decrement.
        self.bottom.store(b + 1, Ordering::Relaxed);
        None
    }

    /// Thief steal: FIFO from the top (oldest fork = biggest subtree). Reads
    /// the slot optimistically, then certifies with a CAS on `top`; a failed
    /// CAS discards the (possibly stale) words and retries.
    fn steal(&self) -> Option<Task> {
        loop {
            let t = self.top.load(Ordering::Acquire);
            fence(Ordering::SeqCst);
            let b = self.bottom.load(Ordering::Acquire);
            if t >= b {
                return None;
            }
            // Pin the buffer for the pointer-load → slot-read window so the
            // owner cannot free it underneath us (see `grow`).
            self.pinned.fetch_add(1, Ordering::SeqCst);
            // SAFETY: pinned ⇒ the loaded ring is not freed until unpin.
            let (exec, data) = unsafe { &*self.buf.load(Ordering::SeqCst) }.read(t);
            self.pinned.fetch_sub(1, Ordering::SeqCst);
            if self
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
            {
                OBS_STEALS.bump();
                // SAFETY: the CAS certified the words.
                return Some(unsafe { Task::from_words(exec, data) });
            }
            // Lost the race (owner pop or another thief); retry.
            OBS_STEAL_CAS_FAILS.bump();
            std::hint::spin_loop();
        }
    }

    /// Owner-only ring growth: copy the live window `[t, b)` into a ring of
    /// twice the capacity at the same logical indices, publish it, retire
    /// the old ring, and free retired rings once no thief is pinned — the
    /// epoch-deferred reclamation described in the module docs.
    #[cold]
    fn grow(&self, b: isize, t: isize) -> &RingBuffer {
        OBS_RING_GROWS.bump();
        let old_ptr = self.buf.load(Ordering::Relaxed);
        // SAFETY: owner-only; the old ring is live until retired below.
        let old = unsafe { &*old_ptr };
        let new = RingBuffer::new(old.cap() * 2);
        for i in t..b {
            let (exec, data) = old.read(i);
            new.write(i, exec, data);
        }
        let new_ptr = Box::into_raw(new);
        self.buf.store(new_ptr, Ordering::SeqCst);
        // SAFETY: `retired` is owner-only, and `old_ptr` came from
        // `Box::into_raw` and was just unpublished.
        let retired = unsafe { &mut *self.retired.get() };
        retired.push(unsafe { Box::from_raw(old_ptr) });
        if self.pinned.load(Ordering::SeqCst) == 0 {
            // Epoch boundary: every thief that could hold a retired pointer
            // has unpinned, and later pins re-load `buf` after the store
            // above (SeqCst total order), seeing only the new ring.
            retired.clear();
        }
        // SAFETY: just published; only the owner can retire it.
        unsafe { &*new_ptr }
    }
}

impl Drop for ChaseLev {
    fn drop(&mut self) {
        // `&mut self` ⇒ no concurrent thieves; `retired` frees itself.
        // SAFETY: `buf` always holds a live `Box::into_raw` pointer.
        unsafe { drop(Box::from_raw(self.buf.load(Ordering::Relaxed))) };
    }
}

/// The global injector: the task queue for non-worker forkers (and their
/// reclaim target). A plain mutex-guarded ring is fine here — injection is
/// rare (only threads outside the pool fork through it) and never on the
/// worker fast path.
struct Injector {
    tasks: Mutex<VecDeque<Task>>,
}

impl Injector {
    const fn new() -> Self {
        Injector {
            tasks: Mutex::new(VecDeque::new()),
        }
    }

    fn push(&self, task: Task) {
        self.tasks.lock().unwrap().push_back(task);
    }

    /// Thief pop: FIFO from the front (oldest fork = biggest subtree).
    fn steal(&self) -> Option<Task> {
        self.tasks.lock().unwrap().pop_front()
    }

    /// Remove the exact task whose state pointer is `data`, if it is still
    /// queued. Used by non-worker `join` callers to reclaim their un-stolen
    /// fork; searching from the back finds it in O(1) in the LIFO case.
    fn pop_exact(&self, data: *mut ()) -> bool {
        let mut q = self.tasks.lock().unwrap();
        if let Some(pos) = q.iter().rposition(|t| std::ptr::eq(t.data, data)) {
            q.remove(pos);
            return true;
        }
        false
    }
}

/// Completion flag of a forked task, observed by the forking thread. All
/// waking goes through the pool's versioned park, so the latch itself is
/// just the flag.
pub(crate) struct Latch {
    done: AtomicBool,
}

impl Latch {
    fn new() -> Latch {
        Latch {
            done: AtomicBool::new(false),
        }
    }

    fn probe(&self) -> bool {
        self.done.load(Ordering::SeqCst)
    }

    fn set(&self) {
        self.done.store(true, Ordering::SeqCst);
        pool().publish();
    }
}

/// The stack-allocated state of a `join` fork: the not-yet-run closure going
/// in, the result (or panic payload) coming out. Lives in `join_impl`'s
/// frame; the deque hand-off protocol guarantees the pointer never outlives
/// it (the caller does not return before reclaiming the task or observing
/// its latch).
struct StackJob<F, R> {
    func: UnsafeCell<Option<F>>,
    result: UnsafeCell<Option<std::thread::Result<R>>>,
    latch: Latch,
}

// SAFETY: shared between the forking thread and at most one thief, with the
// deque mutex ordering the hand-off and the latch ordering the hand-back.
unsafe impl<F: Send, R: Send> Sync for StackJob<F, R> {}

/// Execute a [`StackJob`] on a thief: take the closure, run it under
/// `catch_unwind`, store the outcome, fire the latch.
///
/// # Safety
///
/// `data` must point to a live `StackJob<F, R>` whose task was removed from
/// a deque by the caller (sole execution right).
unsafe fn execute_stack_job<F, R>(data: *mut ())
where
    F: FnOnce() -> R + Send,
    R: Send,
{
    let job = unsafe { &*data.cast::<StackJob<F, R>>() };
    // SAFETY: sole execution right ⇒ exclusive access to the cells.
    let func = unsafe { (*job.func.get()).take() }.expect("stack task executed twice");
    let outcome = catch_unwind(AssertUnwindSafe(func));
    unsafe { *job.result.get() = Some(outcome) };
    job.latch.set();
}

/// Execute a boxed `scope`-spawned closure (panic handling lives inside the
/// closure itself — see `Scope::spawn`).
///
/// # Safety
///
/// `data` must come from `Box::into_raw(Box::new(Box<dyn FnOnce() + Send>))`
/// and be executed exactly once.
unsafe fn execute_heap_task(data: *mut ()) {
    let func = unsafe { Box::from_raw(data.cast::<Box<dyn FnOnce() + Send>>()) };
    func();
}

// ---------------------------------------------------------------------------
// The pool proper.
// ---------------------------------------------------------------------------

/// A submitted job, allocated on the submitting thread's stack. Workers hold
/// the pointer only between registration (under the pool lock, while the job
/// is still queued) and their final `remaining` decrement; the submitter does
/// not return before `remaining` reaches zero, so the reference never
/// dangles.
struct Job<'a> {
    body: &'a (dyn Fn(usize) + Sync),
    /// Next participant slot to hand out; slot 0 is the submitter's.
    next_slot: AtomicUsize,
    max_slots: usize,
    /// Workers that have registered but not yet finished.
    remaining: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

#[derive(Clone, Copy)]
struct JobRef(*const Job<'static>);
// SAFETY: the job outlives every queue entry and every registered worker (see
// the protocol on `Job` and `run_pooled`).
unsafe impl Send for JobRef {}

struct PoolShared {
    queue: Vec<JobRef>,
    spawned: usize,
}

struct Pool {
    /// Job queue + spawn bookkeeping.
    shared: Mutex<PoolShared>,
    /// One lock-free Chase-Lev task deque per (potential) worker; deque `i`
    /// is owned (pushed/popped) by worker `i`, stolen from by everyone.
    deques: Box<[ChaseLev]>,
    /// Task queue for non-worker forkers (and their reclaim target).
    injector: Injector,
    /// Mirror of `PoolShared::spawned` readable without the lock (bounds the
    /// thieves' scan).
    spawned: AtomicUsize,
    /// Bumped on every work publication; the parking protocol re-checks it
    /// under the park lock, so no publication can be slept through.
    version: AtomicUsize,
    /// Number of threads inside `park_cv.wait` (workers and waiters alike);
    /// publishers skip the lock + notify entirely while it is zero.
    sleepers: AtomicUsize,
    park: Mutex<()>,
    park_cv: Condvar,
    /// Where workers outside the installed thread budget sleep. Kept apart
    /// from `park_cv` so the (possibly thousands per second of) work
    /// publications never wake threads that are not allowed to take work;
    /// only a budget change ([`crate::ThreadPool::install`] entering or
    /// restoring) notifies here.
    budget_cv: Condvar,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        shared: Mutex::new(PoolShared {
            queue: Vec::new(),
            spawned: 0,
        }),
        deques: (0..MAX_WORKERS).map(|_| ChaseLev::new()).collect(),
        injector: Injector::new(),
        spawned: AtomicUsize::new(0),
        version: AtomicUsize::new(0),
        sleepers: AtomicUsize::new(0),
        park: Mutex::new(()),
        park_cv: Condvar::new(),
        budget_cv: Condvar::new(),
    })
}

/// Wake budget-parked workers after a thread-count override change (called
/// by `ThreadPool::install` on entry and restore). A no-op until the pool
/// exists; takes the park lock so a worker's budget re-check under that
/// lock cannot miss the change.
pub(crate) fn budget_changed() {
    if let Some(pool) = POOL.get() {
        let _guard = pool.park.lock().unwrap();
        pool.budget_cv.notify_all();
    }
}

thread_local! {
    /// The pool worker index of the current thread, if it is one.
    static WORKER_ID: Cell<Option<usize>> = const { Cell::new(None) };
}

fn worker_id() -> Option<usize> {
    WORKER_ID.with(Cell::get)
}

/// Helpers the installed thread count allows besides the caller.
fn allowed_helpers() -> usize {
    crate::current_num_threads().saturating_sub(1)
}

impl Pool {
    /// Announce new work (or a completion someone may be waiting on).
    fn publish(&self) {
        self.version.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _guard = self.park.lock().unwrap();
            self.park_cv.notify_all();
        }
    }

    /// Park until the version moves past `seen`. Callers take `seen` BEFORE
    /// scanning for work: any publication after the snapshot aborts the park
    /// (under the lock), so scan-then-park cannot lose a wakeup.
    ///
    /// Ordering matters: the sleeper registers itself in `sleepers` *before*
    /// re-checking the version. In the SeqCst total order either the parker's
    /// version check sees the publisher's bump (no wait), or the check
    /// precedes the bump — and then the earlier `sleepers` increment precedes
    /// the publisher's `sleepers` load, which therefore observes a sleeper
    /// and takes the lock to notify. The lock is held from registration to
    /// `wait`, so that notify cannot fire in between.
    fn park(&self, seen: usize) {
        let guard = self.park.lock().unwrap();
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        if self.version.load(Ordering::SeqCst) == seen {
            OBS_PARKS.bump();
            let _guard = self.park_cv.wait(guard).unwrap();
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// Queue a forked task on the caller's deque (workers) or the injector
    /// (everyone else).
    fn push_task(&self, me: Option<usize>, task: Task) {
        match me {
            Some(id) => self.deques[id].push(task),
            None => self.injector.push(task),
        }
        self.publish();
    }

    /// Find one task to run: own deque first (LIFO), then steal a round over
    /// the other workers' deques (FIFO), then the injector.
    fn find_task(&self, me: Option<usize>) -> Option<Task> {
        if let Some(id) = me {
            if let Some(t) = self.deques[id].pop() {
                return Some(t);
            }
        }
        let n = self.spawned.load(Ordering::SeqCst);
        if n > 0 {
            let start = me.map_or(0, |id| id + 1);
            for k in 0..n {
                let i = (start + k) % n;
                if Some(i) == me {
                    continue;
                }
                if let Some(t) = self.deques[i].steal() {
                    return Some(t);
                }
            }
        }
        self.injector.steal()
    }

    /// Execute tasks (own, stolen, injected) until `done()` holds, parking
    /// only when there is nothing to run. This is the wait used by `join`
    /// (latch) and `scope` (pending counter): the waiter keeps the fork-join
    /// tree moving instead of blocking a thread on it.
    fn steal_until(&self, me: Option<usize>, done: impl Fn() -> bool) {
        loop {
            if done() {
                return;
            }
            let seen = self.version.load(Ordering::SeqCst);
            if let Some(task) = self.find_task(me) {
                // SAFETY: removed from a deque ⇒ sole execution right.
                unsafe { (task.execute)(task.data) };
                continue;
            }
            if done() {
                return;
            }
            self.park(seen);
        }
    }

    /// Claim and run one slot of the top queued job, if any.
    fn try_job_slot(&self) -> bool {
        let mut shared = self.shared.lock().unwrap();
        loop {
            let Some(&job_ref) = shared.queue.last() else {
                return false;
            };
            // SAFETY: the job is still queued, so the submitter is still
            // blocked in `run_pooled` and the allocation is live.
            let job = unsafe { &*job_ref.0 };
            let slot = job.next_slot.fetch_add(1, Ordering::Relaxed);
            if slot >= job.max_slots {
                // Fully subscribed: retire it from the queue.
                shared.queue.retain(|j| !std::ptr::eq(j.0, job_ref.0));
                continue;
            }
            // Register while holding the pool lock: the submitter removes the
            // job under the same lock before checking `remaining`, so it
            // cannot miss this participant.
            job.remaining.fetch_add(1, Ordering::SeqCst);
            drop(shared);

            let result = catch_unwind(AssertUnwindSafe(|| (job.body)(slot)));
            if let Err(payload) = result {
                let mut p = job.panic.lock().unwrap();
                if p.is_none() {
                    *p = Some(payload);
                }
            }
            // The job pointer must not be touched past the final decrement.
            if job.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
                self.publish();
            }
            return true;
        }
    }

    /// Spawn workers until `wanted` exist (capped), with a lock-free fast
    /// path once the pool is warm. Failure to spawn degrades to fewer
    /// helpers, never to an error.
    fn ensure_spawned(&self, wanted: usize) {
        let target = wanted.min(MAX_WORKERS);
        if self.spawned.load(Ordering::SeqCst) >= target {
            return;
        }
        let mut shared = self.shared.lock().unwrap();
        ensure_workers(&mut shared, target);
    }
}

fn worker_main(id: usize) {
    WORKER_ID.with(|c| c.set(Some(id)));
    let pool = pool();
    loop {
        // A worker outside the installed thread budget parks on the budget
        // condvar — deaf to work publications — so `install(k)` keeps
        // governing parallelism after a larger warm-up without every fork
        // push wake/re-park-cycling the excluded workers.
        if id >= allowed_helpers() {
            let guard = pool.park.lock().unwrap();
            if id >= allowed_helpers() {
                let _guard = pool.budget_cv.wait(guard).unwrap();
            }
            continue;
        }
        let seen = pool.version.load(Ordering::SeqCst);
        if let Some(task) = pool.find_task(Some(id)) {
            // SAFETY: removed from a deque ⇒ sole execution right.
            unsafe { (task.execute)(task.data) };
            continue;
        }
        if pool.try_job_slot() {
            continue;
        }
        pool.park(seen);
    }
}

/// Spawn pool workers until at least `target` exist (already capped by the
/// caller).
fn ensure_workers(shared: &mut PoolShared, target: usize) {
    while shared.spawned < target {
        let id = shared.spawned;
        if std::thread::Builder::new()
            .name(format!("psi-par-{id}"))
            .stack_size(WORKER_STACK)
            .spawn(move || worker_main(id))
            .is_err()
        {
            break;
        }
        shared.spawned += 1;
        pool().spawned.store(shared.spawned, Ordering::SeqCst);
    }
}

// ---------------------------------------------------------------------------
// Fork-join entry points (called from `crate::join` / `crate::scope`).
// ---------------------------------------------------------------------------

/// Pool-native `join`: fork `oper_a` as a stealable task, run `oper_b`
/// inline, then reclaim-or-steal until `oper_a` is done. Only called with
/// `current_num_threads() > 1` (the sequential case short-circuits in
/// `crate::join`).
pub(crate) fn join_impl<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let pool = pool();
    pool.ensure_spawned(allowed_helpers());

    let job: StackJob<A, RA> = StackJob {
        func: UnsafeCell::new(Some(oper_a)),
        result: UnsafeCell::new(None),
        latch: Latch::new(),
    };
    let data = std::ptr::from_ref(&job).cast_mut().cast::<()>();
    let me = worker_id();
    pool.push_task(
        me,
        Task {
            execute: execute_stack_job::<A, RA>,
            data,
        },
    );

    let rb = catch_unwind(AssertUnwindSafe(oper_b));

    // Reclaim the fork if nobody stole it. A Chase-Lev deque has no
    // remove-by-identity, so a worker pops LIFO until it meets its own fork:
    // anything above it was pushed more recently by this very thread (a
    // not-yet-reclaimed inner fork or a scope spawn) and is executed inline,
    // exactly as the thief that would otherwise take it would. An empty pop
    // means our fork was stolen. Non-workers reclaim from the injector by
    // identity, under its mutex.
    let reclaimed = match me {
        Some(id) => loop {
            if job.latch.probe() {
                break false; // stolen and already finished
            }
            match pool.deques[id].pop() {
                Some(task) if std::ptr::eq(task.data, data) => break true,
                // SAFETY: removed from the deque ⇒ sole execution right.
                // Panics cannot unwind out: every task body runs under its
                // own `catch_unwind`.
                Some(task) => unsafe { (task.execute)(task.data) },
                None => break false,
            }
        },
        None => pool.injector.pop_exact(data),
    };

    if reclaimed {
        // Nobody stole the fork: run it inline on this thread — the common
        // case, and the whole point of the deque (no thread spawn, no
        // blocking, just a push/pop pair). If `oper_b` already panicked the
        // reclaimed closure is dropped unrun, exactly as upstream rayon
        // drops a popped-back sibling during unwinding.
        // SAFETY: reclaimed from the deque ⇒ sole access to the cells.
        let func = unsafe { (*job.func.get()).take() }.expect("reclaimed task already executed");
        match rb {
            Ok(b) => match catch_unwind(AssertUnwindSafe(func)) {
                Ok(a) => (a, b),
                Err(payload) => resume_unwind(payload),
            },
            Err(payload) => {
                drop(func);
                resume_unwind(payload)
            }
        }
    } else {
        // A thief has it: keep the rest of the fork tree moving until its
        // latch fires. Never returns before the thief is done with the
        // stack frame this job lives in.
        pool.steal_until(me, || job.latch.probe());
        // SAFETY: latch fired ⇒ the thief stored the result and is done.
        let ra =
            unsafe { (*job.result.get()).take() }.expect("stolen task completed without result");
        match (ra, rb) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(payload), _) => resume_unwind(payload),
            (_, Err(payload)) => resume_unwind(payload),
        }
    }
}

/// Shared state of one `scope`: the number of not-yet-finished spawned
/// tasks plus the first panic payload any of them raised. Lives in
/// `crate::scope`'s frame; `scope_wait` keeps it alive past every task.
pub(crate) struct ScopeData {
    pending: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl ScopeData {
    pub(crate) fn new() -> ScopeData {
        ScopeData {
            pending: AtomicUsize::new(0),
            panic: Mutex::new(None),
        }
    }

    pub(crate) fn add_pending(&self) {
        self.pending.fetch_add(1, Ordering::SeqCst);
    }

    pub(crate) fn record_panic(&self, payload: Box<dyn Any + Send>) {
        let mut p = self.panic.lock().unwrap();
        if p.is_none() {
            *p = Some(payload);
        }
    }

    pub(crate) fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        self.panic.lock().unwrap().take()
    }

    /// Mark one spawned task finished (runs after its panic, if any, was
    /// recorded).
    pub(crate) fn complete(&self) {
        if self.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            pool().publish();
        }
    }
}

/// Queue a `scope`-spawned closure as a stealable task.
pub(crate) fn spawn_task(task: Box<dyn FnOnce() + Send>) {
    let pool = pool();
    pool.ensure_spawned(allowed_helpers());
    let data = Box::into_raw(Box::new(task)).cast::<()>();
    pool.push_task(
        worker_id(),
        Task {
            execute: execute_heap_task,
            data,
        },
    );
}

/// Block a `scope` on the completion of all its spawned tasks, executing
/// other tasks while waiting.
pub(crate) fn scope_wait(data: &ScopeData) {
    pool().steal_until(worker_id(), || data.pending.load(Ordering::SeqCst) == 0);
}

// ---------------------------------------------------------------------------
// Job execution (the `par_*` entry point).
// ---------------------------------------------------------------------------

/// Execute `body` once per participant over the shared index space `0..n`.
///
/// `body` receives a [`WorkerRanges`] yielding the index ranges that
/// participant claims; collectively the ranges partition `0..n` exactly.
/// Falls back to running `body` once on the caller (single range `0..n`)
/// when only one participant is warranted.
pub(crate) fn run(n: usize, grain: usize, body: &(dyn Fn(WorkerRanges<'_>) + Sync)) {
    if n == 0 {
        return;
    }
    let threads = crate::current_num_threads().max(1);
    let grain = grain.max(1);
    let nslots = threads.min(n.div_ceil(grain));
    if nslots <= 1 || n >= u32::MAX as usize {
        body(WorkerRanges {
            inner: RangesInner::Seq(Some(0..n)),
        });
        return;
    }
    run_pooled(n, grain, nslots, body);
}

fn run_pooled(n: usize, grain: usize, nslots: usize, body: &(dyn Fn(WorkerRanges<'_>) + Sync)) {
    OBS_JOBS.bump();
    let queues = RangeQueues::new(n, nslots, grain);
    let run_slot = |slot: usize| {
        body(WorkerRanges {
            inner: RangesInner::Pool {
                queues: &queues,
                slot,
            },
        })
    };
    let job = Job {
        body: &run_slot,
        next_slot: AtomicUsize::new(1),
        max_slots: nslots,
        remaining: AtomicUsize::new(0),
        panic: Mutex::new(None),
    };
    // Erase the job's stack lifetime for the queue; `run_pooled` does not
    // return before every registered worker is done with the pointer.
    let job_ref = JobRef(std::ptr::from_ref(&job).cast::<Job<'static>>());

    let pool = pool();
    {
        let mut shared = pool.shared.lock().unwrap();
        ensure_workers(&mut shared, (nslots - 1).min(MAX_WORKERS));
        shared.queue.push(job_ref);
    }
    pool.publish();

    // Participate as slot 0. The claim/steal loop drains every queue, so
    // this returns only once all of `0..n` has been claimed — even if no
    // worker ever joins.
    let own = catch_unwind(AssertUnwindSafe(|| (job.body)(0)));
    if let Err(payload) = own {
        let mut p = job.panic.lock().unwrap();
        if p.is_none() {
            *p = Some(payload);
        }
    }

    // Retire the job so no further workers can register, then wait for the
    // ones that did (they are finishing their last claimed grain). Instead
    // of parking outright, the blocked submitter lends itself to the
    // fork-join layer and steals queued tasks — typically the nested forks
    // of the very stragglers it is waiting on — parking only when there is
    // provably nothing to run.
    {
        let mut shared = pool.shared.lock().unwrap();
        shared.queue.retain(|j| !std::ptr::eq(j.0, job_ref.0));
    }
    pool.steal_until(worker_id(), || job.remaining.load(Ordering::SeqCst) == 0);

    let payload = job.panic.lock().unwrap().take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

/// Serialises tests that install a thread-count override (the override is
/// process-global, as in upstream rayon).
#[cfg(test)]
pub(crate) fn override_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;

    fn with_threads<R>(t: usize, f: impl FnOnce() -> R) -> R {
        crate::ThreadPoolBuilder::new()
            .num_threads(t)
            .build()
            .unwrap()
            .install(f)
    }

    #[test]
    fn every_index_delivered_exactly_once() {
        let _g = super::override_lock();
        with_threads(4, || {
            let n = 100_000;
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            run(n, 64, &|mut ranges| {
                while let Some(r) = ranges.next() {
                    for i in r {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        });
    }

    #[test]
    fn work_lands_on_multiple_threads() {
        let _g = super::override_lock();
        with_threads(4, || {
            // Items are slow enough that parked workers comfortably wake and
            // claim ranges before the caller drains the job.
            for _attempt in 0..5 {
                let ids = Mutex::new(HashSet::new());
                run(64, 1, &|mut ranges| {
                    while let Some(r) = ranges.next() {
                        for _ in r {
                            std::thread::sleep(std::time::Duration::from_millis(1));
                        }
                        ids.lock().unwrap().insert(std::thread::current().id());
                    }
                });
                if ids.lock().unwrap().len() > 1 {
                    return;
                }
            }
            panic!("no pool worker ever participated in 5 attempts");
        });
    }

    #[test]
    fn single_thread_override_runs_on_caller_only() {
        let _g = super::override_lock();
        with_threads(1, || {
            let caller = std::thread::current().id();
            let ids = Mutex::new(HashSet::new());
            run(10_000, 1, &|mut ranges| {
                while let Some(r) = ranges.next() {
                    for _ in r {}
                    ids.lock().unwrap().insert(std::thread::current().id());
                }
            });
            let ids = ids.into_inner().unwrap();
            assert_eq!(ids.len(), 1);
            assert!(ids.contains(&caller));
        });
    }

    #[test]
    fn panics_propagate_to_the_submitter() {
        let _g = super::override_lock();
        with_threads(4, || {
            let result = catch_unwind(AssertUnwindSafe(|| {
                run(1000, 8, &|mut ranges| {
                    while let Some(r) = ranges.next() {
                        if r.contains(&437) {
                            panic!("boom in worker");
                        }
                    }
                });
            }));
            assert!(result.is_err());
            // The pool must stay usable afterwards.
            let count = AtomicUsize::new(0);
            run(1000, 8, &|mut ranges| {
                while let Some(r) = ranges.next() {
                    count.fetch_add(r.len(), Ordering::Relaxed);
                }
            });
            assert_eq!(count.load(Ordering::Relaxed), 1000);
        });
    }

    #[test]
    fn nested_jobs_complete() {
        let _g = super::override_lock();
        with_threads(4, || {
            let total = AtomicUsize::new(0);
            run(8, 1, &|mut ranges| {
                while let Some(r) = ranges.next() {
                    for _ in r {
                        // Nested job from inside a participant.
                        run(100, 4, &|mut inner| {
                            while let Some(ir) = inner.next() {
                                total.fetch_add(ir.len(), Ordering::Relaxed);
                            }
                        });
                    }
                }
            });
            assert_eq!(total.load(Ordering::Relaxed), 800);
        });
    }

    #[test]
    fn steals_rebalance_uneven_work() {
        let _g = super::override_lock();
        with_threads(4, || {
            // One slot's initial share is far more expensive than the rest;
            // completion in bounded time with all indices covered exercises
            // the steal path (timing is not asserted, coverage is).
            let n = 4096;
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            run(n, 8, &|mut ranges| {
                while let Some(r) = ranges.next() {
                    for i in r {
                        if i < 64 {
                            std::thread::sleep(std::time::Duration::from_micros(200));
                        }
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        });
    }

    #[test]
    fn join_task_is_reclaimed_when_not_stolen() {
        let _g = super::override_lock();
        with_threads(4, || {
            // Trivially fast joins: the fork is virtually always popped back
            // before any worker wakes. Either way, both closures run exactly
            // once and the results come back in position.
            for i in 0..1000u64 {
                let (a, b) = crate::join(|| i * 2, || i * 3);
                assert_eq!((a, b), (i * 2, i * 3));
            }
        });
    }

    // -----------------------------------------------------------------
    // Chase-Lev deque unit/stress tests: direct hammering of the
    // lock-free hand-off protocol, no pool involved.
    // -----------------------------------------------------------------

    /// A task body that must never run: these tests treat `data` as an
    /// opaque payload and only exercise the ownership hand-off.
    unsafe fn never_run(_: *mut ()) {
        unreachable!("hammer tasks are counted, not executed");
    }

    fn payload_task(v: usize) -> Task {
        Task {
            execute: never_run,
            data: v as *mut (),
        }
    }

    #[test]
    fn chase_lev_owner_lifo_thief_fifo() {
        let dq = ChaseLev::new();
        for v in 1..=3 {
            dq.push(payload_task(v));
        }
        assert_eq!(dq.pop().map(|t| t.data as usize), Some(3));
        assert_eq!(dq.steal().map(|t| t.data as usize), Some(1));
        assert_eq!(dq.steal().map(|t| t.data as usize), Some(2));
        assert!(dq.steal().is_none());
        assert!(dq.pop().is_none());
    }

    #[test]
    fn chase_lev_growth_preserves_live_window_across_wraparound() {
        // A 2-slot ring forces growth almost immediately; the interleaved
        // pops/steals keep advancing top and bottom so the live window
        // repeatedly wraps each ring it grows into.
        let dq = ChaseLev::with_capacity(2);
        let mut expect = VecDeque::new();
        let mut next = 0usize;
        for round in 0..64 {
            for _ in 0..(round % 7) + 1 {
                next += 1;
                dq.push(payload_task(next));
                expect.push_back(next);
            }
            if round % 2 == 0 {
                assert_eq!(dq.pop().map(|t| t.data as usize), expect.pop_back());
            } else {
                assert_eq!(dq.steal().map(|t| t.data as usize), expect.pop_front());
            }
        }
        while let Some(want) = expect.pop_back() {
            assert_eq!(dq.pop().map(|t| t.data as usize), Some(want));
        }
        assert!(dq.pop().is_none());
        assert!(dq.steal().is_none());
    }

    #[test]
    fn chase_lev_steal_pop_hammer_every_task_exactly_once() {
        // Seeded owner push/pop mix under concurrent thieves, on a tiny
        // initial ring: constant growth + wraparound + empty races under
        // fire. Loss would show as a short count, ABA as a duplicate.
        use std::sync::Arc;
        const N: usize = 100_000;
        const THIEVES: usize = 3;
        let dq = Arc::new(ChaseLev::with_capacity(2));
        let done = Arc::new(AtomicBool::new(false));
        let mut thieves = Vec::new();
        for _ in 0..THIEVES {
            let dq = Arc::clone(&dq);
            let done = Arc::clone(&done);
            thieves.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                loop {
                    match dq.steal() {
                        Some(t) => got.push(t.data as usize),
                        None if done.load(Ordering::SeqCst) => break,
                        None => std::thread::yield_now(),
                    }
                }
                got
            }));
        }
        let mut consumed = Vec::with_capacity(N);
        let mut rng = 0x9E37_79B9_7F4A_7C15u64; // fixed seed
        for v in 1..=N {
            dq.push(payload_task(v));
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if rng.is_multiple_of(3) {
                if let Some(t) = dq.pop() {
                    consumed.push(t.data as usize);
                }
            }
        }
        while let Some(t) = dq.pop() {
            consumed.push(t.data as usize);
        }
        // The owner drained to empty and nothing pushes afterwards, so the
        // thieves' final None is definitive.
        done.store(true, Ordering::SeqCst);
        for h in thieves {
            consumed.extend(h.join().unwrap());
        }
        consumed.sort_unstable();
        assert_eq!(consumed.len(), N, "a task was lost or duplicated");
        assert!(
            consumed.iter().copied().eq(1..=N),
            "hand-off must deliver every task exactly once"
        );
    }

    #[test]
    fn chase_lev_single_element_race_has_exactly_one_winner() {
        // The ABA-prone case: exactly one task in the deque, owner pop and
        // thief steal released simultaneously — the SeqCst CAS on `top`
        // must let exactly one side claim it, every round.
        use std::sync::{Arc, Barrier};
        const ROUNDS: usize = 2_000;
        let dq = Arc::new(ChaseLev::with_capacity(2));
        let start = Arc::new(Barrier::new(2));
        let end = Arc::new(Barrier::new(2));
        let thief = {
            let dq = Arc::clone(&dq);
            let (start, end) = (Arc::clone(&start), Arc::clone(&end));
            std::thread::spawn(move || {
                let mut got = Vec::new();
                for _ in 0..ROUNDS {
                    start.wait();
                    if let Some(t) = dq.steal() {
                        got.push(t.data as usize);
                    }
                    end.wait();
                }
                got
            })
        };
        let mut all = Vec::new();
        for round in 1..=ROUNDS {
            dq.push(payload_task(round));
            start.wait();
            if let Some(t) = dq.pop() {
                all.push(t.data as usize);
            }
            end.wait();
        }
        all.extend(thief.join().unwrap());
        all.sort_unstable();
        assert!(
            all.iter().copied().eq(1..=ROUNDS),
            "each round's lone task must be claimed by exactly one side"
        );
    }

    #[test]
    fn stolen_join_task_sets_latch_and_returns_result() {
        let _g = super::override_lock();
        with_threads(4, || {
            // A slow inline half gives workers ample time to steal the fork;
            // on any scheduling the result must be identical.
            for _ in 0..20 {
                let (a, b) = crate::join(
                    || (0..1000u64).sum::<u64>(),
                    || {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                        1u64
                    },
                );
                assert_eq!(a, 499_500);
                assert_eq!(b, 1);
            }
        });
    }
}
