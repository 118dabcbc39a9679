//! `serve-read` and `serve-write`: a `PsiServer` (P-Orth, two shards) behind
//! an evented `NetServer` on loopback, driven over one pipelined connection
//! by a sender thread and a receiver thread.
//!
//! Phases, on one clock from the generator's start:
//!
//! 1. warm-up: open-loop reads at the fixed rate, not reported;
//! 2. fixed: open-loop Poisson reads at [`READ_RATE`], each timed from when
//!    it was due (read latency);
//! 3. saturation: a window of [`WINDOW`] reads in flight (capacity);
//! 4. write-alone: after the reads drain, move batches one at a time, with
//!    no reads beside them (the write path without contention or queueing).
//!
//! The gated figures are the CPU time the program's threads spend per read
//! in phase 2 and per point written in phase 4; the wall-clock figures are
//! reported beside them.
//!
//! `serve-write` runs a durable server (`FsyncPolicy::EveryBatch`) and
//! sends open-loop move batches at [`WRITE_RATE`] through phases 1 to 3. A
//! write is timed from when it was due until `PsiServer::epoch` covers it;
//! the wire `BatchOk` is sent at enqueue, so it only marks the ack. Every
//! move batch deletes live points and reinserts the same ones, so every
//! epoch holds the same set and every reply is checked exactly against
//! answers precomputed by brute force. `serve-write` ends by reopening the
//! server from its data directory and checking the recovered answers.

use crate::stats::{self, metric, Metric, Poisson};
use crate::trace::Tracer;
use crate::{Args, Outcome};
use psi::registry::{self, BuildOptions, DynIndex};
use psi::{Coord, KnnHeap, PointI, RectI};
use psi_net::client::WireClient;
use psi_net::wire::{self, Reply, Request, ERR_BUSY, LEN_PREFIX};
use psi_net::{NetConfig, NetServer};
use psi_server::wal::{FsyncPolicy, WalWriter};
use psi_server::{DurabilityConfig, IndexFactory, PsiServer, Router, ServeConfig};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

const N: usize = 100_000;
const MAX_COORD: i64 = 1_000_000_000;
const FAMILY: &str = "p-orth";
const SHARDS: usize = 2;
const COALESCE_MAX_BATCH: usize = 64;
const K: usize = 10;
const QUERY_POOL: usize = 4_096;
const RECT_POOL: usize = 1_024;
const RANGE_TARGET: usize = 50;
/// Open-loop read arrivals per second: about a third of capacity here.
const READ_RATE: f64 = 20_000.0;
/// Open-loop move batches per second on `serve-write`.
const WRITE_RATE: f64 = 100.0;
/// Points one move batch deletes and reinserts.
const MOVE_BATCH: usize = 200;
/// Reads in flight during the saturation phase.
const WINDOW: usize = 256;
/// Set-ups timed per run, and how many of them come before the timed
/// phases (the rest follow them, so one burst of host load moves fewer).
const SETUP_REPS: usize = 9;
const SETUP_REPS_BEFORE: usize = 5;
/// Length of the windows the run is sampled in.
const WINDOW_NS: u64 = 1_000_000_000;
/// Reads per chunk of the read p99: about one second at [`READ_RATE`].
const READ_P99_CHUNK: usize = 20_000;
const WARMUP_S: f64 = 1.0;
/// Share of `--seconds` given to the fixed-rate phase; the rest measures
/// capacity.
const FIXED_SHARE: f64 = 0.6;
/// Move batches sent one at a time after the reads.
const PROBE_BATCHES: usize = 1_000;
/// Quiet time after the last phase with writes beside reads before the
/// sender stops listening for busy refusals to resend.
const SETTLE: Duration = Duration::from_millis(100);
/// Wait before resending a move batch the server refused as busy.
const BUSY_BACKOFF_NS: u64 = 1_000_000;
/// Pause between the saturation phase and the write phase, for the reads
/// in flight to drain.
const PROBE_GAP_S: f64 = 0.3;
/// Operations each rung of the traced run's ladder answers.
const LADDER_OPS: usize = 4_000;
const LADDER_WARMUP: usize = 400;
/// Batches the traced run times on a standalone router, index and WAL.
const MICRO_BATCHES: usize = 400;
/// The generator counts as fallen behind when its p99 lateness exceeds
/// this, a twentieth of a window: a shorter stall it makes up within the
/// window its reads are counted in.
const LATE_LIMIT_MS: f64 = 50.0;
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);
/// Read timeout of the receiver, which looks at the epoch after every
/// reply and at each timeout. The kernel rounds it up to a scheduler tick,
/// so write visibility is resolved by the stream of read replies beside it;
/// the write-alone phase, which has no reads, waits on the sender.
const POLL: Duration = Duration::from_millis(1);

/// A traced run keeps the spans of one request (or ladder operation, or
/// micro-benchmark batch) in this many.
const SPAN_STRIDE: u64 = 16;

const KNN: u8 = 0;
const COUNT: u8 = 1;
const LIST: u8 = 2;
const WRITE: u8 = 3;
const KIND_NAMES: [&str; 3] = ["knn", "count", "list"];

type Server = PsiServer<i64, 2>;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Warm,
    Fixed,
    Sat,
    Probe,
}

/// Phase boundaries in nanoseconds from the generator's start.
#[derive(Clone, Copy, Debug)]
struct Plan {
    warm_end: u64,
    fixed_end: u64,
    sat_end: u64,
    /// Whole one-second windows in the fixed-rate and saturation phases.
    fixed_windows: usize,
    sat_windows: usize,
    /// `serve-write` sends move batches beside the reads.
    writes_beside_reads: bool,
    probe_start: u64,
}

impl Plan {
    fn new(seconds: f64, write: bool) -> Self {
        let ns = |s: f64| (s * 1e9) as u64;
        let fixed_windows = ((seconds * FIXED_SHARE).round() as usize).max(1);
        let sat_windows = (seconds.round() as usize)
            .saturating_sub(fixed_windows)
            .max(1);
        let warm_end = ns(WARMUP_S);
        let fixed_end = warm_end + fixed_windows as u64 * WINDOW_NS;
        let sat_end = fixed_end + sat_windows as u64 * WINDOW_NS;
        Plan {
            warm_end,
            fixed_end,
            sat_end,
            fixed_windows,
            sat_windows,
            writes_beside_reads: write,
            probe_start: sat_end + ns(PROBE_GAP_S),
        }
    }

    /// The one-second window, counted from the end of the warm-up, that
    /// holds time `t_ns`.
    fn window(&self, t_ns: u64) -> usize {
        (t_ns.saturating_sub(self.warm_end) / WINDOW_NS) as usize
    }
}

/// The `i`-th read of the rotation kNN, kNN, range count, range list.
fn op(i: u64) -> (u8, usize) {
    let round = (i / 4) as usize;
    match i % 4 {
        0 => (KNN, (2 * round) % QUERY_POOL),
        1 => (KNN, (2 * round + 1) % QUERY_POOL),
        2 => (COUNT, round % RECT_POOL),
        _ => (LIST, round % RECT_POOL),
    }
}

fn read_request(
    kind: u8,
    idx: usize,
    queries: &[PointI<2>],
    rects: &[RectI<2>],
) -> Request<i64, 2> {
    match kind {
        KNN => Request::Knn {
            q: queries[idx],
            k: K as u32,
            at: None,
        },
        COUNT => Request::RangeCount {
            rect: rects[idx],
            at: None,
        },
        _ => Request::RangeList {
            rect: rects[idx],
            at: None,
        },
    }
}

/// The points move batch `j` deletes and reinserts.
fn move_slice(data: &[PointI<2>], j: u64) -> &[PointI<2>] {
    let lo = (j as usize).wrapping_mul(MOVE_BATCH * 7 + 13) % (data.len() - MOVE_BATCH);
    &data[lo..lo + MOVE_BATCH]
}

/// Canonical answers for every pool entry, computed by brute force.
struct Expected {
    queries: Vec<PointI<2>>,
    rects: Vec<RectI<2>>,
    knn: Vec<u64>,
    count: Vec<usize>,
    list: Vec<u64>,
}

impl Expected {
    fn new(data: &[PointI<2>], seed: u64) -> Self {
        let queries = psi_workloads::ind_queries(data, QUERY_POOL, seed ^ 0x9e37);
        let rects = psi_workloads::range_queries(data, MAX_COORD, RANGE_TARGET, RECT_POOL, seed);
        let oracle = registry::create::<2>("brute-force", data, &BuildOptions::default())
            .expect("brute-force is a registered family");
        let knn = oracle
            .knn_batch(&queries, K)
            .iter()
            .zip(&queries)
            .map(|(a, q)| stats::hash_knn(q, a))
            .collect();
        let count = oracle.range_count_batch(&rects);
        let list = oracle
            .range_list_batch(&rects)
            .iter()
            .map(|a| stats::hash_points(a))
            .collect();
        Expected {
            queries,
            rects,
            knn,
            count,
            list,
        }
    }

    fn checksum(&self) -> u64 {
        let mut h = stats::FNV_OFFSET;
        for x in self.knn.iter().chain(&self.list) {
            h = stats::fnv(h, &x.to_le_bytes());
        }
        for c in &self.count {
            h = stats::fnv(h, &stats::hash_count(*c).to_le_bytes());
        }
        h
    }

    fn knn_ok(&self, idx: usize, answer: &[PointI<2>]) -> bool {
        answer.len() == K && stats::hash_knn(&self.queries[idx], answer) == self.knn[idx]
    }

    fn reply_ok(&self, kind: u8, idx: usize, reply: &Reply<i64, 2>) -> bool {
        match (kind, reply) {
            (KNN, Reply::Points(p)) => self.knn_ok(idx, p),
            (COUNT, Reply::Count(c)) => *c as usize == self.count[idx],
            (LIST, Reply::Points(p)) => stats::hash_points(p) == self.list[idx],
            _ => false,
        }
    }
}

fn factory() -> IndexFactory<i64, 2> {
    Arc::new(|pts: &[PointI<2>]| {
        registry::create::<2>(FAMILY, pts, &BuildOptions::default())
            .expect("p-orth is a registered family")
    })
}

fn config(dir: Option<&Path>) -> ServeConfig {
    ServeConfig {
        shards: SHARDS,
        coalesce_max_batch: COALESCE_MAX_BATCH,
        durability: dir.map(DurabilityConfig::new),
        ..Default::default()
    }
}

/// Set-up: the server, its socket front end and a connected client.
fn start(
    data: &[PointI<2>],
    dir: Option<&Path>,
) -> io::Result<(Arc<Server>, NetServer, WireClient<i64, 2>)> {
    let universe = psi_workloads::universe::<2>(MAX_COORD);
    let server = Arc::new(PsiServer::new(data, &universe, config(dir), factory()));
    let net = NetServer::spawn(
        Arc::clone(&server),
        psi_net::loopback(),
        NetConfig::default(),
    )?;
    let client = WireClient::connect(net.addr())?;
    Ok((server, net, client))
}

/// Tear a set-up down and remove its data directory.
fn stop(
    (server, net, client): (Arc<Server>, NetServer, WireClient<i64, 2>),
    dir: Option<&Path>,
) -> io::Result<()> {
    drop(client);
    net.shutdown();
    drop(server);
    match dir {
        Some(d) => std::fs::remove_dir_all(d),
        None => Ok(()),
    }
}

/// Messages from the sender to the receiver, sent before the request's
/// bytes are written, so a reply never arrives ahead of its description.
enum Sent {
    Req {
        id: u64,
        phase: Phase,
        kind: u8,
        idx: usize,
        batch: u64,
        due_ns: u64,
    },
    Done,
}

/// Messages from the receiver back to the sender.
enum Back {
    /// A saturation-phase read completed: one more may go out.
    Credit,
    /// The server answered a move batch with `ERR_BUSY`: send it again.
    Retry {
        batch: u64,
        due_ns: u64,
        phase: Phase,
    },
    /// The server acked a write-alone move batch.
    Acked,
}

/// The next due time of an open-loop schedule.
struct Sched {
    poisson: Poisson,
    due: u64,
}

impl Sched {
    fn new(rate: f64, seed: u64) -> Self {
        let mut poisson = Poisson::new(rate, seed);
        let due = poisson.next_due();
        Sched { poisson, due }
    }

    fn advance(&mut self) {
        self.due = self.poisson.next_due();
    }
}

struct SenderOut {
    tracer: Tracer,
    late_ms: Vec<f64>,
    encode_ns: Vec<f64>,
    /// Write-alone latency from send to visible, ms, and the program's CPU
    /// time per batch, ns.
    probe_ms: Vec<f64>,
    probe_cpu_ns: Vec<f64>,
}

struct Sender<'a> {
    stream: TcpStream,
    origin: Instant,
    next_id: u64,
    wbuf: Vec<u8>,
    tx: mpsc::Sender<Sent>,
    expected: &'a Expected,
    data: &'a [PointI<2>],
    reads: u64,
    writes: u64,
    late_ms: Vec<f64>,
    encode_ns: Vec<f64>,
    probe_ms: Vec<f64>,
    probe_cpu_ns: Vec<f64>,
    server: &'a Server,
    tracer: Tracer,
}

impl Sender<'_> {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(
        &mut self,
        req: &Request<i64, 2>,
        phase: Phase,
        kind: u8,
        idx: usize,
        batch: u64,
        due_ns: u64,
    ) {
        let id = self.next_id;
        self.next_id += 1;
        // The receiver outlives the sender, so this send cannot fail.
        let _ = self.tx.send(Sent::Req {
            id,
            phase,
            kind,
            idx,
            batch,
            due_ns,
        });
        let span = self.tracer.now();
        wire::encode_request(req, id, &mut self.wbuf).expect("benchmark requests fit a frame");
        if self.tracer.is_on() {
            self.tracer.close("wire.encode", span, 0, id);
            self.encode_ns.push((self.tracer.now() - span) as f64);
        }
    }

    fn push_read(&mut self, phase: Phase, due_ns: u64) {
        let (kind, idx) = op(self.reads);
        self.reads += 1;
        let req = read_request(kind, idx, &self.expected.queries, &self.expected.rects);
        self.push(&req, phase, kind, idx, 0, due_ns);
    }

    fn push_write(&mut self, phase: Phase, due_ns: u64, batch: u64) {
        let pts = move_slice(self.data, batch).to_vec();
        let req = Request::ApplyBatch {
            delete: pts.clone(),
            insert: pts,
        };
        self.push(&req, phase, WRITE, 0, batch, due_ns);
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.write_all(&self.wbuf)?;
        self.wbuf.clear();
        Ok(())
    }

    /// Send until `end_ns`: open-loop reads and writes on their schedules,
    /// and, with `window`, one read per completion credit. A move batch the
    /// server refused as busy goes out again after [`BUSY_BACKOFF_NS`].
    fn drive(
        &mut self,
        phase: Phase,
        end_ns: u64,
        mut reads: Option<&mut Sched>,
        mut writes: Option<&mut Sched>,
        window: bool,
        back: &mpsc::Receiver<Back>,
    ) -> io::Result<()> {
        let mut inbox: VecDeque<Back> = VecDeque::new();
        let mut retries: VecDeque<(u64, u64, u64, Phase)> = VecDeque::new();
        if window {
            let now = self.now_ns();
            for _ in 0..WINDOW {
                self.push_read(phase, now);
            }
        }
        loop {
            let now = self.now_ns();
            inbox.extend(back.try_iter());
            for b in inbox.drain(..) {
                match b {
                    Back::Credit if window && now < end_ns => self.push_read(phase, now),
                    Back::Credit | Back::Acked => {}
                    Back::Retry {
                        batch,
                        due_ns,
                        phase,
                    } => retries.push_back((now + BUSY_BACKOFF_NS, batch, due_ns, phase)),
                }
            }
            while let Some(&(at, batch, due_ns, p)) = retries.front() {
                if at > now {
                    break;
                }
                retries.pop_front();
                self.push_write(p, due_ns, batch);
            }
            if let Some(r) = reads.as_deref_mut() {
                while r.due <= now && r.due < end_ns {
                    if phase == Phase::Fixed {
                        self.late_ms.push((now - r.due) as f64 / 1e6);
                    }
                    self.push_read(phase, r.due);
                    r.advance();
                }
            }
            if let Some(w) = writes.as_deref_mut() {
                while w.due <= now && w.due < end_ns {
                    let batch = self.writes;
                    self.writes += 1;
                    self.push_write(phase, w.due, batch);
                    w.advance();
                }
            }
            self.flush()?;
            if now >= end_ns && retries.is_empty() {
                return Ok(());
            }
            let mut wake = end_ns;
            if let Some(r) = reads.as_deref() {
                wake = wake.min(r.due);
            }
            if let Some(w) = writes.as_deref() {
                wake = wake.min(w.due);
            }
            if let Some(&(at, ..)) = retries.front() {
                wake = wake.min(at);
            }
            let wait = Duration::from_nanos(wake.saturating_sub(self.now_ns()));
            if window {
                if let Ok(b) = back.recv_timeout(wait) {
                    inbox.push_back(b);
                }
            } else if !wait.is_zero() {
                std::thread::sleep(wait);
            }
        }
    }

    /// The write-alone phase: one move batch at a time, the next sent once
    /// the previous is visible, so each is timed without queueing. Once the
    /// receiver passes on the batch's ack, the sender waits in
    /// `PsiServer::quiesce` until the batch is published, rather than
    /// polling the epoch beside the writer. The program's CPU time is read
    /// as each batch goes out, so each batch's share runs to the next one's
    /// start and includes work done after it is visible.
    fn probe(&mut self, back: &mpsc::Receiver<Back>) -> io::Result<()> {
        let mut cpu = stats::program_cpu_ns();
        for _ in 0..PROBE_BATCHES {
            let now = stats::program_cpu_ns();
            if !self.probe_ms.is_empty() {
                self.probe_cpu_ns.push((now - cpu) as f64);
            }
            cpu = now;
            let batch = self.writes;
            self.writes += 1;
            let due = self.now_ns();
            self.push_write(Phase::Probe, due, batch);
            self.flush()?;
            loop {
                match back.recv_timeout(DRAIN_TIMEOUT) {
                    Ok(Back::Acked) => break,
                    Ok(Back::Retry { .. }) => {
                        std::thread::sleep(Duration::from_nanos(BUSY_BACKOFF_NS));
                        self.push_write(Phase::Probe, due, batch);
                        self.flush()?;
                    }
                    Ok(Back::Credit) => {}
                    Err(_) => return Err(io::Error::other("a move batch was never acked")),
                }
            }
            self.server.quiesce();
            self.probe_ms.push((self.now_ns() - due) as f64 / 1e6);
        }
        Ok(())
    }

    fn run(mut self, plan: Plan, seed: u64, back: mpsc::Receiver<Back>) -> io::Result<SenderOut> {
        let mut reads = Sched::new(READ_RATE, seed ^ 0xa11);
        let mut writes = Sched::new(WRITE_RATE, seed ^ 0xb22);
        let mut w = plan.writes_beside_reads.then_some(&mut writes);
        self.drive(
            Phase::Warm,
            plan.warm_end,
            Some(&mut reads),
            w.as_deref_mut(),
            false,
            &back,
        )?;
        self.drive(
            Phase::Fixed,
            plan.fixed_end,
            Some(&mut reads),
            w.as_deref_mut(),
            false,
            &back,
        )?;
        self.drive(Phase::Sat, plan.sat_end, None, w, true, &back)?;
        // Move batches refused as busy near the end still go out.
        while let Ok(b) = back.recv_timeout(SETTLE) {
            if let Back::Retry {
                batch,
                due_ns,
                phase,
            } = b
            {
                std::thread::sleep(Duration::from_nanos(BUSY_BACKOFF_NS));
                self.push_write(phase, due_ns, batch);
                self.flush()?;
            }
        }
        let gap = Duration::from_nanos(plan.probe_start.saturating_sub(self.now_ns()));
        std::thread::sleep(gap);
        // Batches sent beside the reads are all published before the first
        // write-alone batch, so an epoch step is always that batch's.
        self.server.quiesce();
        self.probe(&back)?;
        let _ = self.tx.send(Sent::Done);
        Ok(SenderOut {
            tracer: self.tracer,
            late_ms: self.late_ms,
            encode_ns: self.encode_ns,
            probe_ms: self.probe_ms,
            probe_cpu_ns: self.probe_cpu_ns,
        })
    }
}

#[derive(Default)]
struct ReceiverOut {
    attempted: u64,
    failed: u64,
    busy_retries: u64,
    /// Fixed-phase read latency per kind, ms.
    fixed_ms: [Vec<f64>; 3],
    /// Fixed-phase read latency in completion order, ms, and due times.
    fixed_order: Vec<f64>,
    fixed_due: Vec<u64>,
    /// Reads completed in each one-second window of the saturation phase.
    sat_done: Vec<u64>,
    /// Fixed-phase write latency from due to visible, ms.
    write_ms: Vec<f64>,
    /// The same for writes beside the saturating window.
    sat_write_ms: Vec<f64>,
    /// Gap from the wire ack to visibility, ms.
    ack_gap_ms: Vec<f64>,
    decode_ns: Vec<f64>,
    tracer: Option<Tracer>,
}

struct Receiver<'a> {
    stream: TcpStream,
    origin: Instant,
    rx: mpsc::Receiver<Sent>,
    back: mpsc::Sender<Back>,
    server: &'a Server,
    expected: &'a Expected,
    plan: Plan,
    tracer: Tracer,
    pending: HashMap<u64, Sent>,
    /// Acked move batches not yet visible: (epoch, due, ack, phase).
    awaiting: VecDeque<(u64, u64, u64, Phase)>,
    acked: u64,
    base_epoch: u64,
    sender_done: bool,
    out: ReceiverOut,
}

impl Receiver<'_> {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn fail(&mut self, what: &str) {
        self.out.failed += 1;
        if self.out.failed <= 5 {
            eprintln!("serve: {what}");
        }
    }

    fn handle(&mut self, payload: &[u8]) {
        let span = self.tracer.now();
        let decoded = wire::decode_reply::<i64, 2>(payload);
        if self.tracer.is_on() {
            self.out.decode_ns.push((self.tracer.now() - span) as f64);
        }
        let (id, reply) = match decoded {
            Ok(x) => x,
            Err(e) => {
                self.out.attempted += 1;
                return self.fail(&format!("undecodable reply: {e}"));
            }
        };
        if self.tracer.is_on() {
            self.tracer.close("wire.decode", span, 0, id);
        }
        if !self.pending.contains_key(&id) {
            self.drain_sent();
        }
        let Some(Sent::Req {
            phase,
            kind,
            idx,
            batch,
            due_ns,
            ..
        }) = self.pending.remove(&id)
        else {
            self.out.attempted += 1;
            return self.fail(&format!("reply to unknown request {id}"));
        };
        let now = self.now_ns();
        if kind == WRITE {
            match reply {
                Reply::BatchOk => {
                    self.acked += 1;
                    self.awaiting
                        .push_back((self.base_epoch + self.acked, due_ns, now, phase));
                    if self.tracer.is_on() {
                        self.tracer.close("write.ack", due_ns, 0, id);
                    }
                    if phase == Phase::Probe {
                        let _ = self.back.send(Back::Acked);
                    }
                }
                Reply::Error { code, .. } if code == ERR_BUSY => {
                    self.out.busy_retries += 1;
                    let _ = self.back.send(Back::Retry {
                        batch,
                        due_ns,
                        phase,
                    });
                }
                other => {
                    self.out.attempted += 1;
                    self.fail(&format!("move batch refused: {other:?}"));
                }
            }
            return;
        }
        self.out.attempted += 1;
        if !self.expected.reply_ok(kind, idx, &reply) {
            self.fail(&format!(
                "wrong {} answer for pool entry {idx}",
                KIND_NAMES[kind as usize]
            ));
        }
        if self.tracer.is_on() {
            self.tracer.close(KIND_NAMES[kind as usize], due_ns, 0, id);
        }
        match phase {
            Phase::Fixed => {
                let ms = (now - due_ns) as f64 / 1e6;
                self.out.fixed_ms[kind as usize].push(ms);
                self.out.fixed_order.push(ms);
                self.out.fixed_due.push(due_ns);
            }
            Phase::Sat => {
                let _ = self.back.send(Back::Credit);
            }
            Phase::Warm | Phase::Probe => {}
        }
        if (self.plan.fixed_end..self.plan.sat_end).contains(&now) {
            let w = self.plan.window(now) - self.plan.fixed_windows;
            self.out.sat_done[w] += 1;
        }
    }

    /// Take the sender's request descriptions. The sender is done once it
    /// says so or its channel is gone (it failed before saying so).
    fn drain_sent(&mut self) {
        loop {
            match self.rx.try_recv() {
                Ok(s @ Sent::Req { id, .. }) => {
                    self.pending.insert(id, s);
                }
                Ok(Sent::Done) | Err(mpsc::TryRecvError::Disconnected) => {
                    self.sender_done = true;
                    return;
                }
                Err(mpsc::TryRecvError::Empty) => return,
            }
        }
    }

    fn check_visible(&mut self) {
        if self.awaiting.is_empty() {
            return;
        }
        let epoch = self.server.epoch();
        let now = self.now_ns();
        while let Some(&(e, due, ack, phase)) = self.awaiting.front() {
            if e > epoch {
                break;
            }
            self.awaiting.pop_front();
            self.out.attempted += 1;
            // Writes beside the fixed-rate reads and those beside the
            // saturating window are reported apart. The sender times the
            // write-alone batches itself.
            let ms = (now - due) as f64 / 1e6;
            match phase {
                Phase::Fixed => {
                    self.out.write_ms.push(ms);
                    self.out.ack_gap_ms.push((now - ack) as f64 / 1e6);
                }
                Phase::Sat => self.out.sat_write_ms.push(ms),
                Phase::Warm | Phase::Probe => {}
            }
            if self.tracer.is_on() {
                self.tracer.close("write.visible", due, 0, e);
            }
        }
    }

    fn run(mut self) -> io::Result<ReceiverOut> {
        self.stream.set_read_timeout(Some(POLL))?;
        let mut buf: Vec<u8> = Vec::with_capacity(1 << 20);
        let mut chunk = vec![0u8; 64 * 1024];
        let mut done_at = None;
        loop {
            let mut pos = 0;
            loop {
                match wire::frame_size(&buf[pos..]) {
                    Ok(Some(size)) => {
                        self.handle(&buf[pos + LEN_PREFIX..pos + size]);
                        pos += size;
                    }
                    Ok(None) => break,
                    Err(e) => {
                        self.fail(&format!("bad frame from the server: {e}"));
                        return Ok(self.finish());
                    }
                }
            }
            buf.drain(..pos);
            self.check_visible();
            self.drain_sent();
            if self.sender_done {
                if self.pending.is_empty() && self.awaiting.is_empty() {
                    break;
                }
                let since = *done_at.get_or_insert_with(Instant::now);
                if since.elapsed() > DRAIN_TIMEOUT {
                    let lost = self.pending.len() + self.awaiting.len();
                    self.out.attempted += lost as u64;
                    self.out.failed += lost as u64;
                    eprintln!("serve: {lost} operations never completed");
                    break;
                }
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.fail("the server closed the connection");
                    break;
                }
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(self.finish())
    }

    fn finish(mut self) -> ReceiverOut {
        self.out.tracer = Some(self.tracer);
        self.out
    }
}

/// Per-call latencies (ns) of the traced run's ladder: the same operations
/// through successively lower public entry points.
struct Ladder {
    wire: Vec<f64>,
    coalesce: Vec<f64>,
    direct: Vec<f64>,
    view: Vec<f64>,
    snapshot: Vec<f64>,
    nodes_per_query: f64,
    failed: u64,
    attempted: u64,
}

/// kNN over the pinned shard snapshots, merging best-first in stripe order
/// as the router does.
fn snapshot_knn(
    view: &psi_server::RouterView<i64, 2>,
    regions: &[RectI<2>],
    q: &PointI<2>,
) -> Vec<PointI<2>> {
    let mut order: Vec<(i128, usize)> = regions
        .iter()
        .enumerate()
        .map(|(i, r)| (r.dist_sq_to_point(q), i))
        .collect();
    order.sort_by(|a, b| i64::dist_cmp(a.0, b.0).then(a.1.cmp(&b.1)));
    let mut heap = KnnHeap::new(K);
    for (dist, i) in order {
        if heap.is_full() && !heap.could_improve(dist) {
            break;
        }
        for p in view.snapshot(i).index().knn(q, K) {
            heap.offer_point(q, p);
        }
    }
    heap.into_sorted()
}

fn ladder(
    server: &Server,
    addr: std::net::SocketAddr,
    ex: &Expected,
    tr: &mut Tracer,
) -> io::Result<Ladder> {
    fn time_rung(
        name: &'static str,
        tr: &mut Tracer,
        ex: &Expected,
        failed: &mut u64,
        attempted: &mut u64,
        mut call: impl FnMut(u8, usize) -> io::Result<Answer>,
    ) -> io::Result<Vec<f64>> {
        let mut ns = Vec::with_capacity(LADDER_OPS);
        for i in 0..(LADDER_WARMUP + LADDER_OPS) as u64 {
            let (kind, idx) = op(i);
            let span = tr.now();
            let t = Instant::now();
            let ans = call(kind, idx)?;
            let dt = t.elapsed().as_nanos() as f64;
            tr.close(name, span, 0, i);
            let ok = match (kind, &ans) {
                (KNN, Answer::Points(p)) => ex.knn_ok(idx, p),
                (COUNT, Answer::Count(c)) => *c == ex.count[idx],
                (LIST, Answer::Points(p)) => stats::hash_points(p) == ex.list[idx],
                _ => false,
            };
            *attempted += 1;
            if !ok {
                *failed += 1;
                eprintln!("serve: {name} rung answered pool entry {idx} wrongly");
            }
            if i >= LADDER_WARMUP as u64 {
                ns.push(dt);
            }
        }
        Ok(ns)
    }

    let (q, r) = (&ex.queries, &ex.rects);
    let (mut failed, mut attempted) = (0, 0);
    let mut wc = WireClient::<i64, 2>::connect(addr)?;
    let wire_ns = time_rung(
        "ladder.wire",
        tr,
        ex,
        &mut failed,
        &mut attempted,
        |kind, idx| {
            Ok(match kind {
                KNN => Answer::Points(wc.knn(&q[idx], K)?),
                COUNT => Answer::Count(wc.range_count(&r[idx])?),
                _ => Answer::Points(wc.range_list(&r[idx])?),
            })
        },
    )?;
    drop(wc);
    let ch = server.client();
    let coalesce_ns = time_rung(
        "ladder.coalesce",
        tr,
        ex,
        &mut failed,
        &mut attempted,
        |kind, idx| {
            Ok(match kind {
                KNN => Answer::Points(ch.knn(&q[idx], K)),
                COUNT => Answer::Count(ch.range_count(&r[idx])),
                _ => Answer::Points(ch.range_list(&r[idx])),
            })
        },
    )?;
    let dh = server.direct_client();
    let direct_ns = time_rung(
        "ladder.direct",
        tr,
        ex,
        &mut failed,
        &mut attempted,
        |kind, idx| {
            Ok(match kind {
                KNN => Answer::Points(dh.knn(&q[idx], K)),
                COUNT => Answer::Count(dh.range_count(&r[idx])),
                _ => Answer::Points(dh.range_list(&r[idx])),
            })
        },
    )?;
    let view = server.view();
    let view_ns = time_rung(
        "ladder.view",
        tr,
        ex,
        &mut failed,
        &mut attempted,
        |kind, idx| {
            Ok(match kind {
                KNN => Answer::Points(view.knn(&q[idx], K)),
                COUNT => Answer::Count(view.range_count(&r[idx])),
                _ => Answer::Points(view.range_list(&r[idx])),
            })
        },
    )?;
    let regions: Vec<RectI<2>> = (0..view.shard_count())
        .map(|i| *server.router().shard(i).region())
        .collect();
    let before = psi_parutils::stats::snapshot();
    let snap_ns = time_rung(
        "ladder.snapshot",
        tr,
        ex,
        &mut failed,
        &mut attempted,
        |kind, idx| {
            Ok(match kind {
                KNN => Answer::Points(snapshot_knn(&view, &regions, &q[idx])),
                COUNT => Answer::Count(
                    (0..view.shard_count())
                        .map(|s| view.snapshot(s).index().range_count(&r[idx]))
                        .sum(),
                ),
                _ => Answer::Points(
                    (0..view.shard_count())
                        .flat_map(|s| view.snapshot(s).index().range_list(&r[idx]))
                        .collect(),
                ),
            })
        },
    )?;
    let visited = psi_parutils::stats::delta(before, psi_parutils::stats::snapshot()).nodes_visited;
    Ok(Ladder {
        wire: wire_ns,
        coalesce: coalesce_ns,
        direct: direct_ns,
        view: view_ns,
        snapshot: snap_ns,
        nodes_per_query: visited as f64 / (LADDER_WARMUP + LADDER_OPS) as f64,
        failed,
        attempted,
    })
}

enum Answer {
    Points(Vec<PointI<2>>),
    Count(usize),
}

/// The write path's parts, timed on their own with the run's move batches:
/// a standalone router publishing with a reader pin held, one P-Orth index
/// applying the batch diff, and a WAL writer appending and syncing.
struct WriteParts {
    publish_ms: Vec<f64>,
    batch_diff_ms: Vec<f64>,
    append_us: Vec<f64>,
    fsync_us: Vec<f64>,
    wal_bytes_per_point: f64,
}

fn write_parts(data: &[PointI<2>], dir: &Path, tr: &mut Tracer) -> io::Result<WriteParts> {
    let universe = psi_workloads::universe::<2>(MAX_COORD);
    let router = Router::new(&factory(), data, &universe, SHARDS);
    let mut publish_ms = Vec::new();
    for j in 0..MICRO_BATCHES as u64 {
        let b = move_slice(data, j);
        // A reader holds the current epoch while the writer publishes.
        let pin = router.pin();
        let span = tr.now();
        let t = Instant::now();
        router.publish(b, b);
        publish_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tr.close("shard.publish", span, 0, j);
        drop(pin);
    }

    let mut index: Box<dyn DynIndex<i64, 2>> = factory()(data);
    let mut batch_diff_ms = Vec::new();
    for j in 0..MICRO_BATCHES as u64 {
        let b = move_slice(data, j);
        let span = tr.now();
        let t = Instant::now();
        index.batch_diff(b, b);
        batch_diff_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tr.close("porth.batch_diff", span, 0, j);
    }

    std::fs::create_dir_all(dir)?;
    let path = dir.join("micro.wal");
    let mut wal = WalWriter::<i64, 2>::create(&path, 0, FsyncPolicy::Os)?;
    let (mut append_us, mut fsync_us) = (Vec::new(), Vec::new());
    for j in 0..MICRO_BATCHES as u64 {
        let b = move_slice(data, j);
        let span = tr.now();
        let t = Instant::now();
        wal.append(j + 1, b, b)?;
        append_us.push(t.elapsed().as_secs_f64() * 1e6);
        tr.close("wal.append", span, 0, j);
        let span = tr.now();
        let t = Instant::now();
        wal.sync()?;
        fsync_us.push(t.elapsed().as_secs_f64() * 1e6);
        tr.close("wal.fsync", span, 0, j);
    }
    drop(wal);
    let bytes = std::fs::metadata(&path)?.len() as f64;
    std::fs::remove_dir_all(dir)?;
    Ok(WriteParts {
        publish_ms,
        batch_diff_ms,
        append_us,
        fsync_us,
        wal_bytes_per_point: bytes / (MICRO_BATCHES * MOVE_BATCH * 2) as f64,
    })
}

/// Check a quiet server's answers for every pool entry.
fn verify_pools(server: &Server, ex: &Expected) -> (u64, u64) {
    let view = server.view();
    let mut failed = 0;
    for (i, a) in view.knn_batch(&ex.queries, K).iter().enumerate() {
        failed += u64::from(!ex.knn_ok(i, a));
    }
    for (i, c) in view.range_count_batch(&ex.rects).iter().enumerate() {
        failed += u64::from(*c != ex.count[i]);
    }
    for (i, a) in view.range_list_batch(&ex.rects).iter().enumerate() {
        failed += u64::from(stats::hash_points(a) != ex.list[i]);
    }
    ((QUERY_POOL + 2 * RECT_POOL) as u64, failed)
}

fn data_dir(tag: &str) -> PathBuf {
    PathBuf::from("perfbench/out").join(format!("data-{}-{tag}", std::process::id()))
}

/// CPU time per operation, µs, in each window between consecutive CPU
/// readings (ns), given the operations counted in each window.
fn cpu_us_per_op(cpu_ns: &[u64], ops: &[u64]) -> Vec<f64> {
    cpu_ns
        .windows(2)
        .zip(ops)
        .map(|(c, n)| (c[1] - c[0]) as f64 / 1e3 / (*n).max(1) as f64)
        .collect()
}

fn p50(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        stats::median(v)
    }
}

pub fn run(args: &Args, write: bool, tracing: bool) -> Outcome {
    match run_inner(args, write, tracing) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("serve: I/O failure: {e}");
            Outcome {
                attempted: 1,
                failed: 1,
                valid: false,
                checksum: 0,
                notes: vec![format!("I/O failure: {e}")],
                e2e: Vec::new(),
                layers: Vec::new(),
                tracer: Tracer::new(false, 1, Instant::now()),
            }
        }
    }
}

fn run_inner(args: &Args, write: bool, tracing: bool) -> io::Result<Outcome> {
    let data = psi_workloads::uniform::<2>(N, MAX_COORD, args.seed);
    let ex = Expected::new(&data, args.seed);
    let dir = |rep: usize| write.then(|| data_dir(&format!("{}-{rep}", tracing as u8)));

    // Set-up, several times before the timed phases and the rest after
    // them; the last one before them serves the run.
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut mem_mb = 0.0;
    let mut live = None;
    for rep in 0..SETUP_REPS_BEFORE {
        if let Some(old) = live.take() {
            stop(old, dir(rep - 1).as_deref())?;
        }
        // Only the first set-up reads the RSS: its `malloc_trim` returns
        // the heap, so the set-up after it faults in fresh pages.
        let rss0 = if rep == 0 { stats::rss_mib() } else { 0.0 };
        let (started, t) = stats::time_setup(|| start(&data, dir(rep).as_deref()));
        let started = started?;
        setup.push(t);
        if rep == 0 {
            mem_mb = stats::rss_mib() - rss0;
        }
        live = Some(started);
    }
    let (server, net, client) = live.expect("at least one set-up");
    if write && !server.is_durable() {
        return Err(io::Error::other(
            "the server did not open its data directory",
        ));
    }

    let plan = Plan::new(args.seconds, write);
    let stream = client.into_stream();
    let (sent_tx, sent_rx) = mpsc::channel();
    let (back_tx, back_rx) = mpsc::channel();
    let origin = Instant::now();
    let ticks = stats::CpuTicks::now();
    let sender = Sender {
        stream: stream.try_clone()?,
        origin,
        next_id: 1,
        wbuf: Vec::with_capacity(1 << 16),
        tx: sent_tx,
        expected: &ex,
        data: &data,
        reads: 0,
        writes: 0,
        late_ms: Vec::new(),
        encode_ns: Vec::new(),
        probe_ms: Vec::new(),
        probe_cpu_ns: Vec::new(),
        server: &server,
        tracer: Tracer::new(tracing, SPAN_STRIDE, origin),
    };
    let receiver = Receiver {
        stream,
        origin,
        rx: sent_rx,
        back: back_tx,
        server: &server,
        expected: &ex,
        plan,
        tracer: Tracer::new(tracing, SPAN_STRIDE, origin),
        pending: HashMap::new(),
        awaiting: VecDeque::new(),
        acked: 0,
        base_epoch: server.epoch(),
        sender_done: false,
        out: ReceiverOut {
            sat_done: vec![0; plan.sat_windows],
            ..ReceiverOut::default()
        },
    };

    let (s_out, r_out, marks) = std::thread::scope(|s| {
        let named =
            |role: &str| std::thread::Builder::new().name(format!("{}{role}", stats::BENCH_THREAD));
        let snd = named("send")
            .spawn_scoped(s, || sender.run(plan, args.seed, back_rx))
            .expect("the sender thread starts");
        let rcv = named("recv")
            .spawn_scoped(s, || receiver.run())
            .expect("the receiver thread starts");
        // The main thread only samples the coalescer and the program's CPU
        // time at each window boundary, and once more when the threads end.
        let mark = || (server.coalesce_stats(), stats::program_cpu_ns());
        let mut marks = Vec::new();
        let last_phase_mark = plan.fixed_windows + plan.sat_windows;
        'run: for k in 0u64.. {
            let at = Duration::from_nanos(plan.warm_end + k * WINDOW_NS);
            while origin.elapsed() < at {
                if marks.len() > last_phase_mark && snd.is_finished() && rcv.is_finished() {
                    break 'run;
                }
                std::thread::sleep((at - origin.elapsed()).min(Duration::from_millis(20)));
            }
            marks.push(mark());
        }
        marks.push(mark());
        (
            snd.join().expect("the sender thread does not panic"),
            rcv.join().expect("the receiver thread does not panic"),
            marks,
        )
    });
    let steal_pct = stats::CpuTicks::now().steal_pct_since(&ticks);
    let s_out = s_out?;
    let r_out = r_out?;
    let factor = |a: (u64, u64), b: (u64, u64)| {
        let flushes = b.1.saturating_sub(a.1);
        b.0.saturating_sub(a.0) as f64 / flushes.max(1) as f64
    };

    let mut tr = Tracer::new(tracing, SPAN_STRIDE, origin);
    tr.absorb(s_out.tracer);
    if let Some(t) = r_out.tracer {
        tr.absorb(t);
    }
    let mut attempted = r_out.attempted;
    let mut failed = r_out.failed;

    let ladder = if tracing {
        let l = ladder(&server, net.addr(), &ex, &mut tr)?;
        attempted += l.attempted;
        failed += l.failed;
        Some(l)
    } else {
        None
    };
    let parts = if tracing && write {
        Some(write_parts(&data, &data_dir("micro"), &mut tr)?)
    } else {
        None
    };

    // Final state: the live count is conserved and the answers hold.
    server.quiesce();
    attempted += 1;
    if server.view().len() != N {
        failed += 1;
        eprintln!(
            "serve: {} points live after quiesce, expected {N}",
            server.view().len()
        );
    }
    let (a, f) = verify_pools(&server, &ex);
    attempted += a;
    failed += f;
    let protocol_errors = net.protocol_errors();
    let final_epoch = server.epoch();
    net.shutdown();

    let mut recover_s = 0.0;
    if write {
        let server = Arc::into_inner(server).expect("the front end released the server");
        server.shutdown();
        let d = dir(SETUP_REPS_BEFORE - 1).expect("serve-write has a data directory");
        let universe = psi_workloads::universe::<2>(MAX_COORD);
        let t = Instant::now();
        let reopened = PsiServer::new(&[], &universe, config(Some(&d)), factory());
        recover_s = t.elapsed().as_secs_f64();
        attempted += 2;
        if reopened.view().len() != N || reopened.epoch() != final_epoch {
            failed += 1;
            eprintln!(
                "serve: recovered {} points at epoch {}, expected {N} at {final_epoch}",
                reopened.view().len(),
                reopened.epoch()
            );
        }
        if !reopened.is_durable() {
            failed += 1;
        }
        let (a, f) = verify_pools(&reopened, &ex);
        attempted += a;
        failed += f;
        reopened.shutdown();
        let _ = std::fs::remove_dir_all(&d);
    } else {
        drop(server);
    }
    for rep in SETUP_REPS_BEFORE..SETUP_REPS {
        let (started, t) = stats::time_setup(|| start(&data, dir(rep).as_deref()));
        setup.push(t);
        stop(started?, dir(rep).as_deref())?;
    }

    // Metrics.
    let read_order = &r_out.fixed_order;
    let read_sorted = stats::sorted(read_order.clone());
    let write_ms = if write {
        &r_out.write_ms
    } else {
        &s_out.probe_ms
    };
    let write_sorted = stats::sorted(write_ms.clone());
    let late_sorted = stats::sorted(s_out.late_ms.clone());
    let late_p99 = if late_sorted.is_empty() {
        0.0
    } else {
        stats::percentile(&late_sorted, 0.99)
    };
    let tail_ok = stats::supported_tail(read_sorted.len()).is_some_and(|q| q >= 0.99)
        && stats::supported_tail(write_sorted.len()).is_some_and(|q| q >= 0.99);
    let on_time = late_p99 <= LATE_LIMIT_MS;
    if !on_time {
        eprintln!("serve: the generator fell behind (p99 lateness {late_p99:.3} ms)");
    }
    if !tail_ok {
        eprintln!("serve: too few samples for a p99");
    }
    let (fw, sw) = (plan.fixed_windows, plan.sat_windows);
    // The program's CPU time per read in each fixed-rate window, by the
    // reads due in it.
    let mut due_in = vec![0u64; fw];
    for t in &r_out.fixed_due {
        if let Some(n) = due_in.get_mut(plan.window(*t)) {
            *n += 1;
        }
    }
    let cpu_ns: Vec<u64> = marks.iter().map(|m| m.1).collect();
    let read_cpu_us = cpu_us_per_op(&cpu_ns[..=fw], &due_in);
    // The same with 256 in flight, by the reads completed in each window.
    let sat_cpu_us = cpu_us_per_op(&cpu_ns[fw..=fw + sw], &r_out.sat_done);
    let (setup_s, setup_wall_s) = stats::setup_metrics(&setup);
    let e2e = vec![
        setup_s,
        metric("mem_mb", mem_mb, "MiB"),
        metric("read_cpu_us", stats::median(&read_cpu_us), "us"),
        metric(
            "write_cpu_us",
            p50(&s_out.probe_cpu_ns) / 1e3 / (2 * MOVE_BATCH) as f64,
            "us",
        ),
    ];

    let sat_secs = WINDOW_NS as f64 / 1e9;
    let sat_kqps: Vec<f64> = r_out
        .sat_done
        .iter()
        .map(|n| *n as f64 / sat_secs / 1e3)
        .collect();
    let mut layers: Vec<Metric> = vec![
        setup_wall_s,
        metric("read.p50_ms", stats::percentile(&read_sorted, 0.5), "ms"),
        metric("read.p90_ms", stats::percentile(&read_sorted, 0.9), "ms"),
        metric("read.kqps", stats::median(&sat_kqps), "kq/s"),
        metric("read.sat_cpu_us", stats::median(&sat_cpu_us), "us"),
        metric("write.p50_ms", stats::percentile(&write_sorted, 0.5), "ms"),
        metric("write.p90_ms", stats::percentile(&write_sorted, 0.9), "ms"),
        metric(
            "read.p99_ms",
            stats::chunked_p99(read_order, READ_P99_CHUNK),
            "ms",
        ),
        metric("write.sat_p50_ms", p50(&r_out.sat_write_ms), "ms"),
        metric(
            "write.p99_ms",
            stats::chunked_p99(write_ms, stats::P99_CHUNK),
            "ms",
        ),
        metric("host.steal_pct", steal_pct, "%"),
        metric("net.protocol_errors", protocol_errors as f64, "count"),
        metric(
            "coalesce.factor_fixed",
            factor(marks[0].0, marks[fw].0),
            "ratio",
        ),
        metric(
            "coalesce.factor_sat",
            factor(marks[fw].0, marks[fw + sw].0),
            "ratio",
        ),
        metric("net.batch_ack_ms", p50(&r_out.ack_gap_ms), "ms"),
        metric("loadgen.late_p99_ms", late_p99, "ms"),
        metric("loadgen.busy_retries", r_out.busy_retries as f64, "count"),
    ];
    for (k, name) in ["read.knn_p50_ms", "read.count_p50_ms", "read.list_p50_ms"]
        .into_iter()
        .enumerate()
    {
        layers.push(metric(name, p50(&r_out.fixed_ms[k]), "ms"));
    }
    if write {
        layers.push(metric("server.recover_s", recover_s, "s"));
    }
    if tracing {
        layers.push(metric("net.wire.encode_ns", p50(&s_out.encode_ns), "ns"));
        layers.push(metric("net.wire.decode_ns", p50(&r_out.decode_ns), "ns"));
    }
    if let Some(l) = &ladder {
        let (w, c, d, v, s) = (
            p50(&l.wire),
            p50(&l.coalesce),
            p50(&l.direct),
            p50(&l.view),
            p50(&l.snapshot),
        );
        layers.push(metric("net.self_us", (w - c) / 1e3, "us"));
        layers.push(metric("coalesce.self_us", (c - d) / 1e3, "us"));
        layers.push(metric("router.pin_us", (d - v) / 1e3, "us"));
        layers.push(metric("router.self_us", (v - s) / 1e3, "us"));
        layers.push(metric("porth.query_us", s / 1e3, "us"));
        layers.push(metric(
            "porth.nodes_visited_per_query",
            l.nodes_per_query,
            "count",
        ));
    }
    if let Some(p) = &parts {
        let publish = stats::sorted(p.publish_ms.clone());
        let (append, fsync) = (p50(&p.append_us), p50(&p.fsync_us));
        layers.push(metric(
            "shard.publish_p50_ms",
            stats::percentile(&publish, 0.5),
            "ms",
        ));
        layers.push(metric(
            "shard.publish_p99_ms",
            stats::percentile(&publish, 0.99),
            "ms",
        ));
        layers.push(metric("porth.batch_diff_ms", p50(&p.batch_diff_ms), "ms"));
        layers.push(metric("wal.append_us", append, "us"));
        layers.push(metric("wal.fsync_us", fsync, "us"));
        layers.push(metric("wal.bytes_per_point", p.wal_bytes_per_point, "B"));
        let visible = stats::percentile(&write_sorted, 0.5);
        layers.push(metric(
            "server.queue_wait_ms",
            visible - (append + fsync) / 1e3 - stats::percentile(&publish, 0.5),
            "ms",
        ));
    }

    let mut notes = vec![
        format!(
            "family={FAMILY} shards={SHARDS} n={N} coalesce_max_batch={COALESCE_MAX_BATCH} \
             durable={write} read_rate={READ_RATE} window={WINDOW}"
        ),
        format!(
            "fixed-rate reads={} saturation reads={} writes timed={} write-alone batches={} \
             busy retries={}",
            read_sorted.len(),
            r_out.sat_done.iter().sum::<u64>(),
            write_sorted.len(),
            s_out.probe_ms.len(),
            r_out.busy_retries
        ),
        format!(
            "generator p99 lateness={late_p99:.4} ms (limit {LATE_LIMIT_MS} ms) \
             coalesce factor fixed={:.2} saturated={:.2}",
            factor(marks[0].0, marks[fw].0),
            factor(marks[fw].0, marks[fw + sw].0)
        ),
    ];
    if write {
        notes.push(format!(
            "recovered in {recover_s:.4} s at epoch {final_epoch}"
        ));
    }
    Ok(Outcome {
        attempted,
        failed,
        valid: on_time && tail_ok,
        checksum: ex.checksum(),
        notes,
        e2e,
        layers,
        tracer: tr,
    })
}
