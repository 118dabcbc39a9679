//! The evented transport: one reactor thread multiplexing every connection
//! over epoll, with a per-connection read/write buffer state machine.
//!
//! The reactor never blocks on anything but `epoll_wait`:
//!
//! * **reads** drain the socket into the connection's read buffer, then peel
//!   complete frames off it (`wire::frame_size`); partial frames simply stay
//!   buffered until more bytes arrive,
//! * **query frames** are enqueued to the coalescer with a callback
//!   ([`psi_server::CoalesceHandle::submit`]) — the flusher thread encodes
//!   the reply, drops it into the shared outbox, and kicks the
//!   reactor through a wakeup socketpair; the reactor routes the bytes to
//!   the connection's write buffer on its next iteration,
//! * **writes** flush the write buffer until the socket would block, arming
//!   `EPOLLOUT` only while bytes remain (level-triggered, so interest must
//!   be explicit or the loop would spin).
//!
//! Connections live in a slab indexed by the epoll token. Each slot carries
//! a **generation** that bumps on close: a coalescer callback for a
//! connection that died mid-flight delivers into the outbox tagged with the
//! old generation and is discarded on arrival, never mis-delivered to a
//! reused slot. This is what makes abrupt client disconnects (including the
//! malformed-input tests' mid-frame drops) leak-free: the flusher still
//! answers every queued request; the answers for dead connections just fall
//! on the floor.

use crate::dispatch::{dispatch, encode_frame, record_latency, slow_shape, Dispatch};
use crate::epoll::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::obs::net_obs;
use crate::wire::{
    check_hello, decode_request, frame_size, Reply, Request, WireCoord, WireError, LEN_PREFIX,
};
use crate::{Ctx, NetStats};
use psi_server::ServeCoord;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const LISTENER_TOKEN: u64 = u64::MAX;
const WAKE_TOKEN: u64 = u64::MAX - 1;
/// Events decoded per `epoll_wait`.
const EVENT_BATCH: usize = 1024;
/// Socket read chunk.
const READ_CHUNK: usize = 64 * 1024;
/// A connection whose client stops reading gets this much buffered reply
/// before the reactor gives up on it.
const MAX_WBUF: usize = 1 << 26;

/// Replies encoded off-thread (by coalescer callbacks), awaiting routing
/// into their connection's write buffer: `(slot, generation, frame bytes)`.
type Outbox = Arc<Mutex<Vec<(usize, u64, Vec<u8>)>>>;

struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    /// Flushed-up-to offset into `wbuf`.
    wpos: usize,
    hello_done: bool,
    /// An error frame is queued; close once `wbuf` drains.
    closing: bool,
    /// Current epoll interest mask.
    interest: u32,
}

struct Reactor<T: ServeCoord + WireCoord, const D: usize> {
    epoll: Epoll,
    ctx: Ctx<T, D>,
    stats: Arc<NetStats>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Per-slot generation, bumped on close; outlives the slot's occupants.
    gens: Vec<u64>,
    outbox: Outbox,
    wake_tx: Arc<UnixStream>,
}

/// Reactor entry point: runs until `stop`, then drops every connection.
pub(crate) fn run_evented<T: ServeCoord + WireCoord, const D: usize>(
    listener: TcpListener,
    ctx: Ctx<T, D>,
    stop: Arc<AtomicBool>,
    stats: Arc<NetStats>,
    wake_rx: UnixStream,
    wake_tx: UnixStream,
) {
    listener
        .set_nonblocking(true)
        .expect("listener nonblocking");
    wake_rx
        .set_nonblocking(true)
        .expect("wake socket nonblocking");
    let epoll = Epoll::new().expect("epoll_create1");
    epoll
        .add(listener.as_raw_fd(), EPOLLIN, LISTENER_TOKEN)
        .expect("register listener");
    epoll
        .add(wake_rx.as_raw_fd(), EPOLLIN, WAKE_TOKEN)
        .expect("register wakeup");

    let mut r = Reactor {
        epoll,
        ctx,
        stats,
        conns: Vec::new(),
        free: Vec::new(),
        gens: Vec::new(),
        outbox: Arc::new(Mutex::new(Vec::new())),
        wake_tx: Arc::new(wake_tx),
    };
    let mut events = vec![EpollEvent { events: 0, data: 0 }; EVENT_BATCH];

    while !stop.load(Ordering::Relaxed) {
        let n = match r.epoll.wait(&mut events, 100) {
            Ok(n) => n,
            Err(_) => break,
        };
        for ev in &events[..n] {
            let (mask, token) = (ev.events, ev.data);
            match token {
                LISTENER_TOKEN => r.accept_ready(&listener),
                WAKE_TOKEN => {
                    drain_wake(&wake_rx);
                    r.drain_outbox();
                }
                slot => {
                    let idx = slot as usize;
                    if r.conns.get(idx).is_none_or(|c| c.is_none()) {
                        continue; // closed earlier in this same event batch
                    }
                    if mask & (EPOLLERR | EPOLLHUP) != 0 {
                        r.close(idx);
                        continue;
                    }
                    if mask & (EPOLLIN | EPOLLRDHUP) != 0 {
                        r.read_ready(idx);
                    }
                    if mask & EPOLLOUT != 0 && r.conns[idx].is_some() {
                        r.write_ready(idx);
                    }
                }
            }
        }
    }

    for idx in 0..r.conns.len() {
        if r.conns[idx].is_some() {
            r.close(idx);
        }
    }
}

fn drain_wake(wake_rx: &UnixStream) {
    let mut sink = [0u8; 256];
    loop {
        match (&*wake_rx).read(&mut sink) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return, // WouldBlock: fully drained
        }
    }
}

impl<T: ServeCoord + WireCoord, const D: usize> Reactor<T, D> {
    fn accept_ready(&mut self, listener: &TcpListener) {
        loop {
            let stream = match listener.accept() {
                Ok((s, _)) => s,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return, // transient (ECONNABORTED, EMFILE): retry on next readiness
            };
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let idx = match self.free.pop() {
                Some(i) => i,
                None => {
                    self.conns.push(None);
                    self.gens.push(0);
                    self.conns.len() - 1
                }
            };
            let interest = EPOLLIN | EPOLLRDHUP;
            if self
                .epoll
                .add(stream.as_raw_fd(), interest, idx as u64)
                .is_err()
            {
                self.free.push(idx);
                continue;
            }
            self.conns[idx] = Some(Conn {
                stream,
                rbuf: Vec::new(),
                wbuf: Vec::new(),
                wpos: 0,
                hello_done: false,
                closing: false,
                interest,
            });
            self.stats.accepted.fetch_add(1, Ordering::Relaxed);
            self.stats.open.fetch_add(1, Ordering::Relaxed);
            net_obs().open.inc();
        }
    }

    fn close(&mut self, idx: usize) {
        if let Some(conn) = self.conns[idx].take() {
            self.epoll.delete(conn.stream.as_raw_fd());
            self.gens[idx] += 1; // invalidate in-flight callbacks
            self.free.push(idx);
            self.stats.open.fetch_sub(1, Ordering::Relaxed);
            net_obs().open.dec();
        }
    }

    /// Route off-thread-encoded replies into their connections' write
    /// buffers, discarding any whose connection died (generation mismatch).
    fn drain_outbox(&mut self) {
        let ready = std::mem::take(&mut *self.outbox.lock().unwrap());
        let mut touched: Vec<usize> = Vec::new();
        for (idx, gen, bytes) in ready {
            if self.gens.get(idx) == Some(&gen) {
                if let Some(conn) = self.conns[idx].as_mut() {
                    conn.wbuf.extend_from_slice(&bytes);
                    if !touched.contains(&idx) {
                        touched.push(idx);
                    }
                }
            }
        }
        for idx in touched {
            self.write_ready(idx);
        }
    }

    fn read_ready(&mut self, idx: usize) {
        let mut chunk = [0u8; READ_CHUNK];
        let mut eof = false;
        {
            let conn = self.conns[idx].as_mut().expect("read on live conn");
            if conn.closing {
                // Already poisoned: swallow input until the error frame
                // flushes and the close lands.
                loop {
                    match conn.stream.read(&mut chunk) {
                        Ok(0) => return self.close(idx),
                        Ok(_) => {}
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                        Err(_) => return self.close(idx),
                    }
                }
            }
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        eof = true;
                        break;
                    }
                    Ok(n) => conn.rbuf.extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(_) => return self.close(idx),
                }
            }
        }

        // Peel complete frames into owned requests, then handle them with
        // the connection borrow released (handlers write into `wbuf` and
        // enqueue to the coalescer). Each frame's decode instant rides along
        // so request latency covers decode to reply hand-off.
        let mut parsed: Vec<(u64, Request<T, D>, Instant)> = Vec::new();
        let mut poison: Option<WireError> = None;
        {
            let conn = self.conns[idx].as_mut().expect("parse on live conn");
            let mut pos = 0;
            loop {
                match frame_size(&conn.rbuf[pos..]) {
                    Ok(Some(total)) => {
                        match decode_request::<T, D>(&conn.rbuf[pos + LEN_PREFIX..pos + total]) {
                            Ok((req_id, req)) => {
                                net_obs().frame_in(req.opcode());
                                parsed.push((req_id, req, Instant::now()));
                            }
                            Err(e) => {
                                poison = Some(e);
                                break;
                            }
                        }
                        pos += total;
                    }
                    Ok(None) => break,
                    Err(e) => {
                        poison = Some(e);
                        break;
                    }
                }
            }
            conn.rbuf.drain(..pos);
        }

        for (req_id, req, t0) in parsed {
            self.handle_request(idx, req_id, req, t0);
            if self.conns[idx].as_ref().is_none_or(|c| c.closing) {
                break;
            }
        }
        if self.conns[idx].is_none() {
            return;
        }
        if let Some(e) = poison {
            self.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
            self.queue_reply(
                idx,
                &Reply::Error {
                    code: e.code(),
                    message: e.to_string(),
                },
                0,
                0,
            );
            self.poison(idx);
        }
        if eof {
            // Clean or mid-frame EOF: either way nothing more will arrive.
            // Flush what's queued, then drop. (A client that half-closed
            // after pipelining still gets queued replies lost — closed-loop
            // clients never half-close with requests in flight.)
            self.close(idx);
            return;
        }
        self.flush(idx);
    }

    /// Mark the connection as dying: stop reading, close once flushed.
    fn poison(&mut self, idx: usize) {
        if let Some(conn) = self.conns[idx].as_mut() {
            conn.closing = true;
            let _ = conn.stream.shutdown(Shutdown::Read);
        }
    }

    fn handle_request(&mut self, idx: usize, req_id: u64, req: Request<T, D>, t0: Instant) {
        let opcode = req.opcode();
        if !self.conns[idx].as_ref().expect("live conn").hello_done {
            let hello = check_hello(&req, self.ctx.shards);
            let failed = hello.is_err();
            self.queue_reply(idx, &hello.unwrap_or_else(|e| e), opcode, req_id);
            record_latency(opcode, t0, None);
            if failed {
                self.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                self.poison(idx);
            } else {
                self.conns[idx].as_mut().expect("live conn").hello_done = true;
            }
            return;
        }
        let shape = slow_shape(&req);
        let query = match dispatch(&self.ctx, req) {
            Dispatch::Reply(reply) => {
                self.queue_reply(idx, &reply, opcode, req_id);
                return record_latency(opcode, t0, shape);
            }
            Dispatch::Query(query) => query,
        };
        let outbox = Arc::clone(&self.outbox);
        let wake = Arc::clone(&self.wake_tx);
        let gen = self.gens[idx];
        self.ctx.client.submit(query, move |answer| {
            let mut bytes = Vec::new();
            encode_frame(&Reply::from(answer), opcode, req_id, &mut bytes);
            // Latency ends at reply hand-off: the flusher finished the
            // query and the encoded frame is on its way to the reactor.
            record_latency(opcode, t0, shape);
            outbox.lock().unwrap().push((idx, gen, bytes));
            // A full wakeup pipe means a kick is already pending.
            let _ = (&*wake).write(&[1]);
        });
    }

    fn queue_reply(&mut self, idx: usize, reply: &Reply<T, D>, opcode: u8, req_id: u64) {
        let conn = self.conns[idx].as_mut().expect("live conn");
        encode_frame(reply, opcode, req_id, &mut conn.wbuf);
    }

    fn write_ready(&mut self, idx: usize) {
        self.flush(idx);
    }

    /// Push buffered bytes out; adjust `EPOLLOUT` interest to match what
    /// remains; complete a pending close once drained.
    fn flush(&mut self, idx: usize) {
        let Some(conn) = self.conns[idx].as_mut() else {
            return;
        };
        while conn.wpos < conn.wbuf.len() {
            match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                Ok(0) => return self.close(idx),
                Ok(n) => conn.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => return self.close(idx),
            }
        }
        if conn.wpos == conn.wbuf.len() {
            conn.wbuf.clear();
            conn.wpos = 0;
            if conn.closing {
                return self.close(idx);
            }
            self.set_interest(idx, EPOLLIN | EPOLLRDHUP);
        } else {
            if conn.wbuf.len() - conn.wpos > MAX_WBUF {
                return self.close(idx); // client stopped reading
            }
            // Reclaim flushed prefix occasionally so the buffer can't creep.
            if conn.wpos > (1 << 20) {
                conn.wbuf.drain(..conn.wpos);
                conn.wpos = 0;
            }
            let base = if conn.closing {
                0
            } else {
                EPOLLIN | EPOLLRDHUP
            };
            self.set_interest(idx, base | EPOLLOUT);
        }
    }

    fn set_interest(&mut self, idx: usize, mask: u32) {
        let Some(conn) = self.conns[idx].as_mut() else {
            return;
        };
        if conn.interest != mask {
            conn.interest = mask;
            if self
                .epoll
                .modify(conn.stream.as_raw_fd(), mask, idx as u64)
                .is_err()
            {
                self.close(idx);
            }
        }
    }
}
