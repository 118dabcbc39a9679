//! The thread-per-connection transport: a blocking accept loop that hands
//! each connection to its own small-stack OS thread running the blocking
//! frame loop. Per-connection state is a thread plus two reusable buffers,
//! which is comfortable into the hundreds of connections; past that the
//! evented transport takes over (see `event_loop`).

use crate::dispatch::{dispatch, encode_frame, record_latency, slow_shape, Dispatch};
use crate::obs::net_obs;
use crate::wire::{
    check_hello, decode_request, encode_reply, read_frame, Reply, WireCoord, WireError,
};
use crate::{Ctx, NetStats};
use psi_server::ServeCoord;
use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Stack size for connection threads. The blocking frame loop's deep point
/// is a batched query through the coalescer (the flusher does the real work
/// on its own stack), so connection threads stay shallow and 128 KiB keeps
/// a thousand of them affordable.
const CONN_STACK: usize = 128 * 1024;

/// How often the accept loop polls the stop flag while idle.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Accept loop: runs until `stop`, then disconnects every live client and
/// joins their threads.
pub(crate) fn run_threaded<T: ServeCoord + WireCoord, const D: usize>(
    listener: TcpListener,
    ctx: Ctx<T, D>,
    stop: Arc<AtomicBool>,
    stats: Arc<NetStats>,
) {
    listener
        .set_nonblocking(true)
        .expect("listener nonblocking");
    // Registry of accepted streams (cloned handles) so shutdown can unblock
    // reads in flight, plus the worker joins.
    let registry: Arc<Mutex<HashMap<u64, TcpStream>>> = Arc::new(Mutex::new(HashMap::new()));
    let next_id = AtomicU64::new(0);
    let mut workers = Vec::new();

    while !stop.load(Ordering::Relaxed) {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
                continue;
            }
            // EMFILE, ECONNABORTED and friends: back off and keep serving
            // the connections we already have.
            Err(_) => {
                std::thread::sleep(ACCEPT_POLL);
                continue;
            }
        };
        let _ = stream.set_nodelay(true);
        let id = next_id.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            registry.lock().unwrap().insert(id, clone);
        }
        stats.accepted.fetch_add(1, Ordering::Relaxed);
        stats.open.fetch_add(1, Ordering::Relaxed);
        net_obs().open.inc();
        let ctx = ctx.clone();
        let worker_stats = Arc::clone(&stats);
        let worker_registry = Arc::clone(&registry);
        let spawned = std::thread::Builder::new()
            .name("psi-net-conn".to_string())
            .stack_size(CONN_STACK)
            .spawn(move || {
                let _ = serve_conn(stream, &ctx, &worker_stats);
                worker_registry.lock().unwrap().remove(&id);
                worker_stats.open.fetch_sub(1, Ordering::Relaxed);
                net_obs().open.dec();
            });
        match spawned {
            Ok(h) => workers.push(h),
            Err(_) => {
                // Thread spawn failed (resource exhaustion): drop the
                // connection instead of the server.
                registry.lock().unwrap().remove(&id);
                stats.open.fetch_sub(1, Ordering::Relaxed);
                net_obs().open.dec();
            }
        }
    }

    // Unblock every worker parked in a read, then join them all.
    for (_, s) in registry.lock().unwrap().drain() {
        let _ = s.shutdown(Shutdown::Both);
    }
    for w in workers {
        let _ = w.join();
    }
}

/// The blocking per-connection frame loop, shared protocol semantics with
/// the evented transport: hello first, then pipelined requests; protocol
/// errors answer with one error frame and close; I/O errors and mid-frame
/// EOFs close silently.
fn serve_conn<T: ServeCoord + WireCoord, const D: usize>(
    mut stream: TcpStream,
    ctx: &Ctx<T, D>,
    stats: &NetStats,
) -> io::Result<()> {
    let mut payload = Vec::new();
    let mut out = Vec::new();
    let mut hello_done = false;
    loop {
        match read_frame(&mut stream, &mut payload) {
            Ok(true) => {}
            Ok(false) => return Ok(()), // clean EOF between frames
            Err(e) => {
                if e.kind() == io::ErrorKind::InvalidData {
                    // Out-of-bounds length prefix: the one framing error we
                    // can still answer before closing.
                    stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    send_error::<T, D>(&mut stream, &mut out, WireError::BadLength(0).code(), &e);
                }
                return Err(e);
            }
        }
        let t0 = std::time::Instant::now();
        let (req_id, req) = match decode_request::<T, D>(&payload) {
            Ok(ok) => ok,
            Err(e) => {
                stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                send_error::<T, D>(&mut stream, &mut out, e.code(), &e);
                return Ok(());
            }
        };
        let opcode = req.opcode();
        net_obs().frame_in(opcode);
        if !hello_done {
            let reply = check_hello(&req, ctx.shards);
            let failed = reply.is_err();
            out.clear();
            encode_frame(&reply.unwrap_or_else(|e| e), opcode, req_id, &mut out);
            stream.write_all(&out)?;
            if failed {
                stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
            hello_done = true;
            continue;
        }
        let shape = slow_shape(&req);
        // Blocking on the coalescer is exactly right here: the thread *is*
        // the connection, and a parked thread is how the flusher
        // accumulates its batch.
        let reply = match dispatch(ctx, req) {
            Dispatch::Reply(reply) => reply,
            Dispatch::Query(query) => ctx.client.query(query).into(),
        };
        out.clear();
        encode_frame(&reply, opcode, req_id, &mut out);
        stream.write_all(&out)?;
        record_latency(opcode, t0, shape);
    }
}

fn send_error<T: WireCoord, const D: usize>(
    stream: &mut TcpStream,
    out: &mut Vec<u8>,
    code: u16,
    err: &dyn std::fmt::Display,
) {
    let reply: Reply<T, D> = Reply::Error {
        code,
        message: err.to_string(),
    };
    net_obs().count_reply(0, &reply);
    out.clear();
    encode_reply(&reply, 0, 0, out).expect("error frames fit one frame");
    let _ = stream.write_all(out);
}
