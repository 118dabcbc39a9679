//! What both transports do with a decoded request once the hello is done:
//! [`dispatch`] answers the control ops inline and turns the three query
//! ops into a [`Query`] for the coalescer; [`encode_frame`] encodes every
//! reply the same way; [`record_latency`] closes the request's metrics.

use crate::obs::{net_obs, op_name};
use crate::wire::{check_hello, encode_reply, Reply, Request, WireCoord, ERR_BUSY, ERR_TOO_LARGE};
use crate::Ctx;
use psi_server::{Op, Query, ServeCoord};
use std::time::Instant;

/// Where a post-hello request goes.
pub(crate) enum Dispatch<T: WireCoord, const D: usize> {
    /// Answered on the spot: hello, epoch bounds, stats, apply-batch.
    Reply(Reply<T, D>),
    /// Answered by the coalescer; its [`psi_server::Answer`] converts into
    /// the reply.
    Query(Query<T, D>),
}

/// Route one post-hello request (see [`Dispatch`]).
pub(crate) fn dispatch<T: ServeCoord + WireCoord, const D: usize>(
    ctx: &Ctx<T, D>,
    req: Request<T, D>,
) -> Dispatch<T, D> {
    let (op, at) = match req {
        Request::Knn { q, k, at } => (Op::Knn(q, k as usize), at),
        Request::RangeCount { rect, at } => (Op::RangeCount(rect), at),
        Request::RangeList { rect, at } => (Op::RangeList(rect), at),
        // A repeated hello is answered idempotently (harmless, and it lets
        // clients re-verify the shape on a pooled connection).
        Request::Hello { .. } => {
            let (Ok(reply) | Err(reply)) = check_hello(&req, ctx.shards);
            return Dispatch::Reply(reply);
        }
        // One mutex-guarded peek at the history log.
        Request::EpochBounds => {
            return Dispatch::Reply(Reply::EpochBounds(ctx.server.router().epoch_bounds()))
        }
        // Collection walks the registry under its mutex, but never touches
        // the serving path.
        Request::Stats => {
            return Dispatch::Reply(Reply::Stats {
                version: psi_obs::SNAPSHOT_VERSION,
                text: psi_obs::render_prometheus(),
            })
        }
        // Never blocks: a full writer queue is the retryable ERR_BUSY.
        Request::ApplyBatch { delete, insert } => {
            return Dispatch::Reply(match ctx.server.try_submit(delete, insert) {
                Ok(()) => Reply::BatchOk,
                Err(_) => Reply::Error {
                    code: ERR_BUSY,
                    message: "update queue full, retry".to_string(),
                },
            })
        }
    };
    Dispatch::Query(Query { op, at })
}

/// Append `reply`'s frame to `out` and count it. A reply that outgrows the
/// frame cap (e.g. a huge range list) is replaced by a typed
/// `ERR_TOO_LARGE` error, so the client still gets an answer for `req_id`
/// and the connection stays open.
pub(crate) fn encode_frame<T: WireCoord, const D: usize>(
    reply: &Reply<T, D>,
    opcode: u8,
    req_id: u64,
    out: &mut Vec<u8>,
) {
    if encode_reply(reply, opcode, req_id, out).is_ok() {
        net_obs().count_reply(opcode, reply);
        return;
    }
    let substitute: Reply<T, D> = Reply::Error {
        code: ERR_TOO_LARGE,
        message: "reply exceeds the frame cap; narrow the query".to_string(),
    };
    encode_reply(&substitute, opcode, req_id, out).expect("error frames fit one frame");
    net_obs().count_reply(opcode, &substitute);
}

/// The request's slow-query-log shape, built only while the log is enabled
/// (one relaxed load): enough detail to reproduce the query's cost class
/// (k, epoch pin, batch sizes) without logging payloads.
pub(crate) fn slow_shape<T: WireCoord, const D: usize>(req: &Request<T, D>) -> Option<String> {
    if psi_obs::slowlog::threshold_ns() == 0 {
        return None;
    }
    let pin = |at: &Option<u64>| at.map_or(String::new(), |e| format!(" at={e}"));
    Some(match req {
        Request::Hello { .. } => "hello".to_string(),
        Request::Knn { k, at, .. } => format!("k={k}{}", pin(at)),
        Request::RangeCount { at, .. } | Request::RangeList { at, .. } => {
            format!("rect{}", pin(at))
        }
        Request::EpochBounds => "epoch_bounds".to_string(),
        Request::Stats => "stats".to_string(),
        Request::ApplyBatch { delete, insert } => {
            format!("del={} ins={}", delete.len(), insert.len())
        }
    })
}

/// Close a request's metrics at reply hand-off: its decode-to-hand-off
/// latency, and a slow-log entry if it has a shape and passed the
/// threshold.
pub(crate) fn record_latency(opcode: u8, t0: Instant, shape: Option<String>) {
    let dt = t0.elapsed();
    net_obs().request_latency(opcode).record_duration(dt);
    if let Some(shape) = shape {
        psi_obs::slowlog::observe(op_name(opcode), dt.as_nanos() as u64, || shape);
    }
}
