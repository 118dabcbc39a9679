//! A blocking wire-protocol client.
//!
//! [`WireClient`] owns one TCP connection: `connect` performs the hello
//! exchange, after which every read is one [`WireClient::query`] round
//! trip — the server's own [`Query`] in, its [`Answer`] out, time travel
//! included (an evicted epoch is [`Answer::EpochGone`], not an I/O error).
//! `knn`, `range_count` and `range_list` are thin wrappers over it. For
//! pipelined use — the fan-out load generator keeps one request in flight
//! on each of thousands of connections — `send`/`recv` split the round
//! trip.
//!
//! Through `query` the client also implements [`psi_server::QueryClient`],
//! so `psi_server`'s closed-loop load generator (and its conservation
//! checks) runs over real sockets exactly as it runs in-process.

use crate::wire::{
    decode_reply, encode_request, read_frame, Reply, Request, WireCoord, ERR_BUSY, ERR_EPOCH,
    MAX_FRAME, PAYLOAD_HEADER,
};
use psi_geometry::{Point, Rect};
use psi_server::{Answer, Query, QueryClient, ServeCoord};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};

/// One hello-completed protocol connection.
pub struct WireClient<T: WireCoord, const D: usize> {
    stream: TcpStream,
    next_id: u64,
    wbuf: Vec<u8>,
    payload: Vec<u8>,
    /// Shard count the server reported in hello.
    shards: u32,
    _shape: std::marker::PhantomData<fn() -> Point<T, D>>,
}

fn bad_reply(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

fn server_error(code: u16, message: &str) -> io::Error {
    io::Error::other(format!("server error {code}: {message}"))
}

impl<T: WireCoord, const D: usize> WireClient<T, D> {
    /// Connect and complete the hello exchange. Fails if the server's
    /// coordinate type, dimensionality or protocol version differ.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let mut client = WireClient {
            stream,
            next_id: 0,
            wbuf: Vec::new(),
            payload: Vec::new(),
            shards: 0,
            _shape: std::marker::PhantomData,
        };
        match client.call(&Request::hello())? {
            Reply::HelloOk { shards, .. } => {
                client.shards = shards;
                Ok(client)
            }
            Reply::Error { code, message } => Err(io::Error::other(format!(
                "server rejected hello (code {code}): {message}"
            ))),
            _ => Err(bad_reply("hello answered with a non-hello reply")),
        }
    }

    /// Shard count the server reported during hello.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Send one request without waiting for its reply; returns the request
    /// id the matching reply will echo. Fails with `InvalidInput` — before
    /// any bytes hit the socket — when the request body would exceed the
    /// frame cap ([`MAX_FRAME`]); split such batches instead (see
    /// [`WireClient::apply_batch`], which chunks automatically).
    pub fn send(&mut self, req: &Request<T, D>) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        self.wbuf.clear();
        encode_request(req, id, &mut self.wbuf)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        self.stream.write_all(&self.wbuf)?;
        Ok(id)
    }

    /// Receive the next reply frame.
    pub fn recv(&mut self) -> io::Result<(u64, Reply<T, D>)> {
        if !read_frame(&mut self.stream, &mut self.payload)? {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        decode_reply(&self.payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// One blocking round trip.
    pub fn call(&mut self, req: &Request<T, D>) -> io::Result<Reply<T, D>> {
        let id = self.send(req)?;
        let (got, reply) = self.recv()?;
        if got != id {
            return Err(bad_reply("reply id does not match the request in flight"));
        }
        Ok(reply)
    }

    /// One round trip whose error frames become `Err`.
    fn call_ok(&mut self, req: Request<T, D>) -> io::Result<Reply<T, D>> {
        match self.call(&req)? {
            Reply::Error { code, message } => Err(server_error(code, &message)),
            ok => Ok(ok),
        }
    }

    /// Answer one query on the server. An [`ERR_EPOCH`] reply — the pinned
    /// epoch is outside the server's history window — is
    /// [`Answer::EpochGone`]; the connection stays usable either way.
    pub fn query(&mut self, query: Query<T, D>) -> io::Result<Answer<T, D>> {
        match self.call(&Request::from(query))? {
            Reply::Points(p) => Ok(Answer::Points(p)),
            Reply::Count(c) => Ok(Answer::Count(c as usize)),
            Reply::Error { code, .. } if code == ERR_EPOCH => Ok(Answer::EpochGone),
            Reply::Error { code, message } => Err(server_error(code, &message)),
            _ => Err(bad_reply("query answered with a non-query reply")),
        }
    }

    /// The `k` nearest stored neighbours of `q`, closest first.
    pub fn knn(&mut self, q: &Point<T, D>, k: usize) -> io::Result<Vec<Point<T, D>>> {
        (self.query(Query::knn(*q, k))?.points())
            .ok_or_else(|| bad_reply("knn answered with a non-points reply"))
    }

    /// Number of stored points in the closed box.
    pub fn range_count(&mut self, rect: &Rect<T, D>) -> io::Result<usize> {
        (self.query(Query::range_count(*rect))?.count())
            .ok_or_else(|| bad_reply("range_count answered with a non-count reply"))
    }

    /// The stored points in the closed box (shard order).
    pub fn range_list(&mut self, rect: &Rect<T, D>) -> io::Result<Vec<Point<T, D>>> {
        (self.query(Query::range_list(*rect))?.points())
            .ok_or_else(|| bad_reply("range_list answered with a non-points reply"))
    }

    /// The `(oldest, newest)` epochs the server can still answer pinned
    /// queries for, or `None` while the server retains no history (single
    /// snapshot mode). `newest` is the currently published epoch, so this
    /// doubles as a cheap "what epoch are you at" probe.
    pub fn epoch_bounds(&mut self) -> io::Result<Option<(u64, u64)>> {
        match self.call_ok(Request::EpochBounds)? {
            Reply::EpochBounds(b) => Ok(b),
            _ => Err(bad_reply("epoch_bounds answered with an unexpected reply")),
        }
    }

    /// A live metrics snapshot of the serving process: the snapshot schema
    /// version plus the Prometheus-style text rendering of every metric the
    /// server has registered.
    pub fn stats(&mut self) -> io::Result<(u32, String)> {
        match self.call_ok(Request::Stats)? {
            Reply::Stats { version, text } => Ok((version, text)),
            _ => Err(bad_reply("stats answered with a non-stats reply")),
        }
    }

    /// Publish one update batch (deletions before insertions). Retries
    /// [`ERR_BUSY`] by spinning on the server's back-pressure signal; any
    /// other error is fatal for the connection.
    ///
    /// Batches too large for one wire frame are split into several
    /// `ApplyBatch` frames — all deletion chunks first, then all insertion
    /// chunks, preserving delete-before-insert semantics. The server
    /// publishes each frame as its own epoch, so an oversized batch lands
    /// over a handful of epochs instead of failing to encode.
    pub fn apply_batch(
        &mut self,
        delete: Vec<Point<T, D>>,
        insert: Vec<Point<T, D>>,
    ) -> io::Result<()> {
        // Points one frame can carry: coordinates are 8 wire bytes each, and
        // the payload header plus the two point counts ride along under
        // MAX_FRAME.
        let cap = (MAX_FRAME - PAYLOAD_HEADER - 16) / (D * 8);
        if delete.len() + insert.len() <= cap {
            return self.apply_one(delete, insert);
        }
        for chunk in delete.chunks(cap) {
            self.apply_one(chunk.to_vec(), Vec::new())?;
        }
        for chunk in insert.chunks(cap) {
            self.apply_one(Vec::new(), chunk.to_vec())?;
        }
        Ok(())
    }

    fn apply_one(&mut self, delete: Vec<Point<T, D>>, insert: Vec<Point<T, D>>) -> io::Result<()> {
        let req = Request::ApplyBatch { delete, insert };
        loop {
            match self.call(&req)? {
                Reply::BatchOk => return Ok(()),
                Reply::Error { code, .. } if code == ERR_BUSY => {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                Reply::Error { code, message } => return Err(server_error(code, &message)),
                _ => return Err(bad_reply("apply_batch answered with an unexpected reply")),
            }
        }
    }

    /// Surrender the underlying stream (tests use this to push malformed
    /// bytes at a server over an already-helloed connection).
    pub fn into_stream(self) -> TcpStream {
        self.stream
    }
}

impl<T: WireCoord + ServeCoord, const D: usize> QueryClient<T, D> for WireClient<T, D> {
    fn query(&mut self, query: Query<T, D>) -> Answer<T, D> {
        WireClient::query(self, query).expect("wire client query I/O")
    }
}
