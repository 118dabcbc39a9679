//! ψ-net: the socket front-end for the ψ-serve subsystem.
//!
//! [`psi_server`](psi_server) serves queries to in-process clients through
//! coalescing handles; this crate puts that behind a TCP socket so the
//! serving path can be driven at realistic connection counts. It provides:
//!
//! * [`wire`] — the length-prefixed little-endian binary protocol (one
//!   module, shared verbatim by both sides of the connection),
//! * two server **transports** behind one [`NetServer`] front:
//!   [`Transport::Threaded`] (blocking thread-per-connection, simple and
//!   fine up to a few hundred connections) and [`Transport::Evented`]
//!   (a nonblocking epoll reactor — see [`epoll`] — that multiplexes
//!   thousands of connections onto one thread),
//! * [`client::WireClient`] — a blocking protocol client whose one
//!   [`query`](client::WireClient::query) method speaks the server's
//!   [`Query`](psi_server::Query) / [`Answer`](psi_server::Answer) types,
//!   so it also implements [`psi_server::QueryClient`] and `psi_server`'s
//!   closed-loop load generator can drive real sockets with the same
//!   conservation and shape checks it applies in-process,
//! * [`loadgen`] — a multiplexed fan-out driver for connection counts far
//!   beyond thread-per-client (thousands of connections per worker thread),
//!   with order-independent FNV answer checksums and an in-process replay
//!   to verify socket answers bit-for-bit.
//!
//! Both transports route a decoded request the same way: control ops
//! (hello, epoch bounds, stats, apply-batch) are answered inline, and the
//! three query ops become a [`Query`](psi_server::Query) for the server's
//! [coalescer](psi_server::CoalesceHandle). The evented transport enqueues
//! with a callback so reactor threads never block on the flusher, which is
//! what lets one reactor thread keep thousands of connections in flight
//! while the flusher turns them into large epoch-consistent batches.

pub mod client;
mod dispatch;
pub mod epoll;
mod event_loop;
mod listener;
pub mod loadgen;
mod obs;
pub mod wire;

use psi_server::{CoalesceHandle, PsiServer, ServeCoord};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use wire::WireCoord;

/// How the server multiplexes connections.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Transport {
    /// One blocking OS thread per connection (small stacks). Simple, and
    /// competitive while connection counts stay in the hundreds.
    Threaded,
    /// One reactor thread multiplexing every connection over epoll with
    /// per-connection read/write buffer state machines. The connection-scale
    /// transport: thousands of mostly-idle connections cost buffers, not
    /// stacks.
    Evented,
}

impl Transport {
    /// Parse the scenario/CLI spelling.
    pub fn parse(s: &str) -> Option<Transport> {
        match s {
            "threaded" => Some(Transport::Threaded),
            "evented" => Some(Transport::Evented),
            _ => None,
        }
    }

    /// The scenario/CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            Transport::Threaded => "threaded",
            Transport::Evented => "evented",
        }
    }
}

/// Configuration for [`NetServer::spawn`].
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Connection multiplexing strategy.
    pub transport: Transport,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            transport: Transport::Evented,
        }
    }
}

/// Everything a connection handler needs, cheap to clone into threads.
pub(crate) struct Ctx<T: ServeCoord + WireCoord, const D: usize> {
    pub server: Arc<PsiServer<T, D>>,
    pub client: CoalesceHandle<T, D>,
    pub shards: u32,
}

impl<T: ServeCoord + WireCoord, const D: usize> Clone for Ctx<T, D> {
    fn clone(&self) -> Self {
        Ctx {
            server: Arc::clone(&self.server),
            client: self.client.clone(),
            shards: self.shards,
        }
    }
}

/// Counters shared between the transport threads and the [`NetServer`]
/// handle that outlives them.
#[derive(Default)]
pub(crate) struct NetStats {
    pub open: AtomicUsize,
    pub accepted: AtomicU64,
    /// Frames that failed to decode (protocol errors answered with an
    /// error frame and a close).
    pub protocol_errors: AtomicU64,
}

/// A running socket front-end. Dropping the handle (or calling
/// [`NetServer::shutdown`]) stops accepting, disconnects every client and
/// joins the transport threads.
///
/// Shut the `NetServer` down **before** the [`PsiServer`] it fronts — the
/// transports hold coalescing handles, and a query arriving after the
/// server's flusher stopped would panic the connection's handler.
pub struct NetServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// Evented transport's wakeup writer (kicks the reactor out of
    /// `epoll_wait` so it notices `stop`).
    wake: Option<UnixStream>,
    join: Option<JoinHandle<()>>,
    stats: Arc<NetStats>,
}

impl NetServer {
    /// Bind `addr` (use port 0 for an ephemeral port — the bound address is
    /// [`NetServer::addr`]) and serve `server` over it. The type parameters
    /// fix the connection shape: clients must hello with the matching
    /// coordinate tag and dimensionality.
    pub fn spawn<T: ServeCoord + WireCoord, const D: usize>(
        server: Arc<PsiServer<T, D>>,
        addr: SocketAddr,
        cfg: NetConfig,
    ) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let ctx = Ctx {
            client: server.client(),
            shards: server.router().shard_count() as u32,
            server,
        };
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(NetStats::default());
        let (wake, join) = match cfg.transport {
            Transport::Threaded => {
                let stop = Arc::clone(&stop);
                let stats = Arc::clone(&stats);
                let join = std::thread::Builder::new()
                    .name("psi-net-accept".to_string())
                    .spawn(move || listener::run_threaded(listener, ctx, stop, stats))?;
                (None, join)
            }
            Transport::Evented => {
                let (wake_tx, wake_rx) = UnixStream::pair()?;
                wake_tx.set_nonblocking(true)?;
                let stop = Arc::clone(&stop);
                let stats = Arc::clone(&stats);
                let wake_for_loop = wake_tx.try_clone()?;
                let join = std::thread::Builder::new()
                    .name("psi-net-reactor".to_string())
                    .spawn(move || {
                        event_loop::run_evented(listener, ctx, stop, stats, wake_rx, wake_for_loop)
                    })?;
                (Some(wake_tx), join)
            }
        };
        Ok(NetServer {
            addr: local,
            stop,
            wake,
            join: Some(join),
            stats,
        })
    }

    /// The bound listening address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently open.
    pub fn open_connections(&self) -> usize {
        self.stats.open.load(Ordering::Relaxed)
    }

    /// Connections accepted over the server's lifetime.
    pub fn accepted(&self) -> u64 {
        self.stats.accepted.load(Ordering::Relaxed)
    }

    /// Frames rejected as protocol errors over the server's lifetime.
    pub fn protocol_errors(&self) -> u64 {
        self.stats.protocol_errors.load(Ordering::Relaxed)
    }

    /// Stop accepting, disconnect all clients, join the transport threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(wake) = &self.wake {
            use std::io::Write;
            // The reactor drains the wakeup socket every iteration; if the
            // pipe is full a wakeup is already pending, so WouldBlock is
            // success here.
            let _ = (&*wake).write(&[1]);
        }
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        if self.join.is_some() {
            self.stop_and_join();
        }
    }
}

/// The loopback address with an OS-assigned ephemeral port — the usual
/// `spawn` target for tests and benchmarks.
pub fn loopback() -> SocketAddr {
    "127.0.0.1:0".parse().expect("loopback literal parses")
}

/// Best-effort probe of the process fd headroom, used by benchmarks to clamp
/// connection sweeps: counts how many more sockets this process could open
/// right now by reading `RLIMIT_NOFILE` via the only portable std signal we
/// have — trying is authoritative, so this opens (and immediately closes) no
/// sockets and just reports the soft limit minus a safety margin.
pub fn fd_budget() -> usize {
    // /proc is the dependency-free way to read the soft limit on Linux.
    let soft = std::fs::read_to_string("/proc/self/limits")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Max open files"))?
                .split_whitespace()
                .nth(3)?
                .parse::<usize>()
                .ok()
        })
        .unwrap_or(1024);
    soft.saturating_sub(64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transport_names_round_trip() {
        for t in [Transport::Threaded, Transport::Evented] {
            assert_eq!(Transport::parse(t.name()), Some(t));
        }
        assert_eq!(Transport::parse("osmotic"), None);
    }

    #[test]
    fn fd_budget_is_sane() {
        let b = fd_budget();
        assert!(b >= 64, "fd budget {b} implausibly small");
    }
}
