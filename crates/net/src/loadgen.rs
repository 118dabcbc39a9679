//! Connection-scale load generation: a multiplexed fan-out driver.
//!
//! `psi_server`'s closed-loop generator dedicates one OS thread per client,
//! which tops out around the high hundreds of connections. Serving-scale
//! numbers need 1 000–10 000 concurrent connections, so this driver
//! multiplexes instead: `workers` threads each own `connections / workers`
//! protocol connections, and every **round** sends one request on each owned
//! connection, then collects each connection's reply. Every connection
//! therefore runs its own closed loop (exactly one request in flight), and
//! the server sees the full connection count concurrently — the coalescer's
//! flush window at 10 000 connections is what the benchmark exists to
//! measure.
//!
//! The op sequence on connection `c` is a pure function of `(c, round)` —
//! [`psi_server::loadgen::rotation`], the same kNN/kNN/count/list rotation
//! the in-process closed loop issues — so an in-process [`replay_checksum`]
//! can re-issue the identical sequence against a
//! [`psi_server::QueryClient`] and reproduce the combined answer checksum
//! bit-for-bit. Per-connection checksums fold FNV-1a over reply
//! payloads; the combined checksum adds them with wrapping arithmetic, so
//! it is independent of reply interleaving across connections.

use crate::client::WireClient;
use crate::wire::{Reply, Request, WireCoord};
use psi_geometry::{Point, Rect};
use psi_server::loadgen::rotation;
use psi_server::{QueryClient, ServeCoord};
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::Instant;

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Fold one reply into a running FNV-1a hash, over the wire encoding of its
/// payload (coordinates little-endian, counts as u64) — the representation
/// both the socket side and the in-process replay share exactly.
pub fn checksum_reply<T: WireCoord, const D: usize>(h: u64, reply: &Reply<T, D>) -> u64 {
    match reply {
        Reply::Points(pts) => {
            let mut h = fnv(h, &(pts.len() as u64).to_le_bytes());
            for p in pts {
                for c in p.coords {
                    h = fnv(h, &c.to_wire());
                }
            }
            h
        }
        Reply::Count(c) => fnv(h, &c.to_le_bytes()),
        _ => h,
    }
}

/// Shape of one fan-out run.
#[derive(Clone, Debug)]
pub struct FanoutSpec {
    /// Concurrent protocol connections.
    pub connections: usize,
    /// Driver threads multiplexing them.
    pub workers: usize,
    /// Requests per connection.
    pub rounds: usize,
    /// Neighbours per kNN query.
    pub k: usize,
}

/// Measured outcome of a fan-out run.
#[derive(Clone, Debug)]
pub struct FanoutOutcome {
    /// Connections actually driven.
    pub connections: usize,
    /// Total requests answered.
    pub ops: usize,
    /// Wall-clock seconds from all-connected to all-answered.
    pub elapsed_secs: f64,
    /// Requests per second, all connections combined.
    pub throughput_qps: f64,
    /// Median per-request latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile per-request latency, milliseconds.
    pub p99_ms: f64,
    /// Order-independent FNV checksum over every reply payload.
    pub checksum: u64,
}

/// Run the fan-out loop against a listening ψ-net server. Connection
/// establishment happens before timing starts (a barrier holds every worker
/// until all connections are up); any connect or I/O failure aborts the run
/// with an error rather than skewing the numbers.
pub fn fanout<T: WireCoord, const D: usize>(
    addr: SocketAddr,
    queries: &[Point<T, D>],
    rects: &[Rect<T, D>],
    spec: &FanoutSpec,
) -> Result<FanoutOutcome, String> {
    if queries.is_empty() || rects.is_empty() {
        return Err("fanout needs non-empty query and rect pools".to_string());
    }
    if spec.connections == 0 || spec.rounds == 0 {
        return Err("fanout needs at least one connection and one round".to_string());
    }
    let workers = spec.workers.clamp(1, spec.connections);
    // One shared latency histogram per run (wait-free record; percentiles
    // are bucket quantiles from the same machinery the live metrics use).
    let hist = Arc::new(psi_obs::Histogram::new());
    // Workers + the measuring thread: timing starts only once every
    // connection is established.
    let start_gate = Arc::new(Barrier::new(workers + 1));
    let threads: Vec<_> = (0..workers)
        .map(|w| {
            // Worker w owns the contiguous connection-index slice [lo, hi).
            let lo = spec.connections * w / workers;
            let hi = spec.connections * (w + 1) / workers;
            let queries = queries.to_vec();
            let rects = rects.to_vec();
            let spec = spec.clone();
            let start_gate = Arc::clone(&start_gate);
            let hist = Arc::clone(&hist);
            std::thread::spawn(move || -> Result<u64, String> {
                let connected = (|| -> Result<Vec<WireClient<T, D>>, String> {
                    let mut conns: Vec<WireClient<T, D>> = Vec::with_capacity(hi - lo);
                    for c in lo..hi {
                        conns.push(
                            WireClient::connect(addr)
                                .map_err(|e| format!("connect conn {c}: {e}"))?,
                        );
                    }
                    Ok(conns)
                })();
                // Every worker reaches the barrier even on connect failure,
                // or the measuring thread would deadlock waiting for it.
                start_gate.wait();
                let mut conns = connected?;
                let mut sums: Vec<u64> = vec![FNV_OFFSET; hi - lo];
                let mut sent_at: Vec<Instant> = Vec::with_capacity(hi - lo);
                for i in 0..spec.rounds {
                    sent_at.clear();
                    for (j, conn) in conns.iter_mut().enumerate() {
                        let req = Request::from(rotation(lo + j, i, &queries, &rects, spec.k));
                        sent_at.push(Instant::now());
                        conn.send(&req).map_err(|e| format!("send: {e}"))?;
                    }
                    for (j, conn) in conns.iter_mut().enumerate() {
                        let (_, reply) = conn.recv().map_err(|e| format!("recv: {e}"))?;
                        hist.record_duration(sent_at[j].elapsed());
                        if let Reply::Error { code, message } = &reply {
                            return Err(format!("server error {code}: {message}"));
                        }
                        sums[j] = checksum_reply(sums[j], &reply);
                    }
                }
                let combined = sums.into_iter().fold(0u64, u64::wrapping_add);
                Ok(combined)
            })
        })
        .collect();

    start_gate.wait();
    let started = Instant::now();
    let mut checksum = 0u64;
    for t in threads {
        let sum = t
            .join()
            .map_err(|_| "a fanout worker panicked".to_string())??;
        checksum = checksum.wrapping_add(sum);
    }
    let elapsed = started.elapsed().as_secs_f64();

    let snap = hist.snapshot();
    Ok(FanoutOutcome {
        connections: spec.connections,
        ops: snap.count() as usize,
        elapsed_secs: elapsed,
        throughput_qps: snap.count() as f64 / elapsed.max(1e-9),
        p50_ms: snap.quantile_ms(0.5),
        p99_ms: snap.quantile_ms(0.99),
        checksum,
    })
}

/// Re-issue the exact op sequences a [`fanout`] run sends — every
/// connection, every round — through an in-process [`QueryClient`] and
/// return the combined checksum. On a quiesced server this must equal the
/// socket run's [`FanoutOutcome::checksum`] bit-for-bit; a mismatch means
/// the wire path corrupted, dropped or mis-routed an answer.
pub fn replay_checksum<T: WireCoord + ServeCoord, const D: usize>(
    client: &mut dyn QueryClient<T, D>,
    queries: &[Point<T, D>],
    rects: &[Rect<T, D>],
    spec: &FanoutSpec,
) -> u64 {
    let mut combined = 0u64;
    for c in 0..spec.connections {
        let mut h = FNV_OFFSET;
        for i in 0..spec.rounds {
            let answer = client.query(rotation(c, i, queries, rects, spec.k));
            h = checksum_reply(h, &Reply::from(answer));
        }
        combined = combined.wrapping_add(h);
    }
    combined
}
