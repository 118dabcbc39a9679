//! Connection-scale socket benchmark: drive 1 000–10 000 concurrent TCP
//! connections through the ψ-net wire protocol and record what the
//! coalescer does with a serving-scale flush window.
//!
//! Each cell binds a fresh [`NetServer`] on loopback over a uniform 2-D
//! dataset and runs the multiplexed fan-out driver
//! ([`psi_net::loadgen::fanout`]): every connection is its own closed loop
//! (one request in flight), so the server sees the full connection count
//! concurrently. Recorded per cell: aggregate throughput, p50/p99 latency
//! and the achieved coalescing factor.
//!
//! Every cell ends with a hard correctness check: the order-independent
//! FNV checksum over every socket reply must equal an in-process replay of
//! the identical request sequence through the coalescing handle — a
//! dropped, corrupted or mis-routed answer fails the binary.
//!
//! The evented sweep is clamped to the process fd budget (a loopback
//! connection costs two descriptors in-process); clamping is logged, never
//! silent. The threaded transport is swept only to 1 000 connections —
//! thread-per-connection is exactly the regime the evented loop replaces.
//!
//! Usage:
//! `cargo run --release -p psi-bench --bin bench_net [-- --n 50000 --rounds 20 --out BENCH_net.json --smoke]`

use psi::registry::{self, BuildOptions};
use psi::PointI;
use psi_net::loadgen::{fanout, replay_checksum, FanoutSpec};
use psi_net::{fd_budget, loopback, NetConfig, NetServer, Transport};
use psi_server::{IndexFactory, PsiServer, ServeConfig};
use psi_workloads as workloads;
use std::sync::Arc;

const MAX_COORD: i64 = 1_000_000_000;

struct Cell {
    connections: usize,
    ops: usize,
    elapsed: f64,
    qps: f64,
    p50_ms: f64,
    p99_ms: f64,
    coalesce: f64,
    checksum: u64,
}

#[allow(clippy::too_many_arguments)]
fn run_cell(
    family: &'static str,
    transport: Transport,
    data: &[PointI<2>],
    queries: &[PointI<2>],
    rects: &[psi_geometry::RectI<2>],
    connections: usize,
    spec_base: &FanoutSpec,
    shards: usize,
    coalesce: usize,
) -> Cell {
    let universe = workloads::universe::<2>(MAX_COORD);
    let opts = BuildOptions::with_universe(universe);
    let factory: IndexFactory<i64, 2> = Arc::new(move |pts: &[PointI<2>]| {
        registry::create::<2>(family, pts, &opts).expect("registry families all build")
    });
    let server = Arc::new(PsiServer::new(
        data,
        &universe,
        ServeConfig {
            shards,
            coalesce_max_batch: coalesce,
            writer_queue: 8,
            ..Default::default()
        },
        factory,
    ));
    let net = NetServer::spawn(Arc::clone(&server), loopback(), NetConfig { transport })
        .expect("bind loopback");
    let spec = FanoutSpec {
        connections,
        ..spec_base.clone()
    };
    let out = fanout(net.addr(), queries, rects, &spec)
        .unwrap_or_else(|e| panic!("{} x{connections}: {e}", transport.name()));
    let (served, flushes) = server.coalesce_stats();
    let mut handle = server.client();
    let replay = replay_checksum(&mut handle, queries, rects, &spec);
    drop(handle);
    net.shutdown();
    assert_eq!(
        out.checksum,
        replay,
        "{} x{connections}: socket answers diverged from in-process replay",
        transport.name()
    );
    Cell {
        connections: out.connections,
        ops: out.ops,
        elapsed: out.elapsed_secs,
        qps: out.throughput_qps,
        p50_ms: out.p50_ms,
        p99_ms: out.p99_ms,
        coalesce: served as f64 / flushes.max(1) as f64,
        checksum: out.checksum,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut n = 50_000usize;
    let mut rounds = 20usize;
    let mut k = 10usize;
    let mut shards = 2usize;
    let mut coalesce = 64usize;
    let mut workers = 8usize;
    let mut family: &'static str = "spac-h";
    let mut out = "BENCH_net.json".to_string();
    let mut smoke = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => {
                smoke = true;
                i += 1;
            }
            flag if i + 1 < args.len() => {
                let value = &args[i + 1];
                match flag {
                    "--n" => n = value.parse().expect("--n expects an integer"),
                    "--rounds" => rounds = value.parse().expect("--rounds expects an integer"),
                    "--k" => k = value.parse().expect("--k expects an integer"),
                    "--shards" => shards = value.parse().expect("--shards expects an integer"),
                    "--coalesce" => {
                        coalesce = value.parse().expect("--coalesce expects an integer")
                    }
                    "--workers" => workers = value.parse().expect("--workers expects an integer"),
                    "--family" => {
                        family = registry::resolve_name(value)
                            .unwrap_or_else(|| panic!("unknown family {value:?}"))
                    }
                    "--out" => out = value.clone(),
                    other => panic!("unknown flag {other:?}"),
                }
                i += 2;
            }
            other => panic!("unknown flag {other:?}"),
        }
    }
    if smoke {
        n = n.min(8_000);
        rounds = rounds.min(5);
    }

    // A loopback connection costs two descriptors in this process (client
    // end + accepted end), plus headroom for listener/epoll/wakeup fds.
    let budget = fd_budget();
    let max_conns = (budget / 2).saturating_sub(64).max(1);
    let sweeps: &[(Transport, &[usize])] = if smoke {
        &[
            (Transport::Threaded, &[64]),
            (Transport::Evented, &[64, 256]),
        ]
    } else {
        &[
            (Transport::Threaded, &[256, 1_000]),
            (Transport::Evented, &[1_000, 4_000, 10_000]),
        ]
    };

    let data = workloads::uniform::<2>(n, MAX_COORD, 42);
    let queries = workloads::ind_queries(&data, 512, 43);
    let rects = workloads::range_queries(&data, MAX_COORD, 50, 128, 44);
    let spec_base = FanoutSpec {
        connections: 0,
        workers,
        rounds,
        k,
    };

    println!(
        "# bench_net: family = {family}, n = {n}, rounds/conn = {rounds}, shards = {shards}, \
         coalesce = {coalesce}, workers = {workers}, fd budget = {budget} (max {max_conns} conns)"
    );
    let mut blocks: Vec<String> = Vec::new();
    for (transport, counts) in sweeps {
        let mut cells: Vec<String> = Vec::new();
        let mut done: Vec<usize> = Vec::new();
        for &want in counts.iter() {
            let connections = want.min(max_conns);
            if connections < want {
                println!(
                    "# {}: clamped {want} -> {connections} connections (fd budget {budget})",
                    transport.name()
                );
            }
            if done.contains(&connections) {
                continue;
            }
            done.push(connections);
            let cell = run_cell(
                family,
                *transport,
                &data,
                &queries,
                &rects,
                connections,
                &spec_base,
                shards,
                coalesce,
            );
            println!(
                "{:<8} conns={:<5} {:>8.0} q/s  p50={:>8.3}ms p99={:>8.3}ms  coalesce={:.1}x  checksum={:016x} ok",
                transport.name(),
                cell.connections,
                cell.qps,
                cell.p50_ms,
                cell.p99_ms,
                cell.coalesce,
                cell.checksum
            );
            cells.push(format!(
                "        {{\"connections\": {}, \"ops\": {}, \"elapsed_secs\": {:.4}, \
                 \"qps\": {:.1}, \"p50_ms\": {:.4}, \"p99_ms\": {:.4}, \
                 \"coalesce_factor\": {:.2}, \"checksum\": \"{:016x}\", \"checksum_ok\": true}}",
                cell.connections,
                cell.ops,
                cell.elapsed,
                cell.qps,
                cell.p50_ms,
                cell.p99_ms,
                cell.coalesce,
                cell.checksum
            ));
        }
        blocks.push(format!(
            "    {{\n      \"name\": \"{}\",\n      \"cells\": [\n{}\n      ]\n    }}",
            transport.name(),
            cells.join(",\n")
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"net_fanout\",\n  {},\n  \"family\": \"{}\",\n  \"n\": {},\n  \
         \"rounds_per_connection\": {},\n  \"k\": {},\n  \"shards\": {},\n  \
         \"coalesce_max_batch\": {},\n  \"workers\": {},\n  \"fd_budget\": {},\n  \
         \"note\": \"closed-loop fan-out over real loopback TCP (psi-net wire protocol); every \
         connection has one request in flight, so conns = concurrent outstanding requests at the \
         coalescer; checksum_ok = socket replies bit-identical to in-process replay; qps reflects \
         protocol+coalescer overhead, not parallel query speedup\",\n  \"transports\": [\n{}\n  ]\n}}\n",
        psi_bench::host_meta_json(),
        family,
        n,
        rounds,
        k,
        shards,
        coalesce,
        workers,
        budget,
        blocks.join(",\n")
    );
    std::fs::write(&out, json).expect("failed to write benchmark output");
    println!("# wrote {out}");
}
