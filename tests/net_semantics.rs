//! End-to-end semantics for the `psi-net` socket front-end: answers over
//! TCP must be **checksum-identical** to in-process answers, on both
//! transports, for both coordinate types —
//! and hostile connections (malformed frames, oversized prefixes, unknown
//! opcodes, mid-frame disconnects) must be answered with an error frame or
//! dropped cleanly, leaving the server fully serviceable.

use psi::registry::{self, BuildOptions};
use psi::{Point, PointI, Rect};
use psi_net::client::WireClient;
use psi_net::loadgen::{fanout, replay_checksum, FanoutSpec};
use psi_net::wire::{
    self, decode_reply, read_frame, Reply, Request, ERR_MALFORMED, ERR_OPCODE, ERR_SHAPE,
    ERR_TOO_LARGE, LEN_PREFIX,
};
use psi_net::{loopback, NetConfig, NetServer, Transport};
use psi_server::{closed_loop_with, IndexFactory, LoadSpec, PsiServer, QueryClient, ServeConfig};
use psi_workloads as workloads;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const MAX: i64 = 1_000_000;

fn i64_server(shards: usize) -> (Arc<PsiServer<i64, 2>>, Vec<PointI<2>>) {
    let data = workloads::varden::<2>(1_500, MAX, 11);
    let universe = workloads::universe::<2>(MAX);
    let factory: IndexFactory<i64, 2> = Arc::new(|pts: &[PointI<2>]| {
        registry::create::<2>("pkd", pts, &BuildOptions::default()).unwrap()
    });
    let server = Arc::new(PsiServer::new(
        &data,
        &universe,
        ServeConfig {
            shards,
            ..Default::default()
        },
        factory,
    ));
    (server, data)
}

fn query_mix(data: &[PointI<2>]) -> (Vec<PointI<2>>, Vec<Rect<i64, 2>>) {
    (
        workloads::ind_queries(data, 24, 12),
        workloads::range_queries(data, MAX, 40, 10, 13),
    )
}

/// Wait for the transport to retire closed connections (accept/close is
/// asynchronous with respect to client-side drops).
fn await_drained(net: &NetServer) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while net.open_connections() > 0 {
        assert!(
            Instant::now() < deadline,
            "server never drained: {} connections still open",
            net.open_connections()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The tentpole identity: a fan-out run over sockets produces the same
/// combined answer checksum as replaying the identical op sequences through
/// an in-process handle — per transport.
#[test]
fn socket_answers_are_checksum_identical_to_inprocess() {
    for transport in [Transport::Threaded, Transport::Evented] {
        let (server, data) = i64_server(3);
        let (queries, rects) = query_mix(&data);
        let net = NetServer::spawn(Arc::clone(&server), loopback(), NetConfig { transport })
            .expect("spawn net server");
        let spec = FanoutSpec {
            connections: 48,
            workers: 3,
            rounds: 16,
            k: 5,
        };
        let label = transport.name();
        let out = fanout(net.addr(), &queries, &rects, &spec)
            .unwrap_or_else(|e| panic!("{label}: fanout failed: {e}"));
        assert_eq!(out.ops, 48 * 16, "{label}");
        assert_eq!(net.accepted(), 48, "{label}");

        // Replay through both in-process handles: the only difference
        // under test is the wire.
        let mut coalesced = server.client();
        let mut direct = server.direct_client();
        for expected in [
            replay_checksum(&mut coalesced, &queries, &rects, &spec),
            replay_checksum(&mut direct, &queries, &rects, &spec),
        ] {
            assert_eq!(
                out.checksum, expected,
                "{label}: socket answers diverged from in-process answers"
            );
        }
        await_drained(&net);
        net.shutdown();
    }
}

/// Same identity in f64 (coordinates cross the wire as raw IEEE bits).
#[test]
fn socket_answers_match_inprocess_f64() {
    let data = workloads::varden::<2>(1_200, MAX, 21);
    let fdata: Vec<Point<f64, 2>> = data
        .iter()
        .map(|p| Point::new(p.coords.map(|c| c as f64)))
        .collect();
    let universe = Rect::from_corners(Point::new([0.0, 0.0]), Point::new([MAX as f64, MAX as f64]));
    let factory: IndexFactory<f64, 2> = Arc::new(|pts: &[Point<f64, 2>]| {
        registry::create_f64::<2>("pkd", pts, &BuildOptions::default()).unwrap()
    });
    let server = Arc::new(PsiServer::new(
        &fdata,
        &universe,
        ServeConfig {
            shards: 2,
            ..Default::default()
        },
        factory,
    ));
    let (iqueries, irects) = query_mix(&data);
    let queries: Vec<Point<f64, 2>> = iqueries
        .iter()
        .map(|p| Point::new(p.coords.map(|c| c as f64)))
        .collect();
    let rects: Vec<Rect<f64, 2>> = irects
        .iter()
        .map(|r| {
            Rect::from_corners(
                Point::new(r.lo.coords.map(|c| c as f64)),
                Point::new(r.hi.coords.map(|c| c as f64)),
            )
        })
        .collect();
    let net = NetServer::spawn(Arc::clone(&server), loopback(), NetConfig::default())
        .expect("spawn net server");
    let spec = FanoutSpec {
        connections: 32,
        workers: 2,
        rounds: 12,
        k: 4,
    };
    let out = fanout(net.addr(), &queries, &rects, &spec).expect("fanout");
    let mut handle = server.client();
    let expected = replay_checksum(&mut handle, &queries, &rects, &spec);
    assert_eq!(out.checksum, expected, "f64 socket answers diverged");
    net.shutdown();
}

/// The socket mode of `psi_server`'s closed-loop generator: the same driver
/// (same shape assertions, same count-conservation check) runs with wire
/// clients instead of in-process handles, under concurrent writer churn.
#[test]
fn closed_loop_drives_sockets_under_writer_churn() {
    for transport in [Transport::Threaded, Transport::Evented] {
        let (server, data) = i64_server(2);
        let (queries, rects) = query_mix(&data);
        let net = NetServer::spawn(Arc::clone(&server), loopback(), NetConfig { transport })
            .expect("spawn net server");
        let addr = net.addr();
        let spec = LoadSpec {
            clients: 4,
            ops_per_client: 40,
            k: 5,
            write_batch: 64,
            write_every_ms: 0,
        };
        let out = closed_loop_with(&server, &data, &queries, &rects, &spec, |_| {
            let client: WireClient<i64, 2> =
                WireClient::connect(addr).map_err(|e| e.to_string())?;
            Ok(Box::new(client) as Box<dyn QueryClient<i64, 2>>)
        })
        .unwrap_or_else(|e| panic!("{}: closed loop over sockets: {e}", transport.name()));
        assert_eq!(out.ops, 160, "{}", transport.name());
        assert!(out.batches > 0, "{}", transport.name());
        net.shutdown();
    }
}

/// Updates over the wire: move batches round-trip through `apply_batch`
/// frames, conserve the live count, and advance the applied-batch counter.
#[test]
fn apply_batch_over_the_wire_conserves_counts() {
    let (server, data) = i64_server(2);
    let net = NetServer::spawn(Arc::clone(&server), loopback(), NetConfig::default())
        .expect("spawn net server");
    let mut client: WireClient<i64, 2> = WireClient::connect(net.addr()).expect("connect");
    assert_eq!(client.shards(), 2);
    let before = server.batches_applied();
    for r in 0..5 {
        let lo = r * 100;
        let slice = data[lo..lo + 100].to_vec();
        client.apply_batch(slice.clone(), slice).expect("apply");
    }
    server.quiesce();
    assert_eq!(server.view().len(), data.len(), "a wire batch tore");
    assert!(server.batches_applied() >= before + 5);
    net.shutdown();
}

/// Shape negotiation: a client with the wrong coordinate type is refused at
/// hello with a typed error, before any query runs.
#[test]
fn hello_rejects_mismatched_shape() {
    let (server, _) = i64_server(1);
    let net = NetServer::spawn(Arc::clone(&server), loopback(), NetConfig::default())
        .expect("spawn net server");
    let err = match WireClient::<f64, 2>::connect(net.addr()) {
        Err(e) => e,
        Ok(_) => panic!("shape mismatch must refuse"),
    };
    assert!(
        err.to_string().contains(&format!("code {ERR_SHAPE}")),
        "unexpected refusal: {err}"
    );
    net.shutdown();
}

/// Read the single error frame a poisoned connection gets, and require the
/// server to close it afterwards.
fn expect_error_then_close(stream: &mut TcpStream, want_code: u16, label: &str) {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut payload = Vec::new();
    assert!(
        read_frame(stream, &mut payload).unwrap_or_else(|e| panic!("{label}: read error: {e}")),
        "{label}: server closed without an error frame"
    );
    let (_, reply) = decode_reply::<i64, 2>(&payload).expect("error frame decodes");
    match reply {
        Reply::Error { code, .. } => assert_eq!(code, want_code, "{label}"),
        other => panic!("{label}: expected an error frame, got {other:?}"),
    }
    // ... then EOF.
    let mut rest = Vec::new();
    while read_frame(stream, &mut rest).unwrap_or(false) {}
}

/// The malformed-connection gauntlet, per transport: every abuse is either
/// answered with a typed error frame or dropped cleanly, the reactor keeps
/// running, and a well-formed client still gets correct answers afterwards.
#[test]
fn malformed_connections_never_wound_the_server() {
    for transport in [Transport::Threaded, Transport::Evented] {
        let (server, data) = i64_server(2);
        let (queries, rects) = query_mix(&data);
        let net = NetServer::spawn(Arc::clone(&server), loopback(), NetConfig { transport })
            .expect("spawn net server");
        let label = transport.name();
        let hello_bytes = |out: &mut Vec<u8>| {
            wire::encode_request(&Request::<i64, 2>::hello(), 0, out).unwrap();
        };

        // 1. Oversized length prefix straight away.
        {
            let mut s = TcpStream::connect(net.addr()).unwrap();
            s.write_all(&u32::MAX.to_le_bytes()).unwrap();
            expect_error_then_close(&mut s, ERR_TOO_LARGE, &format!("{label}/oversized"));
        }
        // 2. Unknown opcode after a valid hello.
        {
            let mut s = TcpStream::connect(net.addr()).unwrap();
            let mut out = Vec::new();
            hello_bytes(&mut out);
            out.extend_from_slice(&13u32.to_le_bytes());
            out.push(0x42); // no such opcode
            out.extend_from_slice(&9u64.to_le_bytes());
            out.extend_from_slice(&[0u8; 4]);
            s.write_all(&out).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let mut payload = Vec::new();
            assert!(read_frame(&mut s, &mut payload).unwrap(), "{label}: hello");
            expect_error_then_close(&mut s, ERR_OPCODE, &format!("{label}/unknown-opcode"));
        }
        // 3. Truncated frame: length prefix promises more bytes than the
        //    body delivers before a trailing valid frame — body parsing
        //    consumes the valid frame's bytes and rejects.
        {
            let mut s = TcpStream::connect(net.addr()).unwrap();
            let mut out = Vec::new();
            hello_bytes(&mut out);
            let mut knn = Vec::new();
            wire::encode_request(
                &Request::<i64, 2>::Knn {
                    q: Point::new([1, 2]),
                    k: 3,
                    at: None,
                },
                1,
                &mut knn,
            )
            .unwrap();
            // Declare 5 extra bytes the frame does not carry.
            let len = u32::from_le_bytes(knn[..LEN_PREFIX].try_into().unwrap()) + 5;
            knn[..LEN_PREFIX].copy_from_slice(&len.to_le_bytes());
            knn.extend_from_slice(&[0u8; 5]); // pad so the frame completes
            out.extend_from_slice(&knn);
            s.write_all(&out).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let mut payload = Vec::new();
            assert!(read_frame(&mut s, &mut payload).unwrap(), "{label}: hello");
            expect_error_then_close(&mut s, ERR_MALFORMED, &format!("{label}/truncated"));
        }
        // 4. Mid-frame disconnect, with a query already in flight: the
        //    coalescer's answer for the dead connection must be discarded,
        //    not leaked or misdelivered.
        {
            let mut s = TcpStream::connect(net.addr()).unwrap();
            let mut out = Vec::new();
            hello_bytes(&mut out);
            wire::encode_request(
                &Request::<i64, 2>::Knn {
                    q: queries[0],
                    k: 5,
                    at: None,
                },
                1,
                &mut out,
            )
            .unwrap();
            out.extend_from_slice(&200u32.to_le_bytes()); // frame never finished
            out.push(0x10);
            s.write_all(&out).unwrap();
            drop(s);
        }
        // 5. Garbage hello (wrong magic).
        {
            let mut s = TcpStream::connect(net.addr()).unwrap();
            let mut out = Vec::new();
            out.extend_from_slice(&16u32.to_le_bytes());
            out.push(0x01);
            out.extend_from_slice(&0u64.to_le_bytes());
            out.extend_from_slice(b"NOPE");
            out.extend_from_slice(&[1, 0, 0]);
            s.write_all(&out).unwrap();
            expect_error_then_close(&mut s, ERR_MALFORMED, &format!("{label}/bad-magic"));
        }

        assert!(
            net.protocol_errors() >= 4,
            "{label}: protocol errors went uncounted"
        );
        // The server is unwounded: a fresh well-formed run still matches
        // in-process answers exactly.
        let spec = FanoutSpec {
            connections: 8,
            workers: 2,
            rounds: 8,
            k: 5,
        };
        let out = fanout(net.addr(), &queries, &rects, &spec)
            .unwrap_or_else(|e| panic!("{label}: post-abuse fanout failed: {e}"));
        let mut handle = server.client();
        assert_eq!(
            out.checksum,
            replay_checksum(&mut handle, &queries, &rects, &spec),
            "{label}: answers diverged after abuse"
        );
        await_drained(&net);
        net.shutdown();
    }
}
