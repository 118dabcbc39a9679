//! The `psi-netd` daemon: stand up a [`PsiServer`] over a synthetic dataset
//! and serve the ψ-net wire protocol on a TCP address.
//!
//! The binary in `src/bin/psi-netd.rs` is a thin shell around this module:
//! [`parse_args`] turns flags into a [`NetdConfig`], [`boot`] builds the
//! dataset, the sharded server and the socket front-end, and the binary then
//! blocks until stdin reaches EOF — so a driving script (or `bench_net`)
//! holds the daemon up exactly as long as it holds the pipe open.

use crate::scenario::CoordKind;
use crate::statsd::StatsEndpoint;
use psi::registry::{self, BuildOptions};
use psi::{HilbertCurve, MortonCurve, SfcCurve};
use psi_geometry::{Point, PointI, Rect};
use psi_net::wire::WireCoord;
use psi_net::{NetConfig, NetServer, Transport};
use psi_server::{DurabilityConfig, FsyncPolicy, IndexFactory, PsiServer, ServeConfig, ServeCoord};
use psi_workloads::{self as workloads, Distribution};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;

/// Everything `psi-netd` needs to boot, as parsed from its command line.
#[derive(Clone, Debug)]
pub struct NetdConfig {
    /// Address to bind (numeric host:port; port 0 picks an ephemeral port).
    pub addr: SocketAddr,
    /// Index family served (canonical registry name).
    pub family: &'static str,
    /// Spatial shards.
    pub shards: usize,
    /// Coalescing window (`ServeConfig::coalesce_max_batch`).
    pub coalesce: usize,
    /// Socket front-end flavour.
    pub transport: Transport,
    /// Coordinate type of the synthetic dataset.
    pub coords: CoordKind,
    /// Dimensionality (2 or 3).
    pub dims: usize,
    /// Dataset size.
    pub n: usize,
    /// Synthetic distribution.
    pub distribution: Distribution,
    /// Coordinate upper bound.
    pub max_coord: i64,
    /// Dataset seed.
    pub seed: u64,
    /// Durability directory (`--data-dir`); `None` serves memory-only.
    pub data_dir: Option<PathBuf>,
    /// WAL fsync policy (`--fsync`); only meaningful with `data_dir`.
    pub fsync: FsyncPolicy,
    /// Plaintext metrics endpoint address (`--stats-addr`); `None` (the
    /// default) exposes metrics over the wire protocol (`OP_STATS`) only.
    pub stats_addr: Option<SocketAddr>,
    /// Slow-query log threshold in milliseconds (`--slow-ms`); `None`
    /// leaves the log disabled.
    pub slow_ms: Option<u64>,
}

impl Default for NetdConfig {
    fn default() -> Self {
        NetdConfig {
            addr: "127.0.0.1:0".parse().expect("literal addr"),
            family: "pkd",
            shards: 2,
            coalesce: 32,
            transport: Transport::Evented,
            coords: CoordKind::I64,
            dims: 2,
            n: 100_000,
            distribution: Distribution::Uniform,
            max_coord: 1_000_000,
            seed: 42,
            data_dir: None,
            fsync: FsyncPolicy::default(),
            stats_addr: None,
            slow_ms: None,
        }
    }
}

/// Usage text for `--help` and flag errors.
pub fn usage() -> &'static str {
    "usage: psi-netd [flags]\n\
     \n\
     Serve the \u{3c8}-net wire protocol over a synthetic dataset.\n\
     The daemon prints one `listening on HOST:PORT ...` line to stdout,\n\
     then runs until stdin reaches EOF (close the pipe to stop it).\n\
     \n\
     --addr HOST:PORT    bind address (default 127.0.0.1:0 = ephemeral port)\n\
     --family NAME       index family to serve (default pkd)\n\
     --shards N          spatial shards (default 2)\n\
     --coalesce N        coalescing window, requests per flush (default 32)\n\
     --transport NAME    threaded | evented (default evented)\n\
     --coords KIND       i64 | f64 (default i64)\n\
     --dims D            2 | 3 (default 2)\n\
     --n N               synthetic dataset size (default 100000)\n\
     --distribution NAME any workloads distribution (default uniform)\n\
     --max-coord C       coordinate upper bound (default 1000000)\n\
     --seed S            dataset seed (default 42)\n\
     --data-dir PATH     durability directory: WAL + checkpoints; recovers\n\
     \u{20}                    existing state on start (default: memory-only)\n\
     --fsync POLICY      every-batch | every-N | os (default every-batch;\n\
     \u{20}                    requires --data-dir)\n\
     --stats-addr H:P    also serve a plaintext metrics endpoint here\n\
     \u{20}                    (Prometheus-style text + recent events; port 0\n\
     \u{20}                    picks an ephemeral port, echoed in the banner)\n\
     --slow-ms N         record queries slower than N ms in the slow-query\n\
     \u{20}                    log (shown on the stats endpoint; default off)\n"
}

fn value<'a>(flag: &str, it: &mut impl Iterator<Item = &'a str>) -> Result<&'a str, String> {
    it.next().ok_or_else(|| format!("{flag} expects a value"))
}

fn parse_num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("{flag}: bad value {v:?}"))
}

/// Parse `psi-netd` flags (everything after argv[0]).
pub fn parse_args<S: AsRef<str>>(args: &[S]) -> Result<NetdConfig, String> {
    let mut cfg = NetdConfig::default();
    let mut fsync_set = false;
    let mut it = args.iter().map(AsRef::as_ref);
    while let Some(flag) = it.next() {
        match flag {
            "--addr" => {
                let v = value(flag, &mut it)?;
                cfg.addr = v
                    .parse()
                    .map_err(|_| format!("--addr: bad address {v:?} (numeric host:port)"))?;
            }
            "--family" => {
                let v = value(flag, &mut it)?;
                cfg.family = registry::resolve_name(v)
                    .ok_or_else(|| format!("--family: unknown family {v:?}"))?;
            }
            "--shards" => cfg.shards = parse_num(flag, value(flag, &mut it)?)?,
            "--coalesce" => cfg.coalesce = parse_num(flag, value(flag, &mut it)?)?,
            "--transport" => {
                let v = value(flag, &mut it)?;
                cfg.transport = Transport::parse(v).ok_or_else(|| {
                    format!("--transport: expected threaded or evented, got {v:?}")
                })?;
            }
            "--coords" => {
                cfg.coords = match value(flag, &mut it)? {
                    "i64" => CoordKind::I64,
                    "f64" => CoordKind::F64,
                    v => return Err(format!("--coords: expected i64 or f64, got {v:?}")),
                }
            }
            "--dims" => {
                cfg.dims = parse_num(flag, value(flag, &mut it)?)?;
                if !matches!(cfg.dims, 2 | 3) {
                    return Err(format!("--dims: expected 2 or 3, got {}", cfg.dims));
                }
            }
            "--n" => cfg.n = parse_num(flag, value(flag, &mut it)?)?,
            "--distribution" => {
                let v = value(flag, &mut it)?;
                cfg.distribution = Distribution::from_name(v)
                    .ok_or_else(|| format!("--distribution: unknown distribution {v:?}"))?;
            }
            "--max-coord" => cfg.max_coord = parse_num(flag, value(flag, &mut it)?)?,
            "--seed" => cfg.seed = parse_num(flag, value(flag, &mut it)?)?,
            "--data-dir" => cfg.data_dir = Some(PathBuf::from(value(flag, &mut it)?)),
            "--stats-addr" => {
                let v = value(flag, &mut it)?;
                cfg.stats_addr =
                    Some(v.parse().map_err(|_| {
                        format!("--stats-addr: bad address {v:?} (numeric host:port)")
                    })?);
            }
            "--slow-ms" => {
                let ms: u64 = parse_num(flag, value(flag, &mut it)?)?;
                if ms == 0 {
                    return Err("--slow-ms must be positive".to_string());
                }
                cfg.slow_ms = Some(ms);
            }
            "--fsync" => {
                let v = value(flag, &mut it)?;
                cfg.fsync = FsyncPolicy::parse(v).ok_or_else(|| {
                    format!("--fsync: expected every-batch, every-N or os, got {v:?}")
                })?;
                fsync_set = true;
            }
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    if cfg.shards == 0 {
        return Err("--shards must be positive".to_string());
    }
    if cfg.n == 0 {
        return Err("--n must be positive".to_string());
    }
    if fsync_set && cfg.data_dir.is_none() {
        return Err("--fsync requires --data-dir".to_string());
    }
    Ok(cfg)
}

/// A live daemon: the socket front-end plus the server it fronts. Dropping
/// (or [`RunningNetd::shutdown`]) stops the transport threads *first*, then
/// releases the [`PsiServer`] — the order the coalescer requires.
pub struct RunningNetd {
    net: Option<NetServer>,
    stats: Option<StatsEndpoint>,
    _server: Box<dyn std::any::Any + Send>,
    banner: String,
}

impl RunningNetd {
    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.net.as_ref().expect("live until drop").addr()
    }

    /// The metrics endpoint's bound address, when `--stats-addr` was given.
    pub fn stats_addr(&self) -> Option<SocketAddr> {
        self.stats.as_ref().map(StatsEndpoint::addr)
    }

    /// The one-line `listening on ...` banner the binary prints.
    pub fn banner(&self) -> &str {
        &self.banner
    }

    /// Stop the socket front-end, then the server.
    pub fn shutdown(mut self) {
        if let Some(net) = self.net.take() {
            net.shutdown();
        }
        if let Some(stats) = self.stats.take() {
            stats.shutdown();
        }
    }
}

impl Drop for RunningNetd {
    fn drop(&mut self) {
        if let Some(net) = self.net.take() {
            net.shutdown();
        }
    }
}

/// Build the dataset and server and bind the socket front-end.
pub fn boot(cfg: &NetdConfig) -> Result<RunningNetd, String> {
    if let Some(ms) = cfg.slow_ms {
        psi_obs::slowlog::set_threshold(Some(std::time::Duration::from_millis(ms)));
    }
    match (cfg.coords, cfg.dims) {
        (CoordKind::I64, 2) => boot_i64::<2>(cfg),
        (CoordKind::I64, 3) => boot_i64::<3>(cfg),
        (CoordKind::F64, 2) => boot_f64::<2>(cfg),
        (CoordKind::F64, 3) => boot_f64::<3>(cfg),
        (_, d) => Err(format!("unsupported dims {d}")),
    }
}

fn boot_i64<const D: usize>(cfg: &NetdConfig) -> Result<RunningNetd, String>
where
    HilbertCurve: SfcCurve<D>,
    MortonCurve: SfcCurve<D>,
{
    let data = cfg
        .distribution
        .generate::<D>(cfg.n, cfg.max_coord, cfg.seed);
    let universe = workloads::universe::<D>(cfg.max_coord);
    let opts = BuildOptions::with_universe(universe);
    let family = cfg.family;
    registry::create::<D>(family, &data[..0], &opts).map_err(|e| e.to_string())?;
    let factory: IndexFactory<i64, D> = Arc::new(move |pts: &[PointI<D>]| {
        registry::create::<D>(family, pts, &opts).expect("family validated above")
    });
    boot_typed(cfg, &data, &universe, factory)
}

fn boot_f64<const D: usize>(cfg: &NetdConfig) -> Result<RunningNetd, String>
where
    HilbertCurve: SfcCurve<D>,
    MortonCurve: SfcCurve<D>,
{
    let idata = cfg
        .distribution
        .generate::<D>(cfg.n, cfg.max_coord, cfg.seed);
    let data: Vec<Point<f64, D>> = idata
        .iter()
        .map(|p| Point::new(p.coords.map(|c| c as f64)))
        .collect();
    let universe = Rect::from_corners(Point::new([0.0; D]), Point::new([cfg.max_coord as f64; D]));
    let opts = BuildOptions::with_universe(universe);
    let family = cfg.family;
    registry::create_f64::<D>(family, &data[..0], &opts).map_err(|e| e.to_string())?;
    let factory: IndexFactory<f64, D> = Arc::new(move |pts: &[Point<f64, D>]| {
        registry::create_f64::<D>(family, pts, &opts).expect("family validated above")
    });
    boot_typed(cfg, &data, &universe, factory)
}

fn boot_typed<T: ServeCoord + WireCoord, const D: usize>(
    cfg: &NetdConfig,
    data: &[Point<T, D>],
    universe: &Rect<T, D>,
    factory: IndexFactory<T, D>,
) -> Result<RunningNetd, String> {
    let server = Arc::new(PsiServer::new(
        data,
        universe,
        ServeConfig {
            shards: cfg.shards,
            coalesce_max_batch: cfg.coalesce,
            writer_queue: 8,
            durability: cfg.data_dir.as_ref().map(|dir| DurabilityConfig {
                dir: dir.clone(),
                fsync: cfg.fsync,
            }),
            ..Default::default()
        },
        factory,
    ));
    let net = NetServer::spawn(
        Arc::clone(&server),
        cfg.addr,
        NetConfig {
            transport: cfg.transport,
        },
    )
    .map_err(|e| format!("bind {}: {e}", cfg.addr))?;
    let stats = match cfg.stats_addr {
        Some(addr) => Some(
            StatsEndpoint::bind(addr).map_err(|e| format!("bind stats endpoint {addr}: {e}"))?,
        ),
        None => None,
    };
    let mut banner = format!(
        "listening on {} family={} coords={} dims={} n={} dist={} shards={} transport={} coalesce={} durable={}",
        net.addr(),
        cfg.family,
        cfg.coords.name(),
        D,
        cfg.n,
        cfg.distribution.name(),
        cfg.shards,
        cfg.transport.name(),
        cfg.coalesce,
        if server.is_durable() {
            cfg.fsync.name()
        } else {
            "off".to_string()
        },
    );
    // The suffix is conditional so scripts that parse the banner (and tests
    // that pin its tail) only see it when the flag was given.
    if let Some(ep) = &stats {
        banner.push_str(&format!(" stats={}", ep.addr()));
    }
    Ok(RunningNetd {
        net: Some(net),
        stats,
        _server: Box::new(server),
        banner,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use psi_net::client::WireClient;

    #[test]
    fn flags_parse_and_validate() {
        let cfg = parse_args::<&str>(&[]).unwrap();
        assert_eq!(cfg.family, "pkd");
        assert_eq!(cfg.transport, Transport::Evented);

        let cfg = parse_args(&[
            "--addr",
            "127.0.0.1:7471",
            "--family",
            "spac-h",
            "--shards",
            "4",
            "--coalesce",
            "8",
            "--transport",
            "threaded",
            "--coords",
            "f64",
            "--dims",
            "3",
            "--n",
            "5000",
            "--distribution",
            "varden",
            "--max-coord",
            "99",
            "--seed",
            "7",
        ])
        .unwrap();
        assert_eq!(cfg.addr.port(), 7471);
        assert_eq!(cfg.family, "spac-h");
        assert_eq!(cfg.shards, 4);
        assert_eq!(cfg.coalesce, 8);
        assert_eq!(cfg.transport, Transport::Threaded);
        assert_eq!(cfg.coords, CoordKind::F64);
        assert_eq!(cfg.dims, 3);
        assert_eq!(cfg.n, 5000);
        assert_eq!(cfg.distribution, Distribution::Varden);
        assert_eq!(cfg.max_coord, 99);
        assert_eq!(cfg.seed, 7);

        let cfg = parse_args(&["--stats-addr", "127.0.0.1:9471", "--slow-ms", "25"]).unwrap();
        assert_eq!(cfg.stats_addr.map(|a| a.port()), Some(9471));
        assert_eq!(cfg.slow_ms, Some(25));

        let cfg = parse_args(&["--data-dir", "/tmp/psi-data", "--fsync", "every-8"]).unwrap();
        assert_eq!(
            cfg.data_dir.as_deref(),
            Some(std::path::Path::new("/tmp/psi-data"))
        );
        assert_eq!(cfg.fsync, FsyncPolicy::EveryN(8));

        for bad in [
            &["--family", "nope"][..],
            &["--transport", "carrier-pigeon"],
            &["--coords", "i32"],
            &["--dims", "4"],
            &["--shards", "0"],
            &["--n", "0"],
            &["--addr", "not-an-addr"],
            &["--stats-addr", "not-an-addr"],
            &["--slow-ms", "0"],
            &["--slow-ms", "soon"],
            &["--mystery"],
            &["--seed"],
            // --fsync is a durability knob: meaningless without --data-dir.
            &["--fsync", "os"],
            &["--data-dir", "/tmp/x", "--fsync", "sometimes"],
            &["--data-dir", "/tmp/x", "--fsync", "every-0"],
        ] {
            assert!(parse_args(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn boots_and_answers_queries() {
        let mut cfg = parse_args(&["--n", "2000", "--coalesce", "4"]).unwrap();
        for transport in [Transport::Threaded, Transport::Evented] {
            cfg.transport = transport;
            let running = boot(&cfg).unwrap();
            assert!(running.banner().starts_with("listening on 127.0.0.1:"));
            let mut client: WireClient<i64, 2> = WireClient::connect(running.addr()).unwrap();
            assert_eq!(client.shards(), 2);
            let hits = client.knn(&Point::new([500_000, 500_000]), 5).unwrap();
            assert_eq!(hits.len(), 5);
            let total = client
                .range_count(&Rect::from_corners(
                    Point::new([0, 0]),
                    Point::new([1_000_000, 1_000_000]),
                ))
                .unwrap();
            assert_eq!(total, 2000);
            drop(client);
            running.shutdown();
        }
    }

    #[test]
    fn data_dir_survives_a_reboot() {
        let dir = std::env::temp_dir().join(format!("psi-netd-reboot-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let world = Rect::from_corners(Point::new([0, 0]), Point::new([1_000_000, 1_000_000]));
        let cfg = parse_args(&[
            "--n",
            "500",
            "--family",
            "cpam-h",
            "--data-dir",
            dir.to_str().unwrap(),
        ])
        .unwrap();
        {
            let running = boot(&cfg).unwrap();
            assert!(running.banner().ends_with("durable=every-batch"));
            let mut client: WireClient<i64, 2> = WireClient::connect(running.addr()).unwrap();
            client
                .apply_batch(Vec::new(), vec![Point::new([1, 2]), Point::new([3, 4])])
                .unwrap();
            // BatchOk acks the submission, not the publish: poll the epoch
            // until the writer thread lands (and WAL-logs) the batch.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while client.epoch_bounds().unwrap().map(|(_, hi)| hi) != Some(1) {
                assert!(
                    std::time::Instant::now() < deadline,
                    "epoch 1 never published"
                );
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            drop(client);
            running.shutdown();
        }
        // Reboot over the same directory: recovery must land on the same
        // epoch with the same contents, ignoring the synthetic seed data.
        let running = boot(&cfg).unwrap();
        let mut client: WireClient<i64, 2> = WireClient::connect(running.addr()).unwrap();
        assert_eq!(client.epoch_bounds().unwrap().map(|(_, hi)| hi), Some(1));
        assert_eq!(client.range_count(&world).unwrap(), 502);
        drop(client);
        running.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_endpoint_scrapes_live_metrics() {
        use std::io::{Read, Write};
        let cfg = parse_args(&["--n", "1000", "--stats-addr", "127.0.0.1:0"]).unwrap();
        let running = boot(&cfg).unwrap();
        let stats_addr = running.stats_addr().expect("flag given");
        assert!(running.banner().contains(&format!(" stats={stats_addr}")));
        // Generate traffic so the scrape has nonzero net-layer series.
        let mut client: WireClient<i64, 2> = WireClient::connect(running.addr()).unwrap();
        for _ in 0..4 {
            client.knn(&Point::new([1, 1]), 3).unwrap();
        }
        drop(client);
        let mut s = std::net::TcpStream::connect(stats_addr).unwrap();
        s.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut text = String::new();
        s.read_to_string(&mut text).unwrap();
        assert!(text.starts_with("HTTP/1.0 200 OK\r\n"));
        assert!(text.contains("psi_net_frames_in_total{op=\"knn\"}"));
        assert!(text.contains("psi_net_request_latency_ns"));
        running.shutdown();
    }

    #[test]
    fn serves_f64() {
        let cfg = parse_args(&["--n", "1000", "--coords", "f64"]).unwrap();
        let running = boot(&cfg).unwrap();
        let mut client: WireClient<f64, 2> = WireClient::connect(running.addr()).unwrap();
        let hits = client.knn(&Point::new([1.0, 2.0]), 3).unwrap();
        assert_eq!(hits.len(), 3);
    }
}
