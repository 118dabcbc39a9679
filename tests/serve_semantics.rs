//! Snapshot-consistency battery for the `psi-server` subsystem: concurrent
//! readers must only ever observe **whole published epochs**.
//!
//! The scheme: build a shard (or a sharded router) and precompute, offline,
//! the exact answer checksum of a fixed query mix for *every* epoch — the
//! initial build plus each update batch applied in order (the offline
//! replica replays the same op sequence the shard applies to both of its
//! copies, so answers match bit-for-bit, ties included). Then a writer
//! thread publishes those same batches while reader threads continuously
//! pin snapshots and recompute the checksum: every observed answer set must
//! equal the golden checksum of the *snapshot's own epoch* — a torn batch,
//! a lost update, or a half-swapped pointer produces a checksum matching no
//! epoch and fails immediately. Readers also assert epoch monotonicity.
//!
//! The battery runs for three-plus registry families in both `i64` and
//! `f64` (the f64 set includes an SFC family served through the quantising
//! adapter), and the whole suite repeats under default, 1-thread and
//! 4-thread worker pools (CI additionally re-runs it under
//! `RAYON_NUM_THREADS=1` and `=4`).

use psi::registry::{self, BuildOptions, DynIndex};
use psi::{Point, PointI, Rect};
use psi_server::{IndexFactory, Router, ServeCoord, Shard};
use psi_workloads as workloads;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fold(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(FNV_PRIME)
}

/// Coordinates the battery can checksum exactly. (`Point` is totally
/// ordered for every `Coord`, so the range lists sort deterministically for
/// `f64` too.)
trait CheckCoord: ServeCoord {
    fn bits(self) -> u64;
}
impl CheckCoord for i64 {
    fn bits(self) -> u64 {
        self as u64
    }
}
impl CheckCoord for f64 {
    fn bits(self) -> u64 {
        self.to_bits()
    }
}

/// Deterministic checksum of a fixed query mix against one index state.
fn answers_checksum<T: CheckCoord, const D: usize>(
    index: &dyn DynIndex<T, D>,
    queries: &[Point<T, D>],
    rects: &[Rect<T, D>],
    k: usize,
) -> u64 {
    let mut h = FNV_OFFSET;
    for ans in index.knn_batch(queries, k) {
        h = fold(h, ans.len() as u64);
        for p in &ans {
            for c in p.coords {
                h = fold(h, c.bits());
            }
        }
    }
    for c in index.range_count_batch(rects) {
        h = fold(h, c as u64);
    }
    for mut list in index.range_list_batch(rects) {
        list.sort_unstable();
        h = fold(h, list.len() as u64);
        for p in &list {
            for c in p.coords {
                h = fold(h, c.bits());
            }
        }
    }
    h
}

/// One update batch: deletions, then insertions.
type Batch<T, const D: usize> = (Vec<Point<T, D>>, Vec<Point<T, D>>);

/// Offline golden checksums: epoch 0 (initial build) plus one per batch.
fn golden_epochs<T: CheckCoord, const D: usize>(
    factory: &IndexFactory<T, D>,
    initial: &[Point<T, D>],
    batches: &[Batch<T, D>],
    queries: &[Point<T, D>],
    rects: &[Rect<T, D>],
    k: usize,
) -> Vec<u64> {
    let mut replica = factory(initial);
    let mut goldens = vec![answers_checksum(&*replica, queries, rects, k)];
    for (del, ins) in batches {
        replica.batch_delete(del);
        replica.batch_insert(ins);
        goldens.push(answers_checksum(&*replica, queries, rects, k));
    }
    goldens
}

/// The core battery: writer publishes `batches` through the shard while
/// `READERS` threads pin snapshots and verify every observed answer
/// checksum against the golden of the snapshot's own epoch.
#[allow(clippy::too_many_arguments)]
fn shard_atomicity<T: CheckCoord, const D: usize>(
    label: &str,
    factory: IndexFactory<T, D>,
    region: Rect<T, D>,
    initial: Vec<Point<T, D>>,
    batches: Vec<Batch<T, D>>,
    queries: Vec<Point<T, D>>,
    rects: Vec<Rect<T, D>>,
    k: usize,
) {
    const READERS: usize = 3;
    let goldens = Arc::new(golden_epochs(
        &factory, &initial, &batches, &queries, &rects, k,
    ));
    let shard = Arc::new(Shard::new(region, &factory, &initial));
    let done = Arc::new(AtomicBool::new(false));

    let queries = Arc::new(queries);
    let rects = Arc::new(rects);
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let shard = Arc::clone(&shard);
            let goldens = Arc::clone(&goldens);
            let done = Arc::clone(&done);
            let queries = Arc::clone(&queries);
            let rects = Arc::clone(&rects);
            let label = label.to_string();
            std::thread::spawn(move || {
                let mut observations = 0usize;
                let mut last_epoch = 0u64;
                let mut distinct = std::collections::BTreeSet::new();
                loop {
                    let finishing = done.load(Ordering::Acquire);
                    let pin = shard.pin();
                    let epoch = pin.epoch();
                    assert!(
                        epoch >= last_epoch,
                        "{label}: reader saw epoch {epoch} after {last_epoch}"
                    );
                    last_epoch = epoch;
                    let got = answers_checksum(pin.index(), &queries, &rects, k);
                    assert_eq!(
                        got, goldens[epoch as usize],
                        "{label}: reader observed a torn epoch {epoch} \
                         (answer checksum matches no published state)"
                    );
                    observations += 1;
                    distinct.insert(epoch);
                    if finishing {
                        break;
                    }
                }
                (observations, distinct)
            })
        })
        .collect();

    for (del, ins) in &batches {
        shard.publish(del, ins);
        // Give readers a window to pin this epoch before the next publish.
        std::thread::sleep(std::time::Duration::from_micros(300));
    }
    done.store(true, Ordering::Release);
    for r in readers {
        let (observations, distinct) = r.join().expect("reader thread");
        assert!(observations > 0, "{label}: reader made no observations");
        // The final pin (after `done`) must see the last epoch published.
        assert!(
            distinct.contains(&(batches.len() as u64)),
            "{label}: final epoch never observed"
        );
    }
    assert_eq!(shard.epoch(), batches.len() as u64, "{label}");
}

/// Build the move-style batch list: each batch deletes a slice of the live
/// set and inserts replacement points, so every epoch has distinct answers.
fn i64_batches<const D: usize>(
    data: &[PointI<D>],
    rounds: usize,
    per: usize,
    max: i64,
) -> Vec<Batch<i64, D>> {
    (0..rounds)
        .map(|r| {
            let lo = (r * per) % (data.len() - per);
            let del = data[lo..lo + per].to_vec();
            let ins = workloads::uniform::<D>(per, max, 9_000 + r as u64);
            (del, ins)
        })
        .collect()
}

fn i64_factory(family: &'static str, leaf: Option<usize>) -> IndexFactory<i64, 2> {
    let opts = BuildOptions {
        leaf_size: leaf,
        ..Default::default()
    };
    Arc::new(move |pts: &[PointI<2>]| {
        registry::create::<2>(family, pts, &opts).expect("registry family builds")
    })
}

fn f64_factory(family: &'static str) -> IndexFactory<f64, 2> {
    Arc::new(move |pts: &[Point<f64, 2>]| {
        registry::create_f64::<2>(family, pts, &BuildOptions::default())
            .expect("float registry family builds")
    })
}

fn to_f64_point<const D: usize>(p: &PointI<D>) -> Point<f64, D> {
    Point::new(p.coords.map(|c| c as f64))
}

/// One full battery pass: ≥3 families in i64 and in f64.
fn battery() {
    let max = 1_000_000i64;
    let data = workloads::varden::<2>(1_400, max, 77);
    let queries = workloads::ind_queries(&data, 12, 78);
    let rects = workloads::range_queries(&data, max, 40, 6, 79);
    let batches = i64_batches(&data, 10, 120, max);
    let region = workloads::universe::<2>(max);
    let k = 6;

    for family in ["p-orth", "spac-h", "zd"] {
        shard_atomicity(
            &format!("i64/{family}"),
            i64_factory(family, Some(32)),
            region,
            data.clone(),
            batches.clone(),
            queries.clone(),
            rects.clone(),
            k,
        );
    }

    // f64: the natively-float families plus an SFC family through the
    // quantising adapter (integer-valued floats → exact).
    let fdata: Vec<Point<f64, 2>> = data.iter().map(to_f64_point).collect();
    let fqueries: Vec<Point<f64, 2>> = queries.iter().map(to_f64_point).collect();
    let frects: Vec<Rect<f64, 2>> = rects
        .iter()
        .map(|r| Rect::from_corners(to_f64_point(&r.lo), to_f64_point(&r.hi)))
        .collect();
    let fbatches: Vec<Batch<f64, 2>> = batches
        .iter()
        .map(|(d, i)| {
            (
                d.iter().map(to_f64_point).collect(),
                i.iter().map(to_f64_point).collect(),
            )
        })
        .collect();
    let fregion = Rect::from_corners(Point::new([0.0, 0.0]), Point::new([max as f64, max as f64]));
    for family in ["p-orth", "pkd", "spac-h"] {
        shard_atomicity(
            &format!("f64/{family}"),
            f64_factory(family),
            fregion,
            fdata.clone(),
            fbatches.clone(),
            fqueries.clone(),
            frects.clone(),
            k,
        );
    }
}

#[test]
fn epoch_atomicity_default_pool() {
    battery();
}

#[test]
fn epoch_atomicity_one_thread_pool() {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap()
        .install(battery);
}

#[test]
fn epoch_atomicity_four_thread_pool() {
    rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .unwrap()
        .install(battery);
}

/// Sharded variant: two stripes, batches and queries confined to one stripe
/// each, so a per-shard snapshot's answers must match that shard's own
/// epoch golden — across shards, views are per-shard consistent.
#[test]
fn router_stripe_epochs_are_atomic() {
    let max = 1_000_000i64;
    let half = max / 2;
    let universe = workloads::universe::<2>(max);
    let data = workloads::uniform::<2>(2_000, max, 5);
    let factory = i64_factory("spac-h", None);
    let router = Arc::new(Router::new(&factory, &data, &universe, 2));

    // Stripe-confined query mixes and batch streams.
    let stripe_pts = |lo: i64, hi: i64, n: usize, seed: u64| -> Vec<PointI<2>> {
        workloads::uniform::<2>(n, hi - lo - 1, seed)
            .into_iter()
            .map(|p| Point::new([p.coords[0] + lo, p.coords[1]]))
            .collect()
    };
    let mixes: Vec<(Vec<PointI<2>>, Vec<Rect<i64, 2>>)> = [(0i64, half), (half, max)]
        .iter()
        .map(|&(lo, hi)| {
            let qs = stripe_pts(lo, hi, 10, 31 + lo as u64);
            let rects: Vec<Rect<i64, 2>> = stripe_pts(lo, hi, 8, 47 + lo as u64)
                .into_iter()
                .map(|p| {
                    let side = 60_000;
                    Rect::from_corners(
                        Point::new([p.coords[0].clamp(lo, hi - 1), (p.coords[1] - side).max(0)]),
                        Point::new([
                            (p.coords[0] + side).clamp(lo, hi - 1),
                            (p.coords[1] + side).min(max),
                        ]),
                    )
                })
                .collect();
            (qs, rects)
        })
        .collect();
    let batches: Vec<(usize, Vec<PointI<2>>)> = (0..12)
        .map(|r| {
            let stripe = r % 2;
            let (lo, hi) = if stripe == 0 { (0, half) } else { (half, max) };
            (stripe, stripe_pts(lo, hi, 50, 100 + r as u64))
        })
        .collect();

    // Offline per-shard goldens: shard s sees only stripe-s batches.
    let k = 5;
    let mut goldens: Vec<Vec<u64>> = Vec::new();
    for (stripe, (qs, rects)) in mixes.iter().enumerate() {
        let initial: Vec<PointI<2>> = data
            .iter()
            .copied()
            .filter(|p| (router.shard_of(p)) == stripe)
            .collect();
        let mut replica = factory(&initial);
        let mut g = vec![answers_checksum(&*replica, qs, rects, k)];
        for (s, ins) in &batches {
            if *s == stripe {
                replica.batch_insert(ins);
                g.push(answers_checksum(&*replica, qs, rects, k));
            }
        }
        goldens.push(g);
    }

    let done = Arc::new(AtomicBool::new(false));
    let mixes = Arc::new(mixes);
    let goldens = Arc::new(goldens);
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let router = Arc::clone(&router);
            let done = Arc::clone(&done);
            let mixes = Arc::clone(&mixes);
            let goldens = Arc::clone(&goldens);
            std::thread::spawn(move || loop {
                let finishing = done.load(Ordering::Acquire);
                let view = router.pin();
                for (stripe, (qs, rects)) in mixes.iter().enumerate() {
                    let got = answers_checksum(view.snapshot(stripe).index(), qs, rects, k);
                    let epoch = view.snapshot(stripe).epoch() as usize;
                    assert_eq!(
                        got, goldens[stripe][epoch],
                        "stripe {stripe} epoch {epoch} torn"
                    );
                }
                if finishing {
                    break;
                }
            })
        })
        .collect();

    for (_, ins) in &batches {
        router.publish(&[], ins);
        std::thread::sleep(std::time::Duration::from_micros(300));
    }
    done.store(true, Ordering::Release);
    for r in readers {
        r.join().expect("reader thread");
    }
    assert_eq!(router.pin().epochs(), vec![6, 6]);
    assert_eq!(router.len(), data.len() + 12 * 50);
}

/// Time-travel goldens: a persistent (CPAM) router retains a bounded window
/// of global epochs, and "query as of epoch N" must answer **bit-identical**
/// to the offline replica of epoch N — the same golden-checksum oracle the
/// live battery uses — while everything outside the window is gone.
#[test]
fn persistent_time_travel_matches_per_epoch_goldens() {
    let max = 1_000_000i64;
    let data = workloads::varden::<2>(1_400, max, 81);
    let queries = workloads::ind_queries(&data, 12, 82);
    let rects = workloads::range_queries(&data, max, 40, 6, 83);
    let batches = i64_batches(&data, 12, 120, max);
    let universe = workloads::universe::<2>(max);
    let k = 6;

    let factory = i64_factory("cpam-h", Some(32));
    let goldens = golden_epochs(&factory, &data, &batches, &queries, &rects, k);
    let router = Router::with_history(&factory, &data, &universe, 1, 8);
    assert!(router.is_persistent(), "cpam-h serves persistent snapshots");
    for (del, ins) in &batches {
        router.publish(del, ins);
    }

    // 13 states (epoch 0 + 12 publishes), window of 8: epochs 5..=12 stay.
    assert_eq!(router.epoch_bounds(), Some((5, 12)), "eviction bound");
    for e in 0..5u64 {
        assert!(router.pin_at(e).is_none(), "epoch {e} must be evicted");
    }
    assert!(router.pin_at(13).is_none(), "future epoch");
    for e in 5..=12u64 {
        let view = router.pin_at(e).expect("epoch inside the window");
        let got = answers_checksum(view.snapshot(0).index(), &queries, &rects, k);
        assert_eq!(
            got, goldens[e as usize],
            "time-travel answers for epoch {e} drifted from the golden"
        );
    }
}

/// The same epoch answers through ψ-net: a wire client's epoch-pinned
/// queries must return byte-for-byte what an in-process view of that epoch
/// returns, on both socket transports; an evicted epoch is a typed
/// per-request failure that leaves the connection usable.
#[test]
fn time_travel_over_the_socket_matches_in_process() {
    use psi_net::client::WireClient;
    use psi_net::{loopback, NetConfig, NetServer, Transport};
    use psi_server::{Answer, PsiServer, Query, ServeConfig};

    let max = 1_000_000i64;
    let data = workloads::uniform::<2>(1_500, max, 91);
    let universe = workloads::universe::<2>(max);
    let server = Arc::new(PsiServer::new(
        &data,
        &universe,
        ServeConfig {
            shards: 2,
            epoch_history: 4,
            ..Default::default()
        },
        i64_factory("cpam-h", None),
    ));
    for r in 0..6usize {
        let del = data[r * 40..r * 40 + 40].to_vec();
        let ins = workloads::uniform::<2>(40, max, 300 + r as u64);
        server.submit(del, ins);
    }
    server.quiesce();
    assert_eq!(server.epoch(), 6);

    let queries = workloads::ind_queries(&data, 8, 92);
    let rects = workloads::range_queries(&data, max, 40, 5, 93);
    let k = 6;
    let at = |e: u64, query: Query<i64, 2>| Query {
        at: Some(e),
        ..query
    };
    for transport in [Transport::Threaded, Transport::Evented] {
        let net = NetServer::spawn(Arc::clone(&server), loopback(), NetConfig { transport })
            .expect("bind loopback");
        let mut client: WireClient<i64, 2> = WireClient::connect(net.addr()).expect("connect");
        for e in 3..=6u64 {
            let view = server.view_at(e).expect("epoch inside the window");
            let want_knn = view.knn_batch(&queries, k);
            for (q, want) in queries.iter().zip(&want_knn) {
                let got = client.query(at(e, Query::knn(*q, k))).expect("I/O");
                assert_eq!(
                    got,
                    Answer::Points(want.clone()),
                    "socket knn@{e} differs from in-process"
                );
            }
            for rect in &rects {
                assert_eq!(
                    client.query(at(e, Query::range_count(*rect))).expect("I/O"),
                    Answer::Count(view.range_count(rect)),
                    "socket range_count@{e}"
                );
                let mut got = client
                    .query(at(e, Query::range_list(*rect)))
                    .expect("I/O")
                    .points()
                    .expect("epoch inside the window");
                let mut want = view.range_list(rect);
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "socket range_list@{e}");
            }
        }
        // Evicted / future epochs: ERR_EPOCH is per-request, not fatal —
        // for k = 0 too, since the epoch is checked before k.
        let gone = [
            at(0, Query::knn(queries[0], 3)),
            at(99, Query::range_count(rects[0])),
            at(0, Query::knn(queries[0], 0)),
            at(99, Query::knn(queries[0], 0)),
        ];
        for query in gone {
            let got = client.query(query).expect("I/O");
            assert_eq!(got, Answer::EpochGone, "{}: {query:?}", transport.name());
        }
        let empty = client.query(Query::knn(queries[0], 0)).expect("I/O");
        assert_eq!(
            empty,
            Answer::Points(Vec::new()),
            "k = 0 now is an empty list"
        );
        let alive = client.knn(&queries[0], 3).expect("connection stays open");
        assert_eq!(alive.len(), 3);
        net.shutdown();
    }
}
