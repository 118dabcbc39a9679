//! `index-churn`: the paper's small-batch update protocol on its skewed
//! distribution, in process, through `psi::registry` with no server.
//!
//! Set-up builds SPaC-H over the first half of a varden dataset. Each cycle
//! then inserts the next 0.1 % of the points, deletes the oldest 0.1 %, and
//! answers a kNN batch and a range-list batch. The live window slides round
//! the dataset, so a run may last any number of cycles.
//!
//! The gated figures are the process's CPU time per query and per point
//! inserted or deleted; the wall-clock times are reported beside them.

use crate::stats::{self, metric, SplitMix};
use crate::trace::Tracer;
use crate::{Args, Outcome};
use psi::registry::{self, BuildOptions, DynIndex};
use psi::{PointI, RectI};
use psi_parutils::stats as counters;
use std::hint::black_box;
use std::time::Instant;

const N: usize = 2_000_000;
const LIVE: usize = 1_000_000;
const MAX_COORD: i64 = 1_000_000_000;
const BATCH: usize = 2_000;
const KNN_PER_CYCLE: usize = 500;
const K: usize = 10;
const RANGES_PER_CYCLE: usize = 50;
const RANGE_TARGET: usize = 100;
const KNN_POOL: usize = KNN_PER_CYCLE * 16;
const RANGE_POOL: usize = RANGES_PER_CYCLE * 20;
const WARMUP_CYCLES: usize = 10;
/// Timed cycles a run makes at least, so the query-step p99 (one sample a
/// cycle) has ten samples beyond it.
const MIN_CYCLES: usize = 1_000;
/// Cycles (counted from the first warm-up cycle) whose answers feed the
/// checksum: a fixed prefix, so the checksum does not depend on how many
/// cycles the time allowed.
const CHECKSUM_CYCLES: usize = WARMUP_CYCLES + MIN_CYCLES;
/// Set-ups timed per run, and how many of them come before the timed
/// cycles (the rest follow them, so one burst of host load moves fewer).
const SETUP_REPS: usize = 9;
const SETUP_REPS_BEFORE: usize = 5;
/// Final-state queries compared with the brute-force oracle.
const ORACLE_KNN: usize = 64;
const ORACLE_RANGES: usize = 32;

const FAMILY: &str = "spac-h";

fn build(points: &[PointI<2>]) -> Box<dyn DynIndex<i64, 2>> {
    let opts = BuildOptions::with_universe(psi_workloads::universe::<2>(MAX_COORD));
    registry::create::<2>(FAMILY, points, &opts).expect("spac-h is a registered family")
}

/// Squares holding about [`RANGE_TARGET`] points each, sized from the
/// distance to the centre's `RANGE_TARGET`-th neighbour in the initial
/// window, since varden's density varies too much for one fixed side.
fn range_pool(index: &dyn DynIndex<i64, 2>, data: &[PointI<2>], seed: u64) -> Vec<RectI<2>> {
    let centres = psi_workloads::ind_queries(&data[..LIVE], RANGE_POOL, seed);
    index
        .knn_batch(&centres, RANGE_TARGET)
        .iter()
        .zip(&centres)
        .map(|(nn, c)| {
            let far = nn.last().expect("the window holds many points");
            stats::square_around(c, c.dist_sq(far), MAX_COORD)
        })
        .collect()
}

/// The points inserted and deleted by cycle `c`.
fn cycle_slices(data: &[PointI<2>], c: usize) -> (&[PointI<2>], &[PointI<2>]) {
    let ins = (LIVE + c * BATCH) % N;
    let del = (c * BATCH) % N;
    (&data[ins..ins + BATCH], &data[del..del + BATCH])
}

/// The live window after `cycles` cycles.
fn live_window(data: &[PointI<2>], cycles: usize) -> Vec<PointI<2>> {
    let start = (cycles * BATCH) % N;
    (0..LIVE).map(|i| data[(start + i) % N]).collect()
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("index-churn: wrong answer: {what}");
            }
        }
    }
}

pub fn run(args: &Args, tracing: bool) -> Outcome {
    let data = psi_workloads::varden::<2>(N, MAX_COORD, args.seed);
    let knn_pool = psi_workloads::ind_queries(&data, KNN_POOL, args.seed ^ 0x5eed);

    // Set-up: build the index over the first window, several times before
    // the timed cycles and the rest after them; the last build before them
    // is the one the run uses.
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let rss0 = stats::rss_mib();
    let (mut index, t) = stats::time_setup(|| build(&data[..LIVE]));
    let mem_mb = stats::rss_mib() - rss0;
    setup.push(t);
    for _ in 1..SETUP_REPS_BEFORE {
        drop(index);
        let (built, t) = stats::time_setup(|| build(&data[..LIVE]));
        setup.push(t);
        index = built;
    }
    let rects = range_pool(index.as_ref(), &data, args.seed ^ 0xbeef);

    let origin = Instant::now();
    let mut tr = Tracer::new(tracing, 1, origin);
    let mut tally = Tally::default();
    let mut checksum = stats::FNV_OFFSET;
    let mut update_ms = Vec::new();
    let mut insert_ms = Vec::new();
    let mut delete_ms = Vec::new();
    let mut knn_ms = Vec::new();
    let mut range_ms = Vec::new();
    let mut query_ms = Vec::new();
    // CPU time per point of each update batch and per query of each query
    // step, microseconds.
    let mut write_cpu_us = Vec::new();
    let mut read_cpu_us = Vec::new();
    let mut update_counts = counters::Snapshot::default();
    let mut query_counts = counters::Snapshot::default();

    let budget = args.seconds;
    let mut timed_from = None;
    let mut c = 0usize;
    loop {
        if c == WARMUP_CYCLES {
            timed_from = Some((Instant::now(), stats::CpuTicks::now()));
        }
        if let Some((t0, _)) = timed_from {
            if c >= WARMUP_CYCLES + MIN_CYCLES && t0.elapsed().as_secs_f64() >= budget {
                break;
            }
        }
        let timed = c >= WARMUP_CYCLES;
        let (ins, del) = cycle_slices(&data, c);

        let span = tr.now();
        let before = counters::snapshot();
        let cpu0 = stats::process_cpu_ns();
        let t = Instant::now();
        index.batch_insert(ins);
        let ti = t.elapsed().as_secs_f64() * 1e3;
        let cpu1 = stats::process_cpu_ns();
        tr.close("spac.insert", span, 0, c as u64);
        let span = tr.now();
        let t = Instant::now();
        let removed = index.batch_delete(del);
        let td = t.elapsed().as_secs_f64() * 1e3;
        let cpu2 = stats::process_cpu_ns();
        tr.close("spac.delete", span, 0, c as u64);
        let after = counters::snapshot();
        tally.check(removed == BATCH, "a delete batch missed live points");

        let q0 = (c * KNN_PER_CYCLE) % KNN_POOL;
        let queries = &knn_pool[q0..q0 + KNN_PER_CYCLE];
        let r0 = (c * RANGES_PER_CYCLE) % RANGE_POOL;
        let boxes = &rects[r0..r0 + RANGES_PER_CYCLE];
        let span = tr.now();
        let cpu3 = stats::process_cpu_ns();
        let t = Instant::now();
        let knn = black_box(index.knn_batch(black_box(queries), K));
        let tk = t.elapsed().as_secs_f64() * 1e3;
        tr.close("spac.knn_batch", span, 0, c as u64);
        let span = tr.now();
        let t = Instant::now();
        let lists = black_box(index.range_list_batch(black_box(boxes)));
        let tl = t.elapsed().as_secs_f64() * 1e3;
        let cpu4 = stats::process_cpu_ns();
        tr.close("spac.range_list_batch", span, 0, c as u64);
        let done = counters::snapshot();

        for (q, ans) in queries.iter().zip(&knn) {
            let sorted = ans.windows(2).all(|w| q.dist_sq(&w[0]) <= q.dist_sq(&w[1]));
            tally.check(
                ans.len() == K && sorted,
                "a kNN answer is short or unsorted",
            );
            if c < CHECKSUM_CYCLES {
                checksum = stats::fnv(checksum, &stats::hash_knn(q, ans).to_le_bytes());
            }
        }
        for (r, ans) in boxes.iter().zip(&lists) {
            tally.check(
                ans.iter().all(|p| r.contains(p)),
                "a range list holds a point outside its box",
            );
            if c < CHECKSUM_CYCLES {
                checksum = stats::fnv(checksum, &stats::hash_points(ans).to_le_bytes());
            }
        }

        if timed {
            insert_ms.push(ti);
            delete_ms.push(td);
            update_ms.push(ti);
            update_ms.push(td);
            knn_ms.push(tk);
            range_ms.push(tl);
            query_ms.push(tk + tl);
            let per_point = |ns: u64| ns as f64 / 1e3 / BATCH as f64;
            write_cpu_us.push(per_point(cpu1 - cpu0));
            write_cpu_us.push(per_point(cpu2 - cpu1));
            read_cpu_us
                .push((cpu4 - cpu3) as f64 / 1e3 / (KNN_PER_CYCLE + RANGES_PER_CYCLE) as f64);
            let u = counters::delta(before, after);
            let q = counters::delta(after, done);
            add(&mut update_counts, &u);
            add(&mut query_counts, &q);
        }
        c += 1;
    }
    let cycles = c - WARMUP_CYCLES;
    let (_, ticks) = timed_from.expect("the run has timed cycles");
    let steal_pct = stats::CpuTicks::now().steal_pct_since(&ticks);

    // Final state against the brute-force oracle over the same window.
    tally.check(index.len() == LIVE, "the live count drifted");
    let oracle = registry::create::<2>(
        "brute-force",
        &live_window(&data, c),
        &BuildOptions::default(),
    )
    .expect("brute-force is a registered family");
    let mut rng = SplitMix::new(args.seed ^ 0x0AC1E);
    for _ in 0..ORACLE_KNN {
        let q = knn_pool[(rng.next_u64() % KNN_POOL as u64) as usize];
        tally.check(
            stats::hash_knn(&q, &index.knn(&q, K)) == stats::hash_knn(&q, &oracle.knn(&q, K)),
            "final-state kNN disagrees with brute force",
        );
    }
    for _ in 0..ORACLE_RANGES {
        let r = rects[(rng.next_u64() % RANGE_POOL as u64) as usize];
        tally.check(
            stats::hash_points(&index.range_list(&r)) == stats::hash_points(&oracle.range_list(&r)),
            "final-state range list disagrees with brute force",
        );
    }
    drop((index, oracle));
    while setup.len() < SETUP_REPS {
        setup.push(stats::time_setup(|| build(&data[..LIVE])).1);
    }

    let update_sorted = stats::sorted(update_ms.clone());
    let query_sorted = stats::sorted(query_ms.clone());
    let update_total_s: f64 = update_ms.iter().sum::<f64>() / 1e3;
    let knn_total_s: f64 = knn_ms.iter().sum::<f64>() / 1e3;
    let range_total_s: f64 = range_ms.iter().sum::<f64>() / 1e3;
    let queries = (cycles * (KNN_PER_CYCLE + RANGES_PER_CYCLE)) as f64;

    let (setup_s, setup_wall_s) = stats::setup_metrics(&setup);
    let e2e = vec![
        setup_s,
        metric("mem_mb", mem_mb, "MiB"),
        metric("read_cpu_us", stats::median(&read_cpu_us), "us"),
        metric("write_cpu_us", stats::median(&write_cpu_us), "us"),
    ];

    let batches = (2 * cycles) as f64;
    let points = (2 * cycles * BATCH) as f64;
    let mut layers = vec![
        setup_wall_s,
        metric("read.p50_ms", stats::median(&query_ms), "ms"),
        metric("read.p90_ms", stats::percentile(&query_sorted, 0.9), "ms"),
        metric(
            "read.p99_ms",
            stats::chunked_p99(&query_ms, stats::P99_CHUNK),
            "ms",
        ),
        metric(
            "read.kqps",
            queries / (query_ms.iter().sum::<f64>() / 1e3) / 1e3,
            "kq/s",
        ),
        metric("write.p50_ms", stats::median(&update_ms), "ms"),
        metric("write.p90_ms", stats::percentile(&update_sorted, 0.9), "ms"),
        metric(
            "write.p99_ms",
            stats::chunked_p99(&update_ms, stats::P99_CHUNK),
            "ms",
        ),
        metric("host.steal_pct", steal_pct, "%"),
        metric("spac.update_mpts_s", points / update_total_s / 1e6, "Mpt/s"),
        metric(
            "spac.knn_kqps",
            (cycles * KNN_PER_CYCLE) as f64 / knn_total_s / 1e3,
            "kq/s",
        ),
        metric(
            "spac.range_kqps",
            (cycles * RANGES_PER_CYCLE) as f64 / range_total_s / 1e3,
            "kq/s",
        ),
        metric(
            "parutils.points_moved_per_pt",
            update_counts.points_moved as f64 / points,
            "count",
        ),
        metric(
            "sfc.codes_per_pt",
            update_counts.codes_computed as f64 / points,
            "count",
        ),
        metric(
            "spac.leaves_sorted_per_batch",
            update_counts.leaves_sorted as f64 / batches,
            "count",
        ),
        metric(
            "spac.rebalances_per_batch",
            update_counts.rebalances as f64 / batches,
            "count",
        ),
        metric(
            "spac.nodes_visited_per_query",
            query_counts.nodes_visited as f64 / queries,
            "count",
        ),
    ];
    if tracing {
        for (name, span) in [
            ("spac.insert_ms", "spac.insert"),
            ("spac.delete_ms", "spac.delete"),
            ("spac.knn_batch_ms", "spac.knn_batch"),
            ("spac.range_list_batch_ms", "spac.range_list_batch"),
        ] {
            layers.push(metric(name, stats::median(&tr.durations(span)) / 1e6, "ms"));
        }
    }

    let tail_ok = stats::supported_tail(update_ms.len()).is_some_and(|q| q >= 0.99)
        && stats::supported_tail(query_ms.len()).is_some_and(|q| q >= 0.99);
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        valid: tail_ok,
        checksum,
        notes: vec![
            format!("family={FAMILY} n={N} live={LIVE} batch={BATCH} cycles={cycles}"),
            format!(
                "update batches={} query steps={} insert p50={:.3} ms delete p50={:.3} ms",
                update_ms.len(),
                query_ms.len(),
                stats::median(&insert_ms),
                stats::median(&delete_ms)
            ),
        ],
        e2e,
        layers,
        tracer: tr,
    }
}

fn add(total: &mut counters::Snapshot, d: &counters::Snapshot) {
    total.points_moved += d.points_moved;
    total.nodes_visited += d.nodes_visited;
    total.leaves_sorted += d.leaves_sorted;
    total.codes_computed += d.codes_computed;
    total.rebalances += d.rebalances;
    total.nodes_copied += d.nodes_copied;
}
