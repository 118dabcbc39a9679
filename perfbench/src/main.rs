//! The benchmark of record for Ψ-Lib-rs.
//!
//! ```text
//! psi-perfbench --workload <index-churn|serve-read|serve-write> --seed <n>
//!               --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the run's host, notes and every metric with its unit, then, as the
//! last line, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` the workload runs twice, untraced then traced, and the
//! metrics are the per-layer ones plus the tracing overhead (traced minus
//! untraced, per end-to-end metric). Spans of a traced run are written to
//! `perfbench/out/`. Exits 0 only when every answer was right and the load
//! generator kept to its schedule.

mod churn;
mod serve;
mod stats;
mod trace;

use stats::{metric, Metric};
use std::path::PathBuf;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one pass of a workload produced.
pub struct Outcome {
    /// Answers and operations checked.
    pub attempted: u64,
    /// Wrong, refused, timed-out or failed operations among them.
    pub failed: u64,
    /// `false` when the run cannot be trusted (the generator fell behind,
    /// or a tail percentile lacks samples).
    pub valid: bool,
    /// Canonical hash of the answers a seed determines.
    pub checksum: u64,
    pub notes: Vec<String>,
    pub e2e: Vec<Metric>,
    pub layers: Vec<Metric>,
    pub tracer: trace::Tracer,
}

pub const WORKLOADS: [&str; 3] = ["index-churn", "serve-read", "serve-write"];

/// Every per-layer metric a traced run reports, with its unit. A layer the
/// workload bypasses reports 0: it spends no time and does no work there.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("setup.wall_s", "s"),
    ("read.p50_ms", "ms"),
    ("read.kqps", "kq/s"),
    ("read.sat_cpu_us", "us"),
    ("write.p50_ms", "ms"),
    ("read.p90_ms", "ms"),
    ("write.p90_ms", "ms"),
    ("read.p99_ms", "ms"),
    ("write.p99_ms", "ms"),
    ("write.sat_p50_ms", "ms"),
    ("host.steal_pct", "%"),
    ("spac.insert_ms", "ms"),
    ("spac.delete_ms", "ms"),
    ("spac.knn_batch_ms", "ms"),
    ("spac.range_list_batch_ms", "ms"),
    ("spac.update_mpts_s", "Mpt/s"),
    ("spac.knn_kqps", "kq/s"),
    ("spac.range_kqps", "kq/s"),
    ("parutils.points_moved_per_pt", "count"),
    ("sfc.codes_per_pt", "count"),
    ("spac.leaves_sorted_per_batch", "count"),
    ("spac.rebalances_per_batch", "count"),
    ("spac.nodes_visited_per_query", "count"),
    ("net.self_us", "us"),
    ("net.wire.encode_ns", "ns"),
    ("net.wire.decode_ns", "ns"),
    ("net.protocol_errors", "count"),
    ("read.knn_p50_ms", "ms"),
    ("read.count_p50_ms", "ms"),
    ("read.list_p50_ms", "ms"),
    ("coalesce.self_us", "us"),
    ("coalesce.factor_fixed", "ratio"),
    ("coalesce.factor_sat", "ratio"),
    ("router.self_us", "us"),
    ("router.pin_us", "us"),
    ("porth.query_us", "us"),
    ("porth.nodes_visited_per_query", "count"),
    ("shard.publish_p50_ms", "ms"),
    ("shard.publish_p99_ms", "ms"),
    ("porth.batch_diff_ms", "ms"),
    ("wal.append_us", "us"),
    ("wal.fsync_us", "us"),
    ("wal.bytes_per_point", "B"),
    ("server.queue_wait_ms", "ms"),
    ("server.recover_s", "s"),
    ("net.batch_ack_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.busy_retries", "count"),
];

fn usage() -> ! {
    eprintln!(
        "usage: psi-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) || args.seconds.is_nan() || args.seconds <= 0.0
    {
        usage();
    }
    args
}

fn run(args: &Args, tracing: bool) -> Outcome {
    match args.workload.as_str() {
        "index-churn" => churn::run(args, tracing),
        "serve-read" => serve::run(args, false, tracing),
        "serve-write" => serve::run(args, true, tracing),
        _ => unreachable!("workload names are checked in parse_args"),
    }
}

fn print_metrics(label: &str, metrics: &[Metric]) {
    for m in metrics {
        println!("{label} {:<32} {:>14.6} {}", m.name, m.value, m.unit);
    }
}

fn main() {
    let args = parse_args();
    println!("{{{}}}", psi_bench::host_meta_json().replace('\n', ""));
    println!(
        "workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );

    let (outcome, reported, attempted, failed, valid) = if args.trace {
        let plain = run(&args, false);
        let traced = run(&args, true);
        print_metrics("untraced", &plain.e2e);
        print_metrics("traced  ", &traced.e2e);
        let mut layers = Vec::new();
        for (name, unit) in LAYER_METRICS {
            let value = traced
                .layers
                .iter()
                .find(|m| m.name == *name)
                .map_or(0.0, |m| m.value);
            layers.push(metric(*name, value, unit));
        }
        // Memory is measured on a process's first set-up only, so the
        // second pass has no comparable figure.
        for (t, u) in traced
            .e2e
            .iter()
            .zip(&plain.e2e)
            .filter(|(t, _)| t.name != "mem_mb")
        {
            let name = format!("trace.overhead.{}", t.name);
            layers.push(metric(name, t.value - u.value, t.unit));
        }
        let same = plain.checksum == traced.checksum;
        if !same {
            eprintln!("checksums differ between the untraced and the traced pass");
        }
        let attempted = plain.attempted + traced.attempted + 1;
        let failed = plain.failed + traced.failed + u64::from(!same);
        let valid = plain.valid && traced.valid;
        (traced, layers, attempted, failed, valid)
    } else {
        let o = run(&args, false);
        let e2e = o.e2e.clone();
        let (a, f, v) = (o.attempted, o.failed, o.valid);
        (o, e2e, a, f, v)
    };

    for n in &outcome.notes {
        println!("{n}");
    }
    print_metrics("metric", &reported);
    if !args.trace {
        // Figures an untraced pass measures anyway, reported but not gated.
        print_metrics("info  ", &outcome.layers);
    }
    println!("checksum={:016x}", outcome.checksum);
    println!(
        "attempted={attempted} failed={failed} failed_frac={:.6} valid={valid}",
        failed as f64 / attempted.max(1) as f64
    );
    if args.trace {
        let path = PathBuf::from("perfbench/out")
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match outcome.tracer.write_jsonl(&path) {
            Ok(()) => println!(
                "spans={} written to {}",
                outcome.tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("cannot write spans to {}: {e}", path.display()),
        }
    }
    let correct = failed == 0 && valid;
    println!(
        "{}",
        stats::result_line(correct, attempted, failed, &reported)
    );
    std::process::exit(if correct { 0 } else { 1 });
}
