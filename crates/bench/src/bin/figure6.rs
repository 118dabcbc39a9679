//! Figure 6 — operations on the real-world datasets.
//!
//! The paper uses COSMO (317M 3-D points) and OSM North America (776M 2-D
//! points); this repository substitutes the synthetic stand-ins
//! `workloads::cosmo_like` and `workloads::osm_like` that reproduce their
//! clustering structure (see the `psi-workloads` crate docs,
//! `crates/workloads/src/lib.rs`). For each index: build time,
//! incremental insertion/deletion with 0.01% batches, 10-NN (InD) and
//! range-list query time after construction.
//!
//! Usage: `cargo run --release -p psi-bench --bin figure6 [-- --n 100000]`

use psi::driver::{incremental_delete, incremental_insert, timed_build, QuerySet};
use psi::{
    CpamHTree, CpamZTree, POrthTree, POrthTree2, PkdTree, PointI, RTree, SpacHTree, SpacZTree,
    SpatialIndex, ZdTree,
};
use psi_bench::{fmt_secs, BenchConfig};
use psi_workloads as workloads;

fn run<I: SpatialIndex<i64, D>, const D: usize>(name: &str, data: &[PointI<D>], cfg: &BenchConfig) {
    let universe = cfg.universe::<D>();
    let (build, index) = timed_build::<I, i64, D>(data, &universe);
    let qs = QuerySet {
        knn_ind: workloads::ind_queries(data, cfg.knn_queries, cfg.seed ^ 0x81),
        knn_ood: vec![],
        k: cfg.k,
        ranges: workloads::range_queries(
            data,
            cfg.max_coord,
            (data.len() / 100).max(10),
            cfg.range_queries,
            cfg.seed ^ 0x82,
        ),
    };
    let q = qs.run(&index);
    drop(index);
    let batch = ((data.len() as f64 * 0.0001).ceil() as usize).max(1);
    let (ins, _) = incremental_insert::<I, i64, D>(data, batch, &universe, None);
    let (del, _) = incremental_delete::<I, i64, D>(data, batch, &universe, None);
    println!(
        "{:<10} build={:>9} insert={:>9} delete={:>9} 10NN={:>9} rangeList={:>9}",
        name,
        fmt_secs(build),
        fmt_secs(ins.update_time),
        fmt_secs(del.update_time),
        fmt_secs(q.knn_ind),
        fmt_secs(q.range_list)
    );
}

fn main() {
    let cfg3 = BenchConfig::default_3d().from_args();
    println!(
        "# Figure 6: real-world stand-ins (cosmo_like 3-D n = {}, osm_like 2-D n = {})",
        cfg3.n,
        cfg3.n * 2
    );

    println!("\n== cosmo_like (3-D, clustered) ==");
    let cosmo = workloads::cosmo_like(cfg3.n, cfg3.max_coord, cfg3.seed);
    run::<POrthTree<3>, 3>("P-Orth", &cosmo, &cfg3);
    run::<ZdTree<3>, 3>("Zd-Tree", &cosmo, &cfg3);
    run::<SpacHTree<3>, 3>("SPaC-H", &cosmo, &cfg3);
    run::<SpacZTree<3>, 3>("SPaC-Z", &cosmo, &cfg3);
    run::<CpamHTree<3>, 3>("CPAM-H", &cosmo, &cfg3);
    run::<CpamZTree<3>, 3>("CPAM-Z", &cosmo, &cfg3);
    run::<RTree<3>, 3>("Boost-R", &cosmo, &cfg3);
    run::<PkdTree<3>, 3>("Pkd-Tree", &cosmo, &cfg3);

    println!("\n== osm_like (2-D, road-network-like) ==");
    let mut cfg2 = BenchConfig::default_2d().from_args();
    cfg2.n = cfg3.n * 2;
    let osm = workloads::osm_like(cfg2.n, cfg2.max_coord, cfg2.seed);
    run::<POrthTree2, 2>("P-Orth", &osm, &cfg2);
    run::<ZdTree<2>, 2>("Zd-Tree", &osm, &cfg2);
    run::<SpacHTree<2>, 2>("SPaC-H", &osm, &cfg2);
    run::<SpacZTree<2>, 2>("SPaC-Z", &osm, &cfg2);
    run::<CpamHTree<2>, 2>("CPAM-H", &osm, &cfg2);
    run::<CpamZTree<2>, 2>("CPAM-Z", &osm, &cfg2);
    run::<RTree<2>, 2>("Boost-R", &osm, &cfg2);
    run::<PkdTree<2>, 2>("Pkd-Tree", &osm, &cfg2);
}
