//! Granularity control on the update and build recursions: a batch no larger
//! than `SEQ_THRESHOLD` runs entirely on the caller and hands no job to the
//! worker pool, while a large batch still forks.

use psi_geometry::{Point, PointI, Rect};
use psi_porth::POrthTree;
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng as _};

const MAX: i64 = 1_000_000;

/// `n` points drawn uniformly from `[lo, hi)^2`.
fn random_points(n: usize, seed: u64, lo: i64, hi: i64) -> Vec<PointI<2>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Point::new([rng.gen_range(lo..hi), rng.gen_range(lo..hi)]))
        .collect()
}

#[test]
fn small_batches_submit_no_pool_jobs_and_large_ones_do() {
    let jobs = psi_obs::counter(
        "psi_pool_jobs_total",
        "par_* jobs split across pool participants (jobs run inline on the caller are not counted)",
        &[],
    );
    let universe = Rect::from_corners(Point::new([0, 0]), Point::new([MAX, MAX]));
    let mut tree = POrthTree::build_with_universe(&random_points(50_000, 1, 0, MAX), universe);
    // Half of the small batch is spread out, half lands in one leaf, which
    // overflows and is rebuilt: both the update and the build recursion run.
    let mut small = random_points(100, 2, 0, MAX);
    small.extend(random_points(100, 3, 500_000, 501_000));
    let large = random_points(20_000, 4, 0, MAX);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .unwrap();
    pool.install(|| {
        let ((), small_jobs) = jobs.scoped(|| {
            tree.batch_insert(&small);
            assert_eq!(tree.batch_delete(&small), small.len());
        });
        assert_eq!(small_jobs, 0, "a 200-point batch must not use the pool");

        let ((), large_jobs) = jobs.scoped(|| tree.batch_insert(&large));
        assert!(large_jobs > 0, "a 20k-point batch must fork");
    });
    tree.check_invariants();
    assert_eq!(tree.len(), 70_000);
}
