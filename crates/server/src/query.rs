//! The one query type and its one execution path.
//!
//! Every read the serving stack answers — in-process through
//! [`CoalesceHandle`](crate::CoalesceHandle) or
//! [`DirectHandle`](crate::DirectHandle), or decoded off a socket by
//! `psi-net` — is a [`Query`]: an [`Op`] plus an optional **"as of epoch N"**
//! pin. [`execute`] answers a slice of them the way the paper's indexes
//! want to be asked: it pins one view per distinct epoch and makes one
//! batched `RouterView` call per operation (per `k` for kNN), so the
//! worker-pool dispatch is amortised over the whole slice.

use crate::router::{Router, ServeCoord};
use psi_geometry::{Coord, Point, Rect};
use std::collections::BTreeMap;

/// What a [`Query`] asks for.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Op<T: Coord, const D: usize> {
    /// `k` nearest stored neighbours of a point, closest first.
    Knn(Point<T, D>, usize),
    /// Number of stored points in a closed box.
    RangeCount(Rect<T, D>),
    /// The stored points in a closed box (shard order).
    RangeList(Rect<T, D>),
}

/// One read: an operation, answered against the retained view of global
/// epoch `at` (time travel) or, for `None`, against the current view.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Query<T: Coord, const D: usize> {
    /// The operation.
    pub op: Op<T, D>,
    /// `Some(e)` pins the answer to global epoch `e`.
    pub at: Option<u64>,
}

impl<T: Coord, const D: usize> Query<T, D> {
    /// kNN against the current view.
    pub fn knn(q: Point<T, D>, k: usize) -> Self {
        Query {
            op: Op::Knn(q, k),
            at: None,
        }
    }

    /// Range count against the current view.
    pub fn range_count(rect: Rect<T, D>) -> Self {
        Query {
            op: Op::RangeCount(rect),
            at: None,
        }
    }

    /// Range list against the current view.
    pub fn range_list(rect: Rect<T, D>) -> Self {
        Query {
            op: Op::RangeList(rect),
            at: None,
        }
    }
}

/// The answer to a [`Query`].
#[derive(Clone, Debug, PartialEq)]
pub enum Answer<T: Coord, const D: usize> {
    /// kNN / range-list answers.
    Points(Vec<Point<T, D>>),
    /// Range-count answers.
    Count(usize),
    /// The requested epoch is outside the server's history window — evicted,
    /// never published, or the serving family keeps no history at all.
    EpochGone,
}

impl<T: Coord, const D: usize> Answer<T, D> {
    /// The point list of a kNN or range-list answer.
    pub fn points(self) -> Option<Vec<Point<T, D>>> {
        match self {
            Answer::Points(p) => Some(p),
            _ => None,
        }
    }

    /// The count of a range-count answer.
    pub fn count(self) -> Option<usize> {
        match self {
            Answer::Count(c) => Some(c),
            _ => None,
        }
    }
}

/// Answer `queries`, slot for slot. Each distinct `at` pins one view
/// ([`Router::pin`] for `None`, [`Router::pin_at`] otherwise); a group
/// whose epoch is not retained answers [`Answer::EpochGone`] whatever its
/// operations are. Inside a pinned group, each operation is one batched
/// call — kNN one per distinct `k` — so every answer in a group comes from
/// the same per-shard-consistent view.
pub fn execute<T: ServeCoord, const D: usize>(
    router: &Router<T, D>,
    queries: &[Query<T, D>],
) -> Vec<Answer<T, D>> {
    let mut answers: Vec<Answer<T, D>> = queries.iter().map(|_| Answer::EpochGone).collect();
    let mut ats: Vec<Option<u64>> = queries.iter().map(|q| q.at).collect();
    ats.sort_unstable();
    ats.dedup();
    for at in ats {
        let view = match at {
            None => router.pin(),
            Some(epoch) => match router.pin_at(epoch) {
                Some(view) => view,
                None => continue,
            },
        };
        let mut knn: BTreeMap<usize, (Vec<Point<T, D>>, Vec<usize>)> = BTreeMap::new();
        let mut counts: (Vec<Rect<T, D>>, Vec<usize>) = Default::default();
        let mut lists: (Vec<Rect<T, D>>, Vec<usize>) = Default::default();
        for (slot, query) in queries.iter().enumerate().filter(|(_, q)| q.at == at) {
            match query.op {
                Op::Knn(q, k) => {
                    let g = knn.entry(k).or_default();
                    g.0.push(q);
                    g.1.push(slot);
                }
                Op::RangeCount(r) => {
                    counts.0.push(r);
                    counts.1.push(slot);
                }
                Op::RangeList(r) => {
                    lists.0.push(r);
                    lists.1.push(slot);
                }
            }
        }
        for (k, (qs, slots)) in knn {
            for (ans, slot) in view.knn_batch(&qs, k).into_iter().zip(slots) {
                answers[slot] = Answer::Points(ans);
            }
        }
        for (c, slot) in view.range_count_batch(&counts.0).into_iter().zip(counts.1) {
            answers[slot] = Answer::Count(c);
        }
        for (ans, slot) in view.range_list_batch(&lists.0).into_iter().zip(lists.1) {
            answers[slot] = Answer::Points(ans);
        }
    }
    answers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IndexFactory;
    use psi::registry::{self, BuildOptions};
    use psi::PointI;
    use psi_workloads as workloads;
    use std::sync::Arc;

    /// One slice mixing two kNN `k`s, `k = 0`, a count and a list across
    /// four `at` groups — current, kept, evicted and future — answers each
    /// slot exactly as the per-op `RouterView` call on that slot's pinned
    /// view, or `EpochGone` where no view is kept.
    #[test]
    fn execute_matches_per_op_answers_across_epoch_groups() {
        for family in ["cpam-h", "pkd"] {
            let max = 60_000;
            let data = workloads::uniform::<2>(2_000, max, 41);
            let universe = workloads::universe::<2>(max);
            let factory: IndexFactory<i64, 2> = Arc::new(move |pts: &[PointI<2>]| {
                registry::create::<2>(family, pts, &BuildOptions::default()).unwrap()
            });
            let router = Router::with_history(&factory, &data, &universe, 2, 3);
            for round in 0..5usize {
                router.publish(
                    &data[round * 40..round * 40 + 40],
                    &data[round * 7..round * 7 + 20],
                );
            }
            // History depth 3 after five publishes: epochs 3..=5 are kept
            // on the persistent family, none on the left-right one.
            let queries = workloads::ind_queries(&data, 6, 42);
            let rects = workloads::range_queries(&data, max, 60, 4, 43);
            let mut slice = Vec::new();
            for at in [None, Some(4), Some(1), Some(99)] {
                for (i, q) in queries.iter().enumerate() {
                    let k = [3, 8, 0][i % 3];
                    slice.push(Query {
                        at,
                        ..Query::knn(*q, k)
                    });
                }
                for r in &rects {
                    slice.push(Query {
                        at,
                        ..Query::range_count(*r)
                    });
                    slice.push(Query {
                        at,
                        ..Query::range_list(*r)
                    });
                }
            }
            let answers = execute(&router, &slice);
            assert_eq!(answers.len(), slice.len());
            let mut gone = 0;
            for (query, answer) in slice.iter().zip(answers) {
                let view = match query.at {
                    None => Some(router.pin()),
                    Some(e) => router.pin_at(e),
                };
                let want = match (view, query.op) {
                    (None, _) => Answer::EpochGone,
                    (Some(v), Op::Knn(q, k)) => Answer::Points(v.knn(&q, k)),
                    (Some(v), Op::RangeCount(r)) => Answer::Count(v.range_count(&r)),
                    (Some(v), Op::RangeList(r)) => Answer::Points(v.range_list(&r)),
                };
                gone += usize::from(want == Answer::EpochGone);
                assert_eq!(answer, want, "{family}: {query:?}");
            }
            let per_group = queries.len() + 2 * rects.len();
            let expect_gone = if family == "pkd" { 3 } else { 2 };
            assert_eq!(gone, expect_gone * per_group, "{family}");
        }
    }
}
