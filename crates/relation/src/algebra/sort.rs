//! Ordering: `ORDER BY`, top-k, the sorts' run phase and their k-way
//! merge.
//!
//! `ORDER BY` is the one blocking operator every ordered query funnels
//! through. In memory and on disk it is one algorithm in two phases:
//!
//! - **Run phase** ([`sort_runs`]): the visible rows are cut into
//!   consecutive ranges; pool workers sort each range's row indices (no
//!   data movement) and hand each sorted run to a sink. The pooled sort
//!   keeps its runs in memory, one per worker; the external sort
//!   ([`super::order_by_external`]) writes budget-sized runs to spill
//!   files.
//! - **Merge phase** ([`LoserTree`]): the runs are k-way-merged through a
//!   tournament tree of losers, ⌈log₂ k⌉ comparisons per output row over
//!   k runs of any width. In memory the merged permutation becomes
//!   `r.take(&perm)` — an *index-SelVec view* over the shared base
//!   columns, so the sort itself copies nothing and the sink pays the
//!   usual single gather (the SelVec view/sink contract). On disk the same
//!   tree merges the runs' chunks as they stream back.
//! - **Top-k** ([`top_k`]): a bounded max-heap of the k best rows, one per
//!   worker over its range when pooled; the candidate sets are merged at
//!   the barrier (at most `k·workers` rows) and cut to the global k.
//!
//! Every path gives the serial stable sort's row order, because every
//! comparison falls back to the global row index on ties.

use crate::error::RelationError;
use crate::par::{guard_checkpoint, partition_ranges, WorkerPool, MIN_PARALLEL_ROWS};
use crate::relation::Relation;
use crate::trace;
use rma_storage::RowOrder;
use std::cmp::Ordering;
use std::ops::Range;

/// Validate an ORDER BY's arguments and resolve its typed comparator over
/// `r`'s visible key columns (gathered via the compacting accessors —
/// sorting is a key-column sink). Every ordering operator — serial and
/// parallel sort, top-k, the external sort's run phase — compares through
/// the one [`RowOrder`] this returns.
pub(super) fn sort_keys<'a>(
    r: &'a Relation,
    attrs: &[&str],
    ascending: &[bool],
) -> Result<RowOrder<'a>, RelationError> {
    if !ascending.is_empty() && ascending.len() != attrs.len() {
        return Err(RelationError::ArityMismatch {
            expected: attrs.len(),
            found: ascending.len(),
        });
    }
    Ok(RowOrder::new(&r.columns_of(attrs)?, ascending))
}

/// The run phase of every sort: pool workers sort each of the consecutive
/// row `ranges` under `keys` and hand the sorted indices to `sink` (which
/// keeps the run in memory or writes it out). One `span` per run covers
/// its sort and its sink; the sinks' results come back in range order.
pub(super) fn sort_runs<T: Send>(
    keys: &RowOrder<'_>,
    ranges: &[Range<usize>],
    pool: &WorkerPool,
    span: &'static str,
    sink: impl Fn(Vec<usize>) -> T + Sync,
) -> Vec<T> {
    pool.for_each(ranges, |lane, range| {
        let started = trace::clock();
        let mut idx: Vec<usize> = range.clone().collect();
        // unstable sort under a strict total order (index tie-break) equals
        // the serial stable sort's output
        idx.sort_unstable_by(|&x, &y| keys.cmp_indexed(x, y));
        let rows = idx.len() as u64;
        let out = sink(idx);
        trace::record(span, "sort", lane, started, rows, rows, 1);
        out
    })
}

/// Bytes a sort is charged per row, or a top-k per candidate: one index.
const SORT_INDEX_BYTES: u64 = 8;

/// `ORDER BY` over the given attributes; `ascending[k]` gives the direction
/// of the k-th attribute (must match `attrs` length; all-ascending if
/// empty). Stable; the result is an index view over the base columns. An
/// external merge sort when the guard has no headroom for 8 B a row;
/// otherwise those are charged, and the pooled sort merges one run per
/// worker.
pub fn order_by(
    r: &Relation,
    attrs: &[&str],
    ascending: &[bool],
    pool: &WorkerPool,
) -> Result<Relation, RelationError> {
    let perm = SORT_INDEX_BYTES * r.len() as u64;
    if super::should_spill(perm) {
        return super::order_by_external(r, attrs, ascending, pool);
    }
    let _perm = super::ChargeScope::new(perm)?;
    order_by_parallel(r, attrs, ascending, pool)
}

/// In-memory [`order_by`], charging nothing.
pub fn order_by_parallel(
    r: &Relation,
    attrs: &[&str],
    ascending: &[bool],
    pool: &WorkerPool,
) -> Result<Relation, RelationError> {
    let keys = sort_keys(r, attrs, ascending)?;
    if pool.threads() <= 1 || r.len() < MIN_PARALLEL_ROWS || attrs.is_empty() {
        let mut perm: Vec<usize> = (0..r.len()).collect();
        perm.sort_by(|&x, &y| keys.cmp(x, y));
        return Ok(r.take(&perm));
    }
    let ranges = partition_ranges(r.len(), pool.threads());
    let runs = sort_runs(&keys, &ranges, pool, "sort.run", |idx| idx);
    // a tripped guard truncates the run set; surface it as a typed error
    guard_checkpoint()?;
    let span = trace::clock();
    let mut perm = Vec::with_capacity(r.len());
    let mut pos = vec![0usize; runs.len()];
    let before = |pos: &[usize], x: usize, y: usize| {
        let head = |run: usize| runs[run].get(pos[run]).copied();
        LoserTree::before(x, head(x), y, head(y), |a, b| keys.cmp_indexed(a, b))
    };
    let mut tree = LoserTree::default();
    tree.build(runs.len(), |x, y| before(&pos, x, y));
    while let Some(run) = tree.winner() {
        let Some(&row) = runs[run].get(pos[run]) else {
            break;
        };
        perm.push(row);
        pos[run] += 1;
        tree.replay(run, |x, y| before(&pos, x, y));
    }
    trace::record(
        "sort.merge",
        "sort",
        0,
        span,
        perm.len() as u64,
        perm.len() as u64,
        runs.len() as u64,
    );
    Ok(r.take(&perm))
}

/// Top-k (the Limit-into-Sort rewrite's execution): the first `n` rows of
/// `ORDER BY attrs`, identical to `limit(order_by(r, ..), n, 0)`, from a
/// bounded max-heap of row indices in O(|r| log n). It never spills; the
/// heaps it keeps (8 B × `n` each) are charged. Pooled, each worker keeps
/// one heap over its range and the candidates merge at the barrier;
/// serial, it keeps one.
pub fn top_k(
    r: &Relation,
    attrs: &[&str],
    ascending: &[bool],
    n: usize,
    pool: &WorkerPool,
) -> Result<Relation, RelationError> {
    // a LIMIT past the input keeps every row; clamped, the charge cannot
    // overflow
    let n = n.min(r.len());
    let heaps = top_k_heaps(r.len(), n, pool) as u64;
    let _heaps = super::ChargeScope::new(SORT_INDEX_BYTES * n as u64 * heaps)?;
    top_k_parallel(r, attrs, ascending, n, pool)
}

/// How many bounded heaps top-k keeps for `n` of `rows` rows: one per
/// worker when pooled, one on the serial branch — a single worker, a small
/// input, or `n` within a factor of the input size, where the bounded
/// heaps approach a full sort per worker while still paying the merge.
fn top_k_heaps(rows: usize, n: usize, pool: &WorkerPool) -> usize {
    if pool.threads() <= 1 || rows < MIN_PARALLEL_ROWS || n * 4 >= rows {
        1
    } else {
        pool.threads()
    }
}

/// In-memory [`top_k`], charging nothing.
pub fn top_k_parallel(
    r: &Relation,
    attrs: &[&str],
    ascending: &[bool],
    n: usize,
    pool: &WorkerPool,
) -> Result<Relation, RelationError> {
    // clamped, `n * 4` cannot overflow in `top_k_heaps`
    let n = n.min(r.len());
    let keys = sort_keys(r, attrs, ascending)?;
    if n == 0 {
        return Ok(r.take(&[]));
    }
    if top_k_heaps(r.len(), n, pool) == 1 {
        let mut best = bounded_top_k(0..r.len(), n, &keys);
        best.sort_unstable_by(|&x, &y| keys.cmp_indexed(x, y));
        return Ok(r.take(&best));
    }
    let ranges = partition_ranges(r.len(), pool.threads());
    let locals: Vec<Vec<usize>> = pool.for_each(&ranges, |lane, range| {
        let span = trace::clock();
        let heap = bounded_top_k(range.clone(), n, &keys);
        trace::record(
            "topk.heap",
            "sort",
            lane,
            span,
            (range.end - range.start) as u64,
            heap.len() as u64,
            1,
        );
        heap
    });
    guard_checkpoint()?;
    let span = trace::clock();
    let mut cand: Vec<usize> = locals.concat();
    let merged_in = cand.len() as u64;
    cand.sort_unstable_by(|&x, &y| keys.cmp_indexed(x, y));
    cand.truncate(n);
    trace::record(
        "topk.merge",
        "sort",
        0,
        span,
        merged_in,
        cand.len() as u64,
        locals.len() as u64,
    );
    Ok(r.take(&cand))
}

/// A tournament tree of losers over `k` sorted runs, the one k-way merge
/// of every sort: `nodes[0]` holds the current winner, `nodes[1..k]` the
/// loser of each match, with run `i` as leaf `k + i` of the implicit heap
/// (any `k`, not only powers of two). After the winner's run advances, one
/// replay up its leaf's path restores the tree in ⌈log₂ k⌉ comparisons.
/// The caller's `before(x, y)` orders runs by their current heads
/// ([`LoserTree::before`]).
#[derive(Default)]
pub(super) struct LoserTree {
    nodes: Vec<usize>,
}

impl LoserTree {
    const EMPTY: usize = usize::MAX;

    /// The merge order of runs `x` and `y` by their heads `hx` and `hy`
    /// (`None` once a run is exhausted): exhausted runs last, then `cmp`
    /// of the heads, then the lower run index.
    pub(super) fn before<H>(
        x: usize,
        hx: Option<H>,
        y: usize,
        hy: Option<H>,
        cmp: impl FnOnce(H, H) -> Ordering,
    ) -> bool {
        match (hx, hy) {
            (Some(a), Some(b)) => cmp(a, b).then(x.cmp(&y)) == Ordering::Less,
            (hx, hy) => (hx.is_none(), x) < (hy.is_none(), y),
        }
    }

    /// Play every run in: a run meeting an empty node waits there for its
    /// sibling subtree's winner; the last match at node 1 crowns the root.
    pub(super) fn build(&mut self, k: usize, mut before: impl FnMut(usize, usize) -> bool) {
        self.nodes = vec![Self::EMPTY; k.max(1)];
        for run in 0..k {
            let mut winner = run;
            let mut node = (k + run) / 2;
            while node > 0 {
                let other = self.nodes[node];
                if other == Self::EMPTY {
                    self.nodes[node] = winner;
                    break;
                }
                if before(other, winner) {
                    self.nodes[node] = winner;
                    winner = other;
                }
                node /= 2;
            }
            if node == 0 {
                self.nodes[0] = winner;
            }
        }
    }

    /// Re-play `run`'s path after its current row changed.
    pub(super) fn replay(&mut self, run: usize, mut before: impl FnMut(usize, usize) -> bool) {
        let k = self.nodes.len();
        let mut winner = run;
        let mut node = (k + run) / 2;
        while node > 0 {
            if before(self.nodes[node], winner) {
                std::mem::swap(&mut self.nodes[node], &mut winner);
            }
            node /= 2;
        }
        self.nodes[0] = winner;
    }

    pub(super) fn winner(&self) -> Option<usize> {
        self.nodes.first().copied().filter(|&w| w != Self::EMPTY)
    }
}

/// Bounded max-heap of the k best rows in `range`: `heap[0]` is the worst
/// of the current k best; every other row either displaces it or is
/// dropped. O(range · log k). The returned candidates are unsorted —
/// callers sort (serial top-k) or merge-then-sort (parallel barrier) once.
/// Shared by the serial branch of [`top_k_parallel`] and each of its
/// workers, so the two paths cannot drift apart.
pub(super) fn bounded_top_k(range: Range<usize>, k: usize, keys: &RowOrder<'_>) -> Vec<usize> {
    let mut heap: Vec<usize> = Vec::with_capacity(k.min(range.len()));
    for i in range {
        if heap.len() < k {
            heap.push(i);
            let mut j = heap.len() - 1;
            while j > 0 {
                let parent = (j - 1) / 2;
                if keys.cmp_indexed(heap[j], heap[parent]) == Ordering::Greater {
                    heap.swap(j, parent);
                    j = parent;
                } else {
                    break;
                }
            }
        } else if keys.cmp_indexed(i, heap[0]) == Ordering::Less {
            heap[0] = i;
            let len = heap.len();
            let mut j = 0;
            loop {
                let (l, r) = (2 * j + 1, 2 * j + 2);
                let mut largest = j;
                if l < len && keys.cmp_indexed(heap[l], heap[largest]) == Ordering::Greater {
                    largest = l;
                }
                if r < len && keys.cmp_indexed(heap[r], heap[largest]) == Ordering::Greater {
                    largest = r;
                }
                if largest == j {
                    break;
                }
                heap.swap(j, largest);
                j = largest;
            }
        }
    }
    heap
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::{limit, one_worker, pools};
    use crate::expr::Expr;
    use crate::relation::RelationBuilder;
    use rma_storage::{Bitmap, Column, ColumnData, DataType};

    /// Rows large enough to clear `MIN_PARALLEL_ROWS`, with heavy key
    /// duplication (tie-break coverage), a float secondary key, and a
    /// nullable column.
    fn sample(n: usize) -> Relation {
        let s: Vec<i64> = (0..n).map(|i| ((i * 7919) % 97) as i64).collect();
        let m: Vec<f64> = (0..n).map(|i| ((i * 31) % 13) as f64 - 6.0).collect();
        let id: Vec<i64> = (0..n as i64).collect();
        let nullable: Vec<i64> = (0..n).map(|i| (i % 11) as i64).collect();
        let mask: Vec<bool> = (0..n).map(|i| i % 3 != 0).collect();
        let nullable = Column::with_nulls(ColumnData::Int(nullable), Bitmap::from_bools(&mask))
            .expect("bitmap length matches");
        let base = RelationBuilder::new()
            .name("sortable")
            .column("s", s)
            .column("m", m)
            .column("id", id)
            .build()
            .unwrap();
        // append the prebuilt nullable column
        let mut schema: Vec<crate::schema::Attribute> = base.schema().attributes().to_vec();
        schema.push(crate::schema::Attribute::new("v", DataType::Int));
        let mut cols = base.columns().into_owned();
        cols.push(nullable);
        Relation::new(crate::schema::Schema::new(schema).unwrap(), cols)
            .unwrap()
            .with_name("sortable")
    }

    #[test]
    fn parallel_sort_matches_serial() {
        let r = sample(3001);
        for pool in pools() {
            let threads = pool.threads();
            for (attrs, dirs) in [
                (vec!["s"], vec![true]),
                (vec!["s"], vec![false]),
                (vec!["s", "m"], vec![true, false]),
                (vec!["v", "s"], vec![true, true]), // null-heavy leading key
                (vec!["m", "s", "id"], vec![false, true, false]),
            ] {
                let par = order_by(&r, &attrs, &dirs, &pool).unwrap();
                let ser = order_by(&r, &attrs, &dirs, &one_worker()).unwrap();
                assert_eq!(par, ser, "threads={threads} attrs={attrs:?}");
                assert!(par.is_view(), "parallel sort must produce a view");
            }
        }
    }

    #[test]
    fn parallel_sort_of_presorted_input() {
        let n = 2048usize;
        let sorted: Vec<i64> = (0..n as i64).collect();
        let reversed: Vec<i64> = (0..n as i64).rev().collect();
        let r = RelationBuilder::new()
            .column("a", sorted)
            .column("b", reversed)
            .build()
            .unwrap();
        for pool in pools() {
            for attrs in [["a"], ["b"]] {
                let par = order_by(&r, &attrs, &[true], &pool).unwrap();
                let ser = order_by(&r, &attrs, &[true], &one_worker()).unwrap();
                assert_eq!(par, ser, "presorted by {attrs:?}");
            }
        }
    }

    #[test]
    fn parallel_sort_all_ties_is_stable_order() {
        let n = 2000usize;
        let r = RelationBuilder::new()
            .column("c", vec![5i64; n])
            .column("id", (0..n as i64).collect::<Vec<_>>())
            .build()
            .unwrap();
        for pool in pools() {
            let threads = pool.threads();
            let par = order_by(&r, &["c"], &[true], &pool).unwrap();
            // all-equal keys: output must be the original row order
            let ids = match &*par.column("id").unwrap().decoded() {
                ColumnData::Int(v) => v.clone(),
                _ => unreachable!(),
            };
            assert_eq!(ids, (0..n as i64).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn parallel_sort_small_input_and_bad_args_delegate() {
        let r = sample(64); // below MIN_PARALLEL_ROWS
        for pool in pools() {
            assert_eq!(
                order_by(&r, &["s"], &[true], &pool).unwrap(),
                order_by(&r, &["s"], &[true], &one_worker()).unwrap()
            );
            assert!(order_by(&r, &["s"], &[true, false], &pool).is_err());
            assert!(top_k(&r, &["s"], &[true, false], 3, &pool).is_err());
        }
    }

    #[test]
    fn parallel_sort_over_a_view() {
        let r = sample(4000);
        let filtered =
            crate::algebra::select(&r, &Expr::col("s").lt(Expr::lit(50i64)), &one_worker())
                .unwrap();
        assert!(filtered.is_view());
        for pool in pools() {
            let par = order_by(&filtered, &["m", "s"], &[true, true], &pool).unwrap();
            let ser = order_by(&filtered, &["m", "s"], &[true, true], &one_worker()).unwrap();
            assert_eq!(par, ser);
        }
    }

    #[test]
    fn parallel_top_k_matches_serial() {
        let r = sample(2777);
        for pool in pools() {
            let threads = pool.threads();
            for n in [1usize, 7, 100, 650] {
                for dirs in [vec![true, false], vec![false, true]] {
                    let par = top_k(&r, &["s", "m"], &dirs, n, &pool).unwrap();
                    let ser = top_k(&r, &["s", "m"], &dirs, n, &one_worker()).unwrap();
                    assert_eq!(par, ser, "threads={threads} n={n} dirs={dirs:?}");
                    // and both equal the full-sort definition
                    let full = limit(
                        &order_by(&r, &["s", "m"], &dirs, &one_worker()).unwrap(),
                        n,
                        0,
                    );
                    assert_eq!(par, full, "n={n}");
                }
            }
        }
    }

    /// Top-k charges the heaps its branch keeps: the serial branch one at
    /// any pool width (`LIMIT 2000` of 4 000 rows: 16 000 B under a
    /// 20 096 B budget), the pooled branch one per worker.
    #[test]
    fn top_k_charges_the_heaps_its_branch_keeps() {
        let r = RelationBuilder::new()
            .column("x", (0..4000i64).rev().collect::<Vec<_>>())
            .build()
            .unwrap();
        let run = |n: usize, budget: u64, pool: &WorkerPool| {
            let guard = crate::QueryGuard::with_limits(None, budget);
            let _active = guard.activate();
            top_k(&r, &["x"], &[true], n, pool).map(|out| out.len())
        };
        for pool in pools() {
            assert_eq!(run(2000, 20_096, &pool).unwrap(), 2000, "{pool:?}");
            // 100 of 4 000 rows runs pooled above one worker: 800 B a heap
            let pooled = run(100, 800 * pool.threads() as u64 - 1, &pool);
            assert!(
                matches!(pooled, Err(RelationError::ResourceExhausted { .. })),
                "{pool:?}: {pooled:?}"
            );
            assert_eq!(run(100, 800 * pool.threads() as u64, &pool).unwrap(), 100);
        }
    }

    #[test]
    fn parallel_top_k_edge_sizes() {
        let r = sample(1500);
        for pool in pools() {
            // n = 0, n >= len, and n just under the serial-delegation cutoff
            for n in [0usize, 1500, 2000, 370] {
                assert_eq!(
                    top_k(&r, &["s"], &[true], n, &pool).unwrap(),
                    top_k(&r, &["s"], &[true], n, &one_worker()).unwrap(),
                    "n={n}"
                );
            }
        }
    }

    #[test]
    fn parallel_top_k_null_keys() {
        let r = sample(2048);
        for pool in pools() {
            let par = top_k(&r, &["v"], &[true], 50, &pool).unwrap();
            let ser = top_k(&r, &["v"], &[true], 50, &one_worker()).unwrap();
            assert_eq!(par, ser);
        }
    }
}
