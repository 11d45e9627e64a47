//! Pool-parallel ordering: parallel sort and top-k merge.
//!
//! `ORDER BY` is the one blocking operator every ordered query funnels
//! through, so it gets its own parallel strategy on the shared
//! [`WorkerPool`]:
//!
//! - **Parallel sort** ([`order_by_parallel`]): the visible rows are split
//!   into one contiguous range per worker; each worker sorts its range's
//!   row indices locally (no data movement), and the sorted runs are
//!   k-way-merged into one permutation. The result is `r.take(&perm)` — an
//!   *index-SelVec view* over the shared base columns, so the sort itself
//!   copies nothing and the sink pays the usual single gather (the PR 3
//!   view/sink contract).
//! - **Parallel top-k** ([`top_k_parallel`]): each worker runs a bounded
//!   max-heap of the k best rows over its range; the per-worker candidate
//!   sets are merged at the barrier (at most `k·workers` rows) and cut to
//!   the global k.
//!
//! Both are *exactly* result-equivalent to their serial counterparts in
//! `setops` — including row order — because every comparison falls back to
//! the global row index on ties, which is precisely the serial stable-sort
//! order. With a single-worker pool or small inputs they delegate to the
//! serial operators.

use super::setops::{order_by, top_k};
use crate::error::RelationError;
use crate::par::{partition_ranges, WorkerPool, MIN_PARALLEL_ROWS};
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

/// Parallel `ORDER BY`: per-worker local sorts of contiguous index ranges,
/// then a k-way merge of the sorted runs. The result is a view (index
/// selection vector over the shared base columns) in the same row order the
/// serial [`order_by`] produces. Delegates to the serial operator for
/// single-worker pools and small inputs.
pub fn order_by_parallel(
    r: &Relation,
    attrs: &[&str],
    ascending: &[bool],
    pool: &WorkerPool,
) -> Result<Relation, RelationError> {
    if pool.threads() <= 1 || r.len() < MIN_PARALLEL_ROWS || attrs.is_empty() {
        return order_by(r, attrs, ascending);
    }
    let keys = sort_keys(r, attrs, ascending)?;
    let ranges = partition_ranges(r.len(), pool.threads());
    let runs: Vec<Vec<usize>> = pool.for_each(&ranges, |lane, range| {
        let span = trace::clock();
        let mut idx: Vec<usize> = (range.start..range.end).collect();
        // unstable sort under a strict total order (index tie-break) equals
        // the serial stable sort's output
        idx.sort_unstable_by(|&x, &y| keys.cmp_indexed(x, y));
        trace::record(
            "sort.run",
            "sort",
            lane,
            span,
            idx.len() as u64,
            idx.len() as u64,
            1,
        );
        idx
    });
    // a tripped guard truncates the run set; surface it as a typed error
    crate::par::guard_checkpoint()?;
    let span = trace::clock();
    let perm = merge_runs(&runs, &keys);
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

/// Parallel top-k (the Limit-into-Sort rewrite's execution): per-worker
/// bounded heaps over contiguous ranges, candidate sets merged at the
/// barrier and cut to `n`. Result-identical to the serial [`top_k`]
/// (which is itself identical to `limit(order_by(..), n, 0)`).
pub fn top_k_parallel(
    r: &Relation,
    attrs: &[&str],
    ascending: &[bool],
    n: usize,
    pool: &WorkerPool,
) -> Result<Relation, RelationError> {
    // With k within a factor of the input size the bounded heaps approach a
    // full sort per worker while still paying the merge — serial wins.
    if pool.threads() <= 1 || r.len() < MIN_PARALLEL_ROWS || n == 0 || n * 4 >= r.len() {
        return top_k(r, attrs, ascending, n);
    }
    let keys = sort_keys(r, attrs, ascending)?;
    let ranges = partition_ranges(r.len(), pool.threads());
    if ranges.len() <= 1 {
        return top_k(r, attrs, ascending, n);
    }
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
    crate::par::guard_checkpoint()?;
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

/// K-way merge of sorted index runs into one permutation, via a binary
/// min-heap of run heads. Runs are few (one per worker), so the heap is
/// tiny; the comparator's index tie-break keeps the merge deterministic.
fn merge_runs(runs: &[Vec<usize>], keys: &RowOrder<'_>) -> Vec<usize> {
    let total: usize = runs.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    // heap entries: (row, run); `pos[run]` is the next unconsumed position
    let mut heap: Vec<(usize, usize)> = Vec::with_capacity(runs.len());
    let mut pos: Vec<usize> = vec![1; runs.len()];
    for (run, idxs) in runs.iter().enumerate() {
        if let Some(&row) = idxs.first() {
            heap_push(&mut heap, (row, run), keys);
        }
    }
    while let Some((row, run)) = heap_pop(&mut heap, keys) {
        out.push(row);
        if let Some(&next) = runs[run].get(pos[run]) {
            pos[run] += 1;
            heap_push(&mut heap, (next, run), keys);
        }
    }
    out
}

/// Min-heap ordering for merge entries: by row under `keys` (strict, so the
/// run index never matters).
#[inline]
fn entry_lt(a: (usize, usize), b: (usize, usize), keys: &RowOrder<'_>) -> bool {
    keys.cmp_indexed(a.0, b.0) == Ordering::Less
}

fn heap_push(heap: &mut Vec<(usize, usize)>, entry: (usize, usize), keys: &RowOrder<'_>) {
    heap.push(entry);
    let mut i = heap.len() - 1;
    while i > 0 {
        let parent = (i - 1) / 2;
        if entry_lt(heap[i], heap[parent], keys) {
            heap.swap(i, parent);
            i = parent;
        } else {
            break;
        }
    }
}

fn heap_pop(heap: &mut Vec<(usize, usize)>, keys: &RowOrder<'_>) -> Option<(usize, usize)> {
    if heap.is_empty() {
        return None;
    }
    let last = heap.len() - 1;
    heap.swap(0, last);
    let top = heap.pop();
    let len = heap.len();
    let mut i = 0;
    loop {
        let (l, r) = (2 * i + 1, 2 * i + 2);
        let mut smallest = i;
        if l < len && entry_lt(heap[l], heap[smallest], keys) {
            smallest = l;
        }
        if r < len && entry_lt(heap[r], heap[smallest], keys) {
            smallest = r;
        }
        if smallest == i {
            break;
        }
        heap.swap(i, smallest);
        i = smallest;
    }
    top
}

/// Bounded max-heap of the k best rows in `range`: `heap[0]` is the worst
/// of the current k best; every other row either displaces it or is
/// dropped. O(range · log k). The returned candidates are unsorted —
/// callers sort (serial top-k) or merge-then-sort (parallel barrier) once.
/// Shared by the serial [`top_k`] and each parallel worker, so the two
/// paths cannot drift apart.
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
    use crate::algebra::limit;
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
        let mut cols = base.columns().to_vec();
        cols.push(nullable);
        Relation::new(crate::schema::Schema::new(schema).unwrap(), cols)
            .unwrap()
            .with_name("sortable")
    }

    #[test]
    fn parallel_sort_matches_serial() {
        let r = sample(3001);
        for threads in [2, 4, 8] {
            let pool = WorkerPool::new(threads);
            for (attrs, dirs) in [
                (vec!["s"], vec![true]),
                (vec!["s"], vec![false]),
                (vec!["s", "m"], vec![true, false]),
                (vec!["v", "s"], vec![true, true]), // null-heavy leading key
                (vec!["m", "s", "id"], vec![false, true, false]),
            ] {
                let par = order_by_parallel(&r, &attrs, &dirs, &pool).unwrap();
                let ser = order_by(&r, &attrs, &dirs).unwrap();
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
        let pool = WorkerPool::new(4);
        for attrs in [["a"], ["b"]] {
            let par = order_by_parallel(&r, &attrs, &[true], &pool).unwrap();
            let ser = order_by(&r, &attrs, &[true]).unwrap();
            assert_eq!(par, ser, "presorted by {attrs:?}");
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
        let pool = WorkerPool::new(4);
        let par = order_by_parallel(&r, &["c"], &[true], &pool).unwrap();
        // all-equal keys: output must be the original row order
        let ids = match par.column("id").unwrap().data() {
            ColumnData::Int(v) => v.clone(),
            _ => unreachable!(),
        };
        assert_eq!(ids, (0..n as i64).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_sort_small_input_and_bad_args_delegate() {
        let r = sample(64); // below MIN_PARALLEL_ROWS
        let pool = WorkerPool::new(4);
        assert_eq!(
            order_by_parallel(&r, &["s"], &[true], &pool).unwrap(),
            order_by(&r, &["s"], &[true]).unwrap()
        );
        assert!(order_by_parallel(&r, &["s"], &[true, false], &pool).is_err());
        assert!(top_k_parallel(&r, &["s"], &[true, false], 3, &pool).is_err());
    }

    #[test]
    fn parallel_sort_over_a_view() {
        let r = sample(4000);
        let filtered = crate::algebra::select(&r, &Expr::col("s").lt(Expr::lit(50i64))).unwrap();
        assert!(filtered.is_view());
        let pool = WorkerPool::new(4);
        let par = order_by_parallel(&filtered, &["m", "s"], &[true, true], &pool).unwrap();
        let ser = order_by(&filtered, &["m", "s"], &[true, true]).unwrap();
        assert_eq!(par, ser);
    }

    #[test]
    fn parallel_top_k_matches_serial() {
        let r = sample(2777);
        for threads in [2, 4] {
            let pool = WorkerPool::new(threads);
            for n in [1usize, 7, 100, 650] {
                for dirs in [vec![true, false], vec![false, true]] {
                    let par = top_k_parallel(&r, &["s", "m"], &dirs, n, &pool).unwrap();
                    let ser = top_k(&r, &["s", "m"], &dirs, n).unwrap();
                    assert_eq!(par, ser, "threads={threads} n={n} dirs={dirs:?}");
                    // and both equal the full-sort definition
                    let full = limit(&order_by(&r, &["s", "m"], &dirs).unwrap(), n, 0);
                    assert_eq!(par, full, "n={n}");
                }
            }
        }
    }

    #[test]
    fn parallel_top_k_edge_sizes() {
        let r = sample(1500);
        let pool = WorkerPool::new(4);
        // n = 0, n >= len, and n just under the serial-delegation cutoff
        for n in [0usize, 1500, 2000, 370] {
            assert_eq!(
                top_k_parallel(&r, &["s"], &[true], n, &pool).unwrap(),
                top_k(&r, &["s"], &[true], n).unwrap(),
                "n={n}"
            );
        }
    }

    #[test]
    fn parallel_top_k_null_keys() {
        let r = sample(2048);
        let pool = WorkerPool::new(4);
        let par = top_k_parallel(&r, &["v"], &[true], 50, &pool).unwrap();
        let ser = top_k(&r, &["v"], &[true], 50).unwrap();
        assert_eq!(par, ser);
    }
}
