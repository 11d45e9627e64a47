//! Partition-parallel relational operators: σ, ϑ, and hash joins over
//! row-range morsels, executed on a shared [`WorkerPool`] (`crate::par`).
//! The joins share their serial twins' code in `join.rs`: one build table
//! over the right side, built on the calling thread — positional `u32`
//! chains take a few tight passes — then morsels of the left side probed
//! against it on the workers.
//!
//! Every operator here is *exactly* result-equivalent to its serial
//! counterpart, including row order: morsels are contiguous row ranges and
//! their results are reassembled in range order, so the only difference is
//! which thread touched which rows. (For `SUM`/`AVG` the floating-point
//! accumulation order does change — partial sums per morsel are merged at
//! the barrier — which is the usual contract of parallel aggregation.)
//!
//! With a single-worker pool each function delegates to the serial
//! operator, which is also the fallback rule the plan executor applies to
//! operators without a parallel implementation. Operators never spawn
//! threads themselves: every job runs on the pool's parked workers.

use super::aggregate::{
    accumulate, finalize, resolve_agg_cols, validate_aggs, GroupIds, GroupKey, Partial,
};
use super::AggSpec;
use crate::error::RelationError;
use crate::expr::Expr;
use crate::par::{morsel_count, partition_ranges, WorkerPool, MIN_PARALLEL_ROWS};
use crate::relation::Relation;

/// Parallel σ: evaluate the predicate over row-range morsels on worker
/// threads, then combine the per-morsel keep masks into one lazy selection
/// vector. Each morsel is a range *view* of the (projected) input — no
/// column is sliced up front, only the rows an expression actually reads
/// are gathered, and the result itself is a view: the payload columns are
/// never copied here at all.
pub fn select_parallel(
    r: &Relation,
    predicate: &Expr,
    pool: &WorkerPool,
) -> Result<Relation, RelationError> {
    let threads = pool.threads();
    let mut refs: Vec<String> = Vec::new();
    predicate.referenced_columns(&mut refs);
    refs.sort();
    refs.dedup();
    if threads <= 1 || r.len() < MIN_PARALLEL_ROWS || refs.is_empty() {
        return super::select(r, predicate);
    }
    let ref_names: Vec<&str> = refs.iter().map(String::as_str).collect();
    // a zero-copy view of just the referenced attributes
    let pred_view = super::project(r, &ref_names)?;
    let ranges = partition_ranges(r.len(), morsel_count(threads, r.len()));
    let keeps = pool.for_each(&ranges, |_, range| {
        predicate.eval_filter(&pred_view.slice(range.clone()))
    });
    // governed queries stop claiming morsels when their guard trips; the
    // checkpoint turns that truncation into the typed error
    crate::par::guard_checkpoint()?;
    let mut keep = Vec::with_capacity(r.len());
    for k in keeps {
        keep.extend(k?);
    }
    Ok(r.filter(&keep))
}

/// Parallel ϑ: each worker accumulates per-group partial states over its
/// morsels; partials are merged in morsel order at the barrier, which
/// reproduces the serial first-seen group order, then finalized once.
pub fn aggregate_parallel(
    r: &Relation,
    group_by: &[&str],
    aggs: &[AggSpec],
    pool: &WorkerPool,
) -> Result<Relation, RelationError> {
    let threads = pool.threads();
    if threads <= 1 || r.len() < MIN_PARALLEL_ROWS {
        return super::aggregate(r, group_by, aggs);
    }
    validate_aggs(r, aggs)?;
    let group_cols = r.columns_of(group_by)?;
    let agg_cols = resolve_agg_cols(r, aggs)?;
    let ranges = partition_ranges(r.len(), morsel_count(threads, r.len()));
    // one group key for every morsel, so the barrier merges by it too
    let key = GroupKey::new(&group_cols, r.len(), ranges[0].len());
    let partials = pool.for_each(&ranges, |_, range| {
        accumulate(&key, &agg_cols, aggs, range.clone(), false)
    });
    crate::par::guard_checkpoint()?;

    // merge at the barrier, in morsel order
    let mut merged = Partial::default();
    let mut ids = GroupIds::new(&key);
    for partial in partials {
        for (rep, accs) in partial.rep.into_iter().zip(partial.accs) {
            let gid = ids.id(rep);
            if gid == merged.rep.len() {
                merged.rep.push(rep);
                merged.accs.push(accs);
            } else {
                for (into, acc) in merged.accs[gid].iter_mut().zip(&accs) {
                    into.merge(acc);
                }
            }
        }
    }
    if group_by.is_empty() && merged.rep.is_empty() {
        // global aggregation: one group even over empty input
        merged.rep.push(0);
        merged.accs.push(vec![Default::default(); aggs.len()]);
    }
    finalize(r, group_by, aggs, &merged.rep, &merged.accs)
}

/// Parallel hash equi-join: [`super::join_on`]'s one build table over the
/// right side, probed by morsels of the left side on the pool.
pub fn join_on_parallel(
    a: &Relation,
    b: &Relation,
    on: &[(&str, &str)],
    pool: &WorkerPool,
) -> Result<Relation, RelationError> {
    super::join::equi_join(a, b, on, Some(pool))
}

/// Parallel natural join: the equi-join machinery over all common attribute
/// names, dropping the duplicated key columns.
pub fn natural_join_parallel(
    a: &Relation,
    b: &Relation,
    pool: &WorkerPool,
) -> Result<Relation, RelationError> {
    super::join::natural_equi_join(a, b, Some(pool))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::{aggregate, join_on, natural_join, select, AggFunc};
    use crate::relation::RelationBuilder;

    /// A relation large enough that every morsel is non-trivial, with
    /// duplicate join/group keys.
    fn sample(n: usize) -> Relation {
        let key: Vec<i64> = (0..n as i64).map(|i| i % 17).collect();
        let x: Vec<f64> = (0..n).map(|i| ((i * 7) % 23) as f64).collect();
        let tag: Vec<String> = (0..n).map(|i| format!("t{}", i % 5)).collect();
        RelationBuilder::new()
            .name("sample")
            .column("k", key)
            .column("x", x)
            .column("tag", tag)
            .build()
            .unwrap()
    }

    #[test]
    fn parallel_select_matches_serial() {
        let r = sample(2497);
        let p = Expr::col("x")
            .gt(Expr::lit(5.0))
            .and(Expr::col("k").lt(Expr::lit(11i64)));
        for threads in [2, 4, 8] {
            let pool = WorkerPool::new(threads);
            let par = select_parallel(&r, &p, &pool).unwrap();
            let ser = select(&r, &p).unwrap();
            assert_eq!(par, ser, "threads={threads}");
            assert_eq!(par.name(), Some("sample"));
        }
    }

    #[test]
    fn parallel_select_literal_predicate_falls_back() {
        let r = sample(50);
        let p = Expr::lit(1i64).eq(Expr::lit(1i64));
        let pool = WorkerPool::new(4);
        assert_eq!(
            select_parallel(&r, &p, &pool).unwrap(),
            select(&r, &p).unwrap()
        );
    }

    #[test]
    fn parallel_aggregate_matches_serial() {
        let r = sample(2113);
        let aggs = [
            AggSpec::count_star("n"),
            AggSpec::sum("x", "s"),
            AggSpec::avg("x", "a"),
            AggSpec::new(AggFunc::Min, Some("x"), "lo"),
            AggSpec::new(AggFunc::Max, Some("tag"), "hi"),
        ];
        for threads in [2, 4] {
            let pool = WorkerPool::new(threads);
            let par = aggregate_parallel(&r, &["k"], &aggs, &pool).unwrap();
            let ser = aggregate(&r, &["k"], &aggs).unwrap();
            // x is integer-valued, so partial-sum merge order is exact
            assert_eq!(par, ser, "threads={threads}");
        }
    }

    #[test]
    fn parallel_global_aggregate_and_empty_input() {
        let r = sample(2400);
        let aggs = [AggSpec::count_star("n"), AggSpec::sum("x", "s")];
        let pool = WorkerPool::new(4);
        assert_eq!(
            aggregate_parallel(&r, &[], &aggs, &pool).unwrap(),
            aggregate(&r, &[], &aggs).unwrap()
        );
        let empty = r.take(&[]);
        assert_eq!(
            aggregate_parallel(&empty, &[], &aggs, &pool).unwrap(),
            aggregate(&empty, &[], &aggs).unwrap()
        );
        assert_eq!(
            aggregate_parallel(&empty, &["k"], &aggs, &pool).unwrap(),
            aggregate(&empty, &["k"], &aggs).unwrap()
        );
    }

    #[test]
    fn parallel_join_matches_serial() {
        let a = sample(611);
        let b = {
            let key: Vec<i64> = (0..300i64).map(|i| i % 19).collect();
            let y: Vec<f64> = (0..300).map(|i| i as f64).collect();
            RelationBuilder::new()
                .column("j", key)
                .column("y", y)
                .build()
                .unwrap()
        };
        for threads in [2, 4] {
            let pool = WorkerPool::new(threads);
            let par = join_on_parallel(&a, &b, &[("k", "j")], &pool).unwrap();
            let ser = join_on(&a, &b, &[("k", "j")]).unwrap();
            assert_eq!(par, ser, "threads={threads}");
        }
    }

    #[test]
    fn parallel_natural_join_matches_serial() {
        let a = sample(2201);
        let b = {
            let k: Vec<i64> = (0..17).collect();
            let w: Vec<f64> = (0..17).map(|i| (i * i) as f64).collect();
            RelationBuilder::new()
                .column("k", k)
                .column("w", w)
                .build()
                .unwrap()
        };
        let pool = WorkerPool::new(4);
        let par = natural_join_parallel(&a, &b, &pool).unwrap();
        let ser = natural_join(&a, &b).unwrap();
        assert_eq!(par, ser);
        // no common attributes → cross product, same as serial
        let c = RelationBuilder::new()
            .column("z", vec![1i64, 2])
            .build()
            .unwrap();
        assert_eq!(
            natural_join_parallel(&b, &c, &pool).unwrap(),
            natural_join(&b, &c).unwrap()
        );
    }

    #[test]
    fn parallel_join_empty_on_rejected() {
        let r = sample(10);
        assert!(join_on_parallel(&r, &r, &[], &WorkerPool::new(4)).is_err());
    }
}
