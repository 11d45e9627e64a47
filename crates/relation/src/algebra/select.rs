//! Selection σ.

use crate::error::RelationError;
use crate::expr::Expr;
use crate::par::{guard_checkpoint, morsel_count, partition_ranges, WorkerPool, MIN_PARALLEL_ROWS};
use crate::relation::Relation;

/// σ_predicate(r): keep the tuples for which the predicate is true, as a
/// view. Pooled, the predicate reads morsels of a zero-copy view of just
/// its columns; serial on a one-worker pool, a small input or a predicate
/// that reads no column. It never spills and charges nothing.
pub fn select(
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
        let keep = predicate.eval_filter(r)?;
        return Ok(r.filter(&keep));
    }
    let ref_names: Vec<&str> = refs.iter().map(String::as_str).collect();
    let pred_view = super::project(r, &ref_names)?;
    let ranges = partition_ranges(r.len(), morsel_count(threads, r.len()));
    let keeps = pool.for_each(&ranges, |_, range| {
        predicate.eval_filter(&pred_view.slice(range.clone()))
    });
    // governed queries stop claiming morsels when their guard trips; the
    // checkpoint turns that truncation into the typed error
    guard_checkpoint()?;
    let mut keep = Vec::with_capacity(r.len());
    for k in keeps {
        keep.extend(k?);
    }
    Ok(r.filter(&keep))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::{one_worker, pools};
    use crate::relation::RelationBuilder;
    use rma_storage::Value;

    fn users() -> Relation {
        RelationBuilder::new()
            .column("User", vec!["Ann", "Tom", "Jan"])
            .column("State", vec!["CA", "FL", "CA"])
            .column("YoB", vec![1980i64, 1965, 1970])
            .build()
            .unwrap()
    }

    #[test]
    fn select_by_string_equality() {
        // the paper's σ_{S='CA'}(u)
        let r = select(
            &users(),
            &Expr::col("State").eq(Expr::lit("CA")),
            &one_worker(),
        )
        .unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.cell(0, "User").unwrap(), Value::from("Ann"));
        assert_eq!(r.cell(1, "User").unwrap(), Value::from("Jan"));
    }

    #[test]
    fn select_compound_predicate() {
        let p = Expr::col("State")
            .eq(Expr::lit("CA"))
            .and(Expr::col("YoB").lt(Expr::lit(1975i64)));
        let r = select(&users(), &p, &one_worker()).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.cell(0, "User").unwrap(), Value::from("Jan"));
    }

    #[test]
    fn select_none_and_all() {
        let none = select(
            &users(),
            &Expr::lit(1i64).eq(Expr::lit(2i64)),
            &one_worker(),
        )
        .unwrap();
        assert_eq!(none.len(), 0);
        assert_eq!(none.schema(), users().schema());
        let all = select(
            &users(),
            &Expr::lit(1i64).eq(Expr::lit(1i64)),
            &one_worker(),
        )
        .unwrap();
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn select_propagates_expression_errors() {
        assert!(select(
            &users(),
            &Expr::col("nope").eq(Expr::lit(1i64)),
            &one_worker()
        )
        .is_err());
        assert!(select(&users(), &Expr::col("YoB"), &one_worker()).is_err()); // non-boolean
    }

    #[test]
    fn parallel_select_matches_serial() {
        let r = crate::algebra::sample(2497);
        let p = Expr::col("x")
            .gt(Expr::lit(5.0))
            .and(Expr::col("k").lt(Expr::lit(11i64)));
        let ser = select(&r, &p, &one_worker()).unwrap();
        for pool in pools() {
            let threads = pool.threads();
            let par = select(&r, &p, &pool).unwrap();
            assert_eq!(par, ser, "threads={threads}");
            assert_eq!(par.name(), Some("sample"));
        }
    }

    #[test]
    fn parallel_select_literal_predicate_falls_back() {
        let r = crate::algebra::sample(50);
        let p = Expr::lit(1i64).eq(Expr::lit(1i64));
        let ser = select(&r, &p, &one_worker()).unwrap();
        for pool in pools() {
            assert_eq!(select(&r, &p, &pool).unwrap(), ser);
        }
    }
}
