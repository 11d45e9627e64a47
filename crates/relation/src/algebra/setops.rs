//! Bag union, duplicate elimination, ordering, limit.

use crate::error::RelationError;
use crate::relation::Relation;
use rma_storage::{Column, KeyCols, KeyIds};

/// `UNION ALL`: bag union of two union-compatible relations. The output
/// keeps the left schema's attribute names.
pub fn union_all(a: &Relation, b: &Relation) -> Result<Relation, RelationError> {
    if !a.schema().union_compatible(b.schema()) {
        return Err(RelationError::NotUnionCompatible);
    }
    let mut columns: Vec<Column> = a.columns().into_owned();
    for (c, other) in columns.iter_mut().zip(b.columns().iter()) {
        c.append(other)?;
    }
    Relation::new(a.schema().clone(), columns)
}

/// Duplicate elimination (SQL `DISTINCT`), keeping first occurrences in
/// input order. Rows are equal under grouping's key equality: NULL meets
/// NULL, `-0.0` meets `0.0`, NaN meets NaN.
pub fn distinct(r: &Relation) -> Result<Relation, RelationError> {
    let names: Vec<&str> = r.schema().names().collect();
    let cols = r.columns_of(&names)?;
    let key = KeyCols::new(&cols, r.len());
    let mut ids = KeyIds::default();
    for i in 0..r.len() {
        ids.id(key.digest(i), i, |rep| key.rows_eq(rep, &key, i));
    }
    Ok(r.take(&ids.reps()))
}

/// `ORDER BY` over the given attributes; `ascending[k]` gives the direction
/// of the k-th attribute (must match `attrs` length; all-ascending if empty).
pub fn order_by(
    r: &Relation,
    attrs: &[&str],
    ascending: &[bool],
) -> Result<Relation, RelationError> {
    let keys = super::sort::sort_keys(r, attrs, ascending)?;
    let mut perm: Vec<usize> = (0..r.len()).collect();
    perm.sort_by(|&x, &y| keys.cmp(x, y));
    Ok(r.take(&perm))
}

/// Top-k: the first `n` rows of `ORDER BY attrs` without materialising the
/// full sort. A bounded binary max-heap of row indices (the same
/// `bounded_top_k` helper each parallel worker runs — see
/// `algebra::sort`) keeps the current k best rows; each remaining row
/// either displaces the heap root or is dropped, so the cost is
/// O(|r| log n) instead of O(|r| log |r|).
///
/// Ties are broken by row index, which makes the result identical to
/// `limit(order_by(r, ...), n, 0)` (the stable serial sort).
pub fn top_k(
    r: &Relation,
    attrs: &[&str],
    ascending: &[bool],
    n: usize,
) -> Result<Relation, RelationError> {
    let keys = super::sort::sort_keys(r, attrs, ascending)?;
    if n == 0 {
        return Ok(r.take(&[]));
    }
    let mut best = super::sort::bounded_top_k(0..r.len(), n, &keys);
    best.sort_unstable_by(|&x, &y| keys.cmp_indexed(x, y));
    Ok(r.take(&best))
}

/// `LIMIT n` (with optional `OFFSET`).
pub fn limit(r: &Relation, n: usize, offset: usize) -> Relation {
    let end = (offset + n).min(r.len());
    let start = offset.min(r.len());
    let idx: Vec<usize> = (start..end).collect();
    r.take(&idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::bits_text;
    use crate::relation::RelationBuilder;
    use rma_storage::Value;

    fn rel() -> Relation {
        RelationBuilder::new()
            .column("x", vec![3i64, 1, 3, 2])
            .column("y", vec!["c", "a", "c", "b"])
            .build()
            .unwrap()
    }

    #[test]
    fn union_all_appends() {
        let u = union_all(&rel(), &rel()).unwrap();
        assert_eq!(u.len(), 8);
        assert_eq!(u.cell(4, "x").unwrap(), Value::Int(3));
    }

    #[test]
    fn union_all_requires_compatibility() {
        let other = RelationBuilder::new()
            .column("x", vec![1.0f64])
            .column("y", vec!["a"])
            .build()
            .unwrap();
        assert!(matches!(
            union_all(&rel(), &other),
            Err(RelationError::NotUnionCompatible)
        ));
    }

    #[test]
    fn union_all_keeps_left_names() {
        let renamed = crate::algebra::rename(&rel(), &[("x", "p"), ("y", "q")]).unwrap();
        let u = union_all(&rel(), &renamed).unwrap();
        assert!(u.schema().contains("x"));
        assert!(!u.schema().contains("p"));
    }

    #[test]
    fn distinct_keeps_first() {
        let d = distinct(&rel()).unwrap();
        assert_eq!(d.len(), 3);
        assert_eq!(d.cell(0, "x").unwrap(), Value::Int(3));
        assert_eq!(d.cell(1, "x").unwrap(), Value::Int(1));
    }

    // -----------------------------------------------------------------
    // DISTINCT key semantics against a pairwise reference
    // -----------------------------------------------------------------

    /// Cell equality as grouping defines it, written without the engine:
    /// NULL meets NULL, floats meet by value or when both are NaN (so
    /// `-0.0` meets `0.0`), every other cell by value.
    fn same_cell(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Float(x), Value::Float(y)) => x == y || (x.is_nan() && y.is_nan()),
            _ => a == b,
        }
    }

    /// `distinct(r)` keeps exactly the first row of every class of
    /// pairwise-equal rows, in input order.
    fn assert_distinct(r: &Relation) -> Relation {
        let rows: Vec<Vec<Value>> = r.rows().collect();
        let first: Vec<usize> = (0..rows.len())
            .filter(|&i| {
                !(0..i).any(|j| rows[j].iter().zip(&rows[i]).all(|(a, b)| same_cell(a, b)))
            })
            .collect();
        let d = distinct(r).unwrap();
        assert_eq!(bits_text(d.rows()), bits_text(r.take(&first).rows()));
        d
    }

    fn typed(dt: rma_storage::DataType, vals: &[Value]) -> Relation {
        let schema = crate::schema::Schema::from_pairs(&[("k", dt)]).unwrap();
        Relation::new(schema, vec![Column::from_values_typed(dt, vals).unwrap()]).unwrap()
    }

    #[test]
    fn distinct_collapses_null_rows_to_one() {
        let (n, i) = (Value::Null, Value::Int);
        let vals = [n.clone(), i(1), n.clone(), i(2), i(1), n];
        let d = assert_distinct(&typed(rma_storage::DataType::Int, &vals));
        assert_eq!(d.len(), 3);
        assert_eq!(d.cell(0, "k").unwrap(), Value::Null);
    }

    #[test]
    fn distinct_collapses_signed_zeros_and_nan_payloads() {
        let nan_a = f64::from_bits(0x7ff8_0000_0000_0001);
        let nan_b = f64::from_bits(0xfff8_0000_0000_0002);
        let vals: Vec<Value> = [0.0, -0.0, nan_a, 1.5, nan_b, -0.0, 1.5]
            .into_iter()
            .map(Value::Float)
            .collect();
        let d = assert_distinct(&typed(rma_storage::DataType::Float, &vals));
        // the first of each class is kept: 0.0, nan_a, 1.5
        assert_eq!(
            bits_text(d.rows()),
            [0.0, nan_a, 1.5].map(|x| format!("f{:016x}", x.to_bits()))
        );
    }

    #[test]
    fn distinct_on_a_dictionary_column_equals_its_plain_twin() {
        let words: Vec<&str> = (0..40)
            .map(|i| ["pear", "fig", "kiwi"][i * 7 % 3])
            .collect();
        let plain = RelationBuilder::new()
            .column("w", words.clone())
            .column("x", (0..40).map(|i| i % 2).collect::<Vec<i64>>())
            .build()
            .unwrap();
        let dict_col = Column::from(words)
            .encode_as(rma_storage::Encoding::Dict)
            .unwrap();
        let dict = RelationBuilder::new()
            .column("w", dict_col)
            .column("x", (0..40).map(|i| i % 2).collect::<Vec<i64>>())
            .build()
            .unwrap();
        let (dp, dd) = (assert_distinct(&plain), assert_distinct(&dict));
        assert_eq!(bits_text(dp.rows()), bits_text(dd.rows()));
        assert_eq!(dp.len(), 6);
    }

    #[test]
    fn distinct_reads_through_a_selection_vector() {
        let view = rel().take(&[3, 1, 0, 3, 2, 1, 2]);
        let d = assert_distinct(&view);
        assert_eq!(
            bits_text(d.rows()),
            bits_text(distinct(&view.materialize()).unwrap().rows())
        );
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn distinct_multi_column_keys_respect_column_order() {
        let r = RelationBuilder::new()
            .column("a", vec![1i64, 2, 1, 2, 1, 2])
            .column("b", vec![2i64, 1, 2, 1, 1, 2])
            .build()
            .unwrap();
        // (1, 2) and (2, 1) are different rows
        assert_eq!(assert_distinct(&r).len(), 4);
        let swapped = crate::algebra::project(&r, &["b", "a"]).unwrap();
        assert_eq!(assert_distinct(&swapped).len(), 4);
    }

    #[test]
    fn order_by_desc() {
        let o = order_by(&rel(), &["x"], &[false]).unwrap();
        let xs: Vec<Value> = o.column("x").unwrap().iter_values().collect();
        assert_eq!(
            xs,
            vec![Value::Int(3), Value::Int(3), Value::Int(2), Value::Int(1)]
        );
    }

    #[test]
    fn order_by_mixed_directions() {
        let r = RelationBuilder::new()
            .column("a", vec![1i64, 1, 2])
            .column("b", vec![10i64, 20, 5])
            .build()
            .unwrap();
        let o = order_by(&r, &["a", "b"], &[true, false]).unwrap();
        assert_eq!(o.cell(0, "b").unwrap(), Value::Int(20));
        assert_eq!(o.cell(1, "b").unwrap(), Value::Int(10));
    }

    #[test]
    fn order_by_direction_arity_checked() {
        assert!(order_by(&rel(), &["x"], &[true, false]).is_err());
    }

    #[test]
    fn top_k_matches_sort_plus_limit() {
        let r = RelationBuilder::new()
            .column("a", vec![5i64, 1, 4, 1, 3, 2, 5, 0])
            .column("b", vec!["e", "b", "d", "a", "c", "x", "y", "z"])
            .build()
            .unwrap();
        for n in 0..=9 {
            for dirs in [vec![true], vec![false]] {
                let tk = top_k(&r, &["a"], &dirs, n).unwrap();
                let full = limit(&order_by(&r, &["a"], &dirs).unwrap(), n, 0);
                assert_eq!(tk, full, "n={n} dirs={dirs:?}");
            }
        }
    }

    #[test]
    fn top_k_breaks_ties_like_stable_sort() {
        let r = RelationBuilder::new()
            .column("a", vec![1i64, 1, 1, 1])
            .column("i", vec![0i64, 1, 2, 3])
            .build()
            .unwrap();
        let tk = top_k(&r, &["a"], &[], 2).unwrap();
        assert_eq!(tk.cell(0, "i").unwrap(), Value::Int(0));
        assert_eq!(tk.cell(1, "i").unwrap(), Value::Int(1));
    }

    #[test]
    fn top_k_checks_direction_arity() {
        assert!(top_k(&rel(), &["x"], &[true, false], 1).is_err());
    }

    #[test]
    fn limit_and_offset() {
        let l = limit(&rel(), 2, 1);
        assert_eq!(l.len(), 2);
        assert_eq!(l.cell(0, "x").unwrap(), Value::Int(1));
        assert_eq!(limit(&rel(), 10, 3).len(), 1);
        assert_eq!(limit(&rel(), 10, 99).len(), 0);
    }
}
