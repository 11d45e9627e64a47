//! Splitting, sorting, and the matrix/relation constructors (§4.1, §7.2).
//!
//! A relational matrix operation splits its argument into order part and
//! application part (the paper's Algorithm 1 lines 2–4): the order schema
//! `U` is validated as a key, the tuples are ordered by `U`, the order
//! columns are gathered in that order, and the application columns become
//! `f64` columns — the matrix constructor `µ` — lent from the relation
//! wherever the order and the storage allow. The relation constructor `γ`
//! reassembles row-context columns and base-result columns into the result
//! relation.

use crate::context::{RmaContext, SortPolicy};
use crate::error::RmaError;
use rma_relation::{trace, Attribute, Relation, Schema};
use rma_storage::{
    invert_permutation, is_identity_permutation, is_key, key_sort, Column, ColumnAccessor,
    ColumnData, FloatsRef, IntsRef, StorageError,
};
use std::borrow::Cow;

/// The split of one argument relation: contextual information plus the
/// application part as `f64` columns. Borrows from the relation it split
/// (`'a`): plain float columns are lent, not copied.
#[derive(Debug)]
pub struct Split<'a> {
    /// Order-schema attribute metadata, in the order given by the caller.
    pub order_attrs: Vec<Attribute>,
    /// Application-schema attribute names, in schema order.
    pub app_names: Vec<String>,
    /// Order part `r.U`, in operation order.
    pub order_cols: Vec<Column>,
    /// Application part `µ_{U̅}(r)`: one `f64` column per application
    /// attribute. Lent (`Cow::Borrowed`) from plain `Float` columns; owned
    /// only when a column is widened (`Int`), decoded (RLE, packed) or
    /// gathered (`SortMode::Full`). Rows are in operation order unless
    /// [`Split::align`] is set.
    pub app: Vec<Cow<'a, [f64]>>,
    /// Under [`SortMode::AlignTo`]: operation row `i` is row `align[i]` of
    /// `app` — the relation stays in physical order and consumers read it
    /// through this one vector (`None` = `app` is in operation order).
    pub align: Option<Vec<usize>>,
    /// Number of tuples.
    pub rows: usize,
    /// The sort permutation this split computed (`perm[k]` = physical row
    /// at sorted position `k`; `None` when it did not sort or the rows were
    /// already in order): applied to both parts under [`SortMode::Full`],
    /// only recorded under [`SortMode::Rank`].
    pub perm: Option<Vec<usize>>,
}

/// How the split orders tuples. Every mode that sorts reads the key verdict
/// off its own sort; only [`SortMode::Skip`] checks the key without one
/// ([`rma_storage::is_key`], the same verdict).
#[derive(Debug, Clone)]
pub enum SortMode {
    /// Materialise the sort by the order schema.
    Full,
    /// Keep physical order (valid when the operation's result does not
    /// depend on row order).
    Skip,
    /// Keep physical order, but sort to rank the rows: [`Split::perm`] is
    /// what the other argument of a row-aligned operation aligns to.
    Rank,
    /// Align to another relation's row order: operation row `i` of this
    /// split pairs with physical row `i` of the other relation, by rank
    /// under each side's own order schema (the paper's "relative sorting"
    /// for element-wise operations). This relation stays in physical order
    /// behind [`Split::align`].
    AlignTo {
        /// The other relation's sort permutation — its [`Split::perm`]
        /// under [`SortMode::Rank`] (`None` = already in key order).
        other: Option<Vec<usize>>,
    },
}

/// Validate the order schema and split the relation (Algorithm 1 lines 1–7).
pub fn split<'a>(
    ctx: &RmaContext,
    r: &'a Relation,
    order: &[&str],
    mode: SortMode,
) -> Result<Split<'a>, RmaError> {
    // resolve schemas
    let order_schema = r.schema().subset(order)?;
    let app_schema = r.schema().complement(order);
    if app_schema.is_empty() {
        return Err(RmaError::EmptyApplication);
    }
    for a in app_schema.attributes() {
        if !a.dtype().is_numeric() {
            return Err(RmaError::NonNumericApplication {
                attribute: a.name().to_string(),
            });
        }
    }
    let rows = r.len();
    let keys = r.columns_of(order)?;
    if let SortMode::AlignTo { other: Some(other) } = &mode {
        if other.len() != rows {
            return Err(RmaError::TupleCountMismatch {
                left: other.len(),
                right: rows,
            });
        }
    }
    // a split that sorts takes the key verdict from that sort, so only a
    // split that never sorts pays the key check
    let sorted = if matches!(mode, SortMode::Skip) {
        require_key(ctx, order, rows, || is_key(&keys))?;
        None
    } else {
        key_sorted(ctx, &keys, order, rows)?
    };
    let span = trace::clock();
    // the order the parts are read in: Full gathers both by its sort;
    // AlignTo keeps the application part in physical order behind one
    // alignment vector and gathers only the order part; Skip and Rank keep
    // physical order. Already-sorted data never builds a permutation, like
    // MonetDB's sortedness property.
    let full = matches!(mode, SortMode::Full);
    let (perm, align) = match mode {
        SortMode::AlignTo { other } => (None, compose_alignment(other, sorted)),
        _ => (sorted, None),
    };
    let app_rows = if full { perm.as_deref() } else { None };
    let order_rows = app_rows.or(align.as_deref());
    let order_cols: Vec<Column> = keys
        .iter()
        .map(|c| order_rows.map_or_else(|| (*c).clone(), |p| c.take(p)))
        .collect();
    // the matrix constructor µ
    let app: Vec<Cow<'a, [f64]>> = app_schema
        .names()
        .map(|n| app_column(r.column(n)?, app_rows, n))
        .collect::<Result<_, _>>()?;
    if order_rows.is_some() {
        trace::record("rma.align", "rma", 0, span, rows as u64, rows as u64, 1);
    }
    Ok(Split {
        order_attrs: order_schema.attributes().to_vec(),
        app_names: app_schema.names().map(str::to_string).collect(),
        order_cols,
        app,
        align,
        rows,
        perm,
    })
}

/// Decide the sort mode for a unary operation under the context's policy.
pub fn unary_sort_mode(ctx: &RmaContext, op: crate::shape::RmaOp) -> SortMode {
    match ctx.options.sort_policy {
        SortPolicy::Always => SortMode::Full,
        SortPolicy::Optimized => {
            if op.result_depends_on_row_order() {
                SortMode::Full
            } else {
                SortMode::Skip
            }
        }
    }
}

/// `OrderSchemaNotKey` unless the order schema is a key: `unique` decides
/// for a non-empty schema, the empty schema is a key only of relations with
/// at most one row. Nothing is checked when the context does not validate
/// keys.
fn require_key(
    ctx: &RmaContext,
    order: &[&str],
    rows: usize,
    unique: impl FnOnce() -> bool,
) -> Result<(), RmaError> {
    if !ctx.options.validate_keys {
        return Ok(());
    }
    let key = if order.is_empty() {
        rows <= 1
    } else {
        unique()
    };
    if key {
        Ok(())
    } else {
        Err(RmaError::OrderSchemaNotKey(
            order.iter().map(|s| s.to_string()).collect(),
        ))
    }
}

/// Sort rows by the order schema — the one typed sort of
/// `rma_storage::sort`, recorded as an `rma.sort` span — and take the key
/// verdict from the same call. `None` = already in order.
fn key_sorted(
    ctx: &RmaContext,
    keys: &[&Column],
    order: &[&str],
    rows: usize,
) -> Result<Option<Vec<usize>>, RmaError> {
    let span = trace::clock();
    let sorted = key_sort(keys);
    trace::record("rma.sort", "rma", 0, span, rows as u64, rows as u64, 1);
    require_key(ctx, order, rows, || sorted.unique)?;
    Ok(sorted.perm)
}

/// Relative sorting's one alignment vector: the other relation's row at
/// rank `k` pairs with this relation's row at rank `k`, so
/// `align[other[k]] = own[k]` — composed directly, not by inverting and
/// then indexing. `None` on either side is the identity (so the alignment
/// is `own`, or the inverse of `other`); `None` comes back when the rows
/// already pair positionally.
fn compose_alignment(other: Option<Vec<usize>>, own: Option<Vec<usize>>) -> Option<Vec<usize>> {
    match (other, own) {
        (None, own) => own,
        (Some(other), None) => Some(invert_permutation(&other)),
        (Some(other), Some(own)) => {
            let mut align = vec![0; own.len()];
            for (&o, &s) in other.iter().zip(&own) {
                align[o] = s;
            }
            (!is_identity_permutation(&align)).then_some(align)
        }
    }
}

/// One application column as `f64` in the order `perm` gives (`None` =
/// physical order), read through the column accessor — never through the
/// `Column::decoded()` sink. A plain `Float` column in physical order
/// is lent; otherwise one pass widens (`Int`), decodes (RLE, packed) and
/// gathers. Nulls and non-numeric types are rejected.
fn app_column<'a>(
    col: &'a Column,
    perm: Option<&[usize]>,
    name: &str,
) -> Result<Cow<'a, [f64]>, RmaError> {
    if col.null_count() > 0 {
        return Err(RmaError::Storage(StorageError::NullInNumericContext));
    }
    fn read(len: usize, perm: Option<&[usize]>, get: impl Fn(usize) -> f64) -> Vec<f64> {
        match perm {
            Some(p) => p.iter().map(|&i| get(i)).collect(),
            None => (0..len).map(get).collect(),
        }
    }
    let owned = match col.accessor() {
        ColumnAccessor::Float(FloatsRef::Slice(v)) => match perm {
            None => return Ok(Cow::Borrowed(v)),
            Some(_) => read(v.len(), perm, |i| v[i]),
        },
        ColumnAccessor::Float(FloatsRef::Rle(r)) => {
            let v = r.to_vec();
            read(v.len(), perm, |i| v[i])
        }
        ColumnAccessor::Int(IntsRef::Slice(v)) => read(v.len(), perm, |i| v[i] as f64),
        ColumnAccessor::Int(IntsRef::Rle(r)) => {
            let v = r.to_vec();
            read(v.len(), perm, |i| v[i] as f64)
        }
        ColumnAccessor::Int(v @ IntsRef::Packed(_)) => read(v.len(), perm, |i| v.get(i) as f64),
        _ => {
            return Err(RmaError::NonNumericApplication {
                attribute: name.to_string(),
            })
        }
    };
    Ok(Cow::Owned(owned))
}

/// The schema cast `∆U`: a string column holding attribute names (becomes
/// the values of the `C` column for shape-`c1` row origins).
pub fn schema_cast(names: &[String]) -> Column {
    Column::new(ColumnData::Str(names.to_vec()))
}

/// The column cast `▽U`: attribute *names* generated from the values of a
/// single (sorted, key) order column.
pub fn column_cast(col: &Column) -> Result<Vec<String>, RmaError> {
    let mut names = Vec::with_capacity(col.len());
    for v in col.iter_values() {
        let name = v.to_string();
        if name.is_empty() {
            return Err(RmaError::BadOriginName(name));
        }
        names.push(name);
    }
    Ok(names)
}

/// The relation constructor `γ`: assemble row-context columns and base
/// result columns (named `f64` vectors) into a relation.
pub fn build_relation(
    context_cols: Vec<(Attribute, Column)>,
    result_names: &[String],
    result_cols: Vec<Vec<f64>>,
) -> Result<Relation, RmaError> {
    debug_assert_eq!(result_names.len(), result_cols.len());
    let mut attrs: Vec<Attribute> = Vec::with_capacity(context_cols.len() + result_cols.len());
    let mut columns: Vec<Column> = Vec::with_capacity(attrs.capacity());
    for (a, c) in context_cols {
        attrs.push(a);
        columns.push(c);
    }
    for (name, col) in result_names.iter().zip(result_cols) {
        attrs.push(Attribute::new(name.clone(), rma_storage::DataType::Float));
        columns.push(Column::new(ColumnData::Float(col)));
    }
    let schema = Schema::new(attrs)?;
    Ok(Relation::new(schema, columns)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::RmaOp;
    use rma_relation::RelationBuilder;
    use rma_storage::Value;

    fn weather() -> Relation {
        RelationBuilder::new()
            .name("r")
            .column("T", vec!["5am", "8am", "7am", "6am"])
            .column("H", vec![1.0f64, 8.0, 6.0, 1.0])
            .column("W", vec![3.0f64, 5.0, 7.0, 4.0])
            .build()
            .unwrap()
    }

    #[test]
    fn full_sort_gathers_in_key_order() {
        let ctx = RmaContext::default();
        let r = weather();
        let s = split(&ctx, &r, &["T"], SortMode::Full).unwrap();
        assert_eq!(s.app_names, vec!["H", "W"]);
        assert_eq!(s.app[0], vec![1.0, 1.0, 6.0, 8.0]); // H sorted by T
        assert_eq!(s.app[1], vec![3.0, 4.0, 7.0, 5.0]); // W sorted by T
        assert_eq!(s.order_cols[0].get(0), Value::from("5am"));
        assert!(s.perm.is_some());
        assert!(matches!(s.app[0], Cow::Owned(_)));
    }

    #[test]
    fn skip_keeps_physical_order() {
        let ctx = RmaContext::default();
        let r = weather();
        let s = split(&ctx, &r, &["T"], SortMode::Skip).unwrap();
        assert_eq!(s.app[0], vec![1.0, 8.0, 6.0, 1.0]);
        assert!(s.perm.is_none());
        assert!(matches!(s.app[0], Cow::Borrowed(_)));
    }

    #[test]
    fn rank_keeps_physical_order_and_records_the_sort() {
        let ctx = RmaContext::default();
        let r = weather();
        let s = split(&ctx, &r, &["T"], SortMode::Rank).unwrap();
        assert_eq!(s.app[0], vec![1.0, 8.0, 6.0, 1.0]);
        assert!(matches!(s.app[0], Cow::Borrowed(_)));
        assert_eq!(s.order_cols[0].get(1), Value::from("8am"));
        // 5am, 6am, 7am, 8am sit at physical rows 0, 3, 2, 1
        assert_eq!(s.perm, Some(vec![0, 3, 2, 1]));
        assert!(s.align.is_none());
    }

    #[test]
    fn align_to_matches_other_relation() {
        // s has the same keys in a different physical order; aligning s to
        // r's physical order must pair equal keys.
        let ctx = RmaContext::default();
        let r = weather();
        let s_rel = RelationBuilder::new()
            .column("T2", vec!["6am", "5am", "8am", "7am"])
            .column("X", vec![60.0f64, 50.0, 80.0, 70.0])
            .build()
            .unwrap();
        let other = split(&ctx, &r, &["T"], SortMode::Rank).unwrap().perm;
        let s = split(&ctx, &s_rel, &["T2"], SortMode::AlignTo { other }).unwrap();
        // s stays in physical order, lent; operation order is read through
        // the alignment — r physical order: 5am, 8am, 7am, 6am → X: 50, 80,
        // 70, 60
        assert!(matches!(s.app[0], Cow::Borrowed(_)));
        assert_eq!(s.app[0], vec![60.0, 50.0, 80.0, 70.0]);
        let align = s.align.as_deref().unwrap();
        let x: Vec<f64> = align.iter().map(|&i| s.app[0][i]).collect();
        assert_eq!(x, vec![50.0, 80.0, 70.0, 60.0]);
        let t2: Vec<Value> = s.order_cols[0].iter_values().collect();
        assert_eq!(
            t2,
            vec![
                Value::from("5am"),
                Value::from("8am"),
                Value::from("7am"),
                Value::from("6am")
            ]
        );
    }

    #[test]
    fn composed_alignment_equals_invert_then_index() {
        let perms: [Option<Vec<usize>>; 4] = [
            None,
            Some(vec![2, 0, 4, 1, 3]),
            Some(vec![4, 3, 2, 1, 0]),
            Some(vec![1, 2, 3, 4, 0]),
        ];
        let identity = |p: &Option<Vec<usize>>| p.clone().unwrap_or_else(|| (0..5).collect());
        for other in &perms {
            for own in &perms {
                let ranks = invert_permutation(&identity(other));
                let want: Vec<usize> = ranks.iter().map(|&k| identity(own)[k]).collect();
                let got = compose_alignment(other.clone(), own.clone());
                assert_eq!(
                    got.unwrap_or_else(|| (0..5).collect()),
                    want,
                    "{other:?} {own:?}"
                );
            }
        }
        // identical orders pair positionally: no alignment at all
        assert_eq!(compose_alignment(perms[1].clone(), perms[1].clone()), None);
    }

    #[test]
    fn key_violation_detected() {
        let ctx = RmaContext::default();
        let r = RelationBuilder::new()
            .column("k", vec![1i64, 1])
            .column("x", vec![1.0f64, 2.0])
            .build()
            .unwrap();
        assert!(matches!(
            split(&ctx, &r, &["k"], SortMode::Full),
            Err(RmaError::OrderSchemaNotKey(_))
        ));
    }

    #[test]
    fn key_validation_can_be_disabled() {
        let ctx = RmaContext::new(crate::context::RmaOptions {
            validate_keys: false,
            ..Default::default()
        });
        let r = RelationBuilder::new()
            .column("k", vec![1i64, 1])
            .column("x", vec![1.0f64, 2.0])
            .build()
            .unwrap();
        assert!(split(&ctx, &r, &["k"], SortMode::Skip).is_ok());
    }

    #[test]
    fn non_numeric_application_rejected() {
        let ctx = RmaContext::default();
        let r = RelationBuilder::new()
            .column("k", vec![1i64, 2])
            .column("s", vec!["a", "b"])
            .build()
            .unwrap();
        assert!(matches!(
            split(&ctx, &r, &["k"], SortMode::Full),
            Err(RmaError::NonNumericApplication { .. })
        ));
    }

    #[test]
    fn empty_application_rejected() {
        let ctx = RmaContext::default();
        let r = RelationBuilder::new()
            .column("k", vec![1i64, 2])
            .build()
            .unwrap();
        assert!(matches!(
            split(&ctx, &r, &["k"], SortMode::Full),
            Err(RmaError::EmptyApplication)
        ));
    }

    #[test]
    fn int_application_widens() {
        let ctx = RmaContext::default();
        let r = RelationBuilder::new()
            .column("k", vec![2i64, 1])
            .column("x", vec![20i64, 10])
            .build()
            .unwrap();
        let s = split(&ctx, &r, &["k"], SortMode::Full).unwrap();
        assert_eq!(s.app[0], vec![10.0, 20.0]);
        let s = split(&ctx, &r, &["k"], SortMode::Skip).unwrap();
        assert_eq!(s.app[0], vec![20.0, 10.0]);
        assert!(matches!(s.app[0], Cow::Owned(_)));
    }

    #[test]
    fn unary_sort_modes_follow_policy() {
        let ctx = RmaContext::default();
        assert!(matches!(unary_sort_mode(&ctx, RmaOp::Qqr), SortMode::Skip));
        assert!(matches!(unary_sort_mode(&ctx, RmaOp::Inv), SortMode::Full));
        let always = RmaContext::new(crate::context::RmaOptions {
            sort_policy: SortPolicy::Always,
            ..Default::default()
        });
        assert!(matches!(
            unary_sort_mode(&always, RmaOp::Qqr),
            SortMode::Full
        ));
    }

    #[test]
    fn casts() {
        let col = Column::from(vec!["5am", "6am"]);
        assert_eq!(column_cast(&col).unwrap(), vec!["5am", "6am"]);
        let names = schema_cast(&["H".to_string(), "W".to_string()]);
        assert_eq!(names.get(1), Value::from("W"));
        let empty = Column::from(vec![""]);
        assert!(matches!(
            column_cast(&empty),
            Err(RmaError::BadOriginName(_))
        ));
    }

    #[test]
    fn build_relation_gamma() {
        let ctx_cols = vec![(
            Attribute::new("T", rma_storage::DataType::Str),
            Column::from(vec!["7am", "8am"]),
        )];
        let rel = build_relation(
            ctx_cols,
            &["H".to_string(), "W".to_string()],
            vec![vec![-0.19, 0.31], vec![0.27, -0.23]],
        )
        .unwrap();
        assert_eq!(rel.len(), 2);
        let names: Vec<_> = rel.schema().names().collect();
        assert_eq!(names, vec!["T", "H", "W"]);
    }

    #[test]
    fn build_relation_rejects_duplicate_names() {
        let ctx_cols = vec![(
            Attribute::new("H", rma_storage::DataType::Str),
            Column::from(vec!["x"]),
        )];
        assert!(build_relation(ctx_cols, &["H".to_string()], vec![vec![1.0]]).is_err());
    }
}
