//! Splitting, sorting, and the matrix/relation constructors (§4.1, §7.2).
//!
//! A relational matrix operation splits its argument into order part and
//! application part (the paper's Algorithm 1 lines 2–4): the order schema
//! `U` is validated as a key, the tuples are ordered by `U`, the order
//! columns are gathered in that order, and the application columns are
//! gathered into `f64` vectors — the matrix constructor `µ`. The relation
//! constructor `γ` reassembles row-context columns and base-result columns
//! into the result relation.

use crate::context::{RmaContext, SortPolicy};
use crate::error::RmaError;
use rma_relation::algebra::is_key_hash;
use rma_relation::{trace, Attribute, Relation, Schema};
use rma_storage::{invert_permutation, is_identity_permutation, Column, ColumnData, StorageError};

/// The split of one argument relation: contextual information plus the
/// application part as `f64` columns, both in operation order.
#[derive(Debug)]
pub struct Split {
    /// Order-schema attribute metadata, in the order given by the caller.
    pub order_attrs: Vec<Attribute>,
    /// Application-schema attribute names, in schema order.
    pub app_names: Vec<String>,
    /// Order part `r.U`, gathered in operation order.
    pub order_cols: Vec<Column>,
    /// Application part `µ_{U̅}(r)`: one `f64` vector per application
    /// attribute, rows in operation order.
    pub app: Vec<Vec<f64>>,
    /// Number of tuples.
    pub rows: usize,
    /// The sort permutation actually applied (`None` = physical order kept).
    pub perm: Option<Vec<usize>>,
}

/// How the split orders tuples.
#[derive(Debug, Clone)]
pub enum SortMode {
    /// Materialise the sort by the order schema.
    Full,
    /// Keep physical order (valid when the operation's result does not
    /// depend on row order).
    Skip,
    /// Align to another relation's row order: row `i` of this split matches
    /// row `i` of the relation that produced `align_ranks` (the paper's
    /// "relative sorting" for element-wise operations).
    AlignTo {
        /// `ranks[i]` = sorted position of the *other* relation's physical
        /// row `i` under its own order schema.
        ranks: Vec<usize>,
    },
}

/// Validate the order schema and split the relation (Algorithm 1 lines 1–7).
pub fn split(
    ctx: &RmaContext,
    r: &Relation,
    order: &[&str],
    mode: SortMode,
) -> Result<Split, RmaError> {
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
    // key validation: hash-based so that sort-avoiding operations do not
    // pay a sort here
    if ctx.options.validate_keys {
        let cols = r.columns_of(order)?;
        if order.is_empty() {
            if r.len() > 1 {
                return Err(RmaError::OrderSchemaNotKey(vec![]));
            }
        } else if !is_key_hash(&cols) {
            return Err(RmaError::OrderSchemaNotKey(
                order.iter().map(|s| s.to_string()).collect(),
            ));
        }
    }
    // establish operation order; identity permutations (already-sorted
    // data) skip the gather entirely, like MonetDB's sortedness property
    let perm: Option<Vec<usize>> = match mode {
        SortMode::Full => Some(sort_permutation(r, order)?),
        SortMode::Skip => None,
        SortMode::AlignTo { ranks } => {
            // this relation sorted by its own keys, then re-ordered so that
            // row i matches the other relation's physical row i
            let own_sorted = sort_permutation(r, order)?;
            Some(ranks.iter().map(|&rank| own_sorted[rank]).collect())
        }
    };
    let perm = perm.filter(|p| !is_identity_permutation(p));
    let span = trace::clock();
    // gather order part
    let order_cols: Vec<Column> = match &perm {
        Some(p) => order
            .iter()
            .map(|n| Ok(r.column(n)?.take(p)))
            .collect::<Result<_, RmaError>>()?,
        None => order
            .iter()
            .map(|n| Ok(r.column(n)?.clone()))
            .collect::<Result<_, RmaError>>()?,
    };
    // gather application part as f64 columns (matrix constructor µ)
    let app: Vec<Vec<f64>> = app_schema
        .names()
        .map(|n| gather_f64(r.column(n)?, perm.as_deref(), n))
        .collect::<Result<_, _>>()?;
    if perm.is_some() {
        let rows = r.len() as u64;
        trace::record("rma.align", "rma", 0, span, rows, rows, 1);
    }
    Ok(Split {
        order_attrs: order_schema.attributes().to_vec(),
        app_names: app_schema.names().map(str::to_string).collect(),
        order_cols,
        app,
        rows: r.len(),
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

/// For aligned binary operations: ranks of the first relation's physical
/// rows under its order schema (`ranks[i]` = sorted position of row `i`).
pub fn alignment_ranks(r: &Relation, order: &[&str]) -> Result<Vec<usize>, RmaError> {
    let perm = sort_permutation(r, order)?;
    Ok(invert_permutation(&perm))
}

/// The sort permutation of `r` under `order` — the one typed sort of
/// `rma_storage::sort` — recorded as an `rma.sort` span.
fn sort_permutation(r: &Relation, order: &[&str]) -> Result<Vec<usize>, RmaError> {
    let span = trace::clock();
    let perm = r.sort_permutation_by(order)?;
    let rows = r.len() as u64;
    trace::record("rma.sort", "rma", 0, span, rows, rows, 1);
    Ok(perm)
}

/// Gather one column as `f64` in the given order, widening integers and
/// rejecting nulls and non-numeric types.
fn gather_f64(col: &Column, perm: Option<&[usize]>, name: &str) -> Result<Vec<f64>, RmaError> {
    if col.null_count() > 0 {
        return Err(RmaError::Storage(StorageError::NullInNumericContext));
    }
    let out = match (col.data(), perm) {
        (ColumnData::Float(v), None) => v.clone(),
        (ColumnData::Float(v), Some(p)) => p.iter().map(|&i| v[i]).collect(),
        (ColumnData::Int(v), None) => v.iter().map(|&x| x as f64).collect(),
        (ColumnData::Int(v), Some(p)) => p.iter().map(|&i| v[i] as f64).collect(),
        _ => {
            return Err(RmaError::NonNumericApplication {
                attribute: name.to_string(),
            })
        }
    };
    Ok(out)
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
        let s = split(&ctx, &weather(), &["T"], SortMode::Full).unwrap();
        assert_eq!(s.app_names, vec!["H", "W"]);
        assert_eq!(s.app[0], vec![1.0, 1.0, 6.0, 8.0]); // H sorted by T
        assert_eq!(s.app[1], vec![3.0, 4.0, 7.0, 5.0]); // W sorted by T
        assert_eq!(s.order_cols[0].get(0), Value::from("5am"));
        assert!(s.perm.is_some());
    }

    #[test]
    fn skip_keeps_physical_order() {
        let ctx = RmaContext::default();
        let s = split(&ctx, &weather(), &["T"], SortMode::Skip).unwrap();
        assert_eq!(s.app[0], vec![1.0, 8.0, 6.0, 1.0]);
        assert!(s.perm.is_none());
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
        let ranks = alignment_ranks(&r, &["T"]).unwrap();
        let s = split(&ctx, &s_rel, &["T2"], SortMode::AlignTo { ranks }).unwrap();
        // r physical order: 5am, 8am, 7am, 6am → aligned X: 50, 80, 70, 60
        assert_eq!(s.app[0], vec![50.0, 80.0, 70.0, 60.0]);
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
