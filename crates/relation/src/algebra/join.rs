//! Joins: hash equi-join, natural join, theta join, cross product.
//!
//! Late materialization: both join inputs may be selection-vector views.
//! The build and probe sides read key cells straight through their
//! selection vectors ([`JoinSide`]) — neither side is compacted — and the
//! hash table keys on the one row digest of `rma_storage::key`
//! ([`KeyCols::digest`]) instead of boxing a `Value` key per row; the
//! table passes that digest through ([`JoinTable`]) rather than hashing it
//! again. The single gather happens in [`assemble_join`], which composes
//! the match indices with each side's selection vector and materialises
//! only the surviving rows.

use crate::error::RelationError;
use crate::expr::Expr;
use crate::relation::Relation;
use rma_storage::{DigestMap, KeyCols, SelVec};

/// A join's build-side hash table: key digest → build positions, ascending.
/// The grace join partitions on digest bits the table never reads.
pub(super) type JoinTable = DigestMap<Vec<usize>>;

/// Inner equi-join `a ⋈_{a.x = b.y} b` via a hash table on the smaller
/// side's key columns. The output schema is the concatenation of both full
/// schemas; attribute name collisions are an error (rename first).
pub fn join_on(a: &Relation, b: &Relation, on: &[(&str, &str)]) -> Result<Relation, RelationError> {
    if on.is_empty() {
        return Err(RelationError::Expression(
            "equi-join requires at least one key pair".to_string(),
        ));
    }
    let (left_idx, right_idx) = hash_join_indices(a, b, on)?;
    assemble_join(a, b, left_idx, right_idx, &[])
}

/// Natural join: equi-join on all common attribute names, keeping a single
/// copy of each join attribute (the paper's `u ⋈ r` on `User`).
pub fn natural_join(a: &Relation, b: &Relation) -> Result<Relation, RelationError> {
    let common = common_attributes(a, b);
    if common.is_empty() {
        return cross_product(a, b);
    }
    let pairs: Vec<(&str, &str)> = common.iter().map(|&n| (n, n)).collect();
    let (left_idx, right_idx) = hash_join_indices(a, b, &pairs)?;
    assemble_join(a, b, left_idx, right_idx, &common)
}

/// General theta join: nested-loop join with an arbitrary predicate over the
/// concatenated schema. Quadratic — used only when no equi-key exists.
pub fn theta_join(a: &Relation, b: &Relation, predicate: &Expr) -> Result<Relation, RelationError> {
    let product = cross_product(a, b)?;
    super::select(&product, predicate)
}

/// Cross product ×. Collisions between attribute names are an error.
pub fn cross_product(a: &Relation, b: &Relation) -> Result<Relation, RelationError> {
    let schema = a.schema().concat(b.schema())?;
    let (n, m) = (a.len(), b.len());
    // left index: 0,0,...,0,1,1,... ; right index: 0,1,...,m-1,0,1,...
    let mut left_idx = Vec::with_capacity(n * m);
    let mut right_idx = Vec::with_capacity(n * m);
    for i in 0..n {
        for j in 0..m {
            left_idx.push(i);
            right_idx.push(j);
        }
    }
    let left_sel = a.compose_owned(left_idx);
    let right_sel = b.compose_owned(right_idx);
    let mut columns = Vec::with_capacity(schema.len());
    for c in a.base_columns() {
        columns.push(c.gather(&left_sel));
    }
    for c in b.base_columns() {
        columns.push(c.gather(&right_sel));
    }
    Relation::new(schema, columns)
}

/// One side of a hash join: the key's *base* columns, resolved once, plus
/// the relation's selection vector. Positions (0..relation.len()) are
/// resolved to base rows on the fly — probing and building run through the
/// SelVec without compacting either input.
pub(super) struct JoinSide<'a> {
    pub(super) key: KeyCols<'a>,
    sel: Option<&'a SelVec>,
}

impl<'a> JoinSide<'a> {
    pub(super) fn new(r: &'a Relation, keys: &[&str]) -> Result<Self, RelationError> {
        let cols: Vec<&rma_storage::Column> = keys
            .iter()
            .map(|n| r.base_column(n))
            .collect::<Result<_, _>>()?;
        Ok(JoinSide {
            key: KeyCols::new(&cols, r.len()),
            sel: r.sel(),
        })
    }

    /// Base row behind visible position `pos`.
    #[inline]
    pub(super) fn base(&self, pos: usize) -> usize {
        match self.sel {
            Some(s) => s.get(pos),
            None => pos,
        }
    }
}

/// Build-side hash table over visible positions `range` (positions within a
/// morsel are ascending and morsels are disjoint ascending ranges, so
/// per-partition tables merge in partition order). Buckets are keyed by the
/// composite key digest; equal-digest rows of *different* keys are
/// separated at probe time by [`KeyCols::rows_eq`].
pub(super) fn build_side_range(side: &JoinSide, range: std::ops::Range<usize>) -> JoinTable {
    let mut table =
        JoinTable::with_capacity_and_hasher(range.end - range.start, Default::default());
    for pos in range {
        let base = side.base(pos);
        if side.key.has_null(base) {
            continue; // NULL keys never match
        }
        table.entry(side.key.digest(base)).or_default().push(pos);
    }
    table
}

/// Probe visible positions `range` of the probe side against a build
/// table, emitting matching (probe, build) position pairs in probe order.
pub(super) fn probe_range(
    table: &JoinTable,
    build: &JoinSide,
    probe: &JoinSide,
    range: std::ops::Range<usize>,
) -> (Vec<usize>, Vec<usize>) {
    // one match per probe row (a foreign key) is the common case
    let mut left_idx = Vec::with_capacity(range.len());
    let mut right_idx = Vec::with_capacity(range.len());
    for pos in range {
        let pb = probe.base(pos);
        if probe.key.has_null(pb) {
            continue;
        }
        if let Some(bucket) = table.get(&probe.key.digest(pb)) {
            for &j in bucket {
                if probe.key.rows_eq(pb, &build.key, build.base(j)) {
                    left_idx.push(pos);
                    right_idx.push(j);
                }
            }
        }
    }
    (left_idx, right_idx)
}

/// Resolve the key sides of a join.
pub(super) fn join_key_sides<'a>(
    a: &'a Relation,
    b: &'a Relation,
    on: &[(&str, &str)],
) -> Result<(JoinSide<'a>, JoinSide<'a>), RelationError> {
    let left_keys: Vec<&str> = on.iter().map(|(l, _)| *l).collect();
    let right_keys: Vec<&str> = on.iter().map(|(_, r)| *r).collect();
    Ok((
        JoinSide::new(a, &left_keys)?,
        JoinSide::new(b, &right_keys)?,
    ))
}

/// Common attribute names of two relations (the natural-join key set).
pub(super) fn common_attributes<'a>(a: &'a Relation, b: &Relation) -> Vec<&'a str> {
    a.schema()
        .names()
        .filter(|n| b.schema().contains(n))
        .collect()
}

/// Compute matching row-index pairs with a hash table built on the right
/// input (build side), probed by the left.
fn hash_join_indices(
    a: &Relation,
    b: &Relation,
    on: &[(&str, &str)],
) -> Result<(Vec<usize>, Vec<usize>), RelationError> {
    let (probe, build) = join_key_sides(a, b, on)?;
    let table = build_side_range(&build, 0..b.len());
    Ok(probe_range(&table, &build, &probe, 0..a.len()))
}

/// Gather both sides through the match indices — the join's one
/// materialization point; `drop_right` lists right attributes omitted from
/// the output (used by natural join).
pub(super) fn assemble_join(
    a: &Relation,
    b: &Relation,
    left_idx: Vec<usize>,
    right_idx: Vec<usize>,
    drop_right: &[&str],
) -> Result<Relation, RelationError> {
    let kept_right: Vec<&str> = b
        .schema()
        .names()
        .filter(|n| !drop_right.contains(n))
        .collect();
    let right_schema = b.schema().subset(&kept_right)?;
    let schema = a.schema().concat(&right_schema)?;
    let left_sel = a.compose_owned(left_idx);
    let right_sel = b.compose_owned(right_idx);
    let mut columns = Vec::with_capacity(schema.len());
    for c in a.base_columns() {
        columns.push(c.gather(&left_sel));
    }
    for n in &kept_right {
        columns.push(b.base_column(n)?.gather(&right_sel));
    }
    Relation::new(schema, columns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::RelationBuilder;
    use rma_storage::Value;

    fn users() -> Relation {
        RelationBuilder::new()
            .column("User", vec!["Ann", "Tom", "Jan"])
            .column("State", vec!["CA", "FL", "CA"])
            .build()
            .unwrap()
    }

    fn ratings() -> Relation {
        RelationBuilder::new()
            .column("User", vec!["Ann", "Tom", "Jan"])
            .column("Balto", vec![2.0f64, 0.0, 1.0])
            .column("Heat", vec![1.5f64, 0.0, 4.0])
            .build()
            .unwrap()
    }

    #[test]
    fn natural_join_on_user() {
        let j = natural_join(&users(), &ratings()).unwrap();
        assert_eq!(j.len(), 3);
        let names: Vec<_> = j.schema().names().collect();
        assert_eq!(names, vec!["User", "State", "Balto", "Heat"]);
    }

    #[test]
    fn natural_join_without_common_attrs_is_cross() {
        let a = RelationBuilder::new()
            .column("x", vec![1i64, 2])
            .build()
            .unwrap();
        let b = RelationBuilder::new()
            .column("y", vec![10i64])
            .build()
            .unwrap();
        let j = natural_join(&a, &b).unwrap();
        assert_eq!(j.len(), 2);
    }

    #[test]
    fn join_on_different_names_keeps_both() {
        let films = RelationBuilder::new()
            .column("Title", vec!["Heat", "Balto"])
            .column("Director", vec!["Lee", "Lee"])
            .build()
            .unwrap();
        let w7 = RelationBuilder::new()
            .column("C", vec!["Balto", "Heat", "Net"])
            .column("cov", vec![1.56f64, -0.62, -2.5])
            .build()
            .unwrap();
        // the paper's w8 = σ_{D='Lee'}(w7 ⋈_{C=T} f)
        let j = join_on(&w7, &films, &[("C", "Title")]).unwrap();
        assert_eq!(j.len(), 2);
        assert!(j.schema().contains("C"));
        assert!(j.schema().contains("Title"));
    }

    #[test]
    fn join_duplicates_multiply() {
        let a = RelationBuilder::new()
            .column("k", vec![1i64, 1])
            .build()
            .unwrap();
        let b = RelationBuilder::new()
            .column("k2", vec![1i64, 1, 1])
            .build()
            .unwrap();
        let j = join_on(&a, &b, &[("k", "k2")]).unwrap();
        assert_eq!(j.len(), 6);
    }

    #[test]
    fn null_keys_never_match() {
        let a = Relation::from_rows(
            crate::schema::Schema::from_pairs(&[("k", rma_storage::DataType::Int)]).unwrap(),
            &[vec![Value::Null], vec![Value::Int(1)]],
        )
        .unwrap();
        let j = join_on(&a, &a.clone(), &[("k", "k")]);
        // schema collision: k appears twice → rename first
        assert!(j.is_err());
        let b = rename_k(&a);
        let j = join_on(&a, &b, &[("k", "k2")]).unwrap();
        assert_eq!(j.len(), 1); // only the 1=1 match; NULL=NULL is not true
    }

    fn rename_k(r: &Relation) -> Relation {
        super::super::rename(r, &[("k", "k2")]).unwrap()
    }

    #[test]
    fn cross_product_sizes_and_collisions() {
        let a = RelationBuilder::new()
            .column("x", vec![1i64, 2])
            .build()
            .unwrap();
        let b = RelationBuilder::new()
            .column("y", vec![10i64, 20, 30])
            .build()
            .unwrap();
        let c = cross_product(&a, &b).unwrap();
        assert_eq!(c.len(), 6);
        assert_eq!(c.cell(5, "x").unwrap(), Value::Int(2));
        assert_eq!(c.cell(5, "y").unwrap(), Value::Int(30));
        assert!(cross_product(&a, &a.clone()).is_err());
    }

    #[test]
    fn theta_join_inequality() {
        let a = RelationBuilder::new()
            .column("x", vec![1i64, 5])
            .build()
            .unwrap();
        let b = RelationBuilder::new()
            .column("y", vec![3i64, 4])
            .build()
            .unwrap();
        let j = theta_join(&a, &b, &Expr::col("x").lt(Expr::col("y"))).unwrap();
        assert_eq!(j.len(), 2); // (1,3), (1,4)
    }

    #[test]
    fn empty_inputs() {
        let a = users().take(&[]);
        let j = natural_join(&a, &ratings()).unwrap();
        assert_eq!(j.len(), 0);
        assert_eq!(j.schema().len(), 4);
    }

    #[test]
    fn join_requires_key_pairs() {
        assert!(join_on(&users(), &ratings(), &[]).is_err());
    }

    // -----------------------------------------------------------------
    // Join-key semantics under the multiply–xorshift digest
    // -----------------------------------------------------------------

    /// A relation from typed columns.
    fn rel(cols: Vec<(&str, rma_storage::Column)>) -> Relation {
        let attrs = cols
            .iter()
            .map(|(n, c)| crate::schema::Attribute::new(*n, c.data_type()))
            .collect();
        let schema = crate::schema::Schema::new(attrs).unwrap();
        Relation::new(schema, cols.into_iter().map(|(_, c)| c).collect()).unwrap()
    }

    /// `r` repeated until it reaches the pooled join's minimum size.
    fn tiled(r: &Relation) -> Relation {
        let times = crate::par::MIN_PARALLEL_ROWS.div_ceil(r.len().max(1)) + 1;
        Relation::concat(&vec![r.clone(); times]).unwrap()
    }

    /// Rows as text, so NaN keys compare equal to themselves.
    fn rows_text(r: &Relation) -> Vec<String> {
        r.rows().map(|row| format!("{row:?}")).collect()
    }

    fn sorted_rows(r: &Relation) -> Vec<String> {
        let mut rows = rows_text(r);
        rows.sort();
        rows
    }

    /// Join `a ⋈ b` on the serial, pooled (2 and 4 threads) and grace
    /// paths; the pooled ones must equal the serial one row for row, the
    /// grace one (partition-major) as a bag. Returns the serial result.
    fn all_paths(a: &Relation, b: &Relation, on: &[(&str, &str)]) -> Relation {
        use crate::algebra::{grace_join_on, join_on_parallel};
        use crate::par::WorkerPool;
        use crate::spill::{live_spill_files, spill_test_guard};
        let serial = join_on(a, b, on).unwrap();
        for threads in [2, 4] {
            let pool = WorkerPool::new(threads);
            let par = join_on_parallel(a, b, on, &pool).unwrap();
            assert_eq!(par.schema(), serial.schema());
            assert_eq!(
                rows_text(&par),
                rows_text(&serial),
                "pooled join at {threads} threads"
            );
        }
        let _serial = spill_test_guard();
        let baseline = live_spill_files();
        let grace = grace_join_on(a, b, on, &WorkerPool::new(2)).unwrap();
        assert_eq!(sorted_rows(&grace), sorted_rows(&serial), "grace join");
        assert_eq!(live_spill_files(), baseline, "no orphan spill files");
        serial
    }

    #[test]
    fn int_key_never_joins_float_key() {
        let ints = tiled(&rel(vec![("k", vec![5i64, 0, 1].into())]));
        let floats = rel(vec![("f", vec![5.0f64, 0.0, 1.0].into())]);
        assert_eq!(all_paths(&ints, &floats, &[("k", "f")]).len(), 0);
        let floats = tiled(&floats);
        let ints = rel(vec![("k", vec![5i64, 0, 1].into())]);
        assert_eq!(all_paths(&floats, &ints, &[("f", "k")]).len(), 0);
    }

    #[test]
    fn float_keys_join_by_normalised_bits() {
        // -0.0 meets 0.0 and NaN meets NaN, exactly as grouping compares
        let a = tiled(&rel(vec![("k", vec![-0.0f64, f64::NAN, 1.5, 2.0].into())]));
        let b = rel(vec![("k2", vec![0.0f64, -f64::NAN, 2.5].into())]);
        let j = all_paths(&a, &b, &[("k", "k2")]);
        assert_eq!(j.len(), 2 * a.len() / 4);
        assert!(j.rows().all(|row| match (&row[0], &row[1]) {
            (Value::Float(x), Value::Float(y)) => (x.is_nan() && y.is_nan()) || x == y,
            _ => false,
        }));
    }

    #[test]
    fn dict_build_side_meets_plain_probe_side() {
        use rma_storage::{Column, Encoding};
        let plain = tiled(&rel(vec![("s", vec!["x", "y", "z", "w"].into())]));
        let dict_col = Column::from(vec!["y", "x", "q"])
            .encode_as(Encoding::Dict)
            .unwrap();
        let dict = rel(vec![("s2", dict_col)]);
        let j = all_paths(&plain, &dict, &[("s", "s2")]);
        assert_eq!(j.len(), 2 * plain.len() / 4);
        assert!(j.rows().all(|row| row[0] == row[1]));
        // and the other way round: a dictionary probe against a plain build
        let dict_col = Column::from(["y", "x", "q"].repeat(400))
            .encode_as(Encoding::Dict)
            .unwrap();
        let dict_probe = rel(vec![("s2", dict_col)]);
        let plain_build = rel(vec![("s", vec!["x", "q", "w"].into())]);
        let j = all_paths(&dict_probe, &plain_build, &[("s2", "s")]);
        assert_eq!(j.len(), 2 * dict_probe.len() / 3);
    }

    #[test]
    fn composite_key_column_order_is_significant() {
        let a = rel(vec![
            ("p", vec![1i64, 2, 3].into()),
            ("q", vec![2i64, 1, 3].into()),
        ]);
        // the digest of (1, 2) is not the digest of (2, 1)
        let side = JoinSide::new(&a, &["p", "q"]).unwrap();
        assert_ne!(side.key.digest(0), side.key.digest(1));
        let a = tiled(&a);
        let b = rel(vec![("p2", vec![2i64].into()), ("q2", vec![1i64].into())]);
        let j = all_paths(&a, &b, &[("p", "p2"), ("q", "q2")]);
        assert_eq!(j.len(), a.len() / 3);
        assert!(j.rows().all(|row| row[0] == Value::Int(2)));
        // the same pair with the key columns swapped matches the other row
        let j = all_paths(&a, &b, &[("p", "q2"), ("q", "p2")]);
        assert_eq!(j.len(), a.len() / 3);
        assert!(j.rows().all(|row| row[0] == Value::Int(1)));
    }

    #[test]
    fn null_keys_never_match_on_any_path() {
        use rma_storage::{Column, DataType};
        let col = |v: &[Option<i64>]| {
            let vals: Vec<Value> = v
                .iter()
                .map(|x| x.map_or(Value::Null, Value::Int))
                .collect();
            Column::from_values_typed(DataType::Int, &vals).unwrap()
        };
        let a = tiled(&rel(vec![
            ("p", col(&[Some(1), None, Some(2), None])),
            ("q", col(&[Some(1), Some(1), None, None])),
        ]));
        let b = rel(vec![
            ("p2", col(&[Some(1), None, Some(2), None])),
            ("q2", col(&[Some(1), Some(1), None, None])),
        ]);
        // only (1, 1) = (1, 1): a NULL in any key column never matches
        let j = all_paths(&a, &b, &[("p", "p2"), ("q", "q2")]);
        assert_eq!(j.len(), a.len() / 4);
        assert!(j
            .rows()
            .all(|row| row[0] == Value::Int(1) && row[2] == Value::Int(1)));
    }
}
