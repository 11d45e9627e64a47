//! Joins: hash equi-join, natural join, theta join, cross product.
//!
//! Late materialization: both join inputs may be selection-vector views.
//! The build and probe sides read key cells straight through their
//! selection vectors ([`JoinSide`]) — neither side is compacted. Every
//! equi-join — serial, pooled and each grace partition's — builds one
//! [`JoinTable`] over its right input: positional `u32` chains with no
//! allocation per key, addressed either by the low bits of the row digest
//! of `rma_storage::key` ([`KeyCols::digest`]) or, for a small integer key,
//! by its [`DirectKey`] slot. The single gather happens in
//! [`assemble_join`], which composes the match indices with each side's
//! selection vector and materialises only the surviving rows.

use crate::error::RelationError;
use crate::expr::Expr;
use crate::par::{guard_checkpoint, morsel_count, partition_ranges, WorkerPool, MIN_PARALLEL_ROWS};
use crate::relation::Relation;
use crate::trace;
use rma_storage::{Column, ColumnAccessor, DirectKey, IntsRef, KeyCols, SelVec};

/// A digest-indexed [`JoinTable`] reads at most this many low digest bits
/// (2²⁷ buckets); the grace join partitions on bits above them.
pub(super) const TABLE_INDEX_BITS: u32 = 27;

/// A [`JoinTable`] is direct when its key's [`DirectKey`] image over the
/// build rows needs at most this many slots per row.
const DIRECT_SLOTS_PER_ROW: usize = 8;

/// Bytes an equi-join's build over `build_rows` rows is charged: the
/// planner's spill decision and its working-set charge. It bounds both
/// `JoinTable` shapes — a digest table's `u32` bucket heads (at most 4
/// per row after rounding up), `u32` links and `u64` digests take ≤ 28 B
/// a row, a direct table at its slot cap 36 B a row.
pub fn join_build_bytes(build_rows: usize) -> u64 {
    48 * build_rows as u64
}

/// An equi-join's build table over the build side's visible positions.
/// `head` holds, per bucket or slot, the first position of its chain and
/// `next`, per position, the one after it; both are 1-based, so 0 ends a
/// chain. Positions go in in descending order, so every chain lists them
/// ascending and matches come out in build order.
pub(super) struct JoinTable<'a> {
    head: Vec<u32>,
    next: Vec<u32>,
    index: TableIndex<'a>,
}

/// How a [`JoinTable`] addresses its chains.
enum TableIndex<'a> {
    /// By a [`KeyCols::digest`]'s low bits under `mask`; each position
    /// keeps its digest so the probe confirms equality only on a full
    /// digest match.
    Digest { mask: u64, digest: Vec<u64> },
    /// By the [`DirectKey`] slot: one chain per key value, no equality
    /// check at all.
    Direct(DirectKey<'a>),
}

/// Buckets of a digest-indexed [`JoinTable`] over `rows` rows: a power of
/// two, two to four per row, at most 2^[`TABLE_INDEX_BITS`].
fn buckets(rows: usize) -> usize {
    (2 * rows).next_power_of_two().min(1 << TABLE_INDEX_BITS)
}

impl<'a> JoinTable<'a> {
    /// The table over all of `side`'s visible positions: direct when its key
    /// has a [`DirectKey`] image over them of at most
    /// [`DIRECT_SLOTS_PER_ROW`] slots per row, otherwise digest-indexed over
    /// [`buckets`]`(rows)` chains. Rows with a NULL key
    /// cell are left out — they never match. A side of `u32::MAX` rows or
    /// more is refused.
    pub(super) fn build(side: &JoinSide<'a>) -> Result<Self, RelationError> {
        let rows = side.rows;
        if rows >= u32::MAX as usize {
            return Err(RelationError::JoinBuildTooLarge { rows });
        }
        let mut next = vec![0u32; rows];
        if let Some(direct) = DirectKey::within(&side.cols, side.sel, DIRECT_SLOTS_PER_ROW * rows) {
            let mut head = vec![0u32; direct.slots()];
            for pos in (0..rows).rev() {
                let first = &mut head[direct.slot(side.base(pos))];
                next[pos] = std::mem::replace(first, pos as u32 + 1);
            }
            return Ok(JoinTable {
                head,
                next,
                index: TableIndex::Direct(direct),
            });
        }
        let mut head = vec![0u32; buckets(rows)];
        let mask = head.len() as u64 - 1;
        let mut digest = vec![0u64; rows];
        for pos in (0..rows).rev() {
            let base = side.base(pos);
            if side.key.has_null(base) {
                continue;
            }
            let d = side.key.digest(base);
            digest[pos] = d;
            let first = &mut head[(d & mask) as usize];
            next[pos] = std::mem::replace(first, pos as u32 + 1);
        }
        Ok(JoinTable {
            head,
            next,
            index: TableIndex::Digest { mask, digest },
        })
    }

    /// Probe visible positions `range` of `probe` against this table over
    /// `build`, emitting matching (probe, build) position pairs in probe
    /// order, each probe row's matches in ascending build order.
    pub(super) fn probe(
        &self,
        build: &JoinSide,
        probe: &JoinSide,
        range: std::ops::Range<usize>,
    ) -> (Vec<usize>, Vec<usize>) {
        // one match per probe row (a foreign key) is the common case
        let mut left_idx = Vec::with_capacity(range.len());
        let mut right_idx = Vec::with_capacity(range.len());
        match &self.index {
            TableIndex::Direct(direct) => {
                // a non-Int probe column meets no Int key
                let Some(ints) = probe.ints() else {
                    return (left_idx, right_idx);
                };
                for pos in range {
                    let pb = probe.base(pos);
                    if probe.key.has_null(pb) {
                        continue;
                    }
                    let Some(slot) = direct.probe_slot(&ints, pb) else {
                        continue;
                    };
                    let mut e = self.head[slot];
                    while e != 0 {
                        let j = e as usize - 1;
                        left_idx.push(pos);
                        right_idx.push(j);
                        e = self.next[j];
                    }
                }
            }
            TableIndex::Digest { mask, digest } => {
                for pos in range {
                    let pb = probe.base(pos);
                    if probe.key.has_null(pb) {
                        continue;
                    }
                    let d = probe.key.digest(pb);
                    let mut e = self.head[(d & mask) as usize];
                    while e != 0 {
                        let j = e as usize - 1;
                        if digest[j] == d && probe.key.rows_eq(pb, &build.key, build.base(j)) {
                            left_idx.push(pos);
                            right_idx.push(j);
                        }
                        e = self.next[j];
                    }
                }
            }
        }
        (left_idx, right_idx)
    }
}

/// Inner equi-join `a ⋈_{a.x = b.y} b` via a hash table on the right
/// input's key columns (the optimizer puts the smaller side there). The
/// output schema is the concatenation of both full schemas; attribute name
/// collisions are an error (rename first).
pub fn join_on(a: &Relation, b: &Relation, on: &[(&str, &str)]) -> Result<Relation, RelationError> {
    equi_join(a, b, on, None)
}

/// [`join_on`], probing on `pool`'s workers when one is given.
pub(super) fn equi_join(
    a: &Relation,
    b: &Relation,
    on: &[(&str, &str)],
    pool: Option<&WorkerPool>,
) -> Result<Relation, RelationError> {
    if on.is_empty() {
        return Err(RelationError::Expression(
            "equi-join requires at least one key pair".to_string(),
        ));
    }
    let (left_idx, right_idx) = join_indices(a, b, on, pool)?;
    assemble_join(a, b, left_idx, right_idx, &[])
}

/// Natural join: equi-join on all common attribute names, keeping a single
/// copy of each join attribute (the paper's `u ⋈ r` on `User`).
pub fn natural_join(a: &Relation, b: &Relation) -> Result<Relation, RelationError> {
    natural_equi_join(a, b, None)
}

/// [`natural_join`], probing on `pool`'s workers when one is given.
pub(super) fn natural_equi_join(
    a: &Relation,
    b: &Relation,
    pool: Option<&WorkerPool>,
) -> Result<Relation, RelationError> {
    let common = common_attributes(a, b);
    if common.is_empty() {
        return cross_product(a, b);
    }
    let pairs: Vec<(&str, &str)> = common.iter().map(|&n| (n, n)).collect();
    let (left_idx, right_idx) = join_indices(a, b, &pairs, pool)?;
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
/// the relation's selection vector and visible row count. Positions
/// (0..rows) are resolved to base rows on the fly — probing and building
/// run through the SelVec without compacting either input.
pub(super) struct JoinSide<'a> {
    pub(super) key: KeyCols<'a>,
    cols: Vec<&'a Column>,
    sel: Option<&'a SelVec>,
    rows: usize,
}

impl<'a> JoinSide<'a> {
    pub(super) fn new(r: &'a Relation, keys: &[&str]) -> Result<Self, RelationError> {
        let cols: Vec<&Column> = keys
            .iter()
            .map(|n| r.base_column(n))
            .collect::<Result<_, _>>()?;
        Ok(JoinSide {
            key: KeyCols::new(&cols, r.len()),
            cols,
            sel: r.sel(),
            rows: r.len(),
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

    /// The key columns' integers, when every one of them is an `Int`.
    fn ints(&self) -> Option<Vec<IntsRef<'a>>> {
        self.cols
            .iter()
            .map(|c| match c.accessor() {
                ColumnAccessor::Int(v) => Some(v),
                _ => None,
            })
            .collect()
    }
}

/// Resolve the key sides of a join.
fn join_key_sides<'a>(
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

/// Matching (probe, build) position pairs of `a ⋈_on b`, in probe order:
/// one [`JoinTable`] over `b`, probed by `a` — in morsels on the workers of
/// a `pool` of more than one thread when `a` has enough rows, concatenated
/// in morsel order.
fn join_indices(
    a: &Relation,
    b: &Relation,
    on: &[(&str, &str)],
    pool: Option<&WorkerPool>,
) -> Result<(Vec<usize>, Vec<usize>), RelationError> {
    let (probe, build) = join_key_sides(a, b, on)?;
    let span = trace::clock();
    let table = JoinTable::build(&build)?;
    trace::record("join.build", "join", 0, span, b.len() as u64, 0, 1);
    let pool = match pool {
        Some(pool) if pool.threads() > 1 && a.len() >= MIN_PARALLEL_ROWS => pool,
        _ => return Ok(table.probe(&build, &probe, 0..a.len())),
    };
    let ranges = partition_ranges(a.len(), morsel_count(pool.threads(), a.len()));
    let pairs = pool.for_each(&ranges, |lane, range| {
        let span = trace::clock();
        let out = table.probe(&build, &probe, range.clone());
        trace::record(
            "join.probe",
            "join",
            lane,
            span,
            range.len() as u64,
            out.0.len() as u64,
            1,
        );
        out
    });
    guard_checkpoint()?;
    let matches = pairs.iter().map(|(l, _)| l.len()).sum();
    let mut left_idx = Vec::with_capacity(matches);
    let mut right_idx = Vec::with_capacity(matches);
    for (l, r) in pairs {
        left_idx.extend_from_slice(&l);
        right_idx.extend_from_slice(&r);
    }
    Ok((left_idx, right_idx))
}

/// Gather both sides through the match indices — the join's one
/// materialization point; `drop_right` lists right attributes omitted from
/// the output (used by natural join).
fn assemble_join(
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
        // an Int build with a direct image, probed by floats
        let floats = tiled(&floats);
        let ints = rel(vec![("k", vec![5i64, 0, 1].into())]);
        assert!(is_direct(&ints, &["k"]));
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

    // -----------------------------------------------------------------
    // The join table against a nested-loop reference
    // -----------------------------------------------------------------

    /// Are two cells equal join keys? NULL never matches, cells match only
    /// within one type, floats by `==` (so `-0.0` meets `0.0`) except that
    /// NaN meets NaN.
    fn ref_key_eq(x: &Value, y: &Value) -> bool {
        match (x, y) {
            (Value::Null, _) | (_, Value::Null) => false,
            (Value::Float(a), Value::Float(b)) => a == b || (a.is_nan() && b.is_nan()),
            _ => std::mem::discriminant(x) == std::mem::discriminant(y) && x == y,
        }
    }

    /// `a ⋈_on b` by definition: every row pair, in probe then build
    /// order, whose key cells all match.
    fn reference(a: &Relation, b: &Relation, on: &[(&str, &str)]) -> Vec<String> {
        let idx = |r: &Relation, n: &str| r.schema().index_of(n).unwrap();
        let keys: Vec<(usize, usize)> = on.iter().map(|(l, r)| (idx(a, l), idx(b, r))).collect();
        let build: Vec<Vec<Value>> = b.rows().collect();
        let mut out = Vec::new();
        for x in a.rows() {
            for y in &build {
                if keys.iter().all(|&(i, j)| ref_key_eq(&x[i], &y[j])) {
                    out.push(format!("{:?}", [x.clone(), y.clone()].concat()));
                }
            }
        }
        out
    }

    /// Every path's `a ⋈_on b` equals the reference: serial and pooled as
    /// lists, grace as a bag. Returns the match count.
    fn matches_reference(a: &Relation, b: &Relation, on: &[(&str, &str)]) -> usize {
        let want = reference(a, b, on);
        assert_eq!(rows_text(&all_paths(a, b, on)), want);
        want.len()
    }

    /// Does the build table over `b`'s `keys` index by direct slots?
    fn is_direct(b: &Relation, keys: &[&str]) -> bool {
        let side = JoinSide::new(b, keys).unwrap();
        let table = JoinTable::build(&side).unwrap();
        matches!(table.index, TableIndex::Direct(_))
    }

    fn ints(v: &[i64]) -> rma_storage::Column {
        v.to_vec().into()
    }

    #[test]
    fn direct_probe_outside_an_offset_domain_matches_nothing() {
        // build keys in -40..=-33 with duplicates and gaps; probes below,
        // above, inside, in the gaps and at the i64 extremes
        let b = rel(vec![
            ("k2", ints(&[-40, -37, -40, -33, -35, -37, -40])),
            ("v", ints(&[0, 1, 2, 3, 4, 5, 6])),
        ]);
        assert!(is_direct(&b, &["k2"]));
        let mut probe: Vec<i64> = (-60..=0).collect();
        probe.extend([i64::MIN, i64::MAX, -33, -40]);
        let a = tiled(&rel(vec![("k", ints(&probe))]));
        let n = matches_reference(&a, &b, &[("k", "k2")]);
        assert_eq!(n, a.len() / probe.len() * (7 + 1 + 3));
    }

    #[test]
    fn duplicate_build_keys_match_in_build_order_on_both_tables() {
        let keys = [3i64, 1, 3, 2, 3, 1];
        let b = rel(vec![("k2", ints(&keys)), ("v", ints(&[0, 1, 2, 3, 4, 5]))]);
        assert!(is_direct(&b, &["k2"]));
        let a = tiled(&rel(vec![("k", ints(&[1, 3, 4, 2]))]));
        matches_reference(&a, &b, &[("k", "k2")]);
        // the same keys as strings take the digest table
        let names = |v: &[i64]| -> rma_storage::Column {
            v.iter().map(|k| format!("s{k}")).collect::<Vec<_>>().into()
        };
        let b = rel(vec![("k2", names(&keys)), ("v", ints(&[0, 1, 2, 3, 4, 5]))]);
        assert!(!is_direct(&b, &["k2"]));
        let a = tiled(&rel(vec![("k", names(&[1, 3, 4, 2]))]));
        matches_reference(&a, &b, &[("k", "k2")]);
    }

    #[test]
    fn two_column_direct_key_checks_each_column_range() {
        // p ∈ 0..=3 (stride 1), q ∈ 10..=12 (stride 4): a probe (4, 10)
        // sums to the slot of (0, 11) but is outside p's range
        let (mut p2, mut q2) = (Vec::new(), Vec::new());
        for p in 0..4 {
            for q in 10..13 {
                if (p + q) % 4 != 0 {
                    p2.push(p);
                    q2.push(q);
                }
            }
        }
        let b = rel(vec![("p2", ints(&p2)), ("q2", ints(&q2))]);
        assert!(is_direct(&b, &["p2", "q2"]));
        let (mut p, mut q) = (Vec::new(), Vec::new());
        for x in -2..7 {
            for y in 8..15 {
                p.push(x);
                q.push(y);
            }
        }
        let a = tiled(&rel(vec![("p", ints(&p)), ("q", ints(&q))]));
        let n = matches_reference(&a, &b, &[("p", "p2"), ("q", "q2")]);
        assert_eq!(n, a.len() / p.len() * p2.len());
    }

    #[test]
    fn every_encoding_pair_matches_the_reference() {
        use rma_storage::Encoding;
        let build: Vec<i64> = [3, 3, 3, 3, 5, 5, 5, 5, 7, 9, 9, 9, 9, 12].to_vec();
        let probe: Vec<i64> = [2, 3, 3, 3, 3, 4, 5, 5, 5, 5, 9, 12, 12, 12, 12, 13].repeat(80);
        for be in [Encoding::Plain, Encoding::Packed, Encoding::Rle] {
            for pe in [Encoding::Plain, Encoding::Packed, Encoding::Rle] {
                let b = rel(vec![("k2", ints(&build).encode_as(be).unwrap())]);
                let a = rel(vec![("k", ints(&probe).encode_as(pe).unwrap())]);
                assert!(is_direct(&b, &["k2"]), "{be:?} build");
                let n = matches_reference(&a, &b, &[("k", "k2")]);
                assert_eq!(n, 80 * (4 * 4 + 4 * 4 + 4 + 4), "{be:?} ⋈ {pe:?}");
            }
        }
    }

    #[test]
    fn selection_views_on_both_sides_match_the_reference() {
        let base_b = rel(vec![
            (
                "k2",
                ints(&(0..3000).map(|i| (i * 7) % 600).collect::<Vec<_>>()),
            ),
            ("v", ints(&(0..3000).collect::<Vec<_>>())),
        ]);
        let base_a = rel(vec![(
            "k",
            ints(&(0..4000).map(|i| (i * 13) % 700 - 50).collect::<Vec<_>>()),
        )]);
        // a filtered build view, and a reordering take with repeats
        let keep: Vec<bool> = (0..3000).map(|i| i % 5 == 1).collect();
        let b = base_b.filter(&keep);
        assert!(b.sel().is_some() && is_direct(&b, &["k2"]));
        let pick: Vec<usize> = (0..1500).map(|i| (i * 37) % 4000).collect();
        let a = base_a.take(&pick);
        assert!(a.sel().is_some());
        matches_reference(&a, &b, &[("k", "k2")]);
        // the digest table through the same views
        let b = b.take(&(0..b.len()).rev().collect::<Vec<_>>());
        let floats = |r: &Relation, from: &str, to: &str| {
            crate::algebra::project_exprs(r, &[(Expr::col(from).mul(Expr::lit(0.5)), to)]).unwrap()
        };
        let (fa, fb) = (floats(&a, "k", "k"), floats(&b, "k2", "k2"));
        assert!(!is_direct(&fb, &["k2"]));
        matches_reference(
            &fa.slice(3..fa.len()),
            &fb.slice(1..fb.len()),
            &[("k", "k2")],
        );
    }

    #[test]
    fn nullable_build_key_takes_the_digest_table() {
        let vals: Vec<Value> = (0..40)
            .map(|i| {
                if i % 4 == 0 {
                    Value::Null
                } else {
                    Value::Int(i % 9)
                }
            })
            .collect();
        let col = rma_storage::Column::from_values_typed(rma_storage::DataType::Int, &vals);
        let b = rel(vec![("k2", col.unwrap())]);
        assert!(!is_direct(&b, &["k2"]));
        let a = tiled(&rel(vec![("k", ints(&(-2..12).collect::<Vec<_>>()))]));
        matches_reference(&a, &b, &[("k", "k2")]);
    }

    #[test]
    fn direct_slot_cap_is_eight_per_build_row() {
        // ten rows: 80 slots is direct, 81 is not
        assert_eq!(DIRECT_SLOTS_PER_ROW, 8);
        let keys = |top: i64| (0..9).map(|i| i * 3).chain([top]).collect::<Vec<i64>>();
        let at = rel(vec![("k2", ints(&keys(79)))]);
        let over = rel(vec![("k2", ints(&keys(80)))]);
        assert!(is_direct(&at, &["k2"]));
        assert!(!is_direct(&over, &["k2"]));
        let a = tiled(&rel(vec![("k", ints(&(-1..82).collect::<Vec<_>>()))]));
        assert_eq!(
            matches_reference(&a, &at, &[("k", "k2")]),
            a.len() / 83 * 10
        );
        assert_eq!(
            matches_reference(&a, &over, &[("k", "k2")]),
            a.len() / 83 * 10
        );
    }

    #[test]
    fn a_view_spans_only_its_visible_keys() {
        // a 100 000-row base spanning 0..10⁸, whose first 100 rows hold
        // 500..600: a view of those rows is direct over its own 100 slots,
        // a view that also shows one far row is digest-indexed
        let base = rel(vec![(
            "k2",
            ints(
                &(0..100_000)
                    .map(|i| if i < 100 { 500 + i } else { i * 1000 })
                    .collect::<Vec<_>>(),
            ),
        )]);
        let near = base.slice(0..100);
        let side = JoinSide::new(&near, &["k2"]).unwrap();
        let table = JoinTable::build(&side).unwrap();
        assert!(matches!(table.index, TableIndex::Direct(_)));
        assert_eq!(table.head.len(), 100);
        let far = base.take(&(0..100).chain([99_999]).collect::<Vec<_>>());
        assert!(far.sel().is_some() && !is_direct(&far, &["k2"]));
        let mut probe: Vec<i64> = (450..650).collect();
        probe.push(99_999_000);
        let a = tiled(&rel(vec![("k", ints(&probe))]));
        assert_eq!(
            matches_reference(&a, &near, &[("k", "k2")]),
            a.len() / probe.len() * 100
        );
        assert_eq!(
            matches_reference(&a, &far, &[("k", "k2")]),
            a.len() / probe.len() * 101
        );
    }

    #[test]
    fn keys_sharing_the_table_index_bits_share_one_chain() {
        // the digest is unkeyed: integers far apart (so no direct image)
        // whose digests agree on the 64-bucket table's low 6 bits
        let rows = 24;
        let mask = buckets(rows) as u64 - 1;
        assert_eq!(mask, 63);
        let candidates: Vec<i64> = (0..4000).map(|i| i * 1_000_003).collect();
        let cand_col = ints(&candidates);
        let digests = KeyCols::new(&[&cand_col], candidates.len());
        let target = digests.digest(0) & mask;
        let colliding: Vec<i64> = (0..candidates.len())
            .filter(|&i| digests.digest(i) & mask == target)
            .map(|i| candidates[i])
            .take(rows)
            .collect();
        assert_eq!(colliding.len(), rows);
        let b = rel(vec![("k2", ints(&colliding))]);
        let side = JoinSide::new(&b, &["k2"]).unwrap();
        let table = JoinTable::build(&side).unwrap();
        assert!(matches!(table.index, TableIndex::Digest { .. }));
        assert_eq!(table.head.iter().filter(|&&h| h != 0).count(), 1);
        // probes: every colliding key, and other keys in the same bucket
        let probe: Vec<i64> = colliding
            .iter()
            .copied()
            .chain(
                candidates
                    .iter()
                    .copied()
                    .filter(|k| !colliding.contains(k))
                    .take(40),
            )
            .collect();
        let a = tiled(&rel(vec![("k", ints(&probe))]));
        assert_eq!(
            matches_reference(&a, &b, &[("k", "k2")]),
            a.len() / probe.len() * rows
        );
    }

    /// A [`JoinTable`]'s heap bytes.
    fn table_bytes(t: &JoinTable) -> u64 {
        let digests = match &t.index {
            TableIndex::Digest { digest, .. } => digest.capacity(),
            TableIndex::Direct(_) => 0,
        };
        (4 * (t.head.capacity() + t.next.capacity()) + 8 * digests) as u64
    }

    #[test]
    fn both_table_shapes_fit_the_planner_charge() {
        // direct at its cap: 4·slots + 4·rows = 36 B a row
        let top = (DIRECT_SLOTS_PER_ROW * 1001 - 1) as i64;
        let at_cap = rel(vec![(
            "k",
            ints(&(0..1000).map(|i| i * 8).chain([top]).collect::<Vec<_>>()),
        )]);
        let spread = |n: i64| {
            rel(vec![(
                "k",
                ints(&(0..n).map(|i| i * 1_000_003).collect::<Vec<_>>()),
            )])
        };
        let shapes = [
            at_cap,
            spread(1),
            spread(3),
            spread(1024),
            spread(1025),
            spread(5000),
        ];
        for r in &shapes {
            let side = JoinSide::new(r, &["k"]).unwrap();
            let table = JoinTable::build(&side).unwrap();
            assert!(
                table_bytes(&table) <= join_build_bytes(r.len()),
                "{} rows: {} B",
                r.len(),
                table_bytes(&table)
            );
        }
        assert!(is_direct(&shapes[0], &["k"]) && !is_direct(&shapes[5], &["k"]));
    }

    #[test]
    fn bucket_count_stays_below_the_grace_bits() {
        assert_eq!(buckets(0), 1);
        assert_eq!(buckets(3), 8);
        assert_eq!(buckets(1 << 26), 1 << TABLE_INDEX_BITS);
        assert_eq!(buckets((1 << 26) + 1), 1 << TABLE_INDEX_BITS);
        assert_eq!(buckets(u32::MAX as usize - 1), 1 << TABLE_INDEX_BITS);
    }

    #[test]
    fn build_side_past_u32_positions_is_a_typed_error() {
        use rma_storage::{ColumnData, Rle, Seg};
        // one run of u32::MAX rows: four billion positions in a few bytes
        let rows = u32::MAX as usize;
        let run = Rle::from_segs(
            vec![Seg::Run {
                value: 7,
                len: rows,
            }],
            rows,
        );
        let b = rel(vec![(
            "k2",
            rma_storage::Column::new(ColumnData::RleInt(run)),
        )]);
        let a = rel(vec![("k", ints(&[7]))]);
        let want = RelationError::JoinBuildTooLarge { rows };
        assert_eq!(join_on(&a, &b, &[("k", "k2")]).unwrap_err(), want);
        let pool = crate::par::WorkerPool::new(2);
        let pooled = crate::algebra::join_on_parallel(&a, &b, &[("k", "k2")], &pool);
        assert_eq!(pooled.unwrap_err(), want);
    }
}
