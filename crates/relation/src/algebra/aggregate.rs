//! Grouped aggregation ϑ.

use crate::error::RelationError;
use crate::relation::Relation;
use crate::schema::{Attribute, Schema};
use rma_storage::{Column, ColumnAccessor, DataType, DirectKey, KeyCols, KeyIds, Value};
use std::ops::Range;

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)` — counts tuples, including those with nulls.
    CountStar,
    /// `COUNT(a)` — counts non-null values.
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

/// One aggregate to compute: function, input attribute (ignored for
/// `COUNT(*)`), output attribute name.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    pub func: AggFunc,
    pub input: Option<String>,
    pub output: String,
}

impl AggSpec {
    pub fn new(func: AggFunc, input: Option<&str>, output: &str) -> Self {
        AggSpec {
            func,
            input: input.map(str::to_string),
            output: output.to_string(),
        }
    }

    /// `COUNT(*) AS name`.
    pub fn count_star(output: &str) -> Self {
        Self::new(AggFunc::CountStar, None, output)
    }

    /// `AVG(input) AS output`.
    pub fn avg(input: &str, output: &str) -> Self {
        Self::new(AggFunc::Avg, Some(input), output)
    }

    /// `SUM(input) AS output`.
    pub fn sum(input: &str, output: &str) -> Self {
        Self::new(AggFunc::Sum, Some(input), output)
    }
}

/// Per-group accumulator. Accumulators are *mergeable*: the parallel
/// aggregation path computes one per group per worker and combines them at
/// the barrier ([`Acc::merge`]). `Int` inputs sum exactly into `isum`,
/// `Float` inputs into `sum`; only one of the two is ever non-zero.
#[derive(Debug, Clone, Default)]
pub(super) struct Acc {
    count: u64,
    count_nonnull: u64,
    sum: f64,
    isum: i128,
    min: Option<Value>,
    max: Option<Value>,
}

impl Acc {
    /// Fold another partial accumulator for the same group into this one.
    pub(super) fn merge(&mut self, other: &Acc) {
        self.count += other.count;
        self.count_nonnull += other.count_nonnull;
        self.sum += other.sum;
        self.isum += other.isum;
        if let Some(v) = &other.min {
            if self.min.as_ref().is_none_or(|m| v.total_cmp(m).is_lt()) {
                self.min = Some(v.clone());
            }
        }
        if let Some(v) = &other.max {
            if self.max.as_ref().is_none_or(|m| v.total_cmp(m).is_gt()) {
                self.max = Some(v.clone());
            }
        }
    }
}

/// Partial aggregation state over one row range: representative rows in
/// first-seen order, plus one accumulator row per aggregate. Merging
/// partials in range order reproduces the serial first-seen group order
/// exactly.
#[derive(Debug, Default)]
pub(super) struct Partial {
    pub(super) rep: Vec<usize>,
    pub(super) accs: Vec<Vec<Acc>>,
}

/// How rows find their group, decided once per aggregate so that every
/// morsel and the parallel barrier number groups alike: the
/// direct-addressed [`DirectKey`] image when the key has one, the row
/// digest otherwise.
pub(super) enum GroupKey<'a> {
    Direct(DirectKey<'a>),
    Hashed(KeyCols<'a>),
}

impl<'a> GroupKey<'a> {
    /// The key of `group_cols` over `rows` rows, for tables filled from
    /// morsels of `morsel_rows` rows.
    pub(super) fn new(group_cols: &[&'a Column], rows: usize, morsel_rows: usize) -> Self {
        match DirectKey::new(group_cols, morsel_rows) {
            Some(direct) => GroupKey::Direct(direct),
            None => GroupKey::Hashed(KeyCols::new(group_cols, rows)),
        }
    }

    /// Has the key no columns, making the whole input one group?
    fn is_global(&self) -> bool {
        matches!(self, GroupKey::Direct(key) if key.width() == 0)
    }
}

/// Group ids in first-seen order, by a row's [`DirectKey`] slot or by its
/// digest, each digest match confirmed by `rows_eq` against the group's
/// first row. Accumulation looks up every input row; the parallel barrier
/// looks up each partial group's representative row, so both number
/// groups the same way.
pub(super) enum GroupIds<'a> {
    /// The image, each slot's group id (`u32::MAX` for none yet) and the
    /// number of groups seen.
    Direct(&'a DirectKey<'a>, Vec<u32>, u32),
    Hashed(&'a KeyCols<'a>, KeyIds),
}

impl<'a> GroupIds<'a> {
    pub(super) fn new(key: &'a GroupKey<'a>) -> Self {
        match key {
            GroupKey::Direct(key) => GroupIds::Direct(key, vec![u32::MAX; key.slots()], 0),
            GroupKey::Hashed(key) => GroupIds::Hashed(key, KeyIds::default()),
        }
    }

    /// The group id of row `i`; a row of an unseen key gets the number of
    /// groups seen so far.
    #[inline]
    pub(super) fn id(&mut self, i: usize) -> usize {
        match self {
            GroupIds::Direct(key, slot_gid, groups) => {
                let gid = &mut slot_gid[key.slot(i)];
                if *gid == u32::MAX {
                    *gid = *groups;
                    *groups += 1;
                }
                *gid as usize
            }
            GroupIds::Hashed(key, ids) => {
                ids.id(key.digest(i), i, |rep| key.rows_eq(rep, key, i)).0
            }
        }
    }
}

/// Check aggregate specs against the input schema (shared by the serial and
/// parallel paths).
pub(super) fn validate_aggs(r: &Relation, aggs: &[AggSpec]) -> Result<(), RelationError> {
    for spec in aggs {
        if let Some(input) = &spec.input {
            let dt = r.schema().attribute(input)?.dtype();
            if matches!(spec.func, AggFunc::Sum | AggFunc::Avg) && !dt.is_numeric() {
                return Err(RelationError::Expression(format!(
                    "{:?} over non-numeric attribute `{input}`",
                    spec.func
                )));
            }
        } else if spec.func != AggFunc::CountStar {
            return Err(RelationError::Expression(format!(
                "{:?} requires an input attribute",
                spec.func
            )));
        }
    }
    Ok(())
}

/// Accumulate rows `range` of the input into per-group partial states,
/// keyed through `key`. Without key columns, `seed_global` opens the
/// single group even over an empty range (global aggregation semantics:
/// one output row even for empty input).
pub(super) fn accumulate(
    key: &GroupKey,
    agg_cols: &[Option<&Column>],
    aggs: &[AggSpec],
    range: Range<usize>,
    seed_global: bool,
) -> Partial {
    let mut out = Partial::default();
    // Global (ungrouped) aggregation is column-at-a-time: each aggregate
    // folds its own input column, and an RLE input folds run-at-a-time —
    // one multiply per run for SUM, one comparison per run for MIN/MAX —
    // without decoding.
    if key.is_global() {
        // a parallel partial materialises the single group only if this
        // worker saw any rows, mirroring the per-row path exactly
        if range.is_empty() && !seed_global {
            return out;
        }
        out.rep.push(range.start);
        out.accs.push(vec![Acc::default(); aggs.len()]);
        for (k, spec) in aggs.iter().enumerate() {
            accumulate_global(&mut out.accs[0][k], spec, agg_cols[k], range.clone());
        }
        return out;
    }
    let mut ids = GroupIds::new(key);
    for i in range {
        let gid = ids.id(i);
        if gid == out.rep.len() {
            out.rep.push(i);
            out.accs.push(vec![Acc::default(); aggs.len()]);
        }
        update(&mut out.accs[gid], agg_cols, aggs, i);
    }
    out
}

/// Fold row `i` into one group's accumulators.
#[inline]
fn update(accs: &mut [Acc], agg_cols: &[Option<&Column>], aggs: &[AggSpec], i: usize) {
    for ((acc, spec), col) in accs.iter_mut().zip(aggs).zip(agg_cols) {
        acc.count += 1;
        let Some(col) = col else { continue };
        if col.is_null(i) {
            continue;
        }
        acc.count_nonnull += 1;
        match spec.func {
            // numeric-only checked by validate_aggs
            AggFunc::Sum | AggFunc::Avg => add_sum(acc, col, i),
            AggFunc::Min => {
                let v = col.get(i);
                if acc.min.as_ref().is_none_or(|m| v.total_cmp(m).is_lt()) {
                    acc.min = Some(v);
                }
            }
            AggFunc::Max => {
                let v = col.get(i);
                if acc.max.as_ref().is_none_or(|m| v.total_cmp(m).is_gt()) {
                    acc.max = Some(v);
                }
            }
            AggFunc::Count | AggFunc::CountStar => {}
        }
    }
}

/// Build the output relation from finished group states. `rep` holds one
/// representative row index (into `r`) per group.
pub(super) fn finalize(
    r: &Relation,
    group_by: &[&str],
    aggs: &[AggSpec],
    rep: &[usize],
    accs: &[Vec<Acc>],
) -> Result<Relation, RelationError> {
    // output schema: group-by attrs followed by aggregate outputs
    let mut attrs: Vec<Attribute> = Vec::with_capacity(group_by.len() + aggs.len());
    for n in group_by {
        attrs.push(r.schema().attribute(n)?.clone());
    }
    for spec in aggs {
        let dt = output_type(spec, r)?;
        attrs.push(Attribute::new(spec.output.clone(), dt));
    }
    let schema = Schema::new(attrs)?;

    // group-by columns: gather representative rows
    let group_cols = r.columns_of(group_by)?;
    let mut columns: Vec<Column> = group_cols.iter().map(|c| c.take(rep)).collect();
    // aggregate columns
    for (k, spec) in aggs.iter().enumerate() {
        let dt = output_type(spec, r)?;
        let vals: Vec<Value> = accs
            .iter()
            .map(|group| finish(&group[k], spec, dt))
            .collect::<Result<_, _>>()?;
        columns.push(Column::from_values_typed(dt, &vals)?);
    }
    Relation::new(schema, columns)
}

/// Resolve the aggregate input columns of `r` (None for `COUNT(*)`).
pub(super) fn resolve_agg_cols<'a>(
    r: &'a Relation,
    aggs: &[AggSpec],
) -> Result<Vec<Option<&'a Column>>, RelationError> {
    aggs.iter()
        .map(|s| s.input.as_deref().map(|n| r.column(n)).transpose())
        .collect()
}

/// ϑ: group `r` by `group_by` and compute the aggregates. With an empty
/// `group_by` the whole relation is one group (one output row, even when the
/// input is empty — SQL semantics).
pub fn aggregate(
    r: &Relation,
    group_by: &[&str],
    aggs: &[AggSpec],
) -> Result<Relation, RelationError> {
    validate_aggs(r, aggs)?;
    let group_cols = r.columns_of(group_by)?;
    let agg_cols = resolve_agg_cols(r, aggs)?;
    let key = GroupKey::new(&group_cols, r.len(), r.len());
    let partial = accumulate(&key, &agg_cols, aggs, 0..r.len(), group_by.is_empty());
    finalize(r, group_by, aggs, &partial.rep, &partial.accs)
}

/// Add row `i` of a numeric column to the accumulator's sum: `Int`
/// exactly, `Float` in `f64`.
fn add_sum(acc: &mut Acc, col: &Column, i: usize) {
    match col.accessor() {
        ColumnAccessor::Int(v) => acc.isum += i128::from(v.get(i)),
        ColumnAccessor::Float(v) => acc.sum += v.get(i),
        _ => unreachable!("checked numeric"),
    }
}

/// Fold one aggregate over `range` of its input column for the single
/// global group. Null-free RLE inputs fold run-at-a-time; everything else
/// reads through the accessors row-at-a-time.
fn accumulate_global(
    acc: &mut Acc,
    spec: &AggSpec,
    col: Option<&Column>,
    range: std::ops::Range<usize>,
) {
    acc.count += range.len() as u64;
    let Some(col) = col else { return };
    let needs_minmax = matches!(spec.func, AggFunc::Min | AggFunc::Max);
    let needs_sum = matches!(spec.func, AggFunc::Sum | AggFunc::Avg);
    if !col.has_nulls() {
        match col.accessor() {
            ColumnAccessor::Int(v) if v.rle().is_some() => {
                let r = v.rle().expect("probed");
                acc.count_nonnull += range.len() as u64;
                r.for_runs_in(range, |x, mult| {
                    if needs_sum {
                        acc.isum += i128::from(x) * mult as i128;
                    }
                    if needs_minmax {
                        observe_minmax(acc, Value::Int(x));
                    }
                });
                return;
            }
            ColumnAccessor::Float(v) if v.rle().is_some() => {
                let r = v.rle().expect("probed");
                acc.count_nonnull += range.len() as u64;
                r.for_runs_in(range, |x, mult| {
                    if needs_sum {
                        acc.sum += x * mult as f64;
                    }
                    if needs_minmax {
                        observe_minmax(acc, Value::Float(x));
                    }
                });
                return;
            }
            _ => {}
        }
    }
    for i in range {
        if col.is_null(i) {
            continue;
        }
        acc.count_nonnull += 1;
        if needs_sum {
            add_sum(acc, col, i);
        }
        if needs_minmax {
            observe_minmax(acc, col.get(i));
        }
    }
}

/// Fold one observed value into the accumulator's min/max slots.
fn observe_minmax(acc: &mut Acc, v: Value) {
    if acc.min.as_ref().is_none_or(|m| v.total_cmp(m).is_lt()) {
        acc.min = Some(v.clone());
    }
    if acc.max.as_ref().is_none_or(|m| v.total_cmp(m).is_gt()) {
        acc.max = Some(v);
    }
}

fn output_type(spec: &AggSpec, r: &Relation) -> Result<DataType, RelationError> {
    Ok(match spec.func {
        AggFunc::Count | AggFunc::CountStar => DataType::Int,
        AggFunc::Avg => DataType::Float,
        AggFunc::Sum => {
            let input = spec.input.as_deref().expect("checked");
            match r.schema().attribute(input)?.dtype() {
                DataType::Int => DataType::Int,
                _ => DataType::Float,
            }
        }
        AggFunc::Min | AggFunc::Max => {
            let input = spec
                .input
                .as_deref()
                .ok_or_else(|| RelationError::Expression("MIN/MAX require an input".to_string()))?;
            r.schema().attribute(input)?.dtype()
        }
    })
}

/// The aggregate's value for one group. An integer `SUM` outside `i64` is
/// an [`RelationError::IntegerOverflow`], never a saturated value.
fn finish(acc: &Acc, spec: &AggSpec, dt: DataType) -> Result<Value, RelationError> {
    Ok(match spec.func {
        AggFunc::CountStar => Value::Int(acc.count as i64),
        AggFunc::Count => Value::Int(acc.count_nonnull as i64),
        AggFunc::Sum => {
            if acc.count_nonnull == 0 {
                Value::Null
            } else if dt == DataType::Int {
                let sum = i64::try_from(acc.isum)
                    .map_err(|_| RelationError::IntegerOverflow(spec.output.clone()))?;
                Value::Int(sum)
            } else {
                Value::Float(acc.sum)
            }
        }
        AggFunc::Avg => {
            if acc.count_nonnull == 0 {
                Value::Null
            } else {
                Value::Float((acc.sum + acc.isum as f64) / acc.count_nonnull as f64)
            }
        }
        AggFunc::Min => acc.min.clone().unwrap_or(Value::Null),
        AggFunc::Max => acc.max.clone().unwrap_or(Value::Null),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::bits_text;
    use crate::relation::RelationBuilder;

    fn trips() -> Relation {
        RelationBuilder::new()
            .column("station", vec!["a", "a", "b", "b", "b"])
            .column("dur", vec![10.0f64, 20.0, 5.0, 7.0, 9.0])
            .build()
            .unwrap()
    }

    #[test]
    fn grouped_avg_count() {
        let out = aggregate(
            &trips(),
            &["station"],
            &[AggSpec::avg("dur", "avg_dur"), AggSpec::count_star("n")],
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        // first-seen group order: a then b
        assert_eq!(out.cell(0, "station").unwrap(), Value::from("a"));
        assert_eq!(out.cell(0, "avg_dur").unwrap(), Value::Float(15.0));
        assert_eq!(out.cell(1, "n").unwrap(), Value::Int(3));
    }

    #[test]
    fn global_aggregate_single_row() {
        let out = aggregate(&trips(), &[], &[AggSpec::count_star("M")]).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.cell(0, "M").unwrap(), Value::Int(5));
    }

    #[test]
    fn global_aggregate_on_empty_relation() {
        let empty = trips().take(&[]);
        let out = aggregate(
            &empty,
            &[],
            &[AggSpec::count_star("M"), AggSpec::sum("dur", "s")],
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.cell(0, "M").unwrap(), Value::Int(0));
        assert_eq!(out.cell(0, "s").unwrap(), Value::Null);
    }

    #[test]
    fn grouped_on_empty_relation_is_empty() {
        let empty = trips().take(&[]);
        let out = aggregate(&empty, &["station"], &[AggSpec::count_star("n")]).unwrap();
        assert_eq!(out.len(), 0);
    }

    #[test]
    fn min_max_on_strings() {
        let out = aggregate(
            &trips(),
            &[],
            &[
                AggSpec::new(AggFunc::Min, Some("station"), "lo"),
                AggSpec::new(AggFunc::Max, Some("station"), "hi"),
            ],
        )
        .unwrap();
        assert_eq!(out.cell(0, "lo").unwrap(), Value::from("a"));
        assert_eq!(out.cell(0, "hi").unwrap(), Value::from("b"));
    }

    #[test]
    fn count_skips_nulls_count_star_does_not() {
        let r = Relation::from_rows(
            Schema::from_pairs(&[("x", DataType::Int)]).unwrap(),
            &[vec![Value::Int(1)], vec![Value::Null], vec![Value::Int(3)]],
        )
        .unwrap();
        let out = aggregate(
            &r,
            &[],
            &[
                AggSpec::new(AggFunc::Count, Some("x"), "c"),
                AggSpec::count_star("cs"),
                AggSpec::avg("x", "a"),
            ],
        )
        .unwrap();
        assert_eq!(out.cell(0, "c").unwrap(), Value::Int(2));
        assert_eq!(out.cell(0, "cs").unwrap(), Value::Int(3));
        assert_eq!(out.cell(0, "a").unwrap(), Value::Float(2.0));
    }

    #[test]
    fn sum_of_ints_stays_int() {
        let r = RelationBuilder::new()
            .column("x", vec![1i64, 2, 3])
            .build()
            .unwrap();
        let out = aggregate(&r, &[], &[AggSpec::sum("x", "s")]).unwrap();
        assert_eq!(out.cell(0, "s").unwrap(), Value::Int(6));
    }

    #[test]
    fn avg_over_strings_rejected() {
        assert!(aggregate(&trips(), &[], &[AggSpec::avg("station", "a")]).is_err());
    }

    #[test]
    fn int_sum_finish_widens_back() {
        // regression: Acc accumulates f64; int SUM output must be Int typed
        let r = RelationBuilder::new()
            .column("x", vec![1i64, 2])
            .build()
            .unwrap();
        let out = aggregate(&r, &[], &[AggSpec::sum("x", "s")]).unwrap();
        assert_eq!(out.schema().attribute("s").unwrap().dtype(), DataType::Int);
    }

    // -----------------------------------------------------------------
    // Exact integer SUM
    // -----------------------------------------------------------------

    /// `x` (Int) grouped by `g`, with `x` in the given encoding.
    fn ints(g: Vec<i64>, x: Vec<i64>, enc: rma_storage::Encoding) -> Relation {
        let x = Column::from(x).encode_as(enc).expect("encodable");
        let schema = Schema::from_pairs(&[("g", DataType::Int), ("x", DataType::Int)]).unwrap();
        Relation::new(schema, vec![Column::from(g), x]).unwrap()
    }

    /// The `s` column of an aggregate's result.
    fn sums(out: Result<Relation, RelationError>) -> Result<Vec<Value>, RelationError> {
        let out = out?;
        Ok((0..out.len()).map(|i| out.cell(i, "s").unwrap()).collect())
    }

    fn sum_x(r: &Relation, group_by: &[&str]) -> Result<Vec<Value>, RelationError> {
        sums(aggregate(r, group_by, &[AggSpec::sum("x", "s")]))
    }

    #[test]
    fn int_sum_is_exact_above_2_pow_53() {
        use rma_storage::Encoding::{Plain, Rle};
        let big = 1i64 << 53;
        // the row path (grouped) and the plain global path
        let r = ints(vec![7, 7], vec![big, 1], Plain);
        assert_eq!(sum_x(&r, &["g"]).unwrap(), vec![Value::Int(big + 1)]);
        assert_eq!(sum_x(&r, &[]).unwrap(), vec![Value::Int(big + 1)]);
        // the RLE run path: one multiply per run
        let r = ints(vec![7; 4], vec![big, big, big, 1], Rle);
        assert_eq!(sum_x(&r, &[]).unwrap(), vec![Value::Int(3 * big + 1)]);
        // AVG reads the same exact sum
        let out = aggregate(&r, &[], &[AggSpec::avg("x", "a")]).unwrap();
        assert_eq!(
            out.cell(0, "a").unwrap(),
            Value::Float((3 * big + 1) as f64 / 4.0)
        );
    }

    #[test]
    fn int_sum_overflow_is_a_typed_error() {
        use rma_storage::Encoding::{Plain, Rle};
        let overflow = Err(RelationError::IntegerOverflow("s".to_string()));
        let r = ints(vec![1, 1], vec![i64::MAX, 1], Plain);
        assert_eq!(sum_x(&r, &["g"]), overflow);
        assert_eq!(sum_x(&r, &[]), overflow);
        let r = ints(vec![1, 1], vec![i64::MAX, i64::MAX], Rle);
        assert_eq!(sum_x(&r, &[]), overflow);
        // an intermediate overflow that cancels out is not an error
        let r = ints(vec![1; 3], vec![i64::MAX, 1, -2], Plain);
        assert_eq!(sum_x(&r, &["g"]).unwrap(), vec![Value::Int(i64::MAX - 1)]);
    }

    #[test]
    fn parallel_int_sum_merges_exactly() {
        use crate::algebra::aggregate_parallel;
        use crate::par::WorkerPool;
        use rma_storage::Encoding::Plain;
        // 3000 × (2^51 + 1): every partial sum past 2^53 drops low bits in
        // f64, so neither the per-group nor the global total would be exact
        let (n, v) = (3000i64, (1i64 << 51) + 1);
        let r = ints((0..n).map(|i| i % 2).collect(), vec![v; n as usize], Plain);
        let half = Value::Int(v * (n / 2));
        let sum = [AggSpec::sum("x", "s")];
        for threads in [1, 2, 4] {
            let pool = WorkerPool::new(threads);
            let grouped = sums(aggregate_parallel(&r, &["g"], &sum, &pool));
            assert_eq!(grouped.unwrap(), vec![half.clone(), half.clone()]);
            let global = sums(aggregate_parallel(&r, &[], &sum, &pool));
            assert_eq!(global.unwrap(), vec![Value::Int(v * n)]);
        }
        let r = ints(vec![0; 3000], vec![1 << 53; 3000], Plain);
        for threads in [1, 2, 4] {
            let pool = WorkerPool::new(threads);
            let out = aggregate_parallel(&r, &["g"], &sum, &pool);
            assert_eq!(out, Err(RelationError::IntegerOverflow("s".to_string())));
        }
    }

    // -----------------------------------------------------------------
    // Direct-addressed group-by: parity with the hash path
    // -----------------------------------------------------------------

    /// Rows in the parity relations: above `MIN_PARALLEL_ROWS`, so the
    /// pooled aggregate really runs morsels.
    const N: usize = 3000;

    /// The key columns plus an Int payload `x` with negative values.
    fn keyed(keys: Vec<(&str, Column)>) -> Relation {
        let mut attrs = Vec::new();
        let mut cols = Vec::new();
        for (name, c) in keys {
            attrs.push(Attribute::new(name, c.data_type()));
            cols.push(c);
        }
        attrs.push(Attribute::new("x", DataType::Int));
        cols.push(Column::from(
            (0..N as i64).map(|i| i * 7 % 11 - 5).collect::<Vec<_>>(),
        ));
        Relation::new(Schema::new(attrs).unwrap(), cols).unwrap()
    }

    fn int_col(f: impl Fn(i64) -> i64, enc: rma_storage::Encoding) -> Column {
        let v: Vec<i64> = (0..N as i64).map(f).collect();
        Column::from(v).encode_as(enc).expect("encodable")
    }

    fn parity_aggs() -> Vec<AggSpec> {
        vec![
            AggSpec::count_star("n"),
            AggSpec::sum("x", "s"),
            AggSpec::new(AggFunc::Min, Some("x"), "lo"),
            AggSpec::new(AggFunc::Max, Some("x"), "hi"),
            AggSpec::avg("x", "a"),
        ]
    }

    /// The hash path: the same accumulation without a direct image.
    fn hashed(r: &Relation, keys: &[&str]) -> Relation {
        let aggs = parity_aggs();
        let group_cols = r.columns_of(keys).unwrap();
        let agg_cols = resolve_agg_cols(r, &aggs).unwrap();
        let key = GroupKey::Hashed(KeyCols::new(&group_cols, r.len()));
        let p = accumulate(&key, &agg_cols, &aggs, 0..r.len(), false);
        finalize(r, keys, &aggs, &p.rep, &p.accs).unwrap()
    }

    /// A group key ordered by `Value::total_cmp`, for the reference map.
    #[derive(PartialEq)]
    struct RefKey(Vec<Value>);
    impl Eq for RefKey {}
    impl PartialOrd for RefKey {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for RefKey {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            let pairs = self.0.iter().zip(&other.0);
            pairs
                .map(|(a, b)| a.total_cmp(b))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        }
    }

    /// An engine-independent reference: a `BTreeMap` from key values to
    /// (first row, count, sum, min, max) over `x`, emitted in first-seen
    /// order as the rows `parity_aggs` produce.
    fn naive(r: &Relation, keys: &[&str]) -> Vec<Vec<Value>> {
        let mut groups: std::collections::BTreeMap<RefKey, (usize, i64, i64, i64, i64)> =
            Default::default();
        for i in 0..r.len() {
            let key = RefKey(keys.iter().map(|k| r.cell(i, k).unwrap()).collect());
            let Value::Int(x) = r.cell(i, "x").unwrap() else {
                unreachable!("x is a null-free Int")
            };
            let g = groups.entry(key).or_insert((i, 0, 0, x, x));
            g.1 += 1;
            g.2 += x;
            g.3 = g.3.min(x);
            g.4 = g.4.max(x);
        }
        let mut rows: Vec<_> = groups.into_iter().collect();
        rows.sort_by_key(|(_, g)| g.0);
        rows.into_iter()
            .map(|(RefKey(mut key), (_, n, s, lo, hi))| {
                key.extend([
                    Value::Int(n),
                    Value::Int(s),
                    Value::Int(lo),
                    Value::Int(hi),
                    Value::Float(s as f64 / n as f64),
                ]);
                key
            })
            .collect()
    }

    /// Check one key set: it takes the direct path iff `direct`, and the
    /// serial and pooled aggregates at 1, 2 and 4 threads equal the hash
    /// path row for row (first-seen order included) and the reference.
    fn assert_parity(r: &Relation, keys: &[&str], direct: bool) {
        assert_parity_to(r, keys, direct, naive(r, keys));
    }

    /// [`assert_parity`] against the given expected rows.
    fn assert_parity_to(r: &Relation, keys: &[&str], direct: bool, expected: Vec<Vec<Value>>) {
        use crate::algebra::aggregate_parallel;
        use crate::par::WorkerPool;
        let group_cols = r.columns_of(keys).unwrap();
        assert_eq!(
            matches!(
                GroupKey::new(&group_cols, r.len(), r.len()),
                GroupKey::Direct(_)
            ),
            direct,
            "direct-addressed image for {keys:?}"
        );
        let hash = bits_text(hashed(r, keys).rows());
        assert_eq!(
            hash,
            bits_text(expected.into_iter()),
            "hash path vs reference"
        );
        let serial = aggregate(r, keys, &parity_aggs()).unwrap();
        assert_eq!(bits_text(serial.rows()), hash, "serial");
        for threads in [1, 2, 4] {
            let pool = WorkerPool::new(threads);
            let par = aggregate_parallel(r, keys, &parity_aggs(), &pool).unwrap();
            assert_eq!(bits_text(par.rows()), hash, "{keys:?} at {threads} threads");
        }
    }

    #[test]
    fn direct_group_by_matches_hash_path_on_int_encodings() {
        use rma_storage::Encoding::{Packed, Plain, Rle};
        // negative and offset domains, plain
        let r = keyed(vec![
            ("neg", int_col(|i| -(i * 13 % 37) - 1000, Plain)),
            ("off", int_col(|i| 1_000_000_007 + i * 5 % 23, Plain)),
        ]);
        assert_parity(&r, &["neg"], true);
        assert_parity(&r, &["off"], true);
        assert_parity(&r, &["neg", "off"], true);
        // RLE and packed keys; a one-value packed column has width 0
        let r = keyed(vec![
            ("rle", int_col(|i| i / 97 - 7, Rle)),
            ("packed", int_col(|i| 6000 + i * 31 % 100, Packed)),
            ("one", int_col(|_| 42, Packed)),
        ]);
        assert_parity(&r, &["rle"], true);
        assert_parity(&r, &["packed"], true);
        assert_parity(&r, &["one"], true);
        assert_parity(&r, &["packed", "one"], true);
        // two- and three-column keys across encodings
        assert_parity(&r, &["packed", "rle"], true);
        assert_parity(&r, &["one", "rle", "packed"], true);
    }

    #[test]
    fn direct_group_by_bound_is_exact() {
        use rma_storage::Encoding::Plain;
        // N rows bound the image at 2^16 slots: a span of exactly 2^16 is
        // direct-addressed, one more slot takes the hash path
        let span = |top: i64| int_col(move |i| if i == 1 { top } else { i % 5 }, Plain);
        let r = keyed(vec![("at", span(65_535)), ("over", span(65_536))]);
        assert_parity(&r, &["at"], true);
        assert_parity(&r, &["over"], false);
        // 2^8 · 2^8 fits, 2^8 · (2^8 + 1) does not
        let r = keyed(vec![
            ("k256", int_col(|i| i * 7 % 256, Plain)),
            ("j256", int_col(|i| i * 11 % 256, Plain)),
            ("j257", int_col(|i| i * 11 % 257, Plain)),
        ]);
        assert_parity(&r, &["k256", "j256"], true);
        assert_parity(&r, &["k256", "j257"], false);
    }

    #[test]
    fn nullable_float_and_string_keys_take_the_hash_path() {
        let with_nulls: Vec<Value> = (0..N as i64)
            .map(|i| {
                if i % 9 == 0 {
                    Value::Null
                } else {
                    Value::Int(i % 4)
                }
            })
            .collect();
        let r = keyed(vec![
            (
                "nullable",
                Column::from_values_typed(DataType::Int, &with_nulls).unwrap(),
            ),
            (
                "f",
                Column::from((0..N).map(|i| (i % 6) as f64 / 2.0).collect::<Vec<_>>()),
            ),
            (
                "str",
                Column::from((0..N).map(|i| format!("k{}", i % 8)).collect::<Vec<_>>()),
            ),
            ("i", int_col(|i| i % 3, rma_storage::Encoding::Plain)),
            (
                "dict",
                Column::from(
                    (0..N)
                        .map(|i| format!("d{}", i * 7 % 13))
                        .collect::<Vec<_>>(),
                )
                .encode_as(rma_storage::Encoding::Dict)
                .unwrap(),
            ),
        ]);
        assert_parity(&r, &["nullable"], false);
        assert_parity(&r, &["f"], false);
        assert_parity(&r, &["str"], false);
        assert_parity(&r, &["dict"], false);
        // one non-Int column sends the whole key to the hash path
        assert_parity(&r, &["i", "str"], false);
        assert_parity(&r, &["i", "nullable"], false);
        assert_parity(&r, &["dict", "i"], false);
    }

    #[test]
    fn float_group_keys_collapse_signed_zeros_and_nan_payloads() {
        let nan_a = f64::from_bits(0x7ff8_0000_0000_0001);
        let nan_b = f64::from_bits(0xfff8_0000_0000_0002);
        let cycle = [0.0, -0.0, nan_a, nan_b, 1.5];
        let r = keyed(vec![(
            "f",
            Column::from((0..N).map(|i| cycle[i % 5]).collect::<Vec<_>>()),
        )]);
        // three groups, each keyed by its first row's value: {0.0, -0.0}
        // as 0.0, both NaNs as nan_a, and 1.5
        let group = |i: usize| [0, 0, 1, 1, 2][i % 5];
        let mut expected: Vec<Vec<Value>> = [0.0, nan_a, 1.5]
            .iter()
            .map(|&k| vec![Value::Float(k)])
            .collect();
        for (g, row) in expected.iter_mut().enumerate() {
            let xs: Vec<i64> = (0..N)
                .filter(|&i| group(i) == g)
                .map(|i| match r.cell(i, "x").unwrap() {
                    Value::Int(x) => x,
                    v => unreachable!("x is a null-free Int, got {v:?}"),
                })
                .collect();
            let (n, s) = (xs.len() as i64, xs.iter().sum::<i64>());
            row.extend([
                Value::Int(n),
                Value::Int(s),
                Value::Int(*xs.iter().min().unwrap()),
                Value::Int(*xs.iter().max().unwrap()),
                Value::Float(s as f64 / n as f64),
            ]);
        }
        assert_parity_to(&r, &["f"], false, expected);
    }
}
