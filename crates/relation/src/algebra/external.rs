//! Out-of-core operators: grace hash join, external merge sort, and the
//! partition-wise spilling aggregate.
//!
//! These are the spill-path twins of the in-memory parallel operators,
//! taken when the planner's headroom probe
//! ([`QueryGuard::fits`](crate::par::QueryGuard::fits)) says the operator's
//! working set will not fit the memory budget:
//!
//! - **Grace hash join**: both inputs are hash-partitioned on the join key
//!   into [`SpillFile`]s (null-key rows are dropped up front — inner-join
//!   semantics), then each partition pair is joined independently with the
//!   ordinary pool-parallel hash join, so every spilled partition re-enters
//!   the worker pool as its own morsel source. A partition whose build
//!   side still exceeds the budget is recursively repartitioned (different
//!   hash bits per level) up to [`MAX_GRACE_DEPTH`]; past that depth it is
//!   joined in memory regardless — the budget becomes best-effort rather
//!   than looping forever on pathological key skew.
//! - **External sort**: the input is cut into budget-sized consecutive
//!   ranges; workers sort each range and spill it as a sorted run; the
//!   runs are streamed back chunk-at-a-time and k-way merged. The merge
//!   breaks key ties by run index, which (runs being consecutive ranges)
//!   reproduces the serial sort's global-row-index tie-break exactly.
//! - **Spilling aggregate**: rows are hash-partitioned on the group key
//!   (null keys *are* group keys here, unlike joins), each partition is
//!   aggregated independently — group keys never span partitions — and
//!   the partial results are concatenated.
//!
//! Results are value-identical to the in-memory operators; the **row
//! order** of the grace join and the spilling aggregate is partition-major
//! rather than probe-major, which SQL semantics leave unspecified.

use super::sort::sort_keys;
use super::{hash_row, row_key};
use crate::error::RelationError;
use crate::par::{current_guard, guard_checkpoint, WorkerPool};
use crate::relation::Relation;
use crate::schema::Schema;
use crate::spill::{SpillFile, SpillReader, SPILL_CHUNK_ROWS};
use crate::trace;
use rma_storage::{Bitmap, Column, ColumnData, DataType};
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};

/// Maximum grace-join repartition depth. Each level consumes 16 fresh bits
/// of the 64-bit key hash, so two levels of fanout ≤ 32 already separate
/// everything except genuinely duplicate keys — which no partitioning can
/// split further.
pub const MAX_GRACE_DEPTH: u32 = 2;

/// Grace fanout bounds: at least a real split, at most a file-descriptor
/// count that stays polite at two levels of recursion.
const MIN_FANOUT: usize = 2;
const MAX_FANOUT: usize = 32;

/// Minimum rows per external-sort run — below this, file overhead dwarfs
/// the sort.
const MIN_RUN_ROWS: usize = 1024;

/// The partition fanout for an operator whose working set is estimated at
/// `est_bytes`, aiming each partition at half the budget's headroom.
fn fanout(est_bytes: u64) -> usize {
    let budget = current_guard().map_or(0, |g| g.mem_budget());
    if budget == 0 {
        return 8; // forced spill without a budget (tests): any real split
    }
    let target = (budget / 2).max(1);
    usize::try_from(est_bytes / target + 1)
        .unwrap_or(MAX_FANOUT)
        .clamp(MIN_FANOUT, MAX_FANOUT)
}

/// ~bytes the relation occupies once materialized (the planner's uniform
/// 8-bytes-per-cell estimate).
fn rel_bytes_est(r: &Relation) -> u64 {
    (r.len() as u64) * (r.schema().len().max(1) as u64) * 8
}

fn key_cols<'a>(r: &'a Relation, keys: &[&str]) -> Result<Vec<&'a Column>, RelationError> {
    keys.iter().map(|n| r.base_column(n)).collect()
}

/// Partition bucket of base row `base`: key hash, shifted by 16 bits per
/// recursion level so each level splits on fresh bits. Null-containing
/// keys take the boxed-key hash (only the aggregate path sees them).
fn part_bucket(cols: &[&Column], base: usize, parts: usize, depth: u32) -> usize {
    let h = if cols.iter().any(|c| c.is_null(base)) {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        row_key(cols, base).hash(&mut hasher);
        hasher.finish()
    } else {
        hash_row(cols, base)
    };
    ((h >> (16 * depth.min(3))) % parts as u64) as usize
}

fn create_files(parts: usize) -> Result<Vec<SpillFile>, RelationError> {
    (0..parts).map(|_| SpillFile::create()).collect()
}

/// Hash-partition the visible rows of `r` by `keys` into `files`,
/// appending chunk-wise so no partition is ever materialized whole.
/// `skip_null_keys` drops rows with a null in any key column (inner-join
/// semantics); aggregation keeps them (null group keys form groups).
fn partition_into(
    r: &Relation,
    keys: &[&str],
    parts: usize,
    depth: u32,
    skip_null_keys: bool,
    files: &mut [SpillFile],
) -> Result<(), RelationError> {
    let cols = key_cols(r, keys)?;
    let mut idx: Vec<Vec<usize>> = vec![Vec::new(); parts];
    for pos in 0..r.len() {
        let base = r.base_index(pos);
        if skip_null_keys && cols.iter().any(|c| c.is_null(base)) {
            continue;
        }
        idx[part_bucket(&cols, base, parts, depth)].push(pos);
    }
    for (p, rows) in idx.iter().enumerate() {
        for chunk in rows.chunks(SPILL_CHUNK_ROWS) {
            files[p].append(&r.take(chunk))?;
        }
    }
    Ok(())
}

fn partition_side(
    r: &Relation,
    keys: &[&str],
    parts: usize,
) -> Result<Vec<SpillFile>, RelationError> {
    let mut files = create_files(parts)?;
    partition_into(r, keys, parts, 0, true, &mut files)?;
    for f in &mut files {
        f.finish()?;
    }
    Ok(files)
}

/// Stream a spilled partition back and re-partition it on fresh hash bits
/// (grace recursion for skewed partitions).
fn repartition(
    f: &SpillFile,
    schema: &Schema,
    keys: &[&str],
    parts: usize,
    depth: u32,
) -> Result<Vec<SpillFile>, RelationError> {
    let mut files = create_files(parts)?;
    let mut rd = f.reader(schema)?;
    while let Some(chunk) = rd.next_chunk()? {
        partition_into(&chunk, keys, parts, depth, true, &mut files)?;
    }
    for f in &mut files {
        f.finish()?;
    }
    Ok(files)
}

/// Grace hash equi-join (spill path of [`super::join_on`] /
/// [`super::parallel::join_on_parallel`]). Result rows are partition-major.
pub fn grace_join_on(
    a: &Relation,
    b: &Relation,
    on: &[(&str, &str)],
    pool: &WorkerPool,
) -> Result<Relation, RelationError> {
    if on.is_empty() {
        return Err(RelationError::Expression(
            "equi-join requires at least one key pair".to_string(),
        ));
    }
    grace_join(a, b, on, false, pool)
}

/// Grace natural join (spill path of [`super::natural_join`] /
/// [`super::parallel::natural_join_parallel`]). Falls back to the cross
/// product when no attributes are shared, exactly like the in-memory
/// operator (a cross product has no key to partition on).
pub fn grace_natural_join(
    a: &Relation,
    b: &Relation,
    pool: &WorkerPool,
) -> Result<Relation, RelationError> {
    let common = super::join::common_attributes(a, b);
    if common.is_empty() {
        return super::cross_product(a, b);
    }
    let pairs: Vec<(&str, &str)> = common.iter().map(|&n| (n, n)).collect();
    grace_join(a, b, &pairs, true, pool)
}

fn grace_join(
    a: &Relation,
    b: &Relation,
    on: &[(&str, &str)],
    natural: bool,
    pool: &WorkerPool,
) -> Result<Relation, RelationError> {
    let left_keys: Vec<&str> = on.iter().map(|(l, _)| *l).collect();
    let right_keys: Vec<&str> = on.iter().map(|(_, r)| *r).collect();
    let parts = fanout(rel_bytes_est(b));
    let span = trace::clock();
    let a_files = partition_side(a, &left_keys, parts)?;
    let b_files = partition_side(b, &right_keys, parts)?;
    trace::record(
        "join.partition",
        "join",
        0,
        span,
        (a.len() + b.len()) as u64,
        0,
        parts as u64,
    );
    let mut results = Vec::with_capacity(parts);
    for (af, bf) in a_files.iter().zip(&b_files) {
        results.push(join_partition(
            af,
            a.schema(),
            bf,
            b.schema(),
            on,
            natural,
            1,
            pool,
        )?);
    }
    guard_checkpoint()?;
    Relation::concat(&results)
}

/// Join one spilled partition pair: recurse when the build side still
/// exceeds the budget (up to [`MAX_GRACE_DEPTH`]), otherwise read both
/// sides back and run the pool-parallel in-memory join.
#[allow(clippy::too_many_arguments)]
fn join_partition(
    af: &SpillFile,
    a_schema: &Schema,
    bf: &SpillFile,
    b_schema: &Schema,
    on: &[(&str, &str)],
    natural: bool,
    depth: u32,
    pool: &WorkerPool,
) -> Result<Relation, RelationError> {
    let over_budget = current_guard().is_some_and(|g| !g.fits(bf.bytes()));
    if depth <= MAX_GRACE_DEPTH && over_budget && bf.rows() > 1 {
        let parts = fanout(bf.bytes());
        let left_keys: Vec<&str> = on.iter().map(|(l, _)| *l).collect();
        let right_keys: Vec<&str> = on.iter().map(|(_, r)| *r).collect();
        let a_sub = repartition(af, a_schema, &left_keys, parts, depth)?;
        let b_sub = repartition(bf, b_schema, &right_keys, parts, depth)?;
        let mut results = Vec::with_capacity(parts);
        for (asf, bsf) in a_sub.iter().zip(&b_sub) {
            results.push(join_partition(
                asf,
                a_schema,
                bsf,
                b_schema,
                on,
                natural,
                depth + 1,
                pool,
            )?);
        }
        return Relation::concat(&results);
    }
    let a_rel = af.read_all(a_schema)?;
    let b_rel = bf.read_all(b_schema)?;
    let span = trace::clock();
    let joined = if natural {
        super::parallel::natural_join_parallel(&a_rel, &b_rel, pool)?
    } else {
        super::parallel::join_on_parallel(&a_rel, &b_rel, on, pool)?
    };
    trace::record(
        "join.grace_part",
        "join",
        0,
        span,
        (a_rel.len() + b_rel.len()) as u64,
        joined.len() as u64,
        1,
    );
    Ok(joined)
}

/// External merge sort (spill path of [`super::order_by_parallel`]):
/// budget-sized sorted runs spilled by the workers, then a streaming k-way
/// merge from disk. Row order is identical to the serial
/// [`super::order_by`] (and therefore to [`super::order_by_parallel`]).
pub fn order_by_external(
    r: &Relation,
    attrs: &[&str],
    ascending: &[bool],
    pool: &WorkerPool,
) -> Result<Relation, RelationError> {
    if attrs.is_empty() || r.len() <= 1 {
        return super::setops::order_by(r, attrs, ascending);
    }
    let keys = sort_keys(r, attrs, ascending)?;
    let dirs: Vec<bool> = (0..attrs.len())
        .map(|k| ascending.get(k).copied().unwrap_or(true))
        .collect();
    let key_idx: Vec<usize> = attrs
        .iter()
        .map(|n| {
            r.schema()
                .index_of(n)
                .ok_or_else(|| RelationError::UnknownAttribute(n.to_string()))
        })
        .collect::<Result<_, _>>()?;
    // run size: aim a materialized run at half the budget's headroom,
    // bounded below (file overhead) and so the run count stays a sane
    // merge width
    let row_bytes = (r.schema().len().max(1) * 8) as u64;
    let budget = current_guard().map_or(0, |g| g.mem_budget());
    let target_rows = if budget == 0 {
        MIN_RUN_ROWS // forced spill without a budget (tests)
    } else {
        usize::try_from((budget / 2).max(1) / row_bytes).unwrap_or(usize::MAX)
    };
    let run_rows = target_rows.max(MIN_RUN_ROWS).max(r.len() / MAX_FANOUT + 1);
    let ranges: Vec<std::ops::Range<usize>> = (0..r.len())
        .step_by(run_rows)
        .map(|s| s..(s + run_rows).min(r.len()))
        .collect();
    // run phase: workers sort consecutive ranges and spill them
    let runs: Vec<Result<SpillFile, RelationError>> = pool.for_each(&ranges, |lane, range| {
        let span = trace::clock();
        let mut idx: Vec<usize> = (range.start..range.end).collect();
        idx.sort_unstable_by(|&x, &y| keys.cmp_indexed(x, y));
        let out = (|| {
            let mut f = SpillFile::create()?;
            for chunk in idx.chunks(SPILL_CHUNK_ROWS) {
                f.append(&r.take(chunk))?;
            }
            f.finish()?;
            Ok(f)
        })();
        trace::record(
            "sort.spill_run",
            "sort",
            lane,
            span,
            idx.len() as u64,
            idx.len() as u64,
            1,
        );
        out
    });
    guard_checkpoint()?;
    let mut files = Vec::with_capacity(runs.len());
    for f in runs {
        files.push(f?);
    }
    let span = trace::clock();
    let merged = merge_spilled(r.schema(), &files, &key_idx, &dirs, r.len())?;
    trace::record(
        "sort.disk_merge",
        "sort",
        0,
        span,
        merged.len() as u64,
        merged.len() as u64,
        files.len() as u64,
    );
    // the serial sort preserves the input's name; match it so the external
    // path is a drop-in replacement
    Ok(match r.name() {
        Some(n) => merged.with_name(n),
        None => merged,
    })
}

/// One run's read-back state during the merge: the current chunk and a
/// position within it. `chunk == None` means the run is exhausted.
struct RunCursor {
    reader: SpillReader,
    chunk: Option<Relation>,
    pos: usize,
}

impl RunCursor {
    fn open(f: &SpillFile, schema: &Schema) -> Result<Self, RelationError> {
        let mut reader = f.reader(schema)?;
        let chunk = reader.next_chunk()?;
        Ok(RunCursor {
            reader,
            chunk,
            pos: 0,
        })
    }

    fn advance(&mut self) -> Result<(), RelationError> {
        self.pos += 1;
        if self.chunk.as_ref().is_some_and(|c| self.pos >= c.len()) {
            self.chunk = self.reader.next_chunk()?;
            self.pos = 0;
        }
        Ok(())
    }
}

/// Key comparison of two cursors' current rows (`Equal` leaves the
/// tie-break — run index — to the caller).
fn cmp_cursors(x: &RunCursor, y: &RunCursor, key_idx: &[usize], dirs: &[bool]) -> Ordering {
    let (cx, cy) = (
        x.chunk.as_ref().expect("live cursor"),
        y.chunk.as_ref().expect("live cursor"),
    );
    for (&k, &asc) in key_idx.iter().zip(dirs) {
        let ord = cx.base_columns()[k].cmp_rows_cross(x.pos, &cy.base_columns()[k], y.pos);
        let ord = if asc { ord } else { ord.reverse() };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Streaming k-way merge of sorted runs read back from disk. Ties keep
/// the lowest run index — runs hold consecutive row ranges, so this is
/// exactly the serial sort's global-row-index tie-break.
fn merge_spilled(
    schema: &Schema,
    files: &[SpillFile],
    key_idx: &[usize],
    dirs: &[bool],
    total_rows: usize,
) -> Result<Relation, RelationError> {
    let mut cursors: Vec<RunCursor> = files
        .iter()
        .map(|f| RunCursor::open(f, schema))
        .collect::<Result<_, _>>()?;
    let mut builders: Vec<ColBuilder> = schema
        .attributes()
        .iter()
        .map(|a| ColBuilder::new(a.dtype(), total_rows))
        .collect();
    loop {
        let mut best: Option<usize> = None;
        for (i, c) in cursors.iter().enumerate() {
            if c.chunk.is_none() {
                continue;
            }
            best = match best {
                None => Some(i),
                Some(b) => {
                    if cmp_cursors(c, &cursors[b], key_idx, dirs) == Ordering::Less {
                        Some(i)
                    } else {
                        Some(b)
                    }
                }
            };
        }
        let Some(b) = best else { break };
        {
            let cur = &cursors[b];
            let chunk = cur.chunk.as_ref().expect("live cursor");
            for (bld, col) in builders.iter_mut().zip(chunk.base_columns()) {
                bld.push_from(col, cur.pos)?;
            }
        }
        cursors[b].advance()?;
    }
    let cols = builders
        .into_iter()
        .map(ColBuilder::finish)
        .collect::<Result<Vec<_>, _>>()?;
    Relation::new(schema.clone(), cols)
}

/// Column assembly for the merge output: typed pushes from source chunks,
/// null bitmap built on the side.
struct ColBuilder {
    data: ColumnData,
    nulls: Vec<bool>,
    any_null: bool,
}

impl ColBuilder {
    fn new(dt: DataType, cap: usize) -> Self {
        ColBuilder {
            data: ColumnData::with_capacity(dt, cap),
            nulls: Vec::with_capacity(cap),
            any_null: false,
        }
    }

    fn push_from(&mut self, col: &Column, i: usize) -> Result<(), RelationError> {
        let null = col.is_null(i);
        self.nulls.push(null);
        self.any_null |= null;
        match (&mut self.data, col.data()) {
            (ColumnData::Int(v), ColumnData::Int(s)) => v.push(if null { 0 } else { s[i] }),
            (ColumnData::Float(v), ColumnData::Float(s)) => v.push(if null { 0.0 } else { s[i] }),
            (ColumnData::Str(v), ColumnData::Str(s)) => {
                v.push(if null { String::new() } else { s[i].clone() })
            }
            (ColumnData::Bool(v), ColumnData::Bool(s)) => v.push(!null && s[i]),
            (ColumnData::Date(v), ColumnData::Date(s)) => v.push(if null { 0 } else { s[i] }),
            _ => {
                return Err(RelationError::SpillIo(
                    "spill chunk column type does not match schema".to_string(),
                ))
            }
        }
        Ok(())
    }

    fn finish(self) -> Result<Column, RelationError> {
        if self.any_null {
            Ok(Column::with_nulls(
                self.data,
                Bitmap::from_bools(&self.nulls),
            )?)
        } else {
            Ok(Column::new(self.data))
        }
    }
}

/// Partition-wise spilling aggregate (spill path of
/// [`super::parallel::aggregate_parallel`] for keyed aggregation): rows
/// are hash-partitioned on the group key — a group never spans partitions
/// — so each partition aggregates independently and the results
/// concatenate. Ungrouped aggregation never needs this (its state is one
/// accumulator row) and delegates straight to the in-memory operator.
pub fn aggregate_external(
    r: &Relation,
    group_by: &[&str],
    aggs: &[super::AggSpec],
    pool: &WorkerPool,
) -> Result<Relation, RelationError> {
    if group_by.is_empty() {
        return super::parallel::aggregate_parallel(r, group_by, aggs, pool);
    }
    let parts = fanout(32 * r.len() as u64);
    let mut files = create_files(parts)?;
    partition_into(r, group_by, parts, 0, false, &mut files)?;
    for f in &mut files {
        f.finish()?;
    }
    let mut results = Vec::with_capacity(parts);
    for f in &files {
        let part = f.read_all(r.schema())?;
        results.push(super::parallel::aggregate_parallel(
            &part, group_by, aggs, pool,
        )?);
    }
    guard_checkpoint()?;
    Relation::concat(&results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::{aggregate, join_on, natural_join, order_by, AggFunc, AggSpec};
    use crate::relation::RelationBuilder;
    use crate::spill::{live_spill_files, spill_test_guard};

    fn orders(n: usize) -> Relation {
        RelationBuilder::new()
            .name("orders")
            .column("cust", (0..n).map(|i| (i % 97) as i64).collect::<Vec<_>>())
            .column(
                "amount",
                (0..n).map(|i| (i % 13) as f64).collect::<Vec<_>>(),
            )
            .column("oid", (0..n as i64).collect::<Vec<_>>())
            .build()
            .unwrap()
    }

    fn customers() -> Relation {
        RelationBuilder::new()
            .name("customers")
            .column("cust", (0..97i64).collect::<Vec<_>>())
            .column(
                "tier",
                (0..97).map(|i| format!("t{}", i % 3)).collect::<Vec<_>>(),
            )
            .build()
            .unwrap()
    }

    /// Canonical row dump for order-insensitive comparison.
    fn sorted_rows(r: &Relation) -> Vec<String> {
        let mut rows: Vec<String> = r.rows().map(|row| format!("{row:?}")).collect();
        rows.sort();
        rows
    }

    #[test]
    fn grace_join_matches_in_memory() {
        let _serial = spill_test_guard();
        let baseline = live_spill_files();
        let pool = WorkerPool::new(2);
        let o = orders(5000);
        let c = customers();
        let grace = grace_join_on(&o, &c, &[("cust", "cust")], &pool);
        // schema collision on `cust` fails identically on both paths
        assert!(grace.is_err() == join_on(&o, &c, &[("cust", "cust")]).is_err());
        let c2 = crate::algebra::rename(&c, &[("cust", "cust2")]).unwrap();
        let grace = grace_join_on(&o, &c2, &[("cust", "cust2")], &pool).unwrap();
        let mem = join_on(&o, &c2, &[("cust", "cust2")]).unwrap();
        assert_eq!(grace.len(), mem.len());
        assert_eq!(sorted_rows(&grace), sorted_rows(&mem));
        let nat_grace = grace_natural_join(&o, &c, &pool).unwrap();
        let nat_mem = natural_join(&o, &c).unwrap();
        assert_eq!(sorted_rows(&nat_grace), sorted_rows(&nat_mem));
        assert_eq!(live_spill_files(), baseline, "no orphan spill files");
    }

    #[test]
    fn external_sort_matches_serial_exactly() {
        let _serial = spill_test_guard();
        let baseline = live_spill_files();
        let pool = WorkerPool::new(2);
        let r = orders(7000);
        let ext = order_by_external(&r, &["cust", "amount"], &[true, false], &pool).unwrap();
        let ser = order_by(&r, &["cust", "amount"], &[true, false]).unwrap();
        // identical row order, not just identical multiset
        assert_eq!(ext.materialize(), ser.materialize());
        assert_eq!(live_spill_files(), baseline);
    }

    #[test]
    fn spilling_aggregate_matches_in_memory() {
        let _serial = spill_test_guard();
        let baseline = live_spill_files();
        let pool = WorkerPool::new(2);
        let r = orders(6000);
        let aggs = [
            AggSpec::new(AggFunc::Sum, Some("amount"), "total"),
            AggSpec::new(AggFunc::CountStar, None, "n"),
        ];
        let ext = aggregate_external(&r, &["cust"], &aggs, &pool).unwrap();
        let mem = aggregate(&r, &["cust"], &aggs).unwrap();
        assert_eq!(sorted_rows(&ext), sorted_rows(&mem));
        assert_eq!(live_spill_files(), baseline);
    }
}
