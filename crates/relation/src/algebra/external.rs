//! Out-of-core operators: grace hash join, external merge sort, and the
//! partition-wise spilling aggregate.
//!
//! Each is its in-memory operator with its partitions or runs written to
//! [`SpillFile`]s, taken by the operator's entry point when the headroom
//! probe ([`QueryGuard::fits`](crate::par::QueryGuard::fits)) says its
//! working set will not fit the memory budget. Two phases are shared:
//!
//! - **One partition pass** ([`partition`]): a chunk source's visible rows
//!   go to `parts` spill files by a [`PART_BITS`]-bit field of the key's
//!   own digest ([`rma_storage::KeyCols::digest`]), on bits the
//!   in-partition hash table never reads ([`grace_bucket`]). A relation is
//!   a one-chunk source, a spilled partition streams many. Its one
//!   parameter is the null-key rule: a join drops rows with a null key
//!   (they never join), a group-by keeps them (a NULL cell hashes as a
//!   tagged constant, and null keys are groups).
//! - **One sort run phase** ([`super::sort::sort_runs`]) and **one k-way
//!   merge** ([`super::sort::LoserTree`]), shared with the pooled
//!   in-memory sort.
//!
//! The operators:
//!
//! - **Grace hash join**: both inputs are partitioned, then each partition
//!   pair is joined with the ordinary pool-parallel hash join, so every
//!   spilled partition re-enters the worker pool as its own morsel source.
//!   A partition whose build side still exceeds the budget is partitioned
//!   again (fresh digest bits per level) up to [`MAX_GRACE_DEPTH`]; past
//!   that depth it is joined in memory regardless — the budget becomes
//!   best-effort rather than looping forever on pathological key skew.
//! - **External sort**: the input is cut into budget-sized consecutive
//!   ranges whose sorted runs are spilled; the runs are streamed back
//!   chunk-at-a-time and merged through the loser tree, comparing rows by a
//!   [`RowOrder`] resolved once per run chunk. The merge breaks key ties by
//!   run index, which (runs being consecutive ranges) reproduces the serial
//!   sort's global-row-index tie-break exactly. It gathers its output in
//!   blocks of `(run, row)` picks, one typed pass per column, and polls the
//!   query guard once per block.
//! - **Spilling aggregate**: rows are partitioned like the grace join's
//!   first level, each partition is aggregated independently — group keys
//!   never span partitions — and the partial results are concatenated.
//!
//! Results are value-identical to the in-memory operators; the **row
//! order** of the grace join and the spilling aggregate is partition-major
//! rather than probe-major, which SQL semantics leave unspecified.

use super::join::{JoinSide, TABLE_INDEX_BITS};
use super::sort::{sort_keys, sort_runs, LoserTree};
use crate::error::RelationError;
use crate::par::{current_guard, guard_checkpoint, WorkerPool};
use crate::relation::Relation;
use crate::schema::Schema;
use crate::spill::{SpillFile, SpillReader, SPILL_CHUNK_ROWS};
use crate::trace;
use rma_storage::{
    Bitmap, Column, ColumnAccessor as A, ColumnData, FloatsRef, IntsRef, RowOrder, StrsRef,
};
use std::borrow::Borrow;

/// Maximum grace-join repartition depth: partitioning runs at depths
/// `0..=MAX_GRACE_DEPTH`, each on ten fresh bits of the join digest, and
/// fanout ≤ 32 per level already separates everything except genuinely
/// duplicate keys — which no partitioning can split further.
pub const MAX_GRACE_DEPTH: u32 = 2;

/// Digest bits one grace level partitions on.
const PART_BITS: u32 = 10;

/// The digest bit just above the first grace level's field: the
/// group-by's `DigestMap` tags its slots with the 7 bits from here up.
const PART_TOP: u32 = 57;

// the deepest level's field must stay clear of the low bits a join table
// indexes by, or every row of a partition would share a bucket field
const _: () = assert!(PART_TOP - PART_BITS * (MAX_GRACE_DEPTH + 1) >= TABLE_INDEX_BITS);

/// Grace fanout bounds: at least a real split, at most a file-descriptor
/// count that stays polite at two levels of recursion.
const MIN_FANOUT: usize = 2;
const MAX_FANOUT: usize = 32;

/// Minimum rows per external-sort run — below this, file overhead dwarfs
/// the sort.
const MIN_RUN_ROWS: usize = 1024;

/// Output rows the disk merge picks before it gathers them (and polls the
/// guard).
const MERGE_BLOCK_ROWS: usize = 4096;

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

/// Grace partition of a join-key digest at recursion `depth`: the
/// [`PART_BITS`]-bit field just below the previous level's (the first sits
/// just below a group-by map's 7 tag bits), scaled onto `0..parts`. The
/// table indexes by the low bits, so rows that share a partition still
/// spread over its buckets.
fn grace_bucket(digest: u64, parts: usize, depth: u32) -> usize {
    let shift = PART_TOP - PART_BITS * (depth + 1);
    let field = (digest >> shift) & ((1 << PART_BITS) - 1);
    ((field * parts as u64) >> PART_BITS) as usize
}

/// Visible positions of `r` per partition at `depth`, by the key `keys`;
/// rows with a null in any key column are dropped when `drop_null_keys`.
fn buckets(
    r: &Relation,
    keys: &[&str],
    parts: usize,
    depth: u32,
    drop_null_keys: bool,
) -> Result<Vec<Vec<usize>>, RelationError> {
    let side = JoinSide::new(r, keys)?;
    let mut idx: Vec<Vec<usize>> = vec![Vec::new(); parts];
    for pos in 0..r.len() {
        let base = side.base(pos);
        if !(drop_null_keys && side.key.has_null(base)) {
            idx[grace_bucket(side.key.digest(base), parts, depth)].push(pos);
        }
    }
    Ok(idx)
}

/// Append the visible positions `rows` of `r` to `f` chunk-wise, so no
/// partition or run is ever materialized whole.
fn spill_rows(r: &Relation, rows: &[usize], f: &mut SpillFile) -> Result<(), RelationError> {
    for chunk in rows.chunks(SPILL_CHUNK_ROWS) {
        f.append(&r.take(chunk))?;
    }
    Ok(())
}

/// The one partition pass: each chunk of `src` has its visible rows
/// written into `parts` spill files by [`buckets`] at `depth`. A relation
/// is a one-chunk source (`[Ok(r)]`), a spilled partition a many-chunk
/// one ([`chunks_of`]).
fn partition<R: Borrow<Relation>>(
    src: impl IntoIterator<Item = Result<R, RelationError>>,
    keys: &[&str],
    parts: usize,
    depth: u32,
    drop_null_keys: bool,
) -> Result<Vec<SpillFile>, RelationError> {
    let mut files: Vec<SpillFile> = (0..parts)
        .map(|_| SpillFile::create())
        .collect::<Result<_, _>>()?;
    for chunk in src {
        let chunk = chunk?;
        let chunk = chunk.borrow();
        let idx = buckets(chunk, keys, parts, depth, drop_null_keys)?;
        for (f, rows) in files.iter_mut().zip(&idx) {
            spill_rows(chunk, rows, f)?;
        }
    }
    for f in &mut files {
        f.finish()?;
    }
    Ok(files)
}

/// A spilled partition's chunks, streamed back.
fn chunks_of(
    f: &SpillFile,
    schema: &Schema,
) -> Result<impl Iterator<Item = Result<Relation, RelationError>>, RelationError> {
    let mut rd = f.reader(schema)?;
    Ok(std::iter::from_fn(move || rd.next_chunk().transpose()))
}

/// Grace hash equi-join (spill path of [`super::join_on`]), charging
/// nothing. Result rows are partition-major.
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

/// Grace natural join (spill path of [`super::natural_join`]), charging
/// nothing but a cross product's indices. Falls back to the cross
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
    let grace = Grace {
        schemas: (a.schema(), b.schema()),
        keys: (
            on.iter().map(|(l, _)| *l).collect(),
            on.iter().map(|(_, r)| *r).collect(),
        ),
        on,
        natural,
        pool,
    };
    let parts = fanout(rel_bytes_est(b));
    let span = trace::clock();
    let a_files = partition([Ok(a)], &grace.keys.0, parts, 0, true)?;
    let b_files = partition([Ok(b)], &grace.keys.1, parts, 0, true)?;
    trace::record(
        "join.partition",
        "join",
        0,
        span,
        (a.len() + b.len()) as u64,
        0,
        parts as u64,
    );
    grace.join_pairs(&a_files, &b_files, 1)
}

/// One grace join's inputs, the same at every partition level.
struct Grace<'a> {
    schemas: (&'a Schema, &'a Schema),
    keys: (Vec<&'a str>, Vec<&'a str>),
    on: &'a [(&'a str, &'a str)],
    natural: bool,
    pool: &'a WorkerPool,
}

impl Grace<'_> {
    /// Join each partition pair and concatenate the results,
    /// partition-major.
    fn join_pairs(
        &self,
        a: &[SpillFile],
        b: &[SpillFile],
        depth: u32,
    ) -> Result<Relation, RelationError> {
        let results = a
            .iter()
            .zip(b)
            .map(|(af, bf)| self.join_pair(af, bf, depth))
            .collect::<Result<Vec<_>, _>>()?;
        guard_checkpoint()?;
        Relation::concat(&results)
    }

    /// Join one partition pair: partition it again while the build side
    /// still exceeds the budget (up to [`MAX_GRACE_DEPTH`]), otherwise read
    /// both sides back and run the pool-parallel in-memory join.
    fn join_pair(
        &self,
        af: &SpillFile,
        bf: &SpillFile,
        depth: u32,
    ) -> Result<Relation, RelationError> {
        let over_budget = current_guard().is_some_and(|g| !g.fits(bf.bytes()));
        if depth <= MAX_GRACE_DEPTH && over_budget && bf.rows() > 1 {
            let parts = fanout(bf.bytes());
            let (a_schema, b_schema) = self.schemas;
            let a = partition(chunks_of(af, a_schema)?, &self.keys.0, parts, depth, true)?;
            let b = partition(chunks_of(bf, b_schema)?, &self.keys.1, parts, depth, true)?;
            return self.join_pairs(&a, &b, depth + 1);
        }
        let a_rel = af.read_all(self.schemas.0)?;
        let b_rel = bf.read_all(self.schemas.1)?;
        let span = trace::clock();
        let joined = if self.natural {
            super::natural_join_parallel(&a_rel, &b_rel, self.pool)?
        } else {
            super::join_on_parallel(&a_rel, &b_rel, self.on, self.pool)?
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
}

/// External merge sort (spill path of [`super::order_by`]), charging
/// nothing: budget-sized sorted runs spilled by the workers, then a
/// streaming k-way merge from disk. Row order is identical to the
/// in-memory sort's.
pub fn order_by_external(
    r: &Relation,
    attrs: &[&str],
    ascending: &[bool],
    pool: &WorkerPool,
) -> Result<Relation, RelationError> {
    if attrs.is_empty() || r.len() <= 1 {
        return super::order_by_parallel(r, attrs, ascending, pool);
    }
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
    sort_in_runs(r, attrs, ascending, &ranges, pool)
}

/// The external sort over given runs: the consecutive row `ranges` of `r`
/// are sorted and spilled by the workers ([`sort_runs`]), then merged from
/// disk.
fn sort_in_runs(
    r: &Relation,
    attrs: &[&str],
    ascending: &[bool],
    ranges: &[std::ops::Range<usize>],
    pool: &WorkerPool,
) -> Result<Relation, RelationError> {
    let keys = sort_keys(r, attrs, ascending)?;
    let key_idx: Option<Vec<usize>> = attrs.iter().map(|n| r.schema().index_of(n)).collect();
    let key_idx = key_idx.expect("sort_keys resolved every key");
    let runs = sort_runs(&keys, ranges, pool, "sort.spill_run", |idx| {
        let mut f = SpillFile::create()?;
        spill_rows(r, &idx, &mut f)?;
        f.finish()?;
        Ok(f)
    });
    guard_checkpoint()?;
    let files = runs
        .into_iter()
        .collect::<Result<Vec<_>, RelationError>>()?;
    let span = trace::clock();
    let merged = merge_spilled(r.schema(), &files, &key_idx, ascending, r.len())?;
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

/// Streaming k-way merge of sorted runs read back from disk. Ties keep
/// the lowest run index — runs hold consecutive row ranges, so this is
/// exactly the serial sort's global-row-index tie-break.
fn merge_spilled(
    schema: &Schema,
    files: &[SpillFile],
    key_idx: &[usize],
    ascending: &[bool],
    total_rows: usize,
) -> Result<Relation, RelationError> {
    let mut readers = Vec::with_capacity(files.len());
    let mut chunks = Vec::with_capacity(files.len());
    for f in files {
        let mut rd = f.reader(schema)?;
        chunks.push(rd.next_chunk()?);
        readers.push(rd);
    }
    merge_runs(schema, readers, chunks, key_idx, ascending, total_rows)
}

/// The merge proper, over runs whose first chunks are loaded. The
/// [`LoserTree`] over the runs yields the next row in ⌈log₂ k⌉
/// comparisons. Between two chunk loads the runs' key columns stay put, so
/// the runs' [`RowOrder`]s are resolved once per load, not per comparison. Picks are gathered into
/// the output before any run loads its next chunk, at every
/// [`MERGE_BLOCK_ROWS`], and at the end; the guard is polled at each such
/// flush.
fn merge_runs(
    schema: &Schema,
    mut readers: Vec<SpillReader>,
    mut chunks: Vec<Option<Relation>>,
    key_idx: &[usize],
    ascending: &[bool],
    total_rows: usize,
) -> Result<Relation, RelationError> {
    let mut out = MergeOutput::new(schema, total_rows);
    let mut picks: Vec<(usize, usize)> = Vec::with_capacity(MERGE_BLOCK_ROWS);
    let mut pos = vec![0usize; chunks.len()];
    let mut tree = LoserTree::default();
    let mut reloaded: Option<usize> = None;
    loop {
        let orders: Vec<Option<RowOrder>> = chunks
            .iter()
            .map(|c| {
                c.as_ref().map(|c| {
                    let cols: Vec<&Column> =
                        key_idx.iter().map(|&k| &c.base_columns()[k]).collect();
                    RowOrder::new(&cols, ascending)
                })
            })
            .collect();
        let before = |pos: &[usize], x: usize, y: usize| {
            let head = |run: usize| orders[run].as_ref().map(|o| (o, pos[run]));
            LoserTree::before(x, head(x), y, head(y), |(ox, px), (oy, py)| {
                ox.cmp_across(px, oy, py)
            })
        };
        match reloaded.take() {
            Some(run) => tree.replay(run, |x, y| before(&pos, x, y)),
            None => tree.build(chunks.len(), |x, y| before(&pos, x, y)),
        }
        // a run whose chunk ran out ends the loop: its next chunk loads
        // once this one's picks are gathered
        let spent = loop {
            let Some(run) = tree.winner() else { break None };
            let Some(chunk) = &chunks[run] else {
                break None;
            };
            picks.push((run, pos[run]));
            pos[run] += 1;
            if pos[run] == chunk.len() {
                break Some(run);
            }
            tree.replay(run, |x, y| before(&pos, x, y));
            if picks.len() == MERGE_BLOCK_ROWS {
                out.gather(&picks, &chunks)?;
                picks.clear();
                guard_checkpoint()?;
            }
        };
        out.gather(&picks, &chunks)?;
        picks.clear();
        guard_checkpoint()?;
        drop(orders);
        let Some(run) = spent else { break };
        chunks[run] = readers[run].next_chunk()?;
        pos[run] = 0;
        reloaded = Some(run);
    }
    out.finish(schema)
}

/// The merge's output columns, filled block by block from `(run, row)`
/// picks: per block and column, each run's accessor is resolved once and
/// the column is gathered in one typed pass. Nulls go into a bitmap that
/// is allocated at the first null seen.
struct MergeOutput {
    cols: Vec<(ColumnData, Option<Bitmap>)>,
    len: usize,
    total: usize,
}

/// One column's typed reads of every run's current chunk (`fill` where a
/// run is exhausted: no pick names it).
fn per_run<'a, T: Copy>(
    chunks: &'a [Option<Relation>],
    ci: usize,
    fill: T,
    typed: impl Fn(A<'a>) -> Option<T>,
) -> Result<Vec<T>, RelationError> {
    chunks
        .iter()
        .map(|c| match c {
            None => Ok(fill),
            Some(c) => typed(c.base_columns()[ci].accessor()).ok_or_else(|| {
                RelationError::SpillIo("spill chunk column type does not match schema".to_string())
            }),
        })
        .collect()
}

impl MergeOutput {
    fn new(schema: &Schema, total: usize) -> Self {
        let cols = schema
            .attributes()
            .iter()
            .map(|a| (ColumnData::with_capacity(a.dtype(), total), None))
            .collect();
        MergeOutput {
            cols,
            len: 0,
            total,
        }
    }

    fn gather(
        &mut self,
        picks: &[(usize, usize)],
        chunks: &[Option<Relation>],
    ) -> Result<(), RelationError> {
        for (ci, (data, nulls)) in self.cols.iter_mut().enumerate() {
            match data {
                ColumnData::Int(v) => {
                    let src = per_run(chunks, ci, IntsRef::Slice(&[]), |a| match a {
                        A::Int(s) => Some(s),
                        _ => None,
                    })?;
                    v.extend(picks.iter().map(|&(r, p)| src[r].get(p)));
                }
                ColumnData::Float(v) => {
                    let src = per_run(chunks, ci, FloatsRef::Slice(&[]), |a| match a {
                        A::Float(s) => Some(s),
                        _ => None,
                    })?;
                    v.extend(picks.iter().map(|&(r, p)| src[r].get(p)));
                }
                ColumnData::Str(v) => {
                    let src = per_run(chunks, ci, StrsRef::Slice(&[]), |a| match a {
                        A::Str(s) => Some(s),
                        _ => None,
                    })?;
                    v.extend(picks.iter().map(|&(r, p)| src[r].get(p).to_string()));
                }
                ColumnData::Bool(v) => {
                    let src = per_run(chunks, ci, &[][..], |a| match a {
                        A::Bool(s) => Some(s),
                        _ => None,
                    })?;
                    v.extend(picks.iter().map(|&(r, p)| src[r][p]));
                }
                ColumnData::Date(v) => {
                    let src = per_run(chunks, ci, &[][..], |a| match a {
                        A::Date(s) => Some(s),
                        _ => None,
                    })?;
                    v.extend(picks.iter().map(|&(r, p)| src[r][p]));
                }
                _ => unreachable!("merge output columns are plain"),
            }
            let src: Vec<Option<&Bitmap>> = chunks
                .iter()
                .map(|c| c.as_ref().and_then(|c| c.base_columns()[ci].nulls()))
                .collect();
            if src.iter().any(Option::is_some) {
                let bits = nulls.get_or_insert_with(|| Bitmap::new(self.total));
                for (k, &(r, p)) in picks.iter().enumerate() {
                    if src[r].is_some_and(|b| b.get(p)) {
                        bits.set(self.len + k);
                    }
                }
            }
        }
        self.len += picks.len();
        Ok(())
    }

    fn finish(self, schema: &Schema) -> Result<Relation, RelationError> {
        debug_assert_eq!(self.len, self.total);
        let cols = self
            .cols
            .into_iter()
            .map(|(data, nulls)| match nulls {
                Some(bits) => Column::with_nulls(data, bits),
                None => Ok(Column::new(data)),
            })
            .collect::<Result<Vec<_>, _>>()?;
        Relation::new(schema.clone(), cols)
    }
}

/// Partition-wise spilling aggregate (spill path of [`super::aggregate`]
/// for keyed aggregation), charging nothing: rows
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
        return super::aggregate_parallel(r, group_by, aggs, pool);
    }
    let parts = fanout(super::aggregate::aggregate_state_bytes(r.len()));
    let files = partition([Ok(r)], group_by, parts, 0, false)?;
    let mut results = Vec::with_capacity(parts);
    for f in &files {
        let part = f.read_all(r.schema())?;
        results.push(super::aggregate_parallel(&part, group_by, aggs, pool)?);
    }
    guard_checkpoint()?;
    Relation::concat(&results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::{
        aggregate, bits_text, join_on, natural_join, one_worker, order_by, AggFunc, AggSpec,
    };
    use crate::par::QueryGuard;
    use crate::relation::RelationBuilder;
    use rma_storage::{DataType, Encoding, Value};
    use std::cmp::Ordering;

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
        let files = QueryGuard::new();
        let _files = files.activate();
        let pool = WorkerPool::new(2);
        let o = orders(5000);
        let c = customers();
        let grace = grace_join_on(&o, &c, &[("cust", "cust")], &pool);
        // schema collision on `cust` fails identically on both paths
        assert!(grace.is_err() == join_on(&o, &c, &[("cust", "cust")], &one_worker()).is_err());
        let c2 = crate::algebra::rename(&c, &[("cust", "cust2")]).unwrap();
        let grace = grace_join_on(&o, &c2, &[("cust", "cust2")], &pool).unwrap();
        let mem = join_on(&o, &c2, &[("cust", "cust2")], &one_worker()).unwrap();
        assert_eq!(grace.len(), mem.len());
        assert_eq!(sorted_rows(&grace), sorted_rows(&mem));
        let nat_grace = grace_natural_join(&o, &c, &pool).unwrap();
        let nat_mem = natural_join(&o, &c, &one_worker()).unwrap();
        assert_eq!(sorted_rows(&nat_grace), sorted_rows(&nat_mem));
        assert_eq!(files.live_spill_files(), 0, "no orphan spill files");
    }

    #[test]
    fn external_sort_matches_serial_exactly() {
        let files = QueryGuard::new();
        let _files = files.activate();
        let pool = WorkerPool::new(2);
        let r = orders(7000);
        let ext = order_by_external(&r, &["cust", "amount"], &[true, false], &pool).unwrap();
        let ser = order_by(&r, &["cust", "amount"], &[true, false], &one_worker()).unwrap();
        // identical row order, not just identical multiset
        assert_eq!(ext.materialize(), ser.materialize());
        assert_eq!(files.live_spill_files(), 0);
    }

    #[test]
    fn spilling_aggregate_matches_in_memory() {
        let files = QueryGuard::new();
        let _files = files.activate();
        let pool = WorkerPool::new(2);
        let r = orders(6000);
        let aggs = [
            AggSpec::new(AggFunc::Sum, Some("amount"), "total"),
            AggSpec::new(AggFunc::CountStar, None, "n"),
        ];
        let ext = aggregate_external(&r, &["cust"], &aggs, &pool).unwrap();
        let mem = aggregate(&r, &["cust"], &aggs, &one_worker()).unwrap();
        assert_eq!(sorted_rows(&ext), sorted_rows(&mem));
        assert_eq!(files.live_spill_files(), 0);
    }

    /// Rows as text, floats by their bits, sorted: a bag in which signed
    /// zeros and NaN payloads stay visible.
    fn bag_bits(r: &Relation) -> Vec<String> {
        let mut rows = bits_text(r.rows());
        rows.sort();
        rows
    }

    #[test]
    fn spilling_aggregate_matches_in_memory_on_every_key_kind() {
        let files = QueryGuard::new();
        let _files = files.activate();
        let n = 5000usize;
        let nan_a = f64::from_bits(0x7ff8_0000_0000_0001);
        let nan_b = f64::from_bits(0xfff8_0000_0000_0002);
        let floats = [0.0, -0.0, nan_a, nan_b, 1.5, -2.25];
        let words: Vec<String> = (0..n).map(|i| format!("w{}", i * 7 % 41)).collect();
        let r = RelationBuilder::new()
            .column(
                "nullable",
                nullable_ints((0..n as i64).map(|i| (i % 7 != 0).then_some(i % 23))),
            )
            .column(
                "dict",
                Column::from(words).encode_as(Encoding::Dict).unwrap(),
            )
            .column("f", (0..n).map(|i| floats[i % 6]).collect::<Vec<_>>())
            .column("x", (0..n as i64).map(|i| i % 11 - 5).collect::<Vec<_>>())
            .build()
            .unwrap();
        let aggs = [
            AggSpec::count_star("n"),
            AggSpec::sum("x", "s"),
            AggSpec::new(AggFunc::Min, Some("x"), "lo"),
            AggSpec::new(AggFunc::Max, Some("x"), "hi"),
        ];
        for keys in [
            &["nullable"][..],
            &["dict"],
            &["f"],
            &["f", "nullable"],
            &["dict", "f"],
        ] {
            let mem = aggregate(&r, keys, &aggs, &one_worker()).unwrap();
            for threads in [1, 2, 4] {
                let pool = WorkerPool::new(threads);
                let ext = aggregate_external(&r, keys, &aggs, &pool).unwrap();
                assert_eq!(
                    bag_bits(&ext),
                    bag_bits(&mem),
                    "{keys:?} at {threads} threads"
                );
            }
        }
        // NULL is one group; 0.0/-0.0 and the NaNs are one group each
        assert_eq!(
            aggregate(&r, &["nullable"], &aggs, &one_worker())
                .unwrap()
                .len(),
            24
        );
        assert_eq!(
            aggregate(&r, &["f"], &aggs, &one_worker()).unwrap().len(),
            4
        );
        assert_eq!(files.live_spill_files(), 0, "no orphan spill files");
    }

    #[test]
    fn group_partitions_spread_evenly() {
        let r = RelationBuilder::new()
            .column("k", (0..100_000i64).collect::<Vec<_>>())
            .build()
            .unwrap();
        for parts in [3, 4, 8, 32] {
            assert_even(
                &buckets(&r, &["k"], parts, 0, false).unwrap(),
                &format!("{parts} parts"),
            );
        }
    }

    // -----------------------------------------------------------------
    // External sort: exact row order against the serial sort
    // -----------------------------------------------------------------

    /// `n` rows cut into `runs` near-equal consecutive ranges.
    fn even_runs(n: usize, runs: usize) -> Vec<std::ops::Range<usize>> {
        (0..runs)
            .map(|i| i * n / runs..(i + 1) * n / runs)
            .collect()
    }

    /// The external sort of `r` over the given runs equals the serial sort
    /// row for row, and leaves no spill file behind.
    fn assert_exact(r: &Relation, attrs: &[&str], asc: &[bool], ranges: &[std::ops::Range<usize>]) {
        let files = QueryGuard::new();
        let _files = files.activate();
        let ext = sort_in_runs(r, attrs, asc, ranges, &WorkerPool::new(2)).unwrap();
        let ser = order_by(r, attrs, asc, &one_worker()).unwrap();
        assert_eq!(ext.schema(), ser.schema());
        assert_eq!(
            bits_text(ext.rows()),
            bits_text(ser.rows()),
            "{attrs:?} {asc:?} over {} runs",
            ranges.len()
        );
        assert_eq!(files.live_spill_files(), 0, "no orphan spill files");
    }

    fn nullable_ints(vals: impl Iterator<Item = Option<i64>>) -> Column {
        let vals: Vec<Value> = vals.map(|x| x.map_or(Value::Null, Value::Int)).collect();
        Column::from_values_typed(DataType::Int, &vals).unwrap()
    }

    #[test]
    fn external_sort_nullable_keys_both_directions() {
        let n = 3000usize;
        let floats: Vec<Value> = (0..n)
            .map(|i| match i % 7 {
                0 => Value::Null,
                m => Value::Float((m as f64) * 0.5 - 1.0),
            })
            .collect();
        let r = RelationBuilder::new()
            .column(
                "k",
                nullable_ints((0..n as i64).map(|i| (i % 5 != 0).then_some(i % 11))),
            )
            .column(
                "f",
                Column::from_values_typed(DataType::Float, &floats).unwrap(),
            )
            .column("oid", (0..n as i64).collect::<Vec<_>>())
            .build()
            .unwrap();
        for asc in [[true, true], [false, true], [true, false], [false, false]] {
            assert_exact(&r, &["k", "f"], &asc, &even_runs(n, 7));
        }
    }

    #[test]
    fn external_sort_dictionary_keys_compare_by_value_across_runs() {
        let words = ["pear", "fig", "apple", "kiwi", "date", "lime", "plum"];
        let n = 2500usize;
        let dict = Column::from(
            (0..n)
                .map(|i| words[(i * 5) % words.len()])
                .collect::<Vec<&str>>(),
        )
        .encode_as(Encoding::Dict)
        .unwrap();
        let nullable: Vec<Value> = (0..n)
            .map(|i| match i % 9 {
                0 => Value::Null,
                _ => Value::Str(words[(i * 3) % words.len()].to_string()),
            })
            .collect();
        let nullable = Column::from_values_typed(DataType::Str, &nullable)
            .unwrap()
            .encode_as(Encoding::Dict)
            .unwrap();
        let r = RelationBuilder::new()
            .column("s", dict)
            .column("t", nullable)
            .column("oid", (0..n as i64).collect::<Vec<_>>())
            .build()
            .unwrap();
        for asc in [[true, true], [false, true], [true, false]] {
            assert_exact(&r, &["s", "t"], &asc, &even_runs(n, 6));
        }
        // runs whose dictionaries were built apart: their codes disagree,
        // so the merge has to compare the strings
        let ranges = even_runs(n, 4);
        let runs: Vec<Relation> = ranges
            .iter()
            .enumerate()
            .map(|(i, rows)| {
                let words = &words[i..];
                let vals: Vec<&str> = rows.clone().map(|j| words[j % words.len()]).collect();
                RelationBuilder::new()
                    .column("s", Column::from(vals).encode_as(Encoding::Dict).unwrap())
                    .column("oid", rows.clone().map(|j| j as i64).collect::<Vec<_>>())
                    .build()
                    .unwrap()
            })
            .collect();
        let code_of_pear = |r: &Relation| match r.base_columns()[0].accessor() {
            A::Str(s) => s.dict().and_then(|d| d.code_of("pear")),
            _ => None,
        };
        assert_ne!(code_of_pear(&runs[0]), code_of_pear(&runs[1]));
        let whole = Relation::concat(&runs).unwrap();
        let key_idx = [0];
        let (files, readers, chunks) = open_runs(&runs, "s");
        let merged = merge_runs(whole.schema(), readers, chunks, &key_idx, &[true], n).unwrap();
        drop(files);
        assert_eq!(
            bits_text(merged.rows()),
            bits_text(
                order_by(&whole, &["s"], &[true], &one_worker())
                    .unwrap()
                    .rows()
            )
        );
    }

    #[test]
    fn external_sort_rle_and_packed_int_keys() {
        let n = 4000usize;
        let rle = Column::from((0..n as i64).map(|i| 9 - i / 250).collect::<Vec<_>>())
            .encode_as(Encoding::Rle)
            .unwrap();
        let packed = Column::from((0..n as i64).map(|i| (i * 7919) % 503).collect::<Vec<_>>())
            .encode_as(Encoding::Packed)
            .unwrap();
        let r = RelationBuilder::new()
            .column("r", rle)
            .column("p", packed)
            .column("oid", (0..n as i64).collect::<Vec<_>>())
            .build()
            .unwrap();
        for asc in [[true, true], [false, true]] {
            assert_exact(&r, &["r", "p"], &asc, &even_runs(n, 5));
            assert_exact(&r, &["p", "r"], &asc, &even_runs(n, 5));
        }
    }

    #[test]
    fn external_sort_special_floats() {
        let specials = [
            f64::NAN,
            -f64::NAN,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.5,
            -1.5,
        ];
        let n = 2000usize;
        let r = RelationBuilder::new()
            .column(
                "x",
                (0..n)
                    .map(|i| specials[(i * 3) % specials.len()])
                    .collect::<Vec<f64>>(),
            )
            .column("oid", (0..n as i64).collect::<Vec<_>>())
            .build()
            .unwrap();
        for asc in [true, false] {
            assert_exact(&r, &["x"], &[asc], &even_runs(n, 4));
        }
    }

    /// The reference order of two cells, written apart from the engine:
    /// NULL below every value, floats by `total_cmp`, strings by value.
    fn reference_cmp(a: &Value, b: &Value) -> Ordering {
        match (a, b) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Null, _) => Ordering::Less,
            (_, Value::Null) => Ordering::Greater,
            (Value::Int(x), Value::Int(y)) => x.cmp(y),
            (Value::Float(x), Value::Float(y)) => x.total_cmp(y),
            (Value::Str(x), Value::Str(y)) => x.cmp(y),
            _ => unreachable!("one key column holds one type"),
        }
    }

    #[test]
    fn every_sort_path_matches_an_independent_reference() {
        let files = QueryGuard::new();
        let _files = files.activate();
        let n = 3000usize;
        let floats = [
            f64::NAN,
            -f64::NAN,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            2.5,
            -1.25,
        ];
        let words = ["pear", "fig", "apple", "Fig", "", "kiwi"];
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|i| {
                let null = |m: usize| i % m == 0;
                vec![
                    if null(7) {
                        Value::Null
                    } else {
                        Value::Int((i * 31 % 17) as i64 - 8)
                    },
                    if null(5) {
                        Value::Null
                    } else {
                        Value::Float(floats[i * 7 % 8])
                    },
                    if null(9) {
                        Value::Null
                    } else {
                        Value::Str(words[i * 5 % 6].to_string())
                    },
                    Value::Int(i as i64),
                ]
            })
            .collect();
        let typed = [DataType::Int, DataType::Float, DataType::Str, DataType::Int];
        let names = ["i", "f", "s", "id"];
        let mut b = RelationBuilder::new();
        for (c, (name, dt)) in names.iter().zip(typed).enumerate() {
            let vals: Vec<Value> = rows.iter().map(|row| row[c].clone()).collect();
            b = b.column(*name, Column::from_values_typed(dt, &vals).unwrap());
        }
        let r = b.build().unwrap();
        // a SelVec view: two rows of every three, last first
        let picks: Vec<usize> = (0..n).rev().filter(|i| i % 3 != 1).collect();
        let inputs = [
            (r.clone(), rows.clone()),
            (
                r.take(&picks),
                picks.iter().map(|&i| rows[i].clone()).collect(),
            ),
        ];
        for (keys, asc) in [
            (vec![1], vec![true]),
            (vec![1], vec![false]),
            (vec![0, 1], vec![true, false]),
            (vec![2, 0], vec![false, true]),
            (vec![2, 1, 0], vec![true, true, false]),
        ] {
            let attrs: Vec<&str> = keys.iter().map(|&k| names[k]).collect();
            for (input, input_rows) in &inputs {
                // a stable sort: full key ties keep the input order
                let mut expected = input_rows.clone();
                expected.sort_by(|x, y| {
                    keys.iter()
                        .zip(&asc)
                        .fold(Ordering::Equal, |ord, (&k, &up)| {
                            let o = reference_cmp(&x[k], &y[k]);
                            ord.then(if up { o } else { o.reverse() })
                        })
                });
                let expected = bits_text(expected.into_iter());
                let what = format!("{attrs:?} {asc:?} over {} rows", input.len());
                let check = |out: Relation, path: &str| {
                    assert_eq!(bits_text(out.rows()), expected, "{path}: {what}");
                };
                check(
                    order_by(input, &attrs, &asc, &one_worker()).unwrap(),
                    "serial",
                );
                for threads in [2, 3, 5] {
                    let pool = WorkerPool::new(threads);
                    let out = crate::algebra::order_by_parallel(input, &attrs, &asc, &pool);
                    check(out.unwrap(), &format!("pooled at {threads}"));
                }
                // no budget: the external sort spills runs of its minimum size
                let out = order_by_external(input, &attrs, &asc, &WorkerPool::new(2));
                check(out.unwrap(), "external");
            }
        }
        assert_eq!(files.live_spill_files(), 0);
    }

    #[test]
    fn external_sort_run_counts_and_full_ties() {
        let n = 3300usize;
        let r = RelationBuilder::new()
            .column(
                "k",
                (0..n).map(|i| ((i * 37) % 101) as i64).collect::<Vec<_>>(),
            )
            .column("same", vec![1i64; n])
            .column("oid", (0..n as i64).collect::<Vec<_>>())
            .build()
            .unwrap();
        for runs in [1, 2, 3, 31, 32, 33] {
            assert_exact(&r, &["k"], &[false], &even_runs(n, runs));
            // every key tied: the run index alone orders the output, which
            // must come back in input order
            assert_exact(&r, &["same"], &[true], &even_runs(n, runs));
        }
        let ties = sort_in_runs(
            &r,
            &["same"],
            &[true],
            &even_runs(n, 33),
            &WorkerPool::new(2),
        )
        .unwrap();
        assert_eq!(ties.materialize(), r.materialize());
        // order_by_external's own run sizing: 32 runs of 1025 rows
        let r = orders(32 * 1024);
        let files = QueryGuard::new();
        let _files = files.activate();
        let ext = order_by_external(&r, &["amount", "cust"], &[false, true], &WorkerPool::new(2))
            .unwrap();
        assert_eq!(
            ext,
            order_by(&r, &["amount", "cust"], &[false, true], &one_worker()).unwrap()
        );
        assert_eq!(files.live_spill_files(), 0);
    }

    #[test]
    fn external_sort_reloads_chunks_mid_merge() {
        let n = 2 * SPILL_CHUNK_ROWS + 3000;
        let r = orders(n);
        // two runs of more than one chunk each, then uneven runs whose
        // chunk boundaries fall at different output positions
        assert_exact(&r, &["amount", "cust"], &[true, false], &even_runs(n, 2));
        let uneven = [
            0..SPILL_CHUNK_ROWS + 100,
            SPILL_CHUNK_ROWS + 100..SPILL_CHUNK_ROWS + 600,
            SPILL_CHUNK_ROWS + 600..n,
        ];
        assert_exact(&r, &["cust", "amount"], &[false, true], &uneven);
    }

    #[test]
    fn external_sort_empty_and_single_row_inputs() {
        let r = orders(10);
        let pool = WorkerPool::new(2);
        for rows in [&[][..], &[4][..]] {
            let part = r.take(rows);
            let ext = order_by_external(&part, &["amount"], &[true], &pool).unwrap();
            assert_eq!(
                ext,
                order_by(&part, &["amount"], &[true], &one_worker()).unwrap()
            );
            assert_exact(&part, &["amount"], &[true], &even_runs(rows.len(), 1));
        }
        assert_exact(&r.take(&[]), &["amount"], &[true], &[]);
    }

    /// `runs`, each sorted on `key` and spilled, with each run's first
    /// chunk loaded — the state the merge starts from.
    fn open_runs(
        runs: &[Relation],
        key: &str,
    ) -> (Vec<SpillFile>, Vec<SpillReader>, Vec<Option<Relation>>) {
        let files: Vec<SpillFile> = runs
            .iter()
            .map(|run| {
                let mut f = SpillFile::create().unwrap();
                f.append(&order_by(run, &[key], &[true], &one_worker()).unwrap())
                    .unwrap();
                f.finish().unwrap();
                f
            })
            .collect();
        let mut readers: Vec<SpillReader> = files
            .iter()
            .map(|f| f.reader(runs[0].schema()).unwrap())
            .collect();
        let chunks = readers
            .iter_mut()
            .map(|rd| rd.next_chunk().unwrap())
            .collect();
        (files, readers, chunks)
    }

    #[test]
    fn disk_merge_polls_the_guard_once_its_runs_are_open() {
        let files = QueryGuard::new();
        let _files = files.activate();
        let n = 4 * MERGE_BLOCK_ROWS;
        let r = orders(n);
        let key_idx = [r.schema().index_of("amount").unwrap()];
        let runs: Vec<Relation> = even_runs(n, 3)
            .into_iter()
            .map(|rows| r.take(&rows.collect::<Vec<_>>()))
            .collect();
        // every run is one chunk, so opening the runs read all there is:
        // only the merge itself can notice the cancel
        let (runs_open, readers, chunks) = open_runs(&runs, "amount");
        let guard = QueryGuard::with_limits(None, 0);
        guard.cancel();
        let active = guard.activate();
        let out = merge_runs(r.schema(), readers, chunks, &key_idx, &[true], n);
        drop(active);
        assert!(matches!(out, Err(RelationError::Cancelled)), "got {out:?}");
        // a deadline that has passed stops it the same way
        let (_more, readers, chunks) = open_runs(&runs, "amount");
        let guard = QueryGuard::with_limits(Some(std::time::Duration::from_nanos(1)), 0);
        std::thread::sleep(std::time::Duration::from_millis(1));
        let active = guard.activate();
        let out = merge_runs(r.schema(), readers, chunks, &key_idx, &[true], n);
        drop(active);
        assert!(
            matches!(out, Err(RelationError::DeadlineExceeded)),
            "got {out:?}"
        );
        // unguarded, the same runs merge in full
        let (_again, readers, chunks) = open_runs(&runs, "amount");
        let merged = merge_runs(r.schema(), readers, chunks, &key_idx, &[true], n).unwrap();
        assert_eq!(merged.len(), n);
        drop((runs_open, _more, _again));
        assert_eq!(files.live_spill_files(), 0);
    }

    /// The spill benchmark's shape: 200 000 × 3 rows ordered by a float
    /// with ties and a unique id, under the 256 KiB budget that cuts it
    /// into 32 runs. Fast only in release (CI runs it there).
    #[test]
    #[ignore]
    fn external_sort_benchmark_shape() {
        let files = QueryGuard::new();
        let _files = files.activate();
        let n = 200_000usize;
        let r = RelationBuilder::new()
            .column(
                "id",
                (0..n).map(|i| ((i * 7919) % n) as i64).collect::<Vec<_>>(),
            )
            .column(
                "duration",
                (0..n)
                    .map(|i| ((i * 104_729) % 3600) as f64)
                    .collect::<Vec<_>>(),
            )
            .column("d2", (0..n).map(|i| i as f64 * 0.25).collect::<Vec<_>>())
            .build()
            .unwrap();
        let guard = QueryGuard::with_limits(None, 262_144);
        let active = guard.activate();
        let ext =
            order_by_external(&r, &["duration", "id"], &[true, true], &WorkerPool::new(2)).unwrap();
        drop(active);
        assert_eq!(guard.spill_partitions(), 32, "one partition per run");
        assert_eq!(guard.live_spill_files(), 0);
        let ser = order_by(&r, &["duration", "id"], &[true, true], &one_worker()).unwrap();
        assert_eq!(ext, ser.materialize());
        assert_eq!(files.live_spill_files(), 0);
    }

    // -----------------------------------------------------------------
    // Grace partitioning on the join digest
    // -----------------------------------------------------------------

    /// Every partition holds within 10% of the mean.
    fn assert_even(buckets: &[Vec<usize>], what: &str) {
        let total: usize = buckets.iter().map(Vec::len).sum();
        let mean = total as f64 / buckets.len() as f64;
        for (p, b) in buckets.iter().enumerate() {
            let dev = (b.len() as f64 - mean).abs() / mean;
            assert!(
                dev <= 0.10,
                "{what}: partition {p} holds {} of mean {mean}",
                b.len()
            );
        }
    }

    #[test]
    fn grace_partitions_spread_evenly_on_fresh_bits_at_every_depth() {
        let ints = |n: i64| {
            RelationBuilder::new()
                .column("k", (0..n).collect::<Vec<_>>())
                .build()
                .unwrap()
        };
        let r = ints(100_000);
        for parts in [3, 4, 32] {
            assert_even(&buckets(&r, &["k"], parts, 0, true).unwrap(), "depth 0");
        }
        // each level splits the previous level's partition evenly again
        let mut part = r;
        for depth in 0..=MAX_GRACE_DEPTH {
            let buckets = buckets(&part, &["k"], 4, depth, true).unwrap();
            assert_even(&buckets, &format!("depth {depth}"));
            part = part.take(&buckets[0]);
        }
        // the levels read neither a join table's index bits (the low 27 at
        // any partition size) nor a group-by map's 7 tag bits
        let untouched = ((1u64 << TABLE_INDEX_BITS) - 1) | (0x7f << 57);
        let mut h = 0x0123_4567_89ab_cdefu64;
        for _ in 0..1000 {
            h = h.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17);
            for depth in 0..=MAX_GRACE_DEPTH {
                assert_eq!(
                    grace_bucket(h, 32, depth),
                    grace_bucket(h ^ untouched, 32, depth)
                );
            }
        }
    }

    #[test]
    fn grace_partitions_meet_across_encodings_but_not_types() {
        let words: Vec<String> = (0..600).map(|i| format!("w{i}")).collect();
        let plain = RelationBuilder::new()
            .column("s", words.clone())
            .build()
            .unwrap();
        let dict_col = Column::from(words.iter().rev().cloned().collect::<Vec<_>>())
            .encode_as(Encoding::Dict)
            .unwrap();
        let dict = RelationBuilder::new()
            .column("s2", dict_col)
            .build()
            .unwrap();
        for depth in 0..=MAX_GRACE_DEPTH {
            let (p, d) = (
                buckets(&plain, &["s"], 8, depth, true).unwrap(),
                buckets(&dict, &["s2"], 8, depth, true).unwrap(),
            );
            for (pp, dp) in p.iter().zip(&d) {
                // the dictionary holds the words reversed
                let mut mirrored: Vec<usize> = dp.iter().map(|&i| words.len() - 1 - i).collect();
                mirrored.sort_unstable();
                assert_eq!(pp, &mirrored, "depth {depth}");
            }
        }
        let pool = WorkerPool::new(2);
        let files = QueryGuard::new();
        let _files = files.activate();
        let grace = grace_join_on(&plain, &dict, &[("s", "s2")], &pool).unwrap();
        assert_eq!(grace.len(), words.len());
        assert!(grace.rows().all(|row| row[0] == row[1]));
        // Int 5 never meets Float 5.0, whichever partitions they share
        let ints = RelationBuilder::new()
            .column("k", (0..500i64).collect::<Vec<_>>())
            .build()
            .unwrap();
        let floats = RelationBuilder::new()
            .column("f", (0..500).map(f64::from).collect::<Vec<_>>())
            .build()
            .unwrap();
        assert_eq!(
            grace_join_on(&ints, &floats, &[("k", "f")], &pool)
                .unwrap()
                .len(),
            0
        );
        // NULL keys drop out before any partition
        let nullable = RelationBuilder::new()
            .column(
                "k",
                nullable_ints((0..500).map(|i| (i % 4 != 0).then_some(i))),
            )
            .build()
            .unwrap();
        let buckets = buckets(&nullable, &["k"], 8, 0, true).unwrap();
        assert_eq!(buckets.iter().map(Vec::len).sum::<usize>(), 375);
        let other = crate::algebra::rename(&nullable, &[("k", "k2")]).unwrap();
        assert_eq!(
            grace_join_on(&nullable, &other, &[("k", "k2")], &pool)
                .unwrap()
                .len(),
            375
        );
        assert_eq!(files.live_spill_files(), 0);
    }

    #[test]
    fn skewed_grace_join_recurses_to_max_depth_and_stays_exact() {
        let files = QueryGuard::new();
        let _files = files.activate();
        let pool = WorkerPool::new(2);
        let keyed = |name: &str, keys: Vec<i64>| {
            let n = keys.len() as i64;
            RelationBuilder::new()
                .column(name, keys)
                .column(format!("{name}_row"), (0..n).collect::<Vec<_>>())
                .build()
                .unwrap()
        };
        // one key only: no level can split it, so every level recurses
        let a = keyed("k", vec![7; 300]);
        let b = keyed("k2", vec![7; 200]);
        let guard = QueryGuard::with_limits(None, 1024);
        let active = guard.activate();
        let grace = grace_join_on(&a, &b, &[("k", "k2")], &pool).unwrap();
        drop(active);
        // one non-empty file per side per level, depths 0..=MAX_GRACE_DEPTH
        assert_eq!(guard.spill_partitions(), 2 * u64::from(MAX_GRACE_DEPTH + 1));
        assert_eq!(guard.live_spill_files(), 0);
        let mem = join_on(&a, &b, &[("k", "k2")], &one_worker()).unwrap();
        assert_eq!(grace.len(), 60_000);
        assert_eq!(sorted_rows(&grace), sorted_rows(&mem));
        // a hot key among many cold ones
        let a = keyed(
            "k",
            (0..3000)
                .map(|i| if i % 2 == 0 { 7 } else { i % 211 })
                .collect(),
        );
        let b = keyed(
            "k2",
            (0..800)
                .map(|i| if i % 4 == 0 { 7 } else { i % 97 })
                .collect(),
        );
        let guard = QueryGuard::with_limits(None, 2048);
        let active = guard.activate();
        let grace = grace_join_on(&a, &b, &[("k", "k2")], &pool).unwrap();
        drop(active);
        let mem = join_on(&a, &b, &[("k", "k2")], &one_worker()).unwrap();
        assert_eq!(sorted_rows(&grace), sorted_rows(&mem));
        assert_eq!(guard.live_spill_files(), 0);
        assert_eq!(files.live_spill_files(), 0);
    }
}
