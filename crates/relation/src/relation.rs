//! Relations: a schema plus one BAT per attribute.
//!
//! Following MonetDB, a relation is stored column-wise; all attribute
//! columns have equal length and row `i` across the columns is tuple `i`.
//! Relations carry an optional *name* which the RMA layer uses as the row
//! origin of shape-(1,1) operations (`det`, `rnk` — see Fig. 9 of the
//! paper).
//!
//! ## Late materialization
//!
//! A relation is either *compact* (each column holds exactly the visible
//! rows) or a *view*: `Arc`-shared base columns plus a [`SelVec`] naming
//! the visible rows. Row-local operators — [`Relation::filter`],
//! [`Relation::take`], [`Relation::slice`], projection — produce views in
//! O(result) index work with **zero column copying**; the copy happens once,
//! at a pipeline sink, via [`Relation::materialize`]. The compacting
//! accessors ([`Relation::column`], [`Relation::columns`]) gather a view's
//! column on first use and cache it per column, so code that is not
//! view-aware stays correct: it pays the one gather a sink would pay anyway.

use crate::error::RelationError;
use crate::schema::{Attribute, Schema};
use crate::stats::Statistics;
use rma_storage::{is_key, sort_permutation, Column, SelVec, Value};
use std::borrow::Cow;
use std::fmt;
use std::sync::OnceLock;

/// A relation instance: compact columns, or a selection-vector view over
/// shared base columns.
#[derive(Debug, Clone)]
pub struct Relation {
    name: Option<String>,
    schema: Schema,
    /// Base columns. Compact relations: exactly the visible rows. Views:
    /// the (shared) base the selection vector indexes into.
    columns: Vec<Column>,
    /// `Some` marks a view; `None` marks a compact relation.
    sel: Option<SelVec>,
    /// Per-column lazily gathered visible columns of a view: the
    /// compacting accessors pay each column's gather once, and only for
    /// the columns actually read (a grouped aggregate over a wide view
    /// never touches the payload it ignores).
    compacted: Box<[OnceLock<Column>]>,
    /// Lazily computed table statistics ([`Relation::statistics`]); shared
    /// by clones once computed.
    stats: OnceLock<Statistics>,
}

/// Logical equality: same name, schema, and visible rows — a view and its
/// materialization compare equal.
impl PartialEq for Relation {
    fn eq(&self, other: &Relation) -> bool {
        self.name == other.name
            && self.schema == other.schema
            && self.len() == other.len()
            && self.columns() == other.columns()
    }
}

impl Relation {
    /// Build a relation from a schema and matching columns.
    pub fn new(schema: Schema, columns: Vec<Column>) -> Result<Self, RelationError> {
        if schema.len() != columns.len() {
            return Err(RelationError::ArityMismatch {
                expected: schema.len(),
                found: columns.len(),
            });
        }
        if let Some(first) = columns.first() {
            if columns.iter().any(|c| c.len() != first.len()) {
                return Err(RelationError::RaggedColumns);
            }
        }
        for (a, c) in schema.attributes().iter().zip(&columns) {
            if a.dtype() != c.data_type() {
                return Err(RelationError::SchemaTypeMismatch {
                    attribute: a.name().to_string(),
                });
            }
        }
        Ok(Relation::from_view_parts(None, schema, columns, None))
    }

    /// An empty relation with the given schema.
    pub fn empty(schema: Schema) -> Self {
        let columns: Vec<Column> = schema
            .attributes()
            .iter()
            .map(|a| Column::new(rma_storage::ColumnData::empty(a.dtype())))
            .collect();
        Relation::from_view_parts(None, schema, columns, None)
    }

    /// Internal view constructor: shared base columns + selection vector.
    /// Invariants (unchecked): `schema` matches `columns`, every index in
    /// `sel` is within the base length.
    pub(crate) fn from_view_parts(
        name: Option<String>,
        schema: Schema,
        columns: Vec<Column>,
        sel: Option<SelVec>,
    ) -> Relation {
        // an identity selection is just a compact relation
        let base_len = columns.first().map_or(0, Column::len);
        let sel = sel.filter(|s| !s.is_identity(base_len));
        let compacted = (0..columns.len()).map(|_| OnceLock::new()).collect();
        Relation {
            name,
            schema,
            columns,
            sel,
            compacted,
            stats: OnceLock::new(),
        }
    }

    /// A view over this relation's base selecting `sel` (positions are
    /// composed when `self` is already a view).
    fn view(&self, sel: SelVec) -> Relation {
        Relation::from_view_parts(
            self.name.clone(),
            self.schema.clone(),
            self.columns.clone(),
            Some(sel),
        )
    }

    /// Build from rows of boxed values (test/edge convenience; bulk paths
    /// construct columns directly).
    pub fn from_rows(schema: Schema, rows: &[Vec<Value>]) -> Result<Self, RelationError> {
        let width = schema.len();
        for r in rows {
            if r.len() != width {
                return Err(RelationError::ArityMismatch {
                    expected: width,
                    found: r.len(),
                });
            }
        }
        let mut columns = Vec::with_capacity(width);
        for (j, attr) in schema.attributes().iter().enumerate() {
            let vals: Vec<Value> = rows.iter().map(|r| r[j].clone()).collect();
            columns.push(Column::from_values_typed(attr.dtype(), &vals)?);
        }
        Relation::new(schema, columns)
    }

    /// Set the relation name (used as the row origin of `det`/`rnk`).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of visible tuples `|r|`.
    pub fn len(&self) -> usize {
        if self.columns.is_empty() {
            return 0;
        }
        match &self.sel {
            Some(sel) => sel.len(),
            None => self.columns[0].len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Is this relation a selection-vector view (visible rows ≠ base rows)?
    pub fn is_view(&self) -> bool {
        self.sel.is_some()
    }

    /// The selection vector, when this relation is a view.
    pub fn sel(&self) -> Option<&SelVec> {
        self.sel.as_ref()
    }

    /// The shared base columns a view indexes into (equal to
    /// [`Relation::columns`] for compact relations). Base columns may be
    /// longer than [`Relation::len`]; index them through [`Relation::sel`].
    pub fn base_columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of rows in the base columns.
    pub fn base_len(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }

    /// Base column of an attribute by name (not compacted — index it
    /// through [`Relation::sel`] / [`Relation::base_index`]).
    pub fn base_column(&self, name: &str) -> Result<&Column, RelationError> {
        let idx = self
            .schema
            .index_of(name)
            .ok_or_else(|| RelationError::UnknownAttribute(name.to_string()))?;
        Ok(&self.columns[idx])
    }

    /// The base row index behind visible position `i`.
    #[inline]
    pub fn base_index(&self, i: usize) -> usize {
        match &self.sel {
            Some(sel) => sel.get(i),
            None => i,
        }
    }

    /// Map visible positions to base indices as a selection vector —
    /// composing with this view's own selection, if any. `pos` must hold
    /// valid visible positions.
    pub fn compose_positions(&self, pos: &[usize]) -> SelVec {
        match &self.sel {
            Some(sel) => sel.compose(pos),
            None => SelVec::from_indices(pos.to_vec()),
        }
    }

    /// [`Relation::compose_positions`], consuming the position vector: a
    /// compact relation wraps it as-is, with no copy (the shape joins use
    /// — match lists are owned and huge).
    pub fn compose_owned(&self, pos: Vec<usize>) -> SelVec {
        match &self.sel {
            Some(sel) => sel.compose(&pos),
            None => SelVec::from_indices(pos),
        }
    }

    /// Compacted column `idx` of a view, gathered (and cached) on first
    /// use. Must only be called when `self.sel` is `Some`.
    fn compacted_col(&self, idx: usize) -> &Column {
        self.compacted[idx].get_or_init(|| {
            let sel = self
                .sel
                .as_ref()
                .expect("compacted_col called on a non-view");
            self.columns[idx].gather(sel)
        })
    }

    /// The visible columns, compacted. Compact relations borrow their
    /// columns; a view assembles them from the per-column cache, gathering
    /// each column on first use — the whole-width sink for code that is
    /// not view-aware.
    pub fn columns(&self) -> Cow<'_, [Column]> {
        match &self.sel {
            None => Cow::Borrowed(&self.columns),
            Some(_) => (0..self.columns.len())
                .map(|j| self.compacted_col(j).clone())
                .collect(),
        }
    }

    /// Visible column of an attribute by name. On a view, only this
    /// column is gathered (then cached) — the other base columns are left
    /// untouched, so single-attribute consumers of a wide view never pay
    /// for the payload they ignore.
    pub fn column(&self, name: &str) -> Result<&Column, RelationError> {
        let idx = self
            .schema
            .index_of(name)
            .ok_or_else(|| RelationError::UnknownAttribute(name.to_string()))?;
        Ok(match &self.sel {
            None => &self.columns[idx],
            Some(_) => self.compacted_col(idx),
        })
    }

    /// An owned handle to one visible column: O(1) Arc clone on compact
    /// relations, a cached single-column gather on views — this is what
    /// expression evaluation uses to touch only referenced attributes.
    pub fn column_shared(&self, name: &str) -> Result<Column, RelationError> {
        self.column(name).cloned()
    }

    /// Columns of several attributes, in the requested order (compacted).
    pub fn columns_of(&self, names: &[&str]) -> Result<Vec<&Column>, RelationError> {
        names.iter().map(|n| self.column(n)).collect()
    }

    /// One cell. Reads through the selection vector — no compaction.
    pub fn cell(&self, row: usize, attr: &str) -> Result<Value, RelationError> {
        let idx = self
            .schema
            .index_of(attr)
            .ok_or_else(|| RelationError::UnknownAttribute(attr.to_string()))?;
        Ok(self.columns[idx].get(self.base_index(row)))
    }

    /// One tuple as boxed values.
    pub fn row(&self, i: usize) -> Vec<Value> {
        let b = self.base_index(i);
        self.columns.iter().map(|c| c.get(b)).collect()
    }

    /// Iterate tuples as boxed values (edge use; bulk code works on columns).
    pub fn rows(&self) -> impl Iterator<Item = Vec<Value>> + '_ {
        (0..self.len()).map(move |i| self.row(i))
    }

    /// Gather rows by (visible) index, preserving schema and name. Lazy:
    /// the result is a view sharing this relation's base columns; indices
    /// compose, so stacking `take`s never builds chains.
    pub fn take(&self, idx: &[usize]) -> Relation {
        self.view(self.compose_positions(idx))
    }

    /// The contiguous visible row range `range` (one morsel of a row-range
    /// partitioned scan), preserving schema and name. Lazy: a range over a
    /// compact relation or a range view stays a range — a morsel is two
    /// words, not a copy.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Relation {
        let sel = match &self.sel {
            None => SelVec::Range(range),
            Some(sel) => sel.slice(range),
        };
        self.view(sel)
    }

    /// Keep rows whose flag is set. Lazy: builds a selection vector, not
    /// new columns.
    pub fn filter(&self, keep: &[bool]) -> Relation {
        debug_assert_eq!(keep.len(), self.len());
        let sel = match &self.sel {
            Some(sel) => sel.compose_mask(keep),
            None => SelVec::all(self.len()).compose_mask(keep),
        };
        self.view(sel)
    }

    /// Compact this relation: gather the visible rows of every column into
    /// fresh (well, possibly shared — a compact relation just recounts its
    /// Arcs) columns and drop the selection vector. Pipeline sinks call
    /// this once; everything upstream stays zero-copy.
    pub fn materialize(&self) -> Relation {
        match &self.sel {
            None => self.clone(),
            Some(_) => Relation::from_view_parts(
                self.name.clone(),
                self.schema.clone(),
                self.columns().into_owned(),
                None,
            ),
        }
    }

    /// Re-encode every column for storage: each column picks its best
    /// encoding (RLE / dictionary / bit-packing) from its statistics and
    /// keeps plain storage where compression does not pay
    /// ([`Column::encoded`]). Views are compacted first. This is the
    /// ingest-side encoding point — the serving catalog runs it when
    /// installing a table generation, so scans downstream read the
    /// compressed form.
    pub fn encoded(&self) -> Relation {
        let m = self.materialize();
        let stats = m.statistics();
        let columns: Vec<Column> = m
            .schema
            .names()
            .zip(m.columns.iter())
            .map(|(n, c)| c.encoded(stats.column(n)))
            .collect();
        let out = Relation::from_view_parts(m.name.clone(), m.schema.clone(), columns, None);
        // encoding preserves content, so the statistics just computed stay
        // valid — carrying them over also spares the optimizer a recompute
        // over the encoded forms
        let _ = out.stats.set(stats.clone());
        out
    }

    /// Concatenate partition results back into one relation. All parts
    /// must share the first part's schema exactly; the first part's
    /// name is kept. A single part is returned as it is; several are
    /// gathered directly into a compact output — the gather and the
    /// concatenation are one pass.
    pub fn concat(parts: &[Relation]) -> Result<Relation, RelationError> {
        let Some((first, rest)) = parts.split_first() else {
            return Err(RelationError::Expression(
                "concat of zero partitions".to_string(),
            ));
        };
        for part in rest {
            if part.schema != first.schema {
                return Err(RelationError::NotUnionCompatible);
            }
        }
        if rest.is_empty() {
            return Ok(first.clone());
        }
        let total: usize = parts.iter().map(Relation::len).sum();
        let mut columns: Vec<Column> = Vec::with_capacity(first.schema.len());
        for j in 0..first.schema.len() {
            let dt = first.schema.attributes()[j].dtype();
            let mut col = Column::new(rma_storage::ColumnData::with_capacity(dt, total));
            for part in parts {
                col.append_gather(&part.columns[j], part.sel.as_ref())?;
            }
            columns.push(col);
        }
        Ok(Relation::from_view_parts(
            first.name.clone(),
            first.schema.clone(),
            columns,
            None,
        ))
    }

    /// A new compact relation holding this relation's rows followed by
    /// `other`'s — the **next table generation** an INSERT prepares in the
    /// serving layer. The receiver is untouched (readers pinned to it keep
    /// their snapshot); the appended copy is built column-at-a-time via
    /// copy-on-write, and views on either side are gathered in the same
    /// pass. Schemas must match exactly.
    pub fn appended(&self, other: &Relation) -> Result<Relation, RelationError> {
        if other.schema != self.schema {
            return Err(RelationError::NotUnionCompatible);
        }
        let mut columns = Vec::with_capacity(self.schema.len());
        for j in 0..self.schema.len() {
            // zero-copy Arc share for a compact base, gather for a view
            let mut col = match &self.sel {
                None => self.columns[j].clone(),
                Some(sel) => self.columns[j].gather(sel),
            };
            col.append_gather(&other.columns[j], other.sel.as_ref())?;
            columns.push(col);
        }
        Ok(Relation::from_view_parts(
            self.name.clone(),
            self.schema.clone(),
            columns,
            None,
        ))
    }

    /// Do both relations share all base-column storage (`Arc` identity,
    /// pairwise)? True for clones and pinned snapshots of one generation;
    /// the serving-layer tests use this to prove snapshot pinning never
    /// copies data. Trivially true for zero-column relations.
    pub fn shares_columns_with(&self, other: &Relation) -> bool {
        self.columns.len() == other.columns.len()
            && self
                .columns
                .iter()
                .zip(&other.columns)
                .all(|(a, b)| a.shares_data_with(b))
    }

    /// The sort permutation of this relation under the given attributes
    /// (ascending, nulls first), i.e. the OID order of `r^{U,k}`.
    pub fn sort_permutation_by(&self, attrs: &[&str]) -> Result<Vec<usize>, RelationError> {
        let cols = self.columns_of(attrs)?;
        Ok(sort_permutation(&cols))
    }

    /// Materialise the relation sorted by the given attributes.
    pub fn sorted_by(&self, attrs: &[&str]) -> Result<Relation, RelationError> {
        let perm = self.sort_permutation_by(attrs)?;
        Ok(self.take(&perm))
    }

    /// Do the given attributes form a key?
    pub fn attrs_form_key(&self, attrs: &[&str]) -> Result<bool, RelationError> {
        if attrs.is_empty() {
            // the empty attribute set is a key only of relations with ≤1 row
            return Ok(self.len() <= 1);
        }
        let cols = self.columns_of(attrs)?;
        Ok(is_key(&cols))
    }

    /// Verify the key property, erroring if it does not hold (relational
    /// matrix operations require their order schema to be a key).
    pub fn require_key(&self, attrs: &[&str]) -> Result<(), RelationError> {
        if self.attrs_form_key(attrs)? {
            Ok(())
        } else {
            Err(RelationError::NotAKey(
                attrs.iter().map(|s| s.to_string()).collect(),
            ))
        }
    }

    /// Bag equality up to row order (two relations are equal as bags iff
    /// sorting all columns the same way yields identical columns). Intended
    /// for tests and assertions, not hot paths.
    pub fn bag_equals(&self, other: &Relation) -> bool {
        if self.schema != other.schema || self.len() != other.len() {
            return false;
        }
        let all: Vec<&str> = self.schema.names().collect();
        let a = match self.sorted_by(&all) {
            Ok(r) => r,
            Err(_) => return false,
        };
        let b = match other.sorted_by(&all) {
            Ok(r) => r,
            Err(_) => return false,
        };
        a.columns() == b.columns()
    }

    /// Replace the schema names wholesale (the rename operator ρ uses this).
    pub(crate) fn with_schema_unchecked(mut self, schema: Schema) -> Relation {
        debug_assert_eq!(schema.len(), self.schema.len());
        self.schema = schema;
        self
    }

    /// Attribute helper: the attributes of this relation as (name, type).
    pub fn attribute(&self, name: &str) -> Result<&Attribute, RelationError> {
        self.schema.attribute(name)
    }

    /// Table statistics of this relation (row count, per-column null count,
    /// distinct estimate, min/max), computed on first use and cached — a
    /// provider that keeps relations around serves repeated optimizer
    /// requests for free. Clones share the computed value.
    pub fn statistics(&self) -> &Statistics {
        self.stats.get_or_init(|| Statistics::compute(self))
    }
}

/// Rows shown before a rendered relation is truncated.
const DISPLAY_ROWS: usize = 20;

impl fmt::Display for Relation {
    /// Render an aligned ASCII table: header, separator, and up to
    /// `DISPLAY_ROWS` rows. Numeric columns are right-aligned, others
    /// left-aligned; longer relations end with a truncation note. Reads
    /// through the selection vector, so displaying a huge view stays cheap.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let shown = self.len().min(DISPLAY_ROWS);
        // materialise the displayed cells once to compute column widths
        let mut cells: Vec<Vec<String>> = Vec::with_capacity(self.schema.len());
        let mut widths: Vec<usize> = Vec::with_capacity(self.schema.len());
        for (attr, col) in self.schema.attributes().iter().zip(&self.columns) {
            let vals: Vec<String> = (0..shown)
                .map(|i| col.get(self.base_index(i)).to_string())
                .collect();
            let width = vals
                .iter()
                .map(String::len)
                .chain(std::iter::once(attr.name().len()))
                .max()
                .unwrap_or(0);
            widths.push(width);
            cells.push(vals);
        }
        let right_align: Vec<bool> = self
            .schema
            .attributes()
            .iter()
            .map(|a| a.dtype().is_numeric())
            .collect();
        let write_row =
            |f: &mut fmt::Formatter<'_>, fields: &mut dyn Iterator<Item = String>| -> fmt::Result {
                let mut first = true;
                for (j, field) in fields.enumerate() {
                    if !first {
                        write!(f, " | ")?;
                    }
                    first = false;
                    if right_align[j] {
                        write!(f, "{field:>width$}", width = widths[j])?;
                    } else {
                        write!(f, "{field:<width$}", width = widths[j])?;
                    }
                }
                writeln!(f)
            };
        write_row(f, &mut self.schema.names().map(str::to_string))?;
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        writeln!(f, "{}", sep.join("-+-"))?;
        for i in 0..shown {
            write_row(f, &mut cells.iter().map(|c| c[i].clone()))?;
        }
        if self.len() > shown {
            writeln!(
                f,
                "… {} more rows ({} total)",
                self.len() - shown,
                self.len()
            )?;
        }
        Ok(())
    }
}

/// Builder for constructing relations column by column.
#[derive(Debug, Default)]
pub struct RelationBuilder {
    name: Option<String>,
    attrs: Vec<Attribute>,
    columns: Vec<Column>,
}

impl RelationBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Add a named column; its data type is taken from the column.
    pub fn column(mut self, name: impl Into<String>, column: impl Into<Column>) -> Self {
        let column = column.into();
        self.attrs.push(Attribute::new(name, column.data_type()));
        self.columns.push(column);
        self
    }

    pub fn build(self) -> Result<Relation, RelationError> {
        let schema = Schema::new(self.attrs)?;
        let mut r = Relation::new(schema, self.columns)?;
        if let Some(n) = self.name {
            r = r.with_name(n);
        }
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rma_storage::DataType;

    /// The weather relation of the paper's Figure 2.
    pub(crate) fn weather() -> Relation {
        RelationBuilder::new()
            .name("r")
            .column("T", vec!["5am", "8am", "7am", "6am"])
            .column("H", vec![1.0f64, 8.0, 6.0, 1.0])
            .column("W", vec![3.0f64, 5.0, 7.0, 4.0])
            .build()
            .unwrap()
    }

    #[test]
    fn build_and_access() {
        let r = weather();
        assert_eq!(r.len(), 4);
        assert_eq!(r.schema().len(), 3);
        assert_eq!(r.cell(1, "H").unwrap(), Value::Float(8.0));
        assert_eq!(r.name(), Some("r"));
    }

    #[test]
    fn arity_and_type_checks() {
        let s = Schema::from_pairs(&[("a", DataType::Int)]).unwrap();
        assert!(matches!(
            Relation::new(s.clone(), vec![]),
            Err(RelationError::ArityMismatch { .. })
        ));
        assert!(matches!(
            Relation::new(s, vec![Column::from(vec![1.0f64])]),
            Err(RelationError::SchemaTypeMismatch { .. })
        ));
    }

    #[test]
    fn ragged_columns_rejected() {
        let s = Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)]).unwrap();
        let r = Relation::new(
            s,
            vec![Column::from(vec![1i64]), Column::from(vec![1i64, 2])],
        );
        assert!(matches!(r, Err(RelationError::RaggedColumns)));
    }

    #[test]
    fn from_rows_roundtrip() {
        let s = Schema::from_pairs(&[("u", DataType::Str), ("x", DataType::Float)]).unwrap();
        let r = Relation::from_rows(
            s,
            &[
                vec![Value::from("Ann"), Value::from(2.0)],
                vec![Value::from("Tom"), Value::from(0.0)],
            ],
        )
        .unwrap();
        assert_eq!(r.row(1), vec![Value::from("Tom"), Value::from(0.0)]);
    }

    #[test]
    fn sorted_by_matches_paper_example() {
        // Example 3.1: third tuple of r sorted by V... here: sort by T
        let r = weather();
        let s = r.sorted_by(&["T"]).unwrap();
        let ts: Vec<Value> = s.column("T").unwrap().iter_values().collect();
        assert_eq!(
            ts,
            vec![
                Value::from("5am"),
                Value::from("6am"),
                Value::from("7am"),
                Value::from("8am")
            ]
        );
    }

    #[test]
    fn key_checks() {
        let r = weather();
        assert!(r.attrs_form_key(&["T"]).unwrap());
        assert!(!r.attrs_form_key(&["H"]).unwrap()); // H has duplicate 1.0
        r.require_key(&["T"]).unwrap();
        assert!(matches!(
            r.require_key(&["H"]),
            Err(RelationError::NotAKey(_))
        ));
    }

    #[test]
    fn empty_attr_key_only_for_tiny_relations() {
        let r = weather();
        assert!(!r.attrs_form_key(&[]).unwrap());
        let one = r.take(&[0]);
        assert!(one.attrs_form_key(&[]).unwrap());
    }

    #[test]
    fn bag_equality_ignores_row_order() {
        let r = weather();
        let shuffled = r.take(&[2, 0, 3, 1]);
        assert!(r.bag_equals(&shuffled));
        let truncated = r.take(&[0, 1]);
        assert!(!r.bag_equals(&truncated));
    }

    #[test]
    fn take_and_filter_preserve_name() {
        let r = weather();
        assert_eq!(r.take(&[0]).name(), Some("r"));
        assert_eq!(r.filter(&[true, false, false, false]).name(), Some("r"));
    }

    #[test]
    fn take_and_filter_are_views() {
        let r = weather();
        let t = r.take(&[2, 0]);
        assert!(t.is_view());
        assert_eq!(t.len(), 2);
        assert_eq!(t.cell(0, "T").unwrap(), Value::from("7am"));
        let f = r.filter(&[true, false, true, false]);
        assert!(f.is_view());
        assert_eq!(f.len(), 2);
        assert_eq!(f.cell(1, "T").unwrap(), Value::from("7am"));
        // a view equals its materialization
        assert_eq!(f, f.materialize());
        assert!(!f.materialize().is_view());
    }

    #[test]
    fn views_compose_without_chaining() {
        let r = weather();
        let v = r
            .filter(&[true, true, true, false]) // rows 0,1,2
            .take(&[2, 1]) // rows 2,1
            .filter(&[true, false]); // row 2
        assert_eq!(v.len(), 1);
        assert_eq!(v.cell(0, "T").unwrap(), Value::from("7am"));
        // composed eagerly: the view indexes the original base directly
        assert_eq!(v.sel().unwrap().get(0), 2);
        assert_eq!(v.base_len(), 4);
    }

    #[test]
    fn slice_stays_a_range_view() {
        let r = weather();
        let s = r.slice(1..3);
        assert!(matches!(s.sel(), Some(SelVec::Range(rng)) if rng == &(1..3)));
        let s2 = s.slice(1..2);
        assert!(matches!(s2.sel(), Some(SelVec::Range(rng)) if rng == &(2..3)));
        assert_eq!(s2.cell(0, "T").unwrap(), Value::from("7am"));
        // full-range slice of a compact relation stays compact
        assert!(!r.slice(0..4).is_view());
    }

    #[test]
    fn compacting_accessor_matches_view() {
        let r = weather();
        let v = r.take(&[3, 1]);
        let cols = v.columns();
        assert_eq!(cols[0].len(), 2);
        assert_eq!(cols[0].get(0), Value::from("6am"));
        // the per-column cache serves the second call without a gather
        assert!(v.columns()[0].shares_data_with(&cols[0]));
        assert_eq!(v.columns()[0].get(1), Value::from("8am"));
        assert_eq!(v.column("T").unwrap().get(0), Value::from("6am"));
        assert_eq!(v.column_shared("H").unwrap().get(1), Value::Float(8.0));
    }

    #[test]
    fn concat_of_distinct_bases_gathers_compact() {
        let a = weather().filter(&[true, false, true, false]);
        let b = weather().slice(3..4);
        let c = Relation::concat(&[a, b]).unwrap();
        assert!(!c.is_view());
        assert_eq!(c.len(), 3);
        let ts: Vec<Value> = c.column("T").unwrap().iter_values().collect();
        assert_eq!(
            ts,
            vec![Value::from("5am"), Value::from("7am"), Value::from("6am")]
        );
    }

    #[test]
    fn appended_builds_next_generation_without_mutating_base() {
        let base = weather();
        let delta = RelationBuilder::new()
            .column("T", vec!["9am"])
            .column("H", vec![2.0f64])
            .column("W", vec![9.0f64])
            .build()
            .unwrap();
        let next = base.appended(&delta).unwrap();
        assert_eq!(base.len(), 4, "the base generation is untouched");
        assert_eq!(next.len(), 5);
        assert_eq!(next.name(), base.name());
        assert_eq!(next.column("T").unwrap().get(4), Value::from("9am"));
        // a view on either side is gathered in the same pass
        let view = base.filter(&[true, false, false, true]);
        let from_view = view.appended(&delta).unwrap();
        assert_eq!(from_view.len(), 3);
        assert!(!from_view.is_view());
        // schema mismatch is rejected
        let wrong = RelationBuilder::new()
            .column("T", vec!["9am"])
            .build()
            .unwrap();
        assert!(base.appended(&wrong).is_err());
    }

    #[test]
    fn clones_share_column_storage() {
        let r = weather();
        let snap = r.clone();
        assert!(r.shares_columns_with(&snap), "pinning must be zero-copy");
        let copied = r.appended(&weather().slice(0..0)).unwrap();
        // appending even zero rows copies-on-write the touched columns
        assert_eq!(copied.len(), 4);
    }

    #[test]
    fn display_renders_aligned_table() {
        let out = weather().to_string();
        let lines: Vec<&str> = out.lines().collect();
        // header padded to the widest cell of each column
        assert_eq!(lines[0], "T   | H | W");
        assert!(lines[1].chars().all(|c| c == '-' || c == '+'));
        // string column left-aligned, numeric columns right-aligned
        assert_eq!(lines[2], "5am | 1 | 3");
        // all rows shown: no truncation note
        assert_eq!(lines.len(), 2 + 4);
    }

    #[test]
    fn display_truncates_long_relations() {
        let n = 24usize;
        let r = RelationBuilder::new()
            .column("i", (0..n as i64).collect::<Vec<_>>())
            .column("x", (0..n).map(|i| i as f64).collect::<Vec<_>>())
            .build()
            .unwrap();
        let out = r.to_string();
        assert_eq!(out.lines().count(), 2 + 20 + 1);
        assert!(out.ends_with("… 4 more rows (24 total)\n"), "{out}");
    }
}
