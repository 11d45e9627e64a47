//! Out-of-core spill manager: temp-file lifecycle plus a chunked columnar
//! serialization of relations, used by the grace hash join, the external
//! sort, and the spilling aggregate (see [`crate::algebra`]'s external
//! operators).
//!
//! ## File format
//!
//! A spill file is a sequence of self-describing **chunks**. Each chunk is
//! one materialized slice of a relation:
//!
//! ```text
//! chunk := rows:u64  cols:u64  column*
//! column := tag:u8  has_nulls:u8  payload  [null-bitmap]
//! ```
//!
//! Plain payloads (tags 0–4) are little-endian fixed-width vectors for
//! `Int`/`Float` (8 bytes), `Date` (4 bytes) and `Bool` (1 byte); strings
//! are length-prefixed (`u32` + UTF-8 bytes). Encoded columns keep their
//! physical form (tags 5–8): RLE ints and floats as run/dense segments, a
//! dictionary as its value table then its codes, bit-packed ints as frame
//! minimum, width and words. The null bitmap, when present, is
//! `ceil(rows/8)` packed bytes. Column order and attribute names come
//! from the schema the reader supplies — the file stores only typed data,
//! which keeps partitions of one relation byte-compatible with each other.
//!
//! ## Lifecycle and governance
//!
//! Files live in the system temp directory and are **removed on `Drop`**,
//! including every error path — a query that trips mid-spill releases its
//! disk as the operator's `SpillFile`s unwind. [`live_spill_files`] counts
//! files currently on disk so tests can assert no orphans remain.
//!
//! Every chunk write polls the active [`QueryGuard`](crate::par::QueryGuard)
//! (so cancellation and deadlines stop a spilling query within one chunk's
//! work), runs the spill-I/O fault hook (`RMA_FAULT=io@N`), and records the
//! bytes written through [`QueryGuard::record_spill`](crate::par::QueryGuard::record_spill).
//! Spilled bytes are *disk* footprint: they are never charged against the
//! memory budget — that is the whole point of spilling.

use crate::error::RelationError;
use crate::par::current_guard;
use crate::relation::Relation;
use crate::schema::Schema;
use rma_storage::{Bitmap, Column, ColumnData, Dict, Packed, Rle, Seg};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Rows per serialized chunk: large enough to amortize the per-chunk
/// header and syscalls, small enough that one chunk's materialization stays
/// a fraction of any realistic budget.
pub const SPILL_CHUNK_ROWS: usize = 16 * 1024;

/// Live spill files on disk (created minus removed). The fault-injection
/// and governor tests assert this returns to its baseline after every
/// query — spilling must never leak temp files, even on error paths.
static LIVE_FILES: AtomicUsize = AtomicUsize::new(0);

/// Monotonic id so concurrent spill files never collide.
static NEXT_ID: AtomicU64 = AtomicU64::new(0);

/// Spill files currently on disk, process-wide.
pub fn live_spill_files() -> usize {
    LIVE_FILES.load(Ordering::SeqCst)
}

/// Serialises the unit tests that create spill files: they assert
/// [`live_spill_files`] against a baseline, and the counter is
/// process-global, so a sibling test spilling concurrently breaks them.
#[cfg(test)]
pub(crate) fn spill_test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // a poisoned lock only means another spill test failed
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn io_err(e: std::io::Error) -> RelationError {
    RelationError::SpillIo(e.to_string())
}

/// One temp file of chunked columnar rows. Created empty, appended to
/// chunk-by-chunk, then read back either wholesale ([`SpillFile::read_all`])
/// or streamed ([`SpillFile::reader`]). Removed from disk on `Drop`.
#[derive(Debug)]
pub struct SpillFile {
    path: PathBuf,
    writer: Option<BufWriter<File>>,
    rows: usize,
    bytes: u64,
    chunks: u64,
}

impl SpillFile {
    /// Create an empty spill file in the system temp directory.
    pub fn create() -> Result<Self, RelationError> {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("rma-spill-{}-{id}.col", std::process::id()));
        let file = File::create(&path).map_err(io_err)?;
        LIVE_FILES.fetch_add(1, Ordering::SeqCst);
        Ok(SpillFile {
            path,
            writer: Some(BufWriter::new(file)),
            rows: 0,
            bytes: 0,
            chunks: 0,
        })
    }

    /// Rows appended so far.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Serialized bytes written so far — the partition's disk footprint,
    /// also the operator's estimate of its in-memory size when read back.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Append one chunk (a view is materialized first). Polls the active
    /// guard — a cancelled or expired query stops here, and the armed
    /// spill-I/O fault (`RMA_FAULT=io@N`) fails the matching write with
    /// [`RelationError::SpillIo`]. Records bytes (and, on the first chunk,
    /// one partition) on the guard's spill counters.
    pub fn append(&mut self, chunk: &Relation) -> Result<(), RelationError> {
        let guard = current_guard();
        if let Some(g) = &guard {
            g.check()?;
            if g.fault_spill_write() {
                return Err(RelationError::SpillIo(
                    "injected spill I/O fault".to_string(),
                ));
            }
        }
        let m = chunk.materialize();
        let buf = encode_chunk(&m);
        let w = self
            .writer
            .as_mut()
            .ok_or_else(|| RelationError::SpillIo("spill file already finished".to_string()))?;
        w.write_all(&buf).map_err(io_err)?;
        // flush per chunk so readers never see a short file — chunks are
        // large, so the buffered tail is noise
        w.flush().map_err(io_err)?;
        if let Some(g) = &guard {
            g.record_spill(buf.len() as u64, u64::from(self.chunks == 0));
        }
        self.bytes += buf.len() as u64;
        self.rows += m.len();
        self.chunks += 1;
        Ok(())
    }

    /// Flush and close the write handle. Idempotent; reading does not
    /// require it, but operators call it at the end of their write phase
    /// so buffered bytes hit the disk before the merge/probe phase.
    pub fn finish(&mut self) -> Result<(), RelationError> {
        if let Some(mut w) = self.writer.take() {
            w.flush().map_err(io_err)?;
        }
        Ok(())
    }

    /// Stream the chunks back. The supplied schema names and types the
    /// columns (it must be the schema of the relation the chunks came
    /// from).
    pub fn reader(&self, schema: &Schema) -> Result<SpillReader, RelationError> {
        let file = File::open(&self.path).map_err(io_err)?;
        Ok(SpillReader {
            inner: BufReader::new(file),
            schema: schema.clone(),
            chunks_left: self.chunks,
        })
    }

    /// Read the whole file back as one relation (grace-join partitions are
    /// consumed wholesale; runs of the external sort stream instead).
    pub fn read_all(&self, schema: &Schema) -> Result<Relation, RelationError> {
        let mut r = self.reader(schema)?;
        let mut parts = Vec::new();
        while let Some(chunk) = r.next_chunk()? {
            parts.push(chunk);
        }
        if parts.is_empty() {
            return empty_relation(schema);
        }
        Relation::concat(&parts)
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        self.writer = None; // close before unlink (Windows-style hygiene)
        let _ = std::fs::remove_file(&self.path);
        LIVE_FILES.fetch_sub(1, Ordering::SeqCst);
    }
}

/// An empty relation with the given schema.
fn empty_relation(schema: &Schema) -> Result<Relation, RelationError> {
    let cols = schema
        .attributes()
        .iter()
        .map(|a| Column::new(ColumnData::empty(a.dtype())))
        .collect();
    Relation::new(schema.clone(), cols)
}

/// Chunk-at-a-time reader over one spill file.
#[derive(Debug)]
pub struct SpillReader {
    inner: BufReader<File>,
    schema: Schema,
    chunks_left: u64,
}

impl SpillReader {
    /// The next chunk, or `None` after the last. Polls the active guard so
    /// cancellation during the read-back (merge/probe) phase surfaces
    /// within one chunk's work.
    pub fn next_chunk(&mut self) -> Result<Option<Relation>, RelationError> {
        if self.chunks_left == 0 {
            return Ok(None);
        }
        if let Some(g) = current_guard() {
            g.check()?;
        }
        self.chunks_left -= 1;
        let chunk = decode_chunk(&mut self.inner, &self.schema)?;
        Ok(Some(chunk))
    }
}

// ---------------------------------------------------------------------
// chunk encoding
// ---------------------------------------------------------------------

const TAG_INT: u8 = 0;
const TAG_FLOAT: u8 = 1;
const TAG_STR: u8 = 2;
const TAG_BOOL: u8 = 3;
const TAG_DATE: u8 = 4;
// encoded forms spill as-is: compressed on disk, compressed when read back
const TAG_RLE_INT: u8 = 5;
const TAG_RLE_FLOAT: u8 = 6;
const TAG_DICT_STR: u8 = 7;
const TAG_PACKED_INT: u8 = 8;

fn encode_chunk(r: &Relation) -> Vec<u8> {
    let rows = r.len();
    let cols = r.base_columns();
    // rough pre-size: fixed-width cells + headers
    let mut buf = Vec::with_capacity(16 + cols.len() * (2 + rows * 8));
    buf.extend_from_slice(&(rows as u64).to_le_bytes());
    buf.extend_from_slice(&(cols.len() as u64).to_le_bytes());
    for c in cols {
        encode_column(&mut buf, c, rows);
    }
    buf
}

fn push_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn encode_rle<T: Copy>(buf: &mut Vec<u8>, segs: &[Seg<T>], cell: impl Fn(&mut Vec<u8>, T)) {
    buf.extend_from_slice(&(segs.len() as u64).to_le_bytes());
    for s in segs {
        match s {
            Seg::Run { value, len } => {
                buf.push(0);
                cell(buf, *value);
                buf.extend_from_slice(&(*len as u64).to_le_bytes());
            }
            Seg::Dense(v) => {
                buf.push(1);
                buf.extend_from_slice(&(v.len() as u64).to_le_bytes());
                for &x in v {
                    cell(buf, x);
                }
            }
        }
    }
}

fn encode_column(buf: &mut Vec<u8>, c: &Column, rows: usize) {
    let has_nulls = c.has_nulls();
    match c.raw() {
        // encoded columns spill in their physical form — no decode sink,
        // and the compression carries through to disk
        ColumnData::RleInt(r) => {
            buf.push(TAG_RLE_INT);
            buf.push(u8::from(has_nulls));
            encode_rle(buf, r.segs(), |b, x: i64| {
                b.extend_from_slice(&x.to_le_bytes())
            });
        }
        ColumnData::RleFloat(r) => {
            buf.push(TAG_RLE_FLOAT);
            buf.push(u8::from(has_nulls));
            encode_rle(buf, r.segs(), |b, x: f64| {
                b.extend_from_slice(&x.to_le_bytes())
            });
        }
        ColumnData::DictStr(d) => {
            buf.push(TAG_DICT_STR);
            buf.push(u8::from(has_nulls));
            buf.extend_from_slice(&(d.values().len() as u64).to_le_bytes());
            for s in d.values().iter() {
                push_str(buf, s);
            }
            for &code in d.codes() {
                buf.extend_from_slice(&code.to_le_bytes());
            }
        }
        ColumnData::PackedInt(p) => {
            buf.push(TAG_PACKED_INT);
            buf.push(u8::from(has_nulls));
            buf.extend_from_slice(&p.min().to_le_bytes());
            buf.extend_from_slice(&p.width().to_le_bytes());
            buf.extend_from_slice(&(p.words().len() as u64).to_le_bytes());
            for w in p.words() {
                buf.extend_from_slice(&w.to_le_bytes());
            }
        }
        ColumnData::Int(v) => {
            buf.push(TAG_INT);
            buf.push(u8::from(has_nulls));
            for x in v {
                buf.extend_from_slice(&x.to_le_bytes());
            }
        }
        ColumnData::Float(v) => {
            buf.push(TAG_FLOAT);
            buf.push(u8::from(has_nulls));
            for x in v {
                buf.extend_from_slice(&x.to_le_bytes());
            }
        }
        ColumnData::Str(v) => {
            buf.push(TAG_STR);
            buf.push(u8::from(has_nulls));
            for s in v {
                push_str(buf, s);
            }
        }
        ColumnData::Bool(v) => {
            buf.push(TAG_BOOL);
            buf.push(u8::from(has_nulls));
            for &x in v {
                buf.push(u8::from(x));
            }
        }
        ColumnData::Date(v) => {
            buf.push(TAG_DATE);
            buf.push(u8::from(has_nulls));
            for x in v {
                buf.extend_from_slice(&x.to_le_bytes());
            }
        }
        // an encoding this writer doesn't know: fall back to the decoded
        // plain form (an explicit sink) rather than corrupt the file
        _ => {
            let plain = match c.nulls() {
                Some(b) => Column::with_nulls(c.decoded().into_owned(), b.clone())
                    .expect("decoded data matches bitmap length"),
                None => Column::new(c.decoded().into_owned()),
            };
            return encode_column(buf, &plain, rows);
        }
    }
    if has_nulls {
        // pack the bitmap LSB-first, 8 rows per byte
        let mut byte = 0u8;
        let mut filled = 0u8;
        for i in 0..rows {
            if c.is_null(i) {
                byte |= 1 << filled;
            }
            filled += 1;
            if filled == 8 {
                buf.push(byte);
                byte = 0;
                filled = 0;
            }
        }
        if filled > 0 {
            buf.push(byte);
        }
    }
}

fn read_exact(r: &mut impl Read, n: usize) -> Result<Vec<u8>, RelationError> {
    let mut buf = vec![0u8; n];
    r.read_exact(&mut buf).map_err(io_err)?;
    Ok(buf)
}

fn read_u64(r: &mut impl Read) -> Result<u64, RelationError> {
    let b = read_exact(r, 8)?;
    Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
}

fn read_str(r: &mut impl Read) -> Result<String, RelationError> {
    let len = u32::from_le_bytes(read_exact(r, 4)?.try_into().expect("4 bytes")) as usize;
    let bytes = read_exact(r, len)?;
    String::from_utf8(bytes)
        .map_err(|e| RelationError::SpillIo(format!("corrupt spill string: {e}")))
}

fn decode_rle<T: rma_storage::encoding::RleValue>(
    r: &mut impl Read,
    rows: usize,
    cell: impl Fn(Vec<u8>) -> T,
) -> Result<Rle<T>, RelationError> {
    let nsegs = read_u64(r)? as usize;
    let mut segs = Vec::with_capacity(nsegs);
    let mut total = 0usize;
    for _ in 0..nsegs {
        let kind = read_exact(r, 1)?[0];
        match kind {
            0 => {
                let value = cell(read_exact(r, 8)?);
                let len = read_u64(r)? as usize;
                total += len;
                segs.push(Seg::Run { value, len });
            }
            1 => {
                let n = read_u64(r)? as usize;
                if n > rows {
                    return Err(RelationError::SpillIo(
                        "corrupt spill chunk: RLE dense segment too long".to_string(),
                    ));
                }
                let mut v = Vec::with_capacity(n);
                for _ in 0..n {
                    v.push(cell(read_exact(r, 8)?));
                }
                total += n;
                segs.push(Seg::Dense(v));
            }
            other => {
                return Err(RelationError::SpillIo(format!(
                    "corrupt spill chunk: unknown RLE segment kind {other}"
                )))
            }
        }
    }
    if total != rows {
        return Err(RelationError::SpillIo(format!(
            "corrupt spill chunk: RLE rows {total}, chunk has {rows}"
        )));
    }
    Ok(Rle::from_segs(segs, rows))
}

fn decode_chunk(r: &mut impl Read, schema: &Schema) -> Result<Relation, RelationError> {
    let rows = read_u64(r)? as usize;
    let ncols = read_u64(r)? as usize;
    if ncols != schema.len() {
        return Err(RelationError::SpillIo(format!(
            "corrupt spill chunk: {ncols} columns, schema has {}",
            schema.len()
        )));
    }
    let mut cols = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        cols.push(decode_column(r, rows)?);
    }
    Relation::new(schema.clone(), cols)
}

fn decode_column(r: &mut impl Read, rows: usize) -> Result<Column, RelationError> {
    let head = read_exact(r, 2)?;
    let (tag, has_nulls) = (head[0], head[1] != 0);
    let data =
        match tag {
            TAG_INT => {
                let raw = read_exact(r, rows * 8)?;
                ColumnData::Int(
                    raw.chunks_exact(8)
                        .map(|b| i64::from_le_bytes(b.try_into().expect("8 bytes")))
                        .collect(),
                )
            }
            TAG_FLOAT => {
                let raw = read_exact(r, rows * 8)?;
                ColumnData::Float(
                    raw.chunks_exact(8)
                        .map(|b| f64::from_le_bytes(b.try_into().expect("8 bytes")))
                        .collect(),
                )
            }
            TAG_STR => {
                let mut v = Vec::with_capacity(rows);
                for _ in 0..rows {
                    let len =
                        u32::from_le_bytes(read_exact(r, 4)?.try_into().expect("4 bytes")) as usize;
                    let bytes = read_exact(r, len)?;
                    v.push(String::from_utf8(bytes).map_err(|e| {
                        RelationError::SpillIo(format!("corrupt spill string: {e}"))
                    })?);
                }
                ColumnData::Str(v)
            }
            TAG_BOOL => {
                let raw = read_exact(r, rows)?;
                ColumnData::Bool(raw.into_iter().map(|b| b != 0).collect())
            }
            TAG_DATE => {
                let raw = read_exact(r, rows * 4)?;
                ColumnData::Date(
                    raw.chunks_exact(4)
                        .map(|b| i32::from_le_bytes(b.try_into().expect("4 bytes")))
                        .collect(),
                )
            }
            TAG_RLE_INT => ColumnData::RleInt(decode_rle(r, rows, |b| {
                i64::from_le_bytes(b.try_into().expect("8 bytes"))
            })?),
            TAG_RLE_FLOAT => ColumnData::RleFloat(decode_rle(r, rows, |b| {
                f64::from_le_bytes(b.try_into().expect("8 bytes"))
            })?),
            TAG_DICT_STR => {
                let ntable = read_u64(r)? as usize;
                let mut table = Vec::with_capacity(ntable);
                for _ in 0..ntable {
                    table.push(read_str(r)?);
                }
                let raw = read_exact(r, rows * 4)?;
                let codes: Vec<u32> = raw
                    .chunks_exact(4)
                    .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
                    .collect();
                if codes.iter().any(|&c| (c as usize) >= ntable.max(1)) {
                    return Err(RelationError::SpillIo(
                        "corrupt spill chunk: dictionary code out of range".to_string(),
                    ));
                }
                ColumnData::DictStr(Dict::from_parts(std::sync::Arc::new(table), codes))
            }
            TAG_PACKED_INT => {
                let min = i64::from_le_bytes(read_exact(r, 8)?.try_into().expect("8 bytes"));
                let width = u32::from_le_bytes(read_exact(r, 4)?.try_into().expect("4 bytes"));
                let nwords = read_u64(r)? as usize;
                if width >= 64 || (nwords as u64) * 64 < rows as u64 * u64::from(width) {
                    return Err(RelationError::SpillIo(
                        "corrupt spill chunk: bad packed geometry".to_string(),
                    ));
                }
                let raw = read_exact(r, nwords * 8)?;
                let words: Vec<u64> = raw
                    .chunks_exact(8)
                    .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
                    .collect();
                ColumnData::PackedInt(Packed::from_parts(min, width, rows, words))
            }
            other => {
                return Err(RelationError::SpillIo(format!(
                    "corrupt spill chunk: unknown column tag {other}"
                )))
            }
        };
    if !has_nulls {
        return Ok(Column::new(data));
    }
    let raw = read_exact(r, rows.div_ceil(8))?;
    let mut bitmap = Bitmap::new(rows);
    for i in 0..rows {
        if raw[i / 8] & (1 << (i % 8)) != 0 {
            bitmap.set(i);
        }
    }
    Ok(Column::with_nulls(data, bitmap)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::RelationBuilder;
    use rma_storage::DataType;

    fn mixed(n: usize) -> Relation {
        let ints: Vec<i64> = (0..n as i64).collect();
        let floats: Vec<f64> = (0..n).map(|i| i as f64 / 3.0).collect();
        let strs: Vec<String> = (0..n).map(|i| format!("s{i}")).collect();
        let base = RelationBuilder::new()
            .name("mixed")
            .column("i", ints)
            .column("f", floats)
            .column("s", strs)
            .build()
            .unwrap();
        // add a nullable column
        let vals: Vec<i64> = (0..n as i64).collect();
        let mask: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
        let nullable =
            Column::with_nulls(ColumnData::Int(vals), Bitmap::from_bools(&mask)).unwrap();
        let mut attrs = base.schema().attributes().to_vec();
        attrs.push(crate::schema::Attribute::new("v", DataType::Int));
        let mut cols = base.columns().into_owned();
        cols.push(nullable);
        Relation::new(Schema::new(attrs).unwrap(), cols).unwrap()
    }

    #[test]
    fn roundtrip_whole_and_chunked() {
        let _serial = spill_test_guard();
        let r = mixed(1000);
        let baseline = live_spill_files();
        {
            let mut f = SpillFile::create().unwrap();
            f.append(&r.slice(0..400)).unwrap();
            f.append(&r.slice(400..1000)).unwrap();
            f.finish().unwrap();
            assert_eq!(f.rows(), 1000);
            assert!(f.bytes() > 0);
            let back = f.read_all(r.schema()).unwrap();
            assert_eq!(back, r.materialize());
            // chunked read sees the same rows in order
            let mut rd = f.reader(r.schema()).unwrap();
            let c1 = rd.next_chunk().unwrap().unwrap();
            assert_eq!(c1.len(), 400);
            let c2 = rd.next_chunk().unwrap().unwrap();
            assert_eq!(c2.len(), 600);
            assert!(rd.next_chunk().unwrap().is_none());
            assert_eq!(live_spill_files(), baseline + 1);
        }
        assert_eq!(live_spill_files(), baseline, "Drop must unlink the file");
    }

    #[test]
    fn roundtrip_of_a_view_materializes() {
        let _serial = spill_test_guard();
        let r = mixed(100);
        let view = r.take(&[5, 3, 99, 0]);
        let mut f = SpillFile::create().unwrap();
        f.append(&view).unwrap();
        let back = f.read_all(view.schema()).unwrap();
        assert_eq!(back, view.materialize());
    }

    /// Encoded columns spill in their physical form and come back encoded:
    /// no decode sink on the write side, and the reader reconstructs the
    /// same runs/codes/packing rather than plain vectors.
    #[test]
    fn roundtrip_preserves_encodings_without_sinking() {
        let _serial = spill_test_guard();
        use rma_storage::Encoding;
        let n = 4096usize;
        let r = RelationBuilder::new()
            .column(
                "region",
                (0..n)
                    .map(|i| ["aa", "bb", "cc"][(i / 512) % 3])
                    .collect::<Vec<&str>>(),
            )
            .column(
                "status",
                (0..n as i64).map(|i| i / 256).collect::<Vec<i64>>(),
            )
            .column("qty", (0..n as i64).map(|i| i % 100).collect::<Vec<i64>>())
            .column(
                "amount",
                (0..n).map(|i| ((i / 128) % 7) as f64).collect::<Vec<f64>>(),
            )
            .build()
            .unwrap()
            .encoded();
        let expect: Vec<Encoding> = r.columns().iter().map(|c| c.encoding()).collect();
        assert!(
            expect.iter().any(|e| *e != Encoding::Plain),
            "workload failed to encode: {expect:?}"
        );
        let sinks0 = rma_storage::decode_sink_events();
        let mut f = SpillFile::create().unwrap();
        // a compact chunk spills every physical form as-is; a sliced view
        // exercises the run/code slicing path on the way in
        f.append(&r).unwrap();
        f.append(&r.slice(0..300)).unwrap();
        f.finish().unwrap();
        let mut rd = f.reader(r.schema()).unwrap();
        let mut chunks = Vec::new();
        while let Some(c) = rd.next_chunk().unwrap() {
            chunks.push(c);
        }
        assert_eq!(
            rma_storage::decode_sink_events(),
            sinks0,
            "spilling encoded chunks must not force a decode"
        );
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0], r);
        assert_eq!(chunks[1], r.slice(0..300));
        let got: Vec<Encoding> = chunks[0].columns().iter().map(|c| c.encoding()).collect();
        assert_eq!(got, expect, "encodings must survive the disk round-trip");
    }

    #[test]
    fn empty_file_reads_empty_relation() {
        let _serial = spill_test_guard();
        let r = mixed(4);
        let f = SpillFile::create().unwrap();
        let back = f.read_all(r.schema()).unwrap();
        assert_eq!(back.len(), 0);
        assert_eq!(back.schema(), r.schema());
    }
}
