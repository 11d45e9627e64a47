//! The versioned catalog: immutable roots, pinned snapshots, and the
//! first-committer-wins commit protocol.

use super::ServeError;
use crate::plan::TableProvider;
use rma_relation::Relation;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// One immutable generation of a named table: the `Arc`'d relation plus
/// the catalog version that installed it. Generations are never mutated —
/// a write installs a successor generation, and readers pinned to this one
/// keep it alive through the `Arc` for as long as their query runs.
#[derive(Debug, Clone)]
pub struct TableGeneration {
    rel: Arc<Relation>,
    gen: u64,
}

impl TableGeneration {
    /// The generation's relation (shared, immutable).
    pub fn relation(&self) -> &Arc<Relation> {
        &self.rel
    }

    /// The catalog version at which this generation was installed. This is
    /// the token a writer passes back to [`VersionedCatalog::commit`] to
    /// prove its delta was prepared against the current generation.
    pub fn generation(&self) -> u64 {
        self.gen
    }
}

/// An immutable catalog root: the full name → generation map at one
/// version. Roots are cheap to derive (cloning the map clones `Arc`s and
/// small strings, never table data) and never change after installation.
#[derive(Debug, Default)]
struct Root {
    version: u64,
    /// Keyed by lower-cased name (lookups are case-insensitive, matching
    /// the SQL layer); the stored relation keeps its display name.
    tables: HashMap<String, TableGeneration>,
}

/// The shared, versioned table store of the serving layer.
///
/// The catalog holds one current root (the versioned name → generation
/// map) behind a mutex that protects
/// only the `Arc` itself: [`VersionedCatalog::snapshot`] locks to clone
/// the `Arc` (a pin — O(1), no table data touched), writers lock to swap
/// in a successor root. Query execution never holds the lock, which is
/// what "readers never block on writers" means operationally: a reader's
/// only synchronisation is that one clone.
///
/// Writes follow MVCC-lite first-committer-wins: prepare a new generation
/// against a pinned snapshot, then [`VersionedCatalog::commit`] it with
/// the generation token observed at the pin. If another writer installed
/// a newer generation in between, the commit fails with
/// [`ServeError::WriteConflict`] and the writer re-prepares against a
/// fresh pin — the in-memory analogue of optimistic concurrency control.
#[derive(Debug, Default)]
pub struct VersionedCatalog {
    root: Mutex<Arc<Root>>,
}

impl VersionedCatalog {
    /// An empty catalog at version 0.
    pub fn new() -> Self {
        VersionedCatalog::default()
    }

    /// Pin the current root: the returned snapshot keeps every table
    /// generation it names alive and consistent for its whole lifetime,
    /// unaffected by concurrent commits. O(1) — one brief lock to clone an
    /// `Arc`.
    pub fn snapshot(&self) -> CatalogSnapshot {
        CatalogSnapshot {
            root: Arc::clone(&self.lock()),
        }
    }

    /// The current catalog version (advances by one per successful write).
    pub fn version(&self) -> u64 {
        self.lock().version
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Arc<Root>> {
        self.root.lock().expect("catalog root poisoned")
    }

    /// Install `next` as the successor root under the lock, applying `edit`
    /// to a fresh clone of the current map. Returns the new version.
    fn install(
        &self,
        edit: impl FnOnce(&Root, &mut HashMap<String, TableGeneration>, u64) -> Result<(), ServeError>,
    ) -> Result<u64, ServeError> {
        let mut guard = self.lock();
        let current = &**guard;
        let version = current.version + 1;
        let mut tables = current.tables.clone();
        edit(current, &mut tables, version)?;
        *guard = Arc::new(Root { version, tables });
        Ok(version)
    }

    /// Create a table; errors with [`ServeError::TableExists`] if the name
    /// is taken. Returns the new catalog version.
    pub fn create(&self, name: &str, rel: Relation) -> Result<u64, ServeError> {
        let key = name.to_ascii_lowercase();
        let named = rel.encoded().with_name(name);
        self.install(|_, tables, version| {
            if tables.contains_key(&key) {
                return Err(ServeError::TableExists(name.to_string()));
            }
            tables.insert(
                key,
                TableGeneration {
                    rel: Arc::new(named),
                    gen: version,
                },
            );
            Ok(())
        })
    }

    /// Create or overwrite a table unconditionally (SQL
    /// `CREATE OR REPLACE TABLE`). An overwrite is a generation bump like
    /// any other write: readers pinned to the old generation are
    /// untouched. Returns the new catalog version.
    pub fn create_or_replace(&self, name: &str, rel: Relation) -> u64 {
        let key = name.to_ascii_lowercase();
        let named = rel.encoded().with_name(name);
        self.install(|_, tables, version| {
            tables.insert(
                key,
                TableGeneration {
                    rel: Arc::new(named),
                    gen: version,
                },
            );
            Ok(())
        })
        .expect("unconditional replace cannot conflict")
    }

    /// Drop a table; errors with [`ServeError::NoSuchTable`] if absent. A
    /// drop is a generation bump of the *catalog* (pinned readers still see
    /// the table; the generation is freed when the last pin drops). Returns
    /// the new catalog version.
    pub fn drop_table(&self, name: &str) -> Result<u64, ServeError> {
        let key = name.to_ascii_lowercase();
        self.install(|_, tables, _| {
            if tables.remove(&key).is_none() {
                return Err(ServeError::NoSuchTable(name.to_string()));
            }
            Ok(())
        })
    }

    /// First-committer-wins installation of a prepared generation: succeeds
    /// only if the table's current generation still equals `expected` — the
    /// token the writer read from its pinned snapshot
    /// ([`CatalogSnapshot::generation`]) before preparing `rel`. On success
    /// the new generation is visible to every subsequent pin and the new
    /// catalog version is returned; on conflict nothing changes and the
    /// writer must re-prepare against a fresh snapshot.
    pub fn commit(&self, name: &str, expected: u64, rel: Relation) -> Result<u64, ServeError> {
        let key = name.to_ascii_lowercase();
        let named = rel.encoded().with_name(name);
        self.install(|_, tables, version| {
            let current = tables
                .get(&key)
                .ok_or_else(|| ServeError::NoSuchTable(name.to_string()))?;
            if current.gen != expected {
                return Err(ServeError::WriteConflict {
                    table: name.to_string(),
                    expected,
                    found: current.gen,
                });
            }
            tables.insert(
                key,
                TableGeneration {
                    rel: Arc::new(named),
                    gen: version,
                },
            );
            Ok(())
        })
    }
}

/// A pinned, immutable view of the catalog at one version — the table
/// source a query executes against. Cloning shares the pin. Implements
/// [`TableProvider`], so any [`Frame`](crate::Frame) /
/// [`LogicalPlan`](crate::LogicalPlan) query (and the SQL layer on top)
/// can resolve named scans through it; partitioned scans use the default
/// row-range partitioner.
#[derive(Debug, Clone)]
pub struct CatalogSnapshot {
    root: Arc<Root>,
}

impl CatalogSnapshot {
    /// The catalog version this snapshot pinned.
    pub fn version(&self) -> u64 {
        self.root.version
    }

    /// The pinned generation of a table (case-insensitive), if present.
    pub fn get(&self, name: &str) -> Option<&TableGeneration> {
        self.root.tables.get(&name.to_ascii_lowercase())
    }

    /// The generation token of a table — what a writer passes to
    /// [`VersionedCatalog::commit`] after preparing a successor from this
    /// snapshot.
    pub fn generation(&self, name: &str) -> Option<u64> {
        self.get(name).map(TableGeneration::generation)
    }

    /// The pinned relation of a table, shared (`Arc` clone, zero-copy).
    pub fn table_arc(&self, name: &str) -> Option<Arc<Relation>> {
        self.get(name).map(|g| Arc::clone(&g.rel))
    }

    /// Does the snapshot hold a table of this name?
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// All table names in the snapshot (sorted, for deterministic output).
    pub fn table_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.root.tables.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }
}

impl TableProvider for CatalogSnapshot {
    fn table(&self, name: &str) -> Option<&Relation> {
        self.get(name).map(|g| &*g.rel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rma_relation::RelationBuilder;

    fn rel(xs: Vec<i64>) -> Relation {
        RelationBuilder::new().column("x", xs).build().unwrap()
    }

    #[test]
    fn create_lookup_case_insensitive_and_duplicate_rejected() {
        let cat = VersionedCatalog::new();
        cat.create("Trips", rel(vec![1])).unwrap();
        let snap = cat.snapshot();
        assert!(snap.contains("trips"));
        assert!(snap.contains("TRIPS"));
        assert_eq!(snap.table("trips").unwrap().name(), Some("Trips"));
        assert!(matches!(
            cat.create("TRIPS", rel(vec![2])),
            Err(ServeError::TableExists(_))
        ));
    }

    #[test]
    fn snapshot_pins_generation_across_writes() {
        let cat = VersionedCatalog::new();
        cat.create("t", rel(vec![1, 2])).unwrap();
        let pinned = cat.snapshot();
        // writer installs two successor generations and a drop
        let g = pinned.generation("t").unwrap();
        cat.commit("t", g, rel(vec![1, 2, 3])).unwrap();
        cat.create_or_replace("t", rel(vec![9]));
        cat.drop_table("t").unwrap();
        // the pin still sees the original rows, zero-copy
        assert_eq!(pinned.table("t").unwrap().len(), 2);
        let fresh = cat.snapshot();
        assert!(!fresh.contains("t"));
        assert!(fresh.version() > pinned.version());
    }

    #[test]
    fn snapshot_pin_is_zero_copy() {
        let cat = VersionedCatalog::new();
        cat.create("t", rel(vec![1, 2, 3])).unwrap();
        let a = cat.snapshot();
        let b = cat.snapshot();
        assert!(a
            .table("t")
            .unwrap()
            .shares_columns_with(b.table("t").unwrap()));
    }

    #[test]
    fn first_committer_wins() {
        let cat = VersionedCatalog::new();
        cat.create("t", rel(vec![1])).unwrap();
        let snap = cat.snapshot();
        let g = snap.generation("t").unwrap();
        // writer A prepares and commits first
        let base = snap.table("t").unwrap();
        let a = base.appended(&rel(vec![10])).unwrap();
        cat.commit("t", g, a).unwrap();
        // writer B prepared against the same generation: must conflict
        let b = base.appended(&rel(vec![20])).unwrap();
        let err = cat.commit("t", g, b).unwrap_err();
        assert!(
            matches!(err, ServeError::WriteConflict { expected, found, .. }
            if expected == g && found > g)
        );
        // B retries against a fresh pin and succeeds
        let snap2 = cat.snapshot();
        let b2 = snap2.table("t").unwrap().appended(&rel(vec![20])).unwrap();
        cat.commit("t", snap2.generation("t").unwrap(), b2).unwrap();
        let final_rows = cat.snapshot().table("t").unwrap().len();
        assert_eq!(final_rows, 3, "both writers' rows survive, in commit order");
    }

    #[test]
    fn drop_missing_and_commit_missing_error() {
        let cat = VersionedCatalog::new();
        assert!(matches!(
            cat.drop_table("nope"),
            Err(ServeError::NoSuchTable(_))
        ));
        assert!(matches!(
            cat.commit("nope", 0, rel(vec![1])),
            Err(ServeError::NoSuchTable(_))
        ));
    }

    #[test]
    fn version_advances_per_write() {
        let cat = VersionedCatalog::new();
        assert_eq!(cat.version(), 0);
        cat.create("a", rel(vec![1])).unwrap();
        assert_eq!(cat.version(), 1);
        cat.create_or_replace("a", rel(vec![2]));
        assert_eq!(cat.version(), 2);
        // failed writes do not advance the version
        let _ = cat.create("a", rel(vec![3]));
        assert_eq!(cat.version(), 2);
        assert_eq!(cat.snapshot().table_names(), vec!["a"]);
    }
}
