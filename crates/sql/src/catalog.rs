//! Named-relation catalog, rebased onto the serving layer's versioned
//! store.
//!
//! The SQL layer's `Catalog` is now a *pinned view* of a shared
//! [`VersionedCatalog`]: reads resolve against the pin (an immutable
//! snapshot, so a running statement is never affected by concurrent
//! commits), writes go through the versioned store (every `CREATE`/`PUT`/
//! `DROP` is a generation bump, never in-place mutation) and re-pin. A
//! private engine owns its own store; engines attached to one
//! [`Server`](rma_core::Server) share the server's, which is how many SQL
//! sessions serve one database concurrently.

use crate::error::SqlError;
use rma_core::plan::TableProvider;
use rma_core::serve::{CatalogSnapshot, VersionedCatalog};
use rma_relation::Relation;
use std::sync::Arc;

/// A case-insensitive map from table names to relations: a pinned snapshot
/// of a (possibly shared) versioned table store.
#[derive(Debug)]
pub struct Catalog {
    shared: Arc<VersionedCatalog>,
    pin: CatalogSnapshot,
}

impl Default for Catalog {
    fn default() -> Self {
        Catalog::attached(Arc::new(VersionedCatalog::new()))
    }
}

impl Catalog {
    /// A catalog over a fresh private store.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// A catalog view onto an existing shared store, pinned at its current
    /// version.
    pub fn attached(shared: Arc<VersionedCatalog>) -> Self {
        let pin = shared.snapshot();
        Catalog { shared, pin }
    }

    /// The underlying versioned store (shared with every attached view).
    pub fn shared(&self) -> &Arc<VersionedCatalog> {
        &self.shared
    }

    /// Re-pin at the store's current version, making commits from other
    /// sessions visible. The engine calls this at each statement boundary —
    /// within a statement the pin (and thus the visible database state) is
    /// frozen.
    pub fn refresh(&mut self) {
        self.pin = self.shared.snapshot();
    }

    /// The current pin (cheap clone; keeps its tables alive independently).
    pub fn snapshot(&self) -> CatalogSnapshot {
        self.pin.clone()
    }

    /// Register a relation under a name (the relation is renamed to match,
    /// so (1,1)-shaped RMA results carry the right row origin). Errors if
    /// the name is taken — `put` replaces instead.
    pub fn register(&mut self, name: &str, relation: Relation) -> Result<(), SqlError> {
        self.shared.create(name, relation)?;
        self.refresh();
        Ok(())
    }

    /// Replace or insert a relation (a generation bump either way).
    pub fn put(&mut self, name: &str, relation: Relation) {
        self.shared.create_or_replace(name, relation);
        self.refresh();
    }

    /// Resolve a table against the pin.
    pub fn get(&self, name: &str) -> Option<&Relation> {
        self.pin.table(name)
    }

    /// Drop a table from the store, returning the pinned relation it held
    /// (readers pinned elsewhere keep their view — a drop is a catalog
    /// generation bump, not destruction of data).
    pub fn remove(&mut self, name: &str) -> Option<Relation> {
        let old = self.shared.snapshot().table_arc(name)?;
        self.shared
            .drop_table(name)
            .expect("table pinned above cannot vanish: drops are serialized through the store");
        self.refresh();
        Some((*old).clone())
    }

    pub fn contains(&self, name: &str) -> bool {
        self.pin.contains(name)
    }

    /// Iterate table names (sorted, for deterministic output).
    pub fn table_names(&self) -> Vec<&str> {
        self.pin.table_names()
    }
}

/// The catalog is the SQL layer's table source for shared logical plans.
/// Resolution goes through the pin: one statement, one snapshot.
impl TableProvider for Catalog {
    fn table(&self, name: &str) -> Option<&Relation> {
        self.get(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rma_relation::RelationBuilder;

    fn rel() -> Relation {
        RelationBuilder::new()
            .column("a", vec![1i64])
            .build()
            .unwrap()
    }

    #[test]
    fn register_and_lookup_case_insensitive() {
        let mut c = Catalog::new();
        c.register("Trips", rel()).unwrap();
        assert!(c.get("trips").is_some());
        assert!(c.get("TRIPS").is_some());
        assert!(c.contains("tRiPs"));
        assert_eq!(c.get("trips").unwrap().name(), Some("Trips"));
    }

    #[test]
    fn duplicate_registration_rejected() {
        let mut c = Catalog::new();
        c.register("t", rel()).unwrap();
        assert!(matches!(
            c.register("T", rel()),
            Err(SqlError::TableExists(_))
        ));
        // put replaces silently
        c.put("t", rel());
        assert!(c.get("t").is_some());
    }

    #[test]
    fn remove_and_names() {
        let mut c = Catalog::new();
        c.register("b", rel()).unwrap();
        c.register("a", rel()).unwrap();
        assert_eq!(c.table_names(), vec!["a", "b"]);
        assert!(c.remove("B").is_some());
        assert!(c.get("b").is_none());
        assert!(c.remove("b").is_none());
    }

    #[test]
    fn attached_views_share_the_store_via_refresh() {
        let mut a = Catalog::new();
        let mut b = Catalog::attached(Arc::clone(a.shared()));
        a.register("t", rel()).unwrap();
        // b's pin predates the write; a refresh makes it visible
        assert!(!b.contains("t"));
        b.refresh();
        assert!(b.contains("t"));
        // the pin outlives a drop performed through the other view
        a.remove("t").unwrap();
        assert!(b.get("t").is_some(), "b's pin still holds the table");
        b.refresh();
        assert!(b.get("t").is_none());
    }
}
