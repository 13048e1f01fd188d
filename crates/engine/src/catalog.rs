//! The table catalog: a thread-safe registry of named in-memory tables.
//!
//! VerdictDB stores everything — base tables, sample tables, and its own
//! metadata — inside the underlying database (§2.1), so the catalog supports
//! dotted names such as `verdict_meta.samples` in addition to plain names.
//!
//! A catalog may optionally be backed by an on-disk store (see
//! [`Catalog::set_store`]).  Persisted tables load lazily on first access,
//! and every mutation of a persisted table writes through to the store, so
//! `CREATE SCRAMBLE` results, `REFRESH SCRAMBLE` append batches, and drops
//! survive restarts.  Which tables are persisted is decided by whoever calls
//! [`StoreHandle::save`] first (the middleware persists scrambles and its
//! metadata, never base tables); the catalog only keeps already-persisted
//! tables in sync.
//!
//! A mutation commits to the store **first**; the in-memory image and the
//! data version move only once that commit succeeded, so a failed commit
//! leaves the table as it was.  An append costs the batch, not the table:
//! the image grows in place unless a scan pins it, and a persisted table
//! that is not materialised is not loaded to be appended to.

use crate::error::{EngineError, EngineResult};
use crate::persist::{ScanSource, StoreHandle, TableSource};
use crate::table::Table;
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A registry of named tables.
///
/// Every mutation (register, create, drop, append) bumps a per-table **data
/// version** counter that survives drops and re-creations, so cache layers
/// can detect that a table's contents may have changed by comparing the
/// version they recorded at insert time against [`Catalog::data_version`].
/// With a store attached, versions of persisted tables also survive process
/// restarts (they reload from the store and keep counting from there).
#[derive(Debug, Default)]
pub struct Catalog {
    tables: RwLock<BTreeMap<String, Arc<Table>>>,
    /// Monotonic per-table mutation counters, keyed like `tables`.  Kept in a
    /// separate map (rather than alongside each table) so a drop + re-create
    /// still advances the counter instead of resetting it.
    versions: RwLock<BTreeMap<String, u64>>,
    /// Optional on-disk backing store for persisted tables.
    store: RwLock<Option<Arc<dyn StoreHandle>>>,
    /// Held by every mutation and by every load from the store: the store
    /// and the in-memory images take writes in one order, and a load never
    /// misses an append that commits while it decodes.
    writer: Mutex<()>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    fn key(name: &str) -> String {
        name.to_ascii_lowercase()
    }

    /// Attaches an on-disk store.  Tables it already holds become visible
    /// immediately (lazily materialised on first access), and subsequent
    /// mutations of persisted tables write through to it.
    pub fn set_store(&self, store: Arc<dyn StoreHandle>) {
        *self.store.write() = Some(store);
    }

    fn store(&self) -> Option<Arc<dyn StoreHandle>> {
        self.store.read().clone()
    }

    /// The store, when it persists `key`.
    fn store_of(&self, key: &str) -> Option<Arc<dyn StoreHandle>> {
        self.store().filter(|s| s.contains(key))
    }

    /// The table's monotonic data version: 0 for a name that has never been
    /// touched, incremented by every register / create / append / drop.
    /// A name the catalog has not touched since the store was attached
    /// answers with the store's persisted version, so counters continue
    /// monotonically across restarts instead of restarting at zero.
    pub fn data_version(&self, name: &str) -> u64 {
        let key = Self::key(name);
        if let Some(v) = self.versions.read().get(&key) {
            return *v;
        }
        self.store()
            .and_then(|s| s.version(&key))
            .unwrap_or_default()
    }

    /// Makes `table` the in-memory image of `key` at `version`, once the
    /// store (if it persists `key`) has committed it.
    fn install(&self, key: &str, table: Table, version: u64) {
        self.tables.write().insert(key.to_string(), Arc::new(table));
        self.versions.write().insert(key.to_string(), version);
    }

    /// Registers (or replaces) a table under the given name.
    pub fn register(&self, name: &str, table: Table) {
        let key = Self::key(name);
        let _writer = self.writer.lock();
        let version = self.data_version(&key) + 1;
        // register is infallible by contract (data generators use it for
        // in-memory base tables); a failed write-through would mean the
        // store already tracks the name, which register's callers never do.
        if let Some(store) = self.store_of(&key) {
            let _ = store.save(&key, &table, version);
        }
        self.install(&key, table, version);
    }

    /// Creates a new table; errors if it already exists and `or_replace` is false.
    pub fn create(&self, name: &str, table: Table, or_replace: bool) -> EngineResult<()> {
        let key = Self::key(name);
        let _writer = self.writer.lock();
        if !or_replace && self.exists(&key) {
            return Err(EngineError::TableAlreadyExists(name.to_string()));
        }
        let version = self.data_version(&key) + 1;
        if let Some(store) = self.store_of(&key) {
            store.save(&key, &table, version)?;
        }
        self.install(&key, table, version);
        Ok(())
    }

    /// Fetches a table by name, materialising it from the store on a miss.
    pub fn get(&self, name: &str) -> EngineResult<Arc<Table>> {
        let key = Self::key(name);
        let materialised = || self.tables.read().get(&key).cloned();
        if let Some(t) = materialised() {
            return Ok(t);
        }
        let _writer = self.writer.lock();
        // Another thread may have loaded the table while we waited.
        if let Some(t) = materialised() {
            return Ok(t);
        }
        let store = self
            .store_of(&key)
            .ok_or_else(|| EngineError::TableNotFound(name.to_string()))?;
        let (table, version) = store.load(&key)?;
        let table = Arc::new(table);
        self.tables.write().insert(key.clone(), Arc::clone(&table));
        self.versions.write().entry(key).or_insert(version);
        Ok(table)
    }

    /// True if a table with this name exists (in memory or persisted).
    pub fn exists(&self, name: &str) -> bool {
        let key = Self::key(name);
        self.tables.read().contains_key(&key) || self.store_of(&key).is_some()
    }

    /// Drops a table; errors when missing unless `if_exists`.
    pub fn drop_table(&self, name: &str, if_exists: bool) -> EngineResult<()> {
        let key = Self::key(name);
        let _writer = self.writer.lock();
        if !self.exists(&key) {
            if if_exists {
                return Ok(());
            }
            return Err(EngineError::TableNotFound(name.to_string()));
        }
        let version = self.data_version(&key) + 1;
        if let Some(store) = self.store_of(&key) {
            store.remove(&key)?;
        }
        self.tables.write().remove(&key);
        self.versions.write().insert(key, version);
        Ok(())
    }

    /// Appends rows to an existing table: to the store when it persists the
    /// table, then to the in-memory image when there is one.
    ///
    /// The image grows in place (`Arc::make_mut`) unless a scan pins it, in
    /// which case it is copied first and the scan keeps the old rows.  A
    /// persisted table that is not materialised stays that way: the store
    /// takes the batch alone, and the load that later materialises the
    /// table folds it in like [`Table::append`] would have.
    pub fn append(&self, name: &str, rows: &Table) -> EngineResult<()> {
        let key = Self::key(name);
        let _writer = self.writer.lock();
        let width = self.tables.read().get(&key).map(|t| t.num_columns());
        let store = self.store_of(&key);
        if width.is_none() && store.is_none() {
            return Err(EngineError::TableNotFound(name.to_string()));
        }
        if let Some(width) = width {
            Table::check_append_arity(width, rows)?;
        }
        let version = self.data_version(&key) + 1;
        if let Some(store) = store {
            store.append(&key, rows, version)?;
        }
        if let Some(table) = self.tables.write().get_mut(&key) {
            Arc::make_mut(table).append(rows)?;
        }
        self.versions.write().insert(key, version);
        Ok(())
    }

    /// Names of all registered tables (in memory or persisted), sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().keys().cloned().collect();
        if let Some(store) = self.store() {
            for name in store.table_names() {
                if !names.contains(&name) {
                    names.push(name);
                }
            }
            names.sort();
        }
        names
    }

    /// Number of rows in the named table (0 if missing).  Persisted tables
    /// answer from their stored header without being materialised.
    pub fn row_count(&self, name: &str) -> usize {
        let key = Self::key(name);
        if let Some(t) = self.tables.read().get(&key) {
            return t.num_rows();
        }
        self.store()
            .and_then(|s| s.row_count(&key))
            .unwrap_or_default() as usize
    }

    /// Opens a positional row source for progressive scans: an `Arc`-pinned
    /// snapshot for in-memory tables, or a block-granular disk reader for
    /// persisted tables that have not been materialised (a cold-start
    /// `STREAM` therefore never loads the whole scramble).
    pub fn scan_source(&self, name: &str) -> EngineResult<Arc<dyn ScanSource>> {
        let key = Self::key(name);
        if let Some(t) = self.tables.read().get(&key) {
            return Ok(Arc::new(TableSource::new(Arc::clone(t))));
        }
        match self.store_of(&key) {
            Some(store) => store.open_scan(&key),
            None => Err(EngineError::TableNotFound(name.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;
    use std::sync::atomic::{AtomicBool, Ordering::SeqCst};

    fn small() -> Table {
        TableBuilder::new()
            .int_column("x", vec![1, 2, 3])
            .build()
            .unwrap()
    }

    /// A [`StoreHandle`] over tables held in memory that, while `failing`
    /// is set, refuses every write as a failed WAL commit would.
    #[derive(Debug, Default)]
    struct FakeStore {
        tables: Mutex<BTreeMap<String, (Table, u64)>>,
        failing: AtomicBool,
    }

    impl FakeStore {
        fn commit(
            &self,
            key: &str,
            write: impl FnOnce(&mut BTreeMap<String, (Table, u64)>) -> EngineResult<()>,
        ) -> EngineResult<()> {
            if self.failing.load(SeqCst) {
                return Err(EngineError::Execution(format!("commit of {key} failed")));
            }
            write(&mut self.tables.lock())
        }

        fn stored(&self, key: &str) -> EngineResult<(Table, u64)> {
            let tables = self.tables.lock();
            let entry = tables.get(key).cloned();
            entry.ok_or_else(|| EngineError::TableNotFound(key.to_string()))
        }
    }

    impl StoreHandle for FakeStore {
        fn contains(&self, key: &str) -> bool {
            self.tables.lock().contains_key(key)
        }

        fn table_names(&self) -> Vec<String> {
            self.tables.lock().keys().cloned().collect()
        }

        fn row_count(&self, key: &str) -> Option<u64> {
            let rows = self.stored(key).ok()?.0.num_rows();
            Some(rows as u64)
        }

        fn version(&self, key: &str) -> Option<u64> {
            self.stored(key).ok().map(|(_, version)| version)
        }

        fn load(&self, key: &str) -> EngineResult<(Table, u64)> {
            self.stored(key)
        }

        fn save(&self, key: &str, table: &Table, version: u64) -> EngineResult<()> {
            self.commit(key, |tables| {
                tables.insert(key.to_string(), (table.clone(), version));
                Ok(())
            })
        }

        fn append(&self, key: &str, rows: &Table, version: u64) -> EngineResult<()> {
            self.commit(key, |tables| {
                let (table, stored) = tables.get_mut(key).expect("persisted");
                table.append(rows)?;
                *stored = version;
                Ok(())
            })
        }

        fn remove(&self, key: &str) -> EngineResult<()> {
            self.commit(key, |tables| {
                tables.remove(key);
                Ok(())
            })
        }

        fn open_scan(&self, key: &str) -> EngineResult<Arc<dyn ScanSource>> {
            let (table, _) = self.stored(key)?;
            Ok(Arc::new(TableSource::new(Arc::new(table))))
        }
    }

    /// A catalog whose store persists `t` ([`small`], version 1), loaded
    /// into memory or not.
    fn persisted(materialised: bool) -> (Catalog, Arc<FakeStore>) {
        let store = Arc::new(FakeStore::default());
        store.save("t", &small(), 1).unwrap();
        let c = Catalog::new();
        c.set_store(Arc::clone(&store) as Arc<dyn StoreHandle>);
        if materialised {
            c.get("t").unwrap();
        }
        (c, store)
    }

    #[test]
    fn a_failed_store_commit_leaves_the_table_as_it_was() {
        for materialised in [false, true] {
            let (c, store) = persisted(materialised);
            store.failing.store(true, SeqCst);
            let before = (c.row_count("t"), c.data_version("t"));
            assert!(c.append("t", &small()).is_err());
            assert!(c.create("t", small(), true).is_err());
            assert!(c.drop_table("t", false).is_err());
            assert_eq!((c.row_count("t"), c.data_version("t")), before);
            store.failing.store(false, SeqCst);
            assert_eq!(
                *c.get("t").unwrap(),
                small(),
                "materialised: {materialised}"
            );
        }
    }

    #[test]
    fn an_append_grows_the_table_in_place_unless_a_scan_pins_it() {
        let c = Catalog::new();
        c.create("t", small(), false).unwrap();
        let image = Arc::as_ptr(&c.get("t").unwrap());
        c.append("t", &small()).unwrap();
        assert_eq!(Arc::as_ptr(&c.get("t").unwrap()), image, "copied unpinned");
        let pinned = c.scan_source("t").unwrap();
        c.append("t", &small()).unwrap();
        assert_ne!(Arc::as_ptr(&c.get("t").unwrap()), image);
        assert_eq!(pinned.num_rows(), 6);
        assert_eq!(c.row_count("t"), 9);
    }

    #[test]
    fn create_get_drop_roundtrip() {
        let c = Catalog::new();
        c.create("orders", small(), false).unwrap();
        assert!(c.exists("ORDERS"));
        assert_eq!(c.get("orders").unwrap().num_rows(), 3);
        assert!(c.create("orders", small(), false).is_err());
        c.create("orders", small(), true).unwrap();
        c.drop_table("orders", false).unwrap();
        assert!(!c.exists("orders"));
        assert!(c.drop_table("orders", false).is_err());
        c.drop_table("orders", true).unwrap();
    }

    #[test]
    fn append_grows_table() {
        let c = Catalog::new();
        c.create("t", small(), false).unwrap();
        c.append("t", &small()).unwrap();
        assert_eq!(c.row_count("t"), 6);
    }

    #[test]
    fn data_versions_track_every_mutation_and_survive_drops() {
        let c = Catalog::new();
        assert_eq!(c.data_version("t"), 0);
        c.create("t", small(), false).unwrap();
        assert_eq!(c.data_version("T"), 1);
        c.append("t", &small()).unwrap();
        assert_eq!(c.data_version("t"), 2);
        c.drop_table("t", false).unwrap();
        assert_eq!(c.data_version("t"), 3);
        // Re-creating continues the counter instead of resetting it.
        c.create("t", small(), false).unwrap();
        assert_eq!(c.data_version("t"), 4);
        // Dropping a missing table with IF EXISTS does not bump.
        c.drop_table("nope", true).unwrap();
        assert_eq!(c.data_version("nope"), 0);
        // Reads never bump.
        let _ = c.get("t").unwrap();
        assert_eq!(c.data_version("t"), 4);
    }

    #[test]
    fn schema_qualified_names_are_supported() {
        let c = Catalog::new();
        c.register("verdict_meta.samples", small());
        assert!(c.exists("Verdict_Meta.Samples"));
        assert_eq!(c.table_names(), vec!["verdict_meta.samples".to_string()]);
    }

    #[test]
    fn scan_source_over_in_memory_table_pins_a_snapshot() {
        let c = Catalog::new();
        c.create("t", small(), false).unwrap();
        let src = c.scan_source("t").unwrap();
        c.append("t", &small()).unwrap();
        // The source still sees the snapshot it was opened on.
        assert_eq!(src.num_rows(), 3);
        assert_eq!(c.row_count("t"), 6);
    }
}
