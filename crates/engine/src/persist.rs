//! Persistence integration points: the [`StoreHandle`] trait the catalog
//! uses to reach an on-disk scramble store, and the [`ScanSource`] trait
//! progressive block scans read rows through.
//!
//! The engine itself stays purely in-memory; a storage crate implements
//! these traits and is attached with [`crate::catalog::Catalog::set_store`].
//! Keeping the traits here (rather than depending on the storage crate)
//! preserves the dependency order `engine ← store ← core ← server`.
//!
//! [`ScanSource`] abstracts "a table readable in block-sized ranges": the
//! in-memory [`TableSource`] wraps an `Arc<Table>` (pinning it against
//! concurrent catalog writes, exactly like the pre-refactor progressive
//! scan), while a disk-backed implementation decodes columnar blocks on
//! demand so a cold-start `STREAM` never materialises the whole scramble.

use crate::column::Column;
use crate::error::{EngineError, EngineResult};
use crate::schema::Schema;
use crate::table::Table;
use std::sync::Arc;

/// A positional row source for progressive block scans.
///
/// Implementations must be stable for the lifetime of the scan: two reads of
/// the same range return bit-identical columns, and `num_rows` never changes.
/// In-memory sources guarantee this by holding an `Arc` snapshot; disk-backed
/// sources detect a concurrent rebuild and return a typed error instead of
/// silently serving mixed versions.
pub trait ScanSource: Send + Sync {
    /// The schema of the source table.
    fn schema(&self) -> &Schema;

    /// Total number of rows the source exposes.
    fn num_rows(&self) -> usize;

    /// Reads `len` rows starting at absolute row `start`, returning the
    /// columns selected by `cols` (`None` = every column, in schema order).
    /// The range must lie within `0..num_rows()`.
    fn read_range(
        &self,
        cols: Option<&[usize]>,
        start: usize,
        len: usize,
    ) -> EngineResult<Vec<Column>>;

    /// Gathers the rows at the given absolute row indices (ascending),
    /// returning the columns selected by `cols` exactly as
    /// [`read_range`](Self::read_range) does.
    fn gather(&self, cols: Option<&[usize]>, rows: &[usize]) -> EngineResult<Vec<Column>>;
}

/// [`ScanSource`] over an in-memory table snapshot.
///
/// Holding the `Arc` pins the snapshot: a catalog write grows a table in
/// place only while the catalog holds its one reference (`Arc::make_mut`),
/// and copies it otherwise, so an open scan keeps reading the exact table
/// it started on.
pub struct TableSource {
    table: Arc<Table>,
}

impl TableSource {
    /// Wraps a pinned table snapshot.
    pub fn new(table: Arc<Table>) -> TableSource {
        TableSource { table }
    }

    /// Applies `f` to the columns `cols` selects (`None` = all, in order).
    fn selected(&self, cols: Option<&[usize]>, f: impl Fn(&Column) -> Column) -> Vec<Column> {
        match cols {
            Some(idxs) => idxs.iter().map(|&i| f(&self.table.columns[i])).collect(),
            None => self.table.columns.iter().map(f).collect(),
        }
    }
}

impl ScanSource for TableSource {
    fn schema(&self) -> &Schema {
        &self.table.schema
    }

    fn num_rows(&self) -> usize {
        self.table.num_rows()
    }

    fn read_range(
        &self,
        cols: Option<&[usize]>,
        start: usize,
        len: usize,
    ) -> EngineResult<Vec<Column>> {
        if start + len > self.table.num_rows() {
            return Err(EngineError::Execution(format!(
                "scan range {start}..{} out of bounds ({} rows)",
                start + len,
                self.table.num_rows()
            )));
        }
        Ok(self.selected(cols, |c| c.slice(start, len)))
    }

    fn gather(&self, cols: Option<&[usize]>, rows: &[usize]) -> EngineResult<Vec<Column>> {
        Ok(self.selected(cols, |c| c.take(rows)))
    }
}

/// The catalog's view of an on-disk table store.
///
/// `key` arguments are catalog keys (already lower-cased).  Implementations
/// persist whole tables ([`save`](StoreHandle::save)) and incremental row
/// batches ([`append`](StoreHandle::append)) atomically — a crash between
/// any two calls must leave every persisted table readable at one of its
/// committed states.  The `version` passed to mutating calls is the
/// catalog's data version after the mutation; it is stored alongside the
/// table so data versions survive restarts monotonically.
pub trait StoreHandle: Send + Sync + std::fmt::Debug {
    /// True when the store holds a persisted table under this key.
    fn contains(&self, key: &str) -> bool;

    /// Keys of every persisted table.
    fn table_names(&self) -> Vec<String>;

    /// Row count of a persisted table, without materialising it.
    fn row_count(&self, key: &str) -> Option<u64>;

    /// Persisted data version of a table.
    fn version(&self, key: &str) -> Option<u64>;

    /// Materialises a persisted table, returning it with its data version.
    fn load(&self, key: &str) -> EngineResult<(Table, u64)>;

    /// Atomically creates or replaces a persisted table.
    fn save(&self, key: &str, table: &Table, version: u64) -> EngineResult<()>;

    /// Atomically appends a batch of rows to a persisted table, without
    /// materialising it.  A batch whose column count differs from the
    /// table's fails with the error [`Table::check_append_arity`] returns
    /// and writes nothing.  A later [`load`](StoreHandle::load) folds the
    /// batch in with [`Column::append`]'s coercions, as [`Table::append`]
    /// would have.
    fn append(&self, key: &str, rows: &Table, version: u64) -> EngineResult<()>;

    /// Atomically removes a persisted table (no-op when absent).
    fn remove(&self, key: &str) -> EngineResult<()>;

    /// Opens a block-granular reader over a persisted table that decodes
    /// from disk on demand (no full materialisation).
    fn open_scan(&self, key: &str) -> EngineResult<Arc<dyn ScanSource>>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;
    use crate::value::Value;

    fn table() -> Arc<Table> {
        Arc::new(
            TableBuilder::new()
                .int_column("id", (0..100).collect())
                .float_column("price", (0..100).map(|i| i as f64 * 0.5).collect())
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn table_source_reads_ranges_and_gathers() {
        let src = TableSource::new(table());
        assert_eq!(src.num_rows(), 100);
        let cols = src.read_range(None, 10, 5).unwrap();
        assert_eq!(cols.len(), 2);
        assert_eq!(cols[0].value_at(0), Value::Int(10));
        let thin = src.read_range(Some(&[1]), 0, 3).unwrap();
        assert_eq!(thin.len(), 1);
        assert_eq!(thin[0].value_at(2), Value::Float(1.0));
        let gathered = src.gather(None, &[1, 99]).unwrap();
        assert_eq!(gathered[0].value_at(1), Value::Int(99));
        let thin = src.gather(Some(&[1]), &[1, 99]).unwrap();
        assert_eq!(thin.len(), 1);
        assert_eq!(thin[0].value_at(1), Value::Float(49.5));
    }

    #[test]
    fn table_source_rejects_out_of_bounds_ranges() {
        let src = TableSource::new(table());
        assert!(src.read_range(None, 90, 20).is_err());
    }
}
