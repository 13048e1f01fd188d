//! The store itself: a directory of table files plus one WAL.
//!
//! All mutations are single-writer (serialized by an internal mutex) and
//! flow through [`crate::wal`], so every `save`/`append`/`remove` is atomic
//! and durable.  Reads either materialize a whole table ([`Store::load_table`])
//! or stream it block-at-a-time through [`crate::scan::StoreScan`].
//!
//! Besides tables, the store keeps small named blobs (`<key>.blob`) with the
//! same WAL protection — the middleware uses one to persist scramble
//! metadata atomically alongside the scramble bytes.

use crate::error::{StoreError, StoreResult};
use crate::page::{
    encode_page, pages_for, read_payload, read_raw_pages, split_payload, verify_pages, PAGE_HEADER,
};
use crate::scan::StoreScan;
use crate::tablefile::{build_append, build_full, read_header, table_file_name, TableHeader};
use crate::wal::{Wal, WalOp};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use verdict_engine::{EngineError, EngineResult, ScanSource, StoreHandle, Table};

/// Magic prefix of blob files; its last byte is the format version (2:
/// pages checksummed with XXH64).
pub const BLOB_MAGIC: &[u8; 8] = b"VDBBLOB2";

/// Rows per block in newly written table files.  Matches the engine's morsel
/// size so progressive `BlockScan` streams whole blocks straight off disk.
pub const BLOCK_ROWS: u32 = verdict_engine::MORSEL_ROWS as u32;

/// Shared atomic counters surfaced by `SHOW STATS`.
#[derive(Debug, Default)]
pub struct Counters {
    pages_read: AtomicU64,
    pages_written: AtomicU64,
    wal_records: AtomicU64,
    wal_syncs: AtomicU64,
    recoveries: AtomicU64,
    checkpoints: AtomicU64,
}

impl Counters {
    /// Records `n` data page reads.
    pub fn pages_read(&self, n: u64) {
        self.pages_read.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one data page written.
    pub fn page_written(&self) {
        self.pages_written.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one durable WAL sync covering `records` log records.
    pub fn wal_synced(&self, records: u64) {
        self.wal_records.fetch_add(records, Ordering::Relaxed);
        self.wal_syncs.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a recovery replay that applied at least one transaction.
    pub fn recovery(&self) {
        self.recoveries.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a checkpoint (WAL truncation after apply).
    pub fn checkpoint(&self) {
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshots all counters.
    pub fn snapshot(&self) -> StoreStats {
        StoreStats {
            pages_read: self.pages_read.load(Ordering::Relaxed),
            pages_written: self.pages_written.load(Ordering::Relaxed),
            wal_records: self.wal_records.load(Ordering::Relaxed),
            wal_syncs: self.wal_syncs.load(Ordering::Relaxed),
            recoveries: self.recoveries.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time snapshot of store activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Data pages read and checksum-verified.
    pub pages_read: u64,
    /// Data pages written through the WAL.
    pub pages_written: u64,
    /// WAL records made durable.
    pub wal_records: u64,
    /// WAL fsync calls.
    pub wal_syncs: u64,
    /// Recovery replays that applied at least one committed transaction.
    pub recoveries: u64,
    /// WAL checkpoints (truncations after apply).
    pub checkpoints: u64,
}

#[derive(Debug)]
struct TableEntry {
    header: TableHeader,
    /// Bumped whenever the table is replaced or removed; open scans snapshot
    /// the value and refuse to read once it moves.
    replace_gen: Arc<AtomicU64>,
}

#[derive(Debug)]
struct Inner {
    wal: Wal,
    tables: BTreeMap<String, TableEntry>,
}

/// A crash-safe on-disk store of columnar tables and small blobs.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    inner: Mutex<Inner>,
    stats: Arc<Counters>,
}

fn validate_key(key: &str) -> StoreResult<()> {
    let ok = !key.is_empty()
        && key
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '.');
    if ok {
        Ok(())
    } else {
        Err(StoreError::InvalidName(key.to_string()))
    }
}

impl Store {
    /// Opens (creating if needed) a store rooted at `dir`.  Runs WAL
    /// recovery first, then loads every table header.  A corrupt header is a
    /// typed error, not a panic.
    pub fn open(dir: impl AsRef<Path>) -> StoreResult<Store> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let stats = Arc::new(Counters::default());
        let (wal, _touched) = Wal::open(&dir, stats.clone())?;

        let mut tables = BTreeMap::new();
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some(key) = name.strip_suffix(".tbl") {
                let mut f = File::open(entry.path())?;
                let header = read_header(&mut f, &name)?;
                tables.insert(
                    key.to_string(),
                    TableEntry {
                        header,
                        replace_gen: Arc::new(AtomicU64::new(0)),
                    },
                );
            }
        }
        Ok(Store {
            dir,
            inner: Mutex::new(Inner { wal, tables }),
            stats,
        })
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Snapshot of the activity counters.
    pub fn stats(&self) -> StoreStats {
        self.stats.snapshot()
    }

    /// Writes (or atomically replaces) a table under `key` at `version`.
    pub fn save_table(&self, key: &str, table: &Table, version: u64) -> StoreResult<()> {
        validate_key(key)?;
        let (header, ops) = build_full(key, table, version, BLOCK_ROWS);
        let mut inner = self.inner.lock();
        inner.wal.commit(&ops)?;
        if let Some(old) = inner.tables.remove(key) {
            old.replace_gen.fetch_add(1, Ordering::SeqCst);
        }
        inner.tables.insert(
            key.to_string(),
            TableEntry {
                header,
                replace_gen: Arc::new(AtomicU64::new(0)),
            },
        );
        Ok(())
    }

    /// Appends `rows` to the table under `key`, bumping its version, without
    /// reading its data pages.  A batch whose column count differs from the
    /// table's is [`StoreError::Rejected`] with the engine's own error.
    /// Column types need not match: a load folds each block in with
    /// `Column::append`'s coercions, as an in-memory append would.  Falls
    /// back to a full rewrite if the block directory outgrows the header
    /// reservation.
    pub fn append_rows(&self, key: &str, rows: &Table, version: u64) -> StoreResult<()> {
        validate_key(key)?;
        let mut inner = self.inner.lock();
        let entry = inner
            .tables
            .get(key)
            .ok_or_else(|| StoreError::NotFound(key.to_string()))?;
        Table::check_append_arity(entry.header.schema.len(), rows).map_err(StoreError::Rejected)?;
        let mut current = entry.header.clone();
        current.version = version;
        match build_append(key, &current, rows) {
            Some((header, ops)) => {
                inner.wal.commit(&ops)?;
                // Appends leave existing data pages untouched, so open scans
                // stay valid: the generation is NOT bumped.
                inner.tables.get_mut(key).expect("held lock").header = header;
                Ok(())
            }
            None => {
                // Directory overflow: load, append in memory, full rewrite.
                drop(inner);
                let (mut table, _) = self.load_table(key)?;
                table.append(rows).map_err(StoreError::Rejected)?;
                self.save_table(key, &table, version)
            }
        }
    }

    /// Removes the table under `key`.  Removing a missing table is an error.
    pub fn remove_table(&self, key: &str) -> StoreResult<()> {
        validate_key(key)?;
        let mut inner = self.inner.lock();
        let entry = inner
            .tables
            .remove(key)
            .ok_or_else(|| StoreError::NotFound(key.to_string()))?;
        inner.wal.commit(&[WalOp::Remove {
            file: table_file_name(key),
        }])?;
        entry.replace_gen.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    /// Materializes the whole table under `key`, returning it with its
    /// persisted data version.
    pub fn load_table(&self, key: &str) -> StoreResult<(Table, u64)> {
        let scan = self.open_store_scan(key)?;
        scan.materialize()
    }

    /// True when `key` is persisted.
    pub fn contains_table(&self, key: &str) -> bool {
        self.inner.lock().tables.contains_key(key)
    }

    /// Row count of `key` from the header alone (no data pages touched).
    pub fn table_row_count(&self, key: &str) -> Option<u64> {
        self.inner
            .lock()
            .tables
            .get(key)
            .map(|e| e.header.total_rows)
    }

    /// Persisted data version of `key`.
    pub fn table_version(&self, key: &str) -> Option<u64> {
        self.inner.lock().tables.get(key).map(|e| e.header.version)
    }

    /// Sorted list of persisted table keys.
    pub fn tables(&self) -> Vec<String> {
        self.inner.lock().tables.keys().cloned().collect()
    }

    /// Opens a streaming block scan over `key`.  The scan pins the current
    /// header; if the table is replaced or removed mid-scan, subsequent
    /// reads fail with a typed invalidation error instead of mixing
    /// generations.
    pub fn open_store_scan(&self, key: &str) -> StoreResult<StoreScan> {
        let inner = self.inner.lock();
        let entry = inner
            .tables
            .get(key)
            .ok_or_else(|| StoreError::NotFound(key.to_string()))?;
        let header = entry.header.clone();
        let gen = entry.replace_gen.clone();
        drop(inner);
        let file_name = table_file_name(key);
        let file = File::open(self.dir.join(&file_name))?;
        Ok(StoreScan::new(
            file,
            file_name,
            header,
            gen,
            self.stats.clone(),
        ))
    }

    /// Writes (or atomically replaces) a named blob.
    pub fn put_blob(&self, key: &str, bytes: &[u8]) -> StoreResult<()> {
        validate_key(key)?;
        let file = format!("{key}.blob");
        let mut head = Vec::with_capacity(16);
        head.extend_from_slice(BLOB_MAGIC);
        head.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        let mut ops = vec![
            WalOp::Remove { file: file.clone() },
            WalOp::Page {
                file: file.clone(),
                page_no: 0,
                image: encode_page(&head),
            },
        ];
        for (i, chunk) in split_payload(bytes).iter().enumerate() {
            ops.push(WalOp::Page {
                file: file.clone(),
                page_no: 1 + i as u64,
                image: encode_page(chunk),
            });
        }
        self.inner.lock().wal.commit(&ops)
    }

    /// Reads a named blob, or `None` if it was never written.
    pub fn get_blob(&self, key: &str) -> StoreResult<Option<Vec<u8>>> {
        validate_key(key)?;
        let file = format!("{key}.blob");
        let path = self.dir.join(&file);
        let mut f = match File::open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        // The magic carries the format, and is read before the head page's
        // checksum, whose algorithm depends on the format.
        let raw = read_raw_pages(&mut f, 0, 1, &file)?;
        let magic = &raw[PAGE_HEADER..PAGE_HEADER + 8];
        if magic != BLOB_MAGIC {
            let detail = if magic[..7] == BLOB_MAGIC[..7] && magic[7].is_ascii_digit() {
                format!(
                    "blob in format version {}; this build reads format version {}",
                    magic[7] as char, BLOB_MAGIC[7] as char
                )
            } else {
                "bad blob magic".to_string()
            };
            return Err(StoreError::corruption(&file, detail));
        }
        let head = verify_pages(raw, 0, &file)?;
        if head.len() < 16 {
            return Err(StoreError::corruption(&file, "blob head page too short"));
        }
        let len = u64::from_le_bytes(head[8..16].try_into().unwrap()) as usize;
        let npages = pages_for(len);
        let bytes = read_payload(&mut f, 1, npages, len, &file)?;
        self.stats.pages_read(npages + 1);
        Ok(Some(bytes))
    }
}

fn map_err(e: StoreError) -> EngineError {
    match e {
        StoreError::NotFound(t) => EngineError::TableNotFound(t),
        StoreError::Rejected(e) => e,
        other => EngineError::Execution(format!("store: {other}")),
    }
}

impl StoreHandle for Store {
    fn contains(&self, key: &str) -> bool {
        self.contains_table(key)
    }

    fn table_names(&self) -> Vec<String> {
        self.tables()
    }

    fn row_count(&self, key: &str) -> Option<u64> {
        self.table_row_count(key)
    }

    fn version(&self, key: &str) -> Option<u64> {
        self.table_version(key)
    }

    fn load(&self, key: &str) -> EngineResult<(Table, u64)> {
        self.load_table(key).map_err(map_err)
    }

    fn save(&self, key: &str, table: &Table, version: u64) -> EngineResult<()> {
        self.save_table(key, table, version).map_err(map_err)
    }

    fn append(&self, key: &str, rows: &Table, version: u64) -> EngineResult<()> {
        self.append_rows(key, rows, version).map_err(map_err)
    }

    fn remove(&self, key: &str) -> EngineResult<()> {
        self.remove_table(key).map_err(map_err)
    }

    fn open_scan(&self, key: &str) -> EngineResult<Arc<dyn ScanSource>> {
        self.open_store_scan(key)
            .map(|s| Arc::new(s) as Arc<dyn ScanSource>)
            .map_err(map_err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use verdict_engine::{Catalog, DataType, TableBuilder};

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("verdict_store_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_table(n: usize) -> Table {
        TableBuilder::new()
            .int_column("id", (0..n as i64).collect())
            .float_column("u", (0..n).map(|i| (i as f64 * 0.137) % 1.0).collect())
            .build()
            .unwrap()
    }

    #[test]
    fn save_close_reopen_load_is_bit_identical() {
        let dir = tempdir("reopen");
        let table = sample_table(70_000); // spans two MORSEL_ROWS blocks
        {
            let store = Store::open(&dir).unwrap();
            store.save_table("sales_scramble", &table, 42).unwrap();
        }
        let store = Store::open(&dir).unwrap();
        assert!(store.contains_table("sales_scramble"));
        assert_eq!(store.table_row_count("sales_scramble"), Some(70_000));
        assert_eq!(store.table_version("sales_scramble"), Some(42));
        let (back, version) = store.load_table("sales_scramble").unwrap();
        assert_eq!(version, 42);
        assert_eq!(back.num_rows(), 70_000);
        for i in [0usize, 65_535, 65_536, 69_999] {
            assert_eq!(back.value(i, 0), table.value(i, 0));
            assert_eq!(back.value(i, 1), table.value(i, 1));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_then_reopen_sees_all_rows() {
        let dir = tempdir("append");
        {
            let store = Store::open(&dir).unwrap();
            store.save_table("t", &sample_table(100), 1).unwrap();
            store.append_rows("t", &sample_table(50), 2).unwrap();
        }
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.table_row_count("t"), Some(150));
        assert_eq!(store.table_version("t"), Some(2));
        let (back, _) = store.load_table("t").unwrap();
        assert_eq!(back.num_rows(), 150);
        assert_eq!(back.value(100, 0), back.value(0, 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn remove_and_missing_table_are_typed() {
        let dir = tempdir("remove");
        let store = Store::open(&dir).unwrap();
        store.save_table("t", &sample_table(10), 1).unwrap();
        store.remove_table("t").unwrap();
        assert!(!store.contains_table("t"));
        assert!(matches!(
            store.load_table("t").unwrap_err(),
            StoreError::NotFound(_)
        ));
        assert!(matches!(
            store.remove_table("t").unwrap_err(),
            StoreError::NotFound(_)
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn invalid_keys_are_rejected() {
        let dir = tempdir("badkey");
        let store = Store::open(&dir).unwrap();
        for bad in ["", "Upper", "has space", "../escape", "semi;colon"] {
            assert!(matches!(
                store.save_table(bad, &sample_table(1), 1).unwrap_err(),
                StoreError::InvalidName(_)
            ));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn blob_roundtrip_and_replace() {
        let dir = tempdir("blob");
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.get_blob("verdict_meta").unwrap(), None);
        let big: Vec<u8> = (0..20_000).map(|i| (i % 255) as u8).collect();
        store.put_blob("verdict_meta", &big).unwrap();
        assert_eq!(store.get_blob("verdict_meta").unwrap().unwrap(), big);
        store.put_blob("verdict_meta", b"small now").unwrap();
        assert_eq!(
            store.get_blob("verdict_meta").unwrap().unwrap(),
            b"small now"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn reframe_as_format_1(path: &Path, edit: impl Fn(&mut [u8])) {
        let old = crate::page::in_format_1(&std::fs::read(path).unwrap(), edit);
        std::fs::write(path, old).unwrap();
    }

    /// Files the previous format wrote — a table file and a blob — are
    /// refused with a typed error that names their format version.
    #[test]
    fn format_1_files_are_refused_by_name() {
        let dir = tempdir("format1");
        {
            let store = Store::open(&dir).unwrap();
            store.save_table("t", &sample_table(10), 1).unwrap();
            store.put_blob("verdict_meta", b"metadata").unwrap();
        }
        reframe_as_format_1(&dir.join("verdict_meta.blob"), |p| {
            p[..8].copy_from_slice(b"VDBBLOB1")
        });
        let store = Store::open(&dir).unwrap();
        let err = store.get_blob("verdict_meta").unwrap_err();
        assert!(err.is_corruption(), "{err}");
        assert!(err.to_string().contains("format version 1"), "{err}");
        drop(store);
        reframe_as_format_1(&dir.join("t.tbl"), |p| {
            p[8..12].copy_from_slice(&1u32.to_le_bytes())
        });
        match Store::open(&dir) {
            Err(e) => {
                assert!(e.is_corruption(), "{e}");
                assert!(e.to_string().contains("format version 1"), "{e}");
            }
            Ok(_) => panic!("a format 1 table file must not open"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_table_header_fails_open_with_typed_error() {
        let dir = tempdir("corrupthdr");
        {
            let store = Store::open(&dir).unwrap();
            store.save_table("t", &sample_table(10), 1).unwrap();
        }
        // Flip a byte in the header page.
        let path = dir.join("t.tbl");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[100] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        match Store::open(&dir) {
            Err(e) => assert!(e.is_corruption(), "{e}"),
            Ok(_) => panic!("corrupt header must not open cleanly"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The store as a catalog reaches it, counting loads.
    #[derive(Debug)]
    struct Counting {
        store: Store,
        loads: AtomicU64,
    }

    impl StoreHandle for Counting {
        fn contains(&self, key: &str) -> bool {
            self.store.contains(key)
        }

        fn table_names(&self) -> Vec<String> {
            StoreHandle::table_names(&self.store)
        }

        fn row_count(&self, key: &str) -> Option<u64> {
            StoreHandle::row_count(&self.store, key)
        }

        fn version(&self, key: &str) -> Option<u64> {
            StoreHandle::version(&self.store, key)
        }

        fn load(&self, key: &str) -> EngineResult<(Table, u64)> {
            self.loads.fetch_add(1, Ordering::SeqCst);
            self.store.load(key)
        }

        fn save(&self, key: &str, table: &Table, version: u64) -> EngineResult<()> {
            self.store.save(key, table, version)
        }

        fn append(&self, key: &str, rows: &Table, version: u64) -> EngineResult<()> {
            StoreHandle::append(&self.store, key, rows, version)
        }

        fn remove(&self, key: &str) -> EngineResult<()> {
            self.store.remove(key)
        }

        fn open_scan(&self, key: &str) -> EngineResult<Arc<dyn ScanSource>> {
            self.store.open_scan(key)
        }
    }

    /// A catalog over a store in `dir` that persists `t` (`table`, saved by
    /// an earlier process), not loaded.
    fn restored(dir: &Path, table: &Table) -> (Catalog, Arc<Counting>) {
        Store::open(dir).unwrap().save_table("t", table, 1).unwrap();
        let store = Arc::new(Counting {
            store: Store::open(dir).unwrap(),
            loads: AtomicU64::new(0),
        });
        let catalog = Catalog::new();
        catalog.set_store(Arc::clone(&store) as Arc<dyn StoreHandle>);
        (catalog, store)
    }

    /// An append to a persisted table that is not in memory reads none of
    /// its rows, and the load that materialises it later is the table an
    /// in-memory append builds, bit for bit — an Int batch going into a
    /// Float column included.
    #[test]
    fn appends_load_nothing_and_the_later_load_equals_the_in_memory_append() {
        let dir = tempdir("lazyappend");
        let base = sample_table(70_000); // two blocks
        let batch = TableBuilder::new()
            .int_column("id", vec![70_000, 70_001, 70_002])
            .int_column("u", vec![1, -2, 3])
            .build()
            .unwrap();
        let memory = Catalog::new();
        memory.create("t", base.clone(), false).unwrap();
        memory.append("t", &batch).unwrap();
        memory.append("t", &sample_table(10)).unwrap();

        let (catalog, store) = restored(&dir, &base);
        catalog.append("t", &batch).unwrap();
        catalog.append("t", &sample_table(10)).unwrap();
        assert_eq!(store.loads.load(Ordering::SeqCst), 0);
        assert_eq!(catalog.row_count("t"), 70_013);
        assert_eq!(catalog.data_version("t"), 3);
        let loaded = catalog.get("t").unwrap();
        assert_eq!(store.loads.load(Ordering::SeqCst), 1);
        let expected = memory.get("t").unwrap();
        assert_eq!(loaded.columns[1].data_type(), DataType::Float);
        // Debug output spells every value (floats exactly) and the bitmaps
        assert_eq!(format!("{loaded:?}"), format!("{expected:?}"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A batch of the wrong width is refused with one typed error whichever
    /// path it takes — a table only in memory, a persisted one in memory, a
    /// persisted one on disk only — and the table stays as it was.
    #[test]
    fn an_arity_mismatch_is_one_typed_error_on_every_path() {
        let dir = tempdir("arity");
        let base = sample_table(100);
        let narrow = TableBuilder::new()
            .int_column("id", vec![1])
            .build()
            .unwrap();
        let want = EngineError::TypeMismatch(
            "cannot append table with 1 columns into table with 2".into(),
        );
        let memory = Catalog::new();
        memory.create("t", base.clone(), false).unwrap();
        let (in_memory, in_memory_store) = restored(&dir, &base);
        in_memory.get("t").unwrap();
        let disk_dir = tempdir("arity_disk");
        let (on_disk, on_disk_store) = restored(&disk_dir, &base);
        for (path, catalog) in [
            ("memory", &memory),
            ("persisted, in memory", &in_memory),
            ("persisted, on disk", &on_disk),
        ] {
            let before = (catalog.row_count("t"), catalog.data_version("t"));
            assert_eq!(catalog.append("t", &narrow), Err(want.clone()), "{path}");
            assert_eq!((catalog.row_count("t"), catalog.data_version("t")), before);
        }
        assert_eq!(in_memory_store.store.table_row_count("t"), Some(100));
        assert_eq!(on_disk_store.loads.load(Ordering::SeqCst), 0);
        assert_eq!(*on_disk.get("t").unwrap(), base);
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&disk_dir).unwrap();
    }

    #[test]
    fn stats_count_pages_and_syncs() {
        let dir = tempdir("stats");
        let store = Store::open(&dir).unwrap();
        store.save_table("t", &sample_table(1000), 1).unwrap();
        let s = store.stats();
        assert!(s.pages_written > 0);
        assert!(s.wal_records > 0);
        assert!(s.wal_syncs > 0);
        assert!(s.checkpoints > 0);
        let (_, _) = store.load_table("t").unwrap();
        assert!(store.stats().pages_read > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
