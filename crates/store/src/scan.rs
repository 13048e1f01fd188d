//! Streaming block scans over persisted tables.
//!
//! [`StoreScan`] implements the engine's [`ScanSource`] trait, so a
//! progressive `BlockScan` can stream a persisted scramble straight off disk
//! block-by-block without ever materializing the whole table.  The scan pins
//! the table header it was opened against; if the table is replaced or
//! removed mid-scan (a concurrent rebuild), the generation check turns every
//! subsequent read into a typed error rather than silently mixing rows from
//! two generations.

use crate::error::{StoreError, StoreResult};
use crate::store::Counters;
use crate::tablefile::{read_chunk, TableHeader};
use parking_lot::Mutex;
use std::fs::File;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use verdict_engine::{Column, DataType, EngineError, EngineResult, ScanSource, Schema, Table};

/// A read-only, header-pinned scan over one persisted table.
#[derive(Debug)]
pub struct StoreScan {
    reader: Mutex<Reader>,
    file_name: String,
    header: TableHeader,
    gen: Arc<AtomicU64>,
    expected_gen: u64,
    stats: Arc<Counters>,
    block_starts: Vec<usize>,
}

/// The table file and, per column, the segment decoded last with its block.
/// A progressive scan reads each column in ascending row order — the filter
/// columns of a range, then a gather of the others for the survivors, then
/// the next range, which may start inside the block the last one ended in —
/// so one segment per column is enough for every segment to be read once,
/// and a column the scan never asks for is never read.
#[derive(Debug)]
struct Reader {
    file: File,
    columns: Vec<Option<(usize, Arc<Column>)>>,
}

fn to_engine(e: StoreError) -> EngineError {
    EngineError::Execution(format!("store: {e}"))
}

impl StoreScan {
    pub(crate) fn new(
        file: File,
        file_name: String,
        header: TableHeader,
        gen: Arc<AtomicU64>,
        stats: Arc<Counters>,
    ) -> StoreScan {
        let block_starts = header.block_starts();
        let expected_gen = gen.load(Ordering::SeqCst);
        StoreScan {
            reader: Mutex::new(Reader {
                file,
                columns: vec![None; header.schema.len()],
            }),
            file_name,
            header,
            gen,
            expected_gen,
            stats,
            block_starts,
        }
    }

    /// The table header this scan is pinned to: schema, block directory and
    /// the page extent of every column segment.
    pub fn header(&self) -> &TableHeader {
        &self.header
    }

    fn check_generation(&self) -> StoreResult<()> {
        if self.gen.load(Ordering::SeqCst) != self.expected_gen {
            return Err(StoreError::ScanInvalidated(self.file_name.clone()));
        }
        Ok(())
    }

    /// Index of the block containing absolute row `row`.
    fn block_of(&self, row: usize) -> usize {
        // block_starts is ascending with a trailing total_rows sentinel.
        self.block_starts.partition_point(|&s| s <= row) - 1
    }

    /// The decoded columns of one block.  `cols` selects and orders the
    /// output (`None` means all columns); a column whose last decoded
    /// segment is this block's is not read again.
    fn block_columns(&self, block: usize, cols: Option<&[usize]>) -> StoreResult<Vec<Arc<Column>>> {
        let all: Vec<usize>;
        let cols = match cols {
            Some(idx) => idx,
            None => {
                all = (0..self.header.schema.len()).collect();
                &all
            }
        };
        let mut reader = self.reader.lock();
        let Reader { file, columns } = &mut *reader;
        let chunks = &self.header.blocks[block].chunks;
        let mut pages = 0u64;
        let mut out = Vec::with_capacity(cols.len());
        for &ci in cols {
            let column = match &columns[ci] {
                Some((decoded, column)) if *decoded == block => Arc::clone(column),
                _ => {
                    let column = read_chunk(file, &chunks[ci], &self.file_name, &mut pages)?;
                    let column = Arc::new(column);
                    columns[ci] = Some((block, Arc::clone(&column)));
                    column
                }
            };
            out.push(column);
        }
        self.stats.pages_read(pages);
        Ok(out)
    }

    /// The schema types of the fields `cols` selects.
    fn field_types(&self, cols: Option<&[usize]>) -> Vec<DataType> {
        let fields = &self.header.schema.fields;
        match cols {
            Some(idx) => idx.iter().map(|&c| fields[c].data_type).collect(),
            None => fields.iter().map(|f| f.data_type).collect(),
        }
    }

    /// Reads the parts `part` cuts from each block in `ranges` (block index,
    /// then the part's arguments) and joins them per column.  Joining is
    /// `Column::append` onto an empty column of the schema type; the first
    /// part is returned as it is when its type already is the schema's,
    /// which is the same column without the copy.
    fn read_parts<R>(
        &self,
        cols: Option<&[usize]>,
        ranges: impl Iterator<Item = (usize, R)>,
        part: impl Fn(&Column, &R) -> Column,
    ) -> StoreResult<Vec<Column>> {
        self.check_generation()?;
        let types = self.field_types(cols);
        let mut out: Option<Vec<Column>> = None;
        for (block, range) in ranges {
            let decoded = self.block_columns(block, cols)?;
            let parts = decoded.iter().map(|col| part(col, &range));
            match &mut out {
                None => {
                    out = Some(
                        parts
                            .zip(&types)
                            .map(|(p, &dt)| {
                                if p.data_type() == dt {
                                    p
                                } else {
                                    let mut acc = Column::new_empty(dt);
                                    acc.append(&p);
                                    acc
                                }
                            })
                            .collect(),
                    )
                }
                Some(acc) => acc.iter_mut().zip(parts).for_each(|(a, p)| a.append(&p)),
            }
        }
        Ok(out.unwrap_or_else(|| types.into_iter().map(Column::new_empty).collect()))
    }

    fn read_range_inner(
        &self,
        cols: Option<&[usize]>,
        start: usize,
        len: usize,
    ) -> StoreResult<Vec<Column>> {
        let end = start + len;
        let mut row = start;
        let ranges = std::iter::from_fn(|| {
            (row < end).then(|| {
                let block = self.block_of(row);
                let lo = row - self.block_starts[block];
                let take = end.min(self.block_starts[block + 1]) - row;
                row += take;
                (block, (lo, take))
            })
        });
        self.read_parts(cols, ranges, |col, &(lo, take)| col.slice(lo, take))
    }

    fn gather_inner(&self, cols: Option<&[usize]>, rows: &[usize]) -> StoreResult<Vec<Column>> {
        let mut i = 0;
        let ranges = std::iter::from_fn(|| {
            (i < rows.len()).then(|| {
                let block = self.block_of(rows[i]);
                let (block_start, block_end) =
                    (self.block_starts[block], self.block_starts[block + 1]);
                let mut rel = Vec::new();
                while i < rows.len() && rows[i] >= block_start && rows[i] < block_end {
                    rel.push(rows[i] - block_start);
                    i += 1;
                }
                (block, rel)
            })
        });
        self.read_parts(cols, ranges, |col, rel| col.take(rel))
    }

    /// Materializes the whole table plus its persisted version.
    pub fn materialize(&self) -> StoreResult<(Table, u64)> {
        let cols = self.read_range_inner(None, 0, self.header.total_rows as usize)?;
        let table = Table::new(self.header.schema.clone(), cols).map_err(|e| {
            StoreError::corruption(&self.file_name, format!("decoded table invalid: {e}"))
        })?;
        Ok((table, self.header.version))
    }
}

impl ScanSource for StoreScan {
    fn schema(&self) -> &Schema {
        &self.header.schema
    }

    fn num_rows(&self) -> usize {
        self.header.total_rows as usize
    }

    fn read_range(
        &self,
        cols: Option<&[usize]>,
        start: usize,
        len: usize,
    ) -> EngineResult<Vec<Column>> {
        if start + len > self.header.total_rows as usize {
            return Err(EngineError::Execution(format!(
                "store scan range {start}..{} out of bounds for {} rows",
                start + len,
                self.header.total_rows
            )));
        }
        self.read_range_inner(cols, start, len).map_err(to_engine)
    }

    fn gather(&self, cols: Option<&[usize]>, rows: &[usize]) -> EngineResult<Vec<Column>> {
        if let Some(&max) = rows.iter().max() {
            if max >= self.header.total_rows as usize {
                return Err(EngineError::Execution(format!(
                    "store scan row {max} out of bounds for {} rows",
                    self.header.total_rows
                )));
            }
        }
        self.gather_inner(cols, rows).map_err(to_engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Store;
    use std::path::PathBuf;
    use verdict_engine::TableBuilder;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("verdict_scan_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_table(n: usize) -> Table {
        TableBuilder::new()
            .int_column("id", (0..n as i64).collect())
            .float_column("u", (0..n).map(|i| (i as f64 * 0.731) % 1.0).collect())
            .str_column("tag", (0..n).map(|i| format!("g{}", i % 7)).collect())
            .build()
            .unwrap()
    }

    #[test]
    fn scan_reads_ranges_across_blocks() {
        let dir = tempdir("range");
        let store = Store::open(&dir).unwrap();
        let table = sample_table(70_000);
        store.save_table("t", &table, 1).unwrap();
        let scan = store.open_store_scan("t").unwrap();
        assert_eq!(scan.num_rows(), 70_000);
        // A range straddling the 65_536-row block boundary.
        let cols = scan.read_range(None, 65_000, 1_000).unwrap();
        assert_eq!(cols.len(), 3);
        assert_eq!(cols[0].data().len(), 1_000);
        for i in 0..1_000 {
            assert_eq!(cols[0].value_at(i), table.value(65_000 + i, 0));
        }
        // Projected read in scrambled order.
        let cols = scan.read_range(Some(&[2, 0]), 10, 5).unwrap();
        assert_eq!(cols.len(), 2);
        assert_eq!(cols[1].value_at(0), table.value(10, 0));
        assert_eq!(cols[0].value_at(4), table.value(14, 2));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_gathers_rows_across_blocks() {
        let dir = tempdir("gather");
        let store = Store::open(&dir).unwrap();
        let table = sample_table(70_000);
        store.save_table("t", &table, 1).unwrap();
        let scan = store.open_store_scan("t").unwrap();
        let rows = vec![0usize, 3, 65_535, 65_536, 69_999];
        let cols = scan.gather(None, &rows).unwrap();
        assert_eq!(cols[0].data().len(), rows.len());
        for (out, &r) in rows.iter().enumerate() {
            assert_eq!(cols[0].value_at(out), table.value(r, 0));
            assert_eq!(cols[1].value_at(out), table.value(r, 1));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_is_invalidated_by_replace() {
        let dir = tempdir("invalidate");
        let store = Store::open(&dir).unwrap();
        store.save_table("t", &sample_table(100), 1).unwrap();
        let scan = store.open_store_scan("t").unwrap();
        assert!(scan.read_range(None, 0, 10).is_ok());
        store.save_table("t", &sample_table(200), 2).unwrap();
        let err = scan.read_range(None, 0, 10).unwrap_err();
        assert!(err.to_string().contains("scan invalidated"), "{err}");
        // A fresh scan sees the new generation.
        let scan2 = store.open_store_scan("t").unwrap();
        assert_eq!(scan2.num_rows(), 200);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_survives_append() {
        let dir = tempdir("appendscan");
        let store = Store::open(&dir).unwrap();
        let table = sample_table(100);
        store.save_table("t", &table, 1).unwrap();
        let scan = store.open_store_scan("t").unwrap();
        store.append_rows("t", &sample_table(50), 2).unwrap();
        // The old scan still reads its pinned 100-row generation.
        assert_eq!(scan.num_rows(), 100);
        let cols = scan.read_range(None, 90, 10).unwrap();
        assert_eq!(cols[0].value_at(9), table.value(99, 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn out_of_bounds_reads_are_errors() {
        let dir = tempdir("oob");
        let store = Store::open(&dir).unwrap();
        store.save_table("t", &sample_table(10), 1).unwrap();
        let scan = store.open_store_scan("t").unwrap();
        assert!(scan.read_range(None, 5, 10).is_err());
        assert!(scan.gather(None, &[10]).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
