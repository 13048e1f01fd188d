//! On-disk layout of one persisted table: `<key>.tbl`.
//!
//! A table file is a sequence of checksummed pages ([`crate::page`]).  The
//! first `header_pages` pages hold the header; data pages follow.
//!
//! Header payload (concatenated across the header pages):
//!
//! ```text
//! magic "VDBSTOR1"  | format: u32 (=2) | page_size: u32 | header_pages: u32
//! data_version: u64 | block_rows: u32  | total_rows: u64
//! schema            | nblocks: u32
//! per block:  rows: u32, then per column: first_page u64, npages u32, nbytes u64
//! ```
//!
//! Rows are grouped into blocks of at most `block_rows` rows (sized to the
//! engine's morsel so progressive `BlockScan` streams block-at-a-time), and
//! each block stores one contiguous *column segment* per column.  Every
//! segment starts on a page boundary, so a scan that only needs the filter
//! columns touches only those columns' pages.
//!
//! The header reserves slack pages (at least double the space it currently
//! needs), so an append — which only adds whole new blocks after the last
//! data page and rewrites the directory — usually never moves data pages.
//! If the directory outgrows the reservation, the caller falls back to a
//! full rewrite.

use crate::codec::{
    decode_column, decode_schema, encode_column, encode_schema, ByteReader, ByteWriter,
};
use crate::error::{StoreError, StoreResult};
use crate::page::{
    encode_page, pages_for, read_payload, read_raw_pages, split_payload, verify_pages, PAGE_HEADER,
    PAGE_SIZE,
};
use crate::wal::WalOp;
use std::io::{Read, Seek};
use verdict_engine::{Schema, Table};

/// File-format magic for table files.
pub const TABLE_MAGIC: &[u8; 8] = b"VDBSTOR1";
/// Current table file format version: 2 checksums pages with XXH64 (1 used
/// FNV-1a, and is refused by name).
pub const FORMAT_VERSION: u32 = 2;

/// Location of one column segment within the file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnChunk {
    /// First page of the segment.
    pub first_page: u64,
    /// Number of pages the segment occupies.
    pub npages: u32,
    /// Logical payload length in bytes (excludes page padding).
    pub nbytes: u64,
}

/// Directory entry for one block of rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockDir {
    /// Number of rows in this block.
    pub rows: u32,
    /// One chunk per column, in schema order.
    pub chunks: Vec<ColumnChunk>,
}

/// Decoded header of a table file.
#[derive(Debug, Clone, PartialEq)]
pub struct TableHeader {
    /// Catalog data version persisted with the table.
    pub version: u64,
    /// Maximum rows per block.
    pub block_rows: u32,
    /// Total rows across all blocks.
    pub total_rows: u64,
    /// Pages reserved for the header (data pages start here).
    pub header_pages: u32,
    /// Table schema.
    pub schema: Schema,
    /// Block directory.
    pub blocks: Vec<BlockDir>,
}

impl TableHeader {
    /// First page past the last data page (where an append starts writing).
    pub fn end_page(&self) -> u64 {
        let mut end = self.header_pages as u64;
        for block in &self.blocks {
            for chunk in &block.chunks {
                end = end.max(chunk.first_page + chunk.npages as u64);
            }
        }
        end
    }

    /// Cumulative row offsets: `starts[i]` is the absolute row index of the
    /// first row of block `i`, with a final entry equal to `total_rows`.
    pub fn block_starts(&self) -> Vec<usize> {
        let mut starts = Vec::with_capacity(self.blocks.len() + 1);
        let mut acc = 0usize;
        for block in &self.blocks {
            starts.push(acc);
            acc += block.rows as usize;
        }
        starts.push(acc);
        starts
    }
}

/// Data file name for a table key.
pub fn table_file_name(key: &str) -> String {
    format!("{key}.tbl")
}

fn encode_header_payload(header: &TableHeader) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_bytes(TABLE_MAGIC);
    w.put_u32(FORMAT_VERSION);
    w.put_u32(PAGE_SIZE as u32);
    w.put_u32(header.header_pages);
    w.put_u64(header.version);
    w.put_u32(header.block_rows);
    w.put_u64(header.total_rows);
    encode_schema(&header.schema, &mut w);
    w.put_u32(header.blocks.len() as u32);
    for block in &header.blocks {
        w.put_u32(block.rows);
        for chunk in &block.chunks {
            w.put_u64(chunk.first_page);
            w.put_u32(chunk.npages);
            w.put_u64(chunk.nbytes);
        }
    }
    w.into_bytes()
}

/// Encodes the header into exactly `header.header_pages` page-image WAL ops.
/// Fails if the directory no longer fits the reservation (the caller then
/// falls back to a full rewrite).
pub fn header_ops(header: &TableHeader, file: &str) -> Option<Vec<WalOp>> {
    let payload = encode_header_payload(header);
    if pages_for(payload.len()) > header.header_pages as u64 {
        return None;
    }
    let mut chunks = split_payload(&payload);
    while chunks.len() < header.header_pages as usize {
        chunks.push(&[]);
    }
    Some(
        chunks
            .iter()
            .enumerate()
            .map(|(i, c)| WalOp::Page {
                file: file.to_string(),
                page_no: i as u64,
                image: encode_page(c),
            })
            .collect(),
    )
}

/// Refuses page 0 of a file that is not a table file of this format, by
/// its magic and version, before the page checksum is checked: how a page
/// is checksummed depends on the format, so an older file would otherwise
/// read as a checksum mismatch instead of as the format it is.
fn check_format(raw: &[u8], file: &str) -> StoreResult<()> {
    let head = &raw[PAGE_HEADER..PAGE_HEADER + 12];
    if head[..8] != TABLE_MAGIC[..] {
        return Err(StoreError::corruption(file, "bad magic"));
    }
    let format = u32::from_le_bytes(head[8..12].try_into().unwrap());
    if format != FORMAT_VERSION {
        return Err(StoreError::corruption(
            file,
            format!("table file in format version {format}; this build reads format version {FORMAT_VERSION}"),
        ));
    }
    Ok(())
}

/// Reads and validates the header of an open table file.
pub fn read_header<F: Read + Seek>(f: &mut F, file: &str) -> StoreResult<TableHeader> {
    let raw = read_raw_pages(f, 0, 1, file)?;
    check_format(&raw, file)?;
    let mut payload = verify_pages(raw, 0, file)?;
    let mut r = ByteReader::new(&payload, file);
    let _ = r.get_bytes(8 + 4)?; // magic, format
    let page_size = r.get_u32()?;
    if page_size != PAGE_SIZE as u32 {
        return Err(StoreError::corruption(
            file,
            format!("page size {page_size}, expected {PAGE_SIZE}"),
        ));
    }
    let header_pages = r.get_u32()?;
    if header_pages == 0 || header_pages > 1 << 20 {
        return Err(StoreError::corruption(
            file,
            format!("implausible header page count {header_pages}"),
        ));
    }
    // Read the rest of the header payload, then re-parse from the top so
    // multi-page headers work uniformly.
    if header_pages > 1 {
        let rest = read_raw_pages(f, 1, header_pages as u64 - 1, file)?;
        payload.extend_from_slice(&verify_pages(rest, 1, file)?);
    }
    let mut r = ByteReader::new(&payload, file);
    let _ = r.get_bytes(8 + 4 + 4 + 4)?; // magic, format, page size, header pages
    let version = r.get_u64()?;
    let block_rows = r.get_u32()?;
    let total_rows = r.get_u64()?;
    let schema = decode_schema(&mut r, file)?;
    let nblocks = r.get_u32()? as usize;
    // rows, then first_page / npages / nbytes per column
    r.check_count(nblocks, 4 + schema.len() * (8 + 4 + 8), "blocks")?;
    let mut blocks = Vec::with_capacity(nblocks);
    let mut rows_sum = 0u64;
    for _ in 0..nblocks {
        let rows = r.get_u32()?;
        rows_sum += rows as u64;
        let mut chunks = Vec::with_capacity(schema.len());
        for _ in 0..schema.len() {
            chunks.push(ColumnChunk {
                first_page: r.get_u64()?,
                npages: r.get_u32()?,
                nbytes: r.get_u64()?,
            });
        }
        blocks.push(BlockDir { rows, chunks });
    }
    if rows_sum != total_rows {
        return Err(StoreError::corruption(
            file,
            format!("directory rows {rows_sum} != recorded total {total_rows}"),
        ));
    }
    Ok(TableHeader {
        version,
        block_rows,
        total_rows,
        header_pages,
        schema,
        blocks,
    })
}

/// Encodes the column segments of `table` split into blocks of at most
/// `block_rows` rows.  Returns per-block per-column encoded byte buffers.
fn encode_blocks(table: &Table, block_rows: u32) -> Vec<(u32, Vec<Vec<u8>>)> {
    let nrows = table.num_rows();
    let mut out = Vec::new();
    let mut start = 0usize;
    loop {
        let len = (nrows - start).min(block_rows as usize);
        if len == 0 && !out.is_empty() {
            break;
        }
        let mut segments = Vec::with_capacity(table.columns.len());
        for col in &table.columns {
            let mut w = ByteWriter::new();
            encode_column(&col.slice(start, len), &mut w);
            segments.push(w.into_bytes());
        }
        out.push((len as u32, segments));
        start += len;
        if start >= nrows {
            break;
        }
    }
    out
}

/// Lays out encoded blocks starting at `first_free_page`, producing the
/// directory entries and the page-image WAL ops for the data pages.
fn layout_blocks(
    encoded: &[(u32, Vec<Vec<u8>>)],
    first_free_page: u64,
    file: &str,
) -> (Vec<BlockDir>, Vec<WalOp>) {
    let mut page = first_free_page;
    let mut dirs = Vec::with_capacity(encoded.len());
    let mut ops = Vec::new();
    for (rows, segments) in encoded {
        let mut chunks = Vec::with_capacity(segments.len());
        for bytes in segments {
            let npages = pages_for(bytes.len());
            chunks.push(ColumnChunk {
                first_page: page,
                npages: npages as u32,
                nbytes: bytes.len() as u64,
            });
            for (i, chunk) in split_payload(bytes).iter().enumerate() {
                ops.push(WalOp::Page {
                    file: file.to_string(),
                    page_no: page + i as u64,
                    image: encode_page(chunk),
                });
            }
            page += npages;
        }
        dirs.push(BlockDir {
            rows: *rows,
            chunks,
        });
    }
    (dirs, ops)
}

/// Builds the complete set of WAL ops for a full table write: a `Remove` of
/// any previous file, the header pages, and every data page.
pub fn build_full(
    key: &str,
    table: &Table,
    version: u64,
    block_rows: u32,
) -> (TableHeader, Vec<WalOp>) {
    let file = table_file_name(key);
    let encoded = encode_blocks(table, block_rows);

    // Directory size is independent of the page numbers (fixed-width
    // fields), so size the header with placeholder positions first.
    let placeholder: Vec<BlockDir> = encoded
        .iter()
        .map(|(rows, segments)| BlockDir {
            rows: *rows,
            chunks: segments
                .iter()
                .map(|b| ColumnChunk {
                    first_page: 0,
                    npages: pages_for(b.len()) as u32,
                    nbytes: b.len() as u64,
                })
                .collect(),
        })
        .collect();
    let mut header = TableHeader {
        version,
        block_rows,
        total_rows: table.num_rows() as u64,
        header_pages: 1,
        schema: table.schema.clone(),
        blocks: placeholder,
    };
    let needed = pages_for(encode_header_payload(&header).len());
    header.header_pages = (needed * 2).max(needed + 2) as u32;

    let (dirs, data_ops) = layout_blocks(&encoded, header.header_pages as u64, &file);
    header.blocks = dirs;

    let mut ops = vec![WalOp::Remove { file: file.clone() }];
    ops.extend(header_ops(&header, &file).expect("reserved header pages must fit"));
    ops.extend(data_ops);
    (header, ops)
}

/// Builds the WAL ops for an append: new blocks after the current end page
/// plus rewritten header pages.  Returns `None` when the grown directory no
/// longer fits the header reservation — the caller must do a full rewrite.
pub fn build_append(
    key: &str,
    current: &TableHeader,
    rows: &Table,
) -> Option<(TableHeader, Vec<WalOp>)> {
    let file = table_file_name(key);
    let encoded = encode_blocks(rows, current.block_rows);
    let (dirs, data_ops) = layout_blocks(&encoded, current.end_page(), &file);
    let mut header = current.clone();
    header.total_rows += rows.num_rows() as u64;
    header.blocks.extend(dirs);
    let mut ops = header_ops(&header, &file)?;
    ops.extend(data_ops);
    Some((header, ops))
}

/// Reads one column segment back as a decoded [`verdict_engine::Column`].
pub fn read_chunk<F: Read + Seek>(
    f: &mut F,
    chunk: &ColumnChunk,
    file: &str,
    pages_read: &mut u64,
) -> StoreResult<verdict_engine::Column> {
    let payload = read_payload(
        f,
        chunk.first_page,
        chunk.npages as u64,
        chunk.nbytes as usize,
        file,
    )?;
    *pages_read += chunk.npages as u64;
    let mut r = ByteReader::new(&payload, file);
    decode_column(&mut r, file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Cursor, Write};
    use verdict_engine::TableBuilder;

    fn sample_table(n: usize) -> Table {
        TableBuilder::new()
            .int_column("id", (0..n as i64).collect())
            .float_column("price", (0..n).map(|i| i as f64 * 0.25 + 0.1).collect())
            .build()
            .unwrap()
    }

    fn materialize(ops: &[WalOp]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for op in ops {
            if let WalOp::Page { page_no, image, .. } = op {
                let end = (*page_no as usize + 1) * PAGE_SIZE;
                if bytes.len() < end {
                    bytes.resize(end, 0);
                }
                bytes[*page_no as usize * PAGE_SIZE..end].copy_from_slice(image);
            }
        }
        bytes
    }

    fn read_all(bytes: &[u8], header: &TableHeader) -> Table {
        let mut cur = Cursor::new(bytes.to_vec());
        let mut table = Table::empty(header.schema.clone());
        let mut pages = 0u64;
        for block in &header.blocks {
            let cols: Vec<_> = block
                .chunks
                .iter()
                .map(|c| read_chunk(&mut cur, c, "t", &mut pages).unwrap())
                .collect();
            let part = Table::new(header.schema.clone(), cols).unwrap();
            table.append(&part).unwrap();
        }
        table
    }

    #[test]
    fn full_write_roundtrips_through_header_and_chunks() {
        let table = sample_table(1000);
        let (header, ops) = build_full("t", &table, 7, 256);
        let bytes = materialize(&ops);
        let mut cur = Cursor::new(bytes.clone());
        let back_header = read_header(&mut cur, "t").unwrap();
        assert_eq!(back_header, header);
        assert_eq!(back_header.version, 7);
        assert_eq!(back_header.total_rows, 1000);
        assert_eq!(back_header.blocks.len(), 4); // ceil(1000/256)
        let back = read_all(&bytes, &back_header);
        assert_eq!(back.num_rows(), 1000);
        for i in [0usize, 255, 256, 999] {
            assert_eq!(back.value(i, 0), table.value(i, 0));
            assert_eq!(back.value(i, 1), table.value(i, 1));
        }
    }

    #[test]
    fn append_adds_blocks_without_moving_existing_pages() {
        let table = sample_table(500);
        let (header, ops) = build_full("t", &table, 1, 200);
        let before = materialize(&ops);
        let more = sample_table(300);
        let (header2, ops2) = build_append("t", &header, &more).unwrap();
        assert_eq!(header2.total_rows, 800);
        // Appended ops never touch pages below the previous end page, except
        // the header pages.
        for op in &ops2 {
            if let WalOp::Page { page_no, .. } = op {
                assert!(
                    *page_no < header.header_pages as u64 || *page_no >= header.end_page(),
                    "append touched data page {page_no}"
                );
            }
        }
        let mut bytes = before;
        for op in &ops2 {
            if let WalOp::Page { page_no, image, .. } = op {
                let end = (*page_no as usize + 1) * PAGE_SIZE;
                if bytes.len() < end {
                    bytes.resize(end, 0);
                }
                bytes[*page_no as usize * PAGE_SIZE..end].copy_from_slice(image);
            }
        }
        let mut cur = Cursor::new(bytes.clone());
        let back_header = read_header(&mut cur, "t").unwrap();
        assert_eq!(back_header.total_rows, 800);
        let back = read_all(&bytes, &back_header);
        assert_eq!(back.value(500, 0), more.value(0, 0));
        assert_eq!(back.value(799, 1), more.value(299, 1));
    }

    #[test]
    fn empty_table_roundtrips() {
        let table = sample_table(0);
        let (header, ops) = build_full("t", &table, 1, 256);
        assert_eq!(header.total_rows, 0);
        let bytes = materialize(&ops);
        let mut cur = Cursor::new(bytes.clone());
        let back_header = read_header(&mut cur, "t").unwrap();
        let back = read_all(&bytes, &back_header);
        assert_eq!(back.num_rows(), 0);
        assert_eq!(back.schema.len(), 2);
    }

    /// Reads the header and then every column segment of a table file.
    fn read_everything(bytes: &[u8]) -> StoreResult<()> {
        let mut cur = Cursor::new(bytes);
        let header = read_header(&mut cur, "t")?;
        let mut pages = 0;
        for block in &header.blocks {
            for chunk in &block.chunks {
                read_chunk(&mut cur, chunk, "t", &mut pages)?;
            }
        }
        Ok(())
    }

    fn small_table() -> Table {
        TableBuilder::new()
            .int_column("id", (0..10).collect())
            .float_column("u", (0..10).map(|i| i as f64 / 3.0).collect())
            .str_column("s", (0..10).map(|i| format!("é{i}")).collect())
            .build()
            .unwrap()
    }

    #[test]
    fn a_format_1_file_is_refused_by_its_version() {
        let (_, ops) = build_full("t", &small_table(), 1, 256);
        let bytes = materialize(&ops);
        read_everything(&bytes).unwrap();
        let old =
            crate::page::in_format_1(&bytes, |p| p[8..12].copy_from_slice(&1u32.to_le_bytes()));
        let err = read_header(&mut Cursor::new(&old), "t").unwrap_err();
        assert!(err.is_corruption(), "{err}");
        assert!(err.to_string().contains("format version 1"), "{err}");
        // The data pages are the same bytes in both formats; only the
        // checksum fields differ.
        for (a, b) in bytes.chunks(PAGE_SIZE).zip(old.chunks(PAGE_SIZE)).skip(1) {
            assert_eq!(a[..4], b[..4]);
            assert_eq!(a[PAGE_HEADER..], b[PAGE_HEADER..]);
        }
    }

    /// Every byte a page's checksum or length covers, flipped alone, in
    /// the header pages and in the data pages, reads as corruption.
    #[test]
    fn every_single_byte_flip_reads_as_corruption() {
        let (header, ops) = build_full("t", &small_table(), 1, 256);
        let mut bytes = materialize(&ops);
        assert!(header.end_page() > header.header_pages as u64);
        read_everything(&bytes).unwrap();
        let mut flips = 0;
        for page in 0..bytes.len() / PAGE_SIZE {
            let at = page * PAGE_SIZE;
            let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
            for i in at..at + PAGE_HEADER + len {
                bytes[i] ^= 0xff;
                match read_everything(&bytes) {
                    Err(e) if e.is_corruption() => {}
                    other => panic!("flip at page {page} byte {}: {other:?}", i - at),
                }
                bytes[i] ^= 0xff;
                flips += 1;
            }
        }
        assert!(flips > 300, "{flips}");
        read_everything(&bytes).unwrap();
    }

    #[test]
    fn header_corruption_is_typed() {
        let table = sample_table(10);
        let (_, ops) = build_full("t", &table, 1, 256);
        let mut bytes = materialize(&ops);
        bytes[40] ^= 0x01; // inside page 0 payload
        let mut cur = Cursor::new(bytes);
        assert!(read_header(&mut cur, "t").unwrap_err().is_corruption());
        // Truncated file: only half of page 0.
        let table = sample_table(10);
        let (_, ops) = build_full("t", &table, 1, 256);
        let bytes = materialize(&ops);
        let mut cur = Cursor::new(bytes[..100].to_vec());
        assert!(read_header(&mut cur, "t").unwrap_err().is_corruption());
        let _ = std::io::sink().flush();
    }
}
