//! Redo-only write-ahead log.
//!
//! Every mutation of the store — `CREATE SCRAMBLE`, a `REFRESH` append
//! batch, a full rebuild, a drop — is a transaction of full-page images:
//!
//! ```text
//! BEGIN(txid)
//! PAGE(file, page_no, image)*     -- full 8 KiB encoded page images
//! REMOVE(file)*                   -- whole-file deletion (rebuild/drop)
//! COMMIT(txid)
//! ```
//!
//! The commit protocol is: append the whole transaction to the log, `fsync`
//! the log (this is the commit point), then apply the images to the data
//! files, `fsync` those, and truncate the log (checkpoint).  Recovery on
//! open replays committed transactions in order and discards any torn tail
//! — a transaction without its `COMMIT` record never touches a data file,
//! so a crash at any instant leaves every table either fully old or fully
//! new.
//!
//! Record framing (all integers little-endian):
//!
//! ```text
//! [ kind: u8 ][ txid: u64 ][ payload_len: u32 ][ payload ][ checksum: u64 ]
//! ```
//!
//! The checksum is FNV-1a 64 over kind, txid, and payload bytes, so a torn
//! or partially-written record at the tail is detected rather than replayed.
//!
//! Records keep FNV-1a although pages moved to XXH64 (format 2): the log
//! carries no format marker, so a new record checksum would make a log left
//! by a crashed older build read as one torn tail, and recovery would drop
//! its committed transactions without a word.  The log is small (a REFRESH
//! logs a few dozen page images), so its checksum is not on a hot path.

use crate::codec::{ByteReader, ByteWriter};
use crate::error::{StoreError, StoreResult};
use crate::page::PAGE_SIZE;
use crate::store::Counters;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Name of the log file inside the store directory.
pub const WAL_FILE: &str = "wal.log";

const KIND_BEGIN: u8 = 1;
const KIND_PAGE: u8 = 2;
const KIND_REMOVE: u8 = 3;
const KIND_COMMIT: u8 = 4;

/// One logged operation inside a transaction.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// Write a full page image at `page_no` of `file`.
    Page {
        /// Data file name (relative to the store directory).
        file: String,
        /// Page number within the file.
        page_no: u64,
        /// The full [`PAGE_SIZE`] encoded page image.
        image: Vec<u8>,
    },
    /// Delete `file` entirely (ignored if already absent).
    Remove {
        /// Data file name (relative to the store directory).
        file: String,
    },
}

/// The write-ahead log plus the fsync/apply machinery around it.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    dir: PathBuf,
    file: File,
    next_txid: u64,
    stats: Arc<Counters>,
}

/// FNV-1a 64-bit hash (the WAL record checksum).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn encode_record(kind: u8, txid: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + 8 + 4 + payload.len() + 8);
    out.push(kind);
    out.extend_from_slice(&txid.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let mut hashed = Vec::with_capacity(1 + 8 + payload.len());
    hashed.push(kind);
    hashed.extend_from_slice(&txid.to_le_bytes());
    hashed.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a(&hashed).to_le_bytes());
    out
}

struct RawRecord {
    kind: u8,
    txid: u64,
    payload: Vec<u8>,
}

/// Parses one record at `buf[pos..]`.  Returns `None` on a clean end or any
/// torn/corrupt tail — recovery treats both identically (discard the tail).
fn parse_record(buf: &[u8], pos: usize) -> Option<(RawRecord, usize)> {
    let header = 1 + 8 + 4;
    if pos + header > buf.len() {
        return None;
    }
    let kind = buf[pos];
    let txid = u64::from_le_bytes(buf[pos + 1..pos + 9].try_into().unwrap());
    let len = u32::from_le_bytes(buf[pos + 9..pos + 13].try_into().unwrap()) as usize;
    let end = pos + header + len + 8;
    if end > buf.len() {
        return None;
    }
    let payload = &buf[pos + header..pos + header + len];
    let checksum = u64::from_le_bytes(buf[end - 8..end].try_into().unwrap());
    let mut hashed = Vec::with_capacity(1 + 8 + len);
    hashed.push(kind);
    hashed.extend_from_slice(&txid.to_le_bytes());
    hashed.extend_from_slice(payload);
    if fnv1a(&hashed) != checksum {
        return None;
    }
    Some((
        RawRecord {
            kind,
            txid,
            payload: payload.to_vec(),
        },
        end,
    ))
}

fn decode_op(rec: &RawRecord) -> StoreResult<WalOp> {
    let mut r = ByteReader::new(&rec.payload, WAL_FILE);
    match rec.kind {
        KIND_PAGE => {
            let file = r.get_str()?;
            let page_no = r.get_u64()?;
            let image = r.get_bytes(PAGE_SIZE)?.to_vec();
            Ok(WalOp::Page {
                file,
                page_no,
                image,
            })
        }
        KIND_REMOVE => Ok(WalOp::Remove { file: r.get_str()? }),
        k => Err(StoreError::corruption(
            WAL_FILE,
            format!("unexpected op kind {k}"),
        )),
    }
}

fn apply_ops(dir: &Path, ops: &[WalOp], stats: &Counters) -> StoreResult<Vec<String>> {
    let mut touched = Vec::new();
    for op in ops {
        match op {
            WalOp::Page {
                file,
                page_no,
                image,
            } => {
                let path = dir.join(file);
                let mut f = OpenOptions::new()
                    .read(true)
                    .write(true)
                    .create(true)
                    .truncate(false)
                    .open(&path)?;
                f.seek(SeekFrom::Start(page_no * PAGE_SIZE as u64))?;
                f.write_all(image)?;
                stats.page_written();
                if !touched.contains(file) {
                    touched.push(file.clone());
                }
            }
            WalOp::Remove { file } => {
                let path = dir.join(file);
                match std::fs::remove_file(&path) {
                    Ok(()) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(e) => return Err(e.into()),
                }
                touched.retain(|t| t != file);
            }
        }
    }
    Ok(touched)
}

fn sync_files(dir: &Path, touched: &[String]) -> StoreResult<()> {
    for file in touched {
        let f = File::open(dir.join(file))?;
        f.sync_data()?;
    }
    Ok(())
}

impl Wal {
    /// Opens the log inside `dir`, replaying any committed transactions left
    /// behind by a crash, then truncating the log.  Returns the WAL plus the
    /// list of data files touched by recovery (callers re-read their
    /// headers).
    pub fn open(dir: &Path, stats: Arc<Counters>) -> StoreResult<(Wal, Vec<String>)> {
        let path = dir.join(WAL_FILE);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;

        let mut touched = Vec::new();
        if !buf.is_empty() {
            let mut pos = 0;
            let mut open_txns: BTreeMap<u64, Vec<WalOp>> = BTreeMap::new();
            let mut committed: Vec<Vec<WalOp>> = Vec::new();
            while let Some((rec, next)) = parse_record(&buf, pos) {
                pos = next;
                match rec.kind {
                    KIND_BEGIN => {
                        open_txns.insert(rec.txid, Vec::new());
                    }
                    KIND_PAGE | KIND_REMOVE => {
                        if let Some(ops) = open_txns.get_mut(&rec.txid) {
                            ops.push(decode_op(&rec)?);
                        }
                    }
                    KIND_COMMIT => {
                        if let Some(ops) = open_txns.remove(&rec.txid) {
                            committed.push(ops);
                        }
                    }
                    _ => break, // unknown kind: treat like a torn tail
                }
            }
            for ops in &committed {
                for t in apply_ops(dir, ops, &stats)? {
                    if !touched.contains(&t) {
                        touched.push(t);
                    }
                }
            }
            sync_files(dir, &touched)?;
            if !committed.is_empty() {
                stats.recovery();
            }
            file.set_len(0)?;
            file.sync_all()?;
            stats.checkpoint();
        }

        file.seek(SeekFrom::End(0))?;
        Ok((
            Wal {
                path,
                dir: dir.to_path_buf(),
                file,
                next_txid: 1,
                stats,
            },
            touched,
        ))
    }

    /// Commits a transaction: logs it durably, applies the page images to
    /// the data files, fsyncs them, and checkpoints (truncates) the log.
    pub fn commit(&mut self, ops: &[WalOp]) -> StoreResult<()> {
        let txid = self.next_txid;
        self.next_txid += 1;

        let mut batch = Vec::new();
        batch.extend_from_slice(&encode_record(KIND_BEGIN, txid, &[]));
        for op in ops {
            let mut w = ByteWriter::new();
            let kind = match op {
                WalOp::Page {
                    file,
                    page_no,
                    image,
                } => {
                    w.put_str(file);
                    w.put_u64(*page_no);
                    w.put_bytes(image);
                    KIND_PAGE
                }
                WalOp::Remove { file } => {
                    w.put_str(file);
                    KIND_REMOVE
                }
            };
            batch.extend_from_slice(&encode_record(kind, txid, &w.into_bytes()));
        }
        batch.extend_from_slice(&encode_record(KIND_COMMIT, txid, &[]));

        self.file.write_all(&batch)?;
        self.file.sync_data()?; // commit point
        self.stats.wal_synced(ops.len() as u64 + 2);

        let touched = apply_ops(&self.dir, ops, &self.stats)?;
        sync_files(&self.dir, &touched)?;

        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.sync_all()?;
        self.stats.checkpoint();
        Ok(())
    }

    /// Appends a transaction to the log durably WITHOUT applying or
    /// checkpointing it.  Only used by crash tests to simulate dying between
    /// the commit point and the data-file apply.
    pub fn log_only_for_test(&mut self, ops: &[WalOp]) -> StoreResult<()> {
        let txid = self.next_txid;
        self.next_txid += 1;
        let mut batch = Vec::new();
        batch.extend_from_slice(&encode_record(KIND_BEGIN, txid, &[]));
        for op in ops {
            let mut w = ByteWriter::new();
            let kind = match op {
                WalOp::Page {
                    file,
                    page_no,
                    image,
                } => {
                    w.put_str(file);
                    w.put_u64(*page_no);
                    w.put_bytes(image);
                    KIND_PAGE
                }
                WalOp::Remove { file } => {
                    w.put_str(file);
                    KIND_REMOVE
                }
            };
            batch.extend_from_slice(&encode_record(kind, txid, &w.into_bytes()));
        }
        batch.extend_from_slice(&encode_record(KIND_COMMIT, txid, &[]));
        self.file.write_all(&batch)?;
        self.file.sync_data()?;
        Ok(())
    }

    /// Path of the log file (used by crash tests to truncate it mid-record).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::encode_page;
    use crate::store::Counters;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("verdict_wal_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn page_op(file: &str, page_no: u64, fill: u8) -> WalOp {
        WalOp::Page {
            file: file.to_string(),
            page_no,
            image: encode_page(&[fill; 64]),
        }
    }

    #[test]
    fn commit_applies_pages_and_checkpoints() {
        let dir = tempdir("commit");
        let stats = Arc::new(Counters::default());
        let (mut wal, touched) = Wal::open(&dir, stats.clone()).unwrap();
        assert!(touched.is_empty());
        wal.commit(&[page_op("a.tbl", 0, 7), page_op("a.tbl", 1, 9)])
            .unwrap();
        // Pages landed in the data file and the log is empty again.
        let meta = std::fs::metadata(dir.join("a.tbl")).unwrap();
        assert_eq!(meta.len(), 2 * PAGE_SIZE as u64);
        assert_eq!(std::fs::metadata(dir.join(WAL_FILE)).unwrap().len(), 0);
        let snap = stats.snapshot();
        assert_eq!(snap.pages_written, 2);
        assert!(snap.wal_syncs >= 1);
        assert!(snap.checkpoints >= 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_replays_committed_and_discards_uncommitted() {
        let dir = tempdir("recover");
        let stats = Arc::new(Counters::default());
        {
            let (mut wal, _) = Wal::open(&dir, stats.clone()).unwrap();
            // Committed txn logged but never applied (simulated crash after
            // the commit point).
            wal.log_only_for_test(&[page_op("b.tbl", 0, 3)]).unwrap();
            // Torn tail: a BEGIN + PAGE with no COMMIT.
            let mut torn = Vec::new();
            torn.extend_from_slice(&encode_record(KIND_BEGIN, 99, &[]));
            let mut w = ByteWriter::new();
            w.put_str("c.tbl");
            w.put_u64(0);
            w.put_bytes(&encode_page(&[1, 2, 3]));
            torn.extend_from_slice(&encode_record(KIND_PAGE, 99, &w.into_bytes()));
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(wal.path()).unwrap();
            f.write_all(&torn).unwrap();
            f.sync_data().unwrap();
        }
        let (_wal, touched) = Wal::open(&dir, Arc::new(Counters::default())).unwrap();
        assert_eq!(touched, vec!["b.tbl".to_string()]);
        assert!(dir.join("b.tbl").exists());
        assert!(!dir.join("c.tbl").exists());
        assert_eq!(std::fs::metadata(dir.join(WAL_FILE)).unwrap().len(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_stops_at_corrupt_record() {
        let dir = tempdir("corrupt");
        {
            let (mut wal, _) = Wal::open(&dir, Arc::new(Counters::default())).unwrap();
            wal.log_only_for_test(&[page_op("d.tbl", 0, 5)]).unwrap();
            wal.log_only_for_test(&[page_op("e.tbl", 0, 6)]).unwrap();
            // Flip a byte inside the second transaction's page payload.
            let len = std::fs::metadata(wal.path()).unwrap().len();
            let mut bytes = std::fs::read(wal.path()).unwrap();
            let target = (len / 2) as usize + 200;
            bytes[target] ^= 0xff;
            std::fs::write(wal.path(), &bytes).unwrap();
        }
        let (_wal, _) = Wal::open(&dir, Arc::new(Counters::default())).unwrap();
        // First txn replayed; corrupt tail (second txn) discarded, no panic.
        assert!(dir.join("d.tbl").exists());
        assert!(!dir.join("e.tbl").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn remove_op_deletes_files_and_tolerates_missing() {
        let dir = tempdir("remove");
        let (mut wal, _) = Wal::open(&dir, Arc::new(Counters::default())).unwrap();
        wal.commit(&[page_op("f.tbl", 0, 1)]).unwrap();
        assert!(dir.join("f.tbl").exists());
        wal.commit(&[
            WalOp::Remove {
                file: "f.tbl".into(),
            },
            WalOp::Remove {
                file: "never_existed.tbl".into(),
            },
        ])
        .unwrap();
        assert!(!dir.join("f.tbl").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
