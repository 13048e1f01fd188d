//! Sample metadata management.
//!
//! The paper stores sample metadata (names, types, sampling ratios) in a
//! dedicated schema inside the underlying database's catalog (§2.3).
//! [`MetaStore`] keeps the in-memory registry used by the sample planner;
//! [`encode_samples`] / [`decode_samples`] are the blob codec a store-backed
//! context persists it with, so a reopened instance rediscovers the samples
//! an earlier one created.

use crate::error::{VerdictError, VerdictResult};
use crate::sample::{SampleMeta, SampleType};
use parking_lot::RwLock;
use std::collections::HashMap;

/// In-memory registry of sample metadata.
///
/// Each base table's registration carries a version that every register
/// or removal of one of its samples bumps — `CREATE`, `DROP` and `REFRESH
/// SCRAMBLE` all do — so a cached answer can tell that the set of samples
/// a plan could choose from has changed since it was computed.
#[derive(Default)]
pub struct MetaStore {
    tables: RwLock<HashMap<String, Registered>>,
}

/// The samples of one base table, and its registry version.  Kept once a
/// table's last sample goes, so the version never repeats.
#[derive(Default)]
struct Registered {
    samples: Vec<SampleMeta>,
    version: u64,
}

impl MetaStore {
    /// Creates an empty registry.
    pub fn new() -> MetaStore {
        MetaStore::default()
    }

    /// Registers a newly-created sample.
    pub fn register(&self, meta: SampleMeta) {
        let mut tables = self.tables.write();
        let registered = tables
            .entry(meta.base_table.to_ascii_lowercase())
            .or_default();
        registered.samples.push(meta);
        registered.version += 1;
    }

    /// All samples registered for a base table.
    pub fn samples_for(&self, base_table: &str) -> Vec<SampleMeta> {
        self.tables
            .read()
            .get(&base_table.to_ascii_lowercase())
            .map_or_else(Vec::new, |r| r.samples.clone())
    }

    /// The registry version of a base table: 0 until a sample of it is
    /// first registered, then bumped by every register and removal.
    pub fn version(&self, base_table: &str) -> u64 {
        self.tables
            .read()
            .get(&base_table.to_ascii_lowercase())
            .map_or(0, |r| r.version)
    }

    /// All registered samples.
    pub fn all(&self) -> Vec<SampleMeta> {
        let tables = self.tables.read();
        tables.values().flat_map(|r| r.samples.clone()).collect()
    }

    /// Removes every sample registered for a base table, returning the removed metadata.
    pub fn remove_for(&self, base_table: &str) -> Vec<SampleMeta> {
        let mut tables = self.tables.write();
        let Some(registered) = tables.get_mut(&base_table.to_ascii_lowercase()) else {
            return Vec::new();
        };
        let removed = std::mem::take(&mut registered.samples);
        if !removed.is_empty() {
            registered.version += 1;
        }
        removed
    }

    /// Removes the sample registered under the given sample-table name
    /// (case-insensitive), returning its metadata if one existed.
    pub fn remove_sample(&self, sample_table: &str) -> Option<SampleMeta> {
        let mut tables = self.tables.write();
        tables.values_mut().find_map(|registered| {
            let pos = registered
                .samples
                .iter()
                .position(|m| m.sample_table.eq_ignore_ascii_case(sample_table))?;
            registered.version += 1;
            Some(registered.samples.remove(pos))
        })
    }

    /// Total number of registered samples.
    pub fn len(&self) -> usize {
        self.tables.read().values().map(|r| r.samples.len()).sum()
    }

    /// True when no samples are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Serializes sample metadata into the line-oriented format used for the
/// store's `verdict_meta` blob: one tab-separated record per line, with the
/// ratio carried as raw IEEE-754 bits so a reload is bit-exact.
pub fn encode_samples(samples: &[SampleMeta]) -> Vec<u8> {
    let mut out = String::from("verdict-meta-v1\n");
    for m in samples {
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
            m.base_table,
            m.sample_table,
            m.sample_type.tag(),
            m.sample_type.columns().join(","),
            m.ratio.to_bits(),
            m.sample_rows,
            m.base_rows,
            m.appended_rows
        ));
    }
    out.into_bytes()
}

/// Parses a blob written by [`encode_samples`].
pub fn decode_samples(bytes: &[u8]) -> VerdictResult<Vec<SampleMeta>> {
    let text = std::str::from_utf8(bytes)
        .map_err(|_| VerdictError::Metadata("meta blob is not utf-8".into()))?;
    let mut lines = text.lines();
    match lines.next() {
        Some("verdict-meta-v1") => {}
        other => {
            return Err(VerdictError::Metadata(format!(
                "unknown meta blob header {other:?}"
            )));
        }
    }
    let mut out = Vec::new();
    for (i, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() != 8 {
            return Err(VerdictError::Metadata(format!(
                "meta blob line {} has {} fields, expected 8",
                i + 2,
                fields.len()
            )));
        }
        let columns: Vec<String> = if fields[3].is_empty() {
            Vec::new()
        } else {
            fields[3].split(',').map(|s| s.to_string()).collect()
        };
        let sample_type = match fields[2] {
            "uniform" => SampleType::Uniform,
            "hashed" => SampleType::Hashed { columns },
            "stratified" => SampleType::Stratified { columns },
            other => {
                return Err(VerdictError::Metadata(format!(
                    "unknown sample type {other} in meta blob"
                )));
            }
        };
        let int = |s: &str, what: &str| -> VerdictResult<u64> {
            s.parse::<u64>()
                .map_err(|_| VerdictError::Metadata(format!("bad {what} in meta blob: {s}")))
        };
        out.push(SampleMeta {
            base_table: fields[0].to_string(),
            sample_table: fields[1].to_string(),
            sample_type,
            ratio: f64::from_bits(int(fields[4], "ratio bits")?),
            sample_rows: int(fields[5], "sample_rows")?,
            base_rows: int(fields[6], "base_rows")?,
            appended_rows: int(fields[7], "appended_rows")?,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(base: &str, tag: u32) -> SampleMeta {
        SampleMeta {
            base_table: base.into(),
            sample_table: format!("verdict_sample_{base}_{tag}"),
            sample_type: if tag.is_multiple_of(2) {
                SampleType::Uniform
            } else {
                SampleType::Stratified {
                    columns: vec!["city".into()],
                }
            },
            ratio: 0.01,
            sample_rows: 100 + tag as u64,
            base_rows: 10_000,
            appended_rows: 0,
        }
    }

    #[test]
    fn register_and_lookup() {
        let store = MetaStore::new();
        store.register(meta("orders", 0));
        store.register(meta("orders", 1));
        store.register(meta("lineitem", 2));
        assert_eq!(store.samples_for("ORDERS").len(), 2);
        assert_eq!(store.samples_for("lineitem").len(), 1);
        assert_eq!(store.len(), 3);
        assert_eq!(store.remove_for("orders").len(), 2);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn every_register_and_removal_bumps_its_tables_version() {
        let store = MetaStore::new();
        assert_eq!(store.version("orders"), 0);
        store.register(meta("orders", 0));
        store.register(meta("orders", 1));
        store.register(meta("lineitem", 2));
        assert_eq!((store.version("ORDERS"), store.version("lineitem")), (2, 1));
        assert!(store.remove_sample("VERDICT_SAMPLE_ORDERS_0").is_some());
        assert!(store.remove_sample("verdict_sample_orders_0").is_none());
        assert_eq!((store.version("orders"), store.version("lineitem")), (3, 1));
        assert_eq!(store.remove_for("orders").len(), 1);
        assert_eq!(store.version("orders"), 4);
        // Nothing removed, nothing bumped; an emptied table keeps counting.
        assert!(store.remove_for("orders").is_empty());
        assert_eq!(store.version("orders"), 4);
        store.register(meta("orders", 0));
        assert_eq!(store.version("orders"), 5);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn blob_codec_roundtrips_bit_exactly() {
        let samples = vec![
            SampleMeta {
                ratio: 0.1 + 0.2, // not representable exactly: bits must survive
                ..meta("orders", 0)
            },
            SampleMeta {
                appended_rows: 77,
                ..meta("orders", 1)
            },
            SampleMeta {
                sample_type: SampleType::Hashed {
                    columns: vec!["a".into(), "b".into()],
                },
                ..meta("lineitem", 2)
            },
        ];
        let bytes = encode_samples(&samples);
        let back = decode_samples(&bytes).unwrap();
        assert_eq!(back.len(), 3);
        for (b, s) in back.iter().zip(&samples) {
            assert_eq!(b.sample_table, s.sample_table);
            assert_eq!(b.sample_type, s.sample_type);
            assert_eq!(b.ratio.to_bits(), s.ratio.to_bits());
            assert_eq!(b.appended_rows, s.appended_rows);
        }
        assert!(decode_samples(b"not-a-header\n").is_err());
        assert!(decode_samples(b"verdict-meta-v1\nshort\tline\n").is_err());
    }
}
