//! The persisted read path against the in-memory table it was saved from.
//!
//! Seeded tables of every column type — NULLs, NaN and -0.0, empty and
//! multi-byte strings — at the row counts where block boundaries fall (0, 1,
//! one short of a block, a block, one past it, three blocks) are saved,
//! re-opened and read back through `read_range` at random ranges, `gather`
//! at random ascending rows and `load_table`.  Every read must equal the
//! matching cut of the in-memory table bit for bit: same type, same NULLs,
//! same value bits (a NULL slot's placeholder included).

use std::path::PathBuf;
use verdict_engine::{
    Bitmap, Column, ColumnData, DataType, Field, ScanSource, Schema, Table, MORSEL_ROWS,
};
use verdict_store::{Store, BLOCK_ROWS};

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("verdict_read_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// SplitMix64: a small seeded generator, enough to pick values and ranges.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// A validity bitmap with about one row in `one_in` NULL.
fn nulls(rng: &mut Rng, n: usize, one_in: usize) -> Option<Bitmap> {
    let mut bitmap = Bitmap::new_valid(n);
    for i in 0..n {
        if rng.below(one_in) == 0 {
            bitmap.clear(i);
        }
    }
    Some(bitmap)
}

fn seeded_table(seed: u64, n: usize) -> Table {
    let mut rng = Rng(seed);
    let floats = [
        f64::NAN,
        -0.0,
        0.0,
        f64::INFINITY,
        f64::MIN_POSITIVE,
        0.1 + 0.2,
    ];
    let strings = ["", "a", "héllo", "日本語", "🦀 crab", "tab\tand\nnewline"];
    let ints: Vec<i64> = (0..n).map(|_| rng.next() as i64).collect();
    let nullable_ints: Vec<i64> = (0..n).map(|_| rng.next() as i64 >> rng.below(64)).collect();
    let fl: Vec<f64> = (0..n)
        .map(|i| match rng.below(4) {
            0 => floats[i % floats.len()],
            _ => f64::from_bits(rng.next()),
        })
        .collect();
    let st: Vec<String> = (0..n)
        .map(|i| match rng.below(3) {
            0 => strings[i % strings.len()].to_string(),
            _ => "x".repeat(rng.below(40)) + &i.to_string(),
        })
        .collect();
    let bo: Vec<bool> = (0..n).map(|_| rng.below(2) == 0).collect();
    let columns = vec![
        Column::from_parts(ColumnData::Int64(ints), None),
        Column::from_parts(ColumnData::Int64(nullable_ints), nulls(&mut rng, n, 7)),
        Column::from_parts(ColumnData::Float64(fl), nulls(&mut rng, n, 5)),
        Column::from_parts(ColumnData::Utf8(st), nulls(&mut rng, n, 3)),
        Column::from_parts(ColumnData::Bool(bo), nulls(&mut rng, n, 2)),
    ];
    let schema = Schema::new(vec![
        Field::new("id", DataType::Int),
        Field::new("k", DataType::Int),
        Field::new("f", DataType::Float),
        Field::new("s", DataType::Str),
        Field::new("b", DataType::Bool),
    ]);
    Table::new(schema, columns).unwrap()
}

/// Asserts `got` equals `want` bit for bit: type, length, every row's
/// validity, and every slot's value bits.
fn assert_bits(got: &Column, want: &Column, what: &str) {
    assert_eq!(got.data_type(), want.data_type(), "{what}: type");
    assert_eq!(got.len(), want.len(), "{what}: length");
    for i in 0..want.len() {
        assert_eq!(
            got.is_valid(i),
            want.is_valid(i),
            "{what}: validity of row {i}"
        );
    }
    match (got.data(), want.data()) {
        (ColumnData::Int64(a), ColumnData::Int64(b)) => assert!(a == b, "{what}: ints"),
        (ColumnData::Float64(a), ColumnData::Float64(b)) => assert!(
            a.iter()
                .map(|v| v.to_bits())
                .eq(b.iter().map(|v| v.to_bits())),
            "{what}: float bits"
        ),
        (ColumnData::Utf8(a), ColumnData::Utf8(b)) => assert!(a == b, "{what}: strings"),
        (ColumnData::Bool(a), ColumnData::Bool(b)) => assert!(a == b, "{what}: bools"),
        _ => unreachable!("types compared above"),
    }
}

/// A random projection: a non-empty subset of the columns in random order,
/// or `None` (all of them).
fn projection(rng: &mut Rng, ncols: usize) -> Option<Vec<usize>> {
    if rng.below(3) == 0 {
        return None;
    }
    let mut cols: Vec<usize> = (0..ncols).filter(|_| rng.below(2) == 0).collect();
    if cols.is_empty() {
        cols.push(rng.below(ncols));
    }
    for i in (1..cols.len()).rev() {
        cols.swap(i, rng.below(i + 1));
    }
    Some(cols)
}

#[test]
fn persisted_reads_equal_the_in_memory_table_bit_for_bit() {
    assert_eq!(BLOCK_ROWS as usize, MORSEL_ROWS);
    let block = MORSEL_ROWS;
    let dir = tempdir("property");
    let store = Store::open(&dir).unwrap();
    for (seed, n) in [
        (1, 0),
        (2, 1),
        (3, block - 1),
        (4, block),
        (5, block + 1),
        (6, 2 * block + block / 3),
    ] {
        let table = seeded_table(seed, n);
        let key = format!("t{seed}");
        store.save_table(&key, &table, seed).unwrap();
        let (loaded, version) = Store::open(&dir).unwrap().load_table(&key).unwrap();
        assert_eq!(version, seed);
        for (c, col) in loaded.columns.iter().enumerate() {
            assert_bits(col, &table.columns[c], &format!("n={n} load col {c}"));
        }

        let mut rng = Rng(seed * 1000);
        let scan = store.open_store_scan(&key).unwrap();
        assert_eq!(scan.num_rows(), n);
        for round in 0..24 {
            let cols = projection(&mut rng, table.columns.len());
            let picked: Vec<usize> = cols.clone().unwrap_or_else(|| (0..5).collect());
            // Ranges inside one block, across a boundary, and empty.
            let start = rng.below(n + 1);
            let len = rng.below((n - start).min(block + block / 2) + 1);
            let got = scan.read_range(cols.as_deref(), start, len).unwrap();
            assert_eq!(got.len(), picked.len());
            for (g, &c) in got.iter().zip(&picked) {
                let want = table.columns[c].slice(start, len);
                assert_bits(
                    g,
                    &want,
                    &format!("n={n} round {round} range {start}+{len} col {c}"),
                );
            }
            // Ascending rows, dense in some rounds and sparse in others.
            let density = 1 + rng.below(2000);
            let rows: Vec<usize> = (0..n).filter(|_| rng.below(density) == 0).collect();
            let got = scan.gather(cols.as_deref(), &rows).unwrap();
            assert_eq!(got.len(), picked.len());
            for (g, &c) in got.iter().zip(&picked) {
                let want = table.columns[c].take(&rows);
                assert_bits(
                    g,
                    &want,
                    &format!("n={n} round {round} gather {} col {c}", rows.len()),
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
