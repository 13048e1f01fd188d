//! Answers as plain grids of values, so that in-process tables and wire
//! frames are checked by the same code: a bit-exact fingerprint for the
//! identity checks, and the per-cell comparison of an approximate answer
//! with the exact one behind `actual_rel_error_med` and `ci_coverage`.

use std::collections::HashMap;
use verdict_engine::{Table, Value};
use verdict_server::RemoteAnswer;

#[derive(Debug, Clone, Default)]
pub struct Grid {
    pub names: Vec<String>,
    pub rows: Vec<Vec<Value>>,
}

impl Grid {
    pub fn from_table(table: &Table) -> Grid {
        let names = table.schema.fields.iter().map(|f| f.name.clone()).collect();
        let rows = (0..table.num_rows()).map(|r| table.row(r)).collect();
        Grid { names, rows }
    }

    pub fn from_remote(answer: &RemoteAnswer) -> Grid {
        Grid {
            names: answer.columns.clone(),
            rows: answer.rows.clone(),
        }
    }

    /// FNV-1a over column names and every value's variant and bits: two
    /// grids with the same fingerprint are bit-identical for the purposes of
    /// the output checks (floats are compared by bit pattern, so `-0.0`,
    /// `0.0` and different NaNs all differ).
    pub fn fingerprint(&self) -> u64 {
        fingerprint(&self.names, &self.rows)
    }
}

/// [`Grid::fingerprint`] over borrowed parts, so a wire frame can be checked
/// in the request loop without copying its rows.
pub fn fingerprint(names: &[String], rows: &[Vec<Value>]) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.u64(names.len() as u64);
    for name in names {
        h.bytes(name.as_bytes());
    }
    h.u64(rows.len() as u64);
    for value in rows.iter().flatten() {
        match value {
            Value::Null => h.u64(0),
            Value::Int(i) => {
                h.u64(1);
                h.u64(*i as u64);
            }
            Value::Float(f) => {
                h.u64(2);
                h.u64(f.to_bits());
            }
            Value::Str(s) => {
                h.u64(3);
                h.bytes(s.as_bytes());
            }
            Value::Bool(b) => {
                h.u64(4);
                h.u64(*b as u64);
            }
        }
    }
    h.0
}

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        // length terminator, so ("ab","c") and ("a","bc") differ
        self.u64(bytes.len() as u64);
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// One approximated numeric cell compared with the exact answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// |estimate − truth| / |truth|.
    pub actual_rel: f64,
    /// Reported 95% half-width / |estimate|.
    pub claimed_rel: f64,
    /// True when the exact value lies inside estimate ± half-width.
    pub covered: bool,
}

#[derive(Debug, Clone, Default)]
pub struct Accuracy {
    pub cells: Vec<Cell>,
    /// Groups of the exact answer the approximate answer does not have
    /// (a LIMIT over estimated ranks, or a group the scramble missed).
    pub missing_groups: usize,
}

/// Compares an approximate answer carrying `<column>_err` half-widths with
/// the exact answer to the same query.  A column is an aggregate when it has
/// an `_err` companion; every other column is part of the group key, and
/// rows are matched by key.  Cells whose truth is NULL or zero are skipped.
pub fn accuracy(approx: &Grid, exact: &Grid) -> Accuracy {
    let mut aggs: Vec<(usize, usize, usize)> = Vec::new(); // (estimate, half-width, truth)
    let mut approx_keys = Vec::new();
    for (i, name) in approx.names.iter().enumerate() {
        let err_name = format!("{name}_err");
        if let Some(e) = approx.names.iter().position(|n| *n == err_name) {
            if let Some(t) = exact.names.iter().position(|n| n == name) {
                aggs.push((i, e, t));
            }
        } else if !name
            .strip_suffix("_err")
            .is_some_and(|base| approx.names.iter().any(|n| n == base))
        {
            approx_keys.push(i);
        }
    }
    let exact_keys: Vec<usize> = approx_keys
        .iter()
        .filter_map(|&i| exact.names.iter().position(|n| *n == approx.names[i]))
        .collect();
    let key_of = |row: &[Value], cols: &[usize]| -> String {
        cols.iter().map(|&c| format!("{:?}|", row[c])).collect()
    };
    let approx_by_key: HashMap<String, &Vec<Value>> = approx
        .rows
        .iter()
        .map(|row| (key_of(row, &approx_keys), row))
        .collect();
    let mut out = Accuracy::default();
    for truth_row in &exact.rows {
        let Some(row) = approx_by_key.get(&key_of(truth_row, &exact_keys)) else {
            out.missing_groups += 1;
            continue;
        };
        for &(est, err, truth) in &aggs {
            let (Some(est), Some(half), Some(truth)) = (
                row[est].as_f64(),
                row[err].as_f64(),
                truth_row[truth].as_f64(),
            ) else {
                continue;
            };
            if truth.abs() < 1e-12 || !est.is_finite() {
                continue;
            }
            let diff = (est - truth).abs();
            out.cells.push(Cell {
                actual_rel: diff / truth.abs(),
                claimed_rel: half / est.abs(),
                covered: diff <= half,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(names: &[&str], rows: Vec<Vec<Value>>) -> Grid {
        Grid {
            names: names.iter().map(|s| s.to_string()).collect(),
            rows,
        }
    }

    #[test]
    fn fingerprint_is_bit_exact() {
        let a = grid(
            &["k", "v"],
            vec![vec![Value::Str("x".into()), Value::Float(0.0)]],
        );
        let mut b = a.clone();
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.rows[0][1] = Value::Float(-0.0);
        assert_ne!(a.fingerprint(), b.fingerprint());
        let c = grid(&["k", "w"], a.rows.clone());
        assert_ne!(a.fingerprint(), c.fingerprint());
        let int = grid(
            &["k", "v"],
            vec![vec![Value::Str("x".into()), Value::Int(0)]],
        );
        assert_ne!(a.fingerprint(), int.fingerprint());
    }

    #[test]
    fn accuracy_matches_groups_by_key_and_skips_zero_truth() {
        let approx = grid(
            &["city", "n", "n_err", "s", "s_err"],
            vec![
                vec![
                    Value::Str("b".into()),
                    Value::Float(90.0),
                    Value::Float(15.0),
                    Value::Float(5.0),
                    Value::Float(1.0),
                ],
                vec![
                    Value::Str("a".into()),
                    Value::Float(110.0),
                    Value::Float(5.0),
                    Value::Float(1.0),
                    Value::Float(1.0),
                ],
            ],
        );
        let exact = grid(
            &["city", "n", "s"],
            vec![
                vec![Value::Str("a".into()), Value::Int(100), Value::Float(0.0)],
                vec![Value::Str("b".into()), Value::Int(100), Value::Float(4.0)],
                vec![Value::Str("c".into()), Value::Int(1), Value::Float(1.0)],
            ],
        );
        let acc = accuracy(&approx, &exact);
        assert_eq!(acc.missing_groups, 1);
        assert_eq!(acc.cells.len(), 3); // a.s has zero truth
        let a_n = acc.cells[0];
        assert!((a_n.actual_rel - 0.1).abs() < 1e-12 && !a_n.covered);
        let b_n = acc.cells[1];
        assert!((b_n.actual_rel - 0.1).abs() < 1e-12 && b_n.covered);
        assert!((b_n.claimed_rel - 15.0 / 90.0).abs() < 1e-12);
        assert!(acc.cells[2].covered);
    }
}
