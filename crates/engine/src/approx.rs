//! Native approximate-aggregate sketches.
//!
//! Commercial engines offer sketch-based approximations (`ndv` /
//! `approx_count_distinct` in Impala, `approx_median` / `percentile_disc` in
//! Redshift).  Table 2 of the paper compares VerdictDB's sampling-based
//! approximations against these *full-scan* sketches, so the engine provides
//! a HyperLogLog distinct-count sketch here as that baseline.

use crate::functions::fnv1a_hash_value;
use crate::value::Value;
use std::borrow::Cow;

/// Number of registers = 2^P. P=12 gives a standard error of about 1.6%.
const P: u32 = 12;
const M: usize = 1 << P;

/// A sparse sketch holds at most this many entries: at 4 bytes each that is
/// the size of the dense register array, so a sketch never outgrows it.
const SPARSE_MAX: usize = M / 4;

/// A HyperLogLog cardinality sketch (Flajolet et al., the algorithm the paper
/// cites for count-distinct domain partitioning baselines).
///
/// An empty sketch allocates nothing and a sketch that has seen few values
/// keeps them as a short list, so a grouped aggregation can hold one sketch
/// per group — and one partial sketch per group per morsel — without paying
/// `M` bytes and an `M`-register merge for each.  The estimate depends only
/// on the register contents, never on which form holds them.
#[derive(Debug, Clone)]
pub struct HyperLogLog {
    registers: Registers,
}

#[derive(Debug, Clone)]
enum Registers {
    /// The `(register << 8) | rank` updates seen so far, as they arrived
    /// (duplicates included); at most [`SPARSE_MAX`] of them.
    Sparse(Vec<u32>),
    /// One rank per register.
    Dense(Vec<u8>),
}

impl Default for HyperLogLog {
    fn default() -> Self {
        Self::new()
    }
}

impl HyperLogLog {
    /// Creates an empty sketch.
    pub fn new() -> Self {
        HyperLogLog {
            registers: Registers::Sparse(Vec::new()),
        }
    }

    /// Adds one value to the sketch.
    pub fn add(&mut self, v: &Value) {
        if v.is_null() {
            return;
        }
        self.add_raw_hash(fnv1a_hash_value(v));
    }

    /// Adds a value by its precomputed FNV-1a hash (the typed-column fast
    /// path; must match what [`crate::functions::fnv1a_hash_value`] returns).
    pub fn add_raw_hash(&mut self, raw: u64) {
        let hash = fmix64(raw);
        let idx = (hash >> (64 - P)) as usize;
        let rest = hash << P;
        // rank = position of the leftmost 1-bit in the remaining bits (1-based)
        let rank = if rest == 0 {
            (64 - P + 1) as u8
        } else {
            rest.leading_zeros() as u8 + 1
        };
        self.raise(idx, rank);
    }

    /// `register[idx] = max(register[idx], rank)`.
    fn raise(&mut self, idx: usize, rank: u8) {
        if let Registers::Sparse(entries) = &mut self.registers {
            if entries.len() < SPARSE_MAX {
                entries.push((idx as u32) << 8 | rank as u32);
                return;
            }
        }
        let registers = self.densify();
        registers[idx] = registers[idx].max(rank);
    }

    /// The register array, materialised when the sketch is sparse.
    fn dense(&self) -> Cow<'_, [u8]> {
        match &self.registers {
            Registers::Dense(registers) => Cow::Borrowed(registers),
            Registers::Sparse(entries) => {
                let mut registers = vec![0u8; M];
                for e in entries {
                    let idx = (e >> 8) as usize;
                    registers[idx] = registers[idx].max(*e as u8);
                }
                Cow::Owned(registers)
            }
        }
    }

    /// Switches a sparse sketch to the dense form; returns the registers.
    fn densify(&mut self) -> &mut [u8] {
        if let Registers::Sparse(_) = self.registers {
            self.registers = Registers::Dense(self.dense().into_owned());
        }
        match &mut self.registers {
            Registers::Dense(registers) => registers,
            Registers::Sparse(_) => unreachable!("just made dense"),
        }
    }

    /// Merges another sketch into this one (register-wise max).
    pub fn merge(&mut self, other: &HyperLogLog) {
        match &other.registers {
            Registers::Sparse(entries) => {
                for e in entries {
                    self.raise((e >> 8) as usize, *e as u8);
                }
            }
            Registers::Dense(theirs) => {
                for (a, b) in self.densify().iter_mut().zip(theirs) {
                    *a = (*a).max(*b);
                }
            }
        }
    }

    /// Estimates the number of distinct values added so far.
    pub fn estimate(&self) -> f64 {
        let m = M as f64;
        let alpha = 0.7213 / (1.0 + 1.079 / m);
        let mut sum = 0.0;
        let mut zeros = 0usize;
        for &r in self.dense().iter() {
            sum += 2f64.powi(-(r as i32));
            if r == 0 {
                zeros += 1;
            }
        }
        let raw = alpha * m * m / sum;
        if raw <= 2.5 * m && zeros > 0 {
            // small-range correction (linear counting)
            m * (m / zeros as f64).ln()
        } else {
            raw
        }
    }
}

/// MurmurHash3's 64-bit finalizer: improves the avalanche behaviour of the
/// FNV hash so all 64 bits are usable for register selection and rank.
fn fmix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51afd7ed558ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ceb9fe1a85ec53);
    h ^= h >> 33;
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimates_small_cardinalities_exactly_enough() {
        let mut hll = HyperLogLog::new();
        for i in 0..100 {
            hll.add(&Value::Int(i));
            hll.add(&Value::Int(i)); // duplicates should not matter
        }
        let est = hll.estimate();
        assert!((est - 100.0).abs() < 5.0, "estimate {est} too far from 100");
    }

    #[test]
    fn estimates_large_cardinalities_within_a_few_percent() {
        let mut hll = HyperLogLog::new();
        let n = 200_000;
        for i in 0..n {
            hll.add(&Value::Int(i));
        }
        let est = hll.estimate();
        let rel = (est - n as f64).abs() / n as f64;
        assert!(rel < 0.05, "relative error {rel} too large");
    }

    #[test]
    fn merge_is_union() {
        let mut a = HyperLogLog::new();
        let mut b = HyperLogLog::new();
        for i in 0..5000 {
            a.add(&Value::Int(i));
        }
        for i in 2500..7500 {
            b.add(&Value::Int(i));
        }
        a.merge(&b);
        let est = a.estimate();
        let rel = (est - 7500.0).abs() / 7500.0;
        assert!(rel < 0.05, "relative error {rel} too large after merge");
    }

    #[test]
    fn the_estimate_does_not_depend_on_the_form_or_on_how_values_arrived() {
        for n in [0, 10, SPARSE_MAX - 1, SPARSE_MAX, SPARSE_MAX + 1, 50_000] {
            let mut whole = HyperLogLog::new();
            let mut merged = HyperLogLog::new();
            for chunk in (0..n as i64).collect::<Vec<_>>().chunks(97) {
                let mut partial = HyperLogLog::new();
                for &i in chunk {
                    whole.add(&Value::Int(i));
                    partial.add(&Value::Int(i));
                }
                merged.merge(&partial);
            }
            assert_eq!(
                matches!(whole.registers, Registers::Sparse(_)),
                n <= SPARSE_MAX
            );
            let mut dense = whole.clone();
            dense.densify();
            let mut into_dense = dense.clone();
            into_dense.merge(&merged);
            for other in [&merged, &dense, &into_dense] {
                assert_eq!(whole.estimate().to_bits(), other.estimate().to_bits());
            }
        }
    }

    #[test]
    fn nulls_are_ignored() {
        let mut hll = HyperLogLog::new();
        hll.add(&Value::Null);
        assert!(hll.estimate() < 1.0);
    }
}
