//! Typed columnar storage: the fundamental data representation every engine
//! operator consumes and produces.
//!
//! A [`Column`] is a typed vector ([`ColumnData`]) paired with an optional
//! validity bitmap ([`Bitmap`], bit set = value present).  Compared to the
//! previous `Vec<Value>` representation this removes the per-cell enum
//! dispatch and heap boxing from the scan/filter/aggregate hot path: kernels
//! match on the column type **once** and then run tight loops over `&[i64]` /
//! `&[f64]` slices.
//!
//! A [`Value`]-based accessor surface ([`Column::value_at`], [`Column::iter`],
//! [`Column::from_values`]) is kept as a compatibility shim for the
//! planner/rewriter layers, tests, and cold paths.

use crate::selvec::SelVec;
use crate::value::{DataType, Value};
use std::cmp::Ordering;

/// A packed validity bitmap: bit set means the slot holds a value, bit clear
/// means SQL NULL.
#[derive(Debug, Clone, PartialEq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// Creates a bitmap of `len` bits, all set (all valid).
    pub fn new_valid(len: usize) -> Bitmap {
        let mut b = Bitmap {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        b.mask_tail();
        b
    }

    /// Creates a bitmap of `len` bits, all clear (all null).
    pub fn new_null(len: usize) -> Bitmap {
        Bitmap {
            words: vec![0u64; len.div_ceil(64)],
            len,
        }
    }

    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// The packed words (64 bits each, LSB-first), for word-wise combination
    /// with selection vectors.  Bits past `len` in the last word are clear.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// True when the bitmap covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when bit `i` is set (the slot is valid / non-null).
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Sets bit `i` (marks the slot valid).
    #[inline]
    pub fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Clears bit `i` (marks the slot null).
    #[inline]
    pub fn clear(&mut self, i: usize) {
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Pushes one bit at the end.
    pub fn push(&mut self, valid: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        if valid {
            self.words[self.len / 64] |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Number of set (valid) bits.
    pub fn count_valid(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when every bit is set.
    pub fn all_valid(&self) -> bool {
        self.count_valid() == self.len
    }

    /// Word-wise AND of two equal-length bitmaps.
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        debug_assert_eq!(self.len, other.len);
        Bitmap {
            words: self
                .words
                .iter()
                .zip(other.words.iter())
                .map(|(a, b)| a & b)
                .collect(),
            len: self.len,
        }
    }

    /// Gathers bits at `indices` into a new bitmap; `usize::MAX` yields null.
    pub fn take_opt(&self, indices: &[usize]) -> Bitmap {
        let mut out = Bitmap::new_null(indices.len());
        for (pos, &i) in indices.iter().enumerate() {
            if i != usize::MAX && self.get(i) {
                out.set(pos);
            }
        }
        out
    }

    /// Copies the bit range `[start, start + len)` into a new bitmap,
    /// word-wise: whole words when `start` is word-aligned, otherwise each
    /// output word is stitched from two adjacent input words.  This is the
    /// validity half of [`Column::slice`]'s memcpy fast path.
    pub fn slice(&self, start: usize, len: usize) -> Bitmap {
        debug_assert!(start + len <= self.len);
        let first = start / 64;
        let shift = start % 64;
        let nwords = len.div_ceil(64);
        let mut words = Vec::with_capacity(nwords);
        if shift == 0 {
            words.extend_from_slice(&self.words[first..first + nwords]);
        } else {
            for k in 0..nwords {
                let lo = self.words[first + k] >> shift;
                let hi = self
                    .words
                    .get(first + k + 1)
                    .map_or(0, |w| w << (64 - shift));
                words.push(lo | hi);
            }
        }
        let mut out = Bitmap { words, len };
        out.mask_tail();
        out
    }
}

/// Intersects two optional validity bitmaps (`None` = all valid).
pub fn combine_validity(a: Option<&Bitmap>, b: Option<&Bitmap>) -> Option<Bitmap> {
    match (a, b) {
        (None, None) => None,
        (Some(x), None) => Some(x.clone()),
        (None, Some(y)) => Some(y.clone()),
        (Some(x), Some(y)) => Some(x.and(y)),
    }
}

/// The typed value vectors a column can hold.  Null slots hold an arbitrary
/// placeholder (`0`, `0.0`, `""`, `false`) and are masked by the bitmap.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// 64-bit signed integers.
    Int64(Vec<i64>),
    /// 64-bit IEEE-754 floats.
    Float64(Vec<f64>),
    /// UTF-8 strings.
    Utf8(Vec<String>),
    /// Booleans.
    Bool(Vec<bool>),
}

impl ColumnData {
    /// Number of slots.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int64(v) => v.len(),
            ColumnData::Float64(v) => v.len(),
            ColumnData::Utf8(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
        }
    }

    /// True when the vector has no slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The engine-level data type of the vector.
    pub fn data_type(&self) -> DataType {
        match self {
            ColumnData::Int64(_) => DataType::Int,
            ColumnData::Float64(_) => DataType::Float,
            ColumnData::Utf8(_) => DataType::Str,
            ColumnData::Bool(_) => DataType::Bool,
        }
    }

    fn new_empty(dt: DataType) -> ColumnData {
        match dt {
            DataType::Int => ColumnData::Int64(Vec::new()),
            DataType::Float => ColumnData::Float64(Vec::new()),
            DataType::Str => ColumnData::Utf8(Vec::new()),
            DataType::Bool => ColumnData::Bool(Vec::new()),
        }
    }
}

/// A typed column with an optional null bitmap (`None` = no nulls).
#[derive(Debug, Clone)]
pub struct Column {
    data: ColumnData,
    validity: Option<Bitmap>,
}

impl Column {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Builds a column from raw parts, normalising an all-valid bitmap away.
    pub fn from_parts(data: ColumnData, validity: Option<Bitmap>) -> Column {
        let validity = match validity {
            Some(v) if v.all_valid() => None,
            other => other,
        };
        debug_assert!(validity.as_ref().is_none_or(|v| v.len() == data.len()));
        Column { data, validity }
    }

    /// An empty column of the given type.
    pub fn new_empty(dt: DataType) -> Column {
        Column {
            data: ColumnData::new_empty(dt),
            validity: None,
        }
    }

    /// A non-null `i64` column.
    pub fn from_i64(values: Vec<i64>) -> Column {
        Column {
            data: ColumnData::Int64(values),
            validity: None,
        }
    }

    /// A non-null `f64` column.
    pub fn from_f64(values: Vec<f64>) -> Column {
        Column {
            data: ColumnData::Float64(values),
            validity: None,
        }
    }

    /// A non-null string column.
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(values: Vec<String>) -> Column {
        Column {
            data: ColumnData::Utf8(values),
            validity: None,
        }
    }

    /// A non-null boolean column.
    pub fn from_bool(values: Vec<bool>) -> Column {
        Column {
            data: ColumnData::Bool(values),
            validity: None,
        }
    }

    /// A nullable `i64` column.
    pub fn from_opt_i64(values: Vec<Option<i64>>) -> Column {
        let mut validity = Bitmap::new_null(values.len());
        let data = values
            .iter()
            .enumerate()
            .map(|(i, v)| match v {
                Some(x) => {
                    validity.set(i);
                    *x
                }
                None => 0,
            })
            .collect();
        Column::from_parts(ColumnData::Int64(data), Some(validity))
    }

    /// A nullable `f64` column.
    pub fn from_opt_f64(values: Vec<Option<f64>>) -> Column {
        let mut validity = Bitmap::new_null(values.len());
        let data = values
            .iter()
            .enumerate()
            .map(|(i, v)| match v {
                Some(x) => {
                    validity.set(i);
                    *x
                }
                None => 0.0,
            })
            .collect();
        Column::from_parts(ColumnData::Float64(data), Some(validity))
    }

    /// A nullable boolean column.
    pub fn from_opt_bool(values: Vec<Option<bool>>) -> Column {
        let mut validity = Bitmap::new_null(values.len());
        let data = values
            .iter()
            .enumerate()
            .map(|(i, v)| match v {
                Some(x) => {
                    validity.set(i);
                    *x
                }
                None => false,
            })
            .collect();
        Column::from_parts(ColumnData::Bool(data), Some(validity))
    }

    /// A nullable string column.
    pub fn from_opt_str(values: Vec<Option<String>>) -> Column {
        let mut validity = Bitmap::new_null(values.len());
        let data = values
            .into_iter()
            .enumerate()
            .map(|(i, v)| match v {
                Some(x) => {
                    validity.set(i);
                    x
                }
                None => String::new(),
            })
            .collect();
        Column::from_parts(ColumnData::Utf8(data), Some(validity))
    }

    /// An all-null column of `n` rows (stored as a masked `f64` vector; the
    /// physical type never surfaces because every slot is null).
    pub fn nulls(n: usize) -> Column {
        Column {
            data: ColumnData::Float64(vec![0.0; n]),
            validity: Some(Bitmap::new_null(n)),
        }
    }

    /// A column holding `n` copies of one value.
    pub fn repeat(value: &Value, n: usize) -> Column {
        match value {
            Value::Null => Column::nulls(n),
            Value::Int(i) => Column::from_i64(vec![*i; n]),
            Value::Float(f) => Column::from_f64(vec![*f; n]),
            Value::Str(s) => Column::from_str(vec![s.clone(); n]),
            Value::Bool(b) => Column::from_bool(vec![*b; n]),
        }
    }

    /// Builds a column from dynamically-typed values, inferring the narrowest
    /// common type: all-int → `Int64`, numeric mix → `Float64`, all-bool →
    /// `Bool`, anything else → `Utf8` (matching [`DataType::unify`]).
    pub fn from_values(values: &[Value]) -> Column {
        let mut ty: Option<DataType> = None;
        for v in values {
            if let Some(dt) = v.data_type() {
                ty = Some(match ty {
                    None => dt,
                    Some(prev) => prev.unify(dt),
                });
            }
        }
        match ty {
            None => Column::nulls(values.len()),
            Some(dt) => Column::from_values_typed(dt, values),
        }
    }

    /// Builds a column of a specific type from dynamically-typed values,
    /// coercing where possible and nulling out values that do not coerce.
    pub fn from_values_typed(dt: DataType, values: &[Value]) -> Column {
        let mut validity = Bitmap::new_null(values.len());
        let data = match dt {
            DataType::Int => ColumnData::Int64(
                values
                    .iter()
                    .enumerate()
                    .map(|(i, v)| match v.as_i64() {
                        Some(x) => {
                            validity.set(i);
                            x
                        }
                        None => 0,
                    })
                    .collect(),
            ),
            DataType::Float => ColumnData::Float64(
                values
                    .iter()
                    .enumerate()
                    .map(|(i, v)| match v.as_f64() {
                        Some(x) => {
                            validity.set(i);
                            x
                        }
                        None => 0.0,
                    })
                    .collect(),
            ),
            DataType::Bool => ColumnData::Bool(
                values
                    .iter()
                    .enumerate()
                    .map(|(i, v)| match v.as_bool() {
                        Some(x) => {
                            validity.set(i);
                            x
                        }
                        None => false,
                    })
                    .collect(),
            ),
            DataType::Str => ColumnData::Utf8(
                values
                    .iter()
                    .enumerate()
                    .map(|(i, v)| match v.as_str_lossy() {
                        Some(x) => {
                            validity.set(i);
                            x
                        }
                        None => String::new(),
                    })
                    .collect(),
            ),
        };
        Column::from_parts(data, Some(validity))
    }

    // ------------------------------------------------------------------
    // Shape and typed access
    // ------------------------------------------------------------------

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The column's engine-level type.
    pub fn data_type(&self) -> DataType {
        self.data.data_type()
    }

    /// The typed vector.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// The validity bitmap (`None` = no nulls).
    pub fn validity(&self) -> Option<&Bitmap> {
        self.validity.as_ref()
    }

    /// True when row `i` is non-null.
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        self.validity.as_ref().is_none_or(|v| v.get(i))
    }

    /// True when row `i` is SQL NULL.
    #[inline]
    pub fn is_null_at(&self, i: usize) -> bool {
        !self.is_valid(i)
    }

    /// Number of null rows.
    pub fn null_count(&self) -> usize {
        match &self.validity {
            None => 0,
            Some(v) => v.len() - v.count_valid(),
        }
    }

    /// The raw `i64` slice when the column is `Int64`-typed.
    pub fn as_i64s(&self) -> Option<&[i64]> {
        match &self.data {
            ColumnData::Int64(v) => Some(v),
            _ => None,
        }
    }

    /// The raw `f64` slice when the column is `Float64`-typed.
    pub fn as_f64s(&self) -> Option<&[f64]> {
        match &self.data {
            ColumnData::Float64(v) => Some(v),
            _ => None,
        }
    }

    /// The raw string slice when the column is `Utf8`-typed.
    pub fn as_strs(&self) -> Option<&[String]> {
        match &self.data {
            ColumnData::Utf8(v) => Some(v),
            _ => None,
        }
    }

    /// Numeric view of row `i` (`None` for null or non-numeric types; bools
    /// count as 0/1, matching [`Value::as_f64`]).
    #[inline]
    pub fn f64_at(&self, i: usize) -> Option<f64> {
        if !self.is_valid(i) {
            return None;
        }
        match &self.data {
            ColumnData::Int64(v) => Some(v[i] as f64),
            ColumnData::Float64(v) => Some(v[i]),
            ColumnData::Bool(v) => Some(if v[i] { 1.0 } else { 0.0 }),
            ColumnData::Utf8(_) => None,
        }
    }

    /// Boolean view of row `i` (numeric non-zero = true), matching
    /// [`Value::as_bool`].
    #[inline]
    pub fn bool_at(&self, i: usize) -> Option<bool> {
        if !self.is_valid(i) {
            return None;
        }
        match &self.data {
            ColumnData::Bool(v) => Some(v[i]),
            ColumnData::Int64(v) => Some(v[i] != 0),
            ColumnData::Float64(v) => Some(v[i] != 0.0),
            ColumnData::Utf8(_) => None,
        }
    }

    // ------------------------------------------------------------------
    // Value-based compatibility shim
    // ------------------------------------------------------------------

    /// Materialises row `i` as a dynamically-typed [`Value`].
    pub fn value_at(&self, i: usize) -> Value {
        if !self.is_valid(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int64(v) => Value::Int(v[i]),
            ColumnData::Float64(v) => Value::Float(v[i]),
            ColumnData::Utf8(v) => Value::Str(v[i].clone()),
            ColumnData::Bool(v) => Value::Bool(v[i]),
        }
    }

    /// Iterates the rows as materialised [`Value`]s (compatibility shim; the
    /// hot paths use the typed slices instead).
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.value_at(i))
    }

    /// Materialises the whole column as values.
    pub fn to_values(&self) -> Vec<Value> {
        self.iter().collect()
    }

    /// Appends one dynamically-typed value, coercing it to the column's type
    /// (non-coercible values become NULL).
    pub fn push_value(&mut self, v: &Value) {
        let n = self.len();
        let pushed_valid = match (&mut self.data, v) {
            (ColumnData::Int64(d), _) => match v.as_i64() {
                Some(x) => {
                    d.push(x);
                    true
                }
                None => {
                    d.push(0);
                    false
                }
            },
            (ColumnData::Float64(d), _) => match v.as_f64() {
                Some(x) => {
                    d.push(x);
                    true
                }
                None => {
                    d.push(0.0);
                    false
                }
            },
            (ColumnData::Bool(d), _) => match v.as_bool() {
                Some(x) => {
                    d.push(x);
                    true
                }
                None => {
                    d.push(false);
                    false
                }
            },
            (ColumnData::Utf8(d), _) => match v.as_str_lossy() {
                Some(x) => {
                    d.push(x);
                    true
                }
                None => {
                    d.push(String::new());
                    false
                }
            },
        };
        match (&mut self.validity, pushed_valid) {
            (Some(bm), valid) => bm.push(valid),
            (None, true) => {}
            (None, false) => {
                let mut bm = Bitmap::new_valid(n);
                bm.push(false);
                self.validity = Some(bm);
            }
        }
    }

    /// Appends another column's rows, coercing when the types differ.
    ///
    /// A column whose every slot is NULL carries no type information (its
    /// physical type is an arbitrary placeholder), so it adopts the incoming
    /// column's type instead of coercing the incoming values — otherwise an
    /// `INSERT` into a table created from all-NULL output would silently
    /// null out the new rows.
    pub fn append(&mut self, other: &Column) {
        if self.data_type() != other.data_type() && self.null_count() == self.len() {
            let n = self.len();
            let data = match other.data_type() {
                DataType::Int => ColumnData::Int64(vec![0; n]),
                DataType::Float => ColumnData::Float64(vec![0.0; n]),
                DataType::Str => ColumnData::Utf8(vec![String::new(); n]),
                DataType::Bool => ColumnData::Bool(vec![false; n]),
            };
            self.data = data;
            self.validity = Some(Bitmap::new_null(n));
        }
        if self.data_type() == other.data_type() {
            let n = self.len();
            match (&mut self.data, &other.data) {
                (ColumnData::Int64(a), ColumnData::Int64(b)) => a.extend_from_slice(b),
                (ColumnData::Float64(a), ColumnData::Float64(b)) => a.extend_from_slice(b),
                (ColumnData::Utf8(a), ColumnData::Utf8(b)) => a.extend_from_slice(b),
                (ColumnData::Bool(a), ColumnData::Bool(b)) => a.extend_from_slice(b),
                _ => unreachable!("matching data types"),
            }
            if self.validity.is_some() || other.validity.is_some() {
                let mut bm = match self.validity.take() {
                    Some(bm) => bm,
                    None => Bitmap::new_valid(n),
                };
                for i in 0..other.len() {
                    bm.push(other.is_valid(i));
                }
                self.validity = Some(bm);
            }
        } else {
            for i in 0..other.len() {
                self.push_value(&other.value_at(i));
            }
        }
    }

    // ------------------------------------------------------------------
    // Selection kernels
    // ------------------------------------------------------------------

    /// Keeps the rows selected by the packed `mask`: a gather over the set
    /// bits, walked with the selection-vector iterator so sparse masks touch
    /// only the surviving rows.
    pub fn filter(&self, mask: &SelVec) -> Column {
        debug_assert_eq!(mask.len(), self.len());
        let kept = mask.count();
        fn keep<T: Clone>(v: &[T], mask: &SelVec, kept: usize) -> Vec<T> {
            let mut out = Vec::with_capacity(kept);
            mask.for_each_index(|i| out.push(v[i].clone()));
            out
        }
        let data = match &self.data {
            ColumnData::Int64(v) => ColumnData::Int64(keep(v, mask, kept)),
            ColumnData::Float64(v) => ColumnData::Float64(keep(v, mask, kept)),
            ColumnData::Utf8(v) => ColumnData::Utf8(keep(v, mask, kept)),
            ColumnData::Bool(v) => ColumnData::Bool(keep(v, mask, kept)),
        };
        Column {
            data,
            validity: self.validity.as_ref().map(|b| {
                let mut out = Bitmap::new_null(kept);
                let mut pos = 0;
                mask.for_each_index(|i| {
                    if b.get(i) {
                        out.set(pos);
                    }
                    pos += 1;
                });
                out
            }),
        }
    }

    /// Copies the contiguous row range `[start, start + len)` — the
    /// straight-memcpy fast path for block scans, equivalent to
    /// `take(&[start, …, start + len - 1])` without materialising the index
    /// vector or gathering per element.
    pub fn slice(&self, start: usize, len: usize) -> Column {
        debug_assert!(start + len <= self.len());
        let end = start + len;
        let data = match &self.data {
            ColumnData::Int64(v) => ColumnData::Int64(v[start..end].to_vec()),
            ColumnData::Float64(v) => ColumnData::Float64(v[start..end].to_vec()),
            ColumnData::Utf8(v) => ColumnData::Utf8(v[start..end].to_vec()),
            ColumnData::Bool(v) => ColumnData::Bool(v[start..end].to_vec()),
        };
        Column {
            data,
            validity: self.validity.as_ref().map(|b| b.slice(start, len)),
        }
    }

    /// Gathers rows at `indices` (in that order).
    pub fn take(&self, indices: &[usize]) -> Column {
        fn gather<T: Clone>(v: &[T], idx: &[usize]) -> Vec<T> {
            idx.iter().map(|&i| v[i].clone()).collect()
        }
        let data = match &self.data {
            ColumnData::Int64(v) => ColumnData::Int64(gather(v, indices)),
            ColumnData::Float64(v) => ColumnData::Float64(gather(v, indices)),
            ColumnData::Utf8(v) => ColumnData::Utf8(gather(v, indices)),
            ColumnData::Bool(v) => ColumnData::Bool(gather(v, indices)),
        };
        Column {
            data,
            validity: self.validity.as_ref().map(|b| b.take_opt(indices)),
        }
    }

    /// Gathers rows at `indices`, producing NULL where the index is
    /// `usize::MAX` (used by outer joins for unmatched rows).
    pub fn take_opt(&self, indices: &[usize]) -> Column {
        fn gather_opt<T: Clone + Default>(v: &[T], idx: &[usize]) -> Vec<T> {
            idx.iter()
                .map(|&i| {
                    if i == usize::MAX {
                        T::default()
                    } else {
                        v[i].clone()
                    }
                })
                .collect()
        }
        if !indices.contains(&usize::MAX) {
            return self.take(indices);
        }
        let data = match &self.data {
            ColumnData::Int64(v) => ColumnData::Int64(gather_opt(v, indices)),
            ColumnData::Float64(v) => ColumnData::Float64(gather_opt(v, indices)),
            ColumnData::Utf8(v) => ColumnData::Utf8(gather_opt(v, indices)),
            ColumnData::Bool(v) => ColumnData::Bool(gather_opt(v, indices)),
        };
        let mut bm = Bitmap::new_null(indices.len());
        for (pos, &i) in indices.iter().enumerate() {
            if i != usize::MAX && self.is_valid(i) {
                bm.set(pos);
            }
        }
        Column::from_parts(data, Some(bm))
    }

    // ------------------------------------------------------------------
    // Ordering, equality, hashing (sort / group / join keys)
    // ------------------------------------------------------------------

    /// Total order between two rows of this column, matching
    /// [`Value::total_cmp`]: NULLs sort first, then type-aware comparison.
    pub fn cmp_rows(&self, a: usize, b: usize) -> Ordering {
        match (self.is_valid(a), self.is_valid(b)) {
            (false, false) => Ordering::Equal,
            (false, true) => Ordering::Less,
            (true, false) => Ordering::Greater,
            (true, true) => match &self.data {
                ColumnData::Int64(v) => v[a].cmp(&v[b]),
                ColumnData::Float64(v) => v[a].partial_cmp(&v[b]).unwrap_or(Ordering::Equal),
                ColumnData::Utf8(v) => v[a].cmp(&v[b]),
                ColumnData::Bool(v) => v[a].cmp(&v[b]),
            },
        }
    }

    /// Equality between a row of this column and a row of `other` with the
    /// grouping semantics of [`crate::value::KeyValue`]: NULL == NULL, and
    /// integral floats compare equal to the matching integers.
    pub fn loose_eq_rows(&self, i: usize, other: &Column, j: usize) -> bool {
        match (self.is_valid(i), other.is_valid(j)) {
            (false, false) => return true,
            (true, true) => {}
            _ => return false,
        }
        match (&self.data, &other.data) {
            (ColumnData::Int64(a), ColumnData::Int64(b)) => a[i] == b[j],
            (ColumnData::Float64(a), ColumnData::Float64(b)) => {
                // NaNs group together, matching the KeyValue bit-pattern keys
                a[i] == b[j] || (a[i].is_nan() && b[j].is_nan())
            }
            (ColumnData::Int64(a), ColumnData::Float64(b)) => a[i] as f64 == b[j],
            (ColumnData::Float64(a), ColumnData::Int64(b)) => a[i] == b[j] as f64,
            (ColumnData::Utf8(a), ColumnData::Utf8(b)) => a[i] == b[j],
            (ColumnData::Bool(a), ColumnData::Bool(b)) => a[i] == b[j],
            _ => false,
        }
    }

    /// Mixes a canonical per-row hash of this column into `hashes` (one slot
    /// per row).  The canonical form matches
    /// [`crate::functions::fnv1a_hash_value`]: integral floats hash like the
    /// matching integer, so `loose_eq_rows` equality implies hash equality.
    pub fn hash_into(&self, hashes: &mut [u64]) {
        debug_assert_eq!(hashes.len(), self.len());
        self.hash_range_into(0..self.len(), hashes);
    }

    /// Range-restricted [`Column::hash_into`]: mixes the hashes of rows
    /// `range` into `hashes` (one slot per row of the range).  This is the
    /// morsel-level building block of the parallel hashing kernels.
    pub fn hash_range_into(&self, range: std::ops::Range<usize>, hashes: &mut [u64]) {
        debug_assert_eq!(hashes.len(), range.len());
        debug_assert!(range.end <= self.len());
        const PRIME: u64 = 0x100000001b3;
        const NULL_HASH: u64 = 0x9e3779b97f4a7c15;
        #[inline]
        fn mix(h: u64, elem: u64) -> u64 {
            (h ^ elem).wrapping_mul(PRIME).rotate_left(27)
        }
        #[inline]
        fn f64_canonical(x: f64) -> u64 {
            // integral floats (including ±0.0) hash like the matching integer
            if x.fract() == 0.0 && x.abs() < 9.0e18 {
                hash_i64(x as i64)
            } else {
                hash_u64(x.to_bits())
            }
        }
        #[inline]
        fn hash_u64(x: u64) -> u64 {
            // splitmix-style finalizer for good avalanche on small ints
            let mut z = x.wrapping_add(0x9e3779b97f4a7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z ^ (z >> 31)
        }
        #[inline]
        fn hash_i64(x: i64) -> u64 {
            hash_u64(x as u64)
        }
        #[inline]
        fn hash_str(s: &str) -> u64 {
            const OFFSET: u64 = 0xcbf29ce484222325;
            let mut h = OFFSET;
            for b in s.as_bytes() {
                h ^= *b as u64;
                h = h.wrapping_mul(PRIME);
            }
            h
        }
        match &self.data {
            ColumnData::Int64(v) => {
                for (row, h) in range.zip(hashes.iter_mut()) {
                    let e = if self.is_valid(row) {
                        hash_i64(v[row])
                    } else {
                        NULL_HASH
                    };
                    *h = mix(*h, e);
                }
            }
            ColumnData::Float64(v) => {
                for (row, h) in range.zip(hashes.iter_mut()) {
                    let e = if self.is_valid(row) {
                        f64_canonical(v[row])
                    } else {
                        NULL_HASH
                    };
                    *h = mix(*h, e);
                }
            }
            ColumnData::Utf8(v) => {
                for (row, h) in range.zip(hashes.iter_mut()) {
                    let e = if self.is_valid(row) {
                        hash_str(&v[row])
                    } else {
                        NULL_HASH
                    };
                    *h = mix(*h, e);
                }
            }
            ColumnData::Bool(v) => {
                for (row, h) in range.zip(hashes.iter_mut()) {
                    let e = if self.is_valid(row) {
                        hash_u64(v[row] as u64)
                    } else {
                        NULL_HASH
                    };
                    *h = mix(*h, e);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Column-level aggregate kernels (used by global aggregation and the
    // micro-benchmarks)
    // ------------------------------------------------------------------

    /// Sum and count of the valid numeric rows in one typed pass.
    /// Strings contribute nothing (matching `Value::as_f64`).
    pub fn sum_count_f64(&self) -> (f64, u64) {
        self.sum_count_f64_range(0..self.len())
    }

    /// Range-restricted [`Column::sum_count_f64`]: the morsel-level partial
    /// state of the parallel SUM/COUNT/AVG kernel.
    pub fn sum_count_f64_range(&self, range: std::ops::Range<usize>) -> (f64, u64) {
        debug_assert!(range.end <= self.len());
        match (&self.data, &self.validity) {
            (ColumnData::Float64(v), None) => (v[range.clone()].iter().sum(), range.len() as u64),
            (ColumnData::Float64(v), Some(bm)) => {
                let mut s = 0.0;
                let mut c = 0u64;
                for i in range {
                    if bm.get(i) {
                        s += v[i];
                        c += 1;
                    }
                }
                (s, c)
            }
            (ColumnData::Int64(v), None) => (
                v[range.clone()].iter().map(|&x| x as f64).sum(),
                range.len() as u64,
            ),
            (ColumnData::Int64(v), Some(bm)) => {
                let mut s = 0.0;
                let mut c = 0u64;
                for i in range {
                    if bm.get(i) {
                        s += v[i] as f64;
                        c += 1;
                    }
                }
                (s, c)
            }
            (ColumnData::Bool(v), _) => {
                let mut s = 0.0;
                let mut c = 0u64;
                for i in range {
                    if self.is_valid(i) {
                        s += v[i] as u64 as f64;
                        c += 1;
                    }
                }
                (s, c)
            }
            (ColumnData::Utf8(_), _) => (0.0, 0),
        }
    }

    /// Morsel-parallel sum and count: per-morsel partials from
    /// [`Column::sum_count_f64_range`] merged in morsel order, so the result
    /// is bit-identical at any thread count.
    pub fn par_sum_count_f64(&self, pool: &crate::parallel::ThreadPool) -> (f64, u64) {
        let partials = pool.run_morsels(self.len(), |range| self.sum_count_f64_range(range));
        let mut sum = 0.0;
        let mut count = 0u64;
        for (s, c) in partials {
            sum += s;
            count += c;
        }
        (sum, count)
    }

    /// Approximate heap + inline footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        let bitmap = self
            .validity
            .as_ref()
            .map(|b| b.words.len() * 8)
            .unwrap_or(0);
        bitmap
            + match &self.data {
                ColumnData::Int64(v) => v.len() * 8,
                ColumnData::Float64(v) => v.len() * 8,
                ColumnData::Bool(v) => v.len(),
                ColumnData::Utf8(v) => v.iter().map(|s| 24 + s.len()).sum(),
            }
    }
}

/// Logical equality: rows compare as SQL values (so `Int64[5]` equals
/// `Float64[5.0]`), which mirrors the equality of the previous `Vec<Value>`
/// representation that tests and the data generators rely on.
impl PartialEq for Column {
    fn eq(&self, other: &Self) -> bool {
        if self.len() != other.len() {
            return false;
        }
        if self.data_type() == other.data_type()
            && self.validity == other.validity
            && self.data == other.data
        {
            return true;
        }
        (0..self.len()).all(|i| self.value_at(i) == other.value_at(i))
    }
}

impl FromIterator<Value> for Column {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Column {
        let values: Vec<Value> = iter.into_iter().collect();
        Column::from_values(&values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_set_get_push() {
        let mut b = Bitmap::new_valid(70);
        assert!(b.all_valid());
        b.clear(65);
        assert!(!b.get(65));
        assert!(b.get(64));
        assert_eq!(b.count_valid(), 69);
        b.push(false);
        b.push(true);
        assert_eq!(b.len(), 72);
        assert!(!b.get(70));
        assert!(b.get(71));
    }

    #[test]
    fn from_values_infers_types() {
        let c = Column::from_values(&[Value::Int(1), Value::Null, Value::Int(3)]);
        assert_eq!(c.data_type(), DataType::Int);
        assert_eq!(c.null_count(), 1);
        assert_eq!(c.value_at(1), Value::Null);
        assert_eq!(c.value_at(2), Value::Int(3));

        let c = Column::from_values(&[Value::Int(1), Value::Float(2.5)]);
        assert_eq!(c.data_type(), DataType::Float);
        assert_eq!(c.value_at(0), Value::Float(1.0));

        let c = Column::from_values(&[Value::Null, Value::Null]);
        assert!(c.value_at(0).is_null() && c.value_at(1).is_null());
    }

    #[test]
    fn filter_take_preserve_nulls() {
        let c = Column::from_opt_i64(vec![Some(1), None, Some(3), Some(4)]);
        let f = c.filter(&SelVec::from_bools(&[true, true, false, true]));
        assert_eq!(
            f.to_values(),
            vec![Value::Int(1), Value::Null, Value::Int(4)]
        );
        let t = c.take(&[3, 1, 0]);
        assert_eq!(
            t.to_values(),
            vec![Value::Int(4), Value::Null, Value::Int(1)]
        );
        let o = c.take_opt(&[0, usize::MAX, 2]);
        assert_eq!(
            o.to_values(),
            vec![Value::Int(1), Value::Null, Value::Int(3)]
        );
    }

    #[test]
    fn loose_equality_and_hashing_agree_across_numeric_types() {
        let ints = Column::from_i64(vec![5, 7, 0]);
        let floats = Column::from_f64(vec![5.0, 7.5, -0.0]);
        assert!(ints.loose_eq_rows(0, &floats, 0));
        assert!(!ints.loose_eq_rows(1, &floats, 1));
        assert!(ints.loose_eq_rows(2, &floats, 2));

        let mut hi = vec![0u64; 3];
        let mut hf = vec![0u64; 3];
        ints.hash_into(&mut hi);
        floats.hash_into(&mut hf);
        assert_eq!(hi[0], hf[0], "Int 5 and Float 5.0 must hash alike");
        assert_eq!(hi[2], hf[2], "Int 0 and Float -0.0 must hash alike");
        assert_ne!(hi[1], hf[1]);
    }

    #[test]
    fn append_coerces_across_types() {
        let mut c = Column::from_i64(vec![1, 2]);
        c.append(&Column::from_opt_i64(vec![Some(3), None]));
        assert_eq!(
            c.to_values(),
            vec![Value::Int(1), Value::Int(2), Value::Int(3), Value::Null]
        );
        let mut c = Column::from_f64(vec![1.0]);
        c.append(&Column::from_i64(vec![2]));
        assert_eq!(c.to_values(), vec![Value::Float(1.0), Value::Float(2.0)]);
    }

    #[test]
    fn append_into_all_null_column_adopts_incoming_type() {
        let mut c = Column::nulls(2);
        c.append(&Column::from_str(vec!["hello".into()]));
        assert_eq!(c.data_type(), DataType::Str);
        assert_eq!(
            c.to_values(),
            vec![Value::Null, Value::Null, Value::Str("hello".into())]
        );
    }

    #[test]
    fn sum_count_skips_nulls() {
        let c = Column::from_opt_f64(vec![Some(1.5), None, Some(2.5)]);
        assert_eq!(c.sum_count_f64(), (4.0, 2));
        let c = Column::from_i64(vec![1, 2, 3]);
        assert_eq!(c.sum_count_f64(), (6.0, 3));
    }

    #[test]
    fn logical_equality_coerces_numerics() {
        let a = Column::from_i64(vec![1, 2]);
        let b = Column::from_f64(vec![1.0, 2.0]);
        assert_eq!(a, b);
        let c = Column::from_f64(vec![1.0, 2.5]);
        assert_ne!(a, c);
    }
}
