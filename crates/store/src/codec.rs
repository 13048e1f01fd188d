//! Byte-level codec for schemas and column segments.
//!
//! Encoding is deliberately simple and bit-exact: `Float64` values travel as
//! their raw IEEE-754 bits (`f64::to_bits`), so a value read back from disk
//! compares bitwise-equal to the value that was written — the property the
//! restart-durability acceptance test depends on.  Null bitmaps are stored
//! as their LSB-first `u64` words.
//!
//! All decode paths go through [`ByteReader`], which turns any truncation or
//! impossible length into a typed corruption error instead of panicking.

use crate::error::{StoreError, StoreResult};
use verdict_engine::{Bitmap, Column, ColumnData, DataType, Field, Schema};

/// Growable little-endian byte sink.
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends raw bytes with no length prefix.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
}

/// Bounds-checked little-endian byte source.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    file: String,
}

impl<'a> ByteReader<'a> {
    /// Wraps `buf`; `file` names the source for corruption errors.
    pub fn new(buf: &'a [u8], file: &str) -> ByteReader<'a> {
        ByteReader {
            buf,
            pos: 0,
            file: file.to_string(),
        }
    }

    fn take(&mut self, n: usize) -> StoreResult<&'a [u8]> {
        if n > self.remaining() {
            return Err(StoreError::corruption(
                &self.file,
                format!(
                    "truncated record: need {n} bytes at offset {}, have {}",
                    self.pos,
                    self.buf.len() - self.pos
                ),
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Remaining unread bytes.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> StoreResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> StoreResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> StoreResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> StoreResult<String> {
        let len = self.get_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StoreError::corruption(&self.file, "string is not valid utf-8"))
    }

    /// Reads `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> StoreResult<&'a [u8]> {
        self.take(n)
    }

    /// Reads `count` fixed-width little-endian items of `width` bytes each,
    /// after one length check for all of them.
    pub(crate) fn get_array(
        &mut self,
        count: usize,
        width: usize,
    ) -> StoreResult<std::slice::ChunksExact<'a, u8>> {
        let n = count.checked_mul(width).ok_or_else(|| {
            StoreError::corruption(&self.file, format!("{count} items of {width} bytes"))
        })?;
        Ok(self.take(n)?.chunks_exact(width))
    }

    /// Fails unless `count` items of at least `min_width` bytes each can
    /// still follow, so a count read off disk never sizes an allocation
    /// larger than the bytes that back it.
    pub(crate) fn check_count(
        &self,
        count: usize,
        min_width: usize,
        what: &str,
    ) -> StoreResult<()> {
        if count > self.remaining() / min_width {
            return Err(StoreError::corruption(
                &self.file,
                format!(
                    "{count} {what} cannot fit in the {} bytes left",
                    self.remaining()
                ),
            ));
        }
        Ok(())
    }
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().unwrap())
}

fn type_tag(dt: DataType) -> u8 {
    match dt {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Str => 2,
        DataType::Bool => 3,
    }
}

fn tag_type(tag: u8, file: &str) -> StoreResult<DataType> {
    match tag {
        0 => Ok(DataType::Int),
        1 => Ok(DataType::Float),
        2 => Ok(DataType::Str),
        3 => Ok(DataType::Bool),
        t => Err(StoreError::corruption(
            file,
            format!("unknown type tag {t}"),
        )),
    }
}

/// Encodes a schema (field names, qualifiers, and types).
pub fn encode_schema(schema: &Schema, w: &mut ByteWriter) {
    w.put_u32(schema.len() as u32);
    for field in &schema.fields {
        w.put_str(&field.name);
        match &field.qualifier {
            Some(q) => {
                w.put_u8(1);
                w.put_str(q);
            }
            None => w.put_u8(0),
        }
        w.put_u8(type_tag(field.data_type));
    }
}

/// Decodes a schema written by [`encode_schema`].
pub fn decode_schema(r: &mut ByteReader<'_>, file: &str) -> StoreResult<Schema> {
    let ncols = r.get_u32()? as usize;
    if ncols > 100_000 {
        return Err(StoreError::corruption(
            file,
            format!("schema declares {ncols} columns"),
        ));
    }
    // name length, qualifier marker, type tag
    r.check_count(ncols, 4 + 1 + 1, "columns")?;
    let mut fields = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let name = r.get_str()?;
        let qualifier = if r.get_u8()? == 1 {
            Some(r.get_str()?)
        } else {
            None
        };
        let data_type = tag_type(r.get_u8()?, file)?;
        let mut field = Field::new(&name, data_type);
        field.qualifier = qualifier;
        fields.push(field);
    }
    Ok(Schema::new(fields))
}

/// Encodes one column segment: type tag, row count, optional null bitmap,
/// then the raw values.
pub fn encode_column(col: &Column, w: &mut ByteWriter) {
    w.put_u8(type_tag(col.data_type()));
    let nrows = col.data().len();
    w.put_u32(nrows as u32);
    match col.validity() {
        Some(bitmap) => {
            w.put_u8(1);
            for word in bitmap.words() {
                w.put_u64(*word);
            }
        }
        None => w.put_u8(0),
    }
    match col.data() {
        ColumnData::Int64(vals) => {
            for v in vals {
                w.put_u64(*v as u64);
            }
        }
        ColumnData::Float64(vals) => {
            for v in vals {
                w.put_u64(v.to_bits());
            }
        }
        ColumnData::Utf8(vals) => {
            for v in vals {
                w.put_str(v);
            }
        }
        ColumnData::Bool(vals) => {
            for v in vals {
                w.put_u8(u8::from(*v));
            }
        }
    }
}

/// Decodes one column segment written by [`encode_column`].  Every buffer
/// it allocates is sized from bytes already checked to be present, so a
/// row count read off disk cannot ask for more memory than the segment
/// holds.
pub fn decode_column(r: &mut ByteReader<'_>, file: &str) -> StoreResult<Column> {
    let dt = tag_type(r.get_u8()?, file)?;
    let nrows = r.get_u32()? as usize;
    let has_validity = r.get_u8()?;
    let validity = match has_validity {
        0 => None,
        1 => {
            let words = r.get_array(nrows.div_ceil(64), 8)?;
            let tail = nrows % 64;
            let last = words.clone().last().map_or(0, le_u64);
            if tail != 0 && last >> tail != 0 {
                let idx = nrows + (last >> tail).trailing_zeros() as usize;
                return Err(StoreError::corruption(
                    file,
                    format!("validity bit {idx} set beyond {nrows} rows"),
                ));
            }
            let mut bitmap = Bitmap::new_null(nrows);
            for (i, word) in words.map(le_u64).enumerate() {
                let mut w = word;
                while w != 0 {
                    bitmap.set(i * 64 + w.trailing_zeros() as usize);
                    w &= w - 1;
                }
            }
            Some(bitmap)
        }
        v => {
            return Err(StoreError::corruption(
                file,
                format!("invalid validity marker {v}"),
            ));
        }
    };
    let data = match dt {
        DataType::Int => {
            ColumnData::Int64(r.get_array(nrows, 8)?.map(|b| le_u64(b) as i64).collect())
        }
        DataType::Float => ColumnData::Float64(
            r.get_array(nrows, 8)?
                .map(|b| f64::from_bits(le_u64(b)))
                .collect(),
        ),
        DataType::Str => {
            // each value carries at least its 4-byte length prefix
            r.check_count(nrows, 4, "strings")?;
            let mut vals = Vec::with_capacity(nrows);
            for _ in 0..nrows {
                vals.push(r.get_str()?);
            }
            ColumnData::Utf8(vals)
        }
        DataType::Bool => ColumnData::Bool(r.get_bytes(nrows)?.iter().map(|&b| b != 0).collect()),
    };
    Ok(Column::from_parts(data, validity))
}

#[cfg(test)]
mod tests {
    use super::*;
    use verdict_engine::Value;

    fn roundtrip(col: &Column) -> Column {
        let mut w = ByteWriter::new();
        encode_column(col, &mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "t");
        let back = decode_column(&mut r, "t").unwrap();
        assert_eq!(r.remaining(), 0);
        back
    }

    #[test]
    fn int_column_roundtrip() {
        let col = Column::from_parts(ColumnData::Int64(vec![1, -7, i64::MAX, i64::MIN]), None);
        let back = roundtrip(&col);
        for i in 0..4 {
            assert_eq!(back.value_at(i), col.value_at(i));
        }
    }

    #[test]
    fn float_column_roundtrip_is_bit_exact() {
        let vals = vec![0.1 + 0.2, -0.0, f64::MIN_POSITIVE, 1e308, f64::NAN];
        let col = Column::from_parts(ColumnData::Float64(vals.clone()), None);
        let back = roundtrip(&col);
        match back.data() {
            ColumnData::Float64(got) => {
                for (g, v) in got.iter().zip(&vals) {
                    assert_eq!(g.to_bits(), v.to_bits());
                }
            }
            _ => panic!("wrong type"),
        }
    }

    #[test]
    fn nullable_string_column_roundtrip() {
        let mut bitmap = Bitmap::new_null(3);
        bitmap.set(0);
        bitmap.set(2);
        let col = Column::from_parts(
            ColumnData::Utf8(vec!["a".into(), String::new(), "héllo".into()]),
            Some(bitmap),
        );
        let back = roundtrip(&col);
        assert_eq!(back.null_count(), 1);
        assert_eq!(back.value_at(0), Value::Str("a".into()));
        assert_eq!(back.value_at(1), Value::Null);
        assert_eq!(back.value_at(2), Value::Str("héllo".into()));
    }

    #[test]
    fn bool_and_empty_columns_roundtrip() {
        let col = Column::from_parts(ColumnData::Bool(vec![true, false, true]), None);
        let back = roundtrip(&col);
        assert_eq!(back.value_at(2), Value::Bool(true));
        let empty = Column::new_empty(DataType::Str);
        let back = roundtrip(&empty);
        assert_eq!(back.data().len(), 0);
    }

    #[test]
    fn schema_roundtrip_preserves_qualifiers() {
        let mut f1 = Field::new("id", DataType::Int);
        f1.qualifier = Some("s".into());
        let schema = Schema::new(vec![f1, Field::new("price", DataType::Float)]);
        let mut w = ByteWriter::new();
        encode_schema(&schema, &mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "t");
        let back = decode_schema(&mut r, "t").unwrap();
        assert_eq!(back.fields.len(), 2);
        assert_eq!(back.fields[0].qualifier.as_deref(), Some("s"));
        assert_eq!(back.fields[1].name, "price");
        assert_eq!(back.fields[1].data_type, DataType::Float);
    }

    /// A segment that declares `u32::MAX` rows over 10 bytes is corruption
    /// for every type, with or without a validity bitmap — never an
    /// allocation sized from the row count.
    #[test]
    fn an_impossible_row_count_is_corruption_not_an_allocation() {
        for tag in [
            DataType::Int,
            DataType::Float,
            DataType::Str,
            DataType::Bool,
        ]
        .map(type_tag)
        {
            for validity in [0u8, 1] {
                let mut w = ByteWriter::new();
                w.put_u8(tag);
                w.put_u32(u32::MAX);
                w.put_u8(validity);
                w.put_bytes(&[0; 4]);
                let bytes = w.into_bytes();
                assert_eq!(bytes.len(), 10);
                let err = decode_column(&mut ByteReader::new(&bytes, "t"), "t").unwrap_err();
                assert!(err.is_corruption(), "tag {tag} validity {validity}: {err}");
            }
        }
    }

    #[test]
    fn a_validity_bit_past_the_last_row_is_corruption() {
        let mut bitmap = Bitmap::new_null(3);
        bitmap.set(1);
        let col = Column::from_parts(ColumnData::Int64(vec![1, 2, 3]), Some(bitmap));
        let mut w = ByteWriter::new();
        encode_column(&col, &mut w);
        let mut bytes = w.into_bytes();
        bytes[6] |= 1 << 3; // row 3 of a 3-row segment
        let err = decode_column(&mut ByteReader::new(&bytes, "t"), "t").unwrap_err();
        assert!(
            err.to_string().contains("validity bit 3 set beyond 3 rows"),
            "{err}"
        );
    }

    #[test]
    fn truncated_column_is_corruption() {
        let col = Column::from_parts(ColumnData::Int64(vec![1, 2, 3]), None);
        let mut w = ByteWriter::new();
        encode_column(&col, &mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..bytes.len() - 4], "t");
        assert!(decode_column(&mut r, "t").unwrap_err().is_corruption());
    }
}
