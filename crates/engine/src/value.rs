//! Scalar values and data types.

use std::cmp::Ordering;
use std::fmt;

/// The data types supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer (`BIGINT`).
    Int,
    /// 64-bit IEEE-754 float (`DOUBLE`).
    Float,
    /// UTF-8 string (`VARCHAR`).
    Str,
    /// Boolean (`BOOLEAN`).
    Bool,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "BIGINT"),
            DataType::Float => write!(f, "DOUBLE"),
            DataType::Str => write!(f, "VARCHAR"),
            DataType::Bool => write!(f, "BOOLEAN"),
        }
    }
}

impl DataType {
    /// The common type two operands are coerced to for arithmetic and comparison.
    pub fn unify(self, other: DataType) -> DataType {
        use DataType::*;
        match (self, other) {
            (Int, Int) => Int,
            (Int, Float) | (Float, Int) | (Float, Float) => Float,
            (Bool, Bool) => Bool,
            (Str, Str) => Str,
            // fall back to string comparison for anything else
            _ => Str,
        }
    }
}

/// A dynamically-typed scalar value.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE-754 float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// The value's data type, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
            Value::Bool(_) => Some(DataType::Bool),
        }
    }

    /// True if the value is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view of the value (bools count as 0/1); `None` for NULL and strings.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// Integer view of the value; floats are truncated toward zero.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) => Some(*f as i64),
            Value::Bool(b) => Some(if *b { 1 } else { 0 }),
            _ => None,
        }
    }

    /// Boolean view of the value; `None` for NULL.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            Value::Int(i) => Some(*i != 0),
            Value::Float(f) => Some(*f != 0.0),
            _ => None,
        }
    }

    /// String view (owned) of the value, rendering numbers; `None` for NULL.
    pub fn as_str_lossy(&self) -> Option<String> {
        match self {
            Value::Null => None,
            Value::Str(s) => Some(s.clone()),
            Value::Int(i) => Some(i.to_string()),
            Value::Float(f) => Some(f.to_string()),
            Value::Bool(b) => Some(b.to_string()),
        }
    }

    /// SQL three-valued comparison; NULL compares as `None`.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            _ => {
                let (a, b) = (self.as_f64()?, other.as_f64()?);
                a.partial_cmp(&b)
            }
        }
    }

    /// Total ordering used by ORDER BY and group-key sorting: NULLs sort first,
    /// then by type-aware comparison; NaN sorts last among floats.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        match (self.is_null(), other.is_null()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
            (false, false) => match (self, other) {
                (Value::Str(a), Value::Str(b)) => a.cmp(b),
                _ => {
                    let a = self.as_f64();
                    let b = other.as_f64();
                    match (a, b) {
                        (Some(x), Some(y)) => x.partial_cmp(&y).unwrap_or(Ordering::Equal),
                        _ => self
                            .as_str_lossy()
                            .unwrap_or_default()
                            .cmp(&other.as_str_lossy().unwrap_or_default()),
                    }
                }
            },
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            _ => match (self.as_f64(), other.as_f64()) {
                (Some(a), Some(b)) => a == b,
                _ => false,
            },
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// A hashable group-by key component: wraps a value so floats and NULLs can be
/// used as hash-map keys (floats are compared by their bit pattern).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum KeyValue {
    /// SQL NULL (NULLs group together).
    Null,
    /// Integer key (integral floats are canonicalised to this variant).
    Int(i64),
    /// Bit pattern of the f64 (canonicalised so `-0.0 == 0.0`).
    Float(u64),
    /// String key.
    Str(String),
    /// Boolean key.
    Bool(bool),
}

impl KeyValue {
    /// Converts a value to its hashable key form.
    pub fn from_value(v: &Value) -> KeyValue {
        match v {
            Value::Null => KeyValue::Null,
            Value::Int(i) => KeyValue::Int(*i),
            Value::Float(f) => {
                let canon = if *f == 0.0 { 0.0f64 } else { *f };
                // integers stored as floats should group together with Int keys
                if canon.fract() == 0.0 && canon.abs() < 9.0e18 {
                    KeyValue::Int(canon as i64)
                } else {
                    KeyValue::Float(canon.to_bits())
                }
            }
            Value::Str(s) => KeyValue::Str(s.clone()),
            Value::Bool(b) => KeyValue::Bool(*b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_coercion_in_equality() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert_ne!(Value::Int(3), Value::Float(3.5));
        assert_ne!(Value::Null, Value::Int(0));
        assert_eq!(Value::Null, Value::Null);
    }

    #[test]
    fn sql_cmp_null_propagates() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Int(1)),
            Some(Ordering::Greater)
        );
        assert_eq!(
            Value::Str("a".into()).sql_cmp(&Value::Str("b".into())),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn total_cmp_sorts_nulls_first() {
        let mut vals = [Value::Int(2), Value::Null, Value::Int(1)];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert!(vals[0].is_null());
        assert_eq!(vals[1], Value::Int(1));
    }

    #[test]
    fn key_value_groups_int_and_float_together() {
        assert_eq!(
            KeyValue::from_value(&Value::Int(5)),
            KeyValue::from_value(&Value::Float(5.0))
        );
        assert_ne!(
            KeyValue::from_value(&Value::Float(5.5)),
            KeyValue::from_value(&Value::Int(5))
        );
    }

    #[test]
    fn type_unification() {
        assert_eq!(DataType::Int.unify(DataType::Float), DataType::Float);
        assert_eq!(DataType::Int.unify(DataType::Int), DataType::Int);
        assert_eq!(DataType::Str.unify(DataType::Int), DataType::Str);
    }
}
