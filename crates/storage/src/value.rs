//! Scalar values and data types.
//!
//! The workloads of OLxPBench only need a small set of SQL types: integers,
//! fixed-point decimals (money), floating point numbers, strings, booleans and
//! timestamps.  [`Value`] is a dynamically typed scalar that implements a
//! *total* ordering (floats are ordered with `f64::total_cmp`) so values can be
//! used inside B-tree index keys.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The declared type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// Fixed-point decimal stored as an integer number of hundredths
    /// (i.e. cents); used for monetary amounts exactly like TPC-C does.
    Decimal,
    /// IEEE-754 double.
    Float,
    /// UTF-8 string (VARCHAR).
    Str,
    /// Boolean.
    Bool,
    /// Timestamp in microseconds since the UNIX epoch.
    Timestamp,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "INT",
            DataType::Decimal => "DECIMAL",
            DataType::Float => "FLOAT",
            DataType::Str => "VARCHAR",
            DataType::Bool => "BOOL",
            DataType::Timestamp => "TIMESTAMP",
        };
        f.write_str(s)
    }
}

/// A dynamically typed scalar value.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// Fixed-point decimal in hundredths (cents).
    Decimal(i64),
    /// IEEE-754 double.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Boolean.
    Bool(bool),
    /// Microseconds since the UNIX epoch.
    Timestamp(i64),
}

impl Value {
    /// Construct a decimal from a floating-point amount (e.g. dollars).
    pub fn decimal_from_f64(amount: f64) -> Value {
        Value::Decimal((amount * 100.0).round() as i64)
    }

    /// Construct a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// The runtime type of this value, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Decimal(_) => Some(DataType::Decimal),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
            Value::Bool(_) => Some(DataType::Bool),
            Value::Timestamp(_) => Some(DataType::Timestamp),
        }
    }

    /// Human-readable type name, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "Null",
            Value::Int(_) => "Int",
            Value::Decimal(_) => "Decimal",
            Value::Float(_) => "Float",
            Value::Str(_) => "Str",
            Value::Bool(_) => "Bool",
            Value::Timestamp(_) => "Timestamp",
        }
    }

    /// True if this value is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Interpret the value as an `i64` if it is numeric.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) | Value::Decimal(v) | Value::Timestamp(v) => Some(*v),
            Value::Bool(b) => Some(i64::from(*b)),
            _ => None,
        }
    }

    /// Interpret the value as an `f64` if it is numeric.
    ///
    /// Decimals are converted back to their fractional representation
    /// (hundredths become units).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) | Value::Timestamp(v) => Some(*v as f64),
            Value::Decimal(v) => Some(*v as f64 / 100.0),
            Value::Float(v) => Some(*v),
            Value::Bool(b) => Some(f64::from(u8::from(*b))),
            _ => None,
        }
    }

    /// Interpret the value as a string slice if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Interpret the value as a bool if it is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Whether the value is compatible with the declared column type.
    ///
    /// NULL is compatible with every type (nullability is enforced separately).
    /// Integers are accepted for decimal and timestamp columns because the
    /// workload generators frequently produce whole-number amounts.
    pub fn compatible_with(&self, dtype: DataType) -> bool {
        matches!(
            (self, dtype),
            (Value::Null, _)
                | (
                    Value::Int(_),
                    DataType::Int | DataType::Decimal | DataType::Timestamp
                )
                | (Value::Decimal(_), DataType::Decimal)
                | (Value::Float(_), DataType::Float)
                | (Value::Str(_), DataType::Str)
                | (Value::Bool(_), DataType::Bool)
                | (Value::Timestamp(_), DataType::Timestamp)
        )
    }

    /// Numeric addition (NULL-propagating). Returns `None` when the operands
    /// are not numeric.
    pub fn checked_add(&self, other: &Value) -> Option<Value> {
        numeric_binop(self, other, |a, b| a + b, |a, b| a + b)
    }

    /// Numeric subtraction (NULL-propagating).
    pub fn checked_sub(&self, other: &Value) -> Option<Value> {
        numeric_binop(self, other, |a, b| a - b, |a, b| a - b)
    }

    /// Rank used to order values of different types, mirroring a permissive
    /// SQL comparison: NULL < booleans < numerics < strings.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Decimal(_) | Value::Float(_) | Value::Timestamp(_) => 2,
            Value::Str(_) => 3,
        }
    }
}

fn numeric_binop(
    a: &Value,
    b: &Value,
    int_op: fn(i64, i64) -> i64,
    float_op: fn(f64, f64) -> f64,
) -> Option<Value> {
    if a.is_null() || b.is_null() {
        return Some(Value::Null);
    }
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Some(Value::Int(int_op(*x, *y))),
        (Value::Decimal(x), Value::Decimal(y)) => Some(Value::Decimal(int_op(*x, *y))),
        (Value::Decimal(x), Value::Int(y)) => Some(Value::Decimal(int_op(*x, y * 100))),
        (Value::Int(x), Value::Decimal(y)) => Some(Value::Decimal(int_op(x * 100, *y))),
        (Value::Timestamp(x), Value::Timestamp(y)) => Some(Value::Timestamp(int_op(*x, *y))),
        _ => {
            let (x, y) = (a.as_f64()?, b.as_f64()?);
            Some(Value::Float(float_op(x, y)))
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Int(a), Int(b)) => a.cmp(b),
            (Decimal(a), Decimal(b)) => a.cmp(b),
            (Timestamp(a), Timestamp(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            // Mixed numeric comparisons go through f64 with a total order.
            (a, b) if a.type_rank() == 2 && b.type_rank() == 2 => {
                let fa = a.as_f64().unwrap_or(f64::NAN);
                let fb = b.as_f64().unwrap_or(f64::NAN);
                fa.total_cmp(&fb)
            }
            (a, b) => a.type_rank().cmp(&b.type_rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            Value::Int(v) => {
                2u8.hash(state);
                v.hash(state);
            }
            Value::Decimal(v) => {
                3u8.hash(state);
                v.hash(state);
            }
            Value::Timestamp(v) => {
                4u8.hash(state);
                v.hash(state);
            }
            Value::Float(v) => {
                5u8.hash(state);
                v.to_bits().hash(state);
            }
            Value::Str(s) => {
                6u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Decimal(v) => write!(f, "{}.{:02}", v / 100, (v % 100).abs()),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Timestamp(v) => write!(f, "ts:{v}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(i64::from(v))
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(i64::from(v))
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_total_for_same_type() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::Str("a".into()) < Value::Str("b".into()));
        assert!(Value::Decimal(100) < Value::Decimal(200));
        assert_eq!(Value::Float(1.5), Value::Float(1.5));
        assert!(Value::Float(f64::NAN) > Value::Float(1.0));
    }

    #[test]
    fn mixed_numeric_ordering_goes_through_f64() {
        assert!(Value::Int(1) < Value::Float(1.5));
        assert!(Value::Decimal(250) > Value::Int(2)); // 2.50 > 2
        assert_eq!(Value::Decimal(200), Value::Int(2));
    }

    #[test]
    fn null_sorts_first() {
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Null < Value::Str(String::new()));
    }

    #[test]
    fn decimal_round_trip_and_display() {
        let v = Value::decimal_from_f64(12.34);
        assert_eq!(v, Value::Decimal(1234));
        assert_eq!(v.to_string(), "12.34");
        assert_eq!(v.as_f64(), Some(12.34));
    }

    #[test]
    fn arithmetic_preserves_decimal_scale() {
        let a = Value::Decimal(1050);
        let b = Value::Int(2);
        assert_eq!(a.checked_add(&b), Some(Value::Decimal(1250)));
        assert_eq!(a.checked_sub(&b), Some(Value::Decimal(850)));
    }

    #[test]
    fn null_propagates_through_arithmetic() {
        assert_eq!(Value::Int(1).checked_add(&Value::Null), Some(Value::Null));
    }

    #[test]
    fn compatibility_rules() {
        assert!(Value::Int(3).compatible_with(DataType::Decimal));
        assert!(Value::Int(3).compatible_with(DataType::Int));
        assert!(!Value::Str("x".into()).compatible_with(DataType::Int));
        assert!(Value::Null.compatible_with(DataType::Str));
    }

    #[test]
    fn hash_consistent_with_eq_for_numerics_of_same_variant() {
        use std::collections::hash_map::DefaultHasher;
        fn h(v: &Value) -> u64 {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        }
        assert_eq!(h(&Value::Int(7)), h(&Value::Int(7)));
        assert_ne!(h(&Value::Int(7)), h(&Value::Int(8)));
    }
}
