//! Rows: ordered collections of [`Value`]s matching a table schema.

use crate::schema::TableSchema;
use crate::value::Value;
use crate::{StorageError, StorageResult};
use std::fmt;
use std::ops::Index;

/// A single table row.
///
/// A row stores its values in schema column order.  Rows are cheap to clone for
/// small tuples; large rows are normally passed around behind `Arc<Row>` by the
/// row store.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Row {
    values: Vec<Value>,
}

impl Row {
    /// Create a row from a vector of values.
    pub fn new(values: Vec<Value>) -> Row {
        Row { values }
    }

    /// Create an empty row with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Row {
        Row {
            values: Vec::with_capacity(cap),
        }
    }

    /// Number of columns in the row.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// True when the row holds no values.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Append a value (builder style).
    pub fn push(&mut self, value: Value) {
        self.values.push(value);
    }

    /// Borrow the value at `idx`, or `None` if out of bounds.
    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.values.get(idx)
    }

    /// Replace the value at `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is out of bounds (programming error in a workload).
    pub fn set(&mut self, idx: usize, value: Value) {
        self.values[idx] = value;
    }

    /// Borrow all values.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Project the row onto the given column indices (cloning the values).
    pub fn project(&self, indices: &[usize]) -> Row {
        let mut values = Vec::with_capacity(indices.len());
        for &i in indices {
            values.push(self.values[i].clone());
        }
        Row::new(values)
    }

    /// Validate the row against a schema: arity, type compatibility and
    /// nullability.
    pub fn validate(&self, schema: &TableSchema) -> StorageResult<()> {
        if self.arity() != schema.columns().len() {
            return Err(StorageError::ArityMismatch {
                expected: schema.columns().len(),
                got: self.arity(),
            });
        }
        for (value, col) in self.values.iter().zip(schema.columns()) {
            if value.is_null() {
                if !col.nullable {
                    return Err(StorageError::NullViolation {
                        column: col.name.clone(),
                    });
                }
                continue;
            }
            if !value.compatible_with(col.dtype) {
                return Err(StorageError::TypeMismatch {
                    column: col.name.clone(),
                    expected: match col.dtype {
                        crate::schema::DataType::Int => "Int",
                        crate::schema::DataType::Decimal => "Decimal",
                        crate::schema::DataType::Float => "Float",
                        crate::schema::DataType::Str => "Str",
                        crate::schema::DataType::Bool => "Bool",
                        crate::schema::DataType::Timestamp => "Timestamp",
                    },
                    got: value.type_name(),
                });
            }
        }
        Ok(())
    }

    /// Approximate in-memory size of this row in bytes, used by the buffer-pool
    /// model to convert rows into pages.
    pub fn approx_bytes(&self) -> usize {
        self.values
            .iter()
            .map(|v| match v {
                Value::Str(s) => 24 + s.len(),
                _ => 16,
            })
            .sum()
    }
}

impl Index<usize> for Row {
    type Output = Value;

    fn index(&self, index: usize) -> &Value {
        &self.values[index]
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row::new(values)
    }
}

impl FromIterator<Value> for Row {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Row::new(iter.into_iter().collect())
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// Convenience macro for building rows in workloads and tests:
/// `row![1, "abc", Value::Decimal(100)]`.
#[macro_export]
macro_rules! row {
    ($($v:expr),* $(,)?) => {
        $crate::Row::new(vec![$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, DataType, TableSchema};

    fn schema() -> TableSchema {
        TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", DataType::Int, false),
                ColumnDef::new("name", DataType::Str, true),
                ColumnDef::new("price", DataType::Decimal, false),
            ],
            vec!["id"],
        )
        .unwrap()
    }

    #[test]
    fn row_macro_builds_values() {
        let r = row![1, "widget", 2.5];
        assert_eq!(r.arity(), 3);
        assert_eq!(r[0], Value::Int(1));
        assert_eq!(r[1], Value::Str("widget".into()));
        assert_eq!(r[2], Value::Float(2.5));
    }

    #[test]
    fn validate_accepts_conforming_row() {
        let r = Row::new(vec![Value::Int(1), Value::Null, Value::Decimal(199)]);
        assert!(r.validate(&schema()).is_ok());
    }

    #[test]
    fn validate_rejects_arity_mismatch() {
        let r = Row::new(vec![Value::Int(1)]);
        assert!(matches!(
            r.validate(&schema()),
            Err(StorageError::ArityMismatch {
                expected: 3,
                got: 1
            })
        ));
    }

    #[test]
    fn validate_rejects_null_violation() {
        let r = Row::new(vec![Value::Null, Value::Null, Value::Decimal(1)]);
        assert!(matches!(
            r.validate(&schema()),
            Err(StorageError::NullViolation { .. })
        ));
    }

    #[test]
    fn validate_rejects_type_mismatch() {
        let r = Row::new(vec![Value::Str("x".into()), Value::Null, Value::Decimal(1)]);
        assert!(matches!(
            r.validate(&schema()),
            Err(StorageError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn project_selects_columns_in_order() {
        let r = row![1, "widget", 3];
        let p = r.project(&[2, 0]);
        assert_eq!(p.values(), &[Value::Int(3), Value::Int(1)]);
    }

    #[test]
    fn approx_bytes_counts_strings() {
        let small = row![1];
        let big = row![1, "a very long string value for sizing"];
        assert!(big.approx_bytes() > small.approx_bytes());
    }
}
