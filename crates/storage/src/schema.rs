//! Table schemas, columns and index definitions.

use crate::error::{StorageError, StorageResult};
use crate::key::Key;
use crate::row::Row;

pub use crate::value::DataType;

/// A column declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name (unique within the table).
    pub name: String,
    /// Declared type.
    pub dtype: DataType,
    /// Whether NULL is allowed.
    pub nullable: bool,
}

impl ColumnDef {
    /// Create a column definition.
    pub fn new(name: impl Into<String>, dtype: DataType, nullable: bool) -> ColumnDef {
        ColumnDef {
            name: name.into(),
            dtype,
            nullable,
        }
    }
}

/// A secondary index definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexDef {
    /// Index name (unique within the table).
    pub name: String,
    /// Indexed column positions, in key order.
    pub columns: Vec<usize>,
    /// Whether the index enforces uniqueness.
    pub unique: bool,
}

/// A foreign-key style relationship between two tables.
///
/// OLxPBench ships each schema in two flavours — with and without foreign
/// constraints — because some HTAP systems (e.g. MemSQL) do not support foreign
/// keys.  The constraint is metadata used by the semantic-consistency validator
/// and the report generator; enforcement is optional.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForeignKeyDef {
    /// Referencing column positions in this table.
    pub columns: Vec<usize>,
    /// Referenced table name.
    pub ref_table: String,
    /// Referenced column names in the referenced table.
    pub ref_columns: Vec<String>,
}

/// A table schema: named columns, a (possibly composite) primary key, secondary
/// indexes and optional foreign-key metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    name: String,
    columns: Vec<ColumnDef>,
    primary_key: Vec<usize>,
    indexes: Vec<IndexDef>,
    foreign_keys: Vec<ForeignKeyDef>,
}

impl TableSchema {
    /// Create a schema.  `primary_key` lists column names in key order.
    pub fn new(
        name: impl Into<String>,
        columns: Vec<ColumnDef>,
        primary_key: Vec<&str>,
    ) -> StorageResult<TableSchema> {
        let name = name.into();
        let mut pk = Vec::with_capacity(primary_key.len());
        for key_col in primary_key {
            let idx = columns
                .iter()
                .position(|c| c.name == key_col)
                .ok_or_else(|| StorageError::ColumnNotFound {
                    table: name.clone(),
                    column: key_col.to_string(),
                })?;
            pk.push(idx);
        }
        Ok(TableSchema {
            name,
            columns,
            primary_key: pk,
            indexes: Vec::new(),
            foreign_keys: Vec::new(),
        })
    }

    /// Add a secondary index on the named columns (builder style).
    pub fn with_index(
        mut self,
        index_name: impl Into<String>,
        columns: Vec<&str>,
        unique: bool,
    ) -> StorageResult<TableSchema> {
        let index_name = index_name.into();
        let mut cols = Vec::with_capacity(columns.len());
        for c in columns {
            cols.push(self.column_index(c)?);
        }
        self.indexes.push(IndexDef {
            name: index_name,
            columns: cols,
            unique,
        });
        Ok(self)
    }

    /// Add a foreign-key relationship (builder style).
    pub fn with_foreign_key(
        mut self,
        columns: Vec<&str>,
        ref_table: impl Into<String>,
        ref_columns: Vec<&str>,
    ) -> StorageResult<TableSchema> {
        let mut cols = Vec::with_capacity(columns.len());
        for c in columns {
            cols.push(self.column_index(c)?);
        }
        self.foreign_keys.push(ForeignKeyDef {
            columns: cols,
            ref_table: ref_table.into(),
            ref_columns: ref_columns.iter().map(|s| s.to_string()).collect(),
        });
        Ok(self)
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Column declarations in storage order.
    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    /// Number of columns.
    pub fn column_count(&self) -> usize {
        self.columns.len()
    }

    /// Primary-key column positions in key order.
    pub fn primary_key(&self) -> &[usize] {
        &self.primary_key
    }

    /// Secondary index definitions.
    pub fn indexes(&self) -> &[IndexDef] {
        &self.indexes
    }

    /// Foreign-key metadata.
    pub fn foreign_keys(&self) -> &[ForeignKeyDef] {
        &self.foreign_keys
    }

    /// Total number of indexes including the primary key.
    pub fn index_count(&self) -> usize {
        self.indexes.len() + 1
    }

    /// Resolve a column name to its position.
    pub fn column_index(&self, name: &str) -> StorageResult<usize> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| StorageError::ColumnNotFound {
                table: self.name.clone(),
                column: name.to_string(),
            })
    }

    /// Resolve several column names to positions.
    pub fn column_indices(&self, names: &[&str]) -> StorageResult<Vec<usize>> {
        names.iter().map(|n| self.column_index(n)).collect()
    }

    /// Look up an index definition by name.
    pub fn index(&self, name: &str) -> StorageResult<&IndexDef> {
        self.indexes
            .iter()
            .find(|i| i.name == name)
            .ok_or_else(|| StorageError::IndexNotFound {
                table: self.name.clone(),
                index: name.to_string(),
            })
    }

    /// Does any index (primary or secondary) have `column_positions` as a
    /// *prefix* of its key?  This is what decides whether a point lookup can be
    /// served by an index seek or degenerates into a full scan — the mechanism
    /// behind the paper's composite-primary-key finding (§VI-C).
    pub fn has_index_prefix(&self, column_positions: &[usize]) -> bool {
        let matches_prefix = |key_cols: &[usize]| {
            column_positions.len() <= key_cols.len()
                && key_cols[..column_positions.len()] == *column_positions
        };
        matches_prefix(&self.primary_key) || self.indexes.iter().any(|i| matches_prefix(&i.columns))
    }

    /// Extract the primary key of a row.
    pub fn primary_key_of(&self, row: &Row) -> Key {
        Key::new(self.primary_key.iter().map(|&i| row[i].clone()).collect())
    }

    /// Extract the key of the given secondary index from a row.
    pub fn index_key_of(&self, index: &IndexDef, row: &Row) -> Key {
        Key::new(index.columns.iter().map(|&i| row[i].clone()).collect())
    }

    /// Validate a row against this schema (arity, types, nullability).
    pub fn validate_row(&self, row: &Row) -> StorageResult<()> {
        row.validate(self)
    }

    /// Validate a row image written under primary key `key`: the row must
    /// conform to the schema and carry `key` in its key columns (compared in
    /// place, without building a second key).
    pub fn validate_image(&self, key: &Key, row: &Row) -> StorageResult<()> {
        self.validate_row(row)?;
        let pk = &self.primary_key;
        if key.len() != pk.len() || pk.iter().zip(key.parts()).any(|(&i, part)| row[i] != *part) {
            return Err(StorageError::Internal(format!(
                "update may not change the primary key ({key} -> {})",
                self.primary_key_of(row)
            )));
        }
        Ok(())
    }

    /// Column names, in order (useful for reports).
    pub fn column_names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn subscriber_schema() -> TableSchema {
        TableSchema::new(
            "SUBSCRIBER",
            vec![
                ColumnDef::new("s_id", DataType::Int, false),
                ColumnDef::new("sf_type", DataType::Int, false),
                ColumnDef::new("sub_nbr", DataType::Str, false),
                ColumnDef::new("vlr_location", DataType::Int, true),
            ],
            vec!["s_id", "sf_type"],
        )
        .unwrap()
    }

    #[test]
    fn primary_key_resolution() {
        let s = subscriber_schema();
        assert_eq!(s.primary_key(), &[0, 1]);
        let row = Row::new(vec![
            Value::Int(42),
            Value::Int(1),
            Value::Str("0042".into()),
            Value::Int(7),
        ]);
        assert_eq!(s.primary_key_of(&row), Key::ints(&[42, 1]));
    }

    #[test]
    fn unknown_pk_column_is_error() {
        let err = TableSchema::new(
            "t",
            vec![ColumnDef::new("a", DataType::Int, false)],
            vec!["missing"],
        );
        assert!(matches!(err, Err(StorageError::ColumnNotFound { .. })));
    }

    #[test]
    fn index_builder_and_lookup() {
        let s = subscriber_schema()
            .with_index("idx_sub_nbr", vec!["sub_nbr"], true)
            .unwrap();
        assert_eq!(s.index_count(), 2);
        let idx = s.index("idx_sub_nbr").unwrap();
        assert_eq!(idx.columns, vec![2]);
        assert!(s.index("nope").is_err());
    }

    #[test]
    fn index_prefix_detection_models_composite_key_problem() {
        let s = subscriber_schema();
        // lookup on s_id alone: prefix of the composite PK -> indexable
        assert!(s.has_index_prefix(&[0]));
        // lookup on sub_nbr: not a prefix of any key -> full scan
        assert!(!s.has_index_prefix(&[2]));
        // after adding an index on sub_nbr the lookup becomes indexable
        let s = s.with_index("idx_sub_nbr", vec!["sub_nbr"], true).unwrap();
        assert!(s.has_index_prefix(&[2]));
    }

    #[test]
    fn foreign_keys_are_recorded() {
        let s = TableSchema::new(
            "CHECKING",
            vec![ColumnDef::new("custid", DataType::Int, false)],
            vec!["custid"],
        )
        .unwrap()
        .with_foreign_key(vec!["custid"], "ACCOUNT", vec!["custid"])
        .unwrap();
        assert_eq!(s.foreign_keys().len(), 1);
        assert_eq!(s.foreign_keys()[0].ref_table, "ACCOUNT");
    }

    #[test]
    fn column_indices_resolves_all_or_errors() {
        let s = subscriber_schema();
        assert_eq!(s.column_indices(&["s_id", "sub_nbr"]).unwrap(), vec![0, 2]);
        assert!(s.column_indices(&["s_id", "nope"]).is_err());
    }
}
