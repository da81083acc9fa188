//! Schema catalog.

use crate::error::{StorageError, StorageResult};
use crate::schema::TableSchema;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// A named collection of table schemas.
///
/// The catalog keeps insertion order so reports (e.g. Table II of the paper)
/// list tables in the order the workload defined them.
#[derive(Debug, Default)]
pub struct Catalog {
    inner: RwLock<CatalogInner>,
}

#[derive(Debug, Default)]
struct CatalogInner {
    by_name: HashMap<String, Arc<TableSchema>>,
    order: Vec<String>,
}

impl Catalog {
    /// Create an empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Register a table schema.  Fails if the name already exists.
    pub fn create_table(&self, schema: TableSchema) -> StorageResult<Arc<TableSchema>> {
        let mut inner = self.inner.write();
        let name = schema.name().to_string();
        if inner.by_name.contains_key(&name) {
            return Err(StorageError::TableExists(name));
        }
        let schema = Arc::new(schema);
        inner.by_name.insert(name.clone(), Arc::clone(&schema));
        inner.order.push(name);
        Ok(schema)
    }

    /// Look up a table by name.
    pub fn table(&self, name: &str) -> StorageResult<Arc<TableSchema>> {
        self.inner
            .read()
            .by_name
            .get(name)
            .cloned()
            .ok_or_else(|| StorageError::TableNotFound(name.to_string()))
    }

    /// True when the table exists.
    pub fn contains(&self, name: &str) -> bool {
        self.inner.read().by_name.contains_key(name)
    }

    /// All table schemas in creation order.
    pub fn tables(&self) -> Vec<Arc<TableSchema>> {
        let inner = self.inner.read();
        inner
            .order
            .iter()
            .filter_map(|name| inner.by_name.get(name).cloned())
            .collect()
    }

    /// Table names in creation order.
    pub fn table_names(&self) -> Vec<String> {
        self.inner.read().order.clone()
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.inner.read().order.len()
    }

    /// True when no tables are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of columns across all tables (for Table II).
    pub fn total_columns(&self) -> usize {
        self.tables().iter().map(|t| t.column_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, DataType};

    fn schema(name: &str, cols: usize) -> TableSchema {
        let columns: Vec<ColumnDef> = (0..cols)
            .map(|i| ColumnDef::new(format!("c{i}"), DataType::Int, i != 0))
            .collect();
        TableSchema::new(name, columns, vec!["c0"]).unwrap()
    }

    #[test]
    fn create_lookup_and_ordering() {
        let cat = Catalog::new();
        cat.create_table(schema("WAREHOUSE", 9)).unwrap();
        cat.create_table(schema("DISTRICT", 11)).unwrap();
        cat.create_table(schema("CUSTOMER", 21)).unwrap();
        assert_eq!(cat.len(), 3);
        assert!(cat.contains("DISTRICT"));
        assert_eq!(cat.table_names(), vec!["WAREHOUSE", "DISTRICT", "CUSTOMER"]);
        assert_eq!(cat.table("CUSTOMER").unwrap().column_count(), 21);
        assert_eq!(cat.total_columns(), 41);
    }

    #[test]
    fn duplicate_table_rejected() {
        let cat = Catalog::new();
        cat.create_table(schema("T", 2)).unwrap();
        assert!(matches!(
            cat.create_table(schema("T", 2)),
            Err(StorageError::TableExists(_))
        ));
    }

    #[test]
    fn missing_table_is_an_error() {
        let cat = Catalog::new();
        assert!(matches!(
            cat.table("NOPE"),
            Err(StorageError::TableNotFound(_))
        ));
    }
}
