//! In-memory columnar tables.
//!
//! A [`Table`] is a schema plus one typed [`Column`] per field (see
//! [`crate::column`]).  Operators fully materialise their outputs; the engine
//! targets analytical workloads of up to a few million rows, which fits
//! comfortably in memory and keeps the operator implementations simple and
//! auditable.
//!
//! [`Table::value_at`] and [`Table::iter_rows`] provide a dynamically-typed
//! [`Value`] view for the planner/rewriter layers and tests; the engine's own
//! operators work on the typed columns directly.

use crate::column::Column;
use crate::error::{EngineError, EngineResult};
use crate::schema::{Field, Schema};
use crate::value::{DataType, Value};

/// An in-memory columnar table (also used as the intermediate "frame" between
/// operators and as the result set returned to clients).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Table {
    /// Field names and types, one per column.
    pub schema: Schema,
    /// Column vectors, parallel to `schema.fields`.
    pub columns: Vec<Column>,
}

impl Table {
    /// Creates an empty table with the given schema.
    pub fn empty(schema: Schema) -> Table {
        let columns = schema
            .fields
            .iter()
            .map(|f| Column::new_empty(f.data_type))
            .collect();
        Table { schema, columns }
    }

    /// Creates a table from a schema and columns, validating shape.
    pub fn new(schema: Schema, columns: Vec<Column>) -> EngineResult<Table> {
        if schema.len() != columns.len() {
            return Err(EngineError::Execution(format!(
                "schema has {} fields but {} columns were provided",
                schema.len(),
                columns.len()
            )));
        }
        if let Some(first) = columns.first() {
            let n = first.len();
            if columns.iter().any(|c| c.len() != n) {
                return Err(EngineError::Execution(
                    "columns have inconsistent lengths".to_string(),
                ));
            }
        }
        Ok(Table { schema, columns })
    }

    /// Creates a table from dynamically-typed value columns (compatibility
    /// shim for layers that assemble results row-by-row).
    pub fn from_value_columns(schema: Schema, columns: Vec<Vec<Value>>) -> EngineResult<Table> {
        let typed = schema
            .fields
            .iter()
            .zip(columns.iter())
            .map(|(f, c)| Column::from_values_typed(f.data_type, c))
            .collect();
        Table::new(schema, typed)
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.columns.first().map(|c| c.len()).unwrap_or(0)
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Materialises the value at (row, col).
    pub fn value_at(&self, row: usize, col: usize) -> Value {
        self.columns[col].value_at(row)
    }

    /// Alias for [`Table::value_at`], kept for source compatibility with the
    /// previous cell accessor.
    pub fn value(&self, row: usize, col: usize) -> Value {
        self.value_at(row, col)
    }

    /// Materialises a whole row as a vector of values.
    pub fn row(&self, row: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value_at(row)).collect()
    }

    /// Iterates the table row-by-row as materialised values (compatibility
    /// shim; operators should use the typed columns).
    pub fn iter_rows(&self) -> impl Iterator<Item = Vec<Value>> + '_ {
        (0..self.num_rows()).map(move |r| self.row(r))
    }

    /// Returns the column with the given (bare) name.
    pub fn column_by_name(&self, name: &str) -> EngineResult<&Column> {
        let idx = self
            .schema
            .index_of(name)
            .ok_or_else(|| EngineError::ColumnNotFound(name.to_string()))?;
        Ok(&self.columns[idx])
    }

    /// The check every append makes, in memory or in a store: an INSERT is
    /// positional, so `rows` must have as many columns as the table it goes
    /// into (`width`).  Column types need not match ([`Column::append`]
    /// coerces).
    pub fn check_append_arity(width: usize, rows: &Table) -> EngineResult<()> {
        if rows.num_columns() != width {
            return Err(EngineError::TypeMismatch(format!(
                "cannot append table with {} columns into table with {width}",
                rows.num_columns()
            )));
        }
        Ok(())
    }

    /// Appends another table with a compatible column count (used by INSERT).
    pub fn append(&mut self, other: &Table) -> EngineResult<()> {
        Table::check_append_arity(self.num_columns(), other)?;
        for (dst, src) in self.columns.iter_mut().zip(other.columns.iter()) {
            dst.append(src);
        }
        Ok(())
    }

    /// Returns a new table containing only the rows selected by the packed
    /// `mask`.
    pub fn filter(&self, mask: &crate::selvec::SelVec) -> Table {
        debug_assert_eq!(mask.len(), self.num_rows());
        let columns = self.columns.iter().map(|c| c.filter(mask)).collect();
        Table {
            schema: self.schema.clone(),
            columns,
        }
    }

    /// [`Table::filter`] with the per-column gathers fanned out over the
    /// pool.  Columns are independent, so the result is identical to the
    /// serial filter at any thread count.  Frames below one morsel stay on
    /// the serial path — spawning threads would cost more than the gather.
    pub fn filter_with(
        &self,
        mask: &crate::selvec::SelVec,
        pool: &crate::parallel::ThreadPool,
    ) -> Table {
        debug_assert_eq!(mask.len(), self.num_rows());
        if pool.parallelism() <= 1
            || self.num_rows() <= crate::parallel::MORSEL_ROWS
            || self.num_columns() <= 1
        {
            return self.filter(mask);
        }
        let columns = pool.run(self.columns.len(), |i| self.columns[i].filter(mask));
        Table {
            schema: self.schema.clone(),
            columns,
        }
    }

    /// Returns a new table containing the rows at `indices` (in that order).
    pub fn take(&self, indices: &[usize]) -> Table {
        let columns = self.columns.iter().map(|c| c.take(indices)).collect();
        Table {
            schema: self.schema.clone(),
            columns,
        }
    }

    /// Returns the first `n` rows.
    pub fn limit(&self, n: usize) -> Table {
        let take = n.min(self.num_rows());
        let indices: Vec<usize> = (0..take).collect();
        self.take(&indices)
    }

    /// Approximate memory footprint in bytes, used by the engine profiles to
    /// model scan cost per engine.
    pub fn approx_bytes(&self) -> usize {
        self.columns.iter().map(|c| c.approx_bytes()).sum()
    }

    /// Renders the table as an ASCII grid, truncated to `max_rows` rows.
    /// Useful for examples and debugging output.
    pub fn to_ascii(&self, max_rows: usize) -> String {
        let names = self.schema.names();
        let mut widths: Vec<usize> = names.iter().map(|n| n.len()).collect();
        let shown = self.num_rows().min(max_rows);
        let mut cells: Vec<Vec<String>> = Vec::with_capacity(shown);
        for r in 0..shown {
            let row: Vec<String> = (0..self.num_columns())
                .map(|c| format_cell(&self.value_at(r, c)))
                .collect();
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
            cells.push(row);
        }
        let mut out = String::new();
        let header: Vec<String> = names
            .iter()
            .enumerate()
            .map(|(i, n)| format!("{:width$}", n, width = widths[i]))
            .collect();
        out.push_str(&header.join(" | "));
        out.push('\n');
        out.push_str(
            &widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("-+-"),
        );
        out.push('\n');
        for row in &cells {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, cell)| format!("{:width$}", cell, width = widths[i]))
                .collect();
            out.push_str(&line.join(" | "));
            out.push('\n');
        }
        if self.num_rows() > shown {
            out.push_str(&format!("... ({} rows total)\n", self.num_rows()));
        }
        out
    }
}

fn format_cell(v: &Value) -> String {
    match v {
        Value::Float(f) => format!("{f:.4}"),
        other => other.to_string(),
    }
}

/// A convenience builder for constructing tables column-by-column, used by
/// the data generators and tests.  The typed methods build typed columns
/// directly — no `Value` boxing on the load path.
#[derive(Debug, Default)]
pub struct TableBuilder {
    fields: Vec<Field>,
    columns: Vec<Column>,
}

impl TableBuilder {
    /// Creates an empty builder.
    pub fn new() -> TableBuilder {
        TableBuilder::default()
    }

    /// Adds an integer column.
    pub fn int_column(mut self, name: &str, values: Vec<i64>) -> Self {
        self.fields.push(Field::new(name, DataType::Int));
        self.columns.push(Column::from_i64(values));
        self
    }

    /// Adds a nullable integer column.
    pub fn opt_int_column(mut self, name: &str, values: Vec<Option<i64>>) -> Self {
        self.fields.push(Field::new(name, DataType::Int));
        self.columns.push(Column::from_opt_i64(values));
        self
    }

    /// Adds a float column.
    pub fn float_column(mut self, name: &str, values: Vec<f64>) -> Self {
        self.fields.push(Field::new(name, DataType::Float));
        self.columns.push(Column::from_f64(values));
        self
    }

    /// Adds a nullable float column.
    pub fn opt_float_column(mut self, name: &str, values: Vec<Option<f64>>) -> Self {
        self.fields.push(Field::new(name, DataType::Float));
        self.columns.push(Column::from_opt_f64(values));
        self
    }

    /// Adds a string column.
    pub fn str_column(mut self, name: &str, values: Vec<String>) -> Self {
        self.fields.push(Field::new(name, DataType::Str));
        self.columns.push(Column::from_str(values));
        self
    }

    /// Adds a nullable string column.
    pub fn opt_str_column(mut self, name: &str, values: Vec<Option<String>>) -> Self {
        self.fields.push(Field::new(name, DataType::Str));
        self.columns.push(Column::from_opt_str(values));
        self
    }

    /// Adds an already-typed column.
    pub fn column(mut self, name: &str, column: Column) -> Self {
        self.fields.push(Field::new(name, column.data_type()));
        self.columns.push(column);
        self
    }

    /// Finalises the table, validating column lengths.
    pub fn build(self) -> EngineResult<Table> {
        Table::new(Schema::new(self.fields), self.columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> Table {
        TableBuilder::new()
            .int_column("id", vec![1, 2, 3, 4])
            .float_column("price", vec![10.0, 20.0, 30.0, 40.0])
            .str_column(
                "city",
                vec!["ann arbor", "detroit", "ann arbor", "chicago"]
                    .into_iter()
                    .map(String::from)
                    .collect(),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn builder_produces_consistent_table() {
        let t = sample_table();
        assert_eq!(t.num_rows(), 4);
        assert_eq!(t.num_columns(), 3);
        assert_eq!(t.value_at(1, 2), Value::Str("detroit".into()));
        assert_eq!(t.columns[0].data_type(), DataType::Int);
    }

    #[test]
    fn new_rejects_ragged_columns() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Int),
        ]);
        let res = Table::new(
            schema,
            vec![Column::from_i64(vec![1]), Column::from_i64(vec![])],
        );
        assert!(res.is_err());
    }

    #[test]
    fn filter_and_take_preserve_order() {
        let t = sample_table();
        let filtered = t.filter(&crate::selvec::SelVec::from_bools(&[
            true, false, true, false,
        ]));
        assert_eq!(filtered.num_rows(), 2);
        assert_eq!(filtered.value_at(1, 0), Value::Int(3));
        let taken = t.take(&[3, 0]);
        assert_eq!(taken.value_at(0, 0), Value::Int(4));
        assert_eq!(taken.value_at(1, 0), Value::Int(1));
    }

    #[test]
    fn append_requires_matching_width() {
        let mut t = sample_table();
        let other = sample_table();
        t.append(&other).unwrap();
        assert_eq!(t.num_rows(), 8);
        let narrow = TableBuilder::new()
            .int_column("x", vec![1])
            .build()
            .unwrap();
        assert!(t.append(&narrow).is_err());
    }

    #[test]
    fn ascii_rendering_truncates() {
        let t = sample_table();
        let s = t.to_ascii(2);
        assert!(s.contains("4 rows total"));
        assert!(s.contains("city"));
    }

    #[test]
    fn iter_rows_and_nullable_builders() {
        let t = TableBuilder::new()
            .opt_int_column("a", vec![Some(1), None])
            .opt_float_column("b", vec![None, Some(2.5)])
            .build()
            .unwrap();
        let rows: Vec<Vec<Value>> = t.iter_rows().collect();
        assert_eq!(rows[0], vec![Value::Int(1), Value::Null]);
        assert_eq!(rows[1], vec![Value::Null, Value::Float(2.5)]);
        assert_eq!(t.columns[0].null_count(), 1);
    }
}
