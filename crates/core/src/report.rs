//! Typed result documents for the evaluation: the data model every
//! experiment produces and every renderer consumes.
//!
//! The model is a three-level document tree:
//!
//! ```text
//! Report                       one sweep (or one experiment)
//! └── Section                  one artifact × scenario cell, e.g. "fig3/A"
//!     └── Table                one logical result of the section
//!         ├── Column ...       machine key + text-layout metadata
//!         └── Row (Vec<Cell>)  typed values
//! ```
//!
//! Everything an experiment reports — a figure's breakdown matrix, a
//! one-line summary sentence, an ablation sweep — is a [`Table`] of
//! typed [`Cell`]s. Prose-style summary lines are single-row tables
//! whose column `prefix`es carry the literal text between values; that
//! is what lets the text renderer in [`crate::render`] reproduce the
//! historical human-readable output byte-for-byte while the JSON and
//! CSV renderers see only clean `key → typed value` data.
//!
//! # Example
//!
//! ```
//! use hyvec_core::report::{Cell, Column, Table};
//!
//! let mut t = Table::new("saving").row_suffix(" (paper: ~14%)");
//! t.push_column(Column::new("saving").prefix("HP EPI saving: "));
//! t.push_row(vec![Cell::percent(0.137)]);
//! assert_eq!(t.render_text(), "HP EPI saving: 13.7% (paper: ~14%)\n");
//! ```

use std::fmt;

/// Horizontal alignment of a cell inside its column width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Align {
    /// Pad on the right (`{:<w}`).
    Left,
    /// Pad on the left (`{:>w}`).
    Right,
}

/// One typed value of a report table.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A string (benchmark name, design-point label, ...).
    Str(String),
    /// An integer count (cycles, iterations, corrected errors, ...).
    Int(i64),
    /// A real number rendered with a fixed number of decimals.
    Float {
        /// The value.
        value: f64,
        /// Decimals in the text rendering (`{:.p}`).
        precision: u8,
    },
    /// A real number rendered in scientific notation (`{:.p e}`).
    Sci {
        /// The value.
        value: f64,
        /// Mantissa decimals in the text rendering.
        precision: u8,
    },
    /// A fraction rendered as a percentage (`0.423` → `"42.3%"`).
    /// JSON and CSV carry the raw fraction.
    Percent {
        /// The fraction (1.0 = 100%).
        value: f64,
        /// Decimals of the rendered percentage.
        precision: u8,
    },
}

impl Cell {
    /// A string cell.
    pub fn str(s: impl Into<String>) -> Cell {
        Cell::Str(s.into())
    }

    /// An integer cell (accepts any integer that fits `i64`).
    pub fn int(v: impl TryInto<i64>) -> Cell {
        Cell::Int(
            v.try_into()
                // hyvec-lint: allow(no-panic, "counter magnitudes are bounded far below i64::MAX by instruction budgets; a wrapped cell would render a silently wrong figure")
                .unwrap_or_else(|_| panic!("integer cell out of i64 range")),
        )
    }

    /// A fixed-precision float cell.
    pub fn float(value: f64, precision: u8) -> Cell {
        Cell::Float { value, precision }
    }

    /// A scientific-notation float cell.
    pub fn sci(value: f64, precision: u8) -> Cell {
        Cell::Sci { value, precision }
    }

    /// A percentage cell with the conventional one decimal.
    pub fn percent(value: f64) -> Cell {
        Cell::Percent {
            value,
            precision: 1,
        }
    }

    /// Machine-readable name of the cell's type (used by the CSV
    /// renderer's `type` column).
    pub fn type_name(&self) -> &'static str {
        match self {
            Cell::Str(_) => "str",
            Cell::Int(_) => "int",
            Cell::Float { .. } => "float",
            Cell::Sci { .. } => "float",
            Cell::Percent { .. } => "percent",
        }
    }

    /// The human-oriented text of the cell, before column padding.
    pub fn render_text(&self) -> String {
        match self {
            Cell::Str(s) => s.clone(),
            Cell::Int(v) => v.to_string(),
            Cell::Float { value, precision } => {
                format!("{value:.prec$}", prec = usize::from(*precision))
            }
            Cell::Sci { value, precision } => {
                format!("{value:.prec$e}", prec = usize::from(*precision))
            }
            Cell::Percent { value, precision } => {
                format!("{:.prec$}%", 100.0 * value, prec = usize::from(*precision))
            }
        }
    }

    /// The raw machine value: full-precision, no layout. Percentages
    /// yield their fraction, floats their shortest round-trip decimal.
    pub fn render_raw(&self) -> String {
        match self {
            Cell::Str(s) => s.clone(),
            Cell::Int(v) => v.to_string(),
            Cell::Float { value, .. } | Cell::Sci { value, .. } | Cell::Percent { value, .. } => {
                format_f64(*value)
            }
        }
    }
}

/// Formats an `f64` as a JSON-compatible number literal (shortest
/// round-trip decimal; non-finite values become `null`).
pub fn format_f64(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    let s = format!("{v}");
    // Rust prints reals without a fractional part as "2"; that is a
    // valid JSON number, so it can stay.
    s
}

/// One column of a [`Table`]: the machine key plus everything the text
/// renderer needs to lay the column out.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// Machine-readable key (JSON object key, CSV `column` field).
    pub key: String,
    /// Display header for aligned text tables ("" renders blank).
    pub header: String,
    /// Text alignment inside `width`.
    pub align: Align,
    /// Text padding width (0 = natural width, no padding).
    pub width: usize,
    /// Literal text emitted before the cell in text rows (and before
    /// the header in header lines). Carries prose for sentence-style
    /// single-row tables.
    pub prefix: String,
}

impl Column {
    /// A new left-aligned, unpadded, prefix-less column.
    pub fn new(key: impl Into<String>) -> Column {
        Column {
            key: key.into(),
            header: String::new(),
            align: Align::Left,
            width: 0,
            prefix: String::new(),
        }
    }

    /// Sets the display header.
    pub fn header(mut self, header: impl Into<String>) -> Column {
        self.header = header.into();
        self
    }

    /// Left-aligns the column in `width` characters.
    pub fn left(mut self, width: usize) -> Column {
        self.align = Align::Left;
        self.width = width;
        self
    }

    /// Right-aligns the column in `width` characters.
    pub fn right(mut self, width: usize) -> Column {
        self.align = Align::Right;
        self.width = width;
        self
    }

    /// Sets the literal text preceding the cell.
    pub fn prefix(mut self, prefix: impl Into<String>) -> Column {
        self.prefix = prefix.into();
        self
    }

    /// Pads `text` to the column's width and alignment.
    pub fn pad(&self, text: &str) -> String {
        match (self.width, self.align) {
            (0, _) => text.to_string(),
            (w, Align::Left) => format!("{text:<w$}"),
            (w, Align::Right) => format!("{text:>w$}"),
        }
    }
}

/// One typed table: columns, rows, and the layout metadata the text
/// renderer uses.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Machine-readable table id, unique within its section.
    pub id: String,
    /// Column specifications.
    pub columns: Vec<Column>,
    /// Rows of cells; every row has exactly `columns.len()` cells.
    pub rows: Vec<Vec<Cell>>,
    /// Whether the text renderer emits a header line.
    pub show_header: bool,
    /// Literal text appended to every text row (closing prose).
    pub row_suffix: String,
    /// Whether the text renderer skips this table. Used for detail
    /// data (e.g. Figure 4's per-benchmark breakdowns) that the
    /// historical text report never showed but JSON/CSV must carry.
    pub hidden_in_text: bool,
}

impl Table {
    /// A new header-less table.
    pub fn new(id: impl Into<String>) -> Table {
        Table {
            id: id.into(),
            columns: Vec::new(),
            rows: Vec::new(),
            show_header: false,
            row_suffix: String::new(),
            hidden_in_text: false,
        }
    }

    /// Enables the text header line.
    pub fn with_header(mut self) -> Table {
        self.show_header = true;
        self
    }

    /// Hides the table from the text renderer (structured formats
    /// still emit it).
    pub fn hidden_in_text(mut self) -> Table {
        self.hidden_in_text = true;
        self
    }

    /// Sets the literal row suffix.
    pub fn row_suffix(mut self, suffix: impl Into<String>) -> Table {
        self.row_suffix = suffix.into();
        self
    }

    /// Adds a column (builder form).
    pub fn column(mut self, column: Column) -> Table {
        self.columns.push(column);
        self
    }

    /// Adds a column (mutating form).
    pub fn push_column(&mut self, column: Column) {
        self.columns.push(column);
    }

    /// Adds a row.
    ///
    /// # Panics
    ///
    /// Panics if the row's arity does not match the column count —
    /// the invariant every renderer relies on.
    pub fn push_row(&mut self, cells: Vec<Cell>) {
        // hyvec-lint: allow(no-panic, "documented precondition (# Panics): renderers index rows by column, so a ragged table must abort at construction")
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "table {}: row arity {} != column count {}",
            self.id,
            cells.len(),
            self.columns.len()
        );
        self.rows.push(cells);
    }

    /// Renders just this table as aligned text (one line per row, plus
    /// the header when enabled). The section/report renderers build on
    /// this.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if self.show_header {
            for c in &self.columns {
                out.push_str(&c.prefix);
                out.push_str(&c.pad(&c.header));
            }
            out.push('\n');
        }
        for row in &self.rows {
            for (c, cell) in self.columns.iter().zip(row) {
                out.push_str(&c.prefix);
                out.push_str(&c.pad(&cell.render_text()));
            }
            out.push_str(&self.row_suffix);
            out.push('\n');
        }
        out
    }
}

/// One artifact × scenario cell of the evaluation matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Section {
    /// Stable id, `"artifact/scenario"` (e.g. `"fig3/A"`); doubles as
    /// the seed-derivation key (see [`crate::seed`]).
    pub label: String,
    /// The private RNG seed the section's experiment ran with.
    pub seed: u64,
    /// The section's result tables, in presentation order.
    pub tables: Vec<Table>,
}

impl Section {
    /// A new, empty section.
    pub fn new(label: impl Into<String>, seed: u64) -> Section {
        Section {
            label: label.into(),
            seed,
            tables: Vec::new(),
        }
    }

    /// Appends a table.
    pub fn push(&mut self, table: Table) {
        self.tables.push(table);
    }

    /// Appends several tables.
    pub fn extend(&mut self, tables: impl IntoIterator<Item = Table>) {
        self.tables.extend(tables);
    }
}

/// The full typed result document of a sweep (or of one experiment).
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Document title (`"hyvec evaluation sweep"` for sweeps).
    pub title: String,
    /// Instructions simulated per benchmark.
    pub instructions: u64,
    /// The *base* seed the per-section seeds were derived from.
    pub base_seed: u64,
    /// Sections in canonical matrix order.
    pub sections: Vec<Section>,
}

/// Title used by sweep reports (kept stable for output compatibility).
pub const SWEEP_TITLE: &str = "hyvec evaluation sweep";

impl Report {
    /// A new, empty report.
    pub fn new(title: impl Into<String>, instructions: u64, base_seed: u64) -> Report {
        Report {
            title: title.into(),
            instructions,
            base_seed,
            sections: Vec::new(),
        }
    }

    /// Renders the report as human-readable aligned text (the
    /// historical `hyvec run-all` format). Shorthand for the text
    /// backend of [`crate::render`].
    pub fn render(&self) -> String {
        crate::render::render(self, crate::render::Format::Text)
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_text_matches_legacy_format_strings() {
        assert_eq!(Cell::float(1.0, 3).render_text(), "1.000");
        assert_eq!(Cell::percent(0.423).render_text(), "42.3%");
        assert_eq!(Cell::sci(1.22e-6, 3).render_text(), "1.220e-6");
        assert_eq!(Cell::int(42u32).render_text(), "42");
        assert_eq!(Cell::str("adpcm_c").render_text(), "adpcm_c");
    }

    #[test]
    fn cell_raw_values_are_machine_friendly() {
        assert_eq!(Cell::percent(0.5).render_raw(), "0.5");
        assert_eq!(Cell::float(2.0, 2).render_raw(), "2");
        assert_eq!(Cell::float(f64::NAN, 2).render_raw(), "null");
    }

    #[test]
    fn column_padding_matches_format_macros() {
        let left = Column::new("a").left(10);
        assert_eq!(left.pad("x"), format!("{:<10}", "x"));
        let right = Column::new("b").right(8);
        assert_eq!(right.pad("1.000"), format!("{:>8}", "1.000"));
        assert_eq!(Column::new("c").pad("free"), "free");
    }

    #[test]
    fn sentence_table_renders_prose() {
        let mut t = Table::new("l1").row_suffix(")");
        t.push_column(Column::new("baseline_um2").prefix("L1: "));
        t.push_column(Column::new("saving").prefix(" um2 (saving "));
        t.push_row(vec![Cell::float(1234.0, 0), Cell::percent(0.25)]);
        assert_eq!(t.render_text(), "L1: 1234 um2 (saving 25.0%)\n");
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_is_rejected() {
        let mut t = Table::new("t")
            .column(Column::new("a"))
            .column(Column::new("b"));
        t.push_row(vec![Cell::int(1i64)]);
    }

    #[test]
    fn header_line_uses_column_layout() {
        let t = Table::new("epi")
            .with_header()
            .column(Column::new("design").left(24))
            .column(Column::new("l1").header("L1 dyn").right(8).prefix(" "));
        assert_eq!(t.render_text(), format!("{:<24} {:>8}\n", "", "L1 dyn"));
    }
}
