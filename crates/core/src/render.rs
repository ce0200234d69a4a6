//! Rendering backends for [`crate::report::Report`] documents.
//!
//! Three hand-rolled backends (the build environment is offline, so no
//! serde), one per [`Format`], which [`render`] picks:
//!
//! * [`Format::Text`] — the historical aligned human-readable format,
//!   byte-identical to the pre-refactor `hyvec run-all` output (the
//!   determinism tests compare these strings);
//! * [`Format::Json`] — a pretty-printed JSON document carrying every
//!   typed cell under stable machine keys (seeds are decimal strings
//!   so 64-bit values survive readers that parse numbers as doubles);
//! * [`Format::Csv`] — one long-format CSV stream with a
//!   `section,seed,table,row,column,type,value` row per cell, covering
//!   every artifact × scenario cell of the matrix.
//!
//! All three are pure functions of the report: rendering never
//! re-runs experiments, and two structurally equal reports render to
//! identical bytes in every format.

use std::fmt;
use std::str::FromStr;

use crate::report::{format_f64, Cell, Report, Section, Table};

/// The output formats of the render layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Format {
    /// Aligned human-readable text (default).
    #[default]
    Text,
    /// Structured JSON.
    Json,
    /// Long-format CSV (one row per cell).
    Csv,
}

impl Format {
    /// Every format, for help strings and tests.
    pub const ALL: [Format; 3] = [Format::Text, Format::Json, Format::Csv];

    /// The CLI name of the format.
    pub fn name(self) -> &'static str {
        match self {
            Format::Text => "text",
            Format::Json => "json",
            Format::Csv => "csv",
        }
    }
}

impl fmt::Display for Format {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Format {
    type Err = String;

    fn from_str(s: &str) -> Result<Format, String> {
        match s {
            "text" => Ok(Format::Text),
            "json" => Ok(Format::Json),
            "csv" => Ok(Format::Csv),
            other => Err(format!("unknown format {other:?} (expected text|json|csv)")),
        }
    }
}

/// Renders `report` in `format`: the one entry point of the three
/// backends.
pub fn render(report: &Report, format: Format) -> String {
    match format {
        Format::Text => render_text(report),
        Format::Json => render_json(report),
        Format::Csv => render_csv(report),
    }
}

// ---------------------------------------------------------------------
// Text
// ---------------------------------------------------------------------

/// The historical human-readable format.
fn render_text(report: &Report) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{}: {} jobs, {} instructions/benchmark, base seed {}\n\n",
        report.title,
        report.sections.len(),
        report.instructions,
        report.base_seed
    ));
    for section in &report.sections {
        out.push_str(&format!(
            "== {} (seed {:#018x}) ==\n",
            section.label, section.seed
        ));
        for table in &section.tables {
            if !table.hidden_in_text {
                out.push_str(&table.render_text());
            }
        }
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------

/// Schema tag emitted at the top of every JSON report.
pub const JSON_SCHEMA: &str = "hyvec-report/v1";

/// Escapes `s` for inclusion in a JSON string literal (without the
/// surrounding quotes).
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", escape_json(s))
}

fn json_cell(cell: &Cell) -> String {
    match cell {
        Cell::Str(s) => json_str(s),
        Cell::Int(v) => v.to_string(),
        Cell::Float { value, .. } | Cell::Sci { value, .. } | Cell::Percent { value, .. } => {
            format_f64(*value)
        }
    }
}

fn json_table(out: &mut String, table: &Table, indent: &str) {
    out.push_str(&format!("{indent}{{\n"));
    out.push_str(&format!("{indent}  \"id\": {},\n", json_str(&table.id)));
    let columns: Vec<String> = table.columns.iter().map(|c| json_str(&c.key)).collect();
    out.push_str(&format!(
        "{indent}  \"columns\": [{}],\n",
        columns.join(", ")
    ));
    out.push_str(&format!("{indent}  \"rows\": ["));
    for (i, row) in table.rows.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        let fields: Vec<String> = table
            .columns
            .iter()
            .zip(row)
            .map(|(c, cell)| format!("{}: {}", json_str(&c.key), json_cell(cell)))
            .collect();
        out.push_str(&format!("{indent}    {{{}}}", fields.join(", ")));
    }
    if table.rows.is_empty() {
        out.push_str("]\n");
    } else {
        out.push_str(&format!("\n{indent}  ]\n"));
    }
    out.push_str(&format!("{indent}}}"));
}

fn json_section(out: &mut String, section: &Section) {
    out.push_str("    {\n");
    out.push_str(&format!("      \"label\": {},\n", json_str(&section.label)));
    out.push_str(&format!("      \"seed\": \"{}\",\n", section.seed));
    out.push_str("      \"tables\": [");
    for (i, table) in section.tables.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        json_table(out, table, "        ");
    }
    if section.tables.is_empty() {
        out.push_str("]\n");
    } else {
        out.push_str("\n      ]\n");
    }
    out.push_str("    }");
}

/// The structured JSON backend.
fn render_json(report: &Report) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": {},\n", json_str(JSON_SCHEMA)));
    out.push_str(&format!("  \"title\": {},\n", json_str(&report.title)));
    out.push_str(&format!("  \"instructions\": {},\n", report.instructions));
    out.push_str(&format!("  \"base_seed\": \"{}\",\n", report.base_seed));
    out.push_str("  \"sections\": [");
    for (i, section) in report.sections.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        json_section(&mut out, section);
    }
    if report.sections.is_empty() {
        out.push_str("]\n");
    } else {
        out.push_str("\n  ]\n");
    }
    out.push_str("}\n");
    out
}

// ---------------------------------------------------------------------
// CSV
// ---------------------------------------------------------------------

/// Header line of the CSV output.
pub const CSV_HEADER: &str = "section,seed,table,row,column,type,value";

/// Quotes `s` as a CSV field when needed (RFC 4180 style: fields
/// containing commas, quotes, or line breaks are quoted, quotes are
/// doubled).
pub fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') || s.contains('\r') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// The long-format CSV backend.
fn render_csv(report: &Report) -> String {
    let mut out = String::new();
    out.push_str(CSV_HEADER);
    out.push('\n');
    for section in &report.sections {
        for table in &section.tables {
            for (row_idx, row) in table.rows.iter().enumerate() {
                for (column, cell) in table.columns.iter().zip(row) {
                    out.push_str(&format!(
                        "{},{},{},{},{},{},{}\n",
                        csv_field(&section.label),
                        section.seed,
                        csv_field(&table.id),
                        row_idx,
                        csv_field(&column.key),
                        cell.type_name(),
                        csv_field(&cell.render_raw())
                    ));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{Column, SWEEP_TITLE};

    fn sample_report() -> Report {
        let mut section = Section::new("fig3/A", 7);
        let mut t = Table::new("epi")
            .with_header()
            .column(Column::new("design").left(10))
            .column(Column::new("total_pj").header("total").right(8).prefix(" "));
        t.push_row(vec![Cell::str("baseline"), Cell::float(1.0, 3)]);
        t.push_row(vec![Cell::str("proposal"), Cell::float(0.86, 3)]);
        section.push(t);
        let mut report = Report::new(SWEEP_TITLE, 1000, 1);
        report.sections.push(section);
        report
    }

    #[test]
    fn format_round_trips_names() {
        for f in Format::ALL {
            assert_eq!(f.name().parse::<Format>().unwrap(), f);
        }
        assert!("yaml".parse::<Format>().is_err());
    }

    #[test]
    fn text_render_includes_header_and_section_banner() {
        let text = render(&sample_report(), Format::Text);
        assert!(text.starts_with(
            "hyvec evaluation sweep: 1 jobs, 1000 instructions/benchmark, base seed 1\n\n"
        ));
        assert!(text.contains("== fig3/A (seed 0x0000000000000007) ==\n"));
        assert!(text.contains(&format!("{:<10} {:>8}\n", "", "total")));
        assert!(text.contains(&format!("{:<10} {:>8}\n", "baseline", "1.000")));
    }

    #[test]
    fn json_escaping_covers_specials() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
        assert_eq!(escape_json("plain"), "plain");
    }

    #[test]
    fn csv_quoting_covers_specials() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_field("two\nlines"), "\"two\nlines\"");
    }

    #[test]
    fn json_carries_typed_values_under_stable_keys() {
        let json = render(&sample_report(), Format::Json);
        assert!(json.contains("\"schema\": \"hyvec-report/v1\""));
        assert!(json.contains("\"label\": \"fig3/A\""));
        assert!(json.contains("\"seed\": \"7\""));
        assert!(json.contains("{\"design\": \"baseline\", \"total_pj\": 1}"));
        assert!(json.contains("{\"design\": \"proposal\", \"total_pj\": 0.86}"));
    }

    #[test]
    fn csv_emits_one_row_per_cell() {
        let csv = render(&sample_report(), Format::Csv);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], CSV_HEADER);
        assert_eq!(lines.len(), 1 + 4, "2 rows x 2 columns");
        assert_eq!(lines[1], "fig3/A,7,epi,0,design,str,baseline");
        assert_eq!(lines[2], "fig3/A,7,epi,0,total_pj,float,1");
    }

    #[test]
    fn hidden_tables_skip_text_but_reach_structured_formats() {
        let mut report = sample_report();
        let mut detail = Table::new("detail")
            .hidden_in_text()
            .column(Column::new("k"));
        detail.push_row(vec![Cell::int(5i64)]);
        report.sections[0].push(detail);
        assert!(!render(&report, Format::Text).contains("5"));
        assert!(render(&report, Format::Json).contains("\"id\": \"detail\""));
        assert!(render(&report, Format::Csv).contains("fig3/A,7,detail,0,k,int,5"));
    }

    #[test]
    fn renders_are_pure_functions_of_the_report() {
        let r = sample_report();
        for f in Format::ALL {
            assert_eq!(render(&r, f), render(&r, f));
        }
    }
}
