//! A small text format for repair instances, used by the `fdrepair` CLI
//! and handy for fixtures:
//!
//! ```text
//! # comments and blank lines are ignored
//! relation Office
//! attrs facility room floor city
//! fd facility -> city
//! fd facility room -> floor
//! row 2 | HQ   | 322 | 3  | Paris
//! row 1 | HQ   | 322 | 30 | Madrid
//! row 1 | HQ   | 122 | 1  | Madrid
//! row 2 | Lab1 | B35 | 3  | London
//! ```
//!
//! The first `|`-separated field of a `row` is the weight; values parse as
//! integers when possible and strings otherwise.

use fd_core::{FdSet, Schema, Table, Value};
use std::sync::Arc;

/// A parsed repair instance: schema, FDs, and the (possibly dirty) table.
#[derive(Clone, Debug)]
pub struct Instance {
    /// The schema.
    pub schema: Arc<Schema>,
    /// The FD set Δ.
    pub fds: FdSet,
    /// The table T.
    pub table: Table,
}

/// Errors from [`Instance::parse`], with 1-based line numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Line the error occurred on (0 for structural errors).
    pub line: usize,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "{}", self.message)
        } else {
            write!(f, "line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Parses a value: integer if possible, string otherwise.
pub fn parse_value(token: &str) -> Value {
    let token = token.trim();
    token
        .parse::<i64>()
        .map(Value::Int)
        .unwrap_or_else(|_| Value::str(token))
}

impl Instance {
    /// Parses the text format described in the module docs.
    pub fn parse(text: &str) -> Result<Instance, ParseError> {
        let mut sp = fd_trace::span("core/fdr_parse");
        sp.attr("bytes", text.len());
        let mut relation: Option<String> = None;
        let mut attrs: Option<Vec<String>> = None;
        let mut fd_specs: Vec<(usize, String)> = Vec::new();
        // Row fields stay borrowed slices of `text` until the schema is
        // known; they are then interned straight into the table's
        // dictionary — no owned `String`/`Value` per cell.
        let mut rows: Vec<(usize, f64, Vec<&str>)> = Vec::new();

        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (keyword, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
            let rest = rest.trim();
            match keyword {
                "relation" => {
                    if rest.is_empty() {
                        return Err(err(lineno, "relation needs a name"));
                    }
                    relation = Some(rest.to_string());
                }
                "attrs" => {
                    let names: Vec<String> = rest.split_whitespace().map(str::to_string).collect();
                    if names.is_empty() {
                        return Err(err(lineno, "attrs needs at least one attribute"));
                    }
                    attrs = Some(names);
                }
                "fd" => fd_specs.push((lineno, rest.to_string())),
                "row" => {
                    let mut fields = rest.split('|');
                    let weight_field = fields.next().unwrap_or("").trim();
                    let weight: f64 = weight_field.parse().map_err(|_| {
                        err(lineno, format!("cannot parse weight {weight_field:?}"))
                    })?;
                    rows.push((lineno, weight, fields.map(str::trim).collect()));
                }
                other => {
                    return Err(err(
                        lineno,
                        format!("unknown keyword {other:?} (expected relation/attrs/fd/row)"),
                    ));
                }
            }
        }

        let relation = relation.ok_or_else(|| err(0, "missing `relation` line"))?;
        let attrs = attrs.ok_or_else(|| err(0, "missing `attrs` line"))?;
        let schema =
            Schema::new(relation, attrs).map_err(|e| err(0, format!("invalid schema: {e}")))?;
        let mut fds = Vec::new();
        for (lineno, spec) in fd_specs {
            fds.push(
                fd_core::Fd::parse(&schema, &spec)
                    .map_err(|e| err(lineno, format!("invalid FD: {e}")))?,
            );
        }
        let fds = FdSet::new(fds);
        let mut table = Table::with_capacity(schema.clone(), rows.len());
        let mut syms = Vec::with_capacity(schema.arity());
        for (lineno, weight, fields) in rows {
            if fields.len() != schema.arity() {
                return Err(err(
                    lineno,
                    format!(
                        "row has {} values but the schema has {} attributes",
                        fields.len(),
                        schema.arity()
                    ),
                ));
            }
            syms.clear();
            syms.extend(fields.iter().map(|f| table.intern_text(f)));
            table
                .push_syms(&syms, weight)
                .map_err(|e| err(lineno, format!("invalid row: {e}")))?;
        }
        Ok(Instance { schema, fds, table })
    }

    /// Loads an instance from CSV text plus an FD specification
    /// (`"A -> B; B -> C"` syntax). The CSV header names the attributes;
    /// `weight_column`, when given, is consumed as tuple weights.
    pub fn from_csv(
        relation: &str,
        csv_text: &str,
        fd_spec: &str,
        weight_column: Option<&str>,
    ) -> Result<Instance, ParseError> {
        Instance::from_csv_reader(relation, csv_text.as_bytes(), fd_spec, weight_column)
    }

    /// Streams an instance out of any buffered CSV source (e.g. a
    /// `BufReader<File>`): rows flow straight into the table and the
    /// raw text is never held in memory — the entry point for
    /// million-row loads.
    pub fn from_csv_reader<R: std::io::BufRead>(
        relation: &str,
        input: R,
        fd_spec: &str,
        weight_column: Option<&str>,
    ) -> Result<Instance, ParseError> {
        let options = fd_core::CsvOptions {
            weight_column: weight_column.map(str::to_string),
        };
        let table = fd_core::table_from_csv_reader(relation, input, &options)
            .map_err(|e| err(0, e.to_string()))?;
        let schema = Arc::clone(table.schema());
        let fds = FdSet::parse(&schema, fd_spec).map_err(|e| err(0, e.to_string()))?;
        Ok(Instance { schema, fds, table })
    }

    /// Renders the table as CSV (with a `weight` column). The FD set is
    /// not representable in CSV; keep it alongside (e.g. in a `.fdr`
    /// file or a CLI flag).
    pub fn to_csv(&self) -> String {
        fd_core::table_to_csv(&self.table, true)
    }

    /// Serializes to the `.fdr` text format (round-trips through
    /// [`Instance::parse`] for integer/string values free of `|` and
    /// newlines; see the property test in `tests/fdr_roundtrip.rs`).
    /// Also available through the [`std::fmt::Display`] impl, so
    /// `format!("{instance}")` writes a valid `.fdr` document.
    pub fn to_fdr(&self) -> String {
        use std::fmt::Write;
        // Preallocate roughly one short line per row; large instances
        // then serialize with a handful of reallocations instead of
        // thousands.
        let mut out = String::with_capacity(64 + self.table.len() * 24);
        write!(out, "{self}").expect("fmt to String cannot fail");
        out
    }
}

impl std::fmt::Display for Instance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "relation {}", self.schema.relation())?;
        writeln!(f, "attrs {}", self.schema.attr_names().join(" "))?;
        for fd in self.fds.iter() {
            writeln!(
                f,
                "fd {} -> {}",
                fd.lhs().display(&self.schema).replace('∅', ""),
                fd.rhs().display(&self.schema)
            )?;
        }
        let dict = self.table.dictionary();
        for (pos, w) in self.table.weights().iter().enumerate() {
            // Decode each cell straight into the formatter: a
            // million-row serialization allocates no per-row tuples or
            // per-cell strings.
            write!(f, "row {w}")?;
            for col in self.table.sym_cols() {
                write!(f, " | {}", dict.decode(col[pos]))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OFFICE: &str = "\
# Figure 1
relation Office
attrs facility room floor city
fd facility -> city
fd facility room -> floor
row 2 | HQ | 322 | 3 | Paris
row 1 | HQ | 322 | 30 | Madrid
row 1 | HQ | 122 | 1 | Madrid
row 2 | Lab1 | B35 | 3 | London
";

    #[test]
    fn parses_the_office_example() {
        let inst = Instance::parse(OFFICE).unwrap();
        assert_eq!(inst.schema.relation(), "Office");
        assert_eq!(inst.schema.arity(), 4);
        assert_eq!(inst.fds.len(), 2);
        assert_eq!(inst.table.len(), 4);
        assert!(!inst.table.satisfies(&inst.fds));
        // Mixed types: room 322 is an integer, room B35 a string.
        let room = inst.schema.attr("room").unwrap();
        assert_eq!(
            inst.table.row(fd_core::TupleId(0)).unwrap().tuple.get(room),
            &Value::Int(322)
        );
        assert_eq!(
            inst.table.row(fd_core::TupleId(3)).unwrap().tuple.get(room),
            &Value::str("B35")
        );
    }

    #[test]
    fn round_trips() {
        let inst = Instance::parse(OFFICE).unwrap();
        let text = inst.to_fdr();
        // Display and to_fdr agree.
        assert_eq!(text, format!("{inst}"));
        let again = Instance::parse(&text).unwrap();
        assert_eq!(again.table, inst.table);
        assert_eq!(again.fds, inst.fds);
    }

    #[test]
    fn consensus_fd_round_trip() {
        let text = "relation R\nattrs A B\nfd -> B\nrow 1 | 1 | 2\n";
        let inst = Instance::parse(text).unwrap();
        assert!(inst.fds.consensus_fd().is_some());
        let again = Instance::parse(&inst.to_fdr()).unwrap();
        assert_eq!(again.fds, inst.fds);
    }

    #[test]
    fn loads_from_csv() {
        let csv = "facility,room,floor,city,w\nHQ,322,3,Paris,2\nHQ,322,30,Madrid,1\n";
        let inst = Instance::from_csv(
            "Office",
            csv,
            "facility -> city; facility room -> floor",
            Some("w"),
        )
        .unwrap();
        assert_eq!(inst.schema.arity(), 4);
        assert_eq!(inst.table.len(), 2);
        assert!(!inst.table.satisfies(&inst.fds));
        // Round trip through CSV rendering.
        let again =
            Instance::from_csv("Office", &inst.to_csv(), "facility -> city", Some("weight"))
                .unwrap();
        assert_eq!(again.table, inst.table);
        // Errors surface with context.
        assert!(Instance::from_csv("R", csv, "nope -> city", Some("w")).is_err());
        assert!(Instance::from_csv("R", "a,b\nx\n", "a -> b", None).is_err());
    }

    #[test]
    fn error_reporting_with_line_numbers() {
        let bad_weight = "relation R\nattrs A\nrow x | 1\n";
        let e = Instance::parse(bad_weight).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("weight"));

        let bad_arity = "relation R\nattrs A B\nrow 1 | only\n";
        let e = Instance::parse(bad_arity).unwrap_err();
        assert!(e.message.contains("2 attributes"));

        let bad_fd = "relation R\nattrs A\nfd A -> Z\n";
        assert!(Instance::parse(bad_fd).is_err());

        let missing = "attrs A\n";
        let e = Instance::parse(missing).unwrap_err();
        assert!(e.message.contains("relation"));

        let unknown = "relation R\nattrs A\nbogus line\n";
        let e = Instance::parse(unknown).unwrap_err();
        assert!(e.message.contains("unknown keyword"));
    }
}
