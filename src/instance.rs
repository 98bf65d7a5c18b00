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
//! integers when possible and strings otherwise. Lines may appear in any
//! order (rows before `attrs` included), but `relation` and `attrs` each
//! appear exactly once: a second one is an error citing the first, so two
//! documents concatenated by accident never mix one's FDs with the
//! other's attributes. One leading UTF-8 byte-order mark is ignored.
//!
//! [`Instance::parse`] reads the document in one pass: it is split at
//! line boundaries into chunks of at least 1 MiB, one per core, which are
//! parsed in parallel, rows each into its own [`fd_core::TableBuilder`].
//! The calling thread then merges the chunks in input order and checks
//! the header lines they found. The table — symbol numbering included —
//! and the error reported for a bad document do not depend on the number
//! of chunks. The merge is serial and re-interns each later chunk's
//! distinct strings and spilled integers once; on a 2-core x86-64 host it
//! took about 28 ms at 2 chunks and 41–48 ms at 4–8 chunks for a 1M-row
//! string-valued document (27 MB). Speedups past two cores are unmeasured.

use fd_core::{FdSet, Schema, Table, TableBuilder, Value};
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

/// Documents are parsed in chunks of at least this many bytes, so small
/// ones stay on the calling thread.
const MIN_CHUNK_BYTES: usize = 1 << 20;

/// One non-blank, non-comment line, classified by its keyword; the
/// payload is the rest of the line (a row's fields are trimmed one by
/// one when it is split).
enum Line<'t> {
    Row(&'t str),
    Header(HeaderLine<'t>),
}

/// A `relation`, `attrs` or `fd` line.
enum HeaderLine<'t> {
    Relation(&'t str),
    Attrs(&'t str),
    Fd(&'t str),
}

/// Classifies a raw line; `None` for blank lines and comments. The
/// errors here are the ones a line earns on its own, so across the whole
/// document the first of them (by line) wins.
fn classify(raw: &str, lineno: usize) -> Result<Option<Line<'_>>, ParseError> {
    let line = raw.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let (keyword, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
    let rest = rest.trim();
    Ok(Some(match keyword {
        "row" => Line::Row(rest),
        "fd" => Line::Header(HeaderLine::Fd(rest)),
        "relation" if rest.is_empty() => return Err(err(lineno, "relation needs a name")),
        "relation" => Line::Header(HeaderLine::Relation(rest)),
        "attrs" if rest.is_empty() => {
            return Err(err(lineno, "attrs needs at least one attribute"))
        }
        "attrs" => Line::Header(HeaderLine::Attrs(rest)),
        other => {
            return Err(err(
                lineno,
                format!("unknown keyword {other:?} (expected relation/attrs/fd/row)"),
            ))
        }
    }))
}

/// The header lines seen so far, with the line each came from.
#[derive(Default)]
struct Header<'t> {
    relation: Option<(usize, &'t str)>,
    attrs: Option<(usize, &'t str)>,
    fds: Vec<(usize, &'t str)>,
}

impl<'t> Header<'t> {
    /// Records a header line; a second `relation` or `attrs` is an error.
    fn take(&mut self, lineno: usize, line: HeaderLine<'t>) -> Result<(), ParseError> {
        let (slot, keyword, rest) = match line {
            HeaderLine::Relation(rest) => (&mut self.relation, "relation", rest),
            HeaderLine::Attrs(rest) => (&mut self.attrs, "attrs", rest),
            HeaderLine::Fd(rest) => {
                self.fds.push((lineno, rest));
                return Ok(());
            }
        };
        if let Some((first, _)) = slot {
            return Err(err(
                lineno,
                format!("duplicate `{keyword}` line (first on line {first})"),
            ));
        }
        *slot = Some((lineno, rest));
        Ok(())
    }
}

/// What parsing one chunk of the document yields. Line numbers are
/// 1-based within the chunk until the merge shifts them.
struct Chunk<'t> {
    rows: TableBuilder,
    /// Lines in the chunk (counted up to `syntax`, when set).
    lines: usize,
    /// Header lines met inside the chunk, in order.
    headers: Vec<(usize, HeaderLine<'t>)>,
    /// The chunk's first line-local error; parsing stops there.
    syntax: Option<ParseError>,
    /// The chunk's first bad row; later rows are only syntax-checked.
    bad_row: Option<ParseError>,
}

/// Parses one chunk of whole lines into a builder of `arity` columns.
fn parse_chunk(text: &str, arity: usize) -> Chunk<'_> {
    let mut chunk = Chunk {
        rows: TableBuilder::new(arity),
        lines: 0,
        headers: Vec::new(),
        syntax: None,
        bad_row: None,
    };
    for raw in text.lines() {
        chunk.lines += 1;
        let lineno = chunk.lines;
        let rest = match classify(raw, lineno) {
            Ok(Some(Line::Row(rest))) => rest,
            Ok(Some(Line::Header(header))) => {
                chunk.headers.push((lineno, header));
                continue;
            }
            Ok(None) => continue,
            Err(e) => {
                chunk.syntax = Some(e);
                break;
            }
        };
        let mut fields = rest.split('|').map(str::trim);
        let weight_field = fields.next().unwrap_or("");
        let Ok(weight) = weight_field.parse::<f64>() else {
            chunk.syntax = Some(err(lineno, format!("cannot parse weight {weight_field:?}")));
            break;
        };
        if chunk.bad_row.is_none() {
            if let Err(e) = chunk.rows.push_text_row(fields, weight) {
                chunk.bad_row = Some(row_error(lineno, e));
            }
        }
    }
    chunk
}

fn row_error(lineno: usize, e: fd_core::Error) -> ParseError {
    match e {
        fd_core::Error::ArityMismatch { expected, found } => err(
            lineno,
            format!("row has {found} values but the schema has {expected} attributes"),
        ),
        other => err(lineno, format!("invalid row: {other}")),
    }
}

/// The arity of the first `attrs` line in `text`; 0 when there is none
/// (the parse then fails anyway).
fn attrs_arity_ahead(text: &str) -> usize {
    text.lines()
        .find_map(|raw| match classify(raw, 0) {
            Ok(Some(Line::Header(HeaderLine::Attrs(rest)))) => {
                Some(rest.split_whitespace().count())
            }
            _ => None,
        })
        .unwrap_or(0)
}

/// Splits `text` into `n` pieces of whole lines (some possibly empty),
/// each ending where the line that crosses its share of the bytes ends.
fn split_lines(text: &str, n: usize) -> Vec<&str> {
    let mut parts = Vec::with_capacity(n);
    let mut start = 0;
    for i in 1..n {
        let target = (text.len() / n * i).max(start);
        let end = text.as_bytes()[target..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(text.len(), |p| target + p + 1);
        parts.push(&text[start..end]);
        start = end;
    }
    parts.push(&text[start..]);
    parts
}

/// [`Instance::parse`] with the document in `chunks` pieces (`None`: one
/// per core, each at least [`MIN_CHUNK_BYTES`]).
pub(crate) fn parse_in_chunks(text: &str, chunks: Option<usize>) -> Result<Instance, ParseError> {
    let mut sp = fd_trace::span("core/fdr_parse");
    sp.attr("bytes", text.len());
    let text = text.strip_prefix('\u{feff}').unwrap_or(text);

    // Rows are interned as they are read, so their arity must be known
    // before any chunk starts: it is that of the first `attrs` line,
    // usually the second line of the document.
    let arity = attrs_arity_ahead(text);
    let chunks = chunks.unwrap_or_else(|| {
        fd_core::effective_threads(0)
            .min(text.len() / MIN_CHUNK_BYTES)
            .max(1)
    });
    let parts = split_lines(text, chunks);
    let parsed = fd_core::round_robin_map(0, &parts, |part| parse_chunk(part, arity));

    // Merge in input order. Line-local errors come first, in line order:
    // a chunk's header lines all precede its own syntax error.
    let mut header = Header::default();
    let mut offset = 0;
    let mut bad_row = None;
    let mut builders = Vec::with_capacity(parsed.len());
    for chunk in parsed {
        for (lineno, line) in chunk.headers {
            header.take(offset + lineno, line)?;
        }
        if let Some(e) = chunk.syntax {
            return Err(err(offset + e.line, e.message));
        }
        if bad_row.is_none() {
            bad_row = chunk.bad_row.map(|e| err(offset + e.line, e.message));
        }
        offset += chunk.lines;
        builders.push(chunk.rows);
    }

    let (_, relation) = header
        .relation
        .ok_or_else(|| err(0, "missing `relation` line"))?;
    let (attrs_line, names) = header.attrs.ok_or_else(|| err(0, "missing `attrs` line"))?;
    let schema = Schema::new(relation, names.split_whitespace())
        .map_err(|e| err(attrs_line, format!("invalid schema: {e}")))?;
    let mut fds = Vec::with_capacity(header.fds.len());
    for (lineno, spec) in header.fds {
        fds.push(
            fd_core::Fd::parse(&schema, spec)
                .map_err(|e| err(lineno, format!("invalid FD: {e}")))?,
        );
    }
    if let Some(e) = bad_row {
        return Err(e);
    }
    let table = TableBuilder::finish(Arc::clone(&schema), builders);
    sp.attr("rows", table.len());
    sp.attr("chunks", chunks);
    Ok(Instance {
        schema,
        fds: FdSet::new(fds),
        table,
    })
}

impl Instance {
    /// Parses the text format described in the module docs.
    pub fn parse(text: &str) -> Result<Instance, ParseError> {
        parse_in_chunks(text, None)
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

    #[test]
    fn a_leading_byte_order_mark_is_ignored() {
        let with_bom = format!("\u{feff}{OFFICE}");
        let inst = Instance::parse(&with_bom).unwrap();
        assert_eq!(inst.table, Instance::parse(OFFICE).unwrap().table);
        // Only one, and only at the very start.
        let e = Instance::parse(&format!("\u{feff}{with_bom}")).unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("unknown keyword"), "{e}");
    }

    #[test]
    fn a_second_relation_line_is_rejected() {
        let e = Instance::parse("relation R\nattrs A\nrelation S\n").unwrap_err();
        assert_eq!(e, err(3, "duplicate `relation` line (first on line 1)"));
    }

    #[test]
    fn a_second_attrs_line_is_rejected() {
        // `cat a.fdr b.fdr`: b's header must not silently replace a's.
        let a = "relation R\nattrs A B\nfd A -> B\nrow 1 | 1 | 2\n";
        let b = "relation S\nattrs C D\nfd C -> D\nrow 1 | 3 | 4\n";
        let e = Instance::parse(&format!("{a}{b}")).unwrap_err();
        assert_eq!(e, err(5, "duplicate `relation` line (first on line 1)"));
        let e = Instance::parse(&format!("{a}attrs C D\n")).unwrap_err();
        assert_eq!(e, err(5, "duplicate `attrs` line (first on line 2)"));
    }

    #[test]
    fn an_invalid_schema_cites_the_attrs_line() {
        let e = Instance::parse("relation R\n\nattrs A A\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.starts_with("invalid schema: "), "{e}");
    }

    /// The two-pass parser [`parse_in_chunks`] replaced: every line is
    /// classified first, rows buffered as borrowed fields, and the rows
    /// checked and pushed in a second pass. It carries the header-once
    /// rule, the byte-order mark and the `attrs` line on schema errors,
    /// so it stays the specification the single pass is checked against.
    fn reference_parse(text: &str) -> Result<Instance, ParseError> {
        let text = text.strip_prefix('\u{feff}').unwrap_or(text);
        let mut relation: Option<(usize, String)> = None;
        let mut attrs: Option<(usize, Vec<String>)> = None;
        let mut fd_specs: Vec<(usize, String)> = Vec::new();
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
                    if let Some((first, _)) = relation {
                        return Err(err(
                            lineno,
                            format!("duplicate `relation` line (first on line {first})"),
                        ));
                    }
                    relation = Some((lineno, rest.to_string()));
                }
                "attrs" => {
                    let names: Vec<String> = rest.split_whitespace().map(str::to_string).collect();
                    if names.is_empty() {
                        return Err(err(lineno, "attrs needs at least one attribute"));
                    }
                    if let Some((first, _)) = attrs {
                        return Err(err(
                            lineno,
                            format!("duplicate `attrs` line (first on line {first})"),
                        ));
                    }
                    attrs = Some((lineno, names));
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
        let (_, relation) = relation.ok_or_else(|| err(0, "missing `relation` line"))?;
        let (attrs_line, attrs) = attrs.ok_or_else(|| err(0, "missing `attrs` line"))?;
        let schema = Schema::new(relation, attrs)
            .map_err(|e| err(attrs_line, format!("invalid schema: {e}")))?;
        let mut fds = Vec::new();
        for (lineno, spec) in fd_specs {
            fds.push(
                fd_core::Fd::parse(&schema, &spec)
                    .map_err(|e| err(lineno, format!("invalid FD: {e}")))?,
            );
        }
        let mut table = Table::with_capacity(schema.clone(), rows.len());
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
            let tuple = fd_core::Tuple::new(fields.iter().map(|f| parse_value(f)));
            table
                .push(tuple, weight)
                .map_err(|e| err(lineno, format!("invalid row: {e}")))?;
        }
        Ok(Instance {
            schema,
            fds: FdSet::new(fds),
            table,
        })
    }

    /// Everything that makes two instances the same, down to the symbol
    /// numbering: schema, FDs, ids, weights, raw symbol columns and the
    /// pooled values in pool order.
    type Image = (
        String,
        Vec<String>,
        FdSet,
        Vec<u32>,
        Vec<u64>,
        Vec<Vec<u32>>,
        Vec<Value>,
    );

    fn image(inst: &Instance) -> Image {
        let t = &inst.table;
        let mut pooled: Vec<(u32, Value)> = t
            .sym_cols()
            .iter()
            .flatten()
            .filter(|s| s.raw() >> 30 >= 2)
            .map(|s| (s.raw(), t.dictionary().decode(*s)))
            .collect();
        pooled.sort_by_key(|(raw, _)| *raw);
        pooled.dedup_by_key(|(raw, _)| *raw);
        assert_eq!(
            pooled.len(),
            t.dictionary().len(),
            "every pooled value is used"
        );
        (
            inst.schema.relation().to_string(),
            inst.schema.attr_names().to_vec(),
            inst.fds.clone(),
            t.ids().map(|id| id.0).collect(),
            t.weights().iter().map(|w| w.to_bits()).collect(),
            t.sym_cols()
                .iter()
                .map(|c| c.iter().map(|s| s.raw()).collect())
                .collect(),
            pooled.into_iter().map(|(_, v)| v).collect(),
        )
    }

    /// A seeded `.fdr` document: header lines anywhere (rows before
    /// `attrs` included), comments, blank lines, CRLF, tabs, integers at
    /// the inline and `i64` edges, non-ASCII strings. Half the documents
    /// get one or two faults: bad, zero, negative and NaN weights, wrong
    /// arity, unknown keywords, bad FDs, duplicate or missing headers.
    fn generated_document(rng: &mut rand::rngs::StdRng) -> String {
        use rand::seq::SliceRandom;
        use rand::Rng;
        const VALUES: &[&str] = &[
            "0",
            "-7",
            "+5",
            "007",
            "536870911",
            "536870912",
            "-536870912",
            "-536870913",
            "9223372036854775807",
            "9223372036854775808",
            "-9223372036854775809",
            "x",
            "x",
            "Ünïcödé",
            "日本",
            "a b",
            "4.2",
            "",
            "\u{a0}nbsp\u{a0}",
            "\u{3000}wide",
            "\u{b}vt\u{c}",
            "-",
            "+",
        ];
        const WEIGHTS: &[&str] = &["1", "2.5", "+3", "1e3", "0.25", "007"];
        let arity = rng.gen_range(1..=4usize);
        let names = &["A", "B", "C", "D"][..arity];
        let row = |rng: &mut rand::rngs::StdRng, weight: &str, width: usize| {
            let sep = *[" | ", "|", "\t|\t", " |  "].choose(rng).unwrap();
            let keyword = *["row ", "row ", "row\t", " row  "].choose(rng).unwrap();
            let mut line = format!("{keyword}{weight}");
            for _ in 0..width {
                line.push_str(sep);
                line.push_str(VALUES.choose(rng).unwrap());
            }
            line
        };
        let mut lines: Vec<String> = (0..rng.gen_range(0..30))
            .map(|_| {
                let weight = *WEIGHTS.choose(rng).unwrap();
                match rng.gen_range(0..10) {
                    0 => "# a comment".to_string(),
                    1 => "   ".to_string(),
                    _ => row(rng, weight, arity),
                }
            })
            .collect();
        let mut header = vec![
            format!("relation R{}", rng.gen_range(0..3)),
            format!(
                "attrs {}",
                names.join(if rng.gen_bool(0.5) { " " } else { "\t" })
            ),
        ];
        if arity >= 2 {
            header.push(format!("fd {} -> {}", names[0], names[arity - 1]));
        }
        for _ in 0..if rng.gen_bool(0.5) {
            rng.gen_range(1..=2)
        } else {
            0
        } {
            let at = rng.gen_range(0..=lines.len());
            let fault = match rng.gen_range(0..12) {
                0 => {
                    let weight = *["x", "", "0", "-1", "NaN", "inf"].choose(rng).unwrap();
                    row(rng, weight, arity)
                }
                1 => row(rng, "1", arity + 1),
                2 => row(rng, "1", arity - 1),
                3 => "bogus line".to_string(),
                4 => "relation Again".to_string(),
                5 => format!("attrs {}", names.join(" ")),
                6 => "fd A -> Z".to_string(),
                7 => "relation".to_string(),
                8 => "attrs".to_string(),
                9 => {
                    header[1] = "attrs A A".to_string();
                    continue;
                }
                10 => {
                    header.remove(rng.gen_range(0..2));
                    continue;
                }
                _ => "row".to_string(),
            };
            lines.insert(at, fault);
        }
        // Mostly a header on top; sometimes interleaved with the rows.
        for (k, line) in header.into_iter().enumerate() {
            let at = if rng.gen_bool(0.7) {
                k
            } else {
                rng.gen_range(0..=lines.len())
            };
            lines.insert(at.min(lines.len()), line);
        }
        let mut doc = String::new();
        if rng.gen_bool(0.1) {
            doc.push('\u{feff}');
        }
        for (i, line) in lines.iter().enumerate() {
            if i > 0 {
                doc.push_str(if rng.gen_bool(0.3) { "\r\n" } else { "\n" });
            }
            doc.push_str(line);
        }
        if rng.gen_bool(0.7) {
            doc.push('\n');
        }
        doc
    }

    #[test]
    fn single_pass_matches_the_two_pass_reference() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xfd7);
        let (mut accepted, mut rejected) = (0, 0);
        for _ in 0..600 {
            let doc = generated_document(&mut rng);
            let expected = reference_parse(&doc).map(|i| image(&i));
            match &expected {
                Ok(_) => accepted += 1,
                Err(_) => rejected += 1,
            }
            for chunks in 1..=8 {
                let got = parse_in_chunks(&doc, Some(chunks)).map(|i| image(&i));
                assert_eq!(got, expected, "{chunks} chunks:\n{doc}");
            }
            assert_eq!(Instance::parse(&doc).map(|i| image(&i)), expected);
        }
        assert!(accepted > 100 && rejected > 100, "{accepted}/{rejected}");
    }

    #[test]
    fn chunk_count_does_not_change_the_table() {
        // A few thousand rows of strings, spilled and inline integers,
        // with comments, CRLF and FD lines among them, parsed on the OS
        // thread count in 1..=8 chunks.
        let mut doc = String::from("relation R\nattrs K A B\n");
        for i in 0..3000u64 {
            match i % 500 {
                0 => doc.push_str("# checkpoint\r\n"),
                250 => doc.push_str("fd K -> A\n"),
                _ => {}
            }
            // New strings and new spilled integers keep turning up in
            // two columns each, so a chunk merge must remap row-major.
            doc.push_str(&format!(
                "row {} | k{} | {} | {}\n",
                1 + i % 3,
                i / 3,
                ((i / 4) << 33) as i64 - 3,
                match i % 3 {
                    0 => format!("ß{}", i / 6),
                    1 => ((i / 5) << 34).to_string(),
                    _ => (i % 9).to_string(),
                }
            ));
        }
        let one = image(&parse_in_chunks(&doc, Some(1)).unwrap());
        assert_eq!(one.3.len(), 3000);
        for chunks in 2..=8 {
            assert_eq!(
                image(&parse_in_chunks(&doc, Some(chunks)).unwrap()),
                one,
                "{chunks}"
            );
        }
        assert_eq!(image(&reference_parse(&doc).unwrap()), one);
    }

    #[test]
    fn documents_split_at_line_ends() {
        let text = "a\nbb\nccc\n";
        for n in 1..=12 {
            let parts = split_lines(text, n);
            assert_eq!(parts.len(), n);
            assert_eq!(parts.concat(), text);
            assert!(parts.iter().all(|p| p.is_empty() || p.ends_with('\n')));
        }
        assert_eq!(split_lines("no newline", 3).concat(), "no newline");
    }
}
