//! CSV import/export for tables.
//!
//! A small in-tree reader/writer (no external dependency) covering the
//! RFC 4180 essentials: comma separation, `"`-quoted fields, doubled
//! quotes inside quoted fields, and both `\n` and `\r\n` record endings.
//!
//! Reading maps the header row to a schema, one column optionally serving
//! as the tuple weight ([`CsvOptions::weight_column`]). Fields that parse
//! as `i64` become [`Value::Int`]; everything else becomes [`Value::Str`].
//! Writing renders `Int` and `Str` losslessly; composite and fresh values
//! render via their `Display` form (they are library-internal artifacts —
//! reductions and fresh repairs — not interchange data).
//!
//! The parser is **streaming**: [`CsvReader`] pulls one record at a time
//! from any [`BufRead`] source, and [`table_from_csv_reader`] feeds rows
//! straight into a [`Table`] — a million-row file is loaded without ever
//! holding its text (or its parsed records) in memory. [`parse_csv`] and
//! [`table_from_csv`] are thin in-memory wrappers over the same state
//! machine, so all paths share one grammar.

use crate::builder::TableBuilder;
use crate::error::{Error, Result};
use crate::schema::Schema;
use crate::table::Table;
use crate::value::Value;
use std::io::BufRead;

/// Options for [`table_from_csv`] / [`table_from_csv_reader`].
#[derive(Clone, Debug, Default)]
pub struct CsvOptions {
    /// Header name of the column holding tuple weights; that column is
    /// excluded from the schema. `None` loads an unweighted table.
    pub weight_column: Option<String>,
}

/// A streaming RFC-4180 record reader over any buffered byte source.
///
/// Records are pulled one at a time with [`CsvReader::next_record`]; the
/// reader holds only the current record's bytes, so arbitrarily large
/// documents parse in constant memory (modulo the largest single
/// record). Quoted fields may span record separators; `\r\n` and `\n`
/// both end records; doubled quotes escape quotes inside quoted fields.
/// One leading UTF-8 byte-order mark is skipped, so a header saved by a
/// spreadsheet names its first column without a `\u{feff}` prefix.
///
/// # Errors
///
/// [`Error::CsvParse`] on an unterminated quoted field (mid-record EOF
/// inside quotes), stray data after a closing quote, a quote opening
/// mid-field, non-UTF-8 field bytes, or an I/O failure of the
/// underlying source.
pub struct CsvReader<R: BufRead> {
    input: R,
    /// One byte of lookahead (for `""` escapes and `\r\n`).
    peeked: Option<u8>,
    /// 1-based line number for error reporting.
    line: usize,
    /// Line the most recently returned record started on (blank lines
    /// skipped), for caller-side error reporting.
    record_start: usize,
    /// Whether the leading byte-order mark check has run.
    bom_checked: bool,
    done: bool,
}

impl<R: BufRead> CsvReader<R> {
    /// Wraps a buffered byte source.
    pub fn new(input: R) -> CsvReader<R> {
        CsvReader {
            input,
            peeked: None,
            line: 1,
            record_start: 1,
            bom_checked: false,
            done: false,
        }
    }

    fn next_byte(&mut self) -> Result<Option<u8>> {
        if let Some(b) = self.peeked.take() {
            return Ok(Some(b));
        }
        let mut buf = [0u8; 1];
        loop {
            match self.input.read(&mut buf) {
                Ok(0) => return Ok(None),
                Ok(_) => return Ok(Some(buf[0])),
                // EINTR is non-fatal by the `Read` contract: a stray
                // signal must not abort a long streaming load.
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    return Err(Error::CsvRead {
                        message: e.to_string(),
                    })
                }
            }
        }
    }

    /// Consumes one leading UTF-8 byte-order mark. Bytes that only begin
    /// like one are handed back as the opening bytes of the first field,
    /// exactly where the state machine would have put them.
    fn skip_bom(&mut self, field: &mut Vec<u8>) -> Result<()> {
        const BOM: &[u8] = b"\xEF\xBB\xBF";
        for (k, &mark) in BOM.iter().enumerate() {
            match self.next_byte()? {
                Some(b) if b == mark => {}
                other => {
                    field.extend_from_slice(&BOM[..k]);
                    self.peeked = other;
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    fn peek_byte(&mut self) -> Result<Option<u8>> {
        if self.peeked.is_none() {
            self.peeked = self.next_byte()?;
        }
        Ok(self.peeked)
    }

    /// Bulk-copies the longest run of buffered "plain" bytes for the
    /// current state into `field` — the fast path that spares the
    /// per-byte state machine from handling every ordinary character.
    /// Inside quotes everything but `"` is plain (embedded newlines
    /// advance the line counter); outside, everything but the
    /// structural bytes `"` `,` `\r` `\n`. Returns whether progress was
    /// made; the state machine handles whatever byte stopped the run.
    fn take_plain_run(&mut self, field: &mut Vec<u8>, in_quotes: bool) -> Result<bool> {
        if self.peeked.is_some() {
            return Ok(false);
        }
        let buf = loop {
            match self.input.fill_buf() {
                Ok(buf) => break buf,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    return Err(Error::CsvRead {
                        message: e.to_string(),
                    })
                }
            }
        };
        let stop = |b: u8| {
            if in_quotes {
                b == b'"'
            } else {
                matches!(b, b'"' | b',' | b'\r' | b'\n')
            }
        };
        let run = buf.iter().position(|&b| stop(b)).unwrap_or(buf.len());
        if run == 0 {
            return Ok(false);
        }
        if in_quotes {
            self.line += buf[..run].iter().filter(|&&b| b == b'\n').count();
        }
        field.extend_from_slice(&buf[..run]);
        self.input.consume(run);
        Ok(true)
    }

    fn err(&self, reason: &'static str) -> Error {
        Error::CsvParse {
            line: self.line,
            reason,
        }
    }

    /// Validates the current field's bytes (`buf[start..]`) as UTF-8 and
    /// seals it by recording its end offset.
    fn seal_field(&self, buf: &[u8], ends: &mut Vec<u32>) -> Result<()> {
        let start = ends.last().copied().unwrap_or(0) as usize;
        std::str::from_utf8(&buf[start..]).map_err(|_| self.err("field is not valid UTF-8"))?;
        ends.push(buf.len() as u32);
        Ok(())
    }

    /// Reads the next record into a flat byte buffer: field `i` is
    /// `buf[ends[i-1]..ends[i]]` (with `ends[-1]` read as 0), already
    /// UTF-8 validated. Returns `false` at end of input. Blank lines (a
    /// record consisting of one empty unquoted field) are skipped.
    ///
    /// This is the zero-copy path underneath [`CsvReader::next_record`]:
    /// bulk loaders intern fields straight out of `buf` without ever
    /// materializing a `String` per cell.
    pub fn next_record_raw(&mut self, buf: &mut Vec<u8>, ends: &mut Vec<u32>) -> Result<bool> {
        buf.clear();
        ends.clear();
        let mut in_quotes = false;
        let mut field_started_quoted = false;
        let mut quote_closed = false;
        if self.done {
            return Ok(false);
        }
        self.record_start = self.line;
        if !self.bom_checked {
            self.bom_checked = true;
            self.skip_bom(buf)?;
        }
        loop {
            // Fast path: swallow runs of ordinary field bytes in bulk.
            // After a closing quote only separators may follow, so the
            // per-byte machine must see every byte there.
            if !quote_closed {
                while self.take_plain_run(buf, in_quotes)? {}
            }
            let field_start = ends.last().copied().unwrap_or(0) as usize;
            let next = self.next_byte()?;
            // After a closing quote only a separator or EOF may follow.
            if quote_closed && !matches!(next, None | Some(b',') | Some(b'\n') | Some(b'\r')) {
                return Err(self.err("stray data after a closing quote"));
            }
            match next {
                None => {
                    self.done = true;
                    if in_quotes {
                        return Err(self.err("unterminated quoted field"));
                    }
                    if buf.len() > field_start || !ends.is_empty() || field_started_quoted {
                        self.seal_field(buf, ends)?;
                        return Ok(true);
                    }
                    return Ok(false);
                }
                Some(b'"') if in_quotes => {
                    if self.peek_byte()? == Some(b'"') {
                        self.next_byte()?;
                        buf.push(b'"');
                    } else {
                        in_quotes = false;
                        quote_closed = true;
                    }
                }
                Some(b'"') if buf.len() == field_start && !field_started_quoted => {
                    in_quotes = true;
                    field_started_quoted = true;
                }
                Some(b'"') => {
                    return Err(self.err("quote inside an unquoted field"));
                }
                Some(b',') if !in_quotes => {
                    self.seal_field(buf, ends)?;
                    field_started_quoted = false;
                    quote_closed = false;
                }
                Some(b'\r') if !in_quotes && self.peek_byte()? == Some(b'\n') => {
                    // Consumed with the '\n' that follows.
                }
                Some(b'\n') if !in_quotes => {
                    self.line += 1;
                    self.seal_field(buf, ends)?;
                    // A blank line yields no record: keep scanning, and
                    // the eventual record starts after it.
                    if ends.len() == 1 && ends[0] == 0 {
                        buf.clear();
                        ends.clear();
                        field_started_quoted = false;
                        quote_closed = false;
                        self.record_start = self.line;
                        continue;
                    }
                    return Ok(true);
                }
                Some(b) => {
                    if b == b'\n' {
                        self.line += 1;
                    }
                    buf.push(b);
                }
            }
        }
    }

    /// Reads the next record into `record` (cleared first). Returns
    /// `false` at end of input. Blank lines (a record consisting of one
    /// empty unquoted field) are skipped, matching [`parse_csv`].
    pub fn next_record(&mut self, record: &mut Vec<String>) -> Result<bool> {
        record.clear();
        let mut buf = Vec::new();
        let mut ends = Vec::new();
        if !self.next_record_raw(&mut buf, &mut ends)? {
            return Ok(false);
        }
        let mut start = 0usize;
        for &end in &ends {
            let bytes = &buf[start..end as usize];
            record.push(
                std::str::from_utf8(bytes)
                    .expect("validated by raw read")
                    .to_string(),
            );
            start = end as usize;
        }
        Ok(true)
    }

    /// The 1-based line the reader is currently positioned at.
    pub fn line(&self) -> usize {
        self.line
    }

    /// The 1-based line the most recently returned record started on
    /// (blank lines are skipped past, multiline quoted fields count
    /// their embedded newlines) — what error messages about that
    /// record should cite.
    pub fn record_line(&self) -> usize {
        self.record_start
    }
}

/// Splits a CSV document into records of raw string fields.
///
/// In-memory convenience wrapper over [`CsvReader`]; large documents
/// should stream through [`table_from_csv_reader`] instead.
///
/// # Errors
///
/// [`Error::CsvParse`] on an unterminated quoted field or on stray data
/// after a closing quote.
pub fn parse_csv(text: &str) -> Result<Vec<Vec<String>>> {
    let mut reader = CsvReader::new(text.as_bytes());
    let mut records = Vec::new();
    let mut record = Vec::new();
    while reader.next_record(&mut record)? {
        records.push(std::mem::take(&mut record));
    }
    Ok(records)
}

/// Loads a table from CSV text: the first record is the header (attribute
/// names), every further record one tuple. In-memory wrapper over
/// [`table_from_csv_reader`].
///
/// # Errors
///
/// [`Error::CsvParse`] on malformed CSV, ragged records, a missing weight
/// column, or a non-numeric weight; schema/weight errors propagate from
/// [`Schema::new`] and [`Table::push`].
pub fn table_from_csv(relation: &str, text: &str, options: &CsvOptions) -> Result<Table> {
    table_from_csv_reader(relation, text.as_bytes(), options)
}

/// Streams a table out of any buffered CSV source — a [`std::fs::File`]
/// behind a [`std::io::BufReader`], a socket, an in-memory slice — with
/// one record in flight at a time: rows are pushed into the [`Table`] as
/// they parse, and the raw text is never held.
///
/// # Errors
///
/// As [`table_from_csv`], plus [`Error::CsvRead`] when the underlying
/// source fails.
///
/// # Examples
///
/// ```
/// use fd_core::{table_from_csv_reader, CsvOptions};
///
/// let csv = "city,zip,w\nParis,75,2\nNice,06,1\n";
/// let options = CsvOptions { weight_column: Some("w".into()) };
/// let table = table_from_csv_reader("Addr", csv.as_bytes(), &options).unwrap();
/// assert_eq!(table.len(), 2);
/// assert_eq!(table.schema().attr_names(), ["city", "zip"]);
/// ```
pub fn table_from_csv_reader<R: BufRead>(
    relation: &str,
    input: R,
    options: &CsvOptions,
) -> Result<Table> {
    let mut sp = fd_trace::span("core/csv_intern");
    let mut reader = CsvReader::new(input);
    let mut header: Vec<String> = Vec::new();
    if !reader.next_record(&mut header)? {
        return Err(Error::CsvParse {
            line: 1,
            reason: "empty document (no header)",
        });
    }
    let weight_idx = match &options.weight_column {
        None => None,
        Some(name) => Some(
            header
                .iter()
                .position(|h| h == name)
                .ok_or(Error::CsvParse {
                    line: 1,
                    reason: "weight column not in header",
                })?,
        ),
    };
    let attrs: Vec<&str> = header
        .iter()
        .enumerate()
        .filter(|(i, _)| Some(*i) != weight_idx)
        .map(|(_, h)| h.as_str())
        .collect();
    let schema = Schema::new(relation, attrs)?;
    // Zero-copy load loop: fields are interned straight out of the raw
    // record buffer into one builder — no per-cell `String`, no per-row
    // `Vec<Value>`; a string cell allocates only the first time its
    // text appears. One chunk, since a quoted field may span lines.
    let mut rows = TableBuilder::new(schema.arity());
    let mut buf: Vec<u8> = Vec::new();
    let mut ends: Vec<u32> = Vec::new();
    while reader.next_record_raw(&mut buf, &mut ends)? {
        // Errors cite the line the record started on (blank lines and
        // multiline quoted fields accounted for by the reader).
        let record_line = reader.record_line();
        if ends.len() != header.len() {
            return Err(Error::CsvParse {
                line: record_line,
                reason: "record width differs from header",
            });
        }
        let field = |i: usize| {
            let start = if i == 0 { 0 } else { ends[i - 1] as usize };
            std::str::from_utf8(&buf[start..ends[i] as usize]).expect("validated by raw read")
        };
        let weight = match weight_idx {
            None => 1.0,
            Some(w) => field(w).parse::<f64>().map_err(|_| Error::CsvParse {
                line: record_line,
                reason: "weight field is not a number",
            })?,
        };
        rows.push_text_row(
            (0..ends.len())
                .filter(|&i| Some(i) != weight_idx)
                .map(field),
            weight,
        )?;
    }
    sp.attr("rows", rows.len());
    Ok(TableBuilder::finish(schema, [rows]))
}

/// Renders a table as CSV, optionally appending a `weight` column.
pub fn table_to_csv(table: &Table, include_weights: bool) -> String {
    let schema = table.schema();
    let mut out = String::new();
    let mut header: Vec<String> = schema.attr_names().to_vec();
    if include_weights {
        header.push("weight".to_string());
    }
    push_record(&mut out, &header);
    for row in table.rows() {
        let mut fields: Vec<String> = row.tuple.values().iter().map(render_value).collect();
        if include_weights {
            fields.push(format_weight(row.weight));
        }
        push_record(&mut out, &fields);
    }
    out
}

fn render_value(v: &Value) -> String {
    match v {
        Value::Int(i) => i.to_string(),
        Value::Str(s) => s.to_string(),
        other => format!("{other}"),
    }
}

fn format_weight(w: f64) -> String {
    if w == w.trunc() && w.abs() < 1e15 {
        format!("{}", w as i64)
    } else {
        format!("{w}")
    }
}

fn push_record(out: &mut String, fields: &[String]) {
    for (i, f) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if f.contains([',', '"', '\n', '\r']) {
            out.push('"');
            out.push_str(&f.replace('"', "\"\""));
            out.push('"');
        } else {
            out.push_str(f);
        }
    }
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_quoting_and_crlf() {
        let text = "a,b\r\n\"x,1\",\"say \"\"hi\"\"\"\r\nplain,2\n";
        let recs = parse_csv(text).unwrap();
        assert_eq!(
            recs,
            vec![
                vec!["a".to_string(), "b".to_string()],
                vec!["x,1".to_string(), "say \"hi\"".to_string()],
                vec!["plain".to_string(), "2".to_string()],
            ]
        );
    }

    #[test]
    fn newline_inside_quotes() {
        let recs = parse_csv("a\n\"two\nlines\"\n").unwrap();
        assert_eq!(
            recs,
            vec![vec!["a".to_string()], vec!["two\nlines".to_string()]]
        );
    }

    #[test]
    fn rejects_unterminated_quote_and_stray_quote() {
        assert!(matches!(
            parse_csv("a\n\"oops"),
            Err(Error::CsvParse { .. })
        ));
        assert!(matches!(
            parse_csv("a\nb\"c\n"),
            Err(Error::CsvParse { .. })
        ));
        // Data after a closing quote is malformed.
        assert!(matches!(
            parse_csv("a\n\"b\"x\n"),
            Err(Error::CsvParse { .. })
        ));
        assert!(matches!(
            parse_csv("a\n\"b\"\"c\"tail\n"),
            Err(Error::CsvParse { .. })
        ));
    }

    #[test]
    fn empty_quoted_field_at_eof_is_kept() {
        assert_eq!(parse_csv("\"\""), Ok(vec![vec![String::new()]]));
    }

    #[test]
    fn loads_weighted_table() {
        let text = "facility,city,w\nHQ,Paris,2\nHQ,Madrid,1\n";
        let opts = CsvOptions {
            weight_column: Some("w".to_string()),
        };
        let t = table_from_csv("Office", text, &opts).unwrap();
        assert_eq!(t.schema().attr_names(), ["facility", "city"]);
        assert_eq!(t.len(), 2);
        let first = t.rows().next().unwrap();
        assert_eq!(first.weight, 2.0);
        assert_eq!(first.tuple.values()[1], Value::str("Paris"));
    }

    #[test]
    fn ragged_and_bad_weight_rejected() {
        let opts = CsvOptions {
            weight_column: Some("w".to_string()),
        };
        assert!(matches!(
            table_from_csv("R", "a,w\nonly_one_field\n", &CsvOptions::default()),
            Err(Error::CsvParse { line: 2, .. })
        ));
        assert!(matches!(
            table_from_csv("R", "a,w\nx,heavy\n", &opts),
            Err(Error::CsvParse { line: 2, .. })
        ));
        assert!(matches!(
            table_from_csv(
                "R",
                "a,w\nx,1\n",
                &CsvOptions {
                    weight_column: Some("nope".into())
                }
            ),
            Err(Error::CsvParse { line: 1, .. })
        ));
    }

    #[test]
    fn round_trip_preserves_table() {
        let text = "name,dept,w\n\"O'Neil, Ada\",R&D,2\nBo,\"quote \"\"x\"\"\",1\n";
        let opts = CsvOptions {
            weight_column: Some("w".to_string()),
        };
        let t = table_from_csv("Emp", text, &opts).unwrap();
        let rendered = table_to_csv(&t, true);
        let opts2 = CsvOptions {
            weight_column: Some("weight".to_string()),
        };
        let t2 = table_from_csv("Emp", &rendered, &opts2).unwrap();
        assert_eq!(t.len(), t2.len());
        for (a, b) in t.rows().zip(t2.rows()) {
            assert_eq!(a.tuple, b.tuple);
            assert_eq!(a.weight, b.weight);
        }
    }

    #[test]
    fn integers_become_int_values() {
        let t = table_from_csv("R", "a,b\n5,x\n", &CsvOptions::default()).unwrap();
        let row = t.rows().next().unwrap();
        assert_eq!(row.tuple.values()[0], Value::Int(5));
        assert_eq!(row.tuple.values()[1], Value::str("x"));
    }

    #[test]
    fn streaming_reader_pulls_one_record_at_a_time() {
        let text = "a,b\r\nx,1\r\n\"y\ny\",2\n";
        let mut reader = CsvReader::new(text.as_bytes());
        let mut record = Vec::new();
        assert!(reader.next_record(&mut record).unwrap());
        assert_eq!(record, vec!["a", "b"]);
        assert!(reader.next_record(&mut record).unwrap());
        assert_eq!(record, vec!["x", "1"]);
        assert!(reader.next_record(&mut record).unwrap());
        assert_eq!(record, vec!["y\ny", "2"]);
        assert!(!reader.next_record(&mut record).unwrap());
        // Stays exhausted.
        assert!(!reader.next_record(&mut record).unwrap());
    }

    #[test]
    fn streaming_matches_in_memory_parse_on_edge_cases() {
        for text in [
            "a,b\nx,1\n",
            "a,b\r\nx,1\r\n",           // CRLF endings
            "a,b\nx,1",                 // no trailing newline
            "a\n\n\nx\n",               // blank lines skipped
            "\"\"",                     // empty quoted field at EOF
            "a,b\n\"x,\"\"q\"\"\",2\n", // quoting
            "a\n\"two\nlines\"\n",      // newline inside quotes
        ] {
            let mut reader = CsvReader::new(text.as_bytes());
            let mut streamed = Vec::new();
            let mut record = Vec::new();
            while reader.next_record(&mut record).unwrap() {
                streamed.push(std::mem::take(&mut record));
            }
            assert_eq!(streamed, parse_csv(text).unwrap(), "{text:?}");
        }
    }

    #[test]
    fn mid_record_eof_inside_quotes_is_an_error_with_the_right_line() {
        // EOF arrives inside a quoted field that started on line 3.
        let text = "a\nok\n\"oops";
        let err = table_from_csv("R", text, &CsvOptions::default()).unwrap_err();
        assert_eq!(
            err,
            Error::CsvParse {
                line: 3,
                reason: "unterminated quoted field"
            }
        );
        // Same through the streaming entry point.
        let err = table_from_csv_reader("R", text.as_bytes(), &CsvOptions::default()).unwrap_err();
        assert!(matches!(err, Error::CsvParse { line: 3, .. }));
    }

    #[test]
    fn huge_rows_stream_without_holding_the_document() {
        // A single ~1 MiB field and many records: the reader only ever
        // holds one record.
        let big = "v".repeat(1 << 20);
        let mut text = String::from("a,b\n");
        text.push_str(&format!("\"{big}\",1\n"));
        for i in 0..1000 {
            text.push_str(&format!("x{i},{i}\n"));
        }
        let t = table_from_csv_reader("R", text.as_bytes(), &CsvOptions::default()).unwrap();
        assert_eq!(t.len(), 1001);
        let first = t.rows().next().unwrap();
        assert_eq!(first.tuple.values()[0], Value::str(&big));
        assert_eq!(t.rows().last().unwrap().tuple.values()[1], Value::Int(999));
    }

    #[test]
    fn a_byte_order_mark_split_across_reads_is_skipped() {
        for text in ["\u{feff}a,b\nx,1\n", "\u{ff01}a,b\nx,1\n", "\u{feff}"] {
            let trickle = std::io::BufReader::with_capacity(1, text.as_bytes());
            let mut reader = CsvReader::new(trickle);
            let mut streamed = Vec::new();
            let mut record = Vec::new();
            while reader.next_record(&mut record).unwrap() {
                streamed.push(std::mem::take(&mut record));
            }
            assert_eq!(streamed, parse_csv(text).unwrap(), "{text:?}");
        }
        assert_eq!(parse_csv("\u{feff}a\n").unwrap(), [["a"]]);
        assert!(parse_csv("\u{feff}").unwrap().is_empty());
    }

    #[test]
    fn streaming_reports_io_failures() {
        struct Failing;
        impl std::io::Read for Failing {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk on fire"))
            }
        }
        let reader = std::io::BufReader::new(Failing);
        let err = table_from_csv_reader("R", reader, &CsvOptions::default()).unwrap_err();
        assert!(matches!(err, Error::CsvRead { .. }), "{err}");
    }

    #[test]
    fn non_utf8_fields_are_rejected_not_garbled() {
        let bytes: &[u8] = b"a\n\xff\xfe\n";
        let err = table_from_csv_reader("R", bytes, &CsvOptions::default()).unwrap_err();
        assert!(matches!(
            err,
            Error::CsvParse {
                reason: "field is not valid UTF-8",
                ..
            }
        ));
    }

    #[test]
    fn error_lines_skip_past_blank_lines() {
        // Two blank lines precede the ragged record, which therefore
        // starts on line 4 — the error must cite 4, not 2.
        let text = "a,b\n\n\nonly_one\n";
        let err = table_from_csv("R", text, &CsvOptions::default()).unwrap_err();
        assert_eq!(
            err,
            Error::CsvParse {
                line: 4,
                reason: "record width differs from header"
            }
        );
    }

    #[test]
    fn ragged_error_lines_account_for_multiline_fields() {
        // The quoted field spans lines 2–3, so the ragged record after it
        // starts on line 4.
        let text = "a,b\n\"x\ny\",1\nonly_one\n";
        let err = table_from_csv("R", text, &CsvOptions::default()).unwrap_err();
        assert_eq!(
            err,
            Error::CsvParse {
                line: 4,
                reason: "record width differs from header"
            }
        );
    }
}
