//! The one bulk-ingest row sink: fields in, symbol columns out.
//!
//! Every bulk front end (the `.fdr` reader, the CSV loader, the JSON
//! table reader) feeds rows into a [`TableBuilder`]: raw text fields,
//! or typed [`Cell`]s when the input already says which fields are
//! strings. The builder interns each field once into its own
//! [`Dictionary`] and appends the symbol straight to a column — no
//! `Value`, `Tuple` or table row is ever built. This is the
//! encode-at-ingest dictionary pattern: a term is hashed exactly once,
//! on the way in.
//!
//! A large input can be split into chunks at row boundaries and each
//! chunk filled by its own builder on its own thread.
//! [`TableBuilder::finish`] then merges the chunks in input order: the
//! first chunk's dictionary becomes the table's, and every later chunk
//! remaps only its pooled symbols (strings and spilled values), the
//! first time each is met in row-major order. That is exactly the order
//! a single sequential load interns them in, so symbol numbering — and
//! with it fingerprints and report bytes — does not depend on how the
//! input was chunked.

use crate::error::{Error, Result};
use crate::schema::Schema;
use crate::sym::{Dictionary, Remap, Sym};
use crate::table::Table;
use std::sync::Arc;

/// One typed field of a row pushed through [`TableBuilder::push_row`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cell<'t> {
    /// An integer.
    Int(i64),
    /// A string, kept a string even when it reads as a number.
    Str(&'t str),
}

/// A chunk of rows under construction: a local dictionary, one symbol
/// column per attribute and the weights column. See the module docs.
///
/// # Examples
///
/// ```
/// use fd_core::{Schema, TableBuilder, Value};
///
/// let schema = Schema::new("R", ["city", "zip"]).unwrap();
/// let mut first = TableBuilder::new(2);
/// first.push_text_row(["Paris", "75"], 2.0).unwrap();
/// let mut second = TableBuilder::new(2);
/// second.push_text_row(["Nice", "06"], 1.0).unwrap();
/// let table = TableBuilder::finish(schema, [first, second]);
/// assert_eq!(table.len(), 2);
/// assert_eq!(table.row_at(1).tuple.values()[1], Value::Int(6));
/// ```
#[derive(Debug)]
pub struct TableBuilder {
    dict: Dictionary,
    cols: Vec<Vec<Sym>>,
    weights: Vec<f64>,
}

impl TableBuilder {
    /// An empty chunk with `arity` columns.
    pub fn new(arity: usize) -> TableBuilder {
        TableBuilder {
            dict: Dictionary::new(),
            cols: vec![Vec::new(); arity],
            weights: Vec::new(),
        }
    }

    /// Number of rows pushed so far.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// True iff no row has been pushed.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Appends one row of raw text fields, in column order: text that
    /// parses as `i64` becomes an integer, anything else a string
    /// ([`Dictionary::intern_text`]).
    ///
    /// # Errors
    ///
    /// [`Error::ArityMismatch`] when the row does not have one field per
    /// column (`found` counts every field), else
    /// [`Error::InvalidWeight`] unless the weight is positive and
    /// finite. A rejected row leaves the columns as they were, but its
    /// fields may already be interned: the dictionary can then hold
    /// values no column uses, so after an `Err` discard the builder
    /// rather than push on and [`finish`](TableBuilder::finish) it.
    pub fn push_text_row<'t>(
        &mut self,
        fields: impl IntoIterator<Item = &'t str>,
        weight: f64,
    ) -> Result<()> {
        self.push_interned(fields, weight, Dictionary::intern_text)
    }

    /// Appends one row of typed cells, in column order: a [`Cell::Str`]
    /// stays a string whatever it looks like, a [`Cell::Int`] is an
    /// integer. The row interns exactly as [`Table::push`] of the same
    /// [`Value`](crate::Value)s would, so a reader that knows each
    /// field's type (a JSON one) builds the table `push` would have.
    ///
    /// # Errors
    ///
    /// As [`TableBuilder::push_text_row`].
    pub fn push_row<'t>(
        &mut self,
        cells: impl IntoIterator<Item = Cell<'t>>,
        weight: f64,
    ) -> Result<()> {
        self.push_interned(cells, weight, |dict, cell| match cell {
            Cell::Int(i) => dict.intern_int(i),
            Cell::Str(s) => dict.intern_str(s),
        })
    }

    /// The one row push: each field interned by `intern`, then the
    /// arity and weight checks, with the columns rolled back on error.
    #[inline]
    fn push_interned<T>(
        &mut self,
        fields: impl IntoIterator<Item = T>,
        weight: f64,
        intern: impl Fn(&mut Dictionary, T) -> Sym,
    ) -> Result<()> {
        let arity = self.cols.len();
        let mut found = 0;
        for field in fields {
            if let Some(col) = self.cols.get_mut(found) {
                col.push(intern(&mut self.dict, field));
            }
            found += 1;
        }
        let error = if found != arity {
            Error::ArityMismatch {
                expected: arity,
                found,
            }
        } else if weight <= 0.0 || !weight.is_finite() {
            Error::InvalidWeight { weight }
        } else {
            self.weights.push(weight);
            return Ok(());
        };
        let rows = self.weights.len();
        for col in &mut self.cols {
            col.truncate(rows);
        }
        Err(error)
    }

    /// Merges chunks, in input order, into one table over `schema` with
    /// identifiers `0, 1, 2, …` — the same table, symbol for symbol, as
    /// one builder fed every row would have produced.
    ///
    /// # Panics
    ///
    /// If a chunk's column count differs from the schema's arity.
    pub fn finish(schema: Arc<Schema>, chunks: impl IntoIterator<Item = TableBuilder>) -> Table {
        let mut chunks = chunks.into_iter();
        let TableBuilder {
            mut dict,
            mut cols,
            mut weights,
        } = chunks
            .next()
            .unwrap_or_else(|| TableBuilder::new(schema.arity()));
        for mut chunk in chunks {
            assert_eq!(
                chunk.cols.len(),
                schema.arity(),
                "chunk arity differs from the schema"
            );
            if !chunk.dict.is_empty() {
                // Row-major, so new values enter `dict` in sequential
                // first-intern order.
                let mut remap = Remap::new(&chunk.dict);
                for pos in 0..chunk.len() {
                    for col in &mut chunk.cols {
                        col[pos] = remap.map(&mut dict, col[pos]);
                    }
                }
            }
            for (into, from) in cols.iter_mut().zip(&chunk.cols) {
                into.extend_from_slice(from);
            }
            weights.extend_from_slice(&chunk.weights);
        }
        Table::from_columns(schema, dict, cols, weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn schema(arity: usize) -> Arc<Schema> {
        Schema::new("R", (0..arity).map(|i| format!("c{i}"))).unwrap()
    }

    /// Raw symbol columns, weights and the decoded pool order of a table.
    fn fingerprint(t: &Table) -> (Vec<Vec<u32>>, Vec<f64>, Vec<Value>) {
        let cols = t
            .sym_cols()
            .iter()
            .map(|c| c.iter().map(|s| s.raw()).collect())
            .collect();
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
            cols,
            t.weights().to_vec(),
            pooled.into_iter().map(|(_, v)| v).collect(),
        )
    }

    #[test]
    fn rows_intern_text_like_the_dictionary() {
        let mut b = TableBuilder::new(3);
        b.push_text_row(["12", "y", "+40"], 3.0).unwrap();
        b.push_text_row(["007", "y", "99999999999"], 1.5).unwrap();
        let t = TableBuilder::finish(schema(3), [b]);
        assert_eq!(t.ids().map(|id| id.0).collect::<Vec<_>>(), [0, 1]);
        assert_eq!(t.weights(), &[3.0, 1.5]);
        assert_eq!(
            t.row_at(0).tuple.values(),
            &[Value::Int(12), Value::str("y"), Value::Int(40)]
        );
        assert_eq!(
            t.row_at(1).tuple.values(),
            &[Value::Int(7), Value::str("y"), Value::Int(99_999_999_999)]
        );
        assert_eq!(t.row(crate::TupleId(1)).unwrap(), t.row_at(1));
        assert_eq!(t.dictionary().len(), 2, "one string, one spilled integer");
    }

    #[test]
    fn typed_rows_intern_like_table_push() {
        let cells = [
            [Cell::Str("12"), Cell::Int(12), Cell::Int(1 << 40)],
            [Cell::Str("x"), Cell::Int(-7), Cell::Str("12")],
            [Cell::Int(1 << 40), Cell::Str("x"), Cell::Int(-(1 << 40))],
        ];
        let mut b = TableBuilder::new(3);
        let mut pushed = Table::new(schema(3));
        for (i, row) in cells.iter().enumerate() {
            let weight = 1.0 + i as f64;
            b.push_row(row.iter().copied(), weight).unwrap();
            let values: Vec<Value> = row
                .iter()
                .map(|cell| match *cell {
                    Cell::Int(i) => Value::Int(i),
                    Cell::Str(s) => Value::str(s),
                })
                .collect();
            pushed.push(crate::Tuple::new(values), weight).unwrap();
        }
        let built = TableBuilder::finish(schema(3), [b]);
        assert_eq!(fingerprint(&built), fingerprint(&pushed));
        assert_eq!(built, pushed);
        assert_eq!(built.row_at(0).tuple.values()[0], Value::str("12"));
        assert_eq!(
            TableBuilder::new(2).push_row([Cell::Int(1)], 1.0),
            Err(Error::ArityMismatch {
                expected: 2,
                found: 1
            })
        );
    }

    #[test]
    fn rejected_rows_leave_the_columns_untouched() {
        let mut b = TableBuilder::new(2);
        b.push_text_row(["a", "b"], 1.0).unwrap();
        assert_eq!(
            b.push_text_row(["a", "b", "c"], f64::NAN),
            Err(Error::ArityMismatch {
                expected: 2,
                found: 3
            }),
            "arity is reported before the weight"
        );
        assert_eq!(
            b.push_text_row(["a"], 1.0),
            Err(Error::ArityMismatch {
                expected: 2,
                found: 1
            })
        );
        for weight in [0.0, -1.0, f64::INFINITY] {
            assert_eq!(
                b.push_text_row(["x", "y"], weight),
                Err(Error::InvalidWeight { weight })
            );
        }
        assert!(b.push_text_row(["x", "y"], f64::NAN).is_err());
        assert_eq!(b.len(), 1);
        let t = TableBuilder::finish(schema(2), [b]);
        assert!(t.sym_cols().iter().all(|c| c.len() == 1));
    }

    #[test]
    fn chunked_merge_matches_one_sequential_builder() {
        // Strings, spilled integers and inline integers, repeated inside
        // and across chunks, and new values of each pool turning up in
        // more than one column of every chunk: only a row-major remap
        // numbers them in sequential order.
        let rows: Vec<[String; 3]> = (0..200u64)
            .map(|i| {
                [
                    format!("a{}", i / 2),
                    if i % 2 == 0 {
                        format!("{}", (i / 3) << 40)
                    } else {
                        format!("b{}", i / 3)
                    },
                    match i % 3 {
                        0 => format!("{}", (i / 2) << 41),
                        1 => format!("a{}", i / 2 + 1),
                        _ => format!("{}", i % 11),
                    },
                ]
            })
            .collect();
        let load = |bounds: &[usize]| {
            let chunks = bounds.windows(2).map(|w| {
                let mut b = TableBuilder::new(3);
                for (i, row) in rows[w[0]..w[1]].iter().enumerate() {
                    let weight = 1.0 + ((w[0] + i) % 3) as f64;
                    b.push_text_row(row.iter().map(String::as_str), weight)
                        .unwrap();
                }
                b
            });
            TableBuilder::finish(schema(3), chunks.collect::<Vec<_>>())
        };
        let sequential = load(&[0, 200]);
        for bounds in [
            vec![0, 100, 200],
            vec![0, 0, 1, 50, 50, 199, 200],
            vec![0, 7, 64, 65, 130, 200, 200],
        ] {
            let chunked = load(&bounds);
            assert_eq!(
                fingerprint(&chunked),
                fingerprint(&sequential),
                "{bounds:?}"
            );
            assert_eq!(chunked, sequential);
        }
        assert!(TableBuilder::finish(schema(3), []).is_empty());
    }
}
