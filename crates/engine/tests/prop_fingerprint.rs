//! Property tests of [`table_fingerprint`]: over generated tables,
//! every one-step change of content moves the value — a cell, a
//! weight's bit pattern, an id, the order of two rows, the order of the
//! columns (with their names), a row more or less, and the strings
//! behind unchanged symbols — while a rebuild of the same content keeps
//! it. The Figure-1 office table's value is pinned to a literal, so a
//! change of the hash is always deliberate.

use fd_core::{Schema, Table, Tuple, TupleId, Value};
use fd_engine::{parse_table_doc, table_fingerprint, JsonLimits};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 300;

/// A table's content, row by row: id, values, weight.
#[derive(Clone, Debug)]
struct Content {
    attrs: Vec<String>,
    rows: Vec<(u32, Vec<Value>, f64)>,
}

impl Content {
    fn build(&self) -> Table {
        let schema = Schema::new("R", self.attrs.clone()).expect("distinct attribute names");
        let mut table = Table::new(schema);
        for (id, values, weight) in &self.rows {
            table
                .push_row(TupleId(*id), Tuple::new(values.iter().cloned()), *weight)
                .expect("valid row");
        }
        table
    }

    fn fingerprint(&self) -> u64 {
        table_fingerprint(&self.build())
    }
}

fn arb_value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..3u32) {
        0 => Value::Int(rng.gen_range(-5..5i64)),
        1 => Value::Int(rng.gen_range(-(1i64 << 40)..(1i64 << 40))),
        _ => Value::from(["a", "b", "HQ", "Paris", ""][rng.gen_range(0..5usize)]),
    }
}

/// Two to thirty rows of arity one to four, ids ascending with gaps,
/// small weights.
fn arb_content(rng: &mut StdRng) -> Content {
    let arity = rng.gen_range(1..5usize);
    let attrs = (0..arity).map(|i| format!("A{i}")).collect();
    let mut id = rng.gen_range(0..1_000u32);
    let rows = (0..rng.gen_range(2..31usize))
        .map(|_| {
            id += rng.gen_range(1..4u32);
            let values = (0..arity).map(|_| arb_value(rng)).collect();
            (id, values, f64::from(rng.gen_range(1..9u32)) / 2.0)
        })
        .collect();
    Content { attrs, rows }
}

/// Runs `check` on `CASES` generated tables, each with its own seed.
fn for_each_table(salt: u64, mut check: impl FnMut(&mut StdRng, Content)) {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(salt ^ (case << 8));
        let content = arb_content(&mut rng);
        check(&mut rng, content);
    }
}

#[test]
fn a_rebuild_of_the_same_content_keeps_the_value() {
    for_each_table(0xf1, |_, content| {
        assert_eq!(content.fingerprint(), content.fingerprint(), "{content:?}");
    });
}

#[test]
fn one_cell_edit_moves_the_value() {
    for_each_table(0xf2, |rng, content| {
        let table = content.build();
        let row = rng.gen_range(0..content.rows.len());
        let attr = rng.gen_range(0..content.attrs.len());
        let mut edited = table.clone();
        let old = &content.rows[row].1[attr];
        let new = match old {
            Value::Int(i) => Value::Int(i + 1),
            _ => Value::from("edited"),
        };
        edited
            .set_value(
                TupleId(content.rows[row].0),
                fd_core::AttrId::new(attr as u16),
                new,
            )
            .unwrap();
        assert_ne!(
            table_fingerprint(&table),
            table_fingerprint(&edited),
            "{content:?}"
        );
    });
}

#[test]
fn one_weight_change_moves_the_value() {
    for_each_table(0xf3, |rng, content| {
        let row = rng.gen_range(0..content.rows.len());
        for step in [0.5, f64::EPSILON * 4.0] {
            let mut changed = content.clone();
            let w = &mut changed.rows[row].2;
            // The second step is a few ulps: equal to two decimals,
            // distinct in its bit pattern.
            *w += step * *w;
            assert_ne!(content.fingerprint(), changed.fingerprint(), "{content:?}");
        }
    });
}

#[test]
fn one_id_change_moves_the_value() {
    for_each_table(0xf4, |rng, content| {
        let row = rng.gen_range(0..content.rows.len());
        let mut changed = content.clone();
        // Past the largest id, so the ids stay distinct.
        changed.rows[row].0 = content.rows.last().unwrap().0 + 1;
        assert_ne!(content.fingerprint(), changed.fingerprint(), "{content:?}");
    });
}

#[test]
fn swapping_two_rows_moves_the_value() {
    for_each_table(0xf5, |rng, content| {
        let i = rng.gen_range(0..content.rows.len());
        let j = (i + rng.gen_range(1..content.rows.len())) % content.rows.len();
        let mut swapped = content.clone();
        swapped.rows.swap(i, j);
        assert_ne!(content.fingerprint(), swapped.fingerprint(), "{content:?}");
    });
}

#[test]
fn a_column_permutation_with_its_names_moves_the_value() {
    for_each_table(0xf6, |rng, content| {
        let arity = content.attrs.len();
        if arity < 2 {
            return;
        }
        // A rotation by at least one: never the identity.
        let by = rng.gen_range(1..arity);
        let mut permuted = content.clone();
        permuted.attrs.rotate_left(by);
        for (_, values, _) in &mut permuted.rows {
            values.rotate_left(by);
        }
        assert_ne!(content.fingerprint(), permuted.fingerprint(), "{content:?}");
    });
}

#[test]
fn a_one_row_insert_or_delete_moves_the_value() {
    for_each_table(0xf7, |rng, content| {
        let mut deleted = content.clone();
        deleted.rows.remove(rng.gen_range(0..content.rows.len()));
        assert_ne!(content.fingerprint(), deleted.fingerprint(), "{content:?}");

        let mut inserted = content.clone();
        let (_, values, weight) = content.rows[0].clone();
        inserted
            .rows
            .push((content.rows.last().unwrap().0 + 1, values, weight));
        assert_ne!(content.fingerprint(), inserted.fingerprint(), "{content:?}");
    });
}

#[test]
fn strings_that_differ_under_the_same_symbols_move_the_value() {
    let mut tried = 0;
    for_each_table(0xf8, |_, content| {
        let mut renamed = content.clone();
        let mut any = false;
        for (_, values, _) in &mut renamed.rows {
            for v in values.iter_mut() {
                if let Value::Str(s) = v {
                    *v = Value::from(format!("{s}'"));
                    any = true;
                }
            }
        }
        if !any {
            return;
        }
        tried += 1;
        let (table, other) = (content.build(), renamed.build());
        // Renaming every string keeps the interning order, so the
        // symbol columns are equal: only the pools differ.
        assert_eq!(table.sym_cols(), other.sym_cols(), "{content:?}");
        assert_ne!(
            table_fingerprint(&table),
            table_fingerprint(&other),
            "{content:?}"
        );
    });
    assert!(tried > CASES / 2, "only {tried} tables held a string");
}

#[test]
fn the_office_table_fingerprint_is_pinned() {
    // examples/data/office.table.json: Figure 1's table as `PUT
    // /tables/{id}` takes it. A change here changes every stored
    // table's fingerprint; say so in the docs.
    let doc = include_str!("../../../examples/data/office.table.json");
    let table = parse_table_doc(doc, &JsonLimits::UNTRUSTED).unwrap();
    assert_eq!(
        format!("{:016x}", table_fingerprint(&table)),
        "166c289e16d02058"
    );
}
