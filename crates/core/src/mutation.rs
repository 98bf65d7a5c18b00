//! In-place table mutations: the write path of the incremental repair
//! engine.
//!
//! A live service does not replace whole tables — it inserts rows,
//! deletes rows, and edits cells. [`Mutation`] is that vocabulary as a
//! value (parseable from the wire, replayable from a trace file), and
//! [`Table::apply_mutation`] executes one against the columnar storage
//! while keeping the dictionary, the symbol columns, and the identifier
//! index coherent:
//!
//! * the dictionary only ever **grows** — existing symbols keep their
//!   ids across any number of mutations, so derived structures keyed in
//!   symbol space (cached component solutions, conflict scans) stay
//!   valid for untouched rows;
//! * deletes preserve row order (later rows shift down), so a mutated
//!   table is indistinguishable from one freshly built in the same
//!   final order;
//! * identifiers are never reused — an insert after a delete gets a
//!   fresh id, so cached per-component id lists can never alias a new
//!   row.
//!
//! The returned [`MutationEffect`] carries the *prior* state (the
//! deleted row, the overwritten value), which is exactly what an
//! incremental maintainer needs to invalidate the structures the old
//! state participated in.

use crate::error::Result;
use crate::schema::AttrId;
use crate::table::{Row, Table, TupleId};
use crate::tuple::Tuple;
use crate::value::Value;

/// One in-place table edit, as issued by `POST /tables/{id}/mutate`,
/// replayed by `fdrepair mutate`, and maintained incrementally by the
/// repair session layer.
#[derive(Clone, Debug, PartialEq)]
pub enum Mutation {
    /// Append a new row; the identifier is assigned automatically
    /// (always a fresh id above every id the table has ever used).
    Insert {
        /// The new tuple.
        tuple: Tuple,
        /// Its weight (must be positive and finite).
        weight: f64,
    },
    /// Remove an existing row.
    Delete {
        /// The identifier to remove.
        id: TupleId,
    },
    /// Replace the value of one cell.
    SetCell {
        /// The row to edit.
        id: TupleId,
        /// The attribute to edit.
        attr: AttrId,
        /// The new value.
        value: Value,
    },
}

/// What one [`Table::apply_mutation`] call did, including the prior
/// state a caller needs to invalidate derived structures.
#[derive(Clone, Debug, PartialEq)]
pub enum MutationEffect {
    /// A row was appended.
    Inserted {
        /// The freshly assigned identifier.
        id: TupleId,
    },
    /// A row was removed.
    Deleted {
        /// The removed row (id, tuple, weight).
        row: Row,
    },
    /// A cell was replaced.
    CellSet {
        /// The edited row.
        id: TupleId,
        /// The edited attribute.
        attr: AttrId,
        /// The value the cell held before the edit.
        old: Value,
    },
}

impl MutationEffect {
    /// The identifier the mutation touched.
    pub fn id(&self) -> TupleId {
        match self {
            MutationEffect::Inserted { id } => *id,
            MutationEffect::Deleted { row } => row.id,
            MutationEffect::CellSet { id, .. } => *id,
        }
    }
}

impl Table {
    /// Applies one [`Mutation`] in place, returning what it did. Errors
    /// (unknown identifier, bad weight, arity mismatch) leave the table
    /// unchanged.
    pub fn apply_mutation(&mut self, m: &Mutation) -> Result<MutationEffect> {
        match m {
            Mutation::Insert { tuple, weight } => {
                let id = self.push(tuple.clone(), *weight)?;
                Ok(MutationEffect::Inserted { id })
            }
            Mutation::Delete { id } => Ok(MutationEffect::Deleted {
                row: self.delete_row(*id)?,
            }),
            Mutation::SetCell { id, attr, value } => {
                let old = self.set_value(*id, *attr, value.clone())?;
                Ok(MutationEffect::CellSet {
                    id: *id,
                    attr: *attr,
                    old,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::schema_rabc;
    use crate::tup;

    fn table() -> Table {
        Table::build(
            schema_rabc(),
            vec![
                (tup!["x", 1, 2], 1.0),
                (tup!["y", 1, 3], 2.0),
                (tup!["z", 2, 2], 1.5),
            ],
        )
        .unwrap()
    }

    #[test]
    fn delete_preserves_row_order_and_index() {
        let mut t = table();
        let gone = t.delete_row(TupleId(1)).unwrap();
        assert_eq!(gone.tuple, tup!["y", 1, 3]);
        assert_eq!(gone.weight, 2.0);
        assert_eq!(t.len(), 2);
        // Remaining rows keep their ids, order, columns and weights.
        let ids: Vec<TupleId> = t.ids().collect();
        assert_eq!(ids, vec![TupleId(0), TupleId(2)]);
        assert_eq!(t.position_of(TupleId(0)), Some(0));
        assert_eq!(t.position_of(TupleId(2)), Some(1));
        assert_eq!(t.position_of(TupleId(1)), None);
        assert!(t.row(TupleId(1)).is_err());
        assert_eq!(t.weights(), &[1.0, 1.5]);
        // The mutated table equals one built fresh in the same order
        // under the surviving ids.
        let mut fresh = Table::new(schema_rabc());
        fresh.push_row(TupleId(0), tup!["x", 1, 2], 1.0).unwrap();
        fresh.push_row(TupleId(2), tup!["z", 2, 2], 1.5).unwrap();
        assert_eq!(t, fresh);
        for (c, col) in t.sym_cols().iter().enumerate() {
            assert_eq!(col.len(), 2, "column {c} shifted");
        }
    }

    #[test]
    fn identifiers_are_never_reused() {
        let mut t = table();
        t.delete_row(TupleId(2)).unwrap();
        let id = t.push(tup!["w", 9, 9], 1.0).unwrap();
        assert_eq!(id, TupleId(3), "deleted ids must stay dead");
        t.delete_row(TupleId(0)).unwrap();
        let id = t.push(tup!["v", 8, 8], 1.0).unwrap();
        assert_eq!(id, TupleId(4));
        let ids: Vec<TupleId> = t.ids().collect();
        assert_eq!(ids, vec![TupleId(1), TupleId(3), TupleId(4)]);
    }

    #[test]
    fn dictionary_only_grows_and_symbols_stay_stable() {
        let mut t = table();
        let s = t.schema().clone();
        let a = s.attr("A").unwrap();
        let before: Vec<_> = t.col(a).to_vec();
        let dict_len = t.dictionary().len();
        // New values grow the dictionary; old symbols are untouched.
        t.push(tup!["brand-new", 1, 2], 1.0).unwrap();
        t.set_value(TupleId(1), a, Value::str("also-new")).unwrap();
        assert!(t.dictionary().len() > dict_len);
        assert_eq!(t.col(a)[0], before[0], "untouched symbol moved");
        assert_eq!(t.col(a)[2], before[2], "untouched symbol moved");
        // Deleting the only row holding a value does NOT shrink the
        // dictionary — symbol ids are append-only by design.
        let grown = t.dictionary().len();
        t.delete_row(TupleId(3)).unwrap();
        assert_eq!(t.dictionary().len(), grown);
    }

    #[test]
    fn apply_mutation_reports_prior_state_and_rolls_nothing_on_error() {
        let mut t = table();
        let s = t.schema().clone();
        let b = s.attr("B").unwrap();
        let effect = t
            .apply_mutation(&Mutation::SetCell {
                id: TupleId(0),
                attr: b,
                value: Value::from(77),
            })
            .unwrap();
        assert_eq!(
            effect,
            MutationEffect::CellSet {
                id: TupleId(0),
                attr: b,
                old: Value::from(1),
            }
        );
        let effect = t
            .apply_mutation(&Mutation::Insert {
                tuple: tup!["q", 5, 5],
                weight: 2.0,
            })
            .unwrap();
        assert_eq!(effect.id(), TupleId(3));
        let effect = t
            .apply_mutation(&Mutation::Delete { id: TupleId(2) })
            .unwrap();
        assert_eq!(effect.id(), TupleId(2));
        assert_eq!(t.len(), 3);

        // Every error leaves the table untouched.
        let snapshot = t.clone();
        assert!(t
            .apply_mutation(&Mutation::Delete { id: TupleId(2) })
            .is_err());
        assert!(t
            .apply_mutation(&Mutation::SetCell {
                id: TupleId(99),
                attr: b,
                value: Value::from(1),
            })
            .is_err());
        assert!(t
            .apply_mutation(&Mutation::Insert {
                tuple: tup!["q", 5, 5],
                weight: -1.0,
            })
            .is_err());
        assert!(t
            .apply_mutation(&Mutation::Insert {
                tuple: Tuple::new(vec![Value::from(1)]),
                weight: 1.0,
            })
            .is_err());
        assert_eq!(t, snapshot);
    }

    #[test]
    fn deletes_work_on_gathers_with_a_wide_id_range() {
        // A gathered table whose id range is far wider than its row
        // count; deletes must keep its id index coherent.
        let mut big = Table::new(schema_rabc());
        for i in 0..200 {
            big.push(tup![i, i % 3, 0], 1.0).unwrap();
        }
        let mut shard = big.gather_positions(&[0, 90, 199]);
        assert_eq!(shard.len(), 3);
        shard.delete_row(TupleId(90)).unwrap();
        assert_eq!(shard.position_of(TupleId(0)), Some(0));
        assert_eq!(shard.position_of(TupleId(199)), Some(1));
        assert_eq!(shard.position_of(TupleId(90)), None);
        assert_eq!(shard.row(TupleId(199)).unwrap().tuple, tup![199, 1, 0]);
    }

    #[test]
    fn delete_then_reinsert_round_trips_weights_and_values() {
        let mut t = table();
        let row = t.delete_row(TupleId(0)).unwrap();
        let id = t.push(row.tuple.clone(), row.weight).unwrap();
        assert_eq!(t.row(id).unwrap().tuple, tup!["x", 1, 2]);
        assert_eq!(t.row(id).unwrap().weight, 1.0);
        assert_eq!(t.total_weight(), 4.5);
    }
}
