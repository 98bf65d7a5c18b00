//! The update-repair result type and its one writer. A U-repair is its
//! changed cells (§2.3), with their weighted Hamming cost: every §4
//! constructor writes them through [`UpdateWriter`], Theorem 4.1 merges
//! attribute-disjoint cell lists ([`URepair::compose`]), and the
//! repaired table is built only where a caller asks ([`URepair::apply`]).

use fd_core::{AttrId, Error, FdSet, Result, Table, TupleId, Value};

/// A consistent update of a table, as its changed cells, with its
/// distance `dist_upd` (§2.3).
#[derive(Clone, Debug, Default)]
pub struct URepair {
    /// One `(id, attr, new value)` per changed cell, in the input's row
    /// order and then attribute order. No cell holds its input value.
    pub cells: Vec<(TupleId, AttrId, Value)>,
    /// `dist_upd(U, T)`: weighted Hamming distance from the original.
    pub cost: f64,
}

impl URepair {
    /// The repaired table: `original` with every cell written.
    pub fn apply(&self, original: &Table) -> Table {
        write_cells(original.clone(), &self.cells)
    }

    /// Verifies consistency and the recorded cost; panics with a diagnostic
    /// otherwise. For tests and experiment harnesses.
    pub fn verify(&self, original: &Table, fds: &FdSet) {
        let updated = self.apply(original);
        assert!(
            updated.satisfies(fds),
            "update is not consistent: {:?}",
            updated.violating_pair(fds)
        );
        let dist = original
            .dist_upd(&updated)
            .expect("updated table must be an update of the original");
        assert!(
            (dist - self.cost).abs() < 1e-9,
            "recorded cost {} disagrees with dist_upd {}",
            self.cost,
            dist
        );
    }

    /// Merges `other`, an update of `original`, into this one, provided
    /// the two touch disjoint cells (the composition step of
    /// Theorem 4.1). The cost is the sum of both costs, so a merged
    /// repair keeps the exact bits of its parts' distances.
    pub fn compose(self, original: &Table, other: URepair) -> Result<URepair> {
        let cost = self.cost + other.cost;
        let mut cells = self.cells;
        cells.extend(other.cells);
        // Two row-ordered runs: the stable sort merges them in one pass.
        cells.sort_by_key(|&(id, attr, _)| (original.position_of(id), attr));
        if cells
            .windows(2)
            .any(|w| (w[0].0, w[0].1) == (w[1].0, w[1].1))
        {
            return Err(Error::NotAnUpdate); // not attribute disjoint
        }
        Ok(URepair { cells, cost })
    }
}

/// Writes `cells` into `table` and returns it.
pub(crate) fn write_cells(mut table: Table, cells: &[(TupleId, AttrId, Value)]) -> Table {
    for (id, attr, value) in cells {
        table
            .set_value(*id, *attr, value.clone())
            .expect("cells name rows of the table");
    }
    table
}

/// Records the cell changes of one update of `base`: every §4
/// constructor builds its [`URepair`] through one.
pub(crate) struct UpdateWriter<'t> {
    base: &'t Table,
    /// `(row position, attr, value)`, in write order.
    cells: Vec<(u32, AttrId, Value)>,
}

impl<'t> UpdateWriter<'t> {
    /// A writer with no changes over `base`.
    pub(crate) fn new(base: &'t Table) -> UpdateWriter<'t> {
        let cells = Vec::new();
        UpdateWriter { base, cells }
    }

    /// Sets the cell at row position `pos` to `value`, unless that is
    /// the base value already. Each cell is written at most once.
    pub(crate) fn set(&mut self, pos: usize, attr: AttrId, value: Value) {
        if self.base.dictionary().lookup(&value) != Some(self.base.col(attr)[pos]) {
            self.cells.push((pos as u32, attr, value));
        }
    }

    /// The update: cells in row and then attribute order, and the cost
    /// `Σ w · (changed cells of the row)` summed row by row in row order,
    /// the order (and so the exact bits) of `Table::dist_upd`.
    pub(crate) fn finish(mut self) -> URepair {
        self.cells
            .sort_unstable_by_key(|&(pos, attr, _)| (pos, attr));
        let twice = |w: &[(u32, AttrId, Value)]| (w[0].0, w[0].1) == (w[1].0, w[1].1);
        debug_assert!(!self.cells.windows(2).any(twice), "a cell written twice");
        let (base, mut cost) = (self.base, 0.0);
        for row in self.cells.chunk_by(|a, b| a.0 == b.0) {
            cost += base.weights()[row[0].0 as usize] * row.len() as f64;
        }
        let cells = self
            .cells
            .into_iter()
            .map(|(pos, attr, value)| (base.id_at(pos as usize), attr, value))
            .collect();
        URepair { cells, cost }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_core::{schema_rabc, tup};

    fn one_cell(t: &Table, pos: usize, attr: u16, v: i64) -> URepair {
        let mut w = UpdateWriter::new(t);
        w.set(pos, AttrId::new(attr), Value::from(v));
        w.finish()
    }

    #[test]
    fn writer_measures_and_applies() {
        let t = Table::build(
            schema_rabc(),
            vec![(tup![1, 1, 1], 2.0), (tup![2, 2, 2], 1.0)],
        )
        .unwrap();
        let r = one_cell(&t, 0, 2, 9);
        assert_eq!(r.cost, 2.0);
        assert_eq!(r.cells, vec![(TupleId(0), AttrId::new(2), Value::from(9))]);
        let fds = FdSet::parse(t.schema(), "A -> B").unwrap();
        r.verify(&t, &fds);
        assert_eq!(t.dist_upd(&r.apply(&t)).unwrap(), r.cost);
    }

    #[test]
    fn writer_drops_unchanged_cells_and_orders_by_row() {
        let t = Table::build_unweighted(schema_rabc(), vec![tup![1, 1, 1], tup![2, 2, 2]]).unwrap();
        let mut w = UpdateWriter::new(&t);
        w.set(1, AttrId::new(0), Value::from(5));
        w.set(0, AttrId::new(1), Value::from(1)); // already 1: dropped
        w.set(0, AttrId::new(2), Value::from(2));
        let r = w.finish();
        assert_eq!(
            r.cells,
            vec![
                (TupleId(0), AttrId::new(2), Value::from(2)),
                (TupleId(1), AttrId::new(0), Value::from(5)),
            ]
        );
        assert_eq!(r.cost, 2.0);
    }

    #[test]
    fn compose_disjoint_updates() {
        let t = Table::build_unweighted(schema_rabc(), vec![tup![1, 1, 1], tup![2, 2, 2]]).unwrap();
        let a = one_cell(&t, 1, 0, 7);
        let b = one_cell(&t, 0, 2, 8);
        let merged = a.compose(&t, b).unwrap();
        assert_eq!(merged.cost, 2.0);
        assert_eq!(
            merged.cells,
            vec![
                (TupleId(0), AttrId::new(2), Value::from(8)),
                (TupleId(1), AttrId::new(0), Value::from(7)),
            ]
        );
        assert_eq!(
            merged.apply(&t).row(TupleId(1)).unwrap().tuple,
            tup![7, 2, 2]
        );
    }

    #[test]
    fn compose_rejects_overlapping_updates() {
        let t = Table::build_unweighted(schema_rabc(), vec![tup![1, 1, 1]]).unwrap();
        let a = one_cell(&t, 0, 0, 7);
        let b = one_cell(&t, 0, 0, 8);
        assert!(a.compose(&t, b).is_err());
    }
}
