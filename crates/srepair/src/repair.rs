//! The subset-repair result type.

use fd_core::{FdSet, Table, TupleId};

/// A consistent subset of a table, described by the identifiers it keeps,
/// together with its distance `dist_sub` from the original (§2.3).
#[derive(Clone, Debug, PartialEq)]
pub struct SRepair {
    /// Identifiers of the kept tuples, sorted.
    pub kept: Vec<TupleId>,
    /// `dist_sub(S, T)`: total weight of the deleted tuples.
    pub cost: f64,
}

impl SRepair {
    /// Builds a repair record from a kept-id list, computing the cost
    /// against the original table.
    pub fn from_kept(table: &Table, mut kept: Vec<TupleId>) -> SRepair {
        kept.sort_unstable();
        kept.dedup();
        // Membership through the table's dense position index — no
        // hashing; the deleted weights still sum in row order, so the
        // floating-point total is bit-identical to a filtered row scan.
        let mask = table.position_mask(kept.iter());
        let cost = table
            .weights()
            .iter()
            .zip(mask.iter())
            .filter(|(_, &in_kept)| !in_kept)
            .map(|(w, _)| w)
            .sum();
        SRepair { kept, cost }
    }

    /// Identifiers of the deleted tuples, in row order.
    pub fn deleted(&self, table: &Table) -> Vec<TupleId> {
        let mask = table.position_mask(self.kept.iter());
        table
            .ids()
            .zip(mask.iter())
            .filter(|(_, &in_kept)| !in_kept)
            .map(|(id, _)| id)
            .collect()
    }

    /// Materializes the repaired table.
    pub fn apply(&self, table: &Table) -> Table {
        table.subset_ids(self.kept.iter())
    }

    /// Verifies that this repair is a consistent subset of `table` and that
    /// the recorded cost matches `dist_sub`. Panics with a diagnostic
    /// otherwise; intended for tests and experiment harnesses.
    pub fn verify(&self, table: &Table, fds: &FdSet) {
        let repaired = self.apply(table);
        assert!(
            repaired.satisfies(fds),
            "repair is not consistent: {:?}",
            repaired.violating_pair(fds)
        );
        let dist = table
            .dist_sub(&repaired)
            .expect("apply() produces a subset");
        assert!(
            (dist - self.cost).abs() < 1e-9,
            "recorded cost {} disagrees with dist_sub {}",
            self.cost,
            dist
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_core::{schema_rabc, tup, FdSet, Table};

    #[test]
    fn from_kept_computes_cost() {
        let t = Table::build(
            schema_rabc(),
            vec![
                (tup!["x", 1, 0], 2.0),
                (tup!["x", 2, 0], 1.0),
                (tup!["y", 3, 0], 4.0),
            ],
        )
        .unwrap();
        let r = SRepair::from_kept(&t, vec![TupleId(0), TupleId(2)]);
        assert_eq!(r.cost, 1.0);
        assert_eq!(r.deleted(&t), vec![TupleId(1)]);
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        r.verify(&t, &fds);
        assert_eq!(r.apply(&t).len(), 2);
    }

    #[test]
    #[should_panic(expected = "not consistent")]
    fn verify_rejects_inconsistent_choice() {
        let t = Table::build(
            schema_rabc(),
            vec![(tup!["x", 1, 0], 1.0), (tup!["x", 2, 0], 1.0)],
        )
        .unwrap();
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        SRepair::from_kept(&t, vec![TupleId(0), TupleId(1)]).verify(&t, &fds);
    }
}
