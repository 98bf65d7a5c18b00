//! The update-repair result type.

use fd_core::{Error, FdSet, Result, Table};

/// A consistent update of a table, with its distance `dist_upd` (§2.3).
#[derive(Clone, Debug)]
pub struct URepair {
    /// The updated table (same ids and weights as the original).
    pub updated: Table,
    /// `dist_upd(U, T)`: weighted Hamming distance from the original.
    pub cost: f64,
}

impl URepair {
    /// Validates that `updated` is an update of `original` and records the
    /// distance.
    pub fn new(original: &Table, updated: Table) -> Result<URepair> {
        let cost = original.dist_upd(&updated)?;
        Ok(URepair { updated, cost })
    }

    /// The identity update (no cells changed).
    pub fn identity(original: &Table) -> URepair {
        URepair {
            updated: original.clone(),
            cost: 0.0,
        }
    }

    /// Verifies consistency and the recorded cost; panics with a diagnostic
    /// otherwise. For tests and experiment harnesses.
    pub fn verify(&self, original: &Table, fds: &FdSet) {
        assert!(
            self.updated.satisfies(fds),
            "update is not consistent: {:?}",
            self.updated.violating_pair(fds)
        );
        let dist = original
            .dist_upd(&self.updated)
            .expect("updated table must be an update of the original");
        assert!(
            (dist - self.cost).abs() < 1e-9,
            "recorded cost {} disagrees with dist_upd {}",
            self.cost,
            dist
        );
    }

    /// Merges `other`, an update of `original`, on top of this one,
    /// provided the two touch disjoint cells (the composition step of
    /// Theorem 4.1). The cost is the sum of both costs, so a merged
    /// repair keeps the exact bits of its parts' distances.
    pub fn compose(self, original: &Table, other: &URepair) -> Result<URepair> {
        let mut table = self.updated;
        for (id, attr, old, new) in original.changed_cells(&other.updated)? {
            let prev = table.set_value(id, attr, new)?;
            if prev != old {
                // Both updates touched the same cell: not attribute disjoint.
                return Err(Error::NotAnUpdate);
            }
        }
        Ok(URepair {
            updated: table,
            cost: self.cost + other.cost,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_core::{schema_rabc, tup, AttrId, Value};

    #[test]
    fn new_validates_and_measures() {
        let t = Table::build(
            schema_rabc(),
            vec![(tup![1, 1, 1], 2.0), (tup![2, 2, 2], 1.0)],
        )
        .unwrap();
        let mut u = t.clone();
        u.set_value(fd_core::TupleId(0), AttrId::new(2), Value::from(9))
            .unwrap();
        let r = URepair::new(&t, u).unwrap();
        assert_eq!(r.cost, 2.0);
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        r.verify(&t, &fds);
    }

    #[test]
    fn compose_disjoint_updates() {
        let t = Table::build_unweighted(schema_rabc(), vec![tup![1, 1, 1]]).unwrap();
        let mut ua = t.clone();
        ua.set_value(fd_core::TupleId(0), AttrId::new(0), Value::from(7))
            .unwrap();
        let mut ub = t.clone();
        ub.set_value(fd_core::TupleId(0), AttrId::new(2), Value::from(8))
            .unwrap();
        let a = URepair::new(&t, ua).unwrap();
        let b = URepair::new(&t, ub).unwrap();
        let merged = a.compose(&t, &b).unwrap();
        assert_eq!(merged.cost, 2.0);
        assert_eq!(
            merged.updated.row(fd_core::TupleId(0)).unwrap().tuple,
            tup![7, 1, 8]
        );
    }

    #[test]
    fn compose_rejects_overlapping_updates() {
        let t = Table::build_unweighted(schema_rabc(), vec![tup![1, 1, 1]]).unwrap();
        let mut ua = t.clone();
        ua.set_value(fd_core::TupleId(0), AttrId::new(0), Value::from(7))
            .unwrap();
        let mut ub = t.clone();
        ub.set_value(fd_core::TupleId(0), AttrId::new(0), Value::from(8))
            .unwrap();
        let a = URepair::new(&t, ua).unwrap();
        let b = URepair::new(&t, ub).unwrap();
        assert!(a.compose(&t, &b).is_err());
    }
}
