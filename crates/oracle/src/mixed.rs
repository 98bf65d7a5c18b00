//! Ground-truth optimal mixed repairs: enumerate every deletion set and
//! hand the survivors to the update oracle — a direct transcription of
//! the §5 cost model (`delete · w(t)` per deleted tuple, `update · w(t)`
//! per changed cell), independent of `fd-urepair::mixed`.

use crate::update::{brute_update_repair, MAX_UPDATE_ROWS};
use fd_core::{FdSet, Table, TupleId};
use std::collections::HashSet;

/// A ground-truth mixed repair.
#[derive(Clone, Debug)]
pub struct OracleMixed {
    /// Identifiers of the deleted tuples, sorted.
    pub deleted: Vec<TupleId>,
    /// The repaired table (survivors after updates).
    pub repaired: Table,
    /// Total mixed cost under the multipliers used.
    pub cost: f64,
}

/// Computes an optimal mixed repair exhaustively. Exponential twice
/// over; capped at [`MAX_UPDATE_ROWS`] rows.
pub fn brute_mixed_repair(table: &Table, fds: &FdSet, delete: f64, update: f64) -> OracleMixed {
    assert!(
        table.len() <= MAX_UPDATE_ROWS,
        "brute_mixed_repair is exhaustive; got {} rows",
        table.len()
    );
    assert!(delete > 0.0 && update > 0.0, "multipliers must be positive");
    let ids: Vec<TupleId> = table.ids().collect();
    let n = ids.len();
    let mut best: Option<OracleMixed> = None;
    for mask in 0u32..(1u32 << n) {
        let deleted: Vec<TupleId> = (0..n)
            .filter(|&i| mask & (1 << i) != 0)
            .map(|i| ids[i])
            .collect();
        let delete_weight: f64 = deleted
            .iter()
            .map(|&id| table.weights()[table.position_of(id).expect("id from table")])
            .sum();
        let delete_cost = delete * delete_weight;
        if best.as_ref().is_some_and(|b| delete_cost >= b.cost) {
            continue;
        }
        let delete_set: HashSet<TupleId> = deleted.iter().copied().collect();
        let survivors = table.without(&delete_set);
        let upd = brute_update_repair(&survivors, fds);
        let cost = delete_cost + update * upd.cost;
        if best.as_ref().is_none_or(|b| cost < b.cost) {
            best = Some(OracleMixed {
                deleted,
                repaired: upd.updated,
                cost,
            });
        }
    }
    best.expect("the empty table is always a mixed repair")
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_core::{schema_rabc, tup, Schema};

    #[test]
    fn unit_costs_match_the_subset_optimum() {
        // With delete ≤ update, deleting dominates updating, so the
        // mixed optimum equals the subset optimum.
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B; B -> C").unwrap();
        let t = Table::build_unweighted(
            s,
            vec![tup![1, 1, 1], tup![1, 2, 2], tup![2, 2, 9], tup![3, 3, 3]],
        )
        .unwrap();
        let mixed = brute_mixed_repair(&t, &fds, 1.0, 1.0);
        let subset = crate::subset::brute_subset_repair(&t, &fds);
        assert!((mixed.cost - subset.cost).abs() < 1e-9);
    }

    #[test]
    fn huge_delete_cost_matches_the_update_optimum() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        let t =
            Table::build_unweighted(s, vec![tup![1, 1, 0], tup![1, 2, 0], tup![1, 3, 0]]).unwrap();
        let mixed = brute_mixed_repair(&t, &fds, 1000.0, 1.0);
        let upd = crate::update::brute_update_repair(&t, &fds);
        assert!(mixed.deleted.is_empty());
        assert!((mixed.cost - upd.cost).abs() < 1e-9);
    }

    #[test]
    fn genuinely_mixed_regime() {
        // Same construction as fd-urepair's mixing test, solved by an
        // independent path: optimum 2.5 with one deletion, one update.
        let s = Schema::new("R", ["A", "B", "C", "D"]).unwrap();
        let fds = FdSet::parse(&s, "A -> B; C -> D").unwrap();
        let t = Table::build_unweighted(
            s,
            vec![
                tup!["a", 1, "c", 1],
                tup!["a", 2, "c", 2],
                tup!["p", 1, "q", 1],
                tup!["p", 2, "q", 1],
            ],
        )
        .unwrap();
        let mixed = brute_mixed_repair(&t, &fds, 1.5, 1.0);
        assert!((mixed.cost - 2.5).abs() < 1e-9, "cost {}", mixed.cost);
        assert_eq!(mixed.deleted.len(), 1);
    }
}
