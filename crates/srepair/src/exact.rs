//! Exact optimal S-repairs for *every* FD set, via the conflict graph.
//!
//! FD violations are always witnessed by pairs of tuples, so consistent
//! subsets are exactly the independent sets of the conflict graph and an
//! optimal S-repair is the complement of a minimum-weight vertex cover
//! (the strict reduction behind Proposition 3.3). Exponential in the worst
//! case — this is the oracle/baseline, not the production path.

use crate::repair::SRepair;
use crate::sharded::uncovered;
use fd_core::{ConflictIndex, FdSet, Table, TupleId};
use fd_graph::min_weight_vertex_cover;
use std::collections::HashSet;

/// Computes an optimal S-repair by exact minimum-weight vertex cover on
/// the conflict graph. Works for every FD set; exponential worst case.
pub fn exact_s_repair(table: &Table, fds: &FdSet) -> SRepair {
    let rows: Vec<u32> = (0..table.len() as u32).collect();
    let index = ConflictIndex::build(table, fds);
    SRepair::from_kept(
        table,
        uncovered(table, &index, &rows, min_weight_vertex_cover),
    )
}

/// Exhaustive optimal S-repair over all `2ⁿ` subsets (n ≤ 20): the oracle
/// used to validate the conflict-graph reduction itself.
pub fn brute_force_s_repair(table: &Table, fds: &FdSet) -> SRepair {
    let ids: Vec<TupleId> = table.ids().collect();
    let n = ids.len();
    assert!(n <= 20, "brute force limited to 20 tuples");
    let mut best_cost = f64::INFINITY;
    let mut best_kept: Vec<TupleId> = Vec::new();
    for mask in 0..(1u32 << n) {
        let keep: HashSet<TupleId> = (0..n)
            .filter(|&i| mask & (1 << i) != 0)
            .map(|i| ids[i])
            .collect();
        let sub = table.subset(&keep);
        if !sub.satisfies(fds) {
            continue;
        }
        let cost = table.dist_sub(&sub).expect("subset by construction");
        if cost < best_cost {
            best_cost = cost;
            best_kept = keep.into_iter().collect();
            best_kept.sort_unstable();
        }
    }
    SRepair::from_kept(table, best_kept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_core::{schema_rabc, tup, Schema, Table};
    use rand::prelude::*;

    #[test]
    fn exact_matches_brute_force_on_random_tables() {
        let s = schema_rabc();
        let specs = [
            "A -> B",
            "A -> B; B -> C",
            "A -> C; B -> C",
            "A B -> C; C -> B",
            "A B -> C; A C -> B; B C -> A",
            "-> C",
            "A -> B; B -> A; B -> C",
        ];
        let mut rng = StdRng::seed_from_u64(42);
        for spec in specs {
            let fds = FdSet::parse(&s, spec).unwrap();
            for _ in 0..8 {
                let n = rng.gen_range(2..9);
                let rows = (0..n).map(|_| {
                    (
                        tup![
                            rng.gen_range(0..3i64),
                            rng.gen_range(0..3i64),
                            rng.gen_range(0..3i64)
                        ],
                        rng.gen_range(1..4) as f64,
                    )
                });
                let t = Table::build(s.clone(), rows).unwrap();
                let fast = exact_s_repair(&t, &fds);
                let slow = brute_force_s_repair(&t, &fds);
                assert!(
                    (fast.cost - slow.cost).abs() < 1e-9,
                    "{spec}: exact={} brute={}\n{t}",
                    fast.cost,
                    slow.cost
                );
                fast.verify(&t, &fds);
            }
        }
    }

    #[test]
    fn exact_on_running_example() {
        let s = Schema::new("Office", ["facility", "room", "floor", "city"]).unwrap();
        let fds = FdSet::parse(&s, "facility -> city; facility room -> floor").unwrap();
        let t = Table::build(
            s,
            vec![
                (tup!["HQ", 322, 3, "Paris"], 2.0),
                (tup!["HQ", 322, 30, "Madrid"], 1.0),
                (tup!["HQ", 122, 1, "Madrid"], 1.0),
                (tup!["Lab1", "B35", 3, "London"], 2.0),
            ],
        )
        .unwrap();
        let r = exact_s_repair(&t, &fds);
        assert_eq!(r.cost, 2.0);
        r.verify(&t, &fds);
    }

    #[test]
    fn consistent_table_is_already_optimal() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B C").unwrap();
        let t = Table::build_unweighted(s, vec![tup![1, 1, 1], tup![2, 2, 2]]).unwrap();
        let r = exact_s_repair(&t, &fds);
        assert_eq!(r.cost, 0.0);
        assert_eq!(r.kept.len(), 2);
    }
}
