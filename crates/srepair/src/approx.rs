//! The 2-approximation of Proposition 3.3: delete a Bar-Yehuda–Even
//! 2-approximate weighted vertex cover of the conflict graph.

use crate::repair::SRepair;
use crate::sharded::uncovered;
use fd_core::{ConflictIndex, FdSet, Table};
use fd_graph::vertex_cover_2approx;

/// Computes a 2-optimal S-repair in polynomial time (Proposition 3.3):
/// `dist_sub(S, T) ≤ 2 · dist_sub(S*, T)` for every FD set `Δ`.
pub fn approx_s_repair(table: &Table, fds: &FdSet) -> SRepair {
    let rows: Vec<u32> = (0..table.len() as u32).collect();
    let index = ConflictIndex::build(table, fds);
    SRepair::from_kept(table, uncovered(table, &index, &rows, vertex_cover_2approx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_s_repair;
    use fd_core::{schema_rabc, tup, Table};
    use rand::prelude::*;

    #[test]
    fn approx_is_consistent_and_within_factor_two() {
        let s = schema_rabc();
        let specs = ["A -> B; B -> C", "A -> C; B -> C", "A B -> C; C -> B"];
        let mut rng = StdRng::seed_from_u64(77);
        for spec in specs {
            let fds = FdSet::parse(&s, spec).unwrap();
            for _ in 0..10 {
                let n = rng.gen_range(3..12);
                let rows = (0..n).map(|_| {
                    (
                        tup![
                            rng.gen_range(0..3i64),
                            rng.gen_range(0..3i64),
                            rng.gen_range(0..3i64)
                        ],
                        rng.gen_range(1..5) as f64,
                    )
                });
                let t = Table::build(s.clone(), rows).unwrap();
                let approx = approx_s_repair(&t, &fds);
                approx.verify(&t, &fds);
                let exact = exact_s_repair(&t, &fds);
                assert!(
                    approx.cost <= 2.0 * exact.cost + 1e-9,
                    "{spec}: approx={} exact={}",
                    approx.cost,
                    exact.cost
                );
            }
        }
    }

    #[test]
    fn approx_on_consistent_table_deletes_nothing() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        let t = Table::build_unweighted(s, vec![tup![1, 1, 1], tup![2, 2, 2]]).unwrap();
        let r = approx_s_repair(&t, &fds);
        assert_eq!(r.cost, 0.0);
    }
}
