//! Subset repairs for pairwise constraints.
//!
//! The conflict-graph view of Proposition 3.3 lifts verbatim: consistent
//! subsets are independent sets, except that tuples with *single-tuple*
//! violations (constant CFDs, unary denial constraints) are deleted up
//! front — they can appear in no consistent subset. The optimal repair is
//! then the complement of a minimum-weight vertex cover (exact,
//! exponential in the worst case — unavoidable, subset repairing for
//! denial constraints is hard [27]) or of the Bar-Yehuda–Even
//! 2-approximate cover (polynomial).

use crate::constraint::PairwiseConstraint;
use fd_core::{FdSet, Table, TupleId};
use fd_graph::{min_weight_vertex_cover, vertex_cover_2approx, Graph};
use fd_srepair::SRepair;
use std::collections::HashSet;

/// The conflict structure of a table under pairwise constraints.
#[derive(Clone, Debug)]
pub struct ConflictAnalysis {
    /// Tuples violating some constraint on their own: forced deletions.
    pub forced: Vec<TupleId>,
    /// Unordered conflicting pairs among the remaining tuples.
    pub edges: Vec<(TupleId, TupleId)>,
}

impl ConflictAnalysis {
    /// Scans all single tuples and all pairs. `O(|Σ| · n²)`.
    pub fn build<C: PairwiseConstraint>(table: &Table, constraints: &[C]) -> ConflictAnalysis {
        let mut forced = Vec::new();
        let mut alive = Vec::new();
        for row in table.rows() {
            if constraints.iter().any(|c| c.violates_single(&row.tuple)) {
                forced.push(row.id);
            } else {
                alive.push(row);
            }
        }
        let mut edges = Vec::new();
        for (i, a) in alive.iter().enumerate() {
            for b in &alive[i + 1..] {
                if constraints
                    .iter()
                    .any(|c| c.violates_pair(&a.tuple, &b.tuple))
                {
                    edges.push((a.id, b.id));
                }
            }
        }
        ConflictAnalysis { forced, edges }
    }

    /// True iff the table satisfies every constraint outright.
    pub fn is_consistent(&self) -> bool {
        self.forced.is_empty() && self.edges.is_empty()
    }
}

/// True iff `table` satisfies all `constraints`.
pub fn satisfies<C: PairwiseConstraint>(table: &Table, constraints: &[C]) -> bool {
    ConflictAnalysis::build(table, constraints).is_consistent()
}

/// Optimal subset repair under pairwise constraints: forced deletions plus
/// an exact minimum-weight vertex cover of the residual conflict graph.
///
/// Exponential in the worst case (branch-and-bound); the polynomial
/// alternative is [`approx_subset_repair`].
pub fn optimal_subset_repair<C: PairwiseConstraint>(table: &Table, constraints: &[C]) -> SRepair {
    repair_with(table, constraints, min_weight_vertex_cover)
}

/// 2-approximate subset repair under pairwise constraints, in polynomial
/// time (forced deletions are exactly optimal; the pair conflicts are
/// covered by the Bar-Yehuda–Even cover, within factor 2).
pub fn approx_subset_repair<C: PairwiseConstraint>(table: &Table, constraints: &[C]) -> SRepair {
    repair_with(table, constraints, vertex_cover_2approx)
}

fn repair_with<C: PairwiseConstraint>(
    table: &Table,
    constraints: &[C],
    cover: impl Fn(&Graph) -> fd_graph::VertexCover,
) -> SRepair {
    let analysis = ConflictAnalysis::build(table, constraints);
    let forced: HashSet<TupleId> = analysis.forced.iter().copied().collect();
    let survivors: Vec<TupleId> = table.ids().filter(|id| !forced.contains(id)).collect();
    let index: std::collections::HashMap<TupleId, u32> = survivors
        .iter()
        .enumerate()
        .map(|(i, &id)| (id, i as u32))
        .collect();
    let mut graph = Graph::new(
        survivors
            .iter()
            .map(|&id| table.weights()[table.position_of(id).expect("id from table")])
            .collect(),
    );
    for (a, b) in &analysis.edges {
        graph.add_edge(index[a], index[b]);
    }
    let cover = cover(&graph);
    let covered: HashSet<u32> = cover.nodes.iter().copied().collect();
    let kept: Vec<TupleId> = survivors
        .iter()
        .enumerate()
        .filter(|(i, _)| !covered.contains(&(*i as u32)))
        .map(|(_, &id)| id)
        .collect();
    SRepair::from_kept(table, kept)
}

/// Brute-force optimal subset repair over all subsets — validation oracle
/// for ≤ ~18 tuples.
pub fn brute_force_subset_repair<C: PairwiseConstraint>(
    table: &Table,
    constraints: &[C],
) -> SRepair {
    let ids: Vec<TupleId> = table.ids().collect();
    let n = ids.len();
    assert!(n <= 18, "brute force supports at most 18 tuples");
    let mut best: Option<SRepair> = None;
    for mask in 0u32..(1u32 << n) {
        let kept: Vec<TupleId> = (0..n)
            .filter(|&i| mask & (1 << i) != 0)
            .map(|i| ids[i])
            .collect();
        let keep_set: HashSet<TupleId> = kept.iter().copied().collect();
        let sub = table.subset(&keep_set);
        if !satisfies(&sub, constraints) {
            continue;
        }
        let cand = SRepair::from_kept(table, kept);
        if best.as_ref().is_none_or(|b| cand.cost < b.cost) {
            best = Some(cand);
        }
    }
    best.expect("the empty subset is always consistent")
}

/// Convenience: the FDs of `fds` as pairwise constraints, so the generic
/// machinery can be cross-checked against `fd-srepair`.
pub fn fd_constraints(fds: &FdSet) -> Vec<crate::constraint::FdConstraint> {
    fds.iter()
        .cloned()
        .map(crate::constraint::FdConstraint)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfd::Cfd;
    use crate::dc::DenialConstraint;
    use fd_core::{schema_rabc, tup, FdSet};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn forced_deletions_for_constant_cfds() {
        let s = schema_rabc();
        // Tuples with A = uk must have B = 44.
        let cs = vec![Cfd::parse(&s, "A=uk -> B=44").unwrap()];
        let t = Table::build(
            s,
            vec![
                (tup!["uk", 44, 0], 1.0),
                (tup!["uk", 33, 0], 5.0), // violates alone, despite weight
                (tup!["fr", 33, 0], 1.0),
            ],
        )
        .unwrap();
        let analysis = ConflictAnalysis::build(&t, &cs);
        assert_eq!(analysis.forced, vec![TupleId(1)]);
        let rep = optimal_subset_repair(&t, &cs);
        assert_eq!(rep.kept, vec![TupleId(0), TupleId(2)]);
        assert_eq!(rep.cost, 5.0);
    }

    #[test]
    fn conditional_fd_only_fires_inside_pattern() {
        let s = schema_rabc();
        // A -> B enforced only where C = 1.
        let cs = vec![Cfd::parse(&s, "A=_, C=1 -> B=_").unwrap()];
        let t = Table::build_unweighted(
            s,
            vec![
                tup!["x", 1, 1],
                tup!["x", 2, 1], // conflicts with the first
                tup!["x", 3, 0], // out of pattern: no conflict
            ],
        )
        .unwrap();
        let rep = optimal_subset_repair(&t, &cs);
        assert_eq!(rep.cost, 1.0);
        assert_eq!(rep.kept.len(), 2);
    }

    #[test]
    fn exact_matches_brute_force_on_random_cfd_instances() {
        let mut rng = StdRng::seed_from_u64(0xcfd0);
        let s = schema_rabc();
        let cs = vec![
            Cfd::parse(&s, "A=_, C=1 -> B=_").unwrap(),
            Cfd::parse(&s, "A=uk -> B=44").unwrap(),
        ];
        for trial in 0..60 {
            let n = 1 + trial % 7;
            let rows: Vec<_> = (0..n)
                .map(|_| {
                    tup![
                        ["uk", "fr"][rng.gen_range(0..2usize)],
                        [33i64, 44][rng.gen_range(0..2usize)],
                        rng.gen_range(0..2) as i64
                    ]
                })
                .collect();
            let t = Table::build_unweighted(s.clone(), rows).unwrap();
            let exact = optimal_subset_repair(&t, &cs);
            let brute = brute_force_subset_repair(&t, &cs);
            assert!(
                (exact.cost - brute.cost).abs() < 1e-9,
                "trial {trial}: exact {} vs brute {} on {t:?}",
                exact.cost,
                brute.cost
            );
            assert!(satisfies(&exact.apply(&t), &cs));
        }
    }

    #[test]
    fn approx_within_factor_two() {
        let mut rng = StdRng::seed_from_u64(0xcfd1);
        let s = schema_rabc();
        let cs = vec![DenialConstraint::parse(&s, "t1.A = t2.A & t1.B > t2.B").unwrap()];
        for _ in 0..40 {
            let n = 2 + rng.gen_range(0..6);
            let rows: Vec<_> = (0..n)
                .map(|_| {
                    tup![
                        ["x", "y"][rng.gen_range(0..2usize)],
                        rng.gen_range(0..3) as i64,
                        0
                    ]
                })
                .collect();
            let t = Table::build_unweighted(s.clone(), rows).unwrap();
            let exact = optimal_subset_repair(&t, &cs);
            let approx = approx_subset_repair(&t, &cs);
            assert!(satisfies(&approx.apply(&t), &cs));
            assert!(approx.cost <= 2.0 * exact.cost + 1e-9);
        }
    }

    #[test]
    fn dc_ordering_repair() {
        let s = schema_rabc();
        // No salary (B) inversions against rank (C) within a department (A).
        let cs =
            vec![DenialConstraint::parse(&s, "t1.A = t2.A & t1.B > t2.B & t1.C < t2.C").unwrap()];
        let t = Table::build_unweighted(
            s,
            vec![
                tup!["sales", 100, 3],
                tup!["sales", 120, 2], // paid more, ranked lower: conflict
                tup!["sales", 90, 1],
                tup!["eng", 200, 1],
            ],
        )
        .unwrap();
        let rep = optimal_subset_repair(&t, &cs);
        assert_eq!(rep.cost, 1.0);
        assert!(satisfies(&rep.apply(&t), &cs));
    }

    #[test]
    fn fd_adapter_agrees_with_fd_srepair() {
        let mut rng = StdRng::seed_from_u64(0xcfd2);
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B; B -> C").unwrap();
        let cs = fd_constraints(&fds);
        for _ in 0..40 {
            let n = 1 + rng.gen_range(0..7);
            let rows: Vec<_> = (0..n)
                .map(|_| {
                    tup![
                        ["x", "y"][rng.gen_range(0..2usize)],
                        rng.gen_range(0..2) as i64,
                        rng.gen_range(0..2) as i64
                    ]
                })
                .collect();
            let t = Table::build_unweighted(s.clone(), rows).unwrap();
            let generic = optimal_subset_repair(&t, &cs);
            let direct = fd_srepair::exact_s_repair(&t, &fds);
            assert!(
                (generic.cost - direct.cost).abs() < 1e-9,
                "generic {} vs fd-srepair {} on {t:?}",
                generic.cost,
                direct.cost
            );
        }
    }
}
