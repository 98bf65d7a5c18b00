//! Engine adapter: plan/solve entry points over the update-repair and
//! mixed-repair machinery, consumed by the `fd-engine` planner.
//!
//! An update repair is planned once, by
//! [`URepairSolver::plan`](crate::URepairSolver::plan): the cheap
//! consensus pre-pass and polynomial-time tests, no solver. The engine
//! renders that plan for `explain()` and executes the same value for
//! `run()`. The plan/solve agreement is pinned by a test below.

use crate::bounds::ratio_kl;
use crate::exact::ExactConfig;
use crate::mixed::{
    approx_mixed_repair, mixed_ratio_bound, try_exact_mixed_repair, MixedCosts, MixedRepair,
};
use fd_core::{mlc, FdSet, Table};
use fd_srepair::osr_succeeds;

/// The guaranteed bound of the combined approximation on one
/// consensus-free component: `min(c·mlc, KL)` with `c = 1` on the
/// tractable side and `2` otherwise (§4.4).
pub fn approx_component_bound(comp: &FdSet) -> f64 {
    let c = if osr_succeeds(comp) { 1.0 } else { 2.0 };
    let m = mlc(comp).expect("consensus-free component has an lhs cover") as f64;
    (c * m).min(ratio_kl(comp))
}

/// The mixed-repair methods the adapter provides.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MixedMethod {
    /// Exhaustive enumeration of deletion sets with exact U-repairs on
    /// the survivors; optimal, exponential, ≤ 20 rows.
    ExactEnumeration,
    /// Vertex-cover + lhs-retagging approximation within
    /// [`mixed_ratio_bound`]; polynomial.
    VertexCoverRetag,
}

impl MixedMethod {
    /// The provenance name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            MixedMethod::ExactEnumeration => "MixedExactEnumeration",
            MixedMethod::VertexCoverRetag => "MixedVertexCoverRetag",
        }
    }
}

/// Rows beyond which no exact search runs, whatever the request's row
/// limits say: [`MixedMethod::ExactEnumeration`] enumerates `2ⁿ`
/// deletion sets, and the update search of
/// [`UMethod::ExactSearch`](crate::UMethod::ExactSearch) recurses once
/// per row over each row's candidate tuples.
pub const EXACT_MAX_ROWS: usize = 20;

/// Picks the mixed method the default policy would use.
pub fn mixed_strategy(rows: usize, exact_row_limit: usize) -> MixedMethod {
    if rows <= exact_row_limit.min(EXACT_MAX_ROWS) {
        MixedMethod::ExactEnumeration
    } else {
        MixedMethod::VertexCoverRetag
    }
}

/// A mixed repair with provenance, mirroring [`USolution`](crate::USolution).
#[derive(Clone, Debug)]
pub struct MixedSolution {
    /// The repair.
    pub repair: MixedRepair,
    /// How it was computed.
    pub method: MixedMethod,
    /// Whether the cost is guaranteed optimal.
    pub optimal: bool,
    /// Guaranteed ratio (1 when optimal).
    pub ratio: f64,
}

/// Executes the given mixed method. [`MixedMethod::ExactEnumeration`]
/// falls back to [`MixedMethod::VertexCoverRetag`] (and reports that
/// method, not optimal) when an exact search runs out of `node_budget`.
///
/// # Panics
/// Panics if [`MixedMethod::ExactEnumeration`] is requested on a table
/// beyond [`EXACT_MAX_ROWS`] rows — plan with [`mixed_strategy`]
/// (or check the row count) first.
pub fn solve_mixed(
    table: &Table,
    fds: &FdSet,
    costs: MixedCosts,
    method: MixedMethod,
    node_budget: u64,
) -> MixedSolution {
    match method {
        MixedMethod::ExactEnumeration => {
            let cfg = ExactConfig {
                max_nodes: node_budget,
                ..ExactConfig::default()
            };
            match try_exact_mixed_repair(table, fds, costs, &cfg) {
                Ok(repair) => MixedSolution {
                    repair,
                    method,
                    optimal: true,
                    ratio: 1.0,
                },
                Err(_) => solve_mixed(table, fds, costs, MixedMethod::VertexCoverRetag, 0),
            }
        }
        MixedMethod::VertexCoverRetag => MixedSolution {
            repair: approx_mixed_repair(table, fds, costs),
            method,
            optimal: false,
            ratio: mixed_ratio_bound(fds, costs),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{UMethod, URepairSolver};
    use fd_core::{schema_rabc, tup, Schema};

    #[test]
    fn plan_matches_what_the_solver_does() {
        let office = Schema::new("Office", ["facility", "room", "floor", "city"]).unwrap();
        let office_fds = FdSet::parse(&office, "facility -> city; facility room -> floor").unwrap();
        let office_t = Table::build(
            office.clone(),
            vec![
                (tup!["HQ", 322, 3, "Paris"], 2.0),
                (tup!["HQ", 322, 30, "Madrid"], 1.0),
                (tup!["HQ", 122, 1, "Madrid"], 1.0),
                (tup!["Lab1", "B35", 3, "London"], 2.0),
            ],
        )
        .unwrap();

        let s = schema_rabc();
        let cases: Vec<(Table, FdSet)> = vec![
            (office_t, office_fds),
            (
                Table::build_unweighted(s.clone(), vec![tup![1, 1, 0]]).unwrap(),
                FdSet::parse(&s, "A -> B").unwrap(),
            ),
            (
                Table::build_unweighted(s.clone(), vec![tup![1, 2, 0], tup![1, 3, 0]]).unwrap(),
                FdSet::parse(&s, "A -> B; B -> A").unwrap(),
            ),
            (
                Table::build_unweighted(
                    s.clone(),
                    vec![tup![1, 2, 0], tup![1, 3, 1], tup![4, 3, 0]],
                )
                .unwrap(),
                FdSet::parse(&s, "A -> C; B -> C").unwrap(),
            ),
            (
                Table::build_unweighted(
                    s.clone(),
                    (0..24).map(|i| tup![(i % 4) as i64, (i % 3) as i64, (i % 2) as i64]),
                )
                .unwrap(),
                FdSet::parse(&s, "A -> B; B -> C").unwrap(),
            ),
        ];
        for (t, fds) in cases {
            let solver = URepairSolver {
                exact_row_limit: 8,
                ..Default::default()
            };
            let plan = solver.plan(&t, &fds);
            let sol = solver.solve(&t, &fds);
            let planned: Vec<UMethod> = plan.steps.iter().map(|s| s.method).collect();
            assert_eq!(planned, sol.methods, "{}", fds.display(t.schema()));
            assert_eq!(plan.optimal, sol.optimal);
            assert_eq!(plan.ratio, sol.ratio);
        }
    }

    #[test]
    fn mixed_strategy_respects_caps() {
        assert_eq!(mixed_strategy(4, 8), MixedMethod::ExactEnumeration);
        assert_eq!(mixed_strategy(9, 8), MixedMethod::VertexCoverRetag);
        // The hard cap wins even with a generous configured limit.
        assert_eq!(mixed_strategy(21, 100), MixedMethod::VertexCoverRetag);
    }

    #[test]
    fn solve_mixed_both_methods_verify() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        let t = Table::build_unweighted(s, vec![tup!["x", 1, 0], tup!["x", 2, 0], tup!["y", 1, 0]])
            .unwrap();
        let exact = solve_mixed(
            &t,
            &fds,
            MixedCosts::UNIT,
            MixedMethod::ExactEnumeration,
            1 << 20,
        );
        assert!(exact.optimal);
        exact.repair.verify(&t, &fds, MixedCosts::UNIT);
        let approx = solve_mixed(&t, &fds, MixedCosts::UNIT, MixedMethod::VertexCoverRetag, 0);
        assert!(!approx.optimal);
        assert!(approx.ratio >= 1.0);
        approx.repair.verify(&t, &fds, MixedCosts::UNIT);
        assert!(exact.repair.cost <= approx.repair.cost + 1e-9);
    }
}
