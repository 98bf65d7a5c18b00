//! The `2·mlc(Δ)`-approximation of Theorem 4.12, sharpened by
//! Theorems 4.1 and 4.3:
//!
//! 1. repair the consensus attributes optimally (Proposition B.2);
//! 2. split the remainder into attribute-disjoint components;
//! 3. per component, compute an S-repair — optimal via Algorithm 1 when
//!    `OSRSucceeds`, else the 2-approximation of Proposition 3.3 — and
//!    convert it with Proposition 4.4(2), paying `mlc(Δᵢ)` per deleted
//!    tuple.
//!
//! The guaranteed ratio is `max_i (cᵢ · mlc(Δᵢ))` with `cᵢ ∈ {1, 2}`
//! depending on whether the component's S-repair was optimal.

use crate::convert::subset_to_update;
use crate::decompose::{attribute_components, consensus_first};
use crate::repair::URepair;
use fd_core::{mlc, ConflictIndex, FdSet, Table};
use fd_srepair::{osr_succeeds, sharded_s_repair_indexed, ShardConfig};

/// An approximate U-repair together with its guaranteed ratio.
#[derive(Clone, Debug)]
pub struct ApproxURepair {
    /// The repair.
    pub repair: URepair,
    /// Guaranteed approximation ratio (1.0 means provably optimal).
    pub ratio: f64,
}

/// Computes a `2·mlc(Δ)`-optimal U-repair in polynomial time
/// (Theorem 4.12, with the component-wise refinement of Theorem 4.1 and
/// consensus stripping of Theorem 4.3).
pub fn approx_u_repair(table: &Table, fds: &FdSet) -> ApproxURepair {
    // The rest is solved on the consensus-fixed table so later lhs
    // groupings see the final consensus values (the components are
    // attribute-disjoint from the consensus attributes, so costs compose
    // per Theorem 4.1).
    let (mut repair, _, base, rest) = consensus_first(table, fds);
    let mut ratio: f64 = 1.0;
    for comp in attribute_components(&rest) {
        let comp_mlc = mlc(&comp).expect("components are consensus-free") as f64;
        let c = if osr_succeeds(&comp) { 1.0 } else { 2.0 };
        let index = ConflictIndex::build(&base, &comp);
        let part = subset_reduction(&base, &comp, &index, 1);
        ratio = ratio.max(c * comp_mlc);
        repair = repair
            .compose(&base, part)
            .expect("components touch disjoint attributes");
    }
    ApproxURepair { repair, ratio }
}

/// Theorem 4.12's step on one consensus-free component `comp`, whose
/// `index` over `base` it reads: a sharded subset solve (Algorithm 1 on
/// the tractable side, else the 2-approximation), converted by
/// Proposition 4.4(2). With a common lhs it is Corollary 4.6's optimum.
pub(crate) fn subset_reduction(
    base: &Table,
    comp: &FdSet,
    index: &ConflictIndex,
    threads: usize,
) -> URepair {
    let cfg = ShardConfig {
        threads,
        component_exact_limit: 0,
        force_exact: false,
    };
    let srepair = sharded_s_repair_indexed(base, comp, index, &cfg).repair;
    subset_to_update(base, &srepair, comp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{exact_u_repair, ExactConfig};
    use fd_core::{schema_rabc, tup, Schema};
    use rand::prelude::*;

    #[test]
    fn ratio_bound_holds_against_exact_on_small_instances() {
        let s = schema_rabc();
        // Expected ratio = c·mlc per component: "A → B" succeeds via
        // Algorithm 1 (c = 1) with mlc 1; the other three fail OSRSucceeds
        // (c = 2) and have mlc 2 (no attribute hits both lhs's).
        let specs = [
            ("A -> B", 1.0),
            ("A -> B; B -> C", 4.0),
            ("A -> C; B -> C", 4.0),
            ("A B -> C; C -> B", 4.0),
        ];
        let mut rng = StdRng::seed_from_u64(17);
        for (spec, expected_ratio) in specs {
            let fds = FdSet::parse(&s, spec).unwrap();
            for _ in 0..6 {
                let n = rng.gen_range(2..6);
                let rows = (0..n).map(|_| {
                    (
                        tup![
                            rng.gen_range(0..2i64),
                            rng.gen_range(0..2i64),
                            rng.gen_range(0..2i64)
                        ],
                        1.0,
                    )
                });
                let t = Table::build(s.clone(), rows).unwrap();
                let approx = approx_u_repair(&t, &fds);
                approx.repair.verify(&t, &fds);
                assert!(approx.ratio <= expected_ratio + 1e-9, "{spec}");
                let exact = exact_u_repair(&t, &fds, &ExactConfig::default());
                assert!(
                    approx.repair.cost <= approx.ratio * exact.cost + 1e-9,
                    "{spec}: approx={} ratio={} exact={}\n{t}",
                    approx.repair.cost,
                    approx.ratio,
                    exact.cost
                );
            }
        }
    }

    #[test]
    fn consensus_only_is_optimal() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "-> C").unwrap();
        let t =
            Table::build_unweighted(s, vec![tup![1, 0, 5], tup![2, 0, 5], tup![3, 0, 6]]).unwrap();
        let a = approx_u_repair(&t, &fds);
        assert_eq!(a.ratio, 1.0);
        assert_eq!(a.repair.cost, 1.0);
        a.repair.verify(&t, &fds);
    }

    #[test]
    fn attribute_disjoint_components_compose() {
        // Example 4.2's Δ = {item → cost, buyer → address}.
        let s = Schema::new("R", ["item", "cost", "buyer", "address"]).unwrap();
        let fds = FdSet::parse(&s, "item -> cost; buyer -> address").unwrap();
        let t = Table::build_unweighted(
            s,
            vec![
                tup!["pen", 2, "ann", "paris"],
                tup!["pen", 3, "ann", "london"],
                tup!["cup", 5, "bob", "rome"],
            ],
        )
        .unwrap();
        let a = approx_u_repair(&t, &fds);
        a.repair.verify(&t, &fds);
        // Each component is a single FD: common lhs ⇒ optimal S-repair
        // (c = 1) with mlc = 1 ⇒ overall ratio 1 (Corollary 4.6 equality).
        assert_eq!(a.ratio, 1.0);
        // One violation per component, one cell each.
        assert_eq!(a.repair.cost, 2.0);
    }

    #[test]
    fn mixed_consensus_and_fds() {
        // Δ = {∅→D, A D→B, B→C D} from §4.1: equivalent to consensus D
        // plus {A→B, B→C}.
        let s = Schema::new("R", ["A", "B", "C", "D"]).unwrap();
        let fds = FdSet::parse(&s, "-> D; A D -> B; B -> C D").unwrap();
        let t =
            Table::build_unweighted(s.clone(), vec![tup![1, 1, 1, 7], tup![1, 2, 2, 8]]).unwrap();
        let a = approx_u_repair(&t, &fds);
        a.repair.verify(&t, &fds);
        // Consensus on D costs 1; the {A→B,B→C} component costs ≥ 1.
        assert!(a.repair.cost >= 2.0);
    }
}
