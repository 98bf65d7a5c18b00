//! Restricted-domain update repairs — the §5 outlook.
//!
//! The paper's complexity results for U-repairs "are heavily based on the
//! ability to update any cell with any value from an infinite domain"
//! (§5). This module explores the natural restriction it proposes:
//! updates may only use a finite space of values (the column's active
//! domain, or an explicit per-attribute candidate set).
//!
//! Facts exercised by the tests and the experiment harness:
//!
//! * the restricted optimum is never below the unrestricted optimum
//!   (every restricted update is an unrestricted one);
//! * the gap can be strictly positive: under `Δ = {A → B, A → C}` a fresh
//!   value on the lhs resolves a conflict with one cell change, while an
//!   active-domain repair must equalize both rhs columns (see
//!   [`tests::active_domain_gap_is_real`]);
//! * active-domain repairs always exist (equalize every group), while
//!   explicit-domain repairs may not ([`try_restricted_u_repair`] returns
//!   `None`).

use crate::exact::{exact_u_repair, try_exact_u_repair, DomainPolicy, ExactConfig, ExactError};
use crate::repair::URepair;
use fd_core::{AttrId, FdSet, Table, Value};

/// Optimal U-repair restricted to the active domain of each column.
///
/// Exhaustive (exponential) like [`crate::exact_u_repair`]; small tables
/// only. Active-domain repairs always exist (equalize each group).
///
/// # Panics
/// Panics if the node budget is exhausted.
pub fn active_domain_u_repair(table: &Table, fds: &FdSet, config: &ExactConfig) -> URepair {
    let cfg = ExactConfig {
        domain_policy: DomainPolicy::ActiveDomain,
        ..config.clone()
    };
    exact_u_repair(table, fds, &cfg)
}

/// Optimal U-repair over explicit per-attribute candidate sets, or `None`
/// if no consistent update exists within them.
///
/// # Panics
/// Panics if the node budget is exhausted.
pub fn try_restricted_u_repair(
    table: &Table,
    fds: &FdSet,
    allowed: Vec<(AttrId, Vec<Value>)>,
    config: &ExactConfig,
) -> Option<URepair> {
    let cfg = ExactConfig {
        domain_policy: DomainPolicy::Explicit(allowed),
        ..config.clone()
    };
    match try_exact_u_repair(table, fds, &cfg) {
        Ok(repair) => Some(repair),
        Err(ExactError::NoRepair) => None,
        Err(e) => panic!("try_restricted_u_repair: {e}"),
    }
}

/// The cost increase imposed by the active-domain restriction:
/// `(unrestricted optimum, active-domain optimum)`. The second component
/// is always ≥ the first.
pub fn restriction_gap(table: &Table, fds: &FdSet, config: &ExactConfig) -> (f64, f64) {
    let unrestricted = exact_u_repair(table, fds, config).cost;
    let restricted = active_domain_u_repair(table, fds, config).cost;
    (unrestricted, restricted)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use fd_core::{schema_rabc, tup, Table};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn restricted_never_beats_unrestricted() {
        let mut rng = StdRng::seed_from_u64(0xad0b);
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B; B -> C").unwrap();
        for _ in 0..40 {
            let n = 2 + rng.gen_range(0..4);
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
            let (unrestricted, restricted) = restriction_gap(&t, &fds, &ExactConfig::default());
            assert!(
                restricted >= unrestricted - 1e-9,
                "restricted {restricted} < unrestricted {unrestricted} on {t:?}"
            );
        }
    }

    #[test]
    fn active_domain_gap_is_real() {
        // Δ = {A → B, A → C}: two tuples agree on A but disagree on both
        // B and C. Unrestricted: retag one tuple's A with a fresh constant
        // (1 cell). Active domain of A is just {"a"}, so a restricted
        // repair must equalize B and C (2 cells).
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B; A -> C").unwrap();
        let t = Table::build_unweighted(s, vec![tup!["a", 1, 1], tup!["a", 2, 2]]).unwrap();
        let (unrestricted, restricted) = restriction_gap(&t, &fds, &ExactConfig::default());
        assert_eq!(unrestricted, 1.0);
        assert_eq!(restricted, 2.0);
    }

    #[test]
    fn active_domain_repair_is_consistent_and_in_domain() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        let t = Table::build_unweighted(s, vec![tup!["a", 1, 0], tup!["a", 2, 0], tup!["b", 3, 0]])
            .unwrap();
        let rep = active_domain_u_repair(&t, &fds, &ExactConfig::default());
        rep.verify(&t, &fds);
        // Every value in the repaired table already occurred in its column.
        for attr in t.schema().attr_ids() {
            let domain = t.column_domain(attr);
            for row in rep.apply(&t).rows() {
                assert!(
                    domain.contains(row.tuple.get(attr)),
                    "fresh value sneaked in"
                );
            }
        }
    }

    #[test]
    fn explicit_domain_can_be_infeasible() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "-> A").unwrap(); // all tuples must share A
        let t = Table::build_unweighted(s.clone(), vec![tup!["a", 0, 0], tup!["b", 0, 0]]).unwrap();
        let a = s.attr("A").unwrap();
        // Neither cell may move to the other's value: no repair.
        assert!(
            try_restricted_u_repair(&t, &fds, vec![(a, vec![])], &ExactConfig::default()).is_none()
        );
        // Allowing "a" for both makes it feasible at cost 1.
        let rep = try_restricted_u_repair(
            &t,
            &fds,
            vec![(a, vec![fd_core::Value::str("a")])],
            &ExactConfig::default(),
        )
        .expect("feasible");
        rep.verify(&t, &fds);
        assert_eq!(rep.cost, 1.0);
    }

    #[test]
    fn consensus_free_common_lhs_has_no_gap() {
        // With a common lhs, Proposition 4.4's fresh-constant trick can be
        // replaced by picking the majority value per group: under a single
        // FD A -> B the unrestricted and active-domain optima coincide
        // (the optimal update equalizes B within each A-group to the
        // group's weighted-majority value, which is active).
        let mut rng = StdRng::seed_from_u64(0x90a9);
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        for _ in 0..30 {
            let n = 2 + rng.gen_range(0..5);
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
            let (unrestricted, restricted) = restriction_gap(&t, &fds, &ExactConfig::default());
            assert_eq!(unrestricted, restricted, "gap under a single FD on {t:?}");
        }
    }
}
