//! Failure-mode tests: the documented panics and refusals of the
//! exhaustive searches must fire — silent degradation would undermine the
//! oracles everything else is validated against — and their `try_`
//! forms must return them as values.

use fd_core::{schema_rabc, tup, FdSet, Table};
use fd_urepair::{
    exact_mixed_repair, exact_u_repair, try_exact_mixed_repair, try_exact_u_repair,
    try_restricted_u_repair, DomainPolicy, ExactConfig, ExactError, MixedCosts,
};

fn conflicted_table() -> (Table, FdSet) {
    let s = schema_rabc();
    let fds = FdSet::parse(&s, "A -> B").unwrap();
    let t = Table::build_unweighted(
        s,
        vec![
            tup!["x", 1, 0],
            tup!["x", 2, 0],
            tup!["x", 3, 0],
            tup!["x", 4, 0],
        ],
    )
    .unwrap();
    (t, fds)
}

#[test]
#[should_panic(expected = "node budget exhausted")]
fn exact_search_panics_when_budget_exhausted() {
    let (t, fds) = conflicted_table();
    let cfg = ExactConfig {
        max_nodes: 1,
        ..ExactConfig::default()
    };
    let _ = exact_u_repair(&t, &fds, &cfg);
}

#[test]
fn try_exact_search_returns_budget_exhaustion() {
    let (t, fds) = conflicted_table();
    let cfg = ExactConfig {
        max_nodes: 1,
        ..ExactConfig::default()
    };
    assert_eq!(
        try_exact_u_repair(&t, &fds, &cfg).unwrap_err(),
        ExactError::BudgetExhausted(1)
    );
    assert_eq!(
        try_exact_mixed_repair(&t, &fds, MixedCosts::UNIT, &cfg).unwrap_err(),
        ExactError::BudgetExhausted(1)
    );
}

#[test]
#[should_panic(expected = "positive and finite")]
fn mixed_costs_reject_nonpositive_delete() {
    let _ = MixedCosts::new(0.0, 1.0);
}

#[test]
#[should_panic(expected = "positive and finite")]
fn mixed_costs_reject_infinite_update() {
    let _ = MixedCosts::new(1.0, f64::INFINITY);
}

#[test]
#[should_panic(expected = "exhaustive")]
fn exact_mixed_repair_refuses_large_tables() {
    let s = schema_rabc();
    let fds = FdSet::parse(&s, "A -> B").unwrap();
    let rows: Vec<_> = (0..21).map(|i| tup![i as i64, 1, 0]).collect();
    let t = Table::build_unweighted(s, rows).unwrap();
    let _ = exact_mixed_repair(&t, &fds, MixedCosts::UNIT, &ExactConfig::default());
}

#[test]
fn empty_explicit_domain_reports_infeasible_not_panic() {
    let s = schema_rabc();
    let fds = FdSet::parse(&s, "-> A").unwrap();
    let t = Table::build_unweighted(s.clone(), vec![tup!["a", 0, 0], tup!["b", 0, 0]]).unwrap();
    let a = s.attr("A").unwrap();
    assert!(
        try_restricted_u_repair(&t, &fds, vec![(a, vec![])], &ExactConfig::default()).is_none()
    );
}

#[test]
fn consistent_table_short_circuits_under_any_budget() {
    // A satisfied instance must not touch the search at all.
    let s = schema_rabc();
    let fds = FdSet::parse(&s, "A -> B").unwrap();
    let t = Table::build_unweighted(s, vec![tup!["x", 1, 0], tup!["y", 2, 0]]).unwrap();
    let cfg = ExactConfig {
        max_nodes: 0,
        domain_policy: DomainPolicy::ActiveDomain,
        ..ExactConfig::default()
    };
    let rep = exact_u_repair(&t, &fds, &cfg);
    assert_eq!(rep.cost, 0.0);
}
