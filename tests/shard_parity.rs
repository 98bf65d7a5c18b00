//! Engine-vs-reference parity: the one subset execution path
//! (`Planner.run`, which solves component by component) must return
//! **the same repair** as the whole-table reference implementations on
//! every schema of the `fd-gen` adversarial pool — same cost, same
//! deleted ids, same repaired table — under every optimality regime:
//! `opt_s_repair` (Algorithm 1) on the tractable side, `exact_s_repair`
//! or `approx_s_repair` on the hard side. Its guarantee is **never
//! weaker** than the whole-table policy's (exact up to 64 rows, else
//! the 2-approximation): per-component exactness may legitimately
//! *upgrade* a 2-approximation, and must never lose optimality.
//!
//! A differential fuzz campaign (engine vs brute-force oracle) closes
//! the loop: zero divergences on every generated case. The `threads`
//! budget knob must not move a byte either: subset reports on the
//! checked-in fixtures, and update reports whose common-lhs component
//! runs its S-repair through the same sharded path.

use fd_gen::adversarial::{schema_pool, sized_instance};
use fd_repairs::instance::Instance;
use fd_repairs::prelude::*;

fn fixture(name: &str) -> Instance {
    let path = format!("{}/examples/data/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).expect("fixture exists");
    Instance::parse(&text).expect("fixture parses")
}

/// A report with timings zeroed (the one nondeterministic field).
fn canonical_json(mut report: RepairReport) -> String {
    report.timings = Timings::default();
    report.to_json()
}

fn run(table: &Table, fds: &FdSet, request: &RepairRequest) -> RepairReport {
    Planner.run(table, fds, request).expect("request solves")
}

fn deleted_ids(report: &RepairReport) -> Vec<TupleId> {
    match &report.body {
        ReportBody::Subset { deleted, .. } => deleted.clone(),
        other => panic!("expected a subset body, got {other:?}"),
    }
}

/// Which whole-table reference a regime compares against on the hard
/// side (the tractable side always compares against Algorithm 1).
#[derive(Clone, Copy, PartialEq)]
enum HardReference {
    Exact,
    Approx,
}

/// The regimes under comparison: engine request plus the reference it
/// must reproduce.
fn regimes() -> Vec<(&'static str, RepairRequest, HardReference)> {
    let base = RepairRequest::subset();
    vec![
        (
            // Exact on every hard component (exact_fallback_limit is the
            // global allowance that caps the per-component cutoff, so
            // raise both).
            "exact-everywhere",
            base.component_exact_limit(10_000)
                .exact_fallback_limit(10_000),
            HardReference::Exact,
        ),
        (
            // The 2-approximation on every hard component.
            "approx-everywhere",
            base.component_exact_limit(0),
            HardReference::Approx,
        ),
        (
            // Certified exactness demanded.
            "optimality-exact",
            base.optimality(Optimality::Exact),
            HardReference::Exact,
        ),
    ]
}

#[test]
fn sharded_reports_are_bit_identical_across_the_adversarial_pool() {
    for case in schema_pool() {
        let tractable = osr_succeeds(&case.fds);
        for rows in [10, 28] {
            for seed in [3, 17] {
                let table = sized_instance(&case, rows, 3, seed % 2 == 1, seed);
                for (name, request, hard) in regimes() {
                    // Approximating a consistent table differs in
                    // *guarantee* only; skip the approx regime there.
                    if hard == HardReference::Approx && table.satisfies(&case.fds) {
                        continue;
                    }
                    let (reference, optimal, ratio) = if tractable {
                        (opt_s_repair(&table, &case.fds).unwrap(), true, 1.0)
                    } else if hard == HardReference::Exact {
                        (exact_s_repair(&table, &case.fds), true, 1.0)
                    } else {
                        (approx_s_repair(&table, &case.fds), false, 2.0)
                    };
                    let report = run(&table, &case.fds, &request);
                    let ctx = format!("{} {name} rows={rows} seed={seed}", case.name);
                    assert_eq!(report.cost, reference.cost, "{ctx}: cost drifted");
                    assert_eq!(
                        deleted_ids(&report),
                        reference.deleted(&table),
                        "{ctx}: deleted set drifted"
                    );
                    assert_eq!(
                        report.repaired().unwrap().to_string(),
                        reference.apply(&table).to_string(),
                        "{ctx}: repaired table drifted"
                    );
                    assert_eq!(report.optimal, optimal, "{ctx}: guarantee drifted");
                    assert_eq!(report.ratio, ratio, "{ctx}: ratio drifted");
                    // Every subset report carries component statistics.
                    assert!(report.components.is_some(), "{ctx}");
                }
            }
        }
    }
}

#[test]
fn sharding_never_weakens_and_often_upgrades_the_guarantee() {
    // Default knobs on 90-row instances — past the whole-table exact
    // cutoff (64), so the whole-table policy must 2-approximate every
    // hard Δ, while the engine stays exact whenever the individual
    // components fit the (identically-valued) per-component cutoff.
    // The guarantee may only improve, and the cost may only go down.
    let whole_table_exact_limit = 64;
    let mut upgraded = 0usize;
    for case in schema_pool() {
        for seed in [5, 9] {
            let table = sized_instance(&case, 90, 3, false, seed);
            let report = run(&table, &case.fds, &RepairRequest::subset());
            let (reference, reference_ratio) = if osr_succeeds(&case.fds) {
                (opt_s_repair(&table, &case.fds).unwrap(), 1.0)
            } else if table.len() <= whole_table_exact_limit {
                (exact_s_repair(&table, &case.fds), 1.0)
            } else {
                (approx_s_repair(&table, &case.fds), 2.0)
            };
            assert!(
                report.ratio <= reference_ratio,
                "{}: sharding weakened the ratio {} -> {}",
                case.name,
                reference_ratio,
                report.ratio
            );
            assert!(
                report.cost <= reference.cost + 1e-9,
                "{}: sharding worsened the cost {} -> {}",
                case.name,
                reference.cost,
                report.cost
            );
            if report.optimal && reference_ratio > 1.0 {
                upgraded += 1;
            }
        }
    }
    assert!(
        upgraded > 0,
        "no pool instance exercised the per-component exactness upgrade"
    );
}

#[test]
fn forced_shard_fuzz_campaign_has_zero_divergences() {
    use fd_oracle::{run_fuzz, FuzzConfig, FuzzNotion};
    let summary = run_fuzz(&FuzzConfig {
        notion: FuzzNotion::Subset,
        cases: 120,
        seed: 23,
        max_rows: 0,
    });
    assert_eq!(summary.cases, 120);
    for d in &summary.divergences {
        eprintln!(
            "case {} (seed {}) on {}: {}\n{}",
            d.case_index, d.case_seed, d.schema_name, d.message, d.instance_fdr
        );
    }
    assert!(
        summary.divergences.is_empty(),
        "{} divergence(s) on the subset path",
        summary.divergences.len()
    );
}

#[test]
fn parallel_subset_repair_matches_sequential_on_the_fixtures() {
    for name in ["office.fdr", "sensors.fdr"] {
        let inst = fixture(name);
        let sequential = run(&inst.table, &inst.fds, &RepairRequest::subset());
        for threads in [0usize, 2, 4, 8] {
            let parallel = run(
                &inst.table,
                &inst.fds,
                &RepairRequest::subset().threads(threads),
            );
            assert_eq!(
                parallel.cost, sequential.cost,
                "{name}: parallel cost must equal sequential cost (threads={threads})"
            );
            assert_eq!(parallel.optimal, sequential.optimal);
            assert_eq!(parallel.methods, sequential.methods);
            assert_eq!(
                deleted_ids(&parallel),
                deleted_ids(&sequential),
                "{name}: same deleted ids (threads={threads})"
            );
            assert_eq!(
                canonical_json(parallel),
                canonical_json(sequential.clone()),
                "{name}: byte-identical reports (threads={threads})"
            );
        }
    }
}

#[test]
fn office_parallel_cost_is_the_paper_optimum() {
    let inst = fixture("office.fdr");
    let report = run(&inst.table, &inst.fds, &RepairRequest::subset().threads(4));
    assert_eq!(report.cost, 2.0);
    assert!(report.optimal);
    assert!(report.repaired().unwrap().satisfies(&inst.fds));
}

#[test]
fn u_solver_threads_keep_common_lhs_update_reports_byte_identical() {
    // `K -> A B` (and office's `facility`) is a common lhs on the
    // tractable side: Corollary 4.6's `CommonLhsViaS` arm, whose
    // S-repair fans its conflict components over the u-solver's threads.
    let (_, fds, table) = fd_gen::scale::tractable_scale(3_000, true, 7);
    let office = fixture("office.fdr");
    for (name, table, fds) in [
        ("tractable_scale", &table, &fds),
        ("office", &office.table, &office.fds),
    ] {
        let sequential = run(table, fds, &RepairRequest::update().threads(1));
        assert!(
            sequential.methods.iter().any(|m| m == "CommonLhsViaS"),
            "{name}: {:?}",
            sequential.methods
        );
        assert!(sequential.optimal);
        let expected = canonical_json(sequential);
        for threads in [2usize, 4] {
            let parallel = run(table, fds, &RepairRequest::update().threads(threads));
            assert_eq!(
                canonical_json(parallel),
                expected,
                "{name}: byte-identical update reports (threads={threads})"
            );
        }
    }
}
