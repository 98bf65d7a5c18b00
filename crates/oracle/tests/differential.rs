//! Differential fuzzing acceptance: the engine and the brute-force
//! oracle must agree on every random adversarial instance — exact-mode
//! cost equality, approximate-mode ratio containment, and structural
//! validity of every returned table. A divergence fails the test with
//! the shrunk counterexample inline.

use fd_oracle::{run_fuzz, FuzzConfig, FuzzNotion};

fn campaign(notion: FuzzNotion, cases: usize, seed: u64) {
    let summary = run_fuzz(&FuzzConfig {
        notion,
        cases,
        seed,
        max_rows: 0,
    });
    assert_eq!(summary.cases, cases);
    for d in &summary.divergences {
        eprintln!(
            "case {} (seed {}) on schema {}: {}\n{}{}",
            d.case_index,
            d.case_seed,
            d.schema_name,
            d.message,
            d.instance_fdr,
            d.trace_json
                .as_deref()
                .map(|t| format!("\ntrace: {t}"))
                .unwrap_or_default()
        );
    }
    assert!(
        summary.divergences.is_empty(),
        "{} divergence(s) for notion {}",
        summary.divergences.len(),
        notion.name()
    );
    // The campaign exercised the optimal path at least once; starved
    // budgets make approximate reports likely but not guaranteed.
    assert!(summary.optimal_cases > 0, "no optimal case ran");
}

#[test]
fn subset_engine_matches_oracle() {
    campaign(FuzzNotion::Subset, 120, 7);
}

#[test]
fn update_engine_matches_oracle() {
    campaign(FuzzNotion::Update, 120, 7);
}

#[test]
fn mixed_engine_matches_oracle() {
    campaign(FuzzNotion::Mixed, 120, 7);
}

#[test]
fn mpd_engine_matches_oracle() {
    campaign(FuzzNotion::Mpd, 120, 7);
}

#[test]
fn incremental_sessions_match_cold_solves_across_traces() {
    // The delta-engine acceptance campaign: 200 seeded cases, each a
    // ≥ 20-step random mutation trace replayed through an
    // IncrementalSession, with the report compared byte-for-byte
    // against a cold solve after EVERY step. Marriage pool cases run
    // through the delta engine like every other subset case.
    campaign(FuzzNotion::Mutate, 200, 7);
}

#[test]
fn incremental_sessions_match_cold_solves_on_more_seeds() {
    campaign(FuzzNotion::Mutate, 100, 13);
    campaign(FuzzNotion::Mutate, 100, 17);
}

#[test]
fn approximate_paths_are_exercised() {
    // With budgets starved in a quarter of the cases and several hard
    // pool schemas, a subset campaign must hit the 2-approximation.
    let summary = run_fuzz(&FuzzConfig {
        notion: FuzzNotion::Subset,
        cases: 200,
        seed: 11,
        max_rows: 0,
    });
    assert!(summary.divergences.is_empty());
    assert!(
        summary.approximate_cases > 0,
        "no approximate case ran in 200 draws"
    );
}
