//! The acceptance contract of the unified engine: one `RepairRequest →
//! RepairReport` call path drives S-repair, U-repair, mixed repair and
//! MPD over the shipped fixtures with *identical costs* to the direct
//! algorithm entry points (the subset references `opt_s_repair` /
//! `exact_s_repair`, the update solver, the exact mixed enumeration and
//! the MPD reduction), and every report round-trips through the
//! hand-rolled JSON.

use fd_repairs::instance::Instance;
use fd_repairs::prelude::*;
use std::process::Command;

fn fixture(name: &str) -> Instance {
    let path = format!("{}/examples/data/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    Instance::parse(&text).unwrap()
}

#[test]
fn one_call_path_matches_every_legacy_solver_on_office() {
    let inst = fixture("office.fdr");
    let (t, fds) = (&inst.table, &inst.fds);

    // S-repair: engine vs the Algorithm 1 reference (office's Δ is on
    // the tractable side) and the exact vertex-cover baseline.
    let s_report = Planner.run(t, fds, &RepairRequest::subset()).unwrap();
    let s_reference = opt_s_repair(t, fds).unwrap();
    assert_eq!(s_report.cost, s_reference.cost);
    assert_eq!(s_report.cost, exact_s_repair(t, fds).cost);
    let ReportBody::Subset { deleted, .. } = &s_report.body else {
        panic!("expected a subset body");
    };
    assert_eq!(deleted, &s_reference.deleted(t));
    assert!(s_report.optimal);
    assert_eq!(s_report.methods, vec![format!("{:?}", SMethod::Dichotomy)]);
    assert_eq!(s_report.cost, 2.0); // Example 2.3

    // U-repair: engine vs the update solver it plans over.
    let u_report = Planner.run(t, fds, &RepairRequest::update()).unwrap();
    let u_legacy = fd_repairs::urepair::URepairSolver::default().solve(t, fds);
    assert_eq!(u_report.cost, u_legacy.repair.cost);
    assert_eq!(u_report.optimal, u_legacy.optimal);
    assert_eq!(u_report.cost, 2.0); // Example 4.7

    // Mixed repair: engine vs the direct exact enumeration.
    let m_report = Planner
        .run(t, fds, &RepairRequest::mixed(MixedCosts::UNIT))
        .unwrap();
    let m_legacy = exact_mixed_repair(t, fds, MixedCosts::UNIT, &ExactConfig::default());
    assert_eq!(m_report.cost, m_legacy.cost);
    assert!(m_report.optimal);

    // Every report serializes to parseable JSON carrying the same cost.
    for report in [&s_report, &u_report, &m_report] {
        let json = Json::parse(&report.to_json()).unwrap();
        assert_eq!(json.get("cost").unwrap().as_num(), Some(report.cost));
        assert_eq!(json.get("optimal").unwrap().as_bool(), Some(report.optimal));
    }
}

#[test]
fn one_call_path_matches_mpd_on_sensors() {
    let inst = fixture("sensors.fdr");
    let report = Planner
        .run(&inst.table, &inst.fds, &RepairRequest::mpd())
        .unwrap();
    let prob = ProbTable::new(inst.table.clone()).unwrap();
    let legacy = most_probable_database(&prob, &inst.fds);
    let ReportBody::Mpd {
        kept, probability, ..
    } = &report.body
    else {
        panic!("expected an MPD body");
    };
    assert_eq!(kept, &legacy.world);
    assert_eq!(*probability, legacy.probability);
    // The unified cost is the additive −ln p the reduction minimizes.
    assert!((report.cost - (-legacy.probability.ln())).abs() < 1e-12);

    let json = Json::parse(&report.to_json()).unwrap();
    let p = json
        .get("result")
        .unwrap()
        .get("probability")
        .unwrap()
        .as_num()
        .unwrap();
    assert!((p - legacy.probability).abs() < 1e-12);
}

#[test]
fn update_and_subset_reports_apply_cleanly_on_sensors() {
    // The same request surface works across fixtures; repairs verify.
    let inst = fixture("sensors.fdr");
    for request in [RepairRequest::subset(), RepairRequest::update()] {
        let report = Planner.run(&inst.table, &inst.fds, &request).unwrap();
        let repaired = report.repaired().unwrap();
        assert!(repaired.satisfies(&inst.fds), "{:?}", request.notion);
    }
}

#[test]
fn cli_repair_json_reports_the_paper_optimum() {
    // ISSUE acceptance: `fdrepair repair --json examples/data/office.fdr`
    // emits valid JSON whose `cost` field equals 2.0.
    let path = format!("{}/examples/data/office.fdr", env!("CARGO_MANIFEST_DIR"));
    let out = Command::new(env!("CARGO_BIN_EXE_fdrepair"))
        .args(["repair", "--json", &path])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let json = Json::parse(stdout.trim()).expect("valid JSON on stdout");
    assert_eq!(json.get("cost").unwrap().as_num(), Some(2.0));
    assert_eq!(json.get("notion").unwrap().as_str(), Some("s"));
    assert_eq!(json.get("optimal").unwrap().as_bool(), Some(true));
    // The repaired table rides along and is machine readable.
    let rows = json
        .get("result")
        .unwrap()
        .get("repaired")
        .unwrap()
        .get("rows")
        .unwrap()
        .as_arr()
        .unwrap();
    assert_eq!(rows.len(), 3);
}

#[test]
fn cli_unified_repair_drives_every_notion() {
    let path = format!("{}/examples/data/office.fdr", env!("CARGO_MANIFEST_DIR"));
    for (notion, expected_cost) in [("s", 2.0), ("u", 2.0), ("mixed", 2.0)] {
        let out = Command::new(env!("CARGO_BIN_EXE_fdrepair"))
            .args(["repair", "--notion", notion, "--json", &path])
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "notion {notion}");
        let json = Json::parse(String::from_utf8(out.stdout).unwrap().trim()).unwrap();
        assert_eq!(
            json.get("cost").unwrap().as_num(),
            Some(expected_cost),
            "notion {notion}"
        );
    }
    let sensors = format!("{}/examples/data/sensors.fdr", env!("CARGO_MANIFEST_DIR"));
    let out = Command::new(env!("CARGO_BIN_EXE_fdrepair"))
        .args(["repair", "--notion", "mpd", "--json", &sensors])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let json = Json::parse(String::from_utf8(out.stdout).unwrap().trim()).unwrap();
    let kept = json.get("result").unwrap().get("kept").unwrap();
    assert_eq!(kept.as_arr().unwrap().len(), 3);
}
