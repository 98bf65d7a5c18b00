//! One planning pass per call: `Planner::plan` renders and
//! `Planner::run` executes the same strategy, an escalated call plans
//! no second time, and the exact update search never takes a table past
//! its row cap.

use fd_repairs::instance::Instance;
use fd_repairs::prelude::*;
use fd_repairs::urepair::engine::EXACT_MAX_ROWS;

fn office() -> (Table, FdSet) {
    let path = format!("{}/examples/data/office.fdr", env!("CARGO_MANIFEST_DIR"));
    let inst = Instance::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    (inst.table, inst.fds)
}

/// The office fixture and the 200-row generated tables the goldens pin.
fn fixtures() -> Vec<(&'static str, Table, FdSet)> {
    let (table, fds) = office();
    let (_, hard_fds, hard) = fd_repairs::gen::scale::hard_scale(200, true, 7);
    let (_, tract_fds, tract) = fd_repairs::gen::scale::tractable_scale(200, true, 7);
    vec![
        ("office", table, fds),
        ("hard200", hard, hard_fds),
        ("tractable200", tract, tract_fds),
    ]
}

fn optimalities() -> [Optimality; 5] {
    [
        Optimality::Best,
        Optimality::Exact,
        Optimality::Approximate { max_ratio: 1.0 },
        Optimality::Approximate { max_ratio: 1.5 },
        Optimality::Approximate { max_ratio: 4.0 },
    ]
}

/// A hard-side table (`A -> C; B -> C`) of `rows` rows, inconsistent
/// for every `rows` ≥ 6.
fn hard_table(rows: i64) -> (Table, FdSet) {
    let s = schema_rabc();
    let fds = FdSet::parse(&s, "A -> C; B -> C").unwrap();
    let rows = (0..rows).map(|i| tup![i % 5, i % 4, i % 3]);
    (Table::build_unweighted(s, rows).unwrap(), fds)
}

#[test]
fn plan_and_run_agree_on_every_notion_and_optimality() {
    for (name, table, fds) in fixtures() {
        for notion in [Notion::Subset, Notion::Update, Notion::Mixed, Notion::Mpd] {
            for optimality in optimalities() {
                let request = RepairRequest::new(notion).optimality(optimality);
                let ctx = format!("{name} {notion:?} {optimality:?}");
                let plan = Planner.plan(&table, &fds, &request);
                let run = Planner.run(&table, &fds, &request);
                let (plan, report) = match (plan, run) {
                    (Ok(plan), Ok(report)) => (plan, report),
                    (Err(plan), Err(run)) => {
                        assert_eq!(plan, run, "{ctx}: both refuse, for the same reason");
                        continue;
                    }
                    // The MPD reduction reads the weights as
                    // probabilities only when it runs.
                    (Ok(_), Err(EngineError::InvalidProbability(_))) if notion == Notion::Mpd => {
                        continue
                    }
                    (plan, run) => panic!("{ctx}: plan {plan:?} but run {run:?}"),
                };
                let planned: Vec<&str> = plan.steps.iter().map(|s| s.method.as_str()).collect();
                if planned != report.methods {
                    // The one way a run leaves its plan: an exact search
                    // that ran out of its node budget names its fallback.
                    assert!(
                        planned.contains(&"ExactSearch")
                            || planned.contains(&"MixedExactEnumeration"),
                        "{ctx}: planned {planned:?}, ran {:?}",
                        report.methods
                    );
                    assert!(!report.optimal, "{ctx}");
                    continue;
                }
                assert_eq!(plan.optimal, report.optimal, "{ctx}");
                assert_eq!(plan.ratio, report.ratio, "{ctx}");
            }
        }
    }
}

/// How many `core/conflict_scan` spans one `Planner::run` records.
fn conflict_scans(table: &Table, fds: &FdSet, request: &RepairRequest) -> usize {
    let collector = fd_trace::Collector::with_capacity(1 << 16);
    {
        let _guard = collector.install();
        Planner.run(table, fds, request).unwrap();
    }
    assert_eq!(collector.dropped(), 0, "the ring kept every span");
    collector
        .events()
        .iter()
        .filter(|e| e.name == "core/conflict_scan")
        .count()
}

#[test]
fn escalated_calls_plan_once() {
    let (_, fds, table) = fd_repairs::gen::scale::hard_scale(200, true, 7);
    // Hard-side subset: a ceiling below 2 solves the components the
    // 2-approximation would take by exact vertex cover, on one partition.
    let starved = RepairRequest::subset().component_exact_limit(0);
    let escalated = starved.optimality(Optimality::Approximate { max_ratio: 1.5 });
    assert!(!Planner.run(&table, &fds, &starved).unwrap().optimal);
    assert!(Planner.run(&table, &fds, &escalated).unwrap().optimal);
    assert_eq!(conflict_scans(&table, &fds, &starved), 1);
    assert_eq!(conflict_scans(&table, &fds, &escalated), 1);
    // Update: a loose ceiling runs exactly what Best runs, on the plan's
    // one index.
    let best = RepairRequest::update();
    let loose = best.optimality(Optimality::Approximate { max_ratio: 100.0 });
    assert_eq!(conflict_scans(&table, &fds, &loose), 1);
    assert_eq!(conflict_scans(&table, &fds, &best), 1);
}

#[test]
fn every_notion_asks_each_conflict_question_once() {
    for (name, table, fds) in fixtures() {
        // Mixed on its polynomial method: the enumeration of a small
        // table runs an exact update search per deletion set.
        let mixed = RepairRequest::new(Notion::Mixed).exact_fallback_limit(0);
        for request in [
            RepairRequest::subset(),
            mixed,
            RepairRequest::new(Notion::Classify),
        ] {
            let notion = request.notion;
            assert_eq!(
                conflict_scans(&table, &fds, &request),
                1,
                "{name} {notion:?}"
            );
        }
        // Update: one index per attribute component, built by the plan
        // and read by every stage of the component's solve.
        let components = fd_repairs::urepair::attribute_components(&fds).len();
        let update = RepairRequest::update();
        assert_eq!(conflict_scans(&table, &fds, &update), components, "{name}");
    }
    // A two-cycle component reads the plan's index too; KL reads
    // single-rhs FDs, so a hard component whose FD has a wider rhs is
    // indexed once more, over its split FDs.
    let s = schema_rabc();
    let rows = (0..30i64).map(|i| tup![i % 5, i % 4, i % 3]);
    let table = Table::build_unweighted(s.clone(), rows).unwrap();
    for (spec, method, scans) in [
        ("A -> B; B -> A", "TwoCycle", 1),
        ("A -> B C; C -> B", "Approximate", 2),
    ] {
        let fds = FdSet::parse(&s, spec).unwrap();
        let report = Planner.run(&table, &fds, &RepairRequest::update()).unwrap();
        assert_eq!(report.methods, vec![method], "{spec}");
        assert_eq!(
            conflict_scans(&table, &fds, &RepairRequest::update()),
            scans,
            "{spec}"
        );
    }
}

#[test]
fn the_exact_update_search_stops_at_its_row_cap() {
    let (table, fds) = hard_table(EXACT_MAX_ROWS as i64 + 10);
    let exact = RepairRequest::update().optimality(Optimality::Exact);
    let tight = RepairRequest::update().optimality(Optimality::Approximate { max_ratio: 1.0 });
    for request in [exact, tight] {
        let plan = Planner.plan(&table, &fds, &request).unwrap_err();
        let run = Planner.run(&table, &fds, &request).unwrap_err();
        assert_eq!(plan, run);
        assert!(
            matches!(
                run,
                EngineError::ExactInfeasible(_) | EngineError::RatioUnattainable { .. }
            ),
            "{run}"
        );
    }
    // A row limit past the cap still gets the approximation.
    let generous = RepairRequest::update().exact_row_limit(100_000);
    let report = Planner.run(&table, &fds, &generous).unwrap();
    assert_eq!(report.methods, vec!["Approximate"]);
    assert!(!report.optimal);
    // Within the cap, both requests still escalate to the exact search.
    let (small, fds) = hard_table(EXACT_MAX_ROWS as i64);
    for request in [exact, tight] {
        let plan = Planner.plan(&small, &fds, &request).unwrap();
        assert!(plan.optimal, "{plan:?}");
        assert_eq!(plan.steps[0].method, "ExactSearch");
    }
}
