//! Golden-file tests for the `RepairReport` wire format: the canonical
//! JSON for the shipped fixtures under every notion is committed under
//! `tests/golden/`, and these tests diff the *exact serialized bytes* —
//! any wire-format drift (field order, number formatting, new fields)
//! becomes an explicit, reviewable test change.
//!
//! Timings are the one nondeterministic report field; they are zeroed
//! before serialization, exactly as `include_timings: false` does on the
//! serving path. Regenerate the files with
//! `UPDATE_GOLDEN=1 cargo test --test golden_reports`.

use fd_repairs::instance::Instance;
use fd_repairs::prelude::*;

fn fixture(name: &str) -> Instance {
    let path = format!("{}/examples/data/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    Instance::parse(&text).unwrap()
}

fn canonical_json(table: &Table, fds: &FdSet, request: &RepairRequest) -> String {
    let mut report = Planner
        .run(table, fds, request)
        .expect("fixture requests solve");
    report.timings = Timings::default();
    let mut json = report.to_json();
    json.push('\n');
    json
}

fn check_golden(file: &str, inst: &Instance, request: &RepairRequest) {
    check_golden_table(file, &inst.table, &inst.fds, request);
}

fn check_golden_table(file: &str, table: &Table, fds: &FdSet, request: &RepairRequest) {
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    let got = canonical_json(table, fds, request);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).unwrap_or_else(|e| panic!("write {path}: {e}"));
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("read {path}: {e}\nrun UPDATE_GOLDEN=1 cargo test --test golden_reports")
    });
    assert_eq!(
        got, want,
        "{file}: serialized report drifted from the committed golden bytes \
         (if intentional, regenerate with UPDATE_GOLDEN=1)"
    );
}

#[test]
fn office_reports_match_golden_bytes() {
    let inst = fixture("office.fdr");
    check_golden("office_s.json", &inst, &RepairRequest::subset());
    check_golden("office_u.json", &inst, &RepairRequest::update());
    check_golden(
        "office_mixed.json",
        &inst,
        &RepairRequest::mixed(MixedCosts::new(1.5, 1.0)),
    );
    check_golden(
        "office_count.json",
        &inst,
        &RepairRequest::new(Notion::Count),
    );
    check_golden(
        "office_sample_seed7.json",
        &inst,
        &RepairRequest::new(Notion::Sample).seed(7),
    );
    check_golden(
        "office_classify.json",
        &inst,
        &RepairRequest::new(Notion::Classify),
    );
}

#[test]
fn sensors_reports_match_golden_bytes() {
    let inst = fixture("sensors.fdr");
    check_golden("sensors_s.json", &inst, &RepairRequest::subset());
    check_golden("sensors_u.json", &inst, &RepairRequest::update());
    check_golden("sensors_mpd.json", &inst, &RepairRequest::mpd());
}

/// Generated weighted tables, 200 rows each: their reports pin the
/// block order of every subset recursion, the consensus and marriage
/// tie-breaks, the sampler's draw order, and the row-order float sums
/// behind block weights and costs.
#[test]
fn generated_reports_match_golden_bytes() {
    let (_, fds, table) = fd_repairs::gen::scale::tractable_scale(200, true, 7);
    check_golden_table(
        "tractable200_s.json",
        &table,
        &fds,
        &RepairRequest::subset(),
    );
    check_golden_table(
        "tractable200_count.json",
        &table,
        &fds,
        &RepairRequest::new(Notion::Count),
    );
    check_golden_table(
        "tractable200_sample_seed7.json",
        &table,
        &fds,
        &RepairRequest::new(Notion::Sample).seed(7),
    );
    let (_, fds, table) = fd_repairs::gen::scale::marriage_scale(200, true, 7);
    check_golden_table("marriage200_s.json", &table, &fds, &RepairRequest::subset());
}

/// The same tables with every weight scaled by 0.1, so no weight is
/// dyadic: a block weight, total weight or cost summed in any order
/// other than the block's row order changes the reported bytes (or the
/// optimal-repair ties `count` finds).
#[test]
fn generated_tenths_reports_match_golden_bytes() {
    let tenths = |table: Table| {
        let positions: Vec<u32> = (0..table.len() as u32).collect();
        let weights = table.weights().iter().map(|w| w * 0.1).collect();
        table.gather_reweighted(&positions, weights)
    };
    let (_, fds, table) = fd_repairs::gen::scale::tractable_scale(200, true, 7);
    let table = tenths(table);
    check_golden_table(
        "tractable200_tenths_s.json",
        &table,
        &fds,
        &RepairRequest::subset(),
    );
    check_golden_table(
        "tractable200_tenths_count.json",
        &table,
        &fds,
        &RepairRequest::new(Notion::Count),
    );
    check_golden_table(
        "tractable200_tenths_sample_seed7.json",
        &table,
        &fds,
        &RepairRequest::new(Notion::Sample).seed(7),
    );
    let (_, fds, table) = fd_repairs::gen::scale::marriage_scale(200, true, 7);
    check_golden_table(
        "marriage200_tenths_s.json",
        &tenths(table),
        &fds,
        &RepairRequest::subset(),
    );
}

/// Update and mixed reports on generated 200-row tables, each plain and
/// with every weight scaled by 0.1: they pin the changed cells and the
/// cost of every §4 strategy that runs at scale — `CommonLhsViaS`
/// (tractable), `Approximate` (hard: KL against Theorem 4.12),
/// `TwoCycle` (marriage under `A -> B; B -> A`), `ConsensusOnly` plus a
/// component (hard under `-> C; A -> B`) and `MixedVertexCoverRetag`.
/// A cost summed in any other order than the one the solvers use today
/// changes the tenths bytes.
#[test]
fn generated_update_and_mixed_reports_match_golden_bytes() {
    let tenths = |table: &Table| {
        let positions: Vec<u32> = (0..table.len() as u32).collect();
        let weights = table.weights().iter().map(|w| w * 0.1).collect();
        table.gather_reweighted(&positions, weights)
    };
    let check_both = |name: &str, table: &Table, fds: &FdSet, request: &RepairRequest| {
        check_golden_table(&format!("{name}.json"), table, fds, request);
        let tenths_name = name.replacen("200_", "200_tenths_", 1);
        check_golden_table(&format!("{tenths_name}.json"), &tenths(table), fds, request);
    };
    let update = RepairRequest::update();
    let (_, fds, tractable) = fd_repairs::gen::scale::tractable_scale(200, true, 7);
    check_both("tractable200_u", &tractable, &fds, &update);
    check_both(
        "tractable200_mixed",
        &tractable,
        &fds,
        &RepairRequest::mixed(MixedCosts::new(1.5, 1.0)),
    );
    let (schema, fds, hard) = fd_repairs::gen::scale::hard_scale(200, true, 7);
    check_both("hard200_u", &hard, &fds, &update);
    check_both(
        "hard200_mixed",
        &hard,
        &fds,
        &RepairRequest::mixed(MixedCosts::new(2.5, 1.0)),
    );
    let consensus = FdSet::parse(&schema, "-> C; A -> B").unwrap();
    check_both("hard200_consensus_u", &hard, &consensus, &update);
    let (schema, _, marriage) = fd_repairs::gen::scale::marriage_scale(200, true, 7);
    let cycle = FdSet::parse(&schema, "A -> B; B -> A").unwrap();
    check_both("marriage200_cycle_u", &marriage, &cycle, &update);
}

/// The report writer's edge values, pinned byte for byte: strings that
/// need every kind of escape (quote, backslash, `\n`, `\t`, `\r`, other
/// control characters, DEL, multibyte and astral characters), integers on
/// both sides of the inline-symbol range (±2²⁹) up to `i64::MIN`/`MAX`,
/// and weights on both sides of the integer-print cut-off at 9·10¹⁵.
fn edge_table() -> (Table, FdSet) {
    let schema = Schema::new("Edge \"rel\" \\ Δ", ["key", "room", "num", "téxt"]).unwrap();
    let fds = FdSet::parse(&schema, "key -> téxt; key room -> num").unwrap();
    let rows = vec![
        (tup!["k\"1", 1, (1i64 << 29) - 1, "q\"uote\\back"], 0.1),
        (tup!["k\"1", 1, -(1i64 << 29), "nl\ntab\tcr\r"], 2.5),
        (
            tup!["k\\2", 2, 1i64 << 29, "\u{1}\u{1f}\u{7f}\u{8}\u{c}"],
            1e-7,
        ),
        (tup!["k\\2", 3, -(1i64 << 29) - 1, "Δ 多 😀"], 9e15),
        (tup!["k\n3", 4, i64::MIN, ""], 1e16),
        (tup!["k\n3", 4, i64::MAX, "😀\"\\/"], 0.1),
        (tup!["😀4", 5, 8_999_999_999_999_999i64, "plain"], 2.5),
        (tup!["😀4", 5, 9_007_199_254_740_993i64, "a\u{1f}b"], 1e-7),
        (tup![7, "\u{10ffff}", -1, 0], 1.0),
    ];
    (Table::build(schema, rows).unwrap(), fds)
}

#[test]
fn writer_edge_values_match_golden_bytes() {
    let (table, fds) = edge_table();
    check_golden_table("edge_s.json", &table, &fds, &RepairRequest::subset());
    // The update report renders fresh constants in `changed` and in rows.
    check_golden_table("edge_u.json", &table, &fds, &RepairRequest::update());

    // An MPD world whose probability is about 10⁻⁸¹.
    let schema = Schema::new("P", ["key", "val"]).unwrap();
    let fds = FdSet::parse(&schema, "key -> val").unwrap();
    let rows = (0..30i64).flat_map(|k| [(tup![k, 0], 0.999), (tup![k, 1], 0.998)]);
    let table = Table::build(schema, rows).unwrap();
    check_golden_table("edge_mpd_tiny.json", &table, &fds, &RepairRequest::mpd());

    let (table, fds) = edge_table();
    let empty = Table::new(table.schema().clone());
    check_golden_table("edge_empty_s.json", &empty, &fds, &RepairRequest::subset());
}

/// The mutation trace behind the mutate-delta golden: one step of every
/// op, replayed through an [`IncrementalSession`] against the office
/// fixture. The spliced report is the golden — byte-identical to a cold
/// solve of the mutated table (session timings are always zero, so no
/// explicit zeroing is needed).
const MUTATE_TRACE: &str = r#"[
    {"op": "delete", "id": 1},
    {"op": "insert", "values": ["HQ", 322, 30, "Madrid"], "weight": 4},
    {"op": "set", "id": 3, "attr": "city", "value": "Paris"}
]"#;

#[test]
fn office_mutate_delta_matches_golden_bytes() {
    let inst = fixture("office.fdr");
    let trace = parse_mutation_trace(MUTATE_TRACE, &JsonLimits::UNTRUSTED).unwrap();
    let mut session = IncrementalSession::new(
        inst.table.clone(),
        inst.fds.clone(),
        RepairRequest::subset(),
    )
    .unwrap();
    for wire in &trace {
        let m = wire.resolve(&inst.schema).unwrap();
        session.apply(&m).unwrap();
    }
    assert!(session.is_incremental(), "office must take the delta path");
    let spliced = session.report().unwrap();
    let mut got = spliced.to_json();
    got.push('\n');

    let path = format!(
        "{}/tests/golden/office_mutate_delta.json",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).unwrap_or_else(|e| panic!("write {path}: {e}"));
    } else {
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("read {path}: {e}\nrun UPDATE_GOLDEN=1 cargo test --test golden_reports")
        });
        assert_eq!(
            got, want,
            "office_mutate_delta.json: spliced report drifted from the committed golden bytes"
        );
    }

    // The golden is simultaneously a cold-solve golden: re-solving the
    // mutated table from scratch must reproduce the same bytes.
    let mut cold = Planner
        .run(session.table(), &inst.fds, &RepairRequest::subset())
        .unwrap();
    cold.timings = Timings::default();
    assert_eq!(spliced.to_json(), cold.to_json());
}

#[test]
fn golden_bytes_parse_and_round_trip_structurally() {
    // The committed bytes are valid JSON and re-serialize to themselves
    // (field order and number formatting are part of the contract).
    let dir = format!("{}/tests/golden", env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).expect("golden dir exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed = Json::parse(text.trim_end())
            .unwrap_or_else(|e| panic!("{}: golden file is not valid JSON: {e}", path.display()));
        assert_eq!(
            format!("{parsed}"),
            text.trim_end(),
            "{}: JSON does not re-serialize to its own bytes",
            path.display()
        );
        checked += 1;
    }
    assert_eq!(checked, 34, "expected 34 golden files, found {checked}");
}
