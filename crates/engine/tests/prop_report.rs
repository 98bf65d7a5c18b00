//! Property tests of the streaming report writer
//! ([`RepairReport::write_json`]): over random reports of every
//! [`ReportBody`] variant, its bytes equal those of a reference value
//! tree built here the way reports used to be built (one [`Json`] node
//! per id, cell and row, printed by `Display`), and they re-print
//! unchanged after a parse.
//!
//! The tables mix every symbol class the dictionary has: inline and
//! spilled integers around the 30-bit and the 2⁵³ boundaries, strings
//! with quotes, backslashes, control characters and non-ASCII text,
//! fresh constants and composites, and empty tables.

use fd_core::{Schema, Table, Tuple, TupleId, Value};
use fd_engine::{
    ChangedCell, ComponentReport, DichotomyReport, Json, Notion, RepairReport, ReportBody, Timings,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------
// The reference: report → value tree, one node per value.
// ---------------------------------------------------------------------

fn value_tree(v: &Value) -> Json {
    match v {
        Value::Int(i) => Json::from(*i),
        other => Json::str(other.to_string()),
    }
}

fn table_tree(table: &Table) -> Json {
    let schema = table.schema();
    let rows = table
        .rows()
        .map(|row| {
            Json::obj([
                ("id", Json::Num(row.id.0 as f64)),
                ("weight", row.weight.into()),
                (
                    "values",
                    Json::Arr(row.tuple.values().iter().map(value_tree).collect()),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("relation", Json::str(schema.relation())),
        (
            "attrs",
            Json::Arr(
                schema
                    .attr_names()
                    .iter()
                    .map(|a| Json::str(a.as_str()))
                    .collect(),
            ),
        ),
        ("rows", Json::Arr(rows)),
    ])
}

fn ids_tree(ids: &[TupleId]) -> Json {
    Json::Arr(ids.iter().map(|id| Json::Num(id.0 as f64)).collect())
}

fn cells_tree(cells: &[ChangedCell]) -> Json {
    Json::Arr(
        cells
            .iter()
            .map(|c| {
                Json::obj([
                    ("tuple", Json::Num(c.tuple.0 as f64)),
                    ("attr", Json::str(&c.attr)),
                    ("old", Json::str(&c.old)),
                    ("new", Json::str(&c.new)),
                ])
            })
            .collect(),
    )
}

fn strs_tree(strs: &[String]) -> Json {
    Json::Arr(strs.iter().map(|s| Json::str(s.as_str())).collect())
}

fn count_tree(n: Option<u128>) -> Json {
    match n {
        None => Json::Null,
        Some(n) if n <= 1 << 53 => Json::Num(n as f64),
        Some(n) => Json::Str(n.to_string()),
    }
}

fn body_tree(body: &ReportBody) -> Json {
    match body {
        ReportBody::Subset { deleted, repaired } => Json::obj([
            ("deleted", ids_tree(deleted)),
            ("repaired", table_tree(repaired)),
        ]),
        ReportBody::Update { changed, repaired } => Json::obj([
            ("changed", cells_tree(changed)),
            ("repaired", table_tree(repaired)),
        ]),
        ReportBody::Mixed {
            deleted,
            changed,
            repaired,
        } => Json::obj([
            ("deleted", ids_tree(deleted)),
            ("changed", cells_tree(changed)),
            ("repaired", table_tree(repaired)),
        ]),
        ReportBody::Mpd {
            kept,
            probability,
            repaired,
        } => Json::obj([
            ("kept", ids_tree(kept)),
            ("probability", (*probability).into()),
            ("repaired", table_tree(repaired)),
        ]),
        ReportBody::Count {
            subset_repairs,
            optimal_subset_repairs,
            notes,
        } => Json::obj([
            ("subset_repairs", count_tree(*subset_repairs)),
            (
                "optimal_subset_repairs",
                count_tree(*optimal_subset_repairs),
            ),
            ("notes", strs_tree(notes)),
        ]),
        ReportBody::Sample { kept, repaired } => {
            Json::obj([("kept", ids_tree(kept)), ("repaired", table_tree(repaired))])
        }
        ReportBody::Classify {
            keys,
            bcnf_violation,
            consistent,
            conflicts,
        } => Json::obj([
            ("keys", strs_tree(keys)),
            ("bcnf", bcnf_violation.is_none().into()),
            (
                "bcnf_violation",
                bcnf_violation.as_deref().map_or(Json::Null, Json::str),
            ),
            ("consistent", (*consistent).into()),
            ("conflicts", (*conflicts).into()),
        ]),
    }
}

fn report_tree(r: &RepairReport) -> Json {
    let d = &r.dichotomy;
    let dichotomy = Json::obj([
        ("chain", d.chain.into()),
        ("osr_succeeds", d.osr_succeeds.into()),
        (
            "hard_class",
            d.hard_class.map_or(Json::Null, |c| Json::Num(c as f64)),
        ),
        (
            "hard_core",
            d.hard_core.as_deref().map_or(Json::Null, Json::str),
        ),
        ("ratio_ours", d.ratio_ours.into()),
        ("ratio_kl", d.ratio_kl.into()),
    ]);
    let components = r.components.as_ref().map_or(Json::Null, |c| {
        Json::obj([
            ("count", c.count.into()),
            ("largest", c.largest.into()),
            ("clean_rows", c.clean_rows.into()),
            (
                "methods",
                Json::Obj(
                    c.methods
                        .iter()
                        .map(|(name, n)| (name.clone(), Json::Num(*n as f64)))
                        .collect(),
                ),
            ),
        ])
    });
    Json::obj([
        ("notion", Json::str(r.notion.name())),
        ("cost", r.cost.into()),
        ("optimal", r.optimal.into()),
        ("ratio", r.ratio.into()),
        ("methods", strs_tree(&r.methods)),
        ("dichotomy", dichotomy),
        ("components", components),
        (
            "timings",
            Json::obj([
                ("plan_ms", r.timings.plan_ms.into()),
                ("solve_ms", r.timings.solve_ms.into()),
                ("total_ms", r.timings.total_ms.into()),
            ]),
        ),
        ("result", body_tree(&r.body)),
    ])
}

// ---------------------------------------------------------------------
// Random reports.
// ---------------------------------------------------------------------

/// Text that exercises every escaping path of the writer.
fn arb_text(rng: &mut StdRng) -> String {
    const PIECES: &[&str] = &[
        "a",
        "Paris",
        " ",
        "\"",
        "\\",
        "\\\"",
        "/",
        "\n",
        "\r",
        "\t",
        "\u{0}",
        "\u{1}",
        "\u{1f}",
        "\u{7f}",
        "é",
        "Δ",
        "⊥3",
        "⟨1,x⟩",
        "😀",
        "\u{2028}",
        "42",
        "-7",
        "{}",
        "[]",
        ",",
        ":",
    ];
    let len = rng.gen_range(0..6usize);
    (0..len)
        .map(|_| PIECES[rng.gen_range(0..PIECES.len())])
        .collect()
}

fn arb_int(rng: &mut StdRng) -> i64 {
    const EDGES: &[i64] = &[
        0,
        1,
        -1,
        (1 << 29) - 1,
        1 << 29,
        (1 << 29) + 1,
        -(1 << 29) - 1,
        -(1 << 29),
        -(1 << 29) + 1,
        (1 << 53) - 1,
        1 << 53,
        (1 << 53) + 1,
        -(1 << 53) - 1,
        9_000_000_000_000_001,
        i64::MAX,
        i64::MIN,
    ];
    if rng.gen_bool(0.5) {
        EDGES[rng.gen_range(0..EDGES.len())]
    } else {
        rng.gen_range(-1000..1000i64)
    }
}

fn arb_value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..8u8) {
        0 | 1 => Value::Int(arb_int(rng)),
        2 | 3 => Value::str(&arb_text(rng)),
        4 => Value::Fresh(rng.gen_range(0..100u64)),
        5 => Value::Fresh((1 << 30) + rng.gen_range(0..100u64)),
        6 => Value::pair(Value::Int(arb_int(rng)), Value::str(&arb_text(rng))),
        _ => Value::triple(
            Value::Fresh(rng.gen_range(0..4u64)),
            Value::Int(arb_int(rng)),
            Value::pair(Value::str(&arb_text(rng)), Value::Int(7)),
        ),
    }
}

/// A positive finite weight: integral, fractional, huge or tiny.
fn arb_weight(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..6u8) {
        0 => 1.0,
        1 => rng.gen_range(1..100u32) as f64,
        2 => rng.gen_range(1..1000u32) as f64 / 7.0,
        3 => 1e20,
        4 => 1e-300,
        _ => rng.gen::<f64>() + f64::MIN_POSITIVE,
    }
}

/// Any number a report header or probability may carry, non-finite
/// ones included.
fn arb_num(rng: &mut StdRng) -> f64 {
    const SPECIAL: &[f64] = &[
        0.0,
        -0.0,
        1.0,
        2.5,
        -0.125,
        1.0 / 3.0,
        8_999_999_999_999_999.0,
        9e15,
        1e300,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];
    if rng.gen_bool(0.5) {
        SPECIAL[rng.gen_range(0..SPECIAL.len())]
    } else {
        rng.gen_range(-1000..1000i64) as f64 / 16.0
    }
}

fn arb_table(rng: &mut StdRng) -> Table {
    let arity = rng.gen_range(0..5usize);
    let attrs: Vec<String> = (0..arity)
        .map(|i| format!("{}{i}", arb_text(rng)))
        .collect();
    let schema = Schema::new(arb_text(rng), attrs).expect("distinct attribute names");
    let mut table = Table::new(schema);
    let rows = if rng.gen_bool(0.2) {
        0
    } else {
        rng.gen_range(1..24usize)
    };
    // Ids start at 0, in the middle, or near u32::MAX, with gaps.
    let mut id = [0u32, 1_000, u32::MAX - 100][rng.gen_range(0..3usize)];
    for _ in 0..rows {
        let tuple = Tuple::new((0..arity).map(|_| arb_value(rng)));
        table
            .push_row(TupleId(id), tuple, arb_weight(rng))
            .expect("valid row");
        id += rng.gen_range(1..4u32);
    }
    table
}

fn arb_ids(rng: &mut StdRng) -> Vec<TupleId> {
    let len = rng.gen_range(0..12usize);
    (0..len)
        .map(|_| TupleId([rng.gen_range(0..50u32), u32::MAX][rng.gen_range(0..2usize)]))
        .collect()
}

fn arb_strs(rng: &mut StdRng) -> Vec<String> {
    let len = rng.gen_range(0..4usize);
    (0..len).map(|_| arb_text(rng)).collect()
}

fn arb_count(rng: &mut StdRng) -> Option<u128> {
    match rng.gen_range(0..4u8) {
        0 => None,
        1 => Some(rng.gen_range(0..1000u64).into()),
        2 => Some((1 << 53) + rng.gen_range(0..2u64) as u128),
        _ => Some(u128::MAX - rng.gen_range(0..5u64) as u128),
    }
}

fn arb_body(rng: &mut StdRng) -> (Notion, ReportBody) {
    let cells = |rng: &mut StdRng| -> Vec<ChangedCell> {
        let len = rng.gen_range(0..5usize);
        (0..len)
            .map(|_| ChangedCell {
                tuple: TupleId(rng.gen_range(0..100u32)),
                attr: arb_text(rng),
                old: arb_value(rng).to_string(),
                new: arb_value(rng).to_string(),
            })
            .collect()
    };
    match rng.gen_range(0..7u8) {
        0 => (
            Notion::Subset,
            ReportBody::Subset {
                deleted: arb_ids(rng),
                repaired: arb_table(rng),
            },
        ),
        1 => (
            Notion::Update,
            ReportBody::Update {
                changed: cells(rng),
                repaired: arb_table(rng),
            },
        ),
        2 => (
            Notion::Mixed,
            ReportBody::Mixed {
                deleted: arb_ids(rng),
                changed: cells(rng),
                repaired: arb_table(rng),
            },
        ),
        3 => (
            Notion::Mpd,
            ReportBody::Mpd {
                kept: arb_ids(rng),
                probability: arb_num(rng),
                repaired: arb_table(rng),
            },
        ),
        4 => (
            Notion::Count,
            ReportBody::Count {
                subset_repairs: arb_count(rng),
                optimal_subset_repairs: arb_count(rng),
                notes: arb_strs(rng),
            },
        ),
        5 => (
            Notion::Sample,
            ReportBody::Sample {
                kept: arb_ids(rng),
                repaired: arb_table(rng),
            },
        ),
        _ => (
            Notion::Classify,
            ReportBody::Classify {
                keys: arb_strs(rng),
                bcnf_violation: rng.gen_bool(0.5).then(|| arb_text(rng)),
                consistent: rng.gen_bool(0.5),
                conflicts: rng.gen_range(0..1000usize),
            },
        ),
    }
}

fn arb_report(rng: &mut StdRng) -> RepairReport {
    let (notion, body) = arb_body(rng);
    let hard = rng.gen_bool(0.5);
    RepairReport {
        notion,
        methods: arb_strs(rng),
        optimal: rng.gen_bool(0.5),
        ratio: arb_num(rng),
        cost: arb_num(rng),
        dichotomy: DichotomyReport {
            chain: rng.gen_bool(0.5),
            osr_succeeds: !hard,
            hard_class: hard.then(|| rng.gen_range(1..6u8)),
            hard_core: hard.then(|| arb_text(rng)),
            ratio_ours: arb_num(rng),
            ratio_kl: arb_num(rng),
        },
        components: rng.gen_bool(0.5).then(|| ComponentReport {
            count: rng.gen_range(0..100usize),
            largest: rng.gen_range(0..100usize),
            clean_rows: rng.gen_range(0..100usize),
            methods: arb_strs(rng)
                .into_iter()
                .map(|m| (m, rng.gen_range(0..10usize)))
                .collect(),
        }),
        timings: Timings {
            plan_ms: arb_num(rng),
            solve_ms: arb_num(rng),
            total_ms: arb_num(rng),
        },
        body,
    }
}

// ---------------------------------------------------------------------
// Properties.
// ---------------------------------------------------------------------

#[test]
fn writer_matches_the_reference_tree_on_every_body_variant() {
    let mut seen = [false; 7];
    for seed in 0..600u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let report = arb_report(&mut rng);
        seen[report.notion as usize] = true;
        let text = report.to_json();
        assert_eq!(text, report_tree(&report).to_string(), "seed {seed}");
        let mut streamed = Vec::new();
        report.write_json(&mut streamed).expect("Vec sink");
        assert_eq!(streamed, text.as_bytes(), "seed {seed}");
    }
    assert_eq!(seen, [true; 7], "every body variant is drawn");
}

#[test]
fn writer_output_reprints_unchanged_after_a_parse() {
    for seed in 0..600u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let report = arb_report(&mut rng);
        let text = report.to_json();
        let parsed = Json::parse(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{text}"));
        assert_eq!(parsed.to_string(), text, "seed {seed}");
        assert_eq!(report.to_json_value(), parsed, "seed {seed}");
    }
}

#[test]
fn a_failing_sink_surfaces_its_io_error() {
    struct Full;
    impl std::io::Write for Full {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::new(std::io::ErrorKind::StorageFull, "full"))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let mut rng = StdRng::seed_from_u64(1);
    let report = arb_report(&mut rng);
    let err = report.write_json(&mut Full).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::StorageFull);
}
