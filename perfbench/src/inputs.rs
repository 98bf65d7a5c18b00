//! Seeded inputs and expected outputs. Tables come from the fd-gen scale
//! generators; request bodies and table documents are rendered with the
//! engine's own wire types, so the program only ever receives what these
//! functions build. Expected bytes come from an in-process
//! `Planner.run(..).to_json()` on the benchmark's own copy of the input.

use fd_repairs::core::{FdSet, Schema, Table, Value};
use fd_repairs::engine::{
    Json, JsonLimits, MutateCall, Notion, Planner, RepairCall, RepairEngine, RepairRequest,
    Timings, WireMutation,
};
use fd_repairs::gen::scale::{hard_scale, tractable_scale};
use std::sync::Arc;

/// The two sides of the dichotomy the generators cover.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// `S(K, A, B)` under `K -> A B`.
    Tractable,
    /// `H(A, B, C)` under `A -> C; B -> C`.
    Hard,
}

impl Side {
    pub fn fd_spec(self) -> &'static str {
        match self {
            Side::Tractable => "K -> A B",
            Side::Hard => "A -> C; B -> C",
        }
    }

    pub fn generate(self, rows: usize, weighted: bool, seed: u64) -> (Arc<Schema>, FdSet, Table) {
        match self {
            Side::Tractable => tractable_scale(rows, weighted, seed),
            Side::Hard => hard_scale(rows, weighted, seed),
        }
    }
}

/// The limits `fdrepair serve` parses bodies under by default (its 4 MB
/// body cap); the in-process passes parse under the same ones.
pub fn server_limits() -> JsonLimits {
    JsonLimits {
        max_bytes: 4 << 20,
        max_depth: JsonLimits::DEFAULT_MAX_DEPTH,
    }
}

/// A stored-table document, `{relation, attrs, rows}`, as `PUT
/// /tables/{id}` takes it.
pub fn table_doc(table: &Table) -> String {
    let schema = table.schema();
    let rows: Vec<Json> = table
        .rows()
        .map(|row| {
            let values = row.tuple.values().iter().map(value_json).collect();
            Json::obj([("weight", row.weight.into()), ("values", Json::Arr(values))])
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
    .to_string()
}

fn value_json(v: &Value) -> Json {
    match v {
        Value::Int(i) => Json::Num(*i as f64),
        other => Json::str(other.to_string()),
    }
}

/// An inline `/repair` or `/explain` body with timings off, so that
/// identical calls answer identical bytes.
pub fn inline_body(table: &Table, fds: &FdSet, request: &RepairRequest) -> String {
    RepairCall {
        table: table.clone(),
        fds: fds.clone(),
        request: *request,
        include_timings: false,
    }
    .to_json_value()
    .to_string()
}

/// A by-reference `/repair` body against a stored table.
pub fn by_ref_body(table_ref: &str, fd_spec: &str, notion: Notion) -> String {
    Json::obj([
        ("table_ref", Json::str(table_ref)),
        ("fds", Json::str(fd_spec)),
        (
            "request",
            Json::obj([
                ("notion", Json::str(notion.name())),
                ("include_timings", false.into()),
            ]),
        ),
    ])
    .to_string()
}

/// A one-op `POST /tables/{id}/mutate` body.
pub fn mutate_body(fd_spec: &str, mutation: &WireMutation) -> String {
    MutateCall {
        fds: Some(fd_spec.to_string()),
        request: RepairRequest::subset(),
        include_timings: false,
        mutations: vec![mutation.clone()],
    }
    .to_json_value()
    .to_string()
}

/// The report bytes a correct program answers for this call with
/// timings off.
pub fn expected_report(table: &Table, fds: &FdSet, request: &RepairRequest) -> String {
    let mut report = Planner
        .run(table, fds, request)
        .expect("the generated workloads never make the engine fail");
    report.timings = Timings::default();
    report.to_json()
}

/// The plan bytes `/explain` answers for this call.
pub fn expected_plan(table: &Table, fds: &FdSet, request: &RepairRequest) -> String {
    Planner
        .plan(table, fds, request)
        .expect("the generated workloads never make the planner fail")
        .to_json_value()
        .to_string()
}
