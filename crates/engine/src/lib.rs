//! # fd-engine
//!
//! The unified repair engine: one request/report surface over every
//! repair notion the workspace implements.
//!
//! The paper presents optimal subset repairs, optimal update repairs and
//! the Most Probable Database as instances of one problem — minimize a
//! distance to a consistent instance (§2.3, §3.4) — and its §5 outlook
//! adds mixed operations, constraint classes and priorities on the same
//! skeleton. This crate makes that uniformity an API:
//!
//! * [`RepairRequest`] — what to compute ([`Notion`]), how good it must
//!   be ([`Optimality`]), and what it may spend ([`Budgets`]);
//! * [`RepairEngine`] — `plan` / `explain` / `run`; the default
//!   [`Planner`] consults the dichotomy (`OSRSucceeds`, the §4
//!   decompositions, Theorem 3.10) to pick a strategy, and can explain
//!   its plan without running it;
//! * [`RepairReport`] — repaired data, cost, method provenance,
//!   guaranteed ratio, dichotomy classification and timings, with
//!   dependency-free machine-readable JSON ([`RepairReport::to_json`],
//!   parseable back via [`Json::parse`]);
//! * [`IncrementalSession`] — a long-lived session over a mutating
//!   table: per-component solutions cached by the `fd-srepair` delta
//!   engine make single-row mutations cost microseconds while every
//!   report stays bit-identical to a cold `run` (timings zeroed).
//!
//! The §5 extension directions flow through the same report shape:
//! [`constraint_subset_report`] (conditional FDs / denial constraints)
//! and [`prioritized_report`] (prioritized repairing).
//!
//! ## Example
//!
//! ```
//! use fd_core::{tup, FdSet, Schema, Table};
//! use fd_engine::{Notion, Planner, RepairEngine, RepairRequest};
//!
//! // The paper's running example (Figure 1).
//! let schema = Schema::new("Office", ["facility", "room", "floor", "city"]).unwrap();
//! let fds = FdSet::parse(&schema, "facility -> city; facility room -> floor").unwrap();
//! let table = Table::build(schema, vec![
//!     (tup!["HQ", 322, 3, "Paris"], 2.0),
//!     (tup!["HQ", 322, 30, "Madrid"], 1.0),
//!     (tup!["HQ", 122, 1, "Madrid"], 1.0),
//!     (tup!["Lab1", "B35", 3, "London"], 2.0),
//! ]).unwrap();
//!
//! // One call path for every notion; here: an optimal subset repair.
//! let report = Planner.run(&table, &fds, &RepairRequest::subset()).unwrap();
//! assert_eq!(report.cost, 2.0);       // the paper's optimum (Example 2.3)
//! assert!(report.optimal);
//! assert!(report.dichotomy.osr_succeeds);
//!
//! // The same request surface drives update repairs …
//! let report = Planner.run(&table, &fds, &RepairRequest::update()).unwrap();
//! assert_eq!(report.cost, 2.0);       // Example 4.7
//!
//! // … and every report serializes to JSON without serde.
//! let json = fd_engine::Json::parse(&report.to_json()).unwrap();
//! assert_eq!(json.get("cost").unwrap().as_num(), Some(2.0));
//!
//! // Plans are explainable without running the solvers.
//! let plan = Planner.explain(&table, &fds, &RepairRequest::new(Notion::Mpd));
//! assert!(plan.is_err() == false);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ext;
pub mod json;
mod planner;
mod report;
mod request;
mod session;
pub mod wire;

pub use ext::{constraint_subset_report, prioritized_report};
pub use json::{Json, JsonError, JsonLimits};
pub use planner::{EngineError, Plan, PlanStep, Planner, RepairEngine};
pub use report::{
    ChangedCell, ComponentReport, DichotomyReport, RepairReport, ReportBody, Timings,
};
pub use request::{Budgets, Notion, Optimality, RepairRequest, WIRE_INT_MAX};
pub use session::IncrementalSession;
pub use wire::{
    cache_key, parse_mutation_trace, parse_table_doc, table_fingerprint, Fnv64, MutateCall,
    ParsedCall, RefCall, RepairCall, WireError, WireMutation,
};

// The one value type [`RepairRequest`] borrows from a solver crate, so
// engine callers (CLI, serve, the fd-oracle harness) need no direct
// `fd-urepair` dependency to build mixed requests.
pub use fd_urepair::MixedCosts;
