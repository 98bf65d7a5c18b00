//! # fd-repairs
//!
//! A Rust implementation of **"Computing Optimal Repairs for Functional
//! Dependencies"** (Livshits, Kimelfeld & Roy, PODS 2018): optimal subset
//! repairs (minimum-weight tuple deletions), optimal update repairs
//! (minimum-weight cell updates), the complexity dichotomy that separates
//! the polynomial cases from the APX-complete ones, the approximation
//! algorithms on the hard side, and the Most Probable Database problem.
//!
//! This crate is a facade over the workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`core`] | schemas, tables, FDs, closures, distances, covers |
//! | [`graph`] | conflict graphs, bipartite matching, vertex cover, triangles |
//! | [`srepair`] | Algorithms 1–2, the dichotomy, fact-wise reductions |
//! | [`urepair`] | §4: decompositions, polynomial cases, approximations |
//! | [`mpd`] | §3.4: Most Probable Database |
//! | [`engine`] | the unified `RepairRequest → RepairReport` call path |
//! | [`serve`] | the HTTP repair service over the engine (`fdrepair serve`) |
//! | [`gen`] | workload generators and hardness gadgets |
//! | [`oracle`] | brute-force ground truth + differential fuzzing (`fdrepair fuzz`) |
//! | [`priority`] | §5 outlook: prioritized repairs (Pareto/global/completion) |
//! | [`cfd`] | §5 outlook: conditional FDs and denial constraints |
//!
//! ## Quickstart
//!
//! Every repair notion goes through one call path: build a
//! [`RepairRequest`], hand it to the [`Planner`] engine, read the
//! [`RepairReport`].
//!
//! ```
//! use fd_repairs::prelude::*;
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
//! // Optimal S-repair (the engine consults the dichotomy: Algorithm 1
//! // applies, so the result is provably optimal — distance 2, Example 2.3).
//! let report = Planner.run(&table, &fds, &RepairRequest::subset()).unwrap();
//! assert_eq!(report.cost, 2.0);
//! assert!(report.optimal && report.dichotomy.osr_succeeds);
//!
//! // Optimal U-repair through the same surface (Example 4.7).
//! let report = Planner.run(&table, &fds, &RepairRequest::update()).unwrap();
//! assert_eq!(report.cost, 2.0);
//! assert!(report.repaired().unwrap().satisfies(&fds));
//!
//! // Machine-readable output, no serde required.
//! let json = Json::parse(&report.to_json()).unwrap();
//! assert_eq!(json.get("cost").unwrap().as_num(), Some(2.0));
//! ```
//!
//! ## Migrating to the engine
//!
//! The direct solver entry points map onto engine requests as follows:
//!
//! | old | new |
//! |---|---|
//! | `URepairSolver::default().solve(&t, &fds)` | `Planner.run(&t, &fds, &RepairRequest::update())` |
//! | `URepairSolver { exact_row_limit: n, exact_node_budget: b }` | `RepairRequest::update().exact_row_limit(n).exact_node_budget(b)` |
//! | `exact_mixed_repair(&t, &fds, costs, &cfg)` | `Planner.run(&t, &fds, &RepairRequest::mixed(costs).optimality(Optimality::Exact))` |
//! | `most_probable_database(&ProbTable::new(t)?, &fds)` | `Planner.run(&t, &fds, &RepairRequest::mpd())` |
//! | `count_subset_repairs` / `count_optimal_s_repairs` | `Planner.run(&t, &fds, &RepairRequest::new(Notion::Count))` |
//! | `sample_subset_repair(&t, &fds, &mut rng)` | `Planner.run(&t, &fds, &RepairRequest::new(Notion::Sample).seed(s))` |
//!
//! Subset repairs have one execution path, `sharded_s_repair`, which
//! `Planner.run(&t, &fds, &RepairRequest::subset())` drives; its knobs
//! (`exact_fallback_limit`, `component_exact_limit`, `threads`) live on
//! [`Budgets`]. The 0.2.0 deprecation shims are removed: use
//! `fd_urepair::URepairSolver` by its crate path and
//! `Instance::to_fdr` for `.fdr` output. The algorithm APIs and their
//! result types (`SRepair`, `USolution`, method enums) remain public
//! and un-deprecated — the engine is a front door, not a wall.
//!
//! `ARCHITECTURE.md` (repo root) maps the crate topology and data flow;
//! `docs/API.md` documents the HTTP surface `fdrepair serve` exposes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod instance;

pub use fd_cfd as cfd;
pub use fd_core as core;
pub use fd_engine as engine;
pub use fd_gen as gen;
pub use fd_graph as graph;
pub use fd_mpd as mpd;
pub use fd_oracle as oracle;
pub use fd_priority as priority;
pub use fd_serve as serve;
pub use fd_srepair as srepair;
pub use fd_urepair as urepair;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use fd_cfd::{
        optimal_subset_repair as cfd_optimal_subset_repair, satisfies as cfd_satisfies, Cfd,
        DenialConstraint, PairwiseConstraint,
    };
    pub use fd_core::{
        bcnf_decompose, bcnf_violation, candidate_keys, derive, is_lossless_join, is_superkey, mci,
        mfs, min_core_implicant, min_lhs_cover, mlc, preserves_dependencies, prime_attrs,
        schema_rabc, table_from_csv, table_to_csv, third_nf_synthesis, third_nf_violation, tup,
        AttrId, AttrSet, CsvOptions, Decomposition, Derivation, Error, Fd, FdSet, FreshSource,
        Result, Row, Schema, Table, Tuple, TupleId, Value,
    };
    pub use fd_engine::{
        cache_key, constraint_subset_report, parse_mutation_trace, prioritized_report, Budgets,
        ChangedCell, ComponentReport, DichotomyReport, EngineError, IncrementalSession, Json,
        JsonError, JsonLimits, MutateCall, Notion, Optimality, Plan, PlanStep, Planner, RepairCall,
        RepairEngine, RepairReport, RepairRequest, ReportBody, Timings, WireError, WireMutation,
    };
    pub use fd_graph::{
        max_weight_bipartite_matching, min_weight_vertex_cover, vertex_cover_2approx,
        ConflictGraph, Graph,
    };
    pub use fd_mpd::{brute_force_mpd, most_probable_database, MpdResult, ProbTable};
    pub use fd_priority::{PrioritizedTable, PriorityRelation, Semantics};
    pub use fd_serve::{ServeConfig, Server};
    pub use fd_srepair::{
        answers_all_repairs, answers_optimal_repairs, approx_s_repair, classify_irreducible,
        count_optimal_s_repairs, count_subset_repairs, exact_s_repair, is_subset_repair,
        make_maximal, opt_s_repair, osr_succeeds, sample_subset_repair, sharded_s_repair,
        simplification_trace, ChainCountOutcome, Classification, CountOutcome, HardCore, SMethod,
        SRepair, ShardConfig, ShardPlan, ShardedSolution,
    };
    pub use fd_urepair::{
        approx_mixed_repair, approx_u_repair, consensus_u_repair, exact_mixed_repair,
        exact_u_repair, is_update_repair, kl_u_repair, make_minimal, ratio_combined, ratio_kl,
        ratio_ours, two_cycle_u_repair, DomainPolicy, ExactConfig, MixedCosts, MixedRepair,
        UMethod, URepair, USolution,
    };
}

pub use prelude::*;
