//! # fd-srepair
//!
//! Optimal subset repairs (§3 of the paper):
//!
//! * [`opt_s_repair`] — `OptSRepair`, Algorithm 1;
//! * [`osr_succeeds`] / [`simplification_trace`] — `OSRSucceeds`,
//!   Algorithm 2, with full traces (Example 3.5). Algorithm 1, the
//!   counters and the sampler below execute this trace: it is computed
//!   once per call and every recursion level applies the rule
//!   [`Trace::step`] names for its depth to blocks that are row-position
//!   lists of the one input table, never copied sub-tables;
//! * [`classify_irreducible`] — the Figure-2 five-class classifier for FD
//!   sets on the hard side of the dichotomy (Theorem 3.4);
//! * [`class_reduction`] / [`lifting_reduction`] — executable fact-wise
//!   reductions (Lemmas A.14–A.18);
//! * [`exact_s_repair`] — exact baseline via minimum-weight vertex cover
//!   on the conflict graph (valid for every FD set);
//! * [`approx_s_repair`] — the 2-approximation of Proposition 3.3;
//! * [`count_subset_repairs`] — polynomial subset-repair counting for
//!   chain FD sets (the §2.2 pointer to the counting dichotomy of \[26\]);
//! * [`sharded_s_repair`] — the subset execution path: conflict-graph
//!   components extracted edge-free, conflict-free rows kept for free,
//!   each component solved independently with the [`SMethod`] its size
//!   and `Δ`'s dichotomy side call for (exact-per-component on the hard
//!   side; every component is solved on its row positions, a hard-side
//!   one over its conflict graph read off the conflict index) and fanned out
//!   across threads, bit-identical to the whole-table references
//!   above. Every subset solve on the request
//!   path runs here — the engine's subset notion and the S-repairs
//!   behind update repairs (Corollary 4.6, Theorem 4.12,
//!   Proposition 4.9) and MPD (Theorem 3.10) alike; [`opt_s_repair`],
//!   [`exact_s_repair`] and [`approx_s_repair`] stay as the references
//!   it is tested against;
//! * [`IncrementalSubset`] — the delta engine over the sharded path:
//!   per-component solutions cached across mutations, a single
//!   insert/delete/edit re-solving only the components it dirties,
//!   reports bit-identical to a cold solve;
//! * [`answers_all_repairs`] / [`answers_optimal_repairs`] — tuple-level
//!   consistent query answering (certain/possible membership) under the
//!   all-repairs and optimal-repairs semantics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod approx;
mod chain_count;
mod classify;
mod count;
mod cqa;
mod exact;
mod factwise;
mod incremental;
mod maximal;
mod optsrepair;
mod repair;
mod sharded;
mod succeeds;

pub use approx::approx_s_repair;
pub use chain_count::{
    brute_force_count_subset_repairs, count_subset_repairs, count_subset_repairs_log2,
    sample_subset_repair, ChainCountOutcome,
};
pub use classify::{classify_irreducible, Classification, HardCore};
pub use count::{
    brute_force_count, count_optimal_s_repairs, enumerate_optimal_s_repairs, CountOutcome,
};
pub use cqa::{
    answers_all_repairs, answers_optimal_repairs, brute_force_answers_optimal, TupleAnswers,
};
pub use exact::{brute_force_s_repair, exact_s_repair};
pub use factwise::{class_reduction, lifting_chain, lifting_reduction, FactwiseReduction};
pub use incremental::IncrementalSubset;
pub use maximal::{is_subset_repair, make_maximal};
pub use optsrepair::{opt_s_repair, Irreducible};
pub use repair::SRepair;
pub use sharded::{
    shard_plan, sharded_s_repair, sharded_s_repair_indexed, SMethod, ShardConfig, ShardPlan,
    ShardedSolution,
};
pub use succeeds::{osr_succeeds, simplification_trace, Outcome, Rule, Trace, TraceStep};
