//! # fd-urepair
//!
//! Optimal and approximate update repairs (§4 of the paper):
//!
//! * [`consensus_u_repair`] — consensus FDs, optimal (Proposition B.2);
//! * [`attribute_components`] / [`strip_consensus`] — the decomposition
//!   theorems 4.1 and 4.3;
//! * [`update_to_subset`] / [`subset_to_update`] — the S↔U conversions of
//!   Proposition 4.4 (hence Corollaries 4.5 and 4.6);
//! * [`two_cycle_u_repair`] — `{A → B, B → A}`, optimal (Proposition 4.9);
//! * [`exact_u_repair`] — exhaustive baseline for small tables;
//! * [`approx_u_repair`] — the `2·mlc(Δ)` approximation (Theorem 4.12);
//! * [`kl_u_repair`] — the reconstructed Kolahi–Lakshmanan comparator
//!   (Theorem 4.13); ratio formulas in [`ratio_ours`] / [`ratio_kl`];
//! * [`URepairSolver`] — a facade that picks provably optimal strategies
//!   where §4 supplies them and the combined approximation otherwise.
//!
//! Two §5 outlook directions are implemented as well:
//!
//! * [`active_domain_u_repair`] / [`try_restricted_u_repair`] — update
//!   repairs restricted to finite value spaces ([`DomainPolicy`]);
//! * [`exact_mixed_repair`] / [`approx_mixed_repair`] — repairs mixing
//!   deletions and updates under operation-dependent costs
//!   ([`MixedCosts`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod approx;
mod bounds;
mod consensus;
mod convert;
mod decompose;
pub mod engine;
mod exact;
mod kl;
mod marriage;
mod minimal;
mod mixed;
mod repair;
mod restricted;
mod solver;

pub use approx::{approx_u_repair, ApproxURepair};
pub use bounds::{ratio_combined, ratio_kl, ratio_ours};
pub use consensus::{consensus_u_repair, weighted_majority};
pub use convert::{subset_to_update, update_to_subset};
pub use decompose::{attribute_components, strip_consensus};
pub use exact::{exact_u_repair, try_exact_u_repair, DomainPolicy, ExactConfig, ExactError};
pub use kl::kl_u_repair;
pub use marriage::{detect_two_cycle, two_cycle_u_repair};
pub use minimal::{is_update_repair, make_minimal};
pub use mixed::{
    approx_mixed_repair, exact_mixed_repair, mixed_ratio_bound, try_exact_mixed_repair, MixedCosts,
    MixedRepair,
};
pub use repair::URepair;
pub use restricted::{active_domain_u_repair, restriction_gap, try_restricted_u_repair};
pub use solver::{UMethod, URepairSolver, USolution, UpdatePlan, UpdatePlanStep};
