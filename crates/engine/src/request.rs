//! The request side of the engine API: what to compute ([`Notion`]), how
//! good it has to be ([`Optimality`]), and what resources the call may
//! spend ([`Budgets`]), assembled by the [`RepairRequest`] builder.

use fd_urepair::MixedCosts;

/// The repair notion to compute. The paper presents S-repairs, U-repairs
/// and the Most Probable Database as instances of one minimization
/// problem (§2.3, §3.4); the engine adds the counting, sampling and
/// classification services built on the same dichotomy machinery.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Notion {
    /// Optimal subset repair: minimum-weight tuple deletions (§3).
    Subset,
    /// Optimal update repair: minimum-weight cell updates (§4).
    Update,
    /// Mixed-operation repair: deletions and updates under
    /// [`MixedCosts`] multipliers (§5 outlook).
    Mixed,
    /// Most Probable Database: weights are tuple probabilities (§3.4).
    Mpd,
    /// Count subset repairs and optimal subset repairs (§2.2 pointer).
    Count,
    /// Uniformly sample a subset repair (chain FD sets).
    Sample,
    /// Classify only: dichotomy side, Figure-2 class, ratio bounds.
    Classify,
}

impl Notion {
    /// The stable machine-readable name used in reports and the CLI
    /// (`s`, `u`, `mixed`, `mpd`, `count`, `sample`, `classify`).
    pub fn name(self) -> &'static str {
        match self {
            Notion::Subset => "s",
            Notion::Update => "u",
            Notion::Mixed => "mixed",
            Notion::Mpd => "mpd",
            Notion::Count => "count",
            Notion::Sample => "sample",
            Notion::Classify => "classify",
        }
    }

    /// Parses a notion name as accepted by `fdrepair repair --notion`.
    pub fn parse(name: &str) -> Option<Notion> {
        match name {
            "s" | "subset" | "srepair" => Some(Notion::Subset),
            "u" | "update" | "urepair" => Some(Notion::Update),
            "mixed" => Some(Notion::Mixed),
            "mpd" => Some(Notion::Mpd),
            "count" => Some(Notion::Count),
            "sample" => Some(Notion::Sample),
            "classify" => Some(Notion::Classify),
            _ => None,
        }
    }
}

/// How good the result must be.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Optimality {
    /// Only a provably optimal result is acceptable, whatever it costs
    /// (exponential on the hard side of the dichotomy); the call fails
    /// with [`crate::EngineError::ExactInfeasible`] when no exact method
    /// fits the instance.
    Exact,
    /// A result whose *guaranteed* ratio is at most `max_ratio` is
    /// acceptable; the planner still prefers cheap optimal methods when
    /// the dichotomy provides them.
    Approximate {
        /// The worst acceptable guaranteed approximation ratio (≥ 1).
        max_ratio: f64,
    },
    /// The solver facade default: optimal where polynomial, exact on
    /// small hard instances, best available approximation otherwise.
    Best,
}

/// The largest budget integer the wire format carries exactly (the
/// f64-safe ceiling the JSON parser enforces). Budget builders clamp to
/// it so "effectively infinite" knobs like
/// `component_exact_limit(usize::MAX)` round-trip the wire codec byte-exactly; no real table approaches it.
pub const WIRE_INT_MAX: usize = 9_000_000_000_000_000;

/// Per-call resource budgets.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Budgets {
    /// The caller's global allowance for exponential exact solving. For
    /// subset repairs it **caps** [`Budgets::component_exact_limit`]
    /// (the effective per-component cutoff is the minimum of the two),
    /// so `exact_fallback_limit: 0` means "polynomial methods only". For
    /// the mixed notion and the constraint reports it is the whole-table
    /// cutoff up to which the exact enumeration or cover may run.
    pub exact_fallback_limit: usize,
    /// Update components whose table slice stays within this many rows
    /// may use the exponential exact search.
    pub exact_row_limit: usize,
    /// Node budget handed to the exact update search.
    pub exact_node_budget: u64,
    /// Wall-clock cap in milliseconds, checked between plan steps; an
    /// exceeded cap aborts the call with
    /// [`crate::EngineError::TimeBudgetExceeded`].
    pub time_cap_ms: Option<u64>,
    /// Worker threads for the data-parallel paths: the sharded subset
    /// solve fans conflict components out over this many threads, the
    /// update solve fans its attribute-disjoint components out likewise
    /// (`1` runs sequentially, `0` asks the OS). The result is identical
    /// to the sequential computation.
    pub threads: usize,
    /// Per-component exact cutoff of the sharded subset path: hard-side
    /// *components* (not tables) up to this many rows are solved with
    /// the exact vertex-cover baseline, so exactness survives to
    /// instances of any row count as long as individual components stay
    /// small. Capped by [`Budgets::exact_fallback_limit`], the global
    /// exponential-work allowance; raising this beyond 64 therefore
    /// means raising both knobs.
    pub component_exact_limit: usize,
}

impl Default for Budgets {
    fn default() -> Budgets {
        Budgets {
            exact_fallback_limit: 64,
            exact_row_limit: 8,
            exact_node_budget: 2_000_000,
            time_cap_ms: None,
            threads: 1,
            component_exact_limit: 64,
        }
    }
}

/// A complete request: one of these drives every notion through the same
/// [`crate::RepairEngine`] call path.
///
/// # Examples
///
/// ```
/// use fd_engine::{Budgets, Notion, Optimality, RepairRequest};
///
/// let request = RepairRequest::subset()
///     .optimality(Optimality::Approximate { max_ratio: 2.0 })
///     .exact_fallback_limit(32);
/// assert_eq!(request.notion, Notion::Subset);
/// assert_eq!(request.budgets.exact_fallback_limit, 32);
/// # let _ = Budgets::default();
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RepairRequest {
    /// What to compute.
    pub notion: Notion,
    /// The optimality requirement.
    pub optimality: Optimality,
    /// Resource budgets.
    pub budgets: Budgets,
    /// Cost multipliers for [`Notion::Mixed`] (ignored elsewhere).
    pub mixed_costs: MixedCosts,
    /// RNG seed for [`Notion::Sample`]; `None` seeds from the OS.
    pub seed: Option<u64>,
}

impl RepairRequest {
    /// A request for `notion` with default optimality and budgets.
    pub fn new(notion: Notion) -> RepairRequest {
        RepairRequest {
            notion,
            optimality: Optimality::Best,
            budgets: Budgets::default(),
            mixed_costs: MixedCosts::UNIT,
            seed: None,
        }
    }

    /// Shorthand for [`RepairRequest::new`]`(Notion::Subset)`.
    pub fn subset() -> RepairRequest {
        RepairRequest::new(Notion::Subset)
    }

    /// Shorthand for [`RepairRequest::new`]`(Notion::Update)`.
    pub fn update() -> RepairRequest {
        RepairRequest::new(Notion::Update)
    }

    /// Shorthand for a mixed-operation request with the given cost
    /// multipliers.
    pub fn mixed(costs: MixedCosts) -> RepairRequest {
        RepairRequest::new(Notion::Mixed).mixed_costs(costs)
    }

    /// Shorthand for [`RepairRequest::new`]`(Notion::Mpd)`.
    pub fn mpd() -> RepairRequest {
        RepairRequest::new(Notion::Mpd)
    }

    /// Sets the optimality requirement.
    pub fn optimality(mut self, optimality: Optimality) -> RepairRequest {
        self.optimality = optimality;
        self
    }

    /// Replaces the whole budget block.
    pub fn budgets(mut self, budgets: Budgets) -> RepairRequest {
        self.budgets = budgets;
        self
    }

    /// Sets the global exact-solving allowance
    /// ([`Budgets::exact_fallback_limit`]).
    pub fn exact_fallback_limit(mut self, limit: usize) -> RepairRequest {
        self.budgets.exact_fallback_limit = limit;
        self
    }

    /// Sets the per-component exact cutoff for update repairs.
    pub fn exact_row_limit(mut self, limit: usize) -> RepairRequest {
        self.budgets.exact_row_limit = limit;
        self
    }

    /// Sets the node budget for the exact update search.
    pub fn exact_node_budget(mut self, nodes: u64) -> RepairRequest {
        self.budgets.exact_node_budget = nodes;
        self
    }

    /// Sets the wall-clock cap.
    pub fn time_cap_ms(mut self, cap: u64) -> RepairRequest {
        self.budgets.time_cap_ms = Some(cap);
        self
    }

    /// Sets the worker-thread count for the parallel subset path
    /// (`0` = ask the OS, `1` = sequential).
    pub fn threads(mut self, threads: usize) -> RepairRequest {
        self.budgets.threads = threads;
        self
    }

    /// Sets the per-component exact cutoff of the sharded subset path.
    pub fn component_exact_limit(mut self, limit: usize) -> RepairRequest {
        self.budgets.component_exact_limit = limit.min(WIRE_INT_MAX);
        self
    }

    /// Sets the mixed-operation cost multipliers.
    pub fn mixed_costs(mut self, costs: MixedCosts) -> RepairRequest {
        self.mixed_costs = costs;
        self
    }

    /// Sets the sampling seed.
    pub fn seed(mut self, seed: u64) -> RepairRequest {
        self.seed = Some(seed);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn notion_names_round_trip() {
        for notion in [
            Notion::Subset,
            Notion::Update,
            Notion::Mixed,
            Notion::Mpd,
            Notion::Count,
            Notion::Sample,
            Notion::Classify,
        ] {
            assert_eq!(Notion::parse(notion.name()), Some(notion));
        }
        assert_eq!(Notion::parse("srepair"), Some(Notion::Subset));
        assert_eq!(Notion::parse("nope"), None);
    }

    #[test]
    fn builder_chains() {
        let r = RepairRequest::update()
            .optimality(Optimality::Exact)
            .exact_row_limit(3)
            .exact_node_budget(10)
            .time_cap_ms(500)
            .threads(4)
            .seed(7);
        assert_eq!(r.notion, Notion::Update);
        assert_eq!(r.optimality, Optimality::Exact);
        assert_eq!(r.budgets.exact_row_limit, 3);
        assert_eq!(r.budgets.exact_node_budget, 10);
        assert_eq!(r.budgets.time_cap_ms, Some(500));
        assert_eq!(r.budgets.threads, 4);
        assert_eq!(r.seed, Some(7));
    }
}
