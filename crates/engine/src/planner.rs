//! The engine itself: the [`RepairEngine`] trait, the default
//! [`Planner`] implementation, and the [`Plan`] it can explain without
//! running.

use crate::report::{
    ChangedCell, ComponentReport, DichotomyReport, RepairReport, ReportBody, Timings,
};
use crate::request::{Notion, Optimality, RepairRequest};
use fd_core::{candidate_keys, AttrId, ConflictIndex, FdSet, Table, TupleId, Value};
use fd_srepair::{
    count_optimal_s_repairs, count_subset_repairs, sample_subset_repair, ChainCountOutcome,
    CountOutcome, SMethod, ShardConfig, ShardPlan, ShardedSolution,
};
use fd_urepair::engine::{MixedMethod, EXACT_MAX_ROWS};
use fd_urepair::{URepairSolver, UpdatePlan};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::fmt;
use std::time::Instant;

/// Why an engine call could not produce a report.
#[derive(Clone, Debug, PartialEq)]
pub enum EngineError {
    /// The request is malformed (e.g. a ratio below 1).
    InvalidRequest(String),
    /// [`Optimality::Exact`] was demanded but no exact method fits the
    /// instance (e.g. mixed repair beyond its enumeration cap).
    ExactInfeasible(String),
    /// [`Optimality::Approximate`] was demanded with a `max_ratio` no
    /// available method can guarantee.
    RatioUnattainable {
        /// The requested ceiling.
        required: f64,
        /// The best guaranteed ratio the planner could offer.
        achievable: f64,
    },
    /// The notion needs probabilities but a weight is outside `(0, 1]`.
    InvalidProbability(String),
    /// Counting/sampling was requested outside the chain-tractable case.
    NotAChain(String),
    /// The wall-clock cap was exceeded.
    TimeBudgetExceeded {
        /// The configured cap.
        cap_ms: u64,
        /// Time actually spent before the engine gave up.
        elapsed_ms: u64,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::InvalidRequest(m) => write!(f, "invalid request: {m}"),
            EngineError::ExactInfeasible(m) => write!(f, "exact result infeasible: {m}"),
            EngineError::RatioUnattainable {
                required,
                achievable,
            } => write!(
                f,
                "no method guarantees ratio {required} (best achievable: {achievable})"
            ),
            EngineError::InvalidProbability(m) => write!(f, "invalid probability: {m}"),
            EngineError::NotAChain(m) => write!(f, "Δ is not a chain: {m}"),
            EngineError::TimeBudgetExceeded { cap_ms, elapsed_ms } => {
                write!(
                    f,
                    "time budget exceeded: cap {cap_ms} ms, spent {elapsed_ms} ms"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// One step of a [`Plan`].
#[derive(Clone, Debug, PartialEq)]
pub struct PlanStep {
    /// The method name (stable, machine-readable provenance).
    pub method: String,
    /// What the step covers, human-readable (a component, the whole
    /// table, …).
    pub scope: String,
    /// The step's guaranteed ratio (1 when provably optimal).
    pub ratio: f64,
}

/// What the engine intends to do for a request — computable in
/// polynomial time, so `explain()` never commits to exponential work.
#[derive(Clone, Debug, PartialEq)]
pub struct Plan {
    /// The notion planned for.
    pub notion: Notion,
    /// The steps, in application order.
    pub steps: Vec<PlanStep>,
    /// Whether the planned result will be guaranteed optimal.
    pub optimal: bool,
    /// The guaranteed overall ratio.
    pub ratio: f64,
    /// Where `Δ` falls in the complexity landscape.
    pub dichotomy: DichotomyReport,
}

impl Plan {
    /// Renders the plan as indented text (the `explain` output).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("plan for notion `{}`:\n", self.notion.name()));
        out.push_str(&format!(
            "  dichotomy: OSRSucceeds = {}, chain = {}",
            self.dichotomy.osr_succeeds, self.dichotomy.chain
        ));
        if let (Some(class), Some(core)) = (
            self.dichotomy.hard_class,
            self.dichotomy.hard_core.as_deref(),
        ) {
            out.push_str(&format!(" (hard: Figure-2 class {class} via {core})"));
        }
        out.push('\n');
        for step in &self.steps {
            out.push_str(&format!(
                "  step: {} on {} (guaranteed ratio {:.2})\n",
                step.method, step.scope, step.ratio
            ));
        }
        out.push_str(&format!(
            "  guarantee: optimal = {}, ratio = {:.2}\n",
            self.optimal, self.ratio
        ));
        out
    }

    /// The plan as a JSON value (same vocabulary as the report).
    pub fn to_json_value(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::obj([
            ("notion", Json::str(self.notion.name())),
            ("optimal", self.optimal.into()),
            ("ratio", self.ratio.into()),
            (
                "steps",
                Json::Arr(
                    self.steps
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("method", Json::str(&s.method)),
                                ("scope", Json::str(&s.scope)),
                                ("ratio", s.ratio.into()),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("dichotomy", self.dichotomy.to_json()),
        ])
    }
}

/// The engine interface: plan, explain, run — one call path for every
/// notion.
pub trait RepairEngine {
    /// Decides a strategy without committing to expensive work.
    fn plan(
        &self,
        table: &Table,
        fds: &FdSet,
        request: &RepairRequest,
    ) -> Result<Plan, EngineError>;

    /// Executes a request end to end.
    fn run(
        &self,
        table: &Table,
        fds: &FdSet,
        request: &RepairRequest,
    ) -> Result<RepairReport, EngineError>;

    /// Renders the plan as text, without running it.
    fn explain(
        &self,
        table: &Table,
        fds: &FdSet,
        request: &RepairRequest,
    ) -> Result<String, EngineError> {
        Ok(self.plan(table, fds, request)?.render())
    }
}

/// The default engine: consults the dichotomy (`OSRSucceeds`, the §4
/// decompositions, Theorem 3.10) to pick a strategy per notion, honors
/// the request's optimality requirement and budgets, and assembles the
/// unified report.
#[derive(Clone, Copy, Debug, Default)]
pub struct Planner;

impl Planner {
    pub(crate) fn validate(request: &RepairRequest) -> Result<(), EngineError> {
        if let Optimality::Approximate { max_ratio } = request.optimality {
            if max_ratio.is_nan() || max_ratio < 1.0 {
                return Err(EngineError::InvalidRequest(format!(
                    "max_ratio must be ≥ 1, got {max_ratio}"
                )));
            }
        }
        Ok(())
    }

    /// The sharding configuration a subset request resolves to. A
    /// request the 2-approximation cannot satisfy (`Exact`, or a
    /// `max_ratio` below 2) solves every hard-side component exactly:
    /// the plan then reads ratio 1 on any table, and the components
    /// within `component_exact_limit` are exact either way.
    pub(crate) fn shard_config(request: &RepairRequest) -> ShardConfig {
        let (optimal, ratio) = SMethod::Approx2.guarantees();
        ShardConfig {
            threads: request.budgets.threads,
            // `exact_fallback_limit` is the caller's global allowance for
            // exponential exact solving; the per-component cutoff refines
            // it but never exceeds it, so `exact_fallback_limit: 0` still
            // means "polynomial methods only".
            component_exact_limit: request
                .budgets
                .component_exact_limit
                .min(request.budgets.exact_fallback_limit),
            force_exact: Planner::check_guarantee(request, optimal, ratio).is_err(),
        }
    }

    /// The update strategy for one call, planned once and escalated in
    /// place when it misses the request's guarantee. The exact search
    /// stops at [`EXACT_MAX_ROWS`] rows, so a plan may still miss the
    /// guarantee: it fails before any solving.
    fn update_strategy<'t>(
        table: &'t Table,
        fds: &FdSet,
        request: &RepairRequest,
    ) -> Result<(URepairSolver, UpdatePlan<'t>), EngineError> {
        let solver = URepairSolver {
            exact_row_limit: request.budgets.exact_row_limit,
            exact_node_budget: request.budgets.exact_node_budget,
            threads: request.budgets.threads,
        };
        let mut plan = solver.plan(table, fds);
        if Planner::check_guarantee(request, plan.optimal, plan.ratio).is_err() {
            plan.escalate();
        }
        let (optimal, ratio, rows) = (plan.optimal, plan.ratio, table.len());
        Planner::check_capped(request, optimal, ratio, "exact update search", rows)?;
        Ok((solver, plan))
    }

    /// Never hand back a weaker guarantee than the request allows: the
    /// one check `plan()`, `run()` and session reports all apply.
    pub(crate) fn check_guarantee(
        request: &RepairRequest,
        optimal: bool,
        ratio: f64,
    ) -> Result<(), EngineError> {
        if let Optimality::Approximate { max_ratio } = request.optimality {
            if ratio > max_ratio {
                return Err(EngineError::RatioUnattainable {
                    required: max_ratio,
                    achievable: ratio,
                });
            }
        }
        if request.optimality == Optimality::Exact && !optimal {
            return Err(EngineError::ExactInfeasible(
                "the executed method could not certify optimality".to_string(),
            ));
        }
        Ok(())
    }

    /// The subset report's method names, component statistics and body
    /// for a sharded solution of `table` — shared by `run()` and session
    /// reports, so both assemble the same bytes.
    pub(crate) fn subset_report_parts(
        table: &Table,
        sol: &ShardedSolution,
    ) -> (Vec<String>, ComponentReport, ReportBody) {
        let (methods, stats) = Planner::subset_stats(&sol.plan);
        let deleted = sol.repair.deleted(table);
        let repaired = sol.repair.apply(table);
        (methods, stats, ReportBody::Subset { deleted, repaired })
    }

    /// A subset report's method names and component statistics for a
    /// sharded plan.
    pub(crate) fn subset_stats(plan: &ShardPlan) -> (Vec<String>, ComponentReport) {
        let (_, stats) = Planner::shard_steps(plan);
        let methods = stats.methods.iter().map(|(m, _)| m.clone()).collect();
        (methods, stats)
    }

    /// The changed cells and repaired table of an update or mixed
    /// report, built once at the report boundary: `apply` materializes
    /// the repaired table, its fresh tags are canonicalized (they come
    /// from a process-global counter, and identical calls must serialize
    /// identically: serving and caching depend on it), and each listed
    /// cell reads its old value from `input` and its new value from the
    /// repaired table.
    fn assemble_cells(
        input: &Table,
        cells: &[(TupleId, AttrId, Value)],
        apply: impl FnOnce() -> Table,
    ) -> (Vec<ChangedCell>, Table) {
        let mut sp = fd_trace::span("engine/report_assemble");
        let mut repaired = apply();
        repaired.canonicalize_fresh();
        let value = |table: &Table, id, attr| {
            let value = table.value(id, attr).expect("cells name rows of the table");
            value.to_string()
        };
        let changed = cells
            .iter()
            .map(|&(id, attr, _)| ChangedCell {
                tuple: id,
                attr: input.schema().attr_name(attr).to_string(),
                old: value(input, id, attr),
                new: value(&repaired, id, attr),
            })
            .collect();
        sp.attr("rows", repaired.len());
        sp.attr("cells", cells.len());
        (changed, repaired)
    }

    /// Renders a [`ShardPlan`] into plan steps plus the component
    /// statistics the report carries.
    pub(crate) fn shard_steps(plan: &ShardPlan) -> (Vec<PlanStep>, ComponentReport) {
        let steps = plan
            .methods
            .iter()
            .map(|(method, count)| {
                let (_, ratio) = method.guarantees();
                PlanStep {
                    method: format!("{method:?}"),
                    scope: format!(
                        "{count} of {} conflict component(s), largest {} row(s), {} clean row(s)",
                        plan.components, plan.largest, plan.clean_rows
                    ),
                    ratio,
                }
            })
            .collect();
        let stats = ComponentReport {
            count: plan.components,
            largest: plan.largest,
            clean_rows: plan.clean_rows,
            methods: plan
                .methods
                .iter()
                .map(|(m, n)| (format!("{m:?}"), *n))
                .collect(),
        };
        (steps, stats)
    }

    /// The mixed strategy for one call with its guarantee: the default
    /// policy's method, escalated to the exact enumeration as the update
    /// one is when it misses the request's guarantee.
    fn plan_mixed_method(
        table: &Table,
        fds: &FdSet,
        request: &RepairRequest,
    ) -> Result<(MixedMethod, bool, f64), EngineError> {
        let rows = table.len();
        let method = fd_urepair::engine::mixed_strategy(rows, request.budgets.exact_fallback_limit);
        let (optimal, ratio) = match method {
            MixedMethod::ExactEnumeration => (true, 1.0),
            MixedMethod::VertexCoverRetag => (
                false,
                fd_urepair::mixed_ratio_bound(fds, request.mixed_costs),
            ),
        };
        if Planner::check_guarantee(request, optimal, ratio).is_err() && rows <= EXACT_MAX_ROWS {
            return Ok((MixedMethod::ExactEnumeration, true, 1.0));
        }
        Planner::check_capped(request, optimal, ratio, "mixed enumeration", rows)?;
        Ok((method, optimal, ratio))
    }

    /// The plan-time refusal of a plan that still misses the request's
    /// guarantee, its exact `search` being capped at [`EXACT_MAX_ROWS`].
    fn check_capped(
        request: &RepairRequest,
        optimal: bool,
        ratio: f64,
        search: &str,
        rows: usize,
    ) -> Result<(), EngineError> {
        if request.optimality == Optimality::Exact && !optimal {
            return Err(EngineError::ExactInfeasible(format!(
                "{search} is capped at {EXACT_MAX_ROWS} rows, table has {rows}"
            )));
        }
        Planner::check_guarantee(request, optimal, ratio)
    }

    /// Runs `work` and charges its wall time to the request's
    /// `time_cap_ms` with the same post-hoc check [`RepairEngine::run`]
    /// applies: work that outlasted the cap is
    /// [`EngineError::TimeBudgetExceeded`]. Sessions charge their own
    /// steps this way, so no clock reaches their report-producing state.
    pub(crate) fn capped<T>(
        request: &RepairRequest,
        work: impl FnOnce() -> Result<T, EngineError>,
    ) -> Result<T, EngineError> {
        let start = Instant::now();
        let out = work()?;
        Planner::check_time(start, request)?;
        Ok(out)
    }

    fn check_time(start: Instant, request: &RepairRequest) -> Result<(), EngineError> {
        if let Some(cap_ms) = request.budgets.time_cap_ms {
            let elapsed_ms = start.elapsed().as_millis() as u64;
            if elapsed_ms > cap_ms {
                return Err(EngineError::TimeBudgetExceeded { cap_ms, elapsed_ms });
            }
        }
        Ok(())
    }
}

impl RepairEngine for Planner {
    fn plan(
        &self,
        table: &Table,
        fds: &FdSet,
        request: &RepairRequest,
    ) -> Result<Plan, EngineError> {
        Planner::validate(request)?;
        let dichotomy = DichotomyReport::classify(fds);
        let schema = table.schema();
        let whole = format!("{} rows", table.len());
        let (steps, optimal, ratio) = match request.notion {
            Notion::Subset => {
                let cfg = Planner::shard_config(request);
                let index = ConflictIndex::build(table, fds);
                let (_, plan) = fd_srepair::shard_plan(table, fds, &index, &cfg);
                let (steps, _) = Planner::shard_steps(&plan);
                (steps, plan.optimal, plan.ratio)
            }
            Notion::Update => {
                let (_, plan) = Planner::update_strategy(table, fds, request)?;
                let steps = plan
                    .steps
                    .iter()
                    .map(|s| PlanStep {
                        method: format!("{:?}", s.method),
                        scope: if s.attrs.is_empty() {
                            whole.clone()
                        } else {
                            format!("attributes {}", s.attrs.display(schema))
                        },
                        ratio: s.ratio,
                    })
                    .collect();
                (steps, plan.optimal, plan.ratio)
            }
            Notion::Mixed => {
                let (method, optimal, ratio) = Planner::plan_mixed_method(table, fds, request)?;
                (
                    vec![PlanStep {
                        method: method.name().to_string(),
                        scope: whole,
                        ratio,
                    }],
                    optimal,
                    ratio,
                )
            }
            Notion::Mpd => {
                let method = fd_mpd::engine::plan_mpd(fds);
                (
                    vec![PlanStep {
                        method: method.name().to_string(),
                        scope: whole,
                        ratio: 1.0,
                    }],
                    true,
                    1.0,
                )
            }
            Notion::Count => (
                vec![
                    PlanStep {
                        method: "ChainCount".to_string(),
                        scope: if dichotomy.chain {
                            "subset repairs (chain Δ)".to_string()
                        } else {
                            "subset repairs (not a chain: #P-hard, reported as unavailable)"
                                .to_string()
                        },
                        ratio: 1.0,
                    },
                    PlanStep {
                        method: "OptSRepairCount".to_string(),
                        scope: "optimal subset repairs".to_string(),
                        ratio: 1.0,
                    },
                ],
                true,
                1.0,
            ),
            Notion::Sample => (
                vec![PlanStep {
                    method: "ChainSample".to_string(),
                    scope: whole,
                    ratio: 1.0,
                }],
                true,
                1.0,
            ),
            Notion::Classify => (
                vec![PlanStep {
                    method: "Dichotomy".to_string(),
                    scope: "Δ only (no repair computed)".to_string(),
                    ratio: 1.0,
                }],
                true,
                1.0,
            ),
        };
        // An unattainable request fails at plan time already.
        Planner::check_guarantee(request, optimal, ratio)?;
        Ok(Plan {
            notion: request.notion,
            steps,
            optimal,
            ratio,
            dichotomy,
        })
    }

    fn run(
        &self,
        table: &Table,
        fds: &FdSet,
        request: &RepairRequest,
    ) -> Result<RepairReport, EngineError> {
        let start = Instant::now();
        // Validation and classification only: each notion arm below
        // takes its strategy from the same function plan() renders, and
        // executes that value.
        let plan_sp = fd_trace::span("engine/plan");
        Planner::validate(request)?;
        let dichotomy = DichotomyReport::classify(fds);
        drop(plan_sp);
        let plan_ms = start.elapsed().as_secs_f64() * 1e3;
        Planner::check_time(start, request)?;
        let solve_start = Instant::now();
        let mut solve_sp = fd_trace::span("engine/solve");
        solve_sp.attr("notion", request.notion.name());
        solve_sp.attr("rows", table.len());
        let schema = table.schema();

        let mut components: Option<ComponentReport> = None;
        let (methods, optimal, ratio, cost, body) = match request.notion {
            Notion::Subset => {
                let cfg = Planner::shard_config(request);
                let sol = fd_srepair::sharded_s_repair(table, fds, &cfg);
                let (methods, stats, body) = Planner::subset_report_parts(table, &sol);
                components = Some(stats);
                (
                    methods,
                    sol.plan.optimal,
                    sol.plan.ratio,
                    sol.repair.cost,
                    body,
                )
            }
            Notion::Update => {
                let (solver, plan) = Planner::update_strategy(table, fds, request)?;
                let sol = solver.execute(plan);
                let (changed, repaired) =
                    Planner::assemble_cells(table, &sol.repair.cells, || sol.repair.apply(table));
                (
                    sol.methods.iter().map(|m| format!("{m:?}")).collect(),
                    sol.optimal,
                    sol.ratio,
                    sol.repair.cost,
                    ReportBody::Update { changed, repaired },
                )
            }
            Notion::Mixed => {
                let (method, _, _) = Planner::plan_mixed_method(table, fds, request)?;
                let sol = fd_urepair::engine::solve_mixed(
                    table,
                    fds,
                    request.mixed_costs,
                    method,
                    request.budgets.exact_node_budget,
                );
                let (changed, repaired) =
                    Planner::assemble_cells(table, &sol.repair.cells, || sol.repair.apply(table));
                (
                    vec![sol.method.name().to_string()],
                    sol.optimal,
                    sol.ratio,
                    sol.repair.cost,
                    ReportBody::Mixed {
                        deleted: sol.repair.deleted,
                        changed,
                        repaired,
                    },
                )
            }
            Notion::Mpd => {
                let (result, method) = fd_mpd::engine::solve_mpd(table, fds)
                    .map_err(|e| EngineError::InvalidProbability(e.to_string()))?;
                let kept_set: HashSet<TupleId> = result.world.iter().copied().collect();
                let repaired = table.subset(&kept_set);
                // −ln p is the additive distance the reduction minimizes;
                // +∞ (an impossible world) serializes as null.
                let cost = -result.probability.ln();
                (
                    vec![method.name().to_string()],
                    true,
                    1.0,
                    cost,
                    ReportBody::Mpd {
                        kept: result.world,
                        probability: result.probability,
                        repaired,
                    },
                )
            }
            Notion::Count => {
                let mut notes = Vec::new();
                let subset = match count_subset_repairs(table, fds) {
                    ChainCountOutcome::Count(n) => Some(n),
                    ChainCountOutcome::NotAChain(stuck) => {
                        notes.push(format!(
                            "subset repairs: Δ is not a chain (stuck at {}); counting is #P-hard",
                            stuck.display(schema)
                        ));
                        None
                    }
                };
                let optimal_count = match count_optimal_s_repairs(table, fds) {
                    CountOutcome::Count(n) => Some(n),
                    CountOutcome::MarriageEncountered => {
                        notes.push(
                            "optimal subset repairs: lhs marriage reached (counting \
                             maximum-weight matchings is #P-hard)"
                                .to_string(),
                        );
                        None
                    }
                    CountOutcome::Irreducible(stuck) => {
                        notes.push(format!(
                            "optimal subset repairs: irreducible FD set {} (hard side)",
                            stuck.display(schema)
                        ));
                        None
                    }
                };
                (
                    vec!["ChainCount".to_string(), "OptSRepairCount".to_string()],
                    true,
                    1.0,
                    0.0,
                    ReportBody::Count {
                        subset_repairs: subset,
                        optimal_subset_repairs: optimal_count,
                        notes,
                    },
                )
            }
            Notion::Sample => {
                let mut rng = match request.seed {
                    Some(seed) => StdRng::seed_from_u64(seed),
                    None => StdRng::from_entropy(),
                };
                let kept = sample_subset_repair(table, fds, &mut rng).map_err(|stuck| {
                    EngineError::NotAChain(format!(
                        "sampling needs a chain FD set; stuck at {}",
                        stuck.display(schema)
                    ))
                })?;
                let kept_set: HashSet<TupleId> = kept.iter().copied().collect();
                let repaired = table.subset(&kept_set);
                let mut kept = kept;
                kept.sort_unstable();
                (
                    vec!["ChainSample".to_string()],
                    true,
                    1.0,
                    table.total_weight() - repaired.total_weight(),
                    ReportBody::Sample { kept, repaired },
                )
            }
            Notion::Classify => {
                let keys = candidate_keys(schema, fds)
                    .iter()
                    .map(|k| k.display(schema))
                    .collect();
                let bcnf_violation =
                    fd_core::bcnf_violation(schema, fds).map(|v| v.fd.display(schema));
                // Counting without materializing the pair *list*;
                // single-FD Δ counts combinatorially with no pair
                // storage at all (see `conflicting_pair_count`).
                let conflicts = table.conflicting_pair_count(fds);
                let consistent = conflicts == 0;
                (
                    vec!["Dichotomy".to_string()],
                    true,
                    1.0,
                    0.0,
                    ReportBody::Classify {
                        keys,
                        bcnf_violation,
                        consistent,
                        conflicts,
                    },
                )
            }
        };
        if let Some(stats) = &components {
            solve_sp.attr("components", stats.count);
        }
        drop(solve_sp);
        let solve_ms = solve_start.elapsed().as_secs_f64() * 1e3;
        Planner::check_time(start, request)?;

        Planner::check_guarantee(request, optimal, ratio)?;

        Ok(RepairReport {
            notion: request.notion,
            methods,
            optimal,
            ratio,
            cost,
            dichotomy,
            components,
            timings: Timings {
                plan_ms,
                solve_ms,
                total_ms: start.elapsed().as_secs_f64() * 1e3,
            },
            body,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_core::{schema_rabc, tup, Schema};
    use fd_urepair::MixedCosts;

    fn office() -> (Table, FdSet) {
        let s = Schema::new("Office", ["facility", "room", "floor", "city"]).unwrap();
        let fds = FdSet::parse(&s, "facility -> city; facility room -> floor").unwrap();
        let t = Table::build(
            s,
            vec![
                (tup!["HQ", 322, 3, "Paris"], 2.0),
                (tup!["HQ", 322, 30, "Madrid"], 1.0),
                (tup!["HQ", 122, 1, "Madrid"], 1.0),
                (tup!["Lab1", "B35", 3, "London"], 2.0),
            ],
        )
        .unwrap();
        (t, fds)
    }

    #[test]
    fn subset_on_the_running_example() {
        let (t, fds) = office();
        let report = Planner.run(&t, &fds, &RepairRequest::subset()).unwrap();
        assert_eq!(report.cost, 2.0);
        assert!(report.optimal);
        assert_eq!(report.methods, vec!["Dichotomy"]);
        assert!(report.dichotomy.osr_succeeds);
        let repaired = report.repaired().unwrap();
        assert!(repaired.satisfies(&fds));
    }

    #[test]
    fn update_on_the_running_example() {
        let (t, fds) = office();
        let report = Planner.run(&t, &fds, &RepairRequest::update()).unwrap();
        assert_eq!(report.cost, 2.0);
        assert!(report.optimal);
        assert!(report.methods.contains(&"CommonLhsViaS".to_string()));
    }

    #[test]
    fn explain_does_not_solve() {
        let (t, fds) = office();
        let text = Planner.explain(&t, &fds, &RepairRequest::update()).unwrap();
        assert!(text.contains("CommonLhsViaS"), "got:\n{text}");
        assert!(text.contains("optimal = true"), "got:\n{text}");
    }

    #[test]
    fn exact_overrides_the_approximation_cutoff() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B; B -> C").unwrap();
        let rows = (0..12).map(|i| tup![(i % 3) as i64, (i % 2) as i64, (i % 5) as i64]);
        let t = Table::build_unweighted(s, rows).unwrap();
        // Starve both the global and the per-component exact budgets so
        // the default policy has to approximate.
        let best = RepairRequest::subset()
            .exact_fallback_limit(5)
            .component_exact_limit(5);
        let approx = Planner.run(&t, &fds, &best).unwrap();
        assert!(!approx.optimal);
        let exact = Planner
            .run(&t, &fds, &best.optimality(Optimality::Exact))
            .unwrap();
        assert!(exact.optimal);
        assert!(exact.cost <= approx.cost + 1e-9);
    }

    #[test]
    fn approximate_update_escalates_to_exact_when_the_bound_is_tight() {
        // A hard component past the default 8-row exact cutoff: the
        // combined approximation only guarantees ratio 4 here, so a
        // max_ratio below that must escalate to the exact search (as the
        // subset and mixed paths do), not fail with RatioUnattainable.
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> C; B -> C").unwrap();
        let rows = (0..10).map(|i| tup![(i % 3) as i64, (i % 4) as i64, (i % 2) as i64]);
        let t = Table::build_unweighted(s, rows).unwrap();
        let request =
            RepairRequest::update().optimality(Optimality::Approximate { max_ratio: 1.0 });
        let plan = Planner.plan(&t, &fds, &request).unwrap();
        assert!(plan.optimal, "escalated plan must be exact: {plan:?}");
        let report = Planner.run(&t, &fds, &request).unwrap();
        assert!(report.optimal);
        assert!(report.methods.contains(&"ExactSearch".to_string()));
        // A loose ceiling keeps the cheap approximation.
        let loose = RepairRequest::update().optimality(Optimality::Approximate { max_ratio: 4.0 });
        let report = Planner.run(&t, &fds, &loose).unwrap();
        assert!(report.ratio <= 4.0);
    }

    #[test]
    fn unattainable_ratio_is_rejected_at_plan_time() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> C; B -> C").unwrap();
        let rows = (0..40).map(|i| tup![(i % 5) as i64, (i % 4) as i64, (i % 3) as i64]);
        let t = Table::build_unweighted(s, rows).unwrap();
        // The mixed approximation guarantees ratio 2 here; demanding 1.5
        // would need the exact enumeration, whose hard 20-row cap this
        // 40-row table exceeds.
        let err = Planner
            .plan(
                &t,
                &fds,
                &RepairRequest::mixed(MixedCosts::UNIT)
                    .optimality(Optimality::Approximate { max_ratio: 1.5 }),
            )
            .unwrap_err();
        assert!(
            matches!(err, EngineError::RatioUnattainable { .. }),
            "{err}"
        );
    }

    #[test]
    fn invalid_ratio_is_rejected() {
        let (t, fds) = office();
        let err = Planner
            .run(
                &t,
                &fds,
                &RepairRequest::subset().optimality(Optimality::Approximate { max_ratio: 0.5 }),
            )
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidRequest(_)));
    }

    #[test]
    fn sample_is_seeded_and_reproducible() {
        let (t, fds) = office();
        let a = Planner
            .run(&t, &fds, &RepairRequest::new(Notion::Sample).seed(42))
            .unwrap();
        let b = Planner
            .run(&t, &fds, &RepairRequest::new(Notion::Sample).seed(42))
            .unwrap();
        let (ReportBody::Sample { kept: ka, .. }, ReportBody::Sample { kept: kb, .. }) =
            (&a.body, &b.body)
        else {
            panic!("expected sample bodies");
        };
        assert_eq!(ka, kb);
    }

    #[test]
    fn count_and_classify_report_without_repairing() {
        let (t, fds) = office();
        let count = Planner
            .run(&t, &fds, &RepairRequest::new(Notion::Count))
            .unwrap();
        let ReportBody::Count {
            subset_repairs,
            optimal_subset_repairs,
            ..
        } = &count.body
        else {
            panic!("expected count body");
        };
        assert_eq!(*subset_repairs, Some(2));
        assert_eq!(*optimal_subset_repairs, Some(2));

        let classify = Planner
            .run(&t, &fds, &RepairRequest::new(Notion::Classify))
            .unwrap();
        let ReportBody::Classify {
            consistent,
            conflicts,
            ..
        } = &classify.body
        else {
            panic!("expected classify body");
        };
        assert!(!consistent);
        assert_eq!(*conflicts, 2);
        assert!(classify.repaired().is_none());
    }

    #[test]
    fn time_budget_abort_carries_the_cap() {
        // Millisecond granularity makes a cap of 0 racy to assert on, so
        // only check the error shape when the abort does fire; a generous
        // cap must never abort.
        let (t, fds) = office();
        match Planner.run(&t, &fds, &RepairRequest::subset().time_cap_ms(0)) {
            Err(EngineError::TimeBudgetExceeded { cap_ms, .. }) => assert_eq!(cap_ms, 0),
            Err(other) => panic!("unexpected error: {other}"),
            Ok(_) => {}
        }
        assert!(Planner
            .run(&t, &fds, &RepairRequest::subset().time_cap_ms(60_000))
            .is_ok());
    }
}
