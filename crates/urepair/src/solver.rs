//! A facade for computing U-repairs with the best method §4 provides:
//! optimal polynomial algorithms where the paper gives them, exact search
//! on small instances, and the combined approximation otherwise.
//!
//! The plan builds one [`ConflictIndex`] per attribute component over
//! the consensus-repaired base, and every stage of the component reads
//! it: the consistency check, the subset reduction (Corollary 4.6 and
//! Theorem 4.12) and the KL cover. A solve scans each component once.

use crate::approx::subset_reduction;
use crate::decompose::{attribute_components, consensus_first};
use crate::engine::{approx_component_bound, EXACT_MAX_ROWS};
use crate::exact::{try_exact_u_repair, ExactConfig};
use crate::kl::kl_component;
use crate::marriage::{detect_two_cycle, two_cycle_over};
use crate::repair::URepair;
use fd_core::{mlc, AttrSet, ConflictIndex, FdSet, Table};
use fd_srepair::osr_succeeds;
use std::borrow::Cow;
use std::sync::Mutex;

/// The per-component strategies the solver may report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UMethod {
    /// The input already satisfies `Δ`.
    AlreadyConsistent,
    /// Only consensus FDs: Proposition B.2, optimal.
    ConsensusOnly,
    /// Common lhs with `OSRSucceeds`: Corollary 4.6, optimal.
    CommonLhsViaS,
    /// `{A → B, B → A}`: Proposition 4.9, optimal.
    TwoCycle,
    /// Exhaustive search (small component), optimal.
    ExactSearch,
    /// Combined approximation (ours + KL, cheaper one).
    Approximate,
}

/// One solved component: its repair, method, optimality, and ratio.
type ComponentPart = (URepair, UMethod, bool, f64);

/// The trace label for an update-repair method.
fn umethod_name(method: UMethod) -> &'static str {
    match method {
        UMethod::AlreadyConsistent => "already_consistent",
        UMethod::ConsensusOnly => "consensus_only",
        UMethod::CommonLhsViaS => "common_lhs_via_s",
        UMethod::TwoCycle => "two_cycle",
        UMethod::ExactSearch => "exact_search",
        UMethod::Approximate => "approximate",
    }
}

/// A U-repair with provenance.
#[derive(Clone, Debug)]
pub struct USolution {
    /// The repair.
    pub repair: URepair,
    /// The methods used, one per attribute-disjoint component (plus
    /// consensus handling), in application order.
    pub methods: Vec<UMethod>,
    /// Whether the total cost is guaranteed optimal.
    pub optimal: bool,
    /// Guaranteed overall approximation ratio (1.0 when optimal).
    pub ratio: f64,
}

/// Solver configuration.
#[derive(Clone, Debug)]
pub struct URepairSolver {
    /// Components whose table slice stays within this many rows (and
    /// within [`EXACT_MAX_ROWS`]) may use the exponential exact search.
    pub exact_row_limit: usize,
    /// Node budget handed to the exact search. A component whose search
    /// exhausts it takes the combined approximation instead (reported as
    /// [`UMethod::Approximate`], not optimal).
    pub exact_node_budget: u64,
    /// Worker threads fanning the attribute-disjoint components of
    /// Theorem 4.1 out in parallel (`1` sequential, `0` asks the OS).
    /// Components write disjoint attribute sets and their cell lists are
    /// merged in component order, so the repair is identical to the
    /// sequential computation **modulo fresh-constant tags**: a `⊥`
    /// placeholder in a cell is minted from a process-global counter,
    /// so its raw number depends on thread interleaving. Callers
    /// comparing outputs canonicalize the applied table
    /// (`Table::canonicalize_fresh`), as the engine does before it reads
    /// the changed cells into a report. A component's subset reduction
    /// (Corollary 4.6, and Theorem 4.12's side of the approximation) also
    /// fans the conflict components of its inner S-repair over this many
    /// threads ([`fd_srepair::ShardConfig::threads`]); that repair is
    /// identical at any thread count.
    pub threads: usize,
}

impl Default for URepairSolver {
    fn default() -> URepairSolver {
        URepairSolver {
            exact_row_limit: 8,
            exact_node_budget: 2_000_000,
            threads: 1,
        }
    }
}

/// One planned step of an update repair: a component's method, the
/// consensus pre-pass, or a consistent whole table.
#[derive(Clone, Debug, PartialEq)]
pub struct UpdatePlanStep {
    /// The method.
    pub method: UMethod,
    /// The attributes the step touches (empty for the whole table).
    pub attrs: AttrSet,
    /// The guaranteed ratio of the step (1 when provably optimal).
    pub ratio: f64,
}

/// An update repair's strategy on one table, computed once by
/// [`URepairSolver::plan`] with polynomial work only: the steps
/// `explain()` renders, plus the consensus-repaired base table and the
/// component FD sets that [`URepairSolver::execute`] solves, each with
/// its [`ConflictIndex`] over the base.
#[derive(Clone, Debug)]
pub struct UpdatePlan<'t> {
    /// Steps in application order; the last `components.len()` are the
    /// components'.
    pub steps: Vec<UpdatePlanStep>,
    /// Whether the composed result is guaranteed optimal.
    pub optimal: bool,
    /// Guaranteed overall ratio (the max over steps; Theorem 4.1).
    pub ratio: f64,
    consensus: URepair,
    base: Cow<'t, Table>,
    components: Vec<(FdSet, ConflictIndex)>,
}

impl UpdatePlan<'_> {
    /// Moves every component planned for the combined approximation to
    /// the exact search, when the table is within [`EXACT_MAX_ROWS`]
    /// rows; past that cap the plan is left as it is, and its guarantee
    /// tells the caller so.
    pub fn escalate(&mut self) {
        if self.base.len() <= EXACT_MAX_ROWS {
            for step in self.steps.iter_mut() {
                if step.method == UMethod::Approximate {
                    (step.method, step.ratio) = (UMethod::ExactSearch, 1.0);
                }
            }
            (self.optimal, self.ratio) = (true, 1.0);
        }
    }
}

impl URepairSolver {
    /// Computes a U-repair, preferring provably optimal strategies:
    /// [`URepairSolver::plan`] followed by [`URepairSolver::execute`].
    pub fn solve(&self, table: &Table, fds: &FdSet) -> USolution {
        let sol = self.execute(self.plan(table, fds));
        debug_assert!(sol.repair.apply(table).satisfies(fds));
        sol
    }

    /// Plans a U-repair without solving: the consensus pre-pass
    /// (Theorem 4.3), the attribute-disjoint components (Theorem 4.1),
    /// and §4's case analysis (`component_method`) for each, over its
    /// index. The table is consistent when the pre-pass writes no cell
    /// and every component is.
    pub fn plan<'t>(&self, table: &'t Table, fds: &FdSet) -> UpdatePlan<'t> {
        let (consensus, attrs, base, rest) = consensus_first(table, fds);
        let step = |method, attrs, ratio| UpdatePlanStep {
            method,
            attrs,
            ratio,
        };
        let mut steps: Vec<UpdatePlanStep> = (!attrs.is_empty())
            .then(|| step(UMethod::ConsensusOnly, attrs, 1.0))
            .into_iter()
            .collect();
        let mut consistent = consensus.cells.is_empty();
        let mut components = Vec::new();
        for comp in attribute_components(&rest) {
            let index = ConflictIndex::build(&base, &comp);
            let method = self.component_method(&base, &comp, &index);
            let ratio = match method {
                UMethod::Approximate => approx_component_bound(&comp),
                _ => 1.0,
            };
            consistent &= method == UMethod::AlreadyConsistent;
            steps.push(step(method, comp.attrs(), ratio));
            components.push((comp, index));
        }
        // A consistent table is one whole-table step.
        if consistent {
            steps = vec![step(UMethod::AlreadyConsistent, AttrSet::default(), 1.0)];
            components.clear();
        }
        let ratio = steps.iter().map(|s| s.ratio).fold(1.0, f64::max);
        UpdatePlan {
            steps,
            optimal: ratio == 1.0,
            ratio,
            consensus,
            base,
            components,
        }
    }

    /// Executes `plan`: each component by its planned method against the
    /// consensus-repaired base, composed in component order. Only an
    /// exact search can end elsewhere, in the combined approximation,
    /// when it exhausts [`URepairSolver::exact_node_budget`].
    pub fn execute(&self, plan: UpdatePlan<'_>) -> USolution {
        let split = plan.steps.len() - plan.components.len();
        // Each index moves into its component's solve, which frees it
        // after its last reader, before KL's re-admission (the peak).
        let work: Vec<(FdSet, Mutex<Option<ConflictIndex>>, UMethod)> = plan
            .components
            .into_iter()
            .zip(&plan.steps[split..])
            .map(|((comp, index), step)| (comp, Mutex::new(Some(index)), step.method))
            .collect();
        let mut sol = USolution {
            repair: plan.consensus,
            methods: plan.steps[..split].iter().map(|s| s.method).collect(),
            optimal: true,
            ratio: 1.0,
        };
        // Theorem 4.1: attribute-disjoint components compose — and,
        // writing disjoint attribute sets against the same base table,
        // they solve in parallel with a deterministic in-order merge.
        let mut fanout_sp = fd_trace::span("urepair/fanout");
        fanout_sp.attr("components", work.len());
        fanout_sp.attr("rows", plan.base.len());
        let solved = fd_core::round_robin_map(self.threads, &work, |(comp, index, method)| {
            let mut sp = fd_trace::span("urepair/component");
            sp.attr("rows", plan.base.len());
            sp.attr("fds", comp.len());
            let index = index
                .lock()
                .expect("unpoisoned")
                .take()
                .expect("solved once");
            let part = self.solve_component(&plan.base, comp, index, *method);
            sp.attr("method", umethod_name(part.1));
            part
        });
        drop(fanout_sp);
        for (part, method, optimal, ratio) in solved {
            sol.methods.push(method);
            sol.optimal &= optimal;
            sol.ratio = sol.ratio.max(ratio);
            sol.repair = sol
                .repair
                .compose(&plan.base, part)
                .expect("components touch disjoint attributes");
        }
        sol
    }

    /// §4's case analysis for one consensus-free component `comp`,
    /// solved against the consensus-repaired table `base`, whose `index`
    /// under `comp` it reads: already consistent (no conflict group),
    /// then the two-cycle (Proposition 4.9), then a common lhs on the
    /// tractable side (Corollary 4.6), then the exact search on tables
    /// within `exact_row_limit` (never past [`EXACT_MAX_ROWS`]), else the
    /// combined approximation.
    fn component_method(&self, base: &Table, comp: &FdSet, index: &ConflictIndex) -> UMethod {
        if index.is_consistent() {
            UMethod::AlreadyConsistent
        } else if detect_two_cycle(comp).is_some() {
            UMethod::TwoCycle
        } else if mlc(comp) == Some(1) && osr_succeeds(comp) {
            UMethod::CommonLhsViaS
        } else if base.len() <= self.exact_row_limit.min(EXACT_MAX_ROWS) {
            UMethod::ExactSearch
        } else {
            UMethod::Approximate
        }
    }

    /// Executes the planned `method` for `comp`, over the plan's `index`
    /// of `base` under `comp`.
    fn solve_component(
        &self,
        base: &Table,
        comp: &FdSet,
        index: ConflictIndex,
        method: UMethod,
    ) -> ComponentPart {
        match method {
            UMethod::AlreadyConsistent => return (URepair::default(), method, true, 1.0),
            UMethod::TwoCycle => return (two_cycle_over(base, comp, &index), method, true, 1.0),
            UMethod::CommonLhsViaS => {
                let part = subset_reduction(base, comp, &index, self.threads);
                return (part, method, true, 1.0);
            }
            _ => {}
        }
        // Theorem 4.12's side of the combined approximation.
        let ours = subset_reduction(base, comp, &index, self.threads);
        // Small instances: exhaustive search, seeded with the
        // approximation's cost. When it runs out of its node budget the
        // component falls through to the approximation below.
        if method == UMethod::ExactSearch {
            let cfg = ExactConfig {
                max_nodes: self.exact_node_budget,
                initial_bound: Some(ours.cost + 1e-9),
                mutable_attrs: Some(comp.attrs()),
                ..ExactConfig::default()
            };
            if let Ok(part) = try_exact_u_repair(base, comp, &cfg) {
                return (part, method, true, 1.0);
            }
        }
        // Combined approximation (§4.4's closing remark).
        let kl = kl_component(base, URepair::default(), base, comp, index);
        let part = if kl.cost < ours.cost { kl } else { ours };
        let bound = approx_component_bound(comp);
        (part, UMethod::Approximate, false, bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_core::{schema_rabc, tup, Schema};

    #[test]
    fn consistent_input() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        let t = Table::build_unweighted(s, vec![tup![1, 1, 0]]).unwrap();
        let sol = URepairSolver::default().solve(&t, &fds);
        assert_eq!(sol.methods, vec![UMethod::AlreadyConsistent]);
        assert_eq!(sol.repair.cost, 0.0);
        assert!(sol.optimal);
    }

    #[test]
    fn office_running_example_is_optimal_via_common_lhs() {
        // Example 4.7: the running example has a common lhs and passes
        // OSRSucceeds, so an optimal U-repair is polynomial; Figure 1's
        // optimum is 2.
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
        let sol = URepairSolver::default().solve(&t, &fds);
        assert!(sol.optimal);
        assert_eq!(sol.repair.cost, 2.0);
        assert!(sol.methods.contains(&UMethod::CommonLhsViaS));
        sol.repair.verify(&t, &fds);
    }

    #[test]
    fn two_cycle_component_detected() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B; B -> A").unwrap();
        let t = Table::build_unweighted(schema_rabc(), vec![tup![1, 2, 0], tup![1, 3, 0]]).unwrap();
        let sol = URepairSolver::default().solve(&t, &fds);
        assert!(sol.methods.contains(&UMethod::TwoCycle));
        assert!(sol.optimal);
        assert_eq!(sol.repair.cost, 1.0);
    }

    #[test]
    fn hard_component_small_uses_exact() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> C; B -> C").unwrap(); // mlc 2, fails OSR
        let t = Table::build_unweighted(
            schema_rabc(),
            vec![tup![1, 2, 0], tup![1, 3, 1], tup![4, 3, 0]],
        )
        .unwrap();
        let sol = URepairSolver::default().solve(&t, &fds);
        assert!(sol.methods.contains(&UMethod::ExactSearch));
        assert!(sol.optimal);
        sol.repair.verify(&t, &fds);
    }

    #[test]
    fn hard_component_large_uses_combined_approximation() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B; B -> C").unwrap();
        let rows = (0..24).map(|i| tup![(i % 4) as i64, (i % 3) as i64, (i % 2) as i64]);
        let t = Table::build_unweighted(schema_rabc(), rows).unwrap();
        let solver = URepairSolver {
            exact_row_limit: 4,
            ..Default::default()
        };
        let sol = solver.solve(&t, &fds);
        assert!(sol.methods.contains(&UMethod::Approximate));
        assert!(!sol.optimal);
        assert!(sol.ratio >= 2.0);
        sol.repair.verify(&t, &fds);
        let _ = s;
    }

    #[test]
    fn threaded_component_fanout_matches_sequential() {
        // Δ' of Example 4.2 plus a two-cycle: three attribute-disjoint
        // components with different strategies, solved across threads.
        let s = Schema::new("R", ["item", "cost", "buyer", "address", "state", "x", "y"]).unwrap();
        let fds = FdSet::parse(
            &s,
            "item -> cost; buyer -> address; address -> state; x -> y; y -> x",
        )
        .unwrap();
        let rows = (0..12).map(|i| {
            fd_core::tup![
                (i % 4) as i64,
                (i % 3) as i64,
                (i % 5) as i64,
                (i % 2) as i64,
                (i % 3) as i64,
                (i % 2) as i64,
                (i % 4) as i64
            ]
        });
        let t = Table::build_unweighted(s, rows).unwrap();
        let seq = URepairSolver::default().solve(&t, &fds);
        // Fresh constants are minted from a process-global counter, so
        // canonicalize both applied tables (as the engine does) before
        // comparing.
        let mut seq_table = seq.repair.apply(&t);
        seq_table.canonicalize_fresh();
        for threads in [0, 2, 4] {
            let par = URepairSolver {
                threads,
                ..Default::default()
            }
            .solve(&t, &fds);
            let mut par_table = par.repair.apply(&t);
            par_table.canonicalize_fresh();
            assert_eq!(par.repair.cost, seq.repair.cost, "threads={threads}");
            assert_eq!(par_table, seq_table);
            assert_eq!(par.methods, seq.methods);
            assert_eq!(par.optimal, seq.optimal);
            assert_eq!(par.ratio, seq.ratio);
        }
    }

    #[test]
    fn example_4_2_decomposition_end_to_end() {
        // Δ' = {item→cost, buyer→address, address→state}: the second
        // component {buyer→address, address→state} is the hard chain.
        let s = Schema::new("R", ["item", "cost", "buyer", "address", "state"]).unwrap();
        let fds = FdSet::parse(&s, "item -> cost; buyer -> address; address -> state").unwrap();
        let t = Table::build_unweighted(
            s,
            vec![
                tup!["pen", 1, "ann", "a1", "s1"],
                tup!["pen", 2, "ann", "a2", "s2"],
                tup!["cup", 3, "bob", "a1", "s9"],
            ],
        )
        .unwrap();
        let sol = URepairSolver::default().solve(&t, &fds);
        sol.repair.verify(&t, &fds);
        assert!(sol.optimal); // both components small enough for exact
    }
}
