//! Long-lived repair sessions over mutating tables.
//!
//! A serving tier that re-runs [`Planner::run`](crate::RepairEngine)
//! from scratch after every row edit spends `O(table)` per step. An
//! [`IncrementalSession`] owns the table instead and threads each
//! [`Mutation`] through the `fd-srepair` delta engine
//! ([`IncrementalSubset`]): per-component subset solutions survive
//! across steps and only the components a mutation dirties are
//! re-solved, so a single-row edit on a million-row table costs
//! microseconds where the cold solve costs a quarter second.
//!
//! The contract is *bit-identity*: [`IncrementalSession::report`]
//! returns exactly the [`RepairReport`] a cold [`Planner::run`] on the
//! session's current table would return — same kept rows, same costs,
//! same method provenance, same component statistics, same JSON bytes —
//! with one deliberate exception: session reports always carry zeroed
//! [`Timings`]. A spliced answer spends no measurable solve time, and
//! deterministic responses are what the differential fuzzer and the
//! serving cache compare, so wall-clock noise is excluded at the source.
//!
//! Requests the delta engine does not serve (non-subset notions, an
//! `Approximate` ceiling below 2 on the hard side) still work: the
//! session transparently falls back to a cold `Planner::run` per report
//! while keeping the mutation bookkeeping, so callers never branch.
//!
//! A wall-clock cap (`time_cap_ms`) is honored on both paths. The
//! session charges its own work — the prime solve in
//! [`new`](IncrementalSession::new), each
//! [`apply`](IncrementalSession::apply), the splice in
//! [`report`](IncrementalSession::report) — to the cap, checked after
//! the fact like [`Planner::run`] checks its solve, and answers
//! [`EngineError::TimeBudgetExceeded`] when that work ran over.

use crate::planner::{EngineError, Planner, RepairEngine};
use crate::report::{DichotomyReport, RepairReport, Timings};
use crate::request::{Notion, Optimality, RepairRequest};
use fd_core::{FdSet, Mutation, MutationEffect, Table};
use fd_srepair::{osr_succeeds, IncrementalSubset};

/// A stateful repair session: a table, the FD set and request it is
/// served under, and — when the request is delta-eligible — the cached
/// per-component solutions that make single-row mutations cheap.
#[derive(Clone, Debug)]
pub struct IncrementalSession {
    table: Table,
    fds: FdSet,
    request: RepairRequest,
    inc: Option<IncrementalSubset>,
    steps: u64,
}

impl IncrementalSession {
    /// Whether the delta engine can serve `(fds, request)` without ever
    /// falling back to a cold solve on large tables.
    ///
    /// Eligible means: the subset notion (the dichotomy's component
    /// decomposition is what the cache exploits), and not an
    /// `Approximate` ceiling below 2 on the hard side of the dichotomy,
    /// which sessions serve by cold solves. A wall-clock cap does not
    /// matter: the session charges its own work to it.
    pub fn delta_eligible(fds: &FdSet, request: &RepairRequest) -> bool {
        let tight_hard_side = matches!(
            request.optimality,
            Optimality::Approximate { max_ratio } if max_ratio < 2.0
        ) && !osr_succeeds(fds);
        request.notion == Notion::Subset && !tight_hard_side
    }

    /// Opens a session over `table`. Validates the request exactly as
    /// [`Planner::run`] would; when `(fds, request)` is
    /// [delta-eligible](IncrementalSession::delta_eligible) the initial
    /// per-component solve happens here, priming the cache every later
    /// mutation patches. A prime solve that outlasts the request's
    /// `time_cap_ms` is [`EngineError::TimeBudgetExceeded`].
    pub fn new(
        table: Table,
        fds: FdSet,
        request: RepairRequest,
    ) -> Result<IncrementalSession, EngineError> {
        Planner::validate(&request)?;
        let inc = Planner::capped(&request, || {
            Ok(IncrementalSession::delta_eligible(&fds, &request).then(|| {
                let cfg = Planner::shard_config(&request);
                IncrementalSubset::new(&table, &fds, &cfg)
            }))
        })?;
        Ok(IncrementalSession {
            table,
            fds,
            request,
            inc,
            steps: 0,
        })
    }

    /// Applies one mutation to the session's table, patching the cached
    /// component solutions when the delta engine is active. Errors
    /// (unknown id, bad weight, arity mismatch) leave table and cache
    /// exactly as they were — except [`EngineError::TimeBudgetExceeded`]:
    /// the cap is checked after the fact, so that mutation has taken
    /// effect and been counted, and the session is still coherent.
    pub fn apply(&mut self, m: &Mutation) -> Result<MutationEffect, EngineError> {
        let request = self.request;
        Planner::capped(&request, || {
            let effect = match &mut self.inc {
                Some(inc) => inc.apply_mutation(&mut self.table, m),
                None => self.table.apply_mutation(m),
            }
            .map_err(|e| EngineError::InvalidRequest(e.to_string()))?;
            self.steps += 1;
            Ok(effect)
        })
    }

    /// The current repair report, bit-identical to a cold
    /// [`Planner::run`] on [`table`](IncrementalSession::table) except
    /// for [`Timings`], which a session always zeroes (see the module
    /// docs). Splices cached component solutions when the delta engine
    /// is active, charging the splice to the request's `time_cap_ms`;
    /// otherwise delegates to the cold path, which checks its own.
    pub fn report(&self) -> Result<RepairReport, EngineError> {
        if let Some(inc) = &self.inc {
            return Planner::capped(&self.request, || self.spliced_report(inc));
        }
        let mut report = Planner.run(&self.table, &self.fds, &self.request)?;
        report.timings = Timings::default();
        Ok(report)
    }

    /// Assembles the report from the delta engine's cached state, with
    /// the guarantee check and report parts of [`Planner::run`]'s subset
    /// arm and under the same `Planner::shard_config`, without touching
    /// a solver for any clean component.
    fn spliced_report(&self, inc: &IncrementalSubset) -> Result<RepairReport, EngineError> {
        // fdlint: allow(O001, "observation only: the span records row/component counts and is dropped before assembly; nothing from it reaches the report, whose timings are always zeroed")
        let mut sp = fd_trace::span("engine/incremental_report");
        sp.attr("rows", self.table.len());
        let sol = inc.solution(&self.table);
        sp.attr("components", sol.plan.components);
        Planner::check_guarantee(&self.request, sol.plan.optimal, sol.plan.ratio)?;
        let (methods, stats, body) = Planner::subset_report_parts(&self.table, &sol);
        Ok(RepairReport {
            notion: self.request.notion,
            methods,
            optimal: sol.plan.optimal,
            ratio: sol.plan.ratio,
            cost: sol.repair.cost,
            dichotomy: DichotomyReport::classify(&self.fds),
            components: Some(stats),
            timings: Timings::default(),
            body,
        })
    }

    /// The session's current table.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The FD set the session repairs under.
    pub fn fds(&self) -> &FdSet {
        &self.fds
    }

    /// The request every report answers.
    pub fn request(&self) -> &RepairRequest {
        &self.request
    }

    /// How many mutations have been applied successfully.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Whether reports splice cached component solutions (`true`) or
    /// fall back to a cold solve per report (`false`).
    pub fn is_incremental(&self) -> bool {
        self.inc.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_core::{tup, Schema, Table, Tuple, TupleId, Value};
    use rand::prelude::*;
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Schema::new("R", ["A", "B", "C"]).unwrap()
    }

    fn random_table(rng: &mut StdRng, rows: usize) -> Table {
        Table::build(
            schema(),
            (0..rows).map(|_| {
                (
                    tup![
                        rng.gen_range(0..5i64),
                        rng.gen_range(0..4i64),
                        rng.gen_range(0..3i64)
                    ],
                    f64::from(rng.gen_range(1..5u32)),
                )
            }),
        )
        .unwrap()
    }

    fn random_mutation(rng: &mut StdRng, table: &Table) -> Mutation {
        let ids: Vec<TupleId> = table.ids().collect();
        let roll = rng.gen_range(0..3u8);
        if roll == 0 || ids.is_empty() {
            Mutation::Insert {
                tuple: Tuple::new(vec![
                    Value::from(rng.gen_range(0..5i64)),
                    Value::from(rng.gen_range(0..4i64)),
                    Value::from(rng.gen_range(0..3i64)),
                ]),
                weight: f64::from(rng.gen_range(1..5u32)),
            }
        } else if roll == 1 {
            Mutation::Delete {
                id: ids[rng.gen_range(0..ids.len())],
            }
        } else {
            Mutation::SetCell {
                id: ids[rng.gen_range(0..ids.len())],
                attr: schema()
                    .attr(["A", "B", "C"][rng.gen_range(0..3usize)])
                    .unwrap(),
                value: Value::from(rng.gen_range(0..5i64)),
            }
        }
    }

    /// Drives a session and a cold planner over the same trace and
    /// asserts the reports serialize to the same bytes at every step
    /// (cold timings zeroed to match the session contract).
    fn assert_trace_parity(fds_spec: &str, request: &RepairRequest, seed: u64, steps: usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let fds = FdSet::parse(&schema(), fds_spec).unwrap();
        let table = random_table(&mut rng, 18);
        let mut session = IncrementalSession::new(table.clone(), fds.clone(), *request).unwrap();
        for step in 0..steps {
            let m = random_mutation(&mut rng, session.table());
            session.apply(&m).unwrap();
            let got = session.report().unwrap().to_json();
            let mut cold = Planner.run(session.table(), &fds, request).unwrap();
            cold.timings = Timings::default();
            assert_eq!(
                got,
                cold.to_json(),
                "{fds_spec} diverged at step {step}: {m:?}"
            );
        }
        assert_eq!(session.steps(), steps as u64);
    }

    #[test]
    fn spliced_reports_match_cold_runs_bit_for_bit() {
        for (i, spec) in ["A -> B", "A -> B; B -> C", "-> C", ""].iter().enumerate() {
            assert_trace_parity(spec, &RepairRequest::subset(), 0x5E55_0000 + i as u64, 40);
        }
    }

    #[test]
    fn hard_side_sessions_match_cold_runs() {
        // `A -> C; B -> C` fails OSRSucceeds: components solve exactly
        // when small, by 2-approximation when large.
        let base = RepairRequest::subset();
        let tiny_exact = RepairRequest::subset().component_exact_limit(0);
        for (i, request) in [base, tiny_exact].iter().enumerate() {
            assert_trace_parity("A -> C; B -> C", request, 0xAB00 + i as u64, 30);
        }
    }

    #[test]
    fn marriage_sessions_are_incremental_and_match_cold_runs() {
        // A bare marriage, and `id country -> passport; id passport ->
        // country` (A = id, B = country, C = passport), whose marriage
        // follows a common-lhs step.
        for (i, spec) in ["A -> B; B -> A; B -> C", "A B -> C; A C -> B"]
            .iter()
            .enumerate()
        {
            let fds = FdSet::parse(&schema(), spec).unwrap();
            let table = random_table(&mut StdRng::seed_from_u64(i as u64), 18);
            let session = IncrementalSession::new(table, fds, RepairRequest::subset()).unwrap();
            assert!(session.is_incremental(), "{spec}");
            assert_trace_parity(spec, &RepairRequest::subset(), 0x3A77 + i as u64, 40);
        }
    }

    #[test]
    fn ineligible_requests_still_serve_cold_reports() {
        let fds = FdSet::parse(&schema(), "A -> B").unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let table = random_table(&mut rng, 10);

        // Non-subset notions drop to the cold path — no panic, reports
        // still correct.
        let s =
            IncrementalSession::new(table.clone(), fds.clone(), RepairRequest::update()).unwrap();
        assert!(!s.is_incremental());
        s.report().unwrap();

        // A tight approximate ceiling on the hard side.
        let hard = FdSet::parse(&schema(), "A -> C; B -> C").unwrap();
        let tight = RepairRequest::subset().optimality(Optimality::Approximate { max_ratio: 1.5 });
        let s = IncrementalSession::new(table.clone(), hard, tight).unwrap();
        assert!(!s.is_incremental());

        // … while the same ceiling on the tractable side stays eligible.
        let tight = RepairRequest::subset().optimality(Optimality::Approximate { max_ratio: 1.5 });
        let s = IncrementalSession::new(table, fds, tight).unwrap();
        assert!(s.is_incremental());
        s.report().unwrap();
    }

    #[test]
    fn capped_sessions_are_incremental_and_match_cold_runs() {
        // A generous wall-clock cap is charged, never hit: the session
        // stays on the delta engine and its bytes match capped cold runs.
        let capped = RepairRequest::subset().time_cap_ms(60_000);
        for (i, spec) in ["A -> B", "A -> C; B -> C"].iter().enumerate() {
            let fds = FdSet::parse(&schema(), spec).unwrap();
            let table = random_table(&mut StdRng::seed_from_u64(i as u64), 18);
            let session = IncrementalSession::new(table, fds, capped).unwrap();
            assert!(session.is_incremental(), "{spec}");
            assert_trace_parity(spec, &capped, 0xCA90 + i as u64, 30);
        }
    }

    #[test]
    fn a_zero_cap_is_charged_by_every_session_step() {
        // Millisecond granularity makes a cap of 0 racy to assert on, so
        // only check the error's shape when it fires, as the planner's
        // own cap test does.
        let over = |e: EngineError| {
            assert!(
                matches!(e, EngineError::TimeBudgetExceeded { cap_ms: 0, .. }),
                "{e}"
            );
        };
        let fds = FdSet::parse(&schema(), "A -> B").unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let table = random_table(&mut rng, 200);
        let zero = RepairRequest::subset().time_cap_ms(0);
        let mut session = match IncrementalSession::new(table, fds, zero) {
            Ok(session) => session,
            Err(e) => return over(e),
        };
        assert!(session.is_incremental());
        let m = random_mutation(&mut rng, session.table());
        if let Err(e) = session.apply(&m) {
            over(e);
        }
        if let Err(e) = session.report() {
            over(e);
        }
    }

    #[test]
    fn invalid_requests_are_rejected_at_open() {
        let fds = FdSet::parse(&schema(), "A -> B").unwrap();
        let table = Table::build(schema(), vec![(tup![1, 1, 1], 1.0)]).unwrap();
        let bad = RepairRequest::subset().optimality(Optimality::Approximate { max_ratio: 0.5 });
        assert!(matches!(
            IncrementalSession::new(table, fds, bad),
            Err(EngineError::InvalidRequest(_))
        ));
    }

    #[test]
    fn failed_mutations_leave_the_session_serving() {
        let fds = FdSet::parse(&schema(), "A -> B").unwrap();
        let table =
            Table::build(schema(), vec![(tup![1, 1, 1], 1.0), (tup![1, 2, 1], 1.0)]).unwrap();
        let mut session =
            IncrementalSession::new(table, fds.clone(), RepairRequest::subset()).unwrap();
        let before = session.report().unwrap().to_json();
        let err = session
            .apply(&Mutation::Delete { id: TupleId(99) })
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidRequest(_)));
        assert_eq!(session.steps(), 0);
        assert_eq!(session.report().unwrap().to_json(), before);
    }
}
