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
//! [`IncrementalSession::report_bytes_in`] is the serving path: it
//! writes that report's JSON document without building the report.
//! Only the dirty components' kept rows can change between two
//! documents, so the session keeps its last document and the byte range
//! of every row in it, copies each run of rows no mutation touched or
//! re-solved with one slice, renders only the rest, and never
//! materializes the repaired table.
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
//! [`report`](IncrementalSession::report) and
//! [`report_bytes_in`](IncrementalSession::report_bytes_in) — to the
//! cap, checked after the fact like [`Planner::run`] checks its solve,
//! and answers [`EngineError::TimeBudgetExceeded`] when that work ran
//! over.

use crate::json::Out;
use crate::planner::{EngineError, Planner, RepairEngine};
use crate::report::{subset_document, write_row, DichotomyReport, Head, RepairReport, Timings};
use crate::request::{Notion, Optimality, RepairRequest};
use fd_core::{FdSet, Mutation, MutationEffect, Table, TupleId};
use fd_srepair::{osr_succeeds, IncrementalSubset};
use std::fmt;
use std::sync::Arc;

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
    /// The last document [`report_bytes_in`] wrote on the delta path.
    ///
    /// [`report_bytes_in`]: IncrementalSession::report_bytes_in
    doc: Option<LastDoc>,
}

/// A session's last report document, kept so the next one can copy its
/// unchanged rows instead of formatting them again.
///
/// The rows array's content, with a comma after its last row as well,
/// is the concatenation of one piece per table position: the row's
/// object and a comma for a kept row, nothing for a deleted one.
/// `offsets[p]..offsets[p + 1]` is position `p`'s piece, so any stretch
/// of positions maps to one byte range, whichever of its rows the
/// repair deletes.
#[derive(Clone)]
struct LastDoc {
    /// The document, shared with the response and the cache entry that
    /// ship it, never copied.
    bytes: Arc<Vec<u8>>,
    /// Where the rows array's content starts: the byte after its `[`.
    rows_at: usize,
    /// The content's length, up to the closing `]`.
    rows_len: usize,
    /// One piece boundary per table position, plus the end.
    offsets: Vec<usize>,
    /// Rows whose piece may no longer be what the next document needs:
    /// mutated rows, every row a mutation re-solved, and the row after
    /// a deleted one, whose stretch now also spans the deleted piece.
    dirty: Vec<TupleId>,
}

impl fmt::Debug for LastDoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LastDoc")
            .field("bytes", &self.bytes.len())
            .field("rows", &(self.offsets.len() - 1))
            .field("dirty", &self.dirty.len())
            .finish()
    }
}

impl LastDoc {
    /// Records one applied mutation: its effect, the rows it re-solved,
    /// and, for a delete, the position the row had.
    fn note(
        &mut self,
        table: &Table,
        effect: &MutationEffect,
        deleted_at: Option<usize>,
        region: &[TupleId],
    ) {
        match effect {
            MutationEffect::Inserted { id } => {
                let end = *self.offsets.last().expect("offsets end the content");
                self.offsets.push(end);
                self.dirty.push(*id);
            }
            MutationEffect::CellSet { id, .. } => self.dirty.push(*id),
            MutationEffect::Deleted { .. } => {
                // The deleted piece joins its successor's, so that one
                // is rendered again; with no successor it simply ends
                // the content.
                let pos = deleted_at.expect("a deleted row had a position");
                self.offsets.remove(pos + 1);
                if let Some(&next) = table.id_col().get(pos) {
                    self.dirty.push(next);
                }
            }
        }
        self.dirty.extend_from_slice(region);
    }

    /// Copies the pieces `from..to` of the old content into `out`: one
    /// slice, plus the last row's comma, which the old document does
    /// not hold, when the stretch reaches the end.
    fn copy(&self, out: &mut Out<'_>, from: usize, to: usize) {
        if from == to {
            return;
        }
        let end = to.min(self.rows_len);
        out.extend_from_slice(&self.bytes[self.rows_at + from..self.rows_at + end]);
        if to > self.rows_len {
            out.push(b',');
        }
    }
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
            doc: None,
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
            let deleted_at = match m {
                Mutation::Delete { id } => self.table.position_of(*id),
                _ => None,
            };
            let effect = match &mut self.inc {
                Some(inc) => inc.apply_mutation(&mut self.table, m),
                None => self.table.apply_mutation(m),
            }
            .map_err(|e| EngineError::InvalidRequest(e.to_string()))?;
            if let (Some(inc), Some(doc)) = (&self.inc, &mut self.doc) {
                doc.note(&self.table, &effect, deleted_at, inc.last_region());
                // Past a table's worth of dirty rows, a full render is
                // cheaper than sorting them.
                if doc.dirty.len() > self.table.len() {
                    self.doc = None;
                }
            }
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

    /// The current report's JSON document — the bytes
    /// [`report`](IncrementalSession::report)`()?.to_json_bytes()`
    /// returns — written into `buf`, which is cleared first, and shared
    /// with the session.
    ///
    /// On the delta path the session keeps the document it returns and
    /// where each row sits in it. The next call writes the header and
    /// the deleted ids through the report writer, copies every run of
    /// unchanged rows from the kept document in one slice, and renders
    /// only the rows a mutation touched or re-solved; the repaired table
    /// is never built. The first call renders every row. Without the
    /// delta engine this is `report()` serialized into `buf`. Errors
    /// and the time cap are those of `report()`.
    pub fn report_bytes_in(&mut self, buf: Vec<u8>) -> Result<Arc<Vec<u8>>, EngineError> {
        if self.inc.is_none() {
            let mut bytes = self.report()?.to_json_bytes_in(buf);
            bytes.shrink_to_fit();
            return Ok(Arc::new(bytes));
        }
        let request = self.request;
        Planner::capped(&request, || self.spliced_bytes(buf))
    }

    /// [`report_bytes_in`](IncrementalSession::report_bytes_in) on the
    /// delta path. The header comes from the cached plan; the deleted
    /// ids from the cached components, their cost summed in row order as
    /// [`fd_srepair::SRepair::from_kept`] sums it, so it is the same
    /// `f64`.
    fn spliced_bytes(&mut self, mut buf: Vec<u8>) -> Result<Arc<Vec<u8>>, EngineError> {
        let inc = self.inc.as_ref().expect("the delta path has an engine");
        let table = &self.table;
        // fdlint: allow(O001, "observation only: the span records row, component and byte counts; nothing from it reaches the document, whose timings are always zeroed")
        let mut sp = fd_trace::span("engine/incremental_report");
        sp.attr("rows", table.len());
        let plan = inc.plan(table);
        sp.attr("components", plan.components);
        Planner::check_guarantee(&self.request, plan.optimal, plan.ratio)?;
        let (methods, stats) = Planner::subset_stats(&plan);
        let deleted = inc.deleted();
        let weights = table.weights();
        let cost = deleted
            .iter()
            .map(|&id| weights[table.position_of(id).expect("deleted rows are live")])
            .sum();
        let dichotomy = DichotomyReport::classify(&self.fds);
        let head = Head {
            notion: self.request.notion,
            cost,
            optimal: plan.optimal,
            ratio: plan.ratio,
            methods: &methods,
            dichotomy: &dichotomy,
            components: Some(&stats),
            timings: Timings::default(),
        };

        // Positions to render, ascending: every row the first time.
        let mut prev = self.doc.take();
        let n = table.len();
        let (dirty, mut offsets) = match &mut prev {
            Some(doc) => {
                let mut dirty: Vec<usize> = doc
                    .dirty
                    .iter()
                    .filter_map(|&id| table.position_of(id))
                    .collect();
                dirty.sort_unstable();
                dirty.dedup();
                (dirty, std::mem::take(&mut doc.offsets))
            }
            None => ((0..n).collect(), vec![0; n + 1]),
        };
        debug_assert_eq!(offsets.len(), n + 1, "one piece per row");
        let arity = table.schema().arity();
        // Room for the old document, a little growth and the rendered
        // rows: a recycled buffer, kept with that slack below, then
        // takes the next document without being moved.
        let room = match &prev {
            Some(doc) => doc.bytes.len() + doc.bytes.len() / 64,
            None => 1024 + deleted.len() * 8,
        } + dirty.len() * (40 + 8 * arity);
        buf.clear();
        buf.reserve(room);
        let (mut rows_at, mut rows_len, mut rendered, mut copied) = (0usize, 0, 0usize, 0);
        let mut bytes = subset_document(
            buf,
            &head,
            &deleted,
            table.schema(),
            n - deleted.len(),
            |out| {
                out.push(b'[');
                rows_at = out.len();
                let mut next = 0;
                for d in dirty.iter().copied().chain([n]) {
                    if next < d {
                        // A clean stretch: one slice of the old content,
                        // its piece boundaries shifted to where it lands.
                        let doc = prev.as_ref().expect("the first render has no clean rows");
                        let at = out.len() - rows_at;
                        doc.copy(out, offsets[next], offsets[d]);
                        copied += out.len() - rows_at - at;
                        let shift = at.wrapping_sub(offsets[next]);
                        if shift != 0 {
                            for o in &mut offsets[next..d] {
                                *o = o.wrapping_add(shift);
                            }
                        }
                    }
                    if d == n {
                        break;
                    }
                    offsets[d] = out.len() - rows_at;
                    if inc.is_kept(table.id_at(d)) {
                        write_row(out, table, d);
                        out.push(b',');
                        rendered += 1;
                    }
                    next = d + 1;
                }
                offsets[n] = out.len() - rows_at;
                if out.len() > rows_at {
                    out.pop();
                }
                rows_len = out.len() - rows_at;
                out.push(b']');
            },
        );
        sp.attr("rendered_rows", rendered);
        sp.attr("copied_bytes", copied);
        if bytes.capacity() - bytes.len() > bytes.len() / 32 {
            bytes.shrink_to_fit();
        }
        let bytes = Arc::new(bytes);
        // The old document goes now, before the caller publishes the new
        // one: whoever retires it may then reuse its buffer.
        let mut dirty_ids = prev.map_or_else(Vec::new, |doc| doc.dirty);
        dirty_ids.clear();
        self.doc = Some(LastDoc {
            bytes: Arc::clone(&bytes),
            rows_at,
            rows_len,
            offsets,
            dirty: dirty_ids,
        });
        Ok(bytes)
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

    /// The current table's conflicting components, when the delta
    /// engine tracks them.
    pub fn components(&self) -> Option<usize> {
        self.inc.as_ref().map(IncrementalSubset::component_count)
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
    fn spliced_bytes_match_cold_documents_between_sparse_renders() {
        // Renders after every step, and after every third, so inserts,
        // deletes, cell edits and failed mutations pile up between two
        // documents; each is written into a buffer holding junk.
        let specs = ["A -> B", "A -> B; B -> C", "-> C", "", "A -> C; B -> C"];
        for (i, spec) in specs.iter().enumerate() {
            for every in [1, 3] {
                let mut rng = StdRng::seed_from_u64(0xB17E_0000 + i as u64);
                let fds = FdSet::parse(&schema(), spec).unwrap();
                let request = RepairRequest::subset();
                let table = random_table(&mut rng, 18);
                let mut session = IncrementalSession::new(table, fds.clone(), request).unwrap();
                let mut junk = vec![b'#'; 64];
                for step in 0..60 {
                    let m = if step % 7 == 5 {
                        Mutation::Delete { id: TupleId(999) }
                    } else {
                        random_mutation(&mut rng, session.table())
                    };
                    let _ = session.apply(&m);
                    if step % every != 0 {
                        continue;
                    }
                    let got = session.report_bytes_in(std::mem::take(&mut junk)).unwrap();
                    let mut cold = Planner.run(session.table(), &fds, &request).unwrap();
                    cold.timings = Timings::default();
                    let want = cold.to_json_bytes();
                    assert!(
                        *got == want,
                        "{spec} every {every}, step {step}: {m:?}\n{}\n{}",
                        String::from_utf8_lossy(&got),
                        String::from_utf8_lossy(&want)
                    );
                    junk = [want.as_slice(), b"]]junk"].concat();
                }
            }
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
