//! Incremental subset repairing: the delta engine behind live mutations.
//!
//! A cold solve of a million-row table costs a full conflict scan plus a
//! solver call per conflicting component. A *mutation* — one inserted,
//! deleted, or edited row — cannot justify paying that again, and the
//! component structure of the LKR dichotomy says it never has to:
//! conflict-graph edges join rows that *jointly* violate an FD, so a
//! mutation of row `r` only adds or removes edges **incident to `r`**.
//! Components away from `r` are untouched, and their cached optimal
//! repairs remain optimal verbatim (an optimal S-repair restricts to an
//! optimal repair per component, and unions back to a global optimum).
//!
//! [`IncrementalSubset`] maintains exactly that decomposition:
//!
//! * every conflicting component is cached with its solved kept-list and
//!   the method that produced it;
//! * a mutation dirties the mutated row's own component plus the
//!   components of its **new conflict partners** (rows agreeing with the
//!   new values on some lhs and disagreeing on the rhs — the endpoints
//!   of every added edge, found by one word-compare scan per FD);
//! * the dirtied rows are re-gathered, their components re-extracted
//!   over a persistent [`EpochUnionFind`] scratch arena
//!   ([`conflict_components_scratch`]), and only those components are
//!   re-solved — with the same per-component method selection as the
//!   cold sharded path;
//! * untouched components splice their cached kept-lists into the next
//!   [`IncrementalSubset::solution`] unchanged.
//!
//! The closure argument for the dirty region: an old edge with one
//! endpoint in a dirtied component has its other endpoint in the *same*
//! component (that is what a component is), and a new edge is incident
//! to `r` with its other endpoint a probed partner — so no conflict ever
//! crosses the region boundary, the local re-extraction is exact, and
//! the spliced result is **bit-identical** to a cold
//! [`crate::sharded_s_repair`] of the mutated table (pinned by the
//! parity tests below and fuzzed end-to-end by `fd-oracle`'s
//! mutation-trace differential campaign).

use crate::repair::SRepair;
use crate::sharded::{solve_component, SMethod, ShardConfig, ShardPlan, ShardedSolution};
use crate::succeeds::{osr_succeeds, recursion_trace, Trace};
use fd_core::{FdSet, KeyExtractor, Mutation, MutationEffect, Result, Table, TupleId};
use fd_graph::{conflict_components, conflict_components_scratch, EpochUnionFind};

/// "Row is in no conflicting component" sentinel of the id → slot map.
const CLEAN: u32 = u32::MAX;

/// One cached conflicting component: its member ids, its solved
/// kept-list (spliced into reports verbatim while the component stays
/// clean), and the method that produced it.
#[derive(Clone, Debug)]
struct Comp {
    /// Member tuple ids, ascending (so they gather back in row order).
    ids: Vec<TupleId>,
    /// The solver's kept ids for this component.
    kept: Vec<TupleId>,
    /// The method that solved it (drives the plan's method counts).
    method: SMethod,
}

/// Appends the conflict partners of the row at `pos` under every FD of
/// `Δ`: rows agreeing with it on the lhs and disagreeing on the rhs —
/// exactly the other endpoints of the row's conflict-graph edges. One
/// `O(|T|)` word-compare pass per FD over the symbol columns; no
/// grouping, no hashing, no allocation beyond the output.
fn conflict_partners(table: &Table, fds: &FdSet, pos: u32, out: &mut Vec<TupleId>) {
    let cols = table.sym_cols();
    for fd in fds.iter() {
        let lhs = KeyExtractor::new(fd.lhs());
        let rhs = KeyExtractor::new(fd.rhs());
        for (p, id) in table.ids().enumerate() {
            let p = p as u32;
            if p != pos && lhs.eq(cols, p, pos) && !rhs.eq(cols, p, pos) {
                out.push(id);
            }
        }
    }
}

/// A live subset-repair session over a mutating table: per-component
/// solutions cached, mutations re-solving only the components they
/// dirty, reports bit-identical to a cold [`crate::sharded_s_repair`].
///
/// The table is owned by the caller and passed into every call; the
/// session only requires that mutations flow through
/// [`IncrementalSubset::apply_mutation`] (so the cache and the table
/// never diverge) and that row ids ascend with row positions — true for
/// every table built by appends, and preserved by the mutation
/// primitives themselves.
///
/// # Examples
///
/// ```
/// use fd_core::{schema_rabc, tup, FdSet, Mutation, Table, TupleId};
/// use fd_srepair::{sharded_s_repair, IncrementalSubset, ShardConfig};
///
/// let s = schema_rabc();
/// let fds = FdSet::parse(&s, "A -> B").unwrap();
/// let mut t = Table::build_unweighted(
///     s,
///     vec![tup![1, 1, 0], tup![1, 2, 0], tup![7, 7, 0]],
/// ).unwrap();
/// let cfg = ShardConfig::default();
/// let mut inc = IncrementalSubset::new(&t, &fds, &cfg);
/// inc.apply_mutation(&mut t, &Mutation::Delete { id: TupleId(1) }).unwrap();
/// let warm = inc.solution(&t);
/// let cold = sharded_s_repair(&t, &fds, &cfg);
/// assert_eq!(warm.repair, cold.repair);
/// assert_eq!(warm.plan, cold.plan);
/// ```
#[derive(Clone, Debug)]
pub struct IncrementalSubset {
    /// The FD set the session repairs under.
    fds: FdSet,
    /// Algorithm 2's trace of `Δ`, hoisted for the dichotomy arm.
    trace: Trace,
    /// Per-component method selection knobs (shared with the cold path).
    cfg: ShardConfig,
    /// Which side of the dichotomy `Δ` falls on.
    tractable: bool,
    /// Component slot arena; `None` slots are free.
    comps: Vec<Option<Comp>>,
    /// Free slot indices, reused before the arena grows.
    free: Vec<usize>,
    /// `comp_of[id]` = slot of the id's component, or [`CLEAN`].
    comp_of: Vec<u32>,
    /// Live component counts per method, indexed by [`SMethod::index`].
    counts: [usize; 3],
    /// Persistent union-find arena for the local re-extractions.
    scratch: EpochUnionFind,
}

impl IncrementalSubset {
    /// Builds the session by a cold component extraction and one solve
    /// per conflicting component — the same work as
    /// [`crate::sharded_s_repair`], retained instead of discarded.
    pub fn new(table: &Table, fds: &FdSet, cfg: &ShardConfig) -> IncrementalSubset {
        // fdlint: allow(O001, "observation only: the span is dropped at scope end and no trace value flows into the cached components or their solutions")
        let mut sp = fd_trace::span("srepair/incremental_build");
        sp.attr("rows", table.len());
        let max_id = table
            .ids()
            .map(|id| id.0)
            .max()
            .map_or(0, |m| m as usize + 1);
        let mut inc = IncrementalSubset {
            fds: fds.clone(),
            trace: recursion_trace(fds),
            cfg: *cfg,
            tractable: osr_succeeds(fds),
            comps: Vec::new(),
            free: Vec::new(),
            comp_of: vec![CLEAN; max_id],
            counts: [0; 3],
            scratch: EpochUnionFind::new(),
        };
        let ids: Vec<TupleId> = table.ids().collect();
        debug_assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "incremental maintenance requires ids ascending in row order"
        );
        let comps = conflict_components(table, fds);
        for comp in comps.iter() {
            if comp.len() < 2 {
                continue;
            }
            let members: Vec<TupleId> = comp.iter().map(|&p| ids[p as usize]).collect();
            inc.solve_and_store(table, comp, members);
        }
        sp.attr("components", inc.counts.iter().sum::<usize>());
        inc
    }

    /// Applies one mutation to `table` and repairs the cache around it:
    /// the mutated row's component and its new partners' components are
    /// invalidated, locally re-extracted, and re-solved; everything else
    /// is untouched. Errors leave both the table and the cache exactly
    /// as they were.
    pub fn apply_mutation(&mut self, table: &mut Table, m: &Mutation) -> Result<MutationEffect> {
        // fdlint: allow(O001, "observation only: the span is dropped at scope end and no trace value flows into the cache, the effect, or the table")
        let mut sp = fd_trace::span("srepair/incremental_step");
        sp.attr("rows", table.len());
        let effect = table.apply_mutation(m)?;
        let r = effect.id();
        self.ensure_id(r);

        // New edges are incident to the mutated row, so their other
        // endpoints are its conflict partners under the *new* values. A
        // delete adds no edges and probes nothing — its old component
        // alone is the dirty region.
        let alive = !matches!(effect, MutationEffect::Deleted { .. });
        let mut region: Vec<TupleId> = Vec::new();
        if alive {
            let pos = table.position_of(r).expect("mutated row is alive") as u32;
            conflict_partners(table, &self.fds, pos, &mut region);
        }

        // Dirty components: the mutated row's own plus every partner's.
        let mut dirty: Vec<u32> = self.slot_of(r).into_iter().collect();
        dirty.extend(region.iter().filter_map(|&id| self.slot_of(id)));
        dirty.sort_unstable();
        dirty.dedup();

        // The rebuilt region: the dirtied components in full, the clean
        // partners, and the mutated row itself (when alive).
        for &slot in &dirty {
            let comp = self.comps[slot as usize]
                .take()
                .expect("dirty slot is live");
            self.counts[comp.method.index()] -= 1;
            for id in &comp.ids {
                self.comp_of[id.0 as usize] = CLEAN;
            }
            region.extend(comp.ids);
            self.free.push(slot as usize);
        }
        if alive {
            region.push(r);
        }
        region.sort_unstable();
        region.dedup();
        if !alive {
            region.retain(|&id| id != r);
        }
        sp.attr("dirty_components", dirty.len());
        sp.attr("region_rows", region.len());

        // Re-extract the region's components over the scratch arena and
        // re-solve each from a gather of the *full* table — the same
        // sub-tables the cold sharded path would build.
        let positions: Vec<u32> = region
            .iter()
            .map(|&id| table.position_of(id).expect("region rows are alive") as u32)
            .collect();
        debug_assert!(
            positions.windows(2).all(|w| w[0] < w[1]),
            "region ids must ascend with row positions"
        );
        let sub = table.gather_positions(&positions);
        let local = conflict_components_scratch(&sub, &self.fds, &mut self.scratch);
        let mut resolved = 0usize;
        for comp in local.iter() {
            if comp.len() < 2 {
                continue;
            }
            let members: Vec<TupleId> = comp.iter().map(|&v| region[v as usize]).collect();
            let globals: Vec<u32> = comp.iter().map(|&v| positions[v as usize]).collect();
            self.solve_and_store(table, &globals, members);
            resolved += 1;
        }
        sp.attr("resolved_components", resolved);
        Ok(effect)
    }

    /// Assembles the current solution: conflict-free rows kept for
    /// free, cached per-component kept-lists spliced in, plan statistics
    /// rebuilt from the live counts — field-for-field identical to what
    /// [`crate::sharded_s_repair`] returns on the current table.
    pub fn solution(&self, table: &Table) -> ShardedSolution {
        let mut kept: Vec<TupleId> = Vec::with_capacity(table.len());
        for id in table.ids() {
            if self.slot_of(id).is_none() {
                kept.push(id);
            }
        }
        for comp in self.comps.iter().flatten() {
            kept.extend_from_slice(&comp.kept);
        }
        ShardedSolution {
            repair: SRepair::from_kept(table, kept),
            plan: self.plan(table),
        }
    }

    /// The current plan statistics, assembled from the live counts by
    /// the same function as [`crate::shard_plan`]'s.
    pub fn plan(&self, table: &Table) -> ShardPlan {
        let mut largest = 0usize;
        let mut in_comps = 0usize;
        for comp in self.comps.iter().flatten() {
            largest = largest.max(comp.ids.len());
            in_comps += comp.ids.len();
        }
        ShardPlan::from_counts(self.counts, largest, table.len() - in_comps, self.tractable)
    }

    /// Number of live cached conflicting components.
    pub fn component_count(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Solves one conflicting component (gathered from the full table by
    /// its ascending row positions) and caches the result.
    fn solve_and_store(&mut self, table: &Table, positions: &[u32], ids: Vec<TupleId>) {
        let method = ShardPlan::component_method(self.tractable, ids.len(), &self.cfg);
        let sub = table.gather_positions(positions);
        let kept = solve_component(&sub, &self.fds, &self.trace, method);
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.comps.push(None);
                self.comps.len() - 1
            }
        };
        for id in &ids {
            self.comp_of[id.0 as usize] = slot as u32;
        }
        self.counts[method.index()] += 1;
        self.comps[slot] = Some(Comp { ids, kept, method });
    }

    /// The component slot holding `id`, if any.
    fn slot_of(&self, id: TupleId) -> Option<u32> {
        match self.comp_of.get(id.0 as usize) {
            Some(&slot) if slot != CLEAN => Some(slot),
            _ => None,
        }
    }

    /// Grows the id → slot map to cover a freshly inserted id.
    fn ensure_id(&mut self, id: TupleId) {
        let need = id.0 as usize + 1;
        if self.comp_of.len() < need {
            self.comp_of.resize(need, CLEAN);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded_s_repair;
    use fd_core::{schema_rabc, tup, Value};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_table(rng: &mut StdRng, n: usize, keys: i64) -> Table {
        let s = schema_rabc();
        let rows: Vec<_> = (0..n)
            .map(|_| {
                (
                    tup![
                        rng.gen_range(0..keys),
                        rng.gen_range(0..4i64),
                        rng.gen_range(0..4i64)
                    ],
                    [1.0, 2.0, 0.5][rng.gen_range(0..3usize)],
                )
            })
            .collect();
        Table::build(s, rows).unwrap()
    }

    fn random_mutation(rng: &mut StdRng, t: &Table, keys: i64) -> Mutation {
        let alive: Vec<TupleId> = t.ids().collect();
        let kind = if alive.is_empty() {
            0
        } else {
            rng.gen_range(0..3usize)
        };
        match kind {
            0 => Mutation::Insert {
                tuple: tup![
                    rng.gen_range(0..keys),
                    rng.gen_range(0..4i64),
                    rng.gen_range(0..4i64)
                ],
                weight: [1.0, 2.0, 0.5][rng.gen_range(0..3usize)],
            },
            1 => Mutation::Delete {
                id: alive[rng.gen_range(0..alive.len())],
            },
            _ => {
                let s = t.schema().clone();
                let (name, hi) = [("A", keys), ("B", 4), ("C", 4)][rng.gen_range(0..3usize)];
                Mutation::SetCell {
                    id: alive[rng.gen_range(0..alive.len())],
                    attr: s.attr(name).unwrap(),
                    value: Value::from(rng.gen_range(0..hi)),
                }
            }
        }
    }

    /// Applies `steps` random mutations, asserting after every one that
    /// the incremental solution is field-for-field identical to a cold
    /// sharded solve of the mutated table.
    fn drive(spec: &str, cfg: &ShardConfig, seed: u64, rows: usize, keys: i64, steps: usize) {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, spec).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = random_table(&mut rng, rows, keys);
        let mut inc = IncrementalSubset::new(&t, &fds, cfg);
        for step in 0..=steps {
            if step > 0 {
                let m = random_mutation(&mut rng, &t, keys);
                inc.apply_mutation(&mut t, &m).unwrap();
            }
            let warm = inc.solution(&t);
            let cold = sharded_s_repair(&t, &fds, cfg);
            assert_eq!(warm.repair, cold.repair, "{spec} step {step}\n{t}");
            assert_eq!(warm.plan, cold.plan, "{spec} step {step}\n{t}");
            warm.repair.verify(&t, &fds);
        }
    }

    #[test]
    fn tractable_traces_stay_bit_identical_to_cold_solves() {
        for (i, spec) in ["A -> B", "A -> B C", "A -> B; A B -> C", "-> C; A -> B"]
            .iter()
            .enumerate()
        {
            drive(spec, &ShardConfig::default(), 0xD1 + i as u64, 40, 10, 60);
        }
    }

    #[test]
    fn hard_side_traces_stay_bit_identical_to_cold_solves() {
        for (i, spec) in ["A -> B; B -> C", "A -> C; B -> C", "A B -> C; C -> B"]
            .iter()
            .enumerate()
        {
            // Default: exact per component. Limit 0: 2-approx everywhere.
            // Forced: exact past the limit.
            for (j, cfg) in [
                ShardConfig::default(),
                ShardConfig {
                    component_exact_limit: 0,
                    ..ShardConfig::default()
                },
                ShardConfig {
                    component_exact_limit: 0,
                    force_exact: true,
                    ..ShardConfig::default()
                },
            ]
            .iter()
            .enumerate()
            {
                drive(spec, cfg, 0xE0 + (i * 3 + j) as u64, 24, 8, 40);
            }
        }
    }

    #[test]
    fn grows_from_an_empty_table() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        let cfg = ShardConfig::default();
        let mut t = Table::new(s);
        let mut inc = IncrementalSubset::new(&t, &fds, &cfg);
        let mut rng = StdRng::seed_from_u64(0xF00D);
        for step in 0..30 {
            let m = Mutation::Insert {
                tuple: tup![
                    rng.gen_range(0..5i64),
                    rng.gen_range(0..3i64),
                    rng.gen_range(0..3i64)
                ],
                weight: 1.0,
            };
            inc.apply_mutation(&mut t, &m).unwrap();
            let warm = inc.solution(&t);
            let cold = sharded_s_repair(&t, &fds, &cfg);
            assert_eq!(warm.repair, cold.repair, "step {step}\n{t}");
            assert_eq!(warm.plan, cold.plan, "step {step}");
        }
        assert!(inc.component_count() > 0, "inserts built real conflicts");
    }

    #[test]
    fn deletes_drain_the_table_and_split_components() {
        let s = schema_rabc();
        // One big consensus component: every delete shrinks it in place.
        let fds = FdSet::parse(&s, "-> C; A -> B").unwrap();
        let cfg = ShardConfig::default();
        let mut rng = StdRng::seed_from_u64(0xDEAD);
        let mut t = random_table(&mut rng, 14, 4);
        let mut inc = IncrementalSubset::new(&t, &fds, &cfg);
        while !t.is_empty() {
            let ids: Vec<TupleId> = t.ids().collect();
            let id = ids[rng.gen_range(0..ids.len())];
            inc.apply_mutation(&mut t, &Mutation::Delete { id })
                .unwrap();
            let warm = inc.solution(&t);
            let cold = sharded_s_repair(&t, &fds, &cfg);
            assert_eq!(warm.repair, cold.repair, "after deleting {id:?}\n{t}");
            assert_eq!(warm.plan, cold.plan, "after deleting {id:?}");
        }
        assert_eq!(inc.component_count(), 0);
        assert!(inc.solution(&t).repair.kept.is_empty());
    }

    #[test]
    fn errors_leave_the_cache_and_table_intact() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        let cfg = ShardConfig::default();
        let mut t =
            Table::build_unweighted(s.clone(), vec![tup![1, 1, 0], tup![1, 2, 0], tup![3, 3, 0]])
                .unwrap();
        let mut inc = IncrementalSubset::new(&t, &fds, &cfg);
        let before = inc.solution(&t);
        assert!(inc
            .apply_mutation(&mut t, &Mutation::Delete { id: TupleId(99) })
            .is_err());
        assert!(inc
            .apply_mutation(
                &mut t,
                &Mutation::Insert {
                    tuple: tup![1, 1, 0],
                    weight: -1.0,
                },
            )
            .is_err());
        let after = inc.solution(&t);
        assert_eq!(before.repair, after.repair);
        assert_eq!(before.plan, after.plan);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn marriage_traces_stay_bit_identical_to_cold_solves() {
        // Both marriage shapes: a bare marriage, and one reached after
        // a common-lhs step (`A` plays the id, `B`/`C` country/passport).
        for (i, spec) in ["A -> B; B -> A; B -> C", "A B -> C; A C -> B"]
            .iter()
            .enumerate()
        {
            drive(spec, &ShardConfig::default(), 0xA1 + i as u64, 30, 6, 60);
        }
    }
}
