//! Incremental subset repairing: the delta engine behind live mutations.
//!
//! An optimal S-repair restricts to an optimal repair per conflict
//! component and unions back to a global optimum, and a mutation of row
//! `r` only adds or removes edges incident to `r`. So components away
//! from `r` keep their cached repairs verbatim. [`IncrementalSubset`]
//! caches every conflicting component's kept-list and method, and owns
//! a [`ConflictIndex`] keyed by tuple id that each mutation moves `r`
//! through in `O(|Δ| · group)`. The dirty region is `r`'s old component
//! plus the components of every member of `r`'s new conflicting groups
//! (its new partners, and rows already sharing a component with them).
//! Every conflicting group that touches the region lies inside it: an
//! old edge leaving a dirty component would join it to its other end,
//! and a new edge ends in one of `r`'s new groups. So a region-local
//! union-find over those groups re-derives exactly the region's
//! components, each is re-solved with the cold path's method choice,
//! and [`IncrementalSubset::solution`] is **bit-identical** to a cold
//! [`crate::sharded_s_repair`] of the mutated table (pinned by the
//! parity tests below and fuzzed by `fd-oracle`'s mutation traces).

use crate::repair::SRepair;
use crate::sharded::{solve_component, SMethod, ShardConfig, ShardPlan, ShardedSolution};
use crate::succeeds::{osr_succeeds, recursion_trace, Trace};
use fd_core::{ConflictIndex, FdSet, Mutation, MutationEffect, Result, Table, TupleId};
use fd_graph::{index_components, Components, UnionFind};
use std::collections::BTreeSet;

/// "Row is in no conflicting component" sentinel of the id → slot map.
const CLEAN: u32 = u32::MAX;

/// One cached conflicting component: its member ids (ascending, so
/// they gather back in row order), the solver's kept ids (ascending;
/// spliced into reports while the component stays clean), and the
/// method used.
#[derive(Clone, Debug)]
struct Comp {
    ids: Vec<TupleId>,
    kept: Vec<TupleId>,
    method: SMethod,
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
    /// Every FD's lhs groups and rhs-class counts, keyed by tuple id.
    index: ConflictIndex,
    /// The rows the last successful mutation re-solved.
    region: Vec<TupleId>,
    /// Every cached component's rows its solution does not keep.
    deleted: BTreeSet<TupleId>,
}

impl IncrementalSubset {
    /// Builds the session by a cold component extraction and one solve
    /// per conflicting component — the same work as
    /// [`crate::sharded_s_repair`], retained instead of discarded.
    pub fn new(table: &Table, fds: &FdSet, cfg: &ShardConfig) -> IncrementalSubset {
        // fdlint: allow(O001, "observation only: the span is dropped at scope end and no trace value flows into the cached components or their solutions")
        let mut sp = fd_trace::span("srepair/incremental_build");
        sp.attr("rows", table.len());
        debug_assert!(
            table.ids().zip(table.ids().skip(1)).all(|(a, b)| a < b),
            "incremental maintenance requires ids ascending in row order"
        );
        let index = ConflictIndex::build_by_id(table, fds);
        let comps = index_components(&index);
        let mut inc = IncrementalSubset {
            trace: recursion_trace(fds),
            cfg: *cfg,
            tractable: osr_succeeds(fds),
            comps: Vec::new(),
            free: Vec::new(),
            comp_of: vec![CLEAN; index.key_space()],
            counts: [0; 3],
            index,
            region: Vec::new(),
            deleted: BTreeSet::new(),
        };
        inc.store_components(table, &comps, TupleId);
        sp.attr("components", inc.counts.iter().sum::<usize>());
        inc
    }

    /// Applies one mutation to `table` and repairs the cache around it:
    /// the index moves the row between groups, the mutated row's old
    /// component and the components its new conflicting groups reach
    /// are invalidated, their rows' components re-extracted from the
    /// index, and those re-solved; everything else is untouched. Errors
    /// leave both the table and the cache exactly as they were.
    pub fn apply_mutation(&mut self, table: &mut Table, m: &Mutation) -> Result<MutationEffect> {
        // fdlint: allow(O001, "observation only: the span is dropped at scope end and no trace value flows into the cache, the effect, or the table")
        let mut sp = fd_trace::span("srepair/incremental_step");
        sp.attr("rows", table.len());
        let effect = table.apply_mutation(m)?;
        let r = effect.id();
        self.index.apply(table, &effect);
        self.comp_of.resize(self.index.key_space(), CLEAN);

        // New edges are incident to the mutated row, so their other
        // endpoints sit in its new conflicting groups; every other member
        // of such a group already shares a component with them. A delete
        // adds no edges — its old component alone is the dirty region.
        let alive = !matches!(effect, MutationEffect::Deleted { .. });
        let mut region: Vec<TupleId> = Vec::new();
        if alive {
            region.push(r);
            for fd in 0..self.index.fd_count() {
                let g = self.index.group_of(fd, r.0).expect("live row is indexed");
                if self.index.class_count(fd, g) >= 2 {
                    region.extend(self.index.members(fd, g).map(TupleId));
                }
            }
        }

        // Dirty components: the mutated row's own plus every partner's.
        let mut dirty: Vec<u32> = self.slot_of(r).into_iter().collect();
        dirty.extend(region.iter().filter_map(|&id| self.slot_of(id)));
        dirty.sort_unstable();
        dirty.dedup();
        for &slot in &dirty {
            let comp = self.comps[slot as usize]
                .take()
                .expect("dirty slot is live");
            self.counts[comp.method.index()] -= 1;
            for id in &comp.ids {
                self.comp_of[id.0 as usize] = CLEAN;
                self.deleted.remove(id);
            }
            region.extend(comp.ids);
            self.free.push(slot as usize);
        }
        region.sort_unstable();
        region.dedup();
        if !alive {
            region.retain(|&id| id != r);
        }
        sp.attr("dirty_components", dirty.len());
        sp.attr("region_rows", region.len());

        // The region's components: a local union-find joining each row to
        // the head of every conflicting group it sits in. Those groups lie
        // wholly inside the region.
        let mut uf = UnionFind::new(region.len());
        for fd in 0..self.index.fd_count() {
            for (v, id) in region.iter().enumerate() {
                let g = self.index.group_of(fd, id.0).expect("region rows are live");
                if self.index.class_count(fd, g) >= 2 {
                    let head = self
                        .index
                        .members(fd, g)
                        .next()
                        .expect("groups are non-empty");
                    let local = region
                        .binary_search(&TupleId(head))
                        .expect("group inside region");
                    uf.union(v as u32, local as u32);
                }
            }
        }
        let comps = Components::from_union_find(uf);
        let resolved = self.store_components(table, &comps, |v| region[v as usize]);
        sp.attr("resolved_components", resolved);
        self.region = region;
        Ok(effect)
    }

    /// The rows the last successful [`apply_mutation`] re-solved,
    /// ascending: every live row whose component it dirtied or that
    /// joined the mutated row's conflicting groups. Besides the mutated
    /// row itself, these are the only rows whose kept status that
    /// mutation can have changed.
    ///
    /// [`apply_mutation`]: IncrementalSubset::apply_mutation
    pub fn last_region(&self) -> &[TupleId] {
        &self.region
    }

    /// Whether the current solution keeps the live row `id`: a row in
    /// no conflicting component is kept for free, any other as its
    /// component's cached solution says.
    pub fn is_kept(&self, id: TupleId) -> bool {
        match self.slot_of(id) {
            None => true,
            Some(slot) => self.comps[slot as usize]
                .as_ref()
                .is_some_and(|comp| comp.kept.binary_search(&id).is_ok()),
        }
    }

    /// The ids the current solution deletes, ascending: the rows of
    /// conflicting components that their cached solutions do not keep,
    /// maintained as components are stored and invalidated, so no row
    /// is scanned. With ids ascending in row order, as the session
    /// requires, this is also row order.
    pub fn deleted(&self) -> Vec<TupleId> {
        self.deleted.iter().copied().collect()
    }

    /// Assembles the current solution: conflict-free rows kept for
    /// free, cached per-component kept-lists spliced in, plan statistics
    /// rebuilt from the live counts — field-for-field identical to what
    /// [`crate::sharded_s_repair`] returns on the current table.
    ///
    /// The kept ids come out in row order, in one pass over the rows, so
    /// [`SRepair::from_kept`]'s sort finds them ascending whenever the
    /// ids ascend with the rows, as the session requires.
    pub fn solution(&self, table: &Table) -> ShardedSolution {
        let kept: Vec<TupleId> = table.ids().filter(|&id| self.is_kept(id)).collect();
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

    /// Solves and caches every conflicting (≥ 2 row) component of
    /// `comps`, whose nodes `id_of` names, and returns how many there
    /// were. Each is solved on its ascending row positions in the full
    /// table — the same block the cold sharded path solves.
    fn store_components(
        &mut self,
        table: &Table,
        comps: &Components,
        id_of: impl Fn(u32) -> TupleId,
    ) -> usize {
        let mut stored = 0;
        for comp in comps.iter().filter(|comp| comp.len() >= 2) {
            let ids: Vec<TupleId> = comp.iter().map(|&v| id_of(v)).collect();
            let mut positions: Vec<u32> = ids
                .iter()
                .map(|&id| table.position_of(id).expect("component rows are alive") as u32)
                .collect();
            // Solve in row order, as the cold path does, without leaning
            // on ids being ascending in row order.
            positions.sort_unstable();
            let method = ShardPlan::component_method(self.tractable, ids.len(), &self.cfg);
            let mut kept = solve_component(table, &positions, &self.index, &self.trace, method);
            kept.sort_unstable();
            let slot = match self.free.pop() {
                Some(slot) => slot,
                None => {
                    self.comps.push(None);
                    self.comps.len() - 1
                }
            };
            for id in &ids {
                self.comp_of[id.0 as usize] = slot as u32;
                if kept.binary_search(id).is_err() {
                    self.deleted.insert(*id);
                }
            }
            self.counts[method.index()] += 1;
            self.comps[slot] = Some(Comp { ids, kept, method });
            stored += 1;
        }
        stored
    }

    /// The component slot holding `id`, if any.
    fn slot_of(&self, id: TupleId) -> Option<u32> {
        let slot = *self.comp_of.get(id.0 as usize)?;
        (slot != CLEAN).then_some(slot)
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

    /// Asserts that the session's maintained index equals a fresh
    /// [`ConflictIndex::build_by_id`] of `t`: every live row's group
    /// (as its sorted members) and class count per FD, and the
    /// conflicting components.
    fn assert_index_current(inc: &IncrementalSubset, t: &Table, fds: &FdSet, ctx: &str) {
        let fresh = ConflictIndex::build_by_id(t, fds);
        let groups = |index: &ConflictIndex| -> Vec<(Vec<u32>, usize)> {
            let mut out = Vec::new();
            for fd in 0..index.fd_count() {
                for id in t.ids() {
                    let g = index.group_of(fd, id.0).expect("live row is indexed");
                    let mut members: Vec<u32> = index.members(fd, g).collect();
                    members.sort_unstable();
                    out.push((members, index.class_count(fd, g)));
                }
            }
            out
        };
        let conflicting = |index: &ConflictIndex| -> Vec<Vec<u32>> {
            index_components(index)
                .iter()
                .filter(|c| c.len() >= 2)
                .map(<[u32]>::to_vec)
                .collect()
        };
        assert_eq!(groups(&inc.index), groups(&fresh), "{ctx}\n{t}");
        assert_eq!(conflicting(&inc.index), conflicting(&fresh), "{ctx}\n{t}");
    }

    #[test]
    fn the_maintained_index_equals_a_fresh_build_after_every_step() {
        // Lhs and rhs cells both change (the mutations draw A, B and C),
        // and few keys keep the groups large.
        for (i, spec) in ["A -> B; B -> C", "-> C; A -> B", "A B -> C; C -> B"]
            .iter()
            .enumerate()
        {
            let s = schema_rabc();
            let fds = FdSet::parse(&s, spec).unwrap();
            let mut rng = StdRng::seed_from_u64(0x1D0 + i as u64);
            let mut t = random_table(&mut rng, 20, 4);
            let mut inc = IncrementalSubset::new(&t, &fds, &ShardConfig::default());
            for step in 0..200 {
                let m = random_mutation(&mut rng, &t, 4);
                inc.apply_mutation(&mut t, &m).unwrap();
                assert_index_current(&inc, &t, &fds, &format!("{spec} step {step} {m:?}"));
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
            assert_eq!(inc.deleted(), cold.repair.deleted(&t), "{spec} step {step}");
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
