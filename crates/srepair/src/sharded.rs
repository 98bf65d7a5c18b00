//! Component-sharded subset repairing: the million-row solve path.
//!
//! Optimal S-repairs decompose over the connected components of the
//! conflict graph: deleting tuples never creates new conflicts, so the
//! restriction of an optimal repair to a component is an optimal repair
//! of that component, and the union of per-component optima is a global
//! optimum (the per-component structure behind the dichotomy of
//! Livshits & Kimelfeld, arXiv:1708.09140, and the large-instance
//! decomposition of Miao et al., arXiv:2001.00315). This module
//! exploits that end to end:
//!
//! 1. components come from [`fd_graph::index_components`] — a
//!    union-find over conflict *groups*, `O(|T| · |Δ|)`, no edges;
//! 2. rows in singleton components are conflict-free and are kept for
//!    free, without ever touching a solver;
//! 3. each conflicting component is solved independently on its row
//!    positions — Algorithm 1 on the tractable side, exact vertex cover
//!    or the 2-approximation of its graph read off the same index on
//!    the hard side, chosen **per component** against
//!    [`ShardConfig::component_exact_limit`] (a 64-row hard cap on the
//!    whole table becomes a 64-row cap per component, so exactness
//!    survives to much larger instances);
//! 4. components fan out over the existing scoped-thread pool and merge
//!    deterministically.
//!
//! The result is bit-identical to the whole-table reference
//! implementations ([`crate::opt_s_repair`], [`crate::exact_s_repair`],
//! [`crate::approx_s_repair`]) — pinned by the parity tests below and
//! the workspace-level `shard_parity` suite: the exact vertex-cover
//! solver already decomposes per component in the same order, the
//! Bar-Yehuda–Even scan is component-local with a preserved edge order,
//! Algorithm 1's rule sequence depends on `Δ` alone, and the
//! maximum-weight matching behind a marriage step solves each of its
//! bipartite components alone — which under a marriage are exactly the
//! conflict components — so recursing per component reproduces the
//! global recursion's choices.

use crate::repair::SRepair;
use crate::succeeds::{ids_at, recursion_trace, Trace};
use fd_core::{ConflictIndex, FdSet, Table, TupleId};
use fd_graph::{
    index_components, min_weight_vertex_cover, vertex_cover_2approx, Components, ConflictGraph,
    Graph, VertexCover,
};

/// The method a subset repair (or one component of it) was solved with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SMethod {
    /// Algorithm 1 (`OptSRepair`); available iff `OSRSucceeds(Δ)`.
    Dichotomy,
    /// Exact minimum-weight vertex cover on the conflict graph.
    ExactVertexCover,
    /// The 2-approximation of Proposition 3.3.
    Approx2,
}

impl SMethod {
    /// Every method, in the stable plan order.
    const ALL: [SMethod; 3] = [
        SMethod::Dichotomy,
        SMethod::ExactVertexCover,
        SMethod::Approx2,
    ];

    /// The method's position in [`SMethod::ALL`].
    pub(crate) fn index(self) -> usize {
        self as usize
    }

    /// The (optimal, guaranteed-ratio) pair the method promises.
    pub fn guarantees(self) -> (bool, f64) {
        match self {
            SMethod::Dichotomy | SMethod::ExactVertexCover => (true, 1.0),
            SMethod::Approx2 => (false, 2.0),
        }
    }
}

/// Knobs of the sharded solve path.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShardConfig {
    /// Worker threads fanning the components out: `1` is sequential,
    /// `0` asks the OS, `n > 1` uses `n` scoped threads. The result is
    /// identical regardless.
    pub threads: usize,
    /// Hard-side components up to this many rows are solved with the
    /// exact vertex-cover baseline; larger ones fall back to the
    /// 2-approximation.
    pub component_exact_limit: usize,
    /// Solve every hard-side component exactly, whatever its size
    /// (the `Optimality::Exact` escalation).
    pub force_exact: bool,
}

impl Default for ShardConfig {
    fn default() -> ShardConfig {
        ShardConfig {
            threads: 1,
            component_exact_limit: 64,
            force_exact: false,
        }
    }
}

/// What the sharded path intends to do (and, after solving, did):
/// polynomial to compute, so plans never commit to exponential work.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardPlan {
    /// Conflicting (≥ 2 row) components.
    pub components: usize,
    /// Rows of the largest component (0 when the table is consistent).
    pub largest: usize,
    /// Rows in singleton components: conflict-free, kept for free.
    pub clean_rows: usize,
    /// Planned methods with the number of components each covers,
    /// in the stable order Dichotomy, ExactVertexCover, Approx2.
    pub methods: Vec<(SMethod, usize)>,
    /// Whether the composed result will be guaranteed optimal.
    pub optimal: bool,
    /// The composed guaranteed ratio (max over components).
    pub ratio: f64,
}

impl ShardPlan {
    /// The planned method for a conflicting component of `rows` rows
    /// under `Δ`'s dichotomy side.
    pub(crate) fn component_method(tractable: bool, rows: usize, cfg: &ShardConfig) -> SMethod {
        if tractable {
            SMethod::Dichotomy
        } else if cfg.force_exact || rows <= cfg.component_exact_limit {
            SMethod::ExactVertexCover
        } else {
            SMethod::Approx2
        }
    }

    /// Assembles a plan from its per-method component counts, indexed by
    /// [`SMethod::index`]: methods in stable order with zero counts
    /// elided, optimal iff no component fell back to the
    /// 2-approximation. The cold path and the incremental cache both
    /// build their plans here.
    pub(crate) fn from_counts(
        counts: [usize; 3],
        largest: usize,
        clean_rows: usize,
        tractable: bool,
    ) -> ShardPlan {
        let mut methods: Vec<(SMethod, usize)> = SMethod::ALL
            .into_iter()
            .zip(counts)
            .filter(|&(_, count)| count > 0)
            .collect();
        // A consistent table has nothing to solve: vacuously exact under
        // whichever method the dichotomy side names.
        if methods.is_empty() {
            let vacuous = if tractable {
                SMethod::Dichotomy
            } else {
                SMethod::ExactVertexCover
            };
            methods.push((vacuous, 0));
        }
        let optimal = counts[SMethod::Approx2.index()] == 0;
        ShardPlan {
            components: counts.iter().sum(),
            largest,
            clean_rows,
            methods,
            optimal,
            ratio: if optimal { 1.0 } else { 2.0 },
        }
    }
}

/// A subset repair produced by the sharded path, with per-component
/// provenance.
#[derive(Clone, Debug)]
pub struct ShardedSolution {
    /// The repair (kept ids sorted; identical to the whole-table
    /// reference for the same method).
    pub repair: SRepair,
    /// The executed plan, with per-method component counts and the
    /// composed guarantee.
    pub plan: ShardPlan,
}

/// Computes the component partition and the plan in one polynomial
/// pass over `index` (of `table` under `Δ`, keyed by position): the
/// union-find over its conflict groups. The same function feeds
/// `explain()` (plan only) and [`sharded_s_repair`] (plan + execute).
pub fn shard_plan(
    table: &Table,
    fds: &FdSet,
    index: &ConflictIndex,
    cfg: &ShardConfig,
) -> (Components, ShardPlan) {
    debug_assert_eq!(index.key_space(), table.len());
    let comps = index_components(index);
    let tractable = crate::succeeds::osr_succeeds(fds);
    let mut counts = [0usize; 3];
    let mut largest = 0usize;
    let mut clean_rows = 0usize;
    for comp in comps.iter() {
        if comp.len() < 2 {
            clean_rows += 1;
            continue;
        }
        largest = largest.max(comp.len());
        counts[ShardPlan::component_method(tractable, comp.len(), cfg).index()] += 1;
    }
    let plan = ShardPlan::from_counts(counts, largest, clean_rows, tractable);
    (comps, plan)
}

/// Solves one conflicting component, given by its ascending row
/// positions in `table`, with the planned method.
///
/// `trace` is Algorithm 2's trace of `Δ`, hoisted out of the
/// per-component loop, for the Dichotomy arm; the hard-side arms read
/// `index`, of `table` under `Δ` and keyed by position or by id. The
/// raw kept list is returned: per-component sorting and cost
/// accounting would be thrown away anyway — the merged list is sorted
/// and costed once, globally, in [`sharded_s_repair`].
pub(crate) fn solve_component(
    table: &Table,
    rows: &[u32],
    index: &ConflictIndex,
    trace: &Trace,
    method: SMethod,
) -> Vec<TupleId> {
    match method {
        SMethod::Dichotomy => ids_at(
            table,
            &crate::optsrepair::solve(table, rows, trace, 0)
                .expect("OSRSucceeds(Δ) holds on every block (Δ-only test)"),
        ),
        SMethod::ExactVertexCover => uncovered(table, index, rows, min_weight_vertex_cover),
        SMethod::Approx2 => uncovered(table, index, rows, vertex_cover_2approx),
    }
}

/// The ids of the rows at `rows` (ascending, a union of components)
/// outside `cover` of their conflict graph read off `index`.
pub(crate) fn uncovered(
    table: &Table,
    index: &ConflictIndex,
    rows: &[u32],
    cover: fn(&Graph) -> VertexCover,
) -> Vec<TupleId> {
    let covered = cover(&ConflictGraph::of_rows(table, index, rows).graph).nodes;
    let outside = |v: &usize| covered.binary_search(&(*v as u32)).is_err();
    (0..rows.len())
        .filter(outside)
        .map(|v| table.id_at(rows[v] as usize))
        .collect()
}

/// The trace label for a subset-repair method.
fn method_name(method: SMethod) -> &'static str {
    match method {
        SMethod::Dichotomy => "dichotomy",
        SMethod::ExactVertexCover => "exact_vc",
        SMethod::Approx2 => "approx2",
    }
}

/// Component-sharded optimal/approximate subset repairing: solves each
/// conflicting component of the conflict graph independently (fanned
/// out over [`ShardConfig::threads`] scoped threads), keeps every
/// conflict-free row untouched, and merges the per-component repairs
/// into one [`SRepair`] — bit-identical to the whole-table references.
///
/// # Examples
///
/// ```
/// use fd_core::{schema_rabc, tup, FdSet, Table};
/// use fd_srepair::{sharded_s_repair, ShardConfig};
///
/// let s = schema_rabc();
/// // Hard-side Δ, but every component is tiny: sharding keeps the
/// // exact method (and the optimality guarantee) that a whole-table
/// // cutoff would have abandoned.
/// let fds = FdSet::parse(&s, "A -> C; B -> C").unwrap();
/// let t = Table::build_unweighted(
///     s,
///     vec![tup![1, 1, 0], tup![1, 2, 1], tup![7, 8, 0], tup![9, 8, 1]],
/// ).unwrap();
/// let sol = sharded_s_repair(&t, &fds, &ShardConfig::default());
/// assert!(sol.plan.optimal);
/// assert_eq!(sol.plan.components, 2);
/// sol.repair.verify(&t, &fds);
/// ```
pub fn sharded_s_repair(table: &Table, fds: &FdSet, cfg: &ShardConfig) -> ShardedSolution {
    sharded_s_repair_indexed(table, fds, &ConflictIndex::build(table, fds), cfg)
}

/// [`sharded_s_repair`] over `index`, a position-keyed [`ConflictIndex`]
/// of `table` under `fds` that the caller already holds, as the update
/// solver's plan does for each component.
pub fn sharded_s_repair_indexed(
    table: &Table,
    fds: &FdSet,
    index: &ConflictIndex,
    cfg: &ShardConfig,
) -> ShardedSolution {
    let mut sharded_sp = fd_trace::span("srepair/sharded");
    sharded_sp.attr("rows", table.len());
    let (comps, plan) = shard_plan(table, fds, index, cfg);
    sharded_sp.attr("components", plan.components);
    sharded_sp.attr("largest", plan.largest);
    let tractable = plan
        .methods
        .first()
        .is_some_and(|(m, _)| *m == SMethod::Dichotomy);

    let mut kept: Vec<TupleId> = Vec::with_capacity(table.len());
    let mut work: Vec<&[u32]> = Vec::with_capacity(plan.components);
    for comp in comps.iter() {
        if comp.len() < 2 {
            kept.push(table.id_at(comp[0] as usize));
        } else {
            work.push(comp);
        }
    }

    let method_of = |len: usize| ShardPlan::component_method(tractable, len, cfg);
    let trace = recursion_trace(fds);
    let solved = fd_core::round_robin_map(cfg.threads, &work, |comp| {
        let method = method_of(comp.len());
        let mut sp = fd_trace::span("srepair/component");
        sp.attr("rows", comp.len());
        sp.attr("method", method_name(method));
        // "Escalated": exact vertex cover kept *beyond* the size cutoff
        // that would normally demote this component to the 2-approx.
        sp.attr(
            "escalated",
            method == SMethod::ExactVertexCover && comp.len() > cfg.component_exact_limit,
        );
        solve_component(table, comp, index, &trace, method)
    });
    for comp_kept in solved {
        kept.extend(comp_kept);
    }

    ShardedSolution {
        repair: SRepair::from_kept(table, kept),
        plan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_core::{schema_rabc, tup};
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

    #[test]
    fn tractable_sharding_is_bit_identical_to_algorithm_1() {
        let s = schema_rabc();
        let mut rng = StdRng::seed_from_u64(0x51A);
        for spec in ["A -> B", "A -> B C", "A -> B; A B -> C", "-> C; A -> B"] {
            let fds = FdSet::parse(&s, spec).unwrap();
            for threads in [1, 4] {
                let cfg = ShardConfig {
                    threads,
                    ..ShardConfig::default()
                };
                for _ in 0..15 {
                    let t = random_table(&mut rng, 50, 12);
                    let sharded = sharded_s_repair(&t, &fds, &cfg);
                    let global = crate::opt_s_repair(&t, &fds).unwrap();
                    assert_eq!(sharded.repair.kept, global.kept, "{spec} threads={threads}");
                    assert_eq!(sharded.repair.cost, global.cost);
                    assert!(sharded.plan.optimal);
                }
            }
        }
    }

    #[test]
    fn per_component_algorithm_1_matches_the_global_recursion_on_marriage_specs() {
        // Every marriage Δ of the adversarial pool, on small random
        // tables, weighted and unweighted: Algorithm 1 run on each
        // conflict component alone keeps exactly the rows the
        // whole-table recursion keeps — tie-breaks included, which is
        // what lets a marriage Δ shard and maintain incrementally.
        let marriage_specs = ["marriage", "two-cycle", "common-then-marriage"];
        let pool = fd_gen::adversarial::schema_pool();
        let cases: Vec<_> = pool
            .iter()
            .filter(|case| marriage_specs.contains(&case.name))
            .collect();
        assert_eq!(cases.len(), marriage_specs.len());
        for case in cases {
            let trace = recursion_trace(&case.fds);
            for seed in 0..1_000u64 {
                let rows = 2 + (seed as usize * 7) % 58;
                let domain = 2 + (seed as usize / 2) % 3;
                let t =
                    fd_gen::adversarial::sized_instance(case, rows, domain, seed % 2 == 1, seed);
                let index = ConflictIndex::build(&t, &case.fds);
                let mut kept = Vec::new();
                for comp in index_components(&index).iter() {
                    if comp.len() < 2 {
                        kept.push(t.id_at(comp[0] as usize));
                    } else {
                        let method = SMethod::Dichotomy;
                        kept.extend(solve_component(&t, comp, &index, &trace, method));
                    }
                }
                let global = crate::opt_s_repair(&t, &case.fds).unwrap();
                let ctx = format!("{} rows={rows} seed={seed}", case.name);
                assert_eq!(SRepair::from_kept(&t, kept).kept, global.kept, "{ctx}");
                // The sharded entry point, fanned out or not, agrees.
                let cfg = ShardConfig {
                    threads: 1 + 2 * (seed as usize % 2),
                    ..ShardConfig::default()
                };
                let sharded = sharded_s_repair(&t, &case.fds, &cfg);
                assert_eq!(sharded.repair, global, "{ctx}");
                assert!(sharded.plan.optimal, "{ctx}");
            }
        }
    }

    #[test]
    fn hard_side_exact_sharding_is_bit_identical_to_global_exact() {
        let s = schema_rabc();
        let mut rng = StdRng::seed_from_u64(0x51C);
        for spec in ["A -> B; B -> C", "A -> C; B -> C", "A B -> C; C -> B"] {
            let fds = FdSet::parse(&s, spec).unwrap();
            for _ in 0..15 {
                let t = random_table(&mut rng, 24, 9);
                let cfg = ShardConfig {
                    threads: 3,
                    component_exact_limit: usize::MAX,
                    force_exact: false,
                };
                let sharded = sharded_s_repair(&t, &fds, &cfg);
                let global = crate::exact_s_repair(&t, &fds);
                assert_eq!(sharded.repair.kept, global.kept, "{spec}\n{t}");
                assert_eq!(sharded.repair.cost, global.cost);
                assert!(sharded.plan.optimal);
                sharded.repair.verify(&t, &fds);
            }
        }
    }

    #[test]
    fn hard_side_approx_sharding_is_bit_identical_to_global_approx() {
        let s = schema_rabc();
        let mut rng = StdRng::seed_from_u64(0x51D);
        let fds = FdSet::parse(&s, "A -> B; B -> C").unwrap();
        for _ in 0..15 {
            let t = random_table(&mut rng, 40, 10);
            let cfg = ShardConfig {
                threads: 2,
                component_exact_limit: 0, // force the approximation everywhere
                force_exact: false,
            };
            let sharded = sharded_s_repair(&t, &fds, &cfg);
            let global = crate::approx_s_repair(&t, &fds);
            assert_eq!(sharded.repair.kept, global.kept, "{t}");
            assert_eq!(sharded.repair.cost, global.cost);
            assert!(!sharded.plan.optimal || sharded.plan.components == 0);
        }
    }

    #[test]
    fn per_component_exactness_beats_the_whole_table_cutoff() {
        // 30 rows of tiny hard-side components: a whole-table limit of 8
        // would abandon exactness; per-component it survives.
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> C; B -> C").unwrap();
        let rows = (0..30).map(|i| tup![(i / 2) as i64, 100 + (i / 2) as i64, (i % 2) as i64]);
        let t = Table::build_unweighted(s, rows).unwrap();
        let cfg = ShardConfig {
            component_exact_limit: 8,
            ..ShardConfig::default()
        };
        let sol = sharded_s_repair(&t, &fds, &cfg);
        assert!(sol.plan.optimal, "{:?}", sol.plan);
        assert_eq!(sol.plan.components, 15);
        assert_eq!(sol.plan.largest, 2);
        let exact = crate::exact_s_repair(&t, &fds);
        assert_eq!(sol.repair.cost, exact.cost);
    }

    #[test]
    fn consistent_and_empty_tables_short_circuit() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        let t = Table::build_unweighted(s.clone(), vec![tup![1, 1, 0], tup![2, 2, 0]]).unwrap();
        let sol = sharded_s_repair(&t, &fds, &ShardConfig::default());
        assert_eq!(sol.repair.cost, 0.0);
        assert_eq!(sol.repair.kept.len(), 2);
        assert_eq!(sol.plan.components, 0);
        assert_eq!(sol.plan.clean_rows, 2);
        assert!(sol.plan.optimal);

        let empty = Table::new(s);
        let sol = sharded_s_repair(&empty, &fds, &ShardConfig::default());
        assert!(sol.repair.kept.is_empty());
        assert_eq!(sol.repair.cost, 0.0);
    }

    #[test]
    fn force_exact_overrides_the_component_limit() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B; B -> C").unwrap();
        let rows = (0..14).map(|i| tup![(i % 3) as i64, (i % 2) as i64, (i % 5) as i64]);
        let t = Table::build_unweighted(s, rows).unwrap();
        let starved = ShardConfig {
            component_exact_limit: 0,
            force_exact: false,
            threads: 1,
        };
        assert!(!sharded_s_repair(&t, &fds, &starved).plan.optimal);
        let forced = ShardConfig {
            force_exact: true,
            ..starved
        };
        let sol = sharded_s_repair(&t, &fds, &forced);
        assert!(sol.plan.optimal);
        assert_eq!(sol.repair.cost, crate::exact_s_repair(&t, &fds).cost);
    }
}
