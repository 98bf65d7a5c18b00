//! Mixed-operation repairs: deletions *and* updates — the §5 outlook.
//!
//! §5 asks for repairs mixing tuple deletions with value updates, "where
//! the cost depends on the operation type". The cost model here keeps the
//! paper's weight semantics and adds two multipliers,
//! [`MixedCosts`]`{ delete, update }`:
//!
//! * deleting tuple `t` costs `delete · w(t)`;
//! * changing one cell of `t` costs `update · w(t)`.
//!
//! `delete = update = 1` recovers a model where a deletion is as cheap as
//! one cell change — and then deleting dominates (Proposition 4.4(1)'s
//! construction removes any updated tuple instead, never increasing cost),
//! so the mixed optimum collapses to the optimal S-repair. The regime that
//! genuinely mixes is `update < delete < update · (cells a tuple needs)`:
//! see [`tests::mixing_strictly_beats_both_pure_strategies`].
//!
//! Provided here:
//!
//! * [`exact_mixed_repair`] / [`try_exact_mixed_repair`] — exhaustive
//!   optimum (enumerate deletion sets, exact U-repair on the survivors);
//!   small tables only;
//! * [`approx_mixed_repair`] — polynomial 2·r-style approximation: cover
//!   the conflicts with the Bar-Yehuda–Even vertex cover (Prop 3.3), then
//!   resolve each covered tuple by the cheaper of deletion and the
//!   Proposition 4.4(2) lhs-cover retagging;
//! * [`mixed_ratio_bound`] — the proven ratio of the approximation.

use crate::exact::{try_exact_u_repair, ExactConfig, ExactError};
use crate::repair::{write_cells, UpdateWriter};
use fd_core::{min_lhs_cover, AttrId, ConflictIndex, FdSet, FreshSource, Table, TupleId, Value};
use fd_graph::{vertex_cover_2approx, ConflictGraph};
use std::collections::HashSet;

/// Cost multipliers for the two operation types.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MixedCosts {
    /// Deleting tuple `t` costs `delete · w(t)`.
    pub delete: f64,
    /// Changing one cell of tuple `t` costs `update · w(t)`.
    pub update: f64,
}

impl MixedCosts {
    /// Unit costs: one deletion = one cell change = `w(t)`.
    pub const UNIT: MixedCosts = MixedCosts {
        delete: 1.0,
        update: 1.0,
    };

    /// Validates strictly positive, finite multipliers.
    pub fn new(delete: f64, update: f64) -> MixedCosts {
        assert!(
            delete > 0.0 && delete.is_finite() && update > 0.0 && update.is_finite(),
            "cost multipliers must be positive and finite"
        );
        MixedCosts { delete, update }
    }
}

/// A mixed repair: some tuples deleted, cells of the survivors possibly
/// updated.
#[derive(Clone, Debug, Default)]
pub struct MixedRepair {
    /// Identifiers of the deleted tuples, sorted.
    pub deleted: Vec<TupleId>,
    /// One `(id, attr, new value)` per changed cell of a surviving tuple,
    /// in row and then attribute order.
    pub cells: Vec<(TupleId, AttrId, Value)>,
    /// Total cost under the [`MixedCosts`] used to produce it.
    pub cost: f64,
}

impl MixedRepair {
    /// The repaired table: the surviving tuples of `original`, with every
    /// cell written.
    pub fn apply(&self, original: &Table) -> Table {
        let delete: HashSet<TupleId> = self.deleted.iter().copied().collect();
        write_cells(original.without(&delete), &self.cells)
    }

    /// Verifies consistency and the recorded cost; panics with a
    /// diagnostic otherwise. For tests and experiment harnesses.
    pub fn verify(&self, original: &Table, fds: &FdSet, costs: MixedCosts) {
        let repaired = self.apply(original);
        assert!(
            repaired.satisfies(fds),
            "mixed repair is not consistent: {:?}",
            repaired.violating_pair(fds)
        );
        let delete: HashSet<TupleId> = self.deleted.iter().copied().collect();
        let survivors = original.without(&delete);
        let upd = survivors
            .dist_upd(&repaired)
            .expect("repaired table must update the survivors");
        let cost = costs.delete * deleted_weight(original, &self.deleted) + costs.update * upd;
        assert!(
            (cost - self.cost).abs() < 1e-9,
            "recorded cost {} disagrees with recomputed {}",
            self.cost,
            cost
        );
    }
}

/// The total weight of the `deleted` tuples, summed in list order.
fn deleted_weight(original: &Table, deleted: &[TupleId]) -> f64 {
    deleted
        .iter()
        .map(|&id| original.weights()[original.position_of(id).expect("id from table")])
        .sum()
}

/// Exhaustive optimal mixed repair: enumerates every deletion set and
/// solves the exact U-repair on the survivors. Exponential; ≤ ~10 rows.
///
/// # Examples
///
/// ```
/// use fd_core::{schema_rabc, tup, FdSet, Table};
/// use fd_urepair::{exact_mixed_repair, ExactConfig, MixedCosts};
///
/// let s = schema_rabc();
/// let fds = FdSet::parse(&s, "A -> B").unwrap();
/// let t = Table::build_unweighted(s, vec![tup!["x", 1, 0], tup!["x", 2, 0]]).unwrap();
/// // Unit costs: deleting one conflicting tuple is optimal (cost 1).
/// let m = exact_mixed_repair(&t, &fds, MixedCosts::UNIT, &ExactConfig::default());
/// assert_eq!(m.cost, 1.0);
/// m.verify(&t, &fds, MixedCosts::UNIT);
/// ```
///
/// # Panics
/// Panics on more than 20 rows, or if an exact U-repair search runs out
/// of its node budget ([`try_exact_mixed_repair`] returns that instead).
pub fn exact_mixed_repair(
    table: &Table,
    fds: &FdSet,
    costs: MixedCosts,
    config: &ExactConfig,
) -> MixedRepair {
    try_exact_mixed_repair(table, fds, costs, config)
        .unwrap_or_else(|e| panic!("exact_mixed_repair: {e}"))
}

/// [`exact_mixed_repair`], returning [`ExactError::BudgetExhausted`] when
/// an exact U-repair search on some survivor set runs out of its node
/// budget (each search gets the full [`ExactConfig::max_nodes`]).
///
/// # Panics
/// Panics on more than 20 rows.
pub fn try_exact_mixed_repair(
    table: &Table,
    fds: &FdSet,
    costs: MixedCosts,
    config: &ExactConfig,
) -> Result<MixedRepair, ExactError> {
    let ids: Vec<TupleId> = table.ids().collect();
    let n = ids.len();
    assert!(n <= 20, "exact_mixed_repair is exhaustive; got {n} rows");
    let mut best: Option<MixedRepair> = None;
    for mask in 0u32..(1u32 << n) {
        let deleted: Vec<TupleId> = (0..n)
            .filter(|&i| mask & (1 << i) != 0)
            .map(|i| ids[i])
            .collect();
        let delete_cost = costs.delete * deleted_weight(table, &deleted);
        let bound = best.as_ref().map(|b| b.cost);
        if bound.is_some_and(|b| delete_cost >= b) {
            continue;
        }
        let survivors = table.without(&deleted.iter().copied().collect::<HashSet<_>>());
        let cfg = ExactConfig {
            initial_bound: bound.map(|b| (b - delete_cost) / costs.update),
            ..config.clone()
        };
        match try_exact_u_repair(&survivors, fds, &cfg) {
            Ok(upd) => {
                let cost = delete_cost + costs.update * upd.cost;
                if bound.is_none_or(|b| cost < b) {
                    let cells = upd.cells;
                    best = Some(MixedRepair {
                        deleted,
                        cells,
                        cost,
                    });
                }
            }
            // The bounded search found nothing better.
            Err(ExactError::NoRepair) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(best.expect("deleting everything is always a (costly) mixed repair"))
}

/// Polynomial approximation: 2-approximate vertex cover of the conflict
/// graph, then per covered tuple the cheaper of (a) deletion and (b) the
/// Proposition 4.4(2) retagging — every attribute of a minimum lhs cover
/// set to a tuple-private fresh constant. Retagging requires `Δ` to be
/// consensus free; otherwise deletion is used throughout.
///
/// The produced repair's cost is at most [`mixed_ratio_bound`] times the
/// optimal mixed cost.
pub fn approx_mixed_repair(table: &Table, fds: &FdSet, costs: MixedCosts) -> MixedRepair {
    let fds_n = fds.normalize_single_rhs().remove_trivial();
    let index = ConflictIndex::build(table, &fds_n);
    let rows: Vec<u32> = (0..table.len() as u32).collect();
    let cover = vertex_cover_2approx(&ConflictGraph::of_rows(table, &index, &rows).graph);

    let lhs_cover = fds_n.is_consensus_free().then(|| min_lhs_cover(&fds_n));

    let mut deleted: Vec<TupleId> = Vec::new();
    let mut writer = UpdateWriter::new(table);
    let mut fresh = FreshSource::new();
    let mut update_cost = 0.0;
    for v in cover.nodes {
        let pos = v as usize;
        let w = table.weights()[pos];
        match lhs_cover.flatten() {
            Some(cover) if costs.update * (cover.len() as f64) * w < costs.delete * w => {
                for attr in cover.iter() {
                    writer.set(pos, attr, fresh.next());
                }
                update_cost += (cover.len() as f64) * w;
            }
            _ => deleted.push(table.id_at(pos)),
        }
    }
    deleted.sort_unstable();
    // Summed in cover order, not the writer's row order: that would change its bits.
    let cost = costs.delete * deleted_weight(table, &deleted) + costs.update * update_cost;
    MixedRepair {
        deleted,
        cells: writer.finish().cells,
        cost,
    }
}

/// The proven approximation ratio of [`approx_mixed_repair`]:
///
/// * any mixed repair must delete or touch at least a vertex cover of the
///   conflict graph, so `OPT ≥ min(delete, update) · VC*`;
/// * the algorithm pays at most `2 · r · VC*` where
///   `r = min(delete, update · mlc(Δ))` (consensus-free) or `r = delete`
///   (otherwise);
///
/// giving `2 · r / min(delete, update)`. With unit costs and any FD set
/// this is exactly the paper's factor 2 (Proposition 3.3).
pub fn mixed_ratio_bound(fds: &FdSet, costs: MixedCosts) -> f64 {
    let fds_n = fds.normalize_single_rhs().remove_trivial();
    if fds_n.is_empty() {
        return 1.0; // no constraints, no repair needed
    }
    let r = if fds_n.is_consensus_free() {
        let m = fd_core::mlc(&fds_n).expect("nonempty FD set has an lhs cover");
        costs.delete.min(costs.update * m as f64)
    } else {
        costs.delete
    };
    2.0 * r / costs.delete.min(costs.update)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactConfig;
    use fd_core::{schema_rabc, tup, Schema};
    use fd_srepair::exact_s_repair;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn consistent_table_costs_nothing() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        let t = Table::build_unweighted(s, vec![tup!["x", 1, 0], tup!["y", 2, 0]]).unwrap();
        let m = exact_mixed_repair(&t, &fds, MixedCosts::UNIT, &ExactConfig::default());
        assert_eq!(m.cost, 0.0);
        assert!(m.deleted.is_empty());
        let a = approx_mixed_repair(&t, &fds, MixedCosts::UNIT);
        assert_eq!(a.cost, 0.0);
    }

    #[test]
    fn unit_costs_collapse_to_optimal_s_repair() {
        // With delete ≤ update, updating a tuple (≥ 1 cell · update · w)
        // never beats deleting it (delete · w), so the mixed optimum is
        // the optimal S-repair cost (Proposition 4.4(1) direction).
        let mut rng = StdRng::seed_from_u64(0x317d);
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B; B -> C").unwrap();
        for _ in 0..25 {
            let n = 2 + rng.gen_range(0..4);
            let rows: Vec<_> = (0..n)
                .map(|_| {
                    (
                        tup![
                            ["x", "y"][rng.gen_range(0..2usize)],
                            rng.gen_range(0..2) as i64,
                            rng.gen_range(0..2) as i64
                        ],
                        [1.0, 2.0][rng.gen_range(0..2usize)],
                    )
                })
                .collect();
            let t = Table::build(s.clone(), rows).unwrap();
            let mixed = exact_mixed_repair(&t, &fds, MixedCosts::UNIT, &ExactConfig::default());
            mixed.verify(&t, &fds, MixedCosts::UNIT);
            let s_opt = exact_s_repair(&t, &fds);
            assert!(
                (mixed.cost - s_opt.cost).abs() < 1e-9,
                "mixed {} vs S-repair {} on {t:?}",
                mixed.cost,
                s_opt.cost
            );
        }
    }

    #[test]
    fn huge_delete_cost_collapses_to_optimal_u_repair() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        let t = Table::build_unweighted(s, vec![tup!["x", 1, 0], tup!["x", 2, 0], tup!["x", 3, 0]])
            .unwrap();
        let costs = MixedCosts::new(1000.0, 1.0);
        let mixed = exact_mixed_repair(&t, &fds, costs, &ExactConfig::default());
        mixed.verify(&t, &fds, costs);
        assert!(mixed.deleted.is_empty());
        let u_opt = crate::exact::exact_u_repair(&t, &fds, &ExactConfig::default());
        assert!((mixed.cost - u_opt.cost).abs() < 1e-9);
    }

    #[test]
    fn mixing_strictly_beats_both_pure_strategies() {
        // R(A, B, C, D), Δ = {A → B, C → D}, costs delete = 1.5, update = 1.
        // Component 1 (t0, t1) conflicts via BOTH FDs: pure update needs 2
        // cells (2.0), deletion costs 1.5 → delete wins.
        // Component 2 (t2, t3) conflicts via A → B only: update needs 1
        // cell (1.0), deletion costs 1.5 → update wins.
        // Mixed optimum 2.5 < pure-delete 3.0 and < pure-update 3.0.
        let s = Schema::new("R", ["A", "B", "C", "D"]).unwrap();
        let fds = FdSet::parse(&s, "A -> B; C -> D").unwrap();
        let t = Table::build_unweighted(
            s,
            vec![
                tup!["a", 1, "c", 1],
                tup!["a", 2, "c", 2],
                tup!["p", 1, "q", 1],
                tup!["p", 2, "q", 1],
            ],
        )
        .unwrap();
        let costs = MixedCosts::new(1.5, 1.0);
        let mixed = exact_mixed_repair(&t, &fds, costs, &ExactConfig::default());
        mixed.verify(&t, &fds, costs);
        assert!((mixed.cost - 2.5).abs() < 1e-9, "mixed cost {}", mixed.cost);
        assert_eq!(mixed.deleted.len(), 1);

        let s_opt = exact_s_repair(&t, &fds);
        let u_opt = crate::exact::exact_u_repair(&t, &fds, &ExactConfig::default());
        assert!((s_opt.cost * costs.delete - 3.0).abs() < 1e-9);
        assert!((u_opt.cost * costs.update - 3.0).abs() < 1e-9);
    }

    #[test]
    fn approx_is_consistent_and_within_bound() {
        let mut rng = StdRng::seed_from_u64(0xa99c);
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B; B -> C").unwrap();
        for trial in 0..30 {
            let n = 2 + rng.gen_range(0..5);
            let rows: Vec<_> = (0..n)
                .map(|_| {
                    tup![
                        ["x", "y"][rng.gen_range(0..2usize)],
                        rng.gen_range(0..2) as i64,
                        rng.gen_range(0..2) as i64
                    ]
                })
                .collect();
            let t = Table::build_unweighted(s.clone(), rows).unwrap();
            let costs = MixedCosts::new([0.5, 1.0, 1.5, 3.0][trial % 4], 1.0);
            let approx = approx_mixed_repair(&t, &fds, costs);
            approx.verify(&t, &fds, costs);
            let exact = exact_mixed_repair(&t, &fds, costs, &ExactConfig::default());
            let bound = mixed_ratio_bound(&fds, costs);
            assert!(
                approx.cost <= bound * exact.cost + 1e-9,
                "trial {trial}: approx {} > {bound} × exact {} on {t:?}",
                approx.cost,
                exact.cost
            );
        }
    }

    #[test]
    fn unit_ratio_bound_is_two() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B; B -> C").unwrap();
        assert_eq!(mixed_ratio_bound(&fds, MixedCosts::UNIT), 2.0);
    }
}
