//! Proposition 4.9: under `Δ = {A → B, B → A}` an optimal U-repair is
//! computable in polynomial time, with `dist_upd(U*) = dist_sub(S*)`
//! despite `mlc(Δ) = 2`.
//!
//! Construction (from the proof): compute an optimal S-repair `S*`
//! (Algorithm 1 succeeds via the lhs marriage). Every deleted tuple `t`
//! must share its `A` value or its `B` value with some kept tuple `s` —
//! otherwise `t` could have been kept. Copy the missing half from `s`
//! (one cell, weight `w_t`), turning `t` into a copy of a kept `(A, B)`
//! combination; the result is consistent and matches the `dist_sub` lower
//! bound of Corollary 4.5.

use crate::repair::{URepair, UpdateWriter};
use fd_core::{AttrId, ConflictIndex, FdSet, FnvBuild, Sym, Table};
use fd_srepair::{sharded_s_repair_indexed, ShardConfig};
use std::collections::HashMap;

/// Detects whether `Δ` is equivalent to a two-cycle `{A → B, B → A}` over
/// single attributes: `attr(Δ)` (after dropping trivial FDs) is `{A, B}`
/// and both directions are entailed. Returns `(A, B)`.
pub fn detect_two_cycle(fds: &FdSet) -> Option<(AttrId, AttrId)> {
    let work = fds.remove_trivial();
    let attrs = work.attrs();
    if attrs.len() != 2 || work.is_empty() {
        return None;
    }
    let mut it = attrs.iter();
    let (a, b) = (it.next()?, it.next()?);
    let ab = fd_core::Fd::new(
        fd_core::AttrSet::singleton(a),
        fd_core::AttrSet::singleton(b),
    );
    let ba = fd_core::Fd::new(
        fd_core::AttrSet::singleton(b),
        fd_core::AttrSet::singleton(a),
    );
    (work.entails(&ab) && work.entails(&ba)).then_some((a, b))
}

/// Optimal U-repair for a two-cycle `{A → B, B → A}` (Proposition 4.9).
///
/// # Panics
/// Panics if `Δ` is not a two-cycle (use [`detect_two_cycle`] first).
pub fn two_cycle_u_repair(table: &Table, fds: &FdSet) -> URepair {
    two_cycle_over(table, fds, &ConflictIndex::build(table, fds))
}

/// [`two_cycle_u_repair`] over `index`, the update plan's index of
/// `table` under `fds`.
pub(crate) fn two_cycle_over(table: &Table, fds: &FdSet, index: &ConflictIndex) -> URepair {
    let (a, b) = detect_two_cycle(fds).expect("Δ must be a two-cycle {A→B, B→A}");
    // Two-cycles pass OSRSucceeds via the lhs marriage, so the sharded
    // path solves every component with Algorithm 1.
    let sr = sharded_s_repair_indexed(table, fds, index, &ShardConfig::default()).repair;
    let kept = table.position_mask(&sr.kept);
    let (col_a, col_b) = (table.col(a), table.col(b));
    // Kept tuples index, in symbols: A value → B value and B value → A value.
    let mut by_a: HashMap<Sym, Sym, FnvBuild> = HashMap::default();
    let mut by_b: HashMap<Sym, Sym, FnvBuild> = HashMap::default();
    for pos in (0..table.len()).filter(|&pos| kept[pos]) {
        by_a.insert(col_a[pos], col_b[pos]);
        by_b.insert(col_b[pos], col_a[pos]);
    }
    let mut writer = UpdateWriter::new(table);
    for pos in (0..table.len()).filter(|&pos| !kept[pos]) {
        if let Some(&bv) = by_a.get(&col_a[pos]) {
            writer.set(pos, b, table.dictionary().decode(bv));
        } else if let Some(&av) = by_b.get(&col_b[pos]) {
            writer.set(pos, a, table.dictionary().decode(av));
        } else {
            unreachable!(
                "optimal S-repair would have kept a tuple sharing no A or B \
                 value with the kept set (Proposition 4.9)"
            );
        }
    }
    writer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{exact_u_repair, ExactConfig};
    use fd_core::{schema_rabc, tup, Schema};
    use fd_srepair::opt_s_repair;
    use rand::prelude::*;

    #[test]
    fn detects_two_cycles() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B; B -> A").unwrap();
        let (a, b) = detect_two_cycle(&fds).unwrap();
        assert_eq!(s.attr_name(a), "A");
        assert_eq!(s.attr_name(b), "B");
        // Equivalent formulations count too.
        let fds2 = FdSet::parse(&s, "A -> A B; B -> A").unwrap();
        assert!(detect_two_cycle(&fds2).is_some());
        // Non-examples.
        for spec in ["A -> B", "A -> B; B -> C", "A -> B; B -> A; B -> C"] {
            assert!(
                detect_two_cycle(&FdSet::parse(&s, spec).unwrap()).is_none(),
                "{spec}"
            );
        }
    }

    #[test]
    fn cost_equals_dist_sub_of_optimal_s_repair() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B; B -> A").unwrap();
        let t = Table::build(
            s,
            vec![
                (tup![1, 2, 0], 1.0),
                (tup![1, 3, 0], 1.0),
                (tup![9, 2, 0], 1.0),
                (tup![9, 3, 0], 1.0),
            ],
        )
        .unwrap();
        let u = two_cycle_u_repair(&t, &fds);
        u.verify(&t, &fds);
        let sr = opt_s_repair(&t, &fds).unwrap();
        assert_eq!(u.cost, sr.cost);
        assert_eq!(u.cost, 2.0);
    }

    #[test]
    fn matches_exact_search_on_random_instances() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B; B -> A").unwrap();
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..8 {
            let n = rng.gen_range(2..6);
            let rows = (0..n).map(|_| {
                (
                    tup![rng.gen_range(0..3i64), rng.gen_range(0..3i64), 0],
                    rng.gen_range(1..3) as f64,
                )
            });
            let t = Table::build(s.clone(), rows).unwrap();
            let fast = two_cycle_u_repair(&t, &fds);
            fast.verify(&t, &fds);
            let slow = exact_u_repair(&t, &fds, &ExactConfig::default());
            assert!(
                (fast.cost - slow.cost).abs() < 1e-9,
                "fast={} exact={}\n{t}",
                fast.cost,
                slow.cost
            );
        }
    }

    #[test]
    fn works_on_renamed_attributes() {
        let s = Schema::new("Passport", ["id", "passport", "holder"]).unwrap();
        let fds = FdSet::parse(&s, "id -> passport; passport -> id").unwrap();
        let t = Table::build_unweighted(s, vec![tup![1, "p1", "x"], tup![1, "p2", "y"]]).unwrap();
        let u = two_cycle_u_repair(&t, &fds);
        u.verify(&t, &fds);
        assert_eq!(u.cost, 1.0);
    }
}
