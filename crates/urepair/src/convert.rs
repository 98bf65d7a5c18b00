//! The S↔U conversions of Proposition 4.4.
//!
//! 1. A consistent update `U` yields a consistent subset `S` with
//!    `dist_sub(S, T) ≤ dist_upd(U, T)`: drop every tuple named by one of
//!    `U`'s row-ordered cells.
//! 2. For consensus-free `Δ`, a consistent subset `S` yields a consistent
//!    update `U` with `dist_upd(U, T) ≤ mlc(Δ) · dist_sub(S, T)`: rewrite
//!    the cells of a minimum lhs cover to fresh constants in every deleted
//!    tuple (written as `U`'s cells; no row is decoded), so deleted tuples
//!    agree with nothing on any lhs.
//!
//! These underlie Corollary 4.5 (the sandwich
//! `dist_sub(S*) ≤ dist_upd(U*) ≤ mlc(Δ) · dist_sub(S*)`), Corollary 4.6
//! (common lhs ⇒ the two problems coincide), and Theorem 4.12 (the
//! `2·mlc(Δ)` approximation).

use crate::repair::{URepair, UpdateWriter};
use fd_core::{FdSet, FreshSource, Table};
use fd_srepair::SRepair;

/// Proposition 4.4(1): the consistent subset induced by a consistent
/// update — keep exactly the tuples with no changed cell.
pub fn update_to_subset(original: &Table, update: &URepair) -> SRepair {
    let mut changed = update.cells.iter().map(|cell| cell.0).peekable();
    let kept = original.ids().filter(|&id| {
        let untouched = changed.peek() != Some(&id);
        while changed.next_if_eq(&id).is_some() {}
        untouched
    });
    SRepair::from_kept(original, kept.collect())
}

/// Proposition 4.4(2): the consistent update induced by a consistent
/// subset, for consensus-free `Δ`. Every deleted tuple gets fresh
/// constants on a minimum lhs cover, so it can agree with no tuple on any
/// lhs; kept tuples are untouched.
///
/// # Panics
/// Panics if `Δ` has a consensus FD (no lhs cover exists then; Theorem 4.3
/// strips consensus attributes first).
pub fn subset_to_update(original: &Table, subset: &SRepair, fds: &FdSet) -> URepair {
    let cover =
        fd_core::min_lhs_cover(fds).expect("Proposition 4.4(2) requires a consensus-free FD set");
    let kept = original.position_mask(&subset.kept);
    let mut writer = UpdateWriter::new(original);
    let mut fresh = FreshSource::new();
    for (pos, _) in kept.iter().enumerate().filter(|(_, &k)| !k) {
        for attr in cover.iter() {
            writer.set(pos, attr, fresh.next());
        }
    }
    writer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_core::{mlc, schema_rabc, tup, AttrId, TupleId, Value};
    use fd_srepair::exact_s_repair;
    use rand::prelude::*;

    #[test]
    fn update_to_subset_keeps_untouched_rows() {
        let t = Table::build_unweighted(
            schema_rabc(),
            vec![tup![1, 1, 1], tup![1, 2, 2], tup![3, 3, 3]],
        )
        .unwrap();
        let mut w = UpdateWriter::new(&t);
        w.set(1, AttrId::new(1), Value::from(1));
        w.set(1, AttrId::new(2), Value::from(1));
        let ur = w.finish();
        let sr = update_to_subset(&t, &ur);
        assert_eq!(sr.kept, vec![TupleId(0), TupleId(2)]);
        // dist_sub(S) = 1 ≤ dist_upd(U) = 2.
        assert!(sr.cost <= ur.cost);
    }

    #[test]
    fn subset_to_update_is_consistent_and_bounded() {
        let s = schema_rabc();
        // Consensus-free hard set with mlc = 2.
        let fds = FdSet::parse(&s, "A -> C; B -> C").unwrap();
        assert_eq!(mlc(&fds), Some(2));
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..10 {
            let n = rng.gen_range(3..9);
            let rows = (0..n).map(|_| {
                (
                    tup![
                        rng.gen_range(0..2i64),
                        rng.gen_range(0..2i64),
                        rng.gen_range(0..3i64)
                    ],
                    rng.gen_range(1..3) as f64,
                )
            });
            let t = Table::build(s.clone(), rows).unwrap();
            let sr = exact_s_repair(&t, &fds);
            let ur = subset_to_update(&t, &sr, &fds);
            ur.verify(&t, &fds);
            assert!(
                ur.cost <= 2.0 * sr.cost + 1e-9,
                "cost {} exceeds mlc·dist_sub {}",
                ur.cost,
                2.0 * sr.cost
            );
        }
    }

    #[test]
    fn common_lhs_conversion_costs_exactly_dist_sub() {
        // mlc = 1: Corollary 4.6's equality.
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B; A C -> B").unwrap();
        let t = Table::build(
            s,
            vec![
                (tup![1, 1, 0], 1.0),
                (tup![1, 2, 0], 2.0),
                (tup![2, 5, 5], 1.0),
            ],
        )
        .unwrap();
        let sr = exact_s_repair(&t, &fds);
        assert_eq!(sr.cost, 1.0);
        let ur = subset_to_update(&t, &sr, &fds);
        ur.verify(&t, &fds);
        assert_eq!(ur.cost, sr.cost);
    }

    #[test]
    #[should_panic(expected = "consensus-free")]
    fn subset_to_update_rejects_consensus() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "-> C").unwrap();
        let t = Table::build_unweighted(schema_rabc(), vec![tup![1, 1, 1]]).unwrap();
        let sr = exact_s_repair(&t, &fds);
        subset_to_update(&t, &sr, &fds);
    }
}
