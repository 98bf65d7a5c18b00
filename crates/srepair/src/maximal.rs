//! Subset repairs in the §2.3 sense: consistent subsets that are
//! *maximal* (restoring any deleted tuple breaks consistency). The paper
//! notes that any consistent subset extends to an S-repair in polynomial
//! time with no increase of distance; this module makes that executable,
//! plus the corresponding checker.

use crate::repair::SRepair;
use fd_core::{FdSet, Table, TupleId};
use std::collections::HashSet;

/// True iff `repair` is a *subset repair*: consistent and not strictly
/// contained in another consistent subset.
pub fn is_subset_repair(table: &Table, fds: &FdSet, repair: &SRepair) -> bool {
    let kept: HashSet<TupleId> = repair.kept.iter().copied().collect();
    let current = table.subset(&kept);
    if !current.satisfies(fds) {
        return false;
    }
    for id in table.ids() {
        if kept.contains(&id) {
            continue;
        }
        let mut extended = kept.clone();
        extended.insert(id);
        if table.subset(&extended).satisfies(fds) {
            return false; // a deleted tuple can be restored
        }
    }
    true
}

/// Extends a consistent subset to a subset repair by greedily restoring
/// deleted tuples (in row order) whenever consistency allows. The distance
/// can only decrease.
pub fn make_maximal(table: &Table, fds: &FdSet, repair: &SRepair) -> SRepair {
    let mut kept: HashSet<TupleId> = repair.kept.iter().copied().collect();
    debug_assert!(
        table.subset(&kept).satisfies(fds),
        "input must be consistent"
    );
    for id in table.ids() {
        if kept.contains(&id) {
            continue;
        }
        kept.insert(id);
        if !table.subset(&kept).satisfies(fds) {
            kept.remove(&id);
        }
    }
    let mut kept: Vec<TupleId> = kept.into_iter().collect();
    kept.sort_unstable();
    SRepair::from_kept(table, kept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_s_repair;
    use fd_core::{schema_rabc, tup, Table};
    use rand::prelude::*;

    #[test]
    fn empty_subset_extends_to_a_repair() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        let t =
            Table::build_unweighted(s, vec![tup![1, 1, 0], tup![1, 2, 0], tup![2, 5, 0]]).unwrap();
        let empty = SRepair::from_kept(&t, vec![]);
        assert!(!is_subset_repair(&t, &fds, &empty));
        let maximal = make_maximal(&t, &fds, &empty);
        assert!(is_subset_repair(&t, &fds, &maximal));
        assert!(maximal.cost < empty.cost);
        // Greedy in row order keeps tuple 0 (blocking 1) and tuple 2.
        assert_eq!(maximal.kept, vec![fd_core::TupleId(0), fd_core::TupleId(2)]);
    }

    #[test]
    fn optimal_repairs_are_maximal() {
        // An optimal S-repair is in particular an S-repair (§2.3).
        let s = schema_rabc();
        let mut rng = StdRng::seed_from_u64(0x3A);
        for spec in ["A -> B", "A -> B; B -> C", "-> C"] {
            let fds = FdSet::parse(&s, spec).unwrap();
            for _ in 0..10 {
                let rows = (0..rng.gen_range(2..8)).map(|_| {
                    (
                        tup![
                            rng.gen_range(0..2i64),
                            rng.gen_range(0..2i64),
                            rng.gen_range(0..2i64)
                        ],
                        rng.gen_range(1..4) as f64,
                    )
                });
                let t = Table::build(s.clone(), rows).unwrap();
                let opt = exact_s_repair(&t, &fds);
                assert!(
                    is_subset_repair(&t, &fds, &opt),
                    "{spec}: optimal repair must be maximal\n{t}"
                );
                // make_maximal must be a no-op on it.
                let ext = make_maximal(&t, &fds, &opt);
                assert_eq!(ext.kept, opt.kept);
            }
        }
    }

    #[test]
    fn maximality_never_increases_distance() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        let mut rng = StdRng::seed_from_u64(0x3B);
        for _ in 0..20 {
            let rows = (0..6).map(|_| {
                (
                    tup![rng.gen_range(0..2i64), rng.gen_range(0..3i64), 0],
                    rng.gen_range(1..3) as f64,
                )
            });
            let t = Table::build(s.clone(), rows).unwrap();
            // Random consistent subset: greedily keep while consistent.
            let mut kept = Vec::new();
            for id in t.ids() {
                if rng.gen_bool(0.5) {
                    let mut trial: std::collections::HashSet<TupleId> =
                        kept.iter().copied().collect();
                    trial.insert(id);
                    if t.subset(&trial).satisfies(&fds) {
                        kept.push(id);
                    }
                }
            }
            let start = SRepair::from_kept(&t, kept);
            let maximal = make_maximal(&t, &fds, &start);
            assert!(maximal.cost <= start.cost + 1e-9);
            assert!(is_subset_repair(&t, &fds, &maximal));
        }
    }
}
