//! Update repairs in the §2.3 sense: consistent updates that are
//! *minimal* — restoring any set of updated cells to its original values
//! breaks consistency. As with subsets, any consistent update shrinks to a
//! U-repair in polynomial time with no increase of distance (greedy
//! single-cell restoration reaches a local minimum; checking full
//! set-minimality exactly is exponential in the number of changed cells
//! and provided for small updates).

use crate::repair::{write_cells, URepair, UpdateWriter};
use fd_core::{FdSet, Table};

/// Greedily restores changed cells (in row/attribute order) whenever the
/// result stays consistent. The distance never increases, and afterwards
/// no *single* cell can be restored.
pub fn make_minimal(original: &Table, fds: &FdSet, repair: &URepair) -> URepair {
    // The trial table is search state, checked after every restoration.
    let mut current = repair.apply(original);
    let mut changed = repair.cells.clone();
    loop {
        let before = changed.len();
        changed.retain(|&(id, attr, ref value)| {
            let old = original.value(id, attr).expect("id from table");
            current.set_value(id, attr, old).expect("id from table");
            let restored = current.satisfies(fds);
            if !restored {
                current
                    .set_value(id, attr, value.clone())
                    .expect("id from table");
            }
            !restored
        });
        if changed.len() == before {
            break;
        }
    }
    let mut writer = UpdateWriter::new(original);
    for (id, attr, value) in changed {
        let pos = original.position_of(id).expect("id from table");
        writer.set(pos, attr, value);
    }
    writer.finish()
}

/// True iff `repair` is a *U-repair*: consistent, and restoring any
/// nonempty subset of its changed cells breaks consistency. Exponential in
/// the number of changed cells (≤ 20).
pub fn is_update_repair(original: &Table, fds: &FdSet, repair: &URepair) -> bool {
    let updated = repair.apply(original);
    if !updated.satisfies(fds) {
        return false;
    }
    let changed = &repair.cells;
    assert!(
        changed.len() <= 20,
        "exhaustive minimality limited to 20 cells"
    );
    // Any restoration that stays consistent disproves minimality.
    (1u32..(1 << changed.len())).all(|mask| {
        let restored: Vec<_> = changed
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, &(id, attr, _))| (id, attr, original.value(id, attr).expect("id")))
            .collect();
        !write_cells(updated.clone(), &restored).satisfies(fds)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{exact_u_repair, ExactConfig};
    use fd_core::{schema_rabc, tup, AttrId, Value};
    use rand::prelude::*;

    #[test]
    fn wasteful_update_is_trimmed() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        let t = Table::build_unweighted(s, vec![tup![1, 1, 0], tup![1, 2, 0]]).unwrap();
        // Fix the violation (B := 1 on tuple 1) but also change an
        // unrelated cell (C on tuple 0).
        let mut u = UpdateWriter::new(&t);
        u.set(1, AttrId::new(1), Value::from(1));
        u.set(0, AttrId::new(2), Value::from(9));
        let wasteful = u.finish();
        assert_eq!(wasteful.cost, 2.0);
        assert!(!is_update_repair(&t, &fds, &wasteful));
        let trimmed = make_minimal(&t, &fds, &wasteful);
        assert_eq!(trimmed.cost, 1.0);
        assert!(is_update_repair(&t, &fds, &trimmed));
    }

    #[test]
    fn optimal_updates_are_update_repairs() {
        let s = schema_rabc();
        let mut rng = StdRng::seed_from_u64(0x4D);
        for spec in ["A -> B", "A -> B; B -> C", "-> C"] {
            let fds = FdSet::parse(&s, spec).unwrap();
            for _ in 0..8 {
                let rows = (0..rng.gen_range(2..5)).map(|_| {
                    (
                        tup![
                            rng.gen_range(0..2i64),
                            rng.gen_range(0..2i64),
                            rng.gen_range(0..2i64)
                        ],
                        1.0,
                    )
                });
                let t = Table::build(s.clone(), rows).unwrap();
                let opt = exact_u_repair(&t, &fds, &ExactConfig::default());
                assert!(
                    is_update_repair(&t, &fds, &opt),
                    "{spec}: an optimal U-repair is a U-repair\n{t}"
                );
                let trimmed = make_minimal(&t, &fds, &opt);
                assert!((trimmed.cost - opt.cost).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn restoration_interactions_are_respected() {
        // Restoring two cells together can break consistency even when
        // each alone is blocked; greedy handles singles, the exhaustive
        // checker catches the sets.
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        let t = Table::build_unweighted(s, vec![tup![1, 1, 0], tup![1, 2, 0]]).unwrap();
        // Change both conflicting cells (B of both tuples) to 7.
        let mut u = UpdateWriter::new(&t);
        u.set(0, AttrId::new(1), Value::from(7));
        u.set(1, AttrId::new(1), Value::from(7));
        let both = u.finish();
        assert!(both.apply(&t).satisfies(&fds));
        // Restoring either single cell alone re-violates; restoring both
        // returns to the original violation. So it *is* minimal…
        assert!(is_update_repair(&t, &fds, &both));
        // …but not optimal (cost 2 vs optimum 1), showing repair ⊋ optimal.
        let opt = exact_u_repair(&t, &fds, &ExactConfig::default());
        assert_eq!(opt.cost, 1.0);
        assert!(both.cost > opt.cost);
    }
}
