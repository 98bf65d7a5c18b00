//! Definition-level FD satisfaction, written directly from §2.2 with no
//! shared code with the solver crates: a table satisfies `X → Y` iff no
//! *pair* of tuples agrees on `X` while disagreeing on `Y`. Quadratic on
//! purpose — the oracle favors transcription fidelity over speed.

use fd_core::{FdSet, Table};

/// True iff `table` satisfies every FD of `fds`, checked pairwise.
pub fn satisfies_naive(table: &Table, fds: &FdSet) -> bool {
    let rows: Vec<fd_core::Row> = table.rows().collect();
    for fd in fds.iter() {
        for (i, a) in rows.iter().enumerate() {
            for b in &rows[i + 1..] {
                if a.tuple.agrees_on(&b.tuple, fd.lhs()) && !a.tuple.agrees_on(&b.tuple, fd.rhs()) {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_core::{schema_rabc, tup};

    #[test]
    fn agrees_with_the_core_implementation_on_small_tables() {
        let s = schema_rabc();
        let specs = ["A -> B", "A -> B; B -> C", "-> C", "A B -> C", ""];
        for spec in specs {
            let fds = FdSet::parse(&s, spec).unwrap();
            for bits in 0u32..(1 << 6) {
                // Six fixed tuples toggled in and out.
                let candidates = [
                    tup![1, 1, 1],
                    tup![1, 2, 1],
                    tup![2, 1, 1],
                    tup![1, 1, 2],
                    tup![2, 2, 2],
                    tup![2, 1, 2],
                ];
                let rows = candidates
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| bits & (1 << i) != 0)
                    .map(|(_, t)| t.clone());
                let t = Table::build_unweighted(s.clone(), rows).unwrap();
                assert_eq!(
                    satisfies_naive(&t, &fds),
                    t.satisfies(&fds),
                    "{spec} {bits:b}"
                );
            }
        }
    }

    #[test]
    fn consensus_fd_is_pairwise_too() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "-> C").unwrap();
        let ok = Table::build_unweighted(s.clone(), vec![tup![1, 2, 9], tup![3, 4, 9]]).unwrap();
        assert!(satisfies_naive(&ok, &fds));
        let bad = Table::build_unweighted(s, vec![tup![1, 2, 9], tup![3, 4, 8]]).unwrap();
        assert!(!satisfies_naive(&bad, &fds));
    }
}
