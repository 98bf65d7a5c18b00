//! Ground-truth optimal subset repairs by exhaustive search over tuple
//! subsets — a direct transcription of Definition 2.2/§2.3, sharing no
//! code with `fd-srepair` (no conflict graph, no vertex cover, no
//! simplification): enumerate candidate deletion sets in a
//! branch-and-bound over the rows, check consistency pairwise, keep the
//! cheapest consistent subset.

use crate::check::satisfies_naive;
use fd_core::{FdSet, Row, Table, TupleId};

/// Hard cap on the exhaustive subset search.
pub const MAX_SUBSET_ROWS: usize = 24;

/// A ground-truth subset repair: the kept identifiers (sorted) and
/// `dist_sub` from the original.
#[derive(Clone, Debug, PartialEq)]
pub struct OracleSubset {
    /// Identifiers of the kept tuples, sorted.
    pub kept: Vec<TupleId>,
    /// Total weight of the deleted tuples.
    pub cost: f64,
}

/// Computes an optimal subset repair by branch-and-bound over
/// keep/delete decisions per row (pairwise consistency against the kept
/// prefix, prune when the deleted weight reaches the best known cost).
/// Exponential; capped at [`MAX_SUBSET_ROWS`] rows.
pub fn brute_subset_repair(table: &Table, fds: &FdSet) -> OracleSubset {
    assert!(
        table.len() <= MAX_SUBSET_ROWS,
        "brute_subset_repair is exhaustive; got {} rows",
        table.len()
    );
    let rows: Vec<Row> = table.rows().collect();
    let conflict = |a: &Row, b: &Row| {
        fds.iter().any(|fd| {
            a.tuple.agrees_on(&b.tuple, fd.lhs()) && !a.tuple.agrees_on(&b.tuple, fd.rhs())
        })
    };
    let solved = search(&rows, &|_| false, &conflict);
    debug_assert!({
        let kept: std::collections::HashSet<TupleId> = solved.kept.iter().copied().collect();
        satisfies_naive(&table.subset(&kept), fds)
    });
    solved
}

/// The same exhaustive search for *any* pairwise constraint family
/// (CFDs, denial constraints): `single(t)` marks tuples inconsistent on
/// their own, `pair(t, s)` marks jointly-violating pairs. This is the
/// generic ground truth `constraint_subset_report` is checked against.
pub fn brute_subset_by_conflicts(
    table: &Table,
    single: &dyn Fn(&Row) -> bool,
    pair: &dyn Fn(&Row, &Row) -> bool,
) -> OracleSubset {
    assert!(
        table.len() <= MAX_SUBSET_ROWS,
        "brute_subset_by_conflicts is exhaustive; got {} rows",
        table.len()
    );
    let rows: Vec<Row> = table.rows().collect();
    search(&rows, single, pair)
}

/// Branch-and-bound: decide each row in order; keeping a row requires it
/// to be single-consistent and pairwise-consistent with everything kept
/// so far, deleting it adds its weight; prune when the running deletion
/// weight can no longer beat the best complete solution.
fn search(
    rows: &[Row],
    single: &dyn Fn(&Row) -> bool,
    pair: &dyn Fn(&Row, &Row) -> bool,
) -> OracleSubset {
    struct State<'a> {
        rows: &'a [Row],
        single: &'a dyn Fn(&Row) -> bool,
        pair: &'a dyn Fn(&Row, &Row) -> bool,
        kept: Vec<usize>,
        best_cost: f64,
        best_kept: Vec<usize>,
    }
    fn dfs(state: &mut State<'_>, idx: usize, deleted_weight: f64) {
        if deleted_weight >= state.best_cost {
            return;
        }
        if idx == state.rows.len() {
            state.best_cost = deleted_weight;
            state.best_kept = state.kept.clone();
            return;
        }
        let row = &state.rows[idx];
        // Branch 1: keep the row, if nothing kept so far conflicts.
        let keepable = !(state.single)(row)
            && state
                .kept
                .iter()
                .all(|&j| !(state.pair)(&state.rows[j], row));
        if keepable {
            state.kept.push(idx);
            dfs(state, idx + 1, deleted_weight);
            state.kept.pop();
        }
        // Branch 2: delete the row.
        dfs(state, idx + 1, deleted_weight + row.weight);
    }
    let mut state = State {
        rows,
        single,
        pair,
        kept: Vec::new(),
        best_cost: f64::INFINITY,
        best_kept: Vec::new(),
    };
    dfs(&mut state, 0, 0.0);
    let mut kept: Vec<TupleId> = state.best_kept.iter().map(|&i| rows[i].id).collect();
    kept.sort_unstable();
    OracleSubset {
        kept,
        cost: state.best_cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_core::{schema_rabc, tup, Schema, Table};

    #[test]
    fn figure_1_optimum_is_two() {
        let s = Schema::new("Office", ["facility", "room", "floor", "city"]).unwrap();
        let fds = FdSet::parse(&s, "facility -> city; facility room -> floor").unwrap();
        let t = Table::build(
            s,
            vec![
                (tup!["HQ", 322, 3, "Paris"], 2.0),
                (tup!["HQ", 322, 30, "Madrid"], 1.0),
                (tup!["HQ", 122, 1, "Madrid"], 1.0),
                (tup!["Lab1", "B35", 3, "London"], 2.0),
            ],
        )
        .unwrap();
        let r = brute_subset_repair(&t, &fds);
        assert_eq!(r.cost, 2.0);
        assert_eq!(r.kept.len(), 2);
    }

    #[test]
    fn weights_steer_the_choice() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        let t = Table::build(
            s,
            vec![
                (tup![1, 1, 0], 5.0),
                (tup![1, 2, 0], 1.0),
                (tup![1, 3, 0], 1.0),
            ],
        )
        .unwrap();
        let r = brute_subset_repair(&t, &fds);
        assert_eq!(r.cost, 2.0);
        assert_eq!(r.kept, vec![fd_core::TupleId(0)]);
    }

    #[test]
    fn consistent_table_keeps_everything() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B C").unwrap();
        let t = Table::build_unweighted(s, vec![tup![1, 1, 1], tup![2, 2, 2]]).unwrap();
        let r = brute_subset_repair(&t, &fds);
        assert_eq!(r.cost, 0.0);
        assert_eq!(r.kept.len(), 2);
    }

    #[test]
    fn single_tuple_violations_force_deletion() {
        let s = schema_rabc();
        let t = Table::build(
            schema_rabc(),
            vec![(tup![1, 1, 0], 1.0), (tup![9, 1, 0], 2.0)],
        )
        .unwrap();
        // A synthetic unary constraint: A must not be 9.
        let a = s.attr("A").unwrap();
        let single = |r: &fd_core::Row| r.tuple.get(a) == &fd_core::Value::from(9);
        let pair = |_: &fd_core::Row, _: &fd_core::Row| false;
        let r = brute_subset_by_conflicts(&t, &single, &pair);
        assert_eq!(r.cost, 2.0);
        assert_eq!(r.kept, vec![fd_core::TupleId(0)]);
    }
}
