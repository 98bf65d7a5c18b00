//! Ground-truth optimal update repairs by exhaustive enumeration over
//! the paper's sufficient value sets, independent of `fd-urepair`.
//!
//! The §2.3 update semantics allows any value from an infinite domain,
//! but (as the paper's value-set lemma argues) some optimal update uses,
//! per cell of column `A`, only (a) the cell's original value, (b) a
//! value from `A`'s active domain in the *original* table, or (c) one of
//! at most `n` fresh constants shared within column `A`: any other value
//! can be renamed to a column-shared fresh constant without touching the
//! column-wise agreement pattern FDs observe. The oracle enumerates
//! exactly this space row by row, with the one symmetry break the lemma
//! justifies (a cell may only introduce the *next* unused fresh constant
//! of its column), checking consistency pairwise against the assigned
//! prefix and pruning on the accumulated `dist_upd`.
//!
//! Only attributes of `attr(Δ)` are ever changed — updating a column no
//! FD mentions can only add cost.

use fd_core::{AttrSet, FdSet, Row, Table, Value};

/// Hard cap on the exhaustive update search.
pub const MAX_UPDATE_ROWS: usize = 7;

/// A ground-truth update repair: final tuples per row and `dist_upd`.
#[derive(Clone, Debug)]
pub struct OracleUpdate {
    /// The updated table (same ids and weights as the original).
    pub updated: Table,
    /// `dist_upd` from the original.
    pub cost: f64,
}

/// Computes an optimal update repair by exhaustive search over the
/// sufficient value sets. Exponential; capped at [`MAX_UPDATE_ROWS`]
/// rows.
pub fn brute_update_repair(table: &Table, fds: &FdSet) -> OracleUpdate {
    assert!(
        table.len() <= MAX_UPDATE_ROWS,
        "brute_update_repair is exhaustive; got {} rows",
        table.len()
    );
    let fds = fds.normalize_single_rhs();
    let mutable = fds.attrs().intersect(table.schema().all_attrs());
    let rows: Vec<Row> = table.rows().collect();
    let n = rows.len();
    let arity = table.schema().arity();

    // Per column: active domain of the original table, plus a private
    // fresh pool ⊥(col, 0), ⊥(col, 1), … — tags chosen far outside any
    // range the global fresh counter hands out in-process, so oracle
    // constants can never alias engine output.
    let mut domains: Vec<Vec<Value>> = vec![Vec::new(); arity];
    for attr in mutable.iter() {
        domains[attr.usize()] = table.column_domain(attr);
    }
    let fresh =
        |col: usize, j: usize| Value::Fresh(0xF00D_0000_0000 + (col as u64) * 64 + j as u64);

    struct State<'a> {
        fds: &'a FdSet,
        mutable: AttrSet,
        domains: &'a [Vec<Value>],
        rows: &'a [Row],
        assigned: Vec<fd_core::Tuple>,
        used_fresh: Vec<usize>,
        best_cost: f64,
        best: Option<Vec<fd_core::Tuple>>,
    }

    impl State<'_> {
        fn consistent_with_prefix(&self, tuple: &fd_core::Tuple) -> bool {
            self.assigned.iter().all(|earlier| {
                self.fds.iter().all(|fd| {
                    !tuple.agrees_on(earlier, fd.lhs()) || tuple.agrees_on(earlier, fd.rhs())
                })
            })
        }

        fn dfs(&mut self, idx: usize, cost: f64, fresh: &dyn Fn(usize, usize) -> Value, n: usize) {
            if cost >= self.best_cost {
                return;
            }
            if idx == self.rows.len() {
                self.best_cost = cost;
                self.best = Some(self.assigned.clone());
                return;
            }
            let row = &self.rows[idx];
            // Build this row's candidate tuples: per mutable cell the
            // original value (cost 0), the column's active domain, the
            // fresh constants already open in the column, and the one
            // canonical next fresh constant.
            let mut candidates: Vec<(f64, fd_core::Tuple, Vec<usize>)> =
                vec![(0.0, row.tuple.clone(), Vec::new())];
            for attr in self.mutable.iter() {
                let col = attr.usize();
                let original = row.tuple.get(attr).clone();
                let mut options: Vec<(f64, Value, Option<usize>)> =
                    vec![(0.0, original.clone(), None)];
                for v in &self.domains[col] {
                    if *v != original {
                        options.push((row.weight, v.clone(), None));
                    }
                }
                for j in 0..self.used_fresh[col] {
                    options.push((row.weight, fresh(col, j), None));
                }
                if self.used_fresh[col] < n {
                    options.push((row.weight, fresh(col, self.used_fresh[col]), Some(col)));
                }
                let mut next = Vec::with_capacity(candidates.len() * options.len());
                for (c, tuple, opens) in &candidates {
                    for (oc, v, open) in &options {
                        let mut tuple = tuple.clone();
                        tuple.set(attr, v.clone());
                        let mut opens = opens.clone();
                        if let Some(col) = open {
                            opens.push(*col);
                        }
                        next.push((c + oc, tuple, opens));
                    }
                }
                candidates = next;
            }
            // Cheap candidates first, so the bound tightens early.
            candidates.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite costs"));
            for (extra, tuple, opens) in candidates {
                if cost + extra >= self.best_cost {
                    break;
                }
                if !self.consistent_with_prefix(&tuple) {
                    continue;
                }
                for &col in &opens {
                    self.used_fresh[col] += 1;
                }
                self.assigned.push(tuple);
                self.dfs(idx + 1, cost + extra, fresh, n);
                self.assigned.pop();
                for &col in &opens {
                    self.used_fresh[col] -= 1;
                }
            }
        }
    }

    // Seed bound: make every row agree with row 0 on all mutable
    // attributes — always consistent, so the search starts with a real
    // (if crude) repair and prunes against it.
    let seed_bound = rows
        .iter()
        .skip(1)
        .map(|r| {
            let differing = mutable
                .iter()
                .filter(|&a| r.tuple.get(a) != rows[0].tuple.get(a))
                .count();
            r.weight * differing as f64
        })
        .sum::<f64>();

    let mut state = State {
        fds: &fds,
        mutable,
        domains: &domains,
        rows: &rows,
        assigned: Vec::with_capacity(n),
        used_fresh: vec![0; arity],
        best_cost: seed_bound + 1e-9,
        best: None,
    };
    if n > 0 {
        state.dfs(0, 0.0, &fresh, n);
    }

    let mut updated = table.clone();
    if let Some(best) = state.best {
        for (row, tuple) in rows.iter().zip(best) {
            for attr in row.tuple.disagreement(&tuple).iter() {
                updated
                    .set_value(row.id, attr, tuple.get(attr).clone())
                    .expect("id from table");
            }
        }
        let cost = table.dist_upd(&updated).expect("only cells changed");
        OracleUpdate { updated, cost }
    } else {
        // The search never beat the seed bound: materialize the seed
        // repair (align every row with row 0 on the mutable columns).
        for row in rows.iter().skip(1) {
            for attr in mutable.iter() {
                let v = rows[0].tuple.get(attr).clone();
                if row.tuple.get(attr) != &v {
                    updated.set_value(row.id, attr, v).expect("id from table");
                }
            }
        }
        let cost = table.dist_upd(&updated).expect("only cells changed");
        OracleUpdate { updated, cost }
    }
}

/// Convenience: the optimal `dist_upd` alone.
pub fn brute_update_cost(table: &Table, fds: &FdSet) -> f64 {
    brute_update_repair(table, fds).cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::satisfies_naive;
    use fd_core::{schema_rabc, tup, Schema};

    #[test]
    fn consistent_table_costs_zero() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        let t = Table::build_unweighted(s, vec![tup![1, 1, 0], tup![2, 2, 0]]).unwrap();
        let r = brute_update_repair(&t, &fds);
        assert_eq!(r.cost, 0.0);
    }

    #[test]
    fn majority_equalization() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        let t =
            Table::build_unweighted(s, vec![tup![1, 7, 0], tup![1, 7, 1], tup![1, 8, 2]]).unwrap();
        let r = brute_update_repair(&t, &fds);
        assert_eq!(r.cost, 1.0);
        assert!(satisfies_naive(&r.updated, &fds));
    }

    #[test]
    fn figure_1_update_optimum_is_two() {
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
        let r = brute_update_repair(&t, &fds);
        assert_eq!(r.cost, 2.0);
        assert!(satisfies_naive(&r.updated, &fds));
    }

    #[test]
    fn shared_fresh_constants_are_reachable() {
        // {A→B, B→C} with two tuples agreeing on A via an immutable-ish
        // pattern: breaking the A-group with one fresh cell costs 1,
        // which requires the fresh branch of the search.
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B; B -> C").unwrap();
        let t = Table::build_unweighted(s, vec![tup![1, 1, 1], tup![1, 2, 2]]).unwrap();
        let r = brute_update_repair(&t, &fds);
        assert_eq!(r.cost, 1.0);
        assert!(satisfies_naive(&r.updated, &fds));
    }

    #[test]
    fn weighted_cells_count_per_change() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        let t = Table::build(
            s,
            vec![
                (tup![1, 7, 0], 1.0),
                (tup![1, 7, 1], 1.0),
                (tup![1, 8, 2], 5.0),
            ],
        )
        .unwrap();
        let r = brute_update_repair(&t, &fds);
        assert_eq!(r.cost, 2.0);
    }

    #[test]
    fn consensus_fd_equalizes_the_minority() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "-> C").unwrap();
        let t =
            Table::build_unweighted(s, vec![tup![1, 0, 5], tup![2, 0, 5], tup![3, 0, 6]]).unwrap();
        let r = brute_update_repair(&t, &fds);
        assert_eq!(r.cost, 1.0);
    }
}
