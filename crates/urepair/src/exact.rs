//! Exact optimal U-repairs for small tables, by branch-and-bound over
//! per-cell candidate values.
//!
//! ## Completeness of the candidate domain
//!
//! FD agreement compares values column-wise, so values in different columns
//! never interact. In any optimal update, a value `v` written into cells of
//! column `A` that is *not* in `A`'s active domain can be relabeled to a
//! fresh constant shared by exactly those cells: the agreement pattern of
//! column `A` is unchanged (no original cell holds `v`), hence consistency
//! and cost are preserved. Therefore some optimal update uses, per cell,
//! either (a) the original value, (b) another value from the *column's*
//! active domain, or (c) one of at most `n` per-column shared fresh
//! constants. The search explores exactly this space, with canonical
//! numbering of fresh constants (a cell may only "open" the next unused
//! fresh index of its column) to avoid symmetric duplicates.
//!
//! Exponential; guarded by a node budget. This is the oracle used to
//! validate the polynomial special cases of §4 and the `2|E| + k` identity
//! of Theorem 4.10 on small instances.

use crate::repair::{URepair, UpdateWriter};
use fd_core::{AttrId, AttrSet, FdSet, FreshSource, Table, Tuple, Value};

/// Which values a mutable cell may take — the §5 outlook's "restriction on
/// the allowed value updates".
#[derive(Clone, Debug, Default)]
pub enum DomainPolicy {
    /// The paper's §2.3 semantics: the column's active domain plus fresh
    /// constants from the infinite domain.
    #[default]
    Unrestricted,
    /// Only values already occurring in the cell's column. Always feasible
    /// (equalizing to any one tuple's values is consistent) but can be
    /// strictly costlier than [`DomainPolicy::Unrestricted`].
    ActiveDomain,
    /// Explicit per-attribute candidate sets (the original cell value is
    /// always allowed in addition). Attributes absent from the list admit
    /// only their original values. May be infeasible — use
    /// [`try_exact_u_repair`].
    Explicit(Vec<(AttrId, Vec<Value>)>),
}

/// Limits and hints for the exact search.
#[derive(Clone, Debug)]
pub struct ExactConfig {
    /// Upper bound on DFS nodes (candidate consistency checks).
    pub max_nodes: u64,
    /// A known consistent-update cost; the search prunes above it.
    pub initial_bound: Option<f64>,
    /// Restrict changes to these attributes (default: `attr(Δ)`).
    pub mutable_attrs: Option<AttrSet>,
    /// Value restriction for updated cells.
    pub domain_policy: DomainPolicy,
}

impl Default for ExactConfig {
    fn default() -> ExactConfig {
        ExactConfig {
            max_nodes: 50_000_000,
            initial_bound: None,
            mutable_attrs: None,
            domain_policy: DomainPolicy::Unrestricted,
        }
    }
}

/// Why the exact search returned no repair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExactError {
    /// No consistent update exists within the [`DomainPolicy`] (only
    /// possible with [`DomainPolicy::Explicit`]), or none costs less than
    /// [`ExactConfig::initial_bound`].
    NoRepair,
    /// The search visited [`ExactConfig::max_nodes`] nodes without
    /// finishing; the payload is that budget.
    BudgetExhausted(u64),
}

impl std::fmt::Display for ExactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExactError::NoRepair => write!(f, "the domain policy admits no consistent update"),
            ExactError::BudgetExhausted(nodes) => write!(
                f,
                "node budget exhausted ({nodes} nodes); instance too large"
            ),
        }
    }
}

impl std::error::Error for ExactError {}

/// Computes an optimal U-repair by exhaustive branch-and-bound.
///
/// # Panics
/// Panics if the node budget is exhausted (keep instances small; the
/// intended regime is ≤ ~9 rows over ≤ ~4 mutable attributes), or if the
/// configured [`DomainPolicy`] admits no consistent update — only possible
/// with [`DomainPolicy::Explicit`]. [`try_exact_u_repair`] returns both
/// as an [`ExactError`] instead.
pub fn exact_u_repair(table: &Table, fds: &FdSet, config: &ExactConfig) -> URepair {
    try_exact_u_repair(table, fds, config).unwrap_or_else(|e| panic!("exact_u_repair: {e}"))
}

/// [`exact_u_repair`], returning an [`ExactError`] when the search finds
/// no repair or runs out of its node budget.
pub fn try_exact_u_repair(
    table: &Table,
    fds: &FdSet,
    config: &ExactConfig,
) -> Result<URepair, ExactError> {
    if table.is_empty() || table.satisfies(fds) {
        return Ok(URepair::default());
    }
    let fds = fds.normalize_single_rhs();
    let mutable = config
        .mutable_attrs
        .unwrap_or_else(|| fds.attrs())
        .intersect(table.schema().all_attrs());
    let n = table.len();
    let arity = table.schema().arity();

    // Per mutable column: candidate values and (policy permitting) a
    // pre-minted fresh pool.
    let mut fresh = FreshSource::new();
    let mut domains: Vec<Vec<Value>> = vec![Vec::new(); arity];
    let mut pools: Vec<Vec<Value>> = vec![Vec::new(); arity];
    for attr in mutable.iter() {
        match &config.domain_policy {
            DomainPolicy::Unrestricted => {
                domains[attr.usize()] = table.column_domain(attr);
                pools[attr.usize()] = (0..n).map(|_| fresh.next()).collect();
            }
            DomainPolicy::ActiveDomain => {
                domains[attr.usize()] = table.column_domain(attr);
            }
            DomainPolicy::Explicit(allowed) => {
                if let Some((_, values)) = allowed.iter().find(|(a, _)| *a == attr) {
                    let mut vals = values.clone();
                    vals.dedup();
                    domains[attr.usize()] = vals;
                }
            }
        }
    }

    let rows: Vec<fd_core::Row> = table.rows().collect();
    let mut search = Search {
        fds: &fds,
        mutable,
        domains,
        pools,
        rows: &rows,
        assigned: Vec::with_capacity(n),
        used_fresh: vec![0usize; arity],
        best_cost: config.initial_bound.unwrap_or(f64::INFINITY),
        best: None,
        nodes: 0,
        max_nodes: config.max_nodes,
        exhausted: false,
    };
    search.dfs(0, 0.0);
    if search.exhausted {
        return Err(ExactError::BudgetExhausted(config.max_nodes));
    }
    let best = search.best.ok_or(ExactError::NoRepair)?;
    let mut writer = UpdateWriter::new(table);
    for (pos, (row, tuple)) in rows.iter().zip(best).enumerate() {
        for attr in row.tuple.disagreement(&tuple).iter() {
            writer.set(pos, attr, tuple.get(attr).clone());
        }
    }
    Ok(writer.finish())
}

struct Search<'a> {
    fds: &'a FdSet,
    mutable: AttrSet,
    domains: Vec<Vec<Value>>,
    pools: Vec<Vec<Value>>,
    rows: &'a [fd_core::Row],
    assigned: Vec<Tuple>,
    used_fresh: Vec<usize>,
    best_cost: f64,
    best: Option<Vec<Tuple>>,
    nodes: u64,
    max_nodes: u64,
    /// Set once `nodes` passes `max_nodes`; every frame then unwinds.
    exhausted: bool,
}

impl Search<'_> {
    fn dfs(&mut self, row_idx: usize, cost: f64) {
        if cost >= self.best_cost {
            return;
        }
        if row_idx == self.rows.len() {
            self.best_cost = cost;
            self.best = Some(self.assigned.clone());
            return;
        }
        let candidates = self.row_candidates(row_idx);
        for (extra, tuple, opened) in candidates {
            if cost + extra >= self.best_cost {
                break; // candidates are sorted by cost
            }
            self.nodes += 1;
            if self.nodes > self.max_nodes {
                self.exhausted = true;
                return;
            }
            if !self.consistent_with_assigned(&tuple) {
                continue;
            }
            for &a in &opened {
                self.used_fresh[a] += 1;
            }
            self.assigned.push(tuple);
            self.dfs(row_idx + 1, cost + extra);
            self.assigned.pop();
            for &a in &opened {
                self.used_fresh[a] -= 1;
            }
        }
    }

    /// All candidate tuples for one row with their extra cost and the
    /// columns whose next fresh constant they open, sorted by cost.
    #[allow(clippy::type_complexity)]
    fn row_candidates(&self, row_idx: usize) -> Vec<(f64, Tuple, Vec<usize>)> {
        let row = &self.rows[row_idx];
        let weight = row.weight;
        let mut combos: Vec<(f64, Vec<Value>, Vec<usize>)> = vec![(0.0, Vec::new(), Vec::new())];
        for attr_idx in 0..row.tuple.arity() {
            let attr = fd_core::AttrId::new(attr_idx as u16);
            let original = &row.tuple.values()[attr_idx];
            let mut options: Vec<(f64, Value, Option<usize>)> = vec![(0.0, original.clone(), None)];
            if self.mutable.contains(attr) {
                for v in &self.domains[attr_idx] {
                    if v != original {
                        options.push((weight, v.clone(), None));
                    }
                }
                // Reusable fresh constants already opened in this column…
                for j in 0..self.used_fresh[attr_idx] {
                    options.push((weight, self.pools[attr_idx][j].clone(), None));
                }
                // …plus the canonical "next" one.
                if self.used_fresh[attr_idx] < self.pools[attr_idx].len() {
                    options.push((
                        weight,
                        self.pools[attr_idx][self.used_fresh[attr_idx]].clone(),
                        Some(attr_idx),
                    ));
                }
            }
            let mut next = Vec::with_capacity(combos.len() * options.len());
            for (c, vals, opened) in &combos {
                for (oc, v, open) in &options {
                    let mut vals = vals.clone();
                    vals.push(v.clone());
                    let mut opened = opened.clone();
                    if let Some(a) = open {
                        opened.push(*a);
                    }
                    next.push((c + oc, vals, opened));
                }
            }
            combos = next;
        }
        let mut out: Vec<(f64, Tuple, Vec<usize>)> = combos
            .into_iter()
            .map(|(c, vals, opened)| (c, Tuple::new(vals), opened))
            .collect();
        out.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite costs"));
        out
    }

    fn consistent_with_assigned(&self, tuple: &Tuple) -> bool {
        for other in &self.assigned {
            for fd in self.fds.iter() {
                if tuple.agrees_on(other, fd.lhs()) && !tuple.agrees_on(other, fd.rhs()) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_core::{schema_rabc, tup, Schema, TupleId};

    fn solve(table: &Table, fds: &FdSet) -> URepair {
        exact_u_repair(table, fds, &ExactConfig::default())
    }

    #[test]
    fn consistent_table_costs_zero() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        let t = Table::build_unweighted(s, vec![tup![1, 1, 0], tup![2, 2, 0]]).unwrap();
        assert_eq!(solve(&t, &fds).cost, 0.0);
    }

    #[test]
    fn single_fd_equalizes_majority() {
        // A→B with three tuples in one A-group: change the minority B.
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        let t =
            Table::build_unweighted(s, vec![tup![1, 7, 0], tup![1, 7, 1], tup![1, 8, 2]]).unwrap();
        let r = solve(&t, &fds);
        assert_eq!(r.cost, 1.0);
        r.verify(&t, &fds);
    }

    #[test]
    fn weights_matter() {
        // The heavy tuple's value wins even against two light ones.
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
        let r = solve(&t, &fds);
        assert_eq!(r.cost, 2.0);
        r.verify(&t, &fds);
        assert_eq!(
            r.apply(&t)
                .row(TupleId(0))
                .unwrap()
                .tuple
                .get(fd_core::AttrId::new(1)),
            &fd_core::Value::from(8)
        );
    }

    #[test]
    fn fresh_lhs_break_beats_rhs_cascade() {
        // Example 2.3 / U1 of Figure 1: updating the lhs attribute of one
        // light tuple to a fresh value (cost 2 via weight) can beat
        // equalizing several rhs values.
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
        let r = solve(&t, &fds);
        // Figure 1's U1 has distance 2 and is optimal.
        assert_eq!(r.cost, 2.0);
        r.verify(&t, &fds);
    }

    #[test]
    fn consensus_fd_handled() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "-> C").unwrap();
        let t =
            Table::build_unweighted(s, vec![tup![1, 0, 5], tup![2, 0, 5], tup![3, 0, 6]]).unwrap();
        let r = solve(&t, &fds);
        assert_eq!(r.cost, 1.0);
        r.verify(&t, &fds);
    }

    #[test]
    fn chain_two_step_cascade() {
        // {A→B, B→C}: t2 must align both B and C, or break A-agreement.
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B; B -> C").unwrap();
        let t = Table::build_unweighted(s, vec![tup![1, 1, 1], tup![1, 2, 2]]).unwrap();
        let r = solve(&t, &fds);
        // Options: set t2.B:=1 then C must also match (cost 2); or
        // equalize B:=2 on t1 then C cascade (cost 2); or fresh t2.A
        // (cost 1): A-groups split, B→C still violated? B values 1,2
        // differ ⇒ no B-agreement ⇒ consistent. Cost 1.
        assert_eq!(r.cost, 1.0);
        r.verify(&t, &fds);
    }

    #[test]
    fn immutable_attrs_are_respected() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        let t = Table::build_unweighted(s.clone(), vec![tup![1, 1, 9], tup![1, 2, 9]]).unwrap();
        let cfg = ExactConfig {
            mutable_attrs: Some(AttrSet::singleton(s.attr("B").unwrap())),
            ..Default::default()
        };
        let r = exact_u_repair(&t, &fds, &cfg);
        r.verify(&t, &fds);
        assert_eq!(r.cost, 1.0); // must equalize B; cannot touch A
                                 // C column untouched by construction.
        for row in r.apply(&t).rows() {
            assert_eq!(
                row.tuple.get(s.attr("C").unwrap()),
                &fd_core::Value::from(9)
            );
        }
    }

    #[test]
    fn corollary_4_5_sandwich_on_random_tables() {
        use rand::prelude::*;
        // dist_sub(S*) ≤ dist_upd(U*) ≤ mlc(Δ)·dist_sub(S*) for
        // consensus-free Δ.
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> C; B -> C").unwrap(); // mlc = 2
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..6 {
            let n = rng.gen_range(2..6);
            let rows = (0..n).map(|_| {
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
            let u = solve(&t, &fds);
            u.verify(&t, &fds);
            let sr = fd_srepair::exact_s_repair(&t, &fds);
            assert!(sr.cost <= u.cost + 1e-9, "sub {} > upd {}", sr.cost, u.cost);
            assert!(
                u.cost <= 2.0 * sr.cost + 1e-9,
                "upd {} > mlc·sub {}",
                u.cost,
                2.0 * sr.cost
            );
        }
    }
}
