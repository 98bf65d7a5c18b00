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
    exact_search(table, fds, config).0
}

/// [`try_exact_u_repair`] with the search's [`Effort`].
fn exact_search(
    table: &Table,
    fds: &FdSet,
    config: &ExactConfig,
) -> (Result<URepair, ExactError>, Effort) {
    if table.is_empty() || table.satisfies(fds) {
        return (Ok(URepair::default()), Effort::default());
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
        effort: Effort::default(),
        max_nodes: config.max_nodes,
        exhausted: false,
    };
    search.dfs(0, 0.0);
    let effort = search.effort;
    debug_assert!(effort.produced <= effort.nodes + effort.frames);
    if search.exhausted {
        return (Err(ExactError::BudgetExhausted(config.max_nodes)), effort);
    }
    let Some(best) = search.best else {
        return (Err(ExactError::NoRepair), effort);
    };
    let mut writer = UpdateWriter::new(table);
    for (pos, (row, tuple)) in rows.iter().zip(best).enumerate() {
        for attr in row.tuple.disagreement(&tuple).iter() {
            writer.set(pos, attr, tuple.get(attr).clone());
        }
    }
    (Ok(writer.finish()), effort)
}

/// What one exact search did: each node is a candidate checked against
/// the rows assigned so far, each frame a row whose candidates were
/// drawn.
#[derive(Clone, Copy, Debug, Default)]
struct Effort {
    nodes: u64,
    frames: u64,
    /// Candidate tuples produced: one per node, plus at most one per
    /// frame that the cost bound or the budget turned away.
    produced: u64,
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
    effort: Effort,
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
        self.effort.frames += 1;
        for (extra, tuple, opened) in self.row_candidates(row_idx) {
            self.effort.produced += 1;
            if cost + extra >= self.best_cost {
                break; // candidates come in cost order
            }
            self.effort.nodes += 1;
            if self.effort.nodes > self.max_nodes {
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

    /// The candidate tuples for one row, drawn lazily in cost order.
    /// Each attribute's options are the original value, then (when
    /// mutable) the other values of the column's domain, the fresh
    /// constants already opened in this column, and the canonical next
    /// one.
    fn row_candidates(&self, row_idx: usize) -> Candidates {
        let row = &self.rows[row_idx];
        let options = row
            .tuple
            .values()
            .iter()
            .enumerate()
            .map(|(attr_idx, original)| {
                let mut options = vec![(original.clone(), None)];
                if self.mutable.contains(AttrId::new(attr_idx as u16)) {
                    let used = self.used_fresh[attr_idx];
                    let pool = &self.pools[attr_idx];
                    options.extend(
                        self.domains[attr_idx]
                            .iter()
                            .filter(|v| *v != original)
                            .chain(&pool[..used])
                            .map(|v| (v.clone(), None)),
                    );
                    if let Some(next) = pool.get(used) {
                        options.push((next.clone(), Some(attr_idx)));
                    }
                }
                options
            })
            .collect();
        Candidates::new(options, row.weight)
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

/// One row's candidate tuples, each with its extra cost and the columns
/// whose next fresh constant it opens, produced one at a time in the
/// order a stable sort by cost of the options' cross product lists
/// them: by cost (changed cells × weight), then in the cross product's
/// generation order (lexicographic in option indices, first attribute
/// most significant). Each candidate costs `O(arity)`.
struct Candidates {
    /// Per attribute: its options, the original value first.
    options: Vec<Vec<(Value, Option<usize>)>>,
    /// Cost levels in ascending order: a cost and the inclusive range of
    /// changed-cell counts that sum to it.
    levels: Vec<(f64, usize, usize)>,
    level: usize,
    /// Option indices of the last candidate of the current level.
    current: Option<Vec<usize>>,
}

impl Candidates {
    fn new(options: Vec<Vec<(Value, Option<usize>)>>, weight: f64) -> Candidates {
        let changeable = options.iter().filter(|o| o.len() > 1).count();
        // Costs summed cell by cell, as the cross product sums them.
        let mut levels: Vec<(f64, usize, usize)> = Vec::new();
        let mut cost = 0.0;
        for changed in 0..=changeable {
            if changed > 0 {
                cost += weight;
            }
            match levels.last_mut() {
                Some(last) if last.0 == cost => last.2 = changed,
                _ => levels.push((cost, changed, changed)),
            }
        }
        Candidates {
            options,
            levels,
            level: 0,
            current: None,
        }
    }

    /// Zeroes `idx[from..]`, then puts option 1 on the last `changed`
    /// attributes there that have one: the least completion, in
    /// generation order, with `changed` changed cells.
    fn fill(&self, idx: &mut [usize], from: usize, mut changed: usize) {
        for j in (from..idx.len()).rev() {
            idx[j] = 0;
            if changed > 0 && self.options[j].len() > 1 {
                idx[j] = 1;
                changed -= 1;
            }
        }
    }

    /// Steps `idx` to the next index vector in generation order whose
    /// changed-cell count lies in `lo..=hi`; `false` when none is left.
    fn advance(&self, idx: &mut [usize], lo: usize, hi: usize) -> bool {
        let total = idx.iter().filter(|&&i| i != 0).count();
        let (mut changed_after, mut free_after) = (0, 0);
        for i in (0..idx.len()).rev() {
            let here = usize::from(idx[i] != 0);
            if idx[i] + 1 < self.options[i].len() {
                let changed = total - changed_after - here + 1;
                if changed <= hi && lo <= changed + free_after {
                    idx[i] += 1;
                    self.fill(idx, i + 1, lo.saturating_sub(changed));
                    return true;
                }
            }
            changed_after += here;
            free_after += usize::from(self.options[i].len() > 1);
        }
        false
    }
}

impl Iterator for Candidates {
    type Item = (f64, Tuple, Vec<usize>);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let &(cost, lo, hi) = self.levels.get(self.level)?;
            let idx = match self.current.take() {
                None => {
                    let mut idx = vec![0; self.options.len()];
                    self.fill(&mut idx, 0, lo);
                    idx
                }
                Some(mut idx) => {
                    if !self.advance(&mut idx, lo, hi) {
                        self.level += 1;
                        continue;
                    }
                    idx
                }
            };
            let mut opened = Vec::new();
            let tuple = Tuple::new(idx.iter().zip(&self.options).map(|(&i, options)| {
                let (value, open) = &options[i];
                opened.extend(*open);
                value.clone()
            }));
            self.current = Some(idx);
            return Some((cost, tuple, opened));
        }
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

    /// The reference order: the options' whole cross product, sorted
    /// stably by cost.
    fn cross_product_sorted(
        options: &[Vec<(Value, Option<usize>)>],
        weight: f64,
    ) -> Vec<(f64, Tuple, Vec<usize>)> {
        let mut combos: Vec<(f64, Vec<Value>, Vec<usize>)> = vec![(0.0, Vec::new(), Vec::new())];
        for attr_options in options {
            let mut next = Vec::new();
            for (c, vals, opened) in &combos {
                for (i, (v, open)) in attr_options.iter().enumerate() {
                    let mut vals = vals.clone();
                    vals.push(v.clone());
                    let mut opened = opened.clone();
                    opened.extend(*open);
                    next.push((c + if i == 0 { 0.0 } else { weight }, vals, opened));
                }
            }
            combos = next;
        }
        let mut out: Vec<_> = combos
            .into_iter()
            .map(|(c, vals, opened)| (c, Tuple::new(vals), opened))
            .collect();
        out.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        out
    }

    #[test]
    fn candidates_come_in_the_sorted_cross_products_order() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(0xCA4D);
        for case in 0..300 {
            let arity = rng.gen_range(1..6);
            let options: Vec<Vec<(Value, Option<usize>)>> = (0..arity)
                .map(|a| {
                    let len = rng.gen_range(1..5);
                    (0..len)
                        .map(|i| {
                            let open = (i + 1 == len && len > 1 && rng.gen_bool(0.5)).then_some(a);
                            (Value::from((a * 10 + i) as i64), open)
                        })
                        .collect()
                })
                .collect();
            // Huge weights make every cost past one change infinite, so
            // several change counts share a level.
            let weight = [1.0, 0.5, 3.0, f64::MAX][case % 4];
            let lazy: Vec<_> = Candidates::new(options.clone(), weight).collect();
            assert_eq!(lazy, cross_product_sorted(&options, weight), "case {case}");
        }
    }

    #[test]
    fn candidates_are_produced_one_per_node_plus_one_per_frame() {
        // Eight mutable attributes with up to eight options each: the
        // full cross product of one row is millions of tuples, but the
        // search only produces the candidates it visits.
        let s = Schema::new("W", ["A", "B", "C", "D", "E", "F", "G", "H"]).unwrap();
        let fds = FdSet::parse(&s, "A -> C D E F G H; B -> C D E F G H").unwrap();
        let t = Table::build_unweighted(
            s,
            vec![
                tup![1, 1, 1, 1, 1, 1, 1, 1],
                tup![1, 2, 2, 2, 2, 2, 2, 2],
                tup![2, 1, 3, 3, 3, 3, 3, 3],
                tup![2, 2, 4, 4, 4, 4, 4, 4],
            ],
        )
        .unwrap();
        let cfg = ExactConfig {
            max_nodes: 10_000,
            ..ExactConfig::default()
        };
        let (result, effort) = exact_search(&t, &fds, &cfg);
        // Each frame on the stack counts one node past the budget as it
        // unwinds.
        assert!(effort.nodes <= cfg.max_nodes + 4, "{effort:?}");
        assert!(
            effort.produced <= effort.nodes + effort.frames,
            "{effort:?}"
        );
        if let Ok(repair) = result {
            repair.verify(&t, &fds);
        }
    }
}
