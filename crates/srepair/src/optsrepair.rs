//! `OptSRepair` — Algorithm 1 of the paper.
//!
//! The algorithm repeatedly simplifies `(Δ, T)`:
//!
//! 1. trivial `Δ` → return `T` itself;
//! 2. *common lhs* `A` → partition by `A`, recurse with `Δ − A`, union
//!    (Subroutine 1, `CommonLHSRep`);
//! 3. *consensus FD* `∅ → A` → partition by `A`, recurse with `Δ − A`,
//!    keep the heaviest block repair (Subroutine 2, `ConsensusRep`);
//! 4. *lhs marriage* `(X₁, X₂)` → per-block recursion with `Δ − X₁X₂`,
//!    then a maximum-weight bipartite matching between `π_{X₁}T` and
//!    `π_{X₂}T` selects which blocks survive (Subroutine 3, `MarriageRep`);
//! 5. otherwise the algorithm **fails**; by Theorem 3.4 the problem is then
//!    APX-complete.
//!
//! Soundness (Theorem 3.2): on success the result is an optimal S-repair.
//! The recursion is polynomial even in combined complexity because every
//! level removes at least one attribute from `Δ` and the blocks of each
//! level partition `T`.
//!
//! The rule choice looks at `Δ` alone, and every block of one level sees
//! the same reduced `Δ`, so the choices are exactly Algorithm 2's
//! [`Trace`]: it is computed once per call and the recursion walks it by
//! depth ([`Trace::step`]). The counters and the sampler of this crate
//! walk the same trace. A stuck step is reported only when the recursion
//! reaches it — an empty table never does.
//! Blocks are row-position lists of the one input table, never copied
//! sub-tables; weights are summed from its column in row order.

use crate::repair::SRepair;
use crate::succeeds::{all_rows, ids_at, recursion_trace, split_blocks, weight_at, Rule, Trace};
use fd_core::{FdSet, FnvBuild, Sym, Table};
use fd_graph::max_weight_bipartite_matching;
use std::collections::HashMap;

/// Failure of Algorithm 1: no simplification applies to the remaining
/// (nontrivial) FD set. Theorem 3.4 makes this the exact boundary of
/// APX-completeness.
#[derive(Clone, Debug, PartialEq)]
pub struct Irreducible {
    /// The simplified FD set on which the algorithm got stuck.
    pub remaining: FdSet,
}

impl std::fmt::Display for Irreducible {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "OptSRepair failed: no simplification applies to the remaining FD set \
             (computing an optimal S-repair is APX-complete here)"
        )
    }
}

impl std::error::Error for Irreducible {}

/// Runs `OptSRepair(Δ, T)` (Algorithm 1). Returns the optimal S-repair on
/// success, or [`Irreducible`] when the FD set falls on the hard side of
/// the dichotomy.
pub fn opt_s_repair(table: &Table, fds: &FdSet) -> Result<SRepair, Irreducible> {
    let kept = solve(table, &all_rows(table), &recursion_trace(fds), 0)?;
    Ok(SRepair::from_kept(table, ids_at(table, &kept)))
}

/// Algorithm 1 on the block `rows` (ascending positions of `table`) at
/// recursion depth `depth`, applying the rule Algorithm 2's `trace`
/// names for that depth. Returns the kept positions.
pub(crate) fn solve(
    table: &Table,
    rows: &[u32],
    trace: &Trace,
    depth: usize,
) -> Result<Vec<u32>, Irreducible> {
    // Line 10: fail on a stuck Δ.
    let fail = |stuck: &FdSet| Irreducible {
        remaining: stuck.clone(),
    };
    // Lines 1–3: a trivial Δ succeeds immediately.
    let Some(step) = trace.step(depth).map_err(fail)? else {
        return Ok(rows.to_vec());
    };
    match step.rule {
        // Lines 4–5: common lhs (Subroutine 1).
        Rule::CommonLhs(a) => {
            let mut kept = Vec::with_capacity(rows.len());
            for block in split_blocks(table, rows, a) {
                kept.extend(solve(table, &block, trace, depth + 1)?);
            }
            Ok(kept)
        }
        // Lines 6–7: consensus FD (Subroutine 2).
        Rule::Consensus(x) => {
            let mut best: Option<(f64, Vec<u32>)> = None;
            for block in split_blocks(table, rows, x) {
                let kept = solve(table, &block, trace, depth + 1)?;
                let weight = kept_weight(table, &kept);
                // Strict `>` keeps the first (smallest-key) block on ties,
                // making the result deterministic.
                if best.as_ref().is_none_or(|(w, _)| weight > *w) {
                    best = Some((weight, kept));
                }
            }
            Ok(best.map(|(_, kept)| kept).unwrap_or_default())
        }
        // Lines 8–9: lhs marriage (Subroutine 3).
        Rule::Marriage(x1, x2) => {
            // Node sets V₁ = π_{X₁}T[∗], V₂ = π_{X₂}T[∗], compared as
            // symbol tuples — no value decoding in the recursion.
            let mut v1: HashMap<Vec<Sym>, u32, FnvBuild> = HashMap::default();
            let mut v2: HashMap<Vec<Sym>, u32, FnvBuild> = HashMap::default();
            let mut edges: Vec<(u32, u32, f64)> = Vec::new();
            let mut block_repairs: HashMap<(u32, u32), Vec<u32>> = HashMap::new();
            for block in split_blocks(table, rows, x1.union(x2)) {
                let first = block[0] as usize;
                let a1: Vec<Sym> = x1.iter().map(|a| table.col(a)[first]).collect();
                let a2: Vec<Sym> = x2.iter().map(|a| table.col(a)[first]).collect();
                let n1 = v1.len() as u32;
                let i1 = *v1.entry(a1).or_insert(n1);
                let n2 = v2.len() as u32;
                let i2 = *v2.entry(a2).or_insert(n2);
                let kept = solve(table, &block, trace, depth + 1)?;
                edges.push((i1, i2, kept_weight(table, &kept)));
                block_repairs.insert((i1, i2), kept);
            }
            let matching = max_weight_bipartite_matching(v1.len(), v2.len(), &edges);
            let mut kept = Vec::new();
            for pair in matching.pairs {
                kept.extend(
                    block_repairs
                        .remove(&pair)
                        .expect("matched pairs are edges"),
                );
            }
            Ok(kept)
        }
    }
}

/// The weight of a block's kept positions, summed in ascending (row)
/// order — the block's own order, whatever order they were kept in.
fn kept_weight(table: &Table, kept: &[u32]) -> f64 {
    let mut rows = kept.to_vec();
    rows.sort_unstable();
    weight_at(table, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_core::{schema_rabc, tup, Schema, Table, TupleId};

    #[test]
    fn trivial_fd_set_keeps_everything() {
        let t =
            Table::build_unweighted(schema_rabc(), vec![tup!["x", 1, 0], tup!["x", 2, 0]]).unwrap();
        let r = opt_s_repair(&t, &FdSet::empty()).unwrap();
        assert_eq!(r.cost, 0.0);
        assert_eq!(r.kept.len(), 2);
    }

    #[test]
    fn running_example_office() {
        // Figure 1: optimal S-repairs have distance 2 (S1 and S2).
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
        let r = opt_s_repair(&t, &fds).unwrap();
        assert_eq!(r.cost, 2.0);
        r.verify(&t, &fds);
    }

    #[test]
    fn consensus_keeps_heaviest_group() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "-> C").unwrap();
        let t = Table::build(
            s,
            vec![
                (tup!["x", 1, 0], 1.0),
                (tup!["y", 2, 0], 1.0),
                (tup!["z", 3, 1], 3.0),
            ],
        )
        .unwrap();
        let r = opt_s_repair(&t, &fds).unwrap();
        assert_eq!(r.cost, 2.0);
        assert_eq!(r.kept, vec![TupleId(2)]);
        r.verify(&t, &fds);
    }

    #[test]
    fn marriage_case_a_b_key_equivalence() {
        // Δ_{A↔B→C}: tractable via lhs marriage (Example 3.5).
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B; B -> A; B -> C").unwrap();
        // a1↔b1 (weight 4 via two tuples), a1↔b2 (weight 2), a2↔b1 (weight 1).
        let t = Table::build(
            s,
            vec![
                (tup![1, 1, 0], 2.0),
                (tup![1, 1, 0], 2.0),
                (tup![1, 2, 0], 2.0),
                (tup![2, 1, 0], 1.0),
            ],
        )
        .unwrap();
        let r = opt_s_repair(&t, &fds).unwrap();
        // Matching {(1,1)} of weight 4 beats {(1,2),(2,1)} of weight 3 ⇒
        // keep ids 0 and 1, delete 2 and 3.
        assert_eq!(r.cost, 3.0);
        assert_eq!(r.kept, vec![TupleId(0), TupleId(1)]);
        r.verify(&t, &fds);
    }

    #[test]
    fn marriage_conflicting_c_inside_block() {
        // Same (A,B) block but C differs: inner recursion (∅ → C after
        // removing X1X2) keeps the heavier C-group.
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B; B -> A; B -> C").unwrap();
        let t = Table::build(s, vec![(tup![1, 1, 0], 1.0), (tup![1, 1, 5], 2.0)]).unwrap();
        let r = opt_s_repair(&t, &fds).unwrap();
        assert_eq!(r.cost, 1.0);
        assert_eq!(r.kept, vec![TupleId(1)]);
    }

    #[test]
    fn fails_on_chain_a_b_c() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B; B -> C").unwrap();
        let t = Table::build_unweighted(schema_rabc(), vec![tup![1, 1, 1]]).unwrap();
        let err = opt_s_repair(&t, &fds).unwrap_err();
        assert_eq!(err.remaining, fds);
    }

    #[test]
    fn fails_on_disjoint_pair() {
        let s = Schema::new("R", ["A", "B", "C", "D"]).unwrap();
        let fds = FdSet::parse(&s, "A -> B; C -> D").unwrap();
        let t = Table::build_unweighted(s, vec![tup![1, 1, 1, 1]]).unwrap();
        assert!(opt_s_repair(&t, &fds).is_err());
    }

    #[test]
    fn empty_table() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        let t = Table::new(schema_rabc());
        let r = opt_s_repair(&t, &fds).unwrap();
        assert_eq!(r.cost, 0.0);
        assert!(r.kept.is_empty());
    }

    #[test]
    fn example_3_1_ssn_succeeds() {
        let s = Schema::new(
            "Emp",
            ["ssn", "first", "last", "address", "office", "phone", "fax"],
        )
        .unwrap();
        let fds = FdSet::parse(
            &s,
            "ssn -> first; ssn -> last; first last -> ssn; ssn -> address; \
             ssn office -> phone; ssn office -> fax",
        )
        .unwrap();
        let t = Table::build_unweighted(
            s,
            vec![
                tup![1, "ann", "ba", "x", "o1", "p1", "f1"],
                tup![1, "ann", "ba", "y", "o1", "p1", "f1"], // violates ssn→address
                tup![2, "bob", "cd", "z", "o1", "p2", "f2"],
            ],
        )
        .unwrap();
        let r = opt_s_repair(&t, &fds).unwrap();
        assert_eq!(r.cost, 1.0);
        r.verify(&t, &fds);
    }
}
