//! Optimal U-repairs for consensus FDs (Proposition B.2 / Corollary B.3).
//!
//! Satisfying `∅ → X` means every column of `X` is constant. Because the
//! Hamming distance decomposes per attribute, the optimal update picks, for
//! each attribute of `X` independently, the value of maximum total weight
//! in that column and rewrites everything else to it.

use crate::repair::{URepair, UpdateWriter};
use fd_core::{AttrSet, FnvBuild, Sym, Table, Value};
use std::collections::HashMap;

/// The weighted-majority value of one column: the value whose carriers have
/// maximum total weight (smallest value on ties, for determinism).
///
/// The vote runs in symbol space — one FNV-keyed accumulation over the
/// column's `u32` symbols — and only the distinct candidates are decoded
/// for the deterministic tie-break. Weights accumulate per symbol in row
/// order, so the floating-point totals match a value-keyed scan exactly.
pub fn weighted_majority(table: &Table, attr: fd_core::AttrId) -> Option<Value> {
    let mut weights: HashMap<Sym, f64, FnvBuild> = HashMap::default();
    for (&sym, &w) in table.col(attr).iter().zip(table.weights()) {
        *weights.entry(sym).or_insert(0.0) += w;
    }
    let dict = table.dictionary();
    weights
        // fdlint: allow(D001, "the comparator is a total order (weight, then value), so max_by has a unique winner regardless of visit order")
        .into_iter()
        .map(|(sym, w)| (dict.decode(sym), w))
        .max_by(|(va, wa), (vb, wb)| {
            wa.partial_cmp(wb)
                .expect("weights are finite")
                // On weight ties prefer the smaller value.
                .then_with(|| vb.cmp(va))
        })
        .map(|(v, _)| v)
}

/// Computes the optimal U-repair for the consensus FD `∅ → attrs`
/// (Proposition B.2, extended attribute-wise via Theorem 4.1): each column
/// of `attrs` is rewritten to its weighted-majority value.
pub fn consensus_u_repair(table: &Table, attrs: AttrSet) -> URepair {
    let mut writer = UpdateWriter::new(table);
    for attr in attrs.iter() {
        let Some(majority) = weighted_majority(table, attr) else {
            continue; // empty table
        };
        for pos in 0..table.len() {
            writer.set(pos, attr, majority.clone());
        }
    }
    writer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_core::{schema_rabc, tup, FdSet, Table};

    #[test]
    fn majority_respects_weights() {
        let s = schema_rabc();
        let t = Table::build(
            s.clone(),
            vec![
                (tup![1, 0, 0], 1.0),
                (tup![1, 0, 0], 1.0),
                (tup![2, 0, 0], 3.0),
            ],
        )
        .unwrap();
        let a = s.attr("A").unwrap();
        assert_eq!(weighted_majority(&t, a), Some(Value::from(2)));
    }

    #[test]
    fn consensus_repair_is_optimal_single_attribute() {
        // Proposition B.2: keep the heaviest A-group, rewrite the rest.
        let s = schema_rabc();
        let t = Table::build(
            s.clone(),
            vec![
                (tup![1, 0, 0], 2.0),
                (tup![2, 0, 0], 1.0),
                (tup![3, 0, 0], 1.0),
            ],
        )
        .unwrap();
        let a = AttrSet::singleton(s.attr("A").unwrap());
        let r = consensus_u_repair(&t, a);
        assert_eq!(r.cost, 2.0); // rewrite the two light tuples
        let fds = FdSet::parse(&s, "-> A").unwrap();
        r.verify(&t, &fds);
    }

    #[test]
    fn multi_attribute_consensus_decomposes_per_column() {
        // ∅ → A B: columns are fixed independently (Theorem 4.1), so the
        // result can mix values from different rows.
        let s = schema_rabc();
        let t = Table::build(
            s.clone(),
            vec![
                (tup![1, 8, 0], 1.0),
                (tup![1, 9, 0], 1.0),
                (tup![2, 9, 0], 1.0),
            ],
        )
        .unwrap();
        let ab = s.attr_set(["A", "B"]).unwrap();
        let r = consensus_u_repair(&t, ab);
        // Majority A = 1 (cost 1), majority B = 9 (cost 1).
        assert_eq!(r.cost, 2.0);
        let fds = FdSet::parse(&s, "-> A B").unwrap();
        r.verify(&t, &fds);
    }

    #[test]
    fn consistent_column_costs_nothing() {
        let s = schema_rabc();
        let t = Table::build_unweighted(s.clone(), vec![tup![5, 1, 0], tup![5, 2, 0]]).unwrap();
        let r = consensus_u_repair(&t, AttrSet::singleton(s.attr("A").unwrap()));
        assert_eq!(r.cost, 0.0);
    }

    #[test]
    fn tie_breaks_deterministically() {
        let s = schema_rabc();
        let t = Table::build_unweighted(s.clone(), vec![tup![1, 0, 0], tup![2, 0, 0]]).unwrap();
        let a = s.attr("A").unwrap();
        // Equal weights: smaller value wins.
        assert_eq!(weighted_majority(&t, a), Some(Value::from(1)));
    }
}
