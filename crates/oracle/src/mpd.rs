//! Ground-truth Most Probable Database: enumerate all `2ⁿ` worlds of a
//! tuple-independent probabilistic table, keep the consistent ones,
//! maximize the world probability (equation (2) of §3.4) — independent
//! of `fd-mpd`'s log-odds reduction *and* of its own brute-force helper.

use crate::check::satisfies_naive;
use fd_core::{FdSet, Table, TupleId};
use std::collections::HashSet;

/// Hard cap on the exhaustive world enumeration.
pub const MAX_MPD_ROWS: usize = 20;

/// A ground-truth most probable world.
#[derive(Clone, Debug, PartialEq)]
pub struct OracleMpd {
    /// Identifiers of the most probable consistent world, sorted.
    pub world: Vec<TupleId>,
    /// Its probability.
    pub probability: f64,
}

/// Computes the most probable consistent world exhaustively. Weights are
/// read as marginal probabilities and must lie in `(0, 1]`.
pub fn brute_mpd(table: &Table, fds: &FdSet) -> OracleMpd {
    let n = table.len();
    assert!(n <= MAX_MPD_ROWS, "brute_mpd is exhaustive; got {n} rows");
    for &w in table.weights() {
        assert!(w > 0.0 && w <= 1.0, "weight {w} is not a probability");
    }
    let ids: Vec<TupleId> = table.ids().collect();
    let mut best_p = -1.0;
    let mut best: Vec<TupleId> = Vec::new();
    for mask in 0u32..(1u32 << n) {
        let world: HashSet<TupleId> = (0..n)
            .filter(|&i| mask & (1 << i) != 0)
            .map(|i| ids[i])
            .collect();
        let sub = table.subset(&world);
        if !satisfies_naive(&sub, fds) {
            continue;
        }
        let p: f64 = ids
            .iter()
            .zip(table.weights())
            .map(|(id, &w)| if world.contains(id) { w } else { 1.0 - w })
            .product();
        if p > best_p {
            best_p = p;
            best = world.into_iter().collect();
        }
    }
    best.sort_unstable();
    OracleMpd {
        world: best,
        probability: best_p.max(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_core::{schema_rabc, tup};

    #[test]
    fn keeps_consistent_high_probability_tuples() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        let t = Table::build(s, vec![(tup![1, 1, 0], 0.9), (tup![2, 2, 0], 0.8)]).unwrap();
        let r = brute_mpd(&t, &fds);
        assert_eq!(r.world, vec![TupleId(0), TupleId(1)]);
        assert!((r.probability - 0.72).abs() < 1e-12);
    }

    #[test]
    fn conflicts_resolve_toward_higher_odds() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        let t = Table::build(s, vec![(tup![1, 1, 0], 0.6), (tup![1, 2, 0], 0.95)]).unwrap();
        let r = brute_mpd(&t, &fds);
        assert_eq!(r.world, vec![TupleId(1)]);
        assert!((r.probability - 0.4 * 0.95).abs() < 1e-12);
    }

    #[test]
    fn low_probability_tuples_drop_out() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        let t = Table::build(s, vec![(tup![1, 1, 0], 0.9), (tup![2, 2, 0], 0.3)]).unwrap();
        let r = brute_mpd(&t, &fds);
        assert_eq!(r.world, vec![TupleId(0)]);
    }
}
