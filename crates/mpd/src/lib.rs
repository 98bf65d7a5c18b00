//! # fd-mpd
//!
//! The *Most Probable Database* problem (§3.4): given a tuple-independent
//! probabilistic table and a set of FDs, find the consistent subset of
//! maximum probability. Theorem 3.10 reduces MPD to computing an optimal
//! S-repair with log-odds weights, which settles the dichotomy left open
//! by Gribkoff, Van den Broeck & Suciu for non-unary FDs: MPD is solvable
//! in polynomial time iff `OSRSucceeds(Δ)`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;

use fd_core::{Error, FdSet, Result, Table, TupleId};
use fd_srepair::{sharded_s_repair, ShardConfig};
use std::collections::HashSet;

/// A tuple-independent probabilistic table: a [`Table`] whose weights are
/// interpreted as marginal probabilities in `(0, 1]`.
#[derive(Clone, Debug)]
pub struct ProbTable {
    table: Table,
}

impl ProbTable {
    /// Wraps a table, validating that every weight lies in `(0, 1]`.
    pub fn new(table: Table) -> Result<ProbTable> {
        for &p in table.weights() {
            if !(p > 0.0 && p <= 1.0) {
                return Err(Error::InvalidProbability { p });
            }
        }
        Ok(ProbTable { table })
    }

    /// The underlying table.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The probability of the world selecting exactly the identifiers in
    /// `world` (equation (2) of §3.4).
    pub fn world_probability(&self, world: &HashSet<TupleId>) -> f64 {
        self.table
            .ids()
            .zip(self.table.weights())
            .map(|(id, &p)| if world.contains(&id) { p } else { 1.0 - p })
            .product()
    }
}

/// The result of an MPD computation.
#[derive(Clone, Debug)]
pub struct MpdResult {
    /// Identifiers of the most probable consistent world, sorted.
    pub world: Vec<TupleId>,
    /// Its probability.
    pub probability: f64,
}

/// Solves MPD for `Δ` via the Theorem 3.10 reduction:
///
/// * tuples with probability `≤ 0.5` are dropped (excluding them never
///   lowers the probability);
/// * *certain* tuples (`p = 1`) receive a weight exceeding the total
///   weight of all uncertain tuples, implementing "close enough to 1"
///   directly in weight space; if the certain tuples are jointly
///   inconsistent, every world has probability 0 and the empty world is
///   returned;
/// * remaining tuples get the log-odds weight `log(p / (1 − p))`, and an
///   optimal S-repair of the reweighted table is a most probable world.
///
/// The S-repair runs on the sharded subset path: Algorithm 1 per conflict
/// component when `OSRSucceeds(Δ)`, exact vertex cover per component
/// otherwise (exponential worst case, per the dichotomy).
pub fn most_probable_database(prob: &ProbTable, fds: &FdSet) -> MpdResult {
    let source = prob.table();
    // Partition row positions into certain / uncertain / droppable.
    let probs = source.weights();
    let mut certain: Vec<u32> = Vec::new();
    let mut uncertain: Vec<u32> = Vec::new();
    for (pos, &p) in probs.iter().enumerate() {
        if p >= 1.0 {
            certain.push(pos as u32);
        } else if p > 0.5 {
            uncertain.push(pos as u32);
        } // p ≤ 0.5: dropped
    }
    // Certain tuples must be jointly consistent, else every world has
    // probability 0 (a consistent world would have to exclude one).
    if !source.gather_positions(&certain).satisfies(fds) {
        return MpdResult {
            world: Vec::new(),
            probability: 0.0,
        };
    }

    // Reweighted table: log-odds for uncertain tuples (positive since
    // p > 0.5), a dominating weight for certain ones.
    let log_odds = |pos: u32| {
        let p = probs[pos as usize];
        (p / (1.0 - p)).ln()
    };
    let certain_weight = uncertain.iter().map(|&pos| log_odds(pos)).sum::<f64>() + 1.0;
    let positions: Vec<u32> = certain.iter().chain(&uncertain).copied().collect();
    let weights = certain
        .iter()
        .map(|_| certain_weight)
        .chain(uncertain.iter().map(|&pos| log_odds(pos)))
        .collect();
    let reweighted = source.gather_reweighted(&positions, weights);

    let cfg = ShardConfig {
        force_exact: true,
        ..ShardConfig::default()
    };
    // `kept` is sorted, as `MpdResult::world` promises.
    let kept = sharded_s_repair(&reweighted, fds, &cfg).repair.kept;
    let world: HashSet<TupleId> = kept.iter().copied().collect();
    MpdResult {
        probability: prob.world_probability(&world),
        world: kept,
    }
}

/// Exhaustive MPD over all `2ⁿ` worlds (n ≤ 20): the oracle for tests.
pub fn brute_force_mpd(prob: &ProbTable, fds: &FdSet) -> MpdResult {
    let ids: Vec<TupleId> = prob.table().ids().collect();
    let n = ids.len();
    assert!(n <= 20, "brute force limited to 20 tuples");
    let mut best_p = -1.0;
    let mut best: HashSet<TupleId> = HashSet::new();
    for mask in 0..(1u32 << n) {
        let world: HashSet<TupleId> = (0..n)
            .filter(|&i| mask & (1 << i) != 0)
            .map(|i| ids[i])
            .collect();
        if !prob.table().subset(&world).satisfies(fds) {
            continue;
        }
        let p = prob.world_probability(&world);
        if p > best_p {
            best_p = p;
            best = world;
        }
    }
    let mut world: Vec<TupleId> = best.into_iter().collect();
    world.sort_unstable();
    MpdResult {
        world,
        probability: best_p.max(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_core::{schema_rabc, tup};
    use fd_srepair::{exact_s_repair, opt_s_repair, osr_succeeds};
    use rand::prelude::*;

    fn prob_table(rows: Vec<(fd_core::Tuple, f64)>) -> ProbTable {
        ProbTable::new(Table::build(schema_rabc(), rows).unwrap()).unwrap()
    }

    #[test]
    fn validates_probabilities() {
        let t = Table::build(schema_rabc(), vec![(tup![1, 1, 1], 1.5)]).unwrap();
        assert!(ProbTable::new(t).is_err());
    }

    #[test]
    fn consistent_high_probability_tuples_are_kept() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        let p = prob_table(vec![(tup![1, 1, 0], 0.9), (tup![2, 2, 0], 0.8)]);
        let r = most_probable_database(&p, &fds);
        assert_eq!(r.world, vec![TupleId(0), TupleId(1)]);
        assert!((r.probability - 0.72).abs() < 1e-9);
    }

    #[test]
    fn low_probability_tuples_are_dropped() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        let p = prob_table(vec![(tup![1, 1, 0], 0.9), (tup![2, 2, 0], 0.3)]);
        let r = most_probable_database(&p, &fds);
        assert_eq!(r.world, vec![TupleId(0)]);
        assert!((r.probability - 0.9 * 0.7).abs() < 1e-9);
    }

    #[test]
    fn conflict_resolved_toward_higher_odds() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        let p = prob_table(vec![(tup![1, 1, 0], 0.6), (tup![1, 2, 0], 0.95)]);
        let r = most_probable_database(&p, &fds);
        assert_eq!(r.world, vec![TupleId(1)]);
    }

    #[test]
    fn certain_tuples_always_survive() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        // The certain tuple conflicts with two high-probability tuples
        // whose combined log-odds exceed any fixed finite weight; the
        // dominating-weight construction must still keep it.
        let p = prob_table(vec![
            (tup![1, 1, 0], 1.0),
            (tup![1, 2, 0], 0.99),
            (tup![1, 2, 1], 0.99),
        ]);
        let r = most_probable_database(&p, &fds);
        assert!(r.world.contains(&TupleId(0)));
        assert!(!r.world.contains(&TupleId(1)));
    }

    #[test]
    fn inconsistent_certain_tuples_yield_probability_zero() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        let p = prob_table(vec![(tup![1, 1, 0], 1.0), (tup![1, 2, 0], 1.0)]);
        let r = most_probable_database(&p, &fds);
        assert_eq!(r.probability, 0.0);
        assert!(r.world.is_empty());
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        let s = schema_rabc();
        let specs = ["A -> B", "A -> B; B -> C", "A -> B; B -> A; B -> C", "-> C"];
        let mut rng = StdRng::seed_from_u64(8);
        for spec in specs {
            let fds = FdSet::parse(&s, spec).unwrap();
            for _ in 0..10 {
                let n = rng.gen_range(2..8);
                let rows: Vec<_> = (0..n)
                    .map(|_| {
                        (
                            tup![
                                rng.gen_range(0..2i64),
                                rng.gen_range(0..2i64),
                                rng.gen_range(0..2i64)
                            ],
                            // Stay off 0.5 and 1.0 to keep the comparison
                            // free of tie subtleties.
                            *[0.2, 0.4, 0.6, 0.7, 0.8, 0.9].choose(&mut rng).unwrap(),
                        )
                    })
                    .collect();
                let p = prob_table(rows);
                let fast = most_probable_database(&p, &fds);
                let slow = brute_force_mpd(&p, &fds);
                assert!(
                    (fast.probability - slow.probability).abs() < 1e-9,
                    "{spec}: fast={} slow={}\n{}",
                    fast.probability,
                    slow.probability,
                    p.table()
                );
            }
        }
    }

    #[test]
    fn comment_3_11_a_b_marriage_is_tractable_here() {
        // Δ_{A↔B→C} passes OSRSucceeds, so MPD is polynomial under this
        // dichotomy — contra the hardness classification of Gribkoff et
        // al., whose proof had a gap (Comment 3.11).
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B; B -> A; B -> C").unwrap();
        assert!(osr_succeeds(&fds));
        let p = prob_table(vec![
            (tup![1, 1, 0], 0.9),
            (tup![1, 2, 0], 0.8),
            (tup![2, 2, 1], 0.7),
        ]);
        let fast = most_probable_database(&p, &fds);
        let slow = brute_force_mpd(&p, &fds);
        assert!((fast.probability - slow.probability).abs() < 1e-9);
    }

    #[test]
    fn sharded_world_matches_the_whole_table_references() {
        // The reweighted solve keeps exactly the tuples the whole-table
        // Algorithm 1 (tractable Δ) or exact vertex cover (hard Δ) keeps
        // on the same reweighted table, rebuilt row by row.
        let s = schema_rabc();
        let mut rng = StdRng::seed_from_u64(0x3bd);
        let mut compared = 0;
        for spec in [
            "A -> B",
            "A -> B; B -> A",
            "A -> C; B -> C",
            "A -> B; B -> C",
        ] {
            let fds = FdSet::parse(&s, spec).unwrap();
            for _ in 0..25 {
                let n = rng.gen_range(2..14);
                let rows: Vec<_> = (0..n)
                    .map(|_| {
                        (
                            tup![
                                rng.gen_range(0..3i64),
                                rng.gen_range(0..3i64),
                                rng.gen_range(0..3i64)
                            ],
                            [0.3, 0.6, 0.75, 0.9, 1.0][rng.gen_range(0..5usize)],
                        )
                    })
                    .collect();
                let p = prob_table(rows);
                let t = p.table();
                let sure: HashSet<TupleId> = t
                    .ids()
                    .zip(t.weights())
                    .filter(|(_, &w)| w >= 1.0)
                    .map(|(id, _)| id)
                    .collect();
                if !t.subset(&sure).satisfies(&fds) {
                    continue; // every world has probability 0
                }
                let log_odds = |w: f64| (w / (1.0 - w)).ln();
                let uncertain_total: f64 = t
                    .weights()
                    .iter()
                    .filter(|&&w| w > 0.5 && w < 1.0)
                    .map(|&w| log_odds(w))
                    .sum();
                let mut reference = Table::new(s.clone());
                for certain in [true, false] {
                    for row in t.rows() {
                        let w = match (certain, row.weight) {
                            (true, w) if w >= 1.0 => uncertain_total + 1.0,
                            (false, w) if w > 0.5 && w < 1.0 => log_odds(w),
                            _ => continue,
                        };
                        reference.push_row(row.id, row.tuple, w).unwrap();
                    }
                }
                let expected = if osr_succeeds(&fds) {
                    opt_s_repair(&reference, &fds).unwrap()
                } else {
                    exact_s_repair(&reference, &fds)
                };
                let world = most_probable_database(&p, &fds).world;
                assert_eq!(world, expected.kept, "{spec}\n{t}");
                compared += 1;
            }
        }
        assert!(
            compared >= 50,
            "only {compared} instances had a consistent certain part"
        );
    }
}
