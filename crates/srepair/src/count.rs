//! Counting optimal S-repairs — an extension in the spirit of the paper's
//! §2.2 pointer to Livshits & Kimelfeld's repair-counting dichotomy for
//! chain FD sets.
//!
//! The `OptSRepair` recursion counts as it solves:
//!
//! * trivial `Δ` → exactly one optimal repair (the table itself);
//! * common lhs → blocks are independent, counts multiply;
//! * consensus FD → optimal repairs live in the blocks of maximum optimal
//!   weight, counts add over those blocks;
//! * lhs marriage → counting maximum-weight matchings is #P-hard in
//!   general, so the counter reports [`CountOutcome::MarriageEncountered`].
//!
//! Chain FD sets never need the marriage rule (Corollary 3.6's proof), so
//! for every chain FD set the count is computed in polynomial time —
//! matching the positive side of the counting dichotomy cited in §2.2.

use crate::succeeds::{all_rows, ids_at, recursion_trace, split_blocks, weight_at, Rule, Trace};
use fd_core::{FdSet, Table, TupleId};

/// Result of counting optimal S-repairs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CountOutcome {
    /// The number of distinct optimal S-repairs (as kept-id sets).
    Count(u128),
    /// The recursion reached an lhs marriage; exact counting would require
    /// counting maximum-weight matchings.
    MarriageEncountered,
    /// The recursion got stuck (hard side of the dichotomy).
    Irreducible(FdSet),
}

/// Counts the optimal S-repairs of `table` under `fds` along the
/// `OptSRepair` recursion (common lhs / consensus only).
pub fn count_optimal_s_repairs(table: &Table, fds: &FdSet) -> CountOutcome {
    count(table, &all_rows(table), &recursion_trace(fds), 0)
        .map_or_else(|e| e, |(_, c)| CountOutcome::Count(c))
}

/// Returns (optimal kept weight, count) for the block `rows` of `table`,
/// or the failure outcome.
fn count(
    table: &Table,
    rows: &[u32],
    trace: &Trace,
    depth: usize,
) -> Result<(f64, u128), CountOutcome> {
    let Some(step) = trace
        .step(depth)
        .map_err(|stuck| CountOutcome::Irreducible(stuck.clone()))?
    else {
        return Ok((weight_at(table, rows), 1));
    };
    match step.rule {
        Rule::CommonLhs(a) => {
            let mut weight = 0.0;
            let mut total: u128 = 1;
            for block in split_blocks(table, rows, a) {
                let (w, c) = count(table, &block, trace, depth + 1)?;
                weight += w;
                total = total.saturating_mul(c);
            }
            Ok((weight, total))
        }
        Rule::Consensus(x) => {
            let mut best_weight = 0.0;
            let mut total: u128 = 0;
            let blocks = split_blocks(table, rows, x);
            if blocks.is_empty() {
                return Ok((0.0, 1)); // the empty repair
            }
            for block in blocks {
                let (w, c) = count(table, &block, trace, depth + 1)?;
                if w > best_weight + 1e-12 {
                    best_weight = w;
                    total = c;
                } else if (w - best_weight).abs() <= 1e-12 {
                    total = total.saturating_add(c);
                }
            }
            Ok((best_weight, total))
        }
        Rule::Marriage(..) => Err(CountOutcome::MarriageEncountered),
    }
}

/// Exhaustively counts optimal S-repairs (2ⁿ subsets, n ≤ 20): the oracle.
pub fn brute_force_count(table: &Table, fds: &FdSet) -> u128 {
    let ids: Vec<TupleId> = table.ids().collect();
    let n = ids.len();
    assert!(n <= 20, "brute force limited to 20 tuples");
    let mut best = f64::INFINITY;
    let mut count: u128 = 0;
    for mask in 0..(1u32 << n) {
        let keep: std::collections::HashSet<_> = (0..n)
            .filter(|&i| mask & (1 << i) != 0)
            .map(|i| ids[i])
            .collect();
        let sub = table.subset(&keep);
        if !sub.satisfies(fds) {
            continue;
        }
        let cost = table.dist_sub(&sub).expect("subset");
        if cost < best - 1e-12 {
            best = cost;
            count = 1;
        } else if (cost - best).abs() <= 1e-12 {
            count += 1;
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_core::{schema_rabc, tup, Schema};
    use rand::prelude::*;

    #[test]
    fn trivial_fd_set_has_one_repair() {
        let t = Table::build_unweighted(schema_rabc(), vec![tup![1, 1, 1]]).unwrap();
        assert_eq!(
            count_optimal_s_repairs(&t, &FdSet::empty()),
            CountOutcome::Count(1)
        );
    }

    #[test]
    fn ties_are_counted() {
        // Two equal-weight tuples conflicting on A→B: two optimal repairs.
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        let t = Table::build_unweighted(s.clone(), vec![tup![1, 1, 0], tup![1, 2, 0]]).unwrap();
        assert_eq!(count_optimal_s_repairs(&t, &fds), CountOutcome::Count(2));
        // With distinct weights there is a unique optimum.
        let t2 = Table::build(s, vec![(tup![1, 1, 0], 2.0), (tup![1, 2, 0], 1.0)]).unwrap();
        assert_eq!(count_optimal_s_repairs(&t2, &fds), CountOutcome::Count(1));
    }

    #[test]
    fn running_example_has_two_optimal_repairs() {
        // Figure 1: S1 and S2 are both optimal.
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
        assert_eq!(count_optimal_s_repairs(&t, &fds), CountOutcome::Count(2));
    }

    #[test]
    fn marriage_sets_are_reported() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B; B -> A").unwrap();
        let t = Table::build_unweighted(schema_rabc(), vec![tup![1, 1, 0]]).unwrap();
        assert_eq!(
            count_optimal_s_repairs(&t, &fds),
            CountOutcome::MarriageEncountered
        );
    }

    #[test]
    fn hard_sets_are_reported() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B; B -> C").unwrap();
        let t = Table::build_unweighted(schema_rabc(), vec![tup![1, 1, 1]]).unwrap();
        assert!(matches!(
            count_optimal_s_repairs(&t, &fds),
            CountOutcome::Irreducible(_)
        ));
    }

    #[test]
    fn matches_brute_force_on_chain_sets() {
        let s = Schema::new("R", ["A", "B", "C", "D"]).unwrap();
        let chains = ["A -> B", "-> C", "A -> B; A B -> C", "-> A; A -> B C"];
        let mut rng = StdRng::seed_from_u64(0xC0);
        for spec in chains {
            let fds = FdSet::parse(&s, spec).unwrap();
            assert!(fds.is_chain());
            for _ in 0..10 {
                let rows = (0..rng.gen_range(2..8)).map(|_| {
                    (
                        tup![
                            rng.gen_range(0..2i64),
                            rng.gen_range(0..2i64),
                            rng.gen_range(0..2i64),
                            rng.gen_range(0..2i64)
                        ],
                        rng.gen_range(1..3) as f64,
                    )
                });
                let t = Table::build(s.clone(), rows).unwrap();
                let fast = count_optimal_s_repairs(&t, &fds);
                let slow = brute_force_count(&t, &fds);
                assert_eq!(fast, CountOutcome::Count(slow), "{spec}\n{t}");
            }
        }
    }
}

/// Enumerates up to `limit` optimal S-repairs (kept-id sets, each sorted)
/// along the same recursion as [`count_optimal_s_repairs`]. Returns `None`
/// when the recursion hits an lhs marriage or an irreducible set.
///
/// Together with the counter this rounds out the "counting and
/// enumerating repairs" companion functionality the paper cites (\[26\]):
/// for chain FD sets both are polynomial per repair produced.
pub fn enumerate_optimal_s_repairs(
    table: &Table,
    fds: &FdSet,
    limit: usize,
) -> Option<Vec<Vec<TupleId>>> {
    let mut out = enumerate(table, &all_rows(table), &recursion_trace(fds), 0, limit)?.1;
    for repair in &mut out {
        repair.sort_unstable();
    }
    out.sort();
    Some(out)
}

/// Returns (optimal kept weight, up to `limit` kept-id sets) for the
/// block `rows` of `table`.
fn enumerate(
    table: &Table,
    rows: &[u32],
    trace: &Trace,
    depth: usize,
    limit: usize,
) -> Option<(f64, Vec<Vec<TupleId>>)> {
    let Some(step) = trace.step(depth).ok()? else {
        return Some((weight_at(table, rows), vec![ids_at(table, rows)]));
    };
    match step.rule {
        Rule::CommonLhs(a) => {
            let mut weight = 0.0;
            let mut combos: Vec<Vec<TupleId>> = vec![Vec::new()];
            for block in split_blocks(table, rows, a) {
                let (w, block_repairs) = enumerate(table, &block, trace, depth + 1, limit)?;
                weight += w;
                let mut next = Vec::new();
                'outer: for prefix in &combos {
                    for repair in &block_repairs {
                        let mut merged = prefix.clone();
                        merged.extend_from_slice(repair);
                        next.push(merged);
                        if next.len() >= limit {
                            break 'outer;
                        }
                    }
                }
                combos = next;
            }
            Some((weight, combos))
        }
        Rule::Consensus(x) => {
            let blocks = split_blocks(table, rows, x);
            if blocks.is_empty() {
                return Some((0.0, vec![Vec::new()]));
            }
            let mut best_weight = 0.0;
            let mut repairs: Vec<Vec<TupleId>> = Vec::new();
            for block in blocks {
                let (w, block_repairs) = enumerate(table, &block, trace, depth + 1, limit)?;
                if w > best_weight + 1e-12 {
                    best_weight = w;
                    repairs = block_repairs;
                } else if (w - best_weight).abs() <= 1e-12 {
                    repairs.extend(block_repairs);
                }
                repairs.truncate(limit);
            }
            Some((best_weight, repairs))
        }
        Rule::Marriage(..) => None,
    }
}

#[cfg(test)]
mod enumerate_tests {
    use super::*;
    use fd_core::{schema_rabc, tup, Schema, TupleId};

    #[test]
    fn enumerates_both_office_optima() {
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
        let repairs = enumerate_optimal_s_repairs(&t, &fds, 10).unwrap();
        // Figure 1: S1 keeps {1,2,3} and S2 keeps {0,3} (0-based ids).
        assert_eq!(
            repairs,
            vec![
                vec![TupleId(0), TupleId(3)],
                vec![TupleId(1), TupleId(2), TupleId(3)],
            ]
        );
    }

    #[test]
    fn enumeration_agrees_with_count_and_verifies() {
        use rand::prelude::*;
        let s = schema_rabc();
        let mut rng = StdRng::seed_from_u64(0xE1);
        for spec in ["A -> B", "A -> B C", "-> C", "A -> B; A B -> C"] {
            let fds = FdSet::parse(&s, spec).unwrap();
            for _ in 0..8 {
                let rows = (0..rng.gen_range(2..7)).map(|_| {
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
                let repairs = enumerate_optimal_s_repairs(&t, &fds, 1000).unwrap();
                let CountOutcome::Count(c) = count_optimal_s_repairs(&t, &fds) else {
                    panic!("countable");
                };
                assert_eq!(repairs.len() as u128, c, "{spec}\n{t}");
                // No duplicates, and every repair is optimal + consistent.
                let distinct: std::collections::HashSet<_> = repairs.iter().collect();
                assert_eq!(distinct.len(), repairs.len());
                let opt = crate::exact::exact_s_repair(&t, &fds);
                for kept in &repairs {
                    let r = crate::repair::SRepair::from_kept(&t, kept.clone());
                    r.verify(&t, &fds);
                    assert!((r.cost - opt.cost).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn limit_is_respected() {
        // Many ties: 2 conflicting pairs ⇒ 4 optimal repairs; limit 3.
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        let t = Table::build_unweighted(
            s,
            vec![tup![1, 1, 0], tup![1, 2, 0], tup![2, 1, 0], tup![2, 2, 0]],
        )
        .unwrap();
        let all = enumerate_optimal_s_repairs(&t, &fds, 100).unwrap();
        assert_eq!(all.len(), 4);
        let capped = enumerate_optimal_s_repairs(&t, &fds, 3).unwrap();
        assert_eq!(capped.len(), 3);
    }

    #[test]
    fn marriage_returns_none() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B; B -> A").unwrap();
        let t = Table::build_unweighted(schema_rabc(), vec![tup![1, 1, 0]]).unwrap();
        assert!(enumerate_optimal_s_repairs(&t, &fds, 10).is_none());
    }
}
