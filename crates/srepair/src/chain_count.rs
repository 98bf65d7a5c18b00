//! Counting **all** subset repairs for chain FD sets.
//!
//! §2.2 of the paper recalls the dichotomy of Livshits & Kimelfeld
//! (PODS'17, the paper's \[26\]): the subset repairs of a table can be
//! counted in polynomial time exactly when the FD set is (equivalent to) a
//! chain — every two left-hand sides are ⊆-comparable — and the problem is
//! #P-hard otherwise. This module implements the positive side.
//!
//! The counter mirrors the chain fragment of `OptSRepair` (Corollary 3.6's
//! proof shows chains only ever need the *common lhs* and *consensus*
//! simplifications):
//!
//! * **trivial Δ** — the table itself is the unique subset repair: count 1;
//! * **common lhs `A`** — tuples in different `A`-groups never agree on
//!   any lhs, so the conflict graph is a disjoint union over groups and
//!   counts multiply;
//! * **consensus FD `∅ → X`** — a consistent subset lives inside a single
//!   `X`-group, and a maximal-in-its-group subset is maximal overall, so
//!   counts **add** over groups (contrast with optimal-repair counting,
//!   which keeps only maximum-weight groups).
//!
//! If neither rule applies the FD set is not a chain (a chain has a
//! ⊆-minimum lhs, which is either empty — consensus — or a common lhs),
//! and the counter reports [`ChainCountOutcome::NotAChain`] rather than
//! attempting the #P-hard general case.

use crate::succeeds::{all_rows, ids_at, recursion_trace, split_blocks, Rule, Trace};
use fd_core::{FdSet, Table, TupleId};
use fd_graph::{enumerate_maximal_independent_sets, ConflictGraph};

/// Result of counting subset repairs along the chain recursion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChainCountOutcome {
    /// The number of subset repairs (maximal consistent subsets).
    Count(u128),
    /// The recursion reached an FD set with neither a common lhs nor a
    /// consensus FD: the set is not a chain, where counting is #P-hard
    /// (\[26\]). The stuck residual set is returned for diagnostics.
    NotAChain(FdSet),
}

/// Counts the subset repairs of `table` under `fds` in polynomial time,
/// for chain FD sets.
///
/// Returns [`ChainCountOutcome::NotAChain`] when the recursion gets stuck,
/// which happens exactly when `fds` is not reducible by common-lhs /
/// consensus steps alone.
///
/// # Examples
///
/// ```
/// use fd_core::{schema_rabc, tup, FdSet, Table};
/// use fd_srepair::{count_subset_repairs, ChainCountOutcome};
///
/// let s = schema_rabc();
/// let fds = FdSet::parse(&s, "A -> B").unwrap();
/// // Two conflicting pairs: 2 × 2 = 4 subset repairs.
/// let t = Table::build_unweighted(
///     s,
///     vec![tup!["x", 1, 0], tup!["x", 2, 0], tup!["y", 1, 0], tup!["y", 2, 0]],
/// )
/// .unwrap();
/// assert_eq!(count_subset_repairs(&t, &fds), ChainCountOutcome::Count(4));
/// ```
pub fn count_subset_repairs(table: &Table, fds: &FdSet) -> ChainCountOutcome {
    match count(table, &all_rows(table), &recursion_trace(fds), 0) {
        Ok(c) => ChainCountOutcome::Count(c),
        Err(stuck) => ChainCountOutcome::NotAChain(stuck),
    }
}

/// The subset-repair count of the block `rows` of `table`.
fn count(table: &Table, rows: &[u32], trace: &Trace, depth: usize) -> Result<u128, FdSet> {
    if rows.is_empty() {
        // The empty repair is the unique (vacuously maximal) one.
        return Ok(1);
    }
    let Some(step) = trace.step(depth).map_err(FdSet::clone)? else {
        return Ok(1);
    };
    match step.rule {
        Rule::CommonLhs(a) => {
            let mut total: u128 = 1;
            for block in split_blocks(table, rows, a) {
                total = total.saturating_mul(count(table, &block, trace, depth + 1)?);
            }
            Ok(total)
        }
        Rule::Consensus(x) => {
            let mut total: u128 = 0;
            for block in split_blocks(table, rows, x) {
                total = total.saturating_add(count(table, &block, trace, depth + 1)?);
            }
            Ok(total)
        }
        Rule::Marriage(..) => Err(step.before.clone()),
    }
}

/// Like [`count_subset_repairs`], but in log₂-space: returns
/// `log₂(#subset repairs)` as an `f64`, so counts far beyond `u128` are
/// reported faithfully instead of saturating. `Ok(0.0)` means a unique
/// repair.
///
/// Products become sums; the consensus rule's sum over blocks uses
/// log-sum-exp for stability.
pub fn count_subset_repairs_log2(table: &Table, fds: &FdSet) -> Result<f64, FdSet> {
    count_log2(table, &all_rows(table), &recursion_trace(fds), 0)
}

/// `log₂` of the subset-repair count of the block `rows` of `table`.
fn count_log2(table: &Table, rows: &[u32], trace: &Trace, depth: usize) -> Result<f64, FdSet> {
    if rows.is_empty() {
        return Ok(0.0);
    }
    let Some(step) = trace.step(depth).map_err(FdSet::clone)? else {
        return Ok(0.0);
    };
    match step.rule {
        Rule::CommonLhs(a) => {
            let mut total = 0.0;
            for block in split_blocks(table, rows, a) {
                total += count_log2(table, &block, trace, depth + 1)?;
            }
            Ok(total)
        }
        Rule::Consensus(x) => {
            let mut logs = Vec::new();
            for block in split_blocks(table, rows, x) {
                logs.push(count_log2(table, &block, trace, depth + 1)?);
            }
            // log2(Σ 2^l) = m + log2(Σ 2^(l - m)) with m = max l.
            let m = logs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let sum: f64 = logs.iter().map(|l| (l - m).exp2()).sum();
            Ok(m + sum.log2())
        }
        Rule::Marriage(..) => Err(step.before.clone()),
    }
}

/// Samples a subset repair **uniformly at random** for a chain FD set —
/// the standard corollary of polynomial counting: where repairs can be
/// counted, they can be sampled.
///
/// Recursion mirrors [`count_subset_repairs`]: under a common lhs the
/// groups are independent (sample each and union); under a consensus FD a
/// group is chosen with probability proportional to its repair count,
/// then sampled within. Returns the kept tuple ids, sorted, or the stuck
/// FD set when `fds` is not a chain. Exact as long as counts stay below
/// `u128::MAX` (beyond that the group choice saturates — astronomically
/// unlikely to matter before memory does).
///
/// # Examples
///
/// ```
/// use fd_core::{schema_rabc, tup, FdSet, Table};
/// use fd_srepair::sample_subset_repair;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let s = schema_rabc();
/// let fds = FdSet::parse(&s, "A -> B").unwrap();
/// let t = Table::build_unweighted(s, vec![tup!["x", 1, 0], tup!["x", 2, 0]]).unwrap();
/// let mut rng = StdRng::seed_from_u64(1);
/// let kept = sample_subset_repair(&t, &fds, &mut rng).unwrap();
/// assert_eq!(kept.len(), 1); // one of the two singleton repairs
/// ```
pub fn sample_subset_repair<R: rand::Rng + ?Sized>(
    table: &Table,
    fds: &FdSet,
    rng: &mut R,
) -> Result<Vec<TupleId>, FdSet> {
    let mut kept = sample(table, &all_rows(table), &recursion_trace(fds), 0, rng)?;
    kept.sort_unstable();
    Ok(kept)
}

/// A uniform subset repair of the block `rows` of `table`.
fn sample<R: rand::Rng + ?Sized>(
    table: &Table,
    rows: &[u32],
    trace: &Trace,
    depth: usize,
    rng: &mut R,
) -> Result<Vec<TupleId>, FdSet> {
    if rows.is_empty() {
        return Ok(Vec::new());
    }
    let Some(step) = trace.step(depth).map_err(FdSet::clone)? else {
        return Ok(ids_at(table, rows));
    };
    match step.rule {
        Rule::CommonLhs(a) => {
            let mut kept = Vec::with_capacity(rows.len());
            for block in split_blocks(table, rows, a) {
                kept.extend(sample(table, &block, trace, depth + 1, rng)?);
            }
            Ok(kept)
        }
        Rule::Consensus(x) => {
            let blocks = split_blocks(table, rows, x);
            let mut counts = Vec::with_capacity(blocks.len());
            let mut total: u128 = 0;
            for block in &blocks {
                let c = count(table, block, trace, depth + 1)?;
                total = total.saturating_add(c);
                counts.push(c);
            }
            let mut pick = rng.gen_range(0..total);
            for (block, c) in blocks.iter().zip(counts) {
                if pick < c {
                    return sample(table, block, trace, depth + 1, rng);
                }
                pick -= c;
            }
            unreachable!("pick < total by construction")
        }
        Rule::Marriage(..) => Err(step.before.clone()),
    }
}

/// Brute-force subset-repair counter (enumerates the maximal independent
/// sets of the conflict graph); exponential, for validation only.
///
/// # Panics
///
/// Panics beyond [`fd_graph::MIS_MAX_NODES`] tuples.
pub fn brute_force_count_subset_repairs(table: &Table, fds: &FdSet) -> u128 {
    if table.is_empty() {
        return 1;
    }
    let cg = ConflictGraph::build(table, fds);
    enumerate_maximal_independent_sets(&cg.graph).len() as u128
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_core::{schema_rabc, tup, Schema, Tuple};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn office_like() -> (Table, FdSet) {
        // The running example's FD set is a chain:
        // facility -> city; facility room -> floor.
        let s = Schema::new("Office", ["facility", "room", "floor", "city"]).unwrap();
        let fds = FdSet::parse(&s, "facility -> city; facility room -> floor").unwrap();
        let t = Table::build(
            s,
            vec![
                (tup!["HQ", "322", 3, "Paris"], 2.0),
                (tup!["HQ", "322", 30, "Madrid"], 1.0),
                (tup!["HQ", "122", 1, "Madrid"], 1.0),
                (tup!["Lab1", "B35", 3, "London"], 2.0),
            ],
        )
        .unwrap();
        (t, fds)
    }

    #[test]
    fn empty_fds_unique_repair() {
        let s = schema_rabc();
        let t = Table::build_unweighted(s, vec![tup!["x", 1, 0]]).unwrap();
        assert_eq!(
            count_subset_repairs(&t, &FdSet::empty()),
            ChainCountOutcome::Count(1)
        );
    }

    #[test]
    fn empty_table_unique_repair() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        let t = Table::new(s);
        assert_eq!(count_subset_repairs(&t, &fds), ChainCountOutcome::Count(1));
    }

    #[test]
    fn consensus_counts_add() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "-> A").unwrap();
        // Two A-groups of sizes 2 and 1: each group is one repair.
        let t = Table::build_unweighted(s, vec![tup!["x", 1, 0], tup!["x", 2, 0], tup!["y", 1, 0]])
            .unwrap();
        assert_eq!(count_subset_repairs(&t, &fds), ChainCountOutcome::Count(2));
    }

    #[test]
    fn running_example_matches_brute_force() {
        let (t, fds) = office_like();
        let ChainCountOutcome::Count(fast) = count_subset_repairs(&t, &fds) else {
            panic!("office FD set is a chain");
        };
        assert_eq!(fast, brute_force_count_subset_repairs(&t, &fds));
        // Conflicts: tuple 1 vs 2 (floor and city) and 1 vs 3 (city); the
        // conflict graph is a star at tuple 1, so the repairs are
        // {2, 3, 4} (= S1) and {1, 4} (= S2) — exactly the paper's two
        // optimal S-repairs of Figure 1.
        assert_eq!(fast, 2);
    }

    #[test]
    fn non_chain_is_reported() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B; B -> C").unwrap();
        let t = Table::build_unweighted(s, vec![tup!["x", 1, 0]]).unwrap();
        assert!(matches!(
            count_subset_repairs(&t, &fds),
            ChainCountOutcome::NotAChain(_)
        ));
    }

    #[test]
    fn matches_brute_force_on_random_chain_instances() {
        let mut rng = StdRng::seed_from_u64(0xcaa1);
        let s = schema_rabc();
        // Chain FD set: A -> B, AB -> C ({A} ⊆ {A, B}).
        let fds = FdSet::parse(&s, "A -> B; A B -> C").unwrap();
        for trial in 0..300 {
            let n = 1 + trial % 8;
            let rows: Vec<Tuple> = (0..n)
                .map(|_| {
                    tup![
                        ["x", "y"][rng.gen_range(0..2usize)],
                        rng.gen_range(0..3) as i64,
                        rng.gen_range(0..2) as i64
                    ]
                })
                .collect();
            let t = Table::build_unweighted(s.clone(), rows).unwrap();
            let ChainCountOutcome::Count(fast) = count_subset_repairs(&t, &fds) else {
                panic!("chain FD set must not get stuck");
            };
            assert_eq!(
                fast,
                brute_force_count_subset_repairs(&t, &fds),
                "trial {trial}: {t:?}"
            );
        }
    }

    #[test]
    fn sampling_is_uniform_over_the_repairs() {
        // Two independent conflicting pairs + a clean tuple: 4 repairs.
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        let t = Table::build_unweighted(
            s,
            vec![
                tup!["x", 1, 0],
                tup!["x", 2, 0],
                tup!["y", 1, 0],
                tup!["y", 2, 0],
                tup!["z", 0, 0],
            ],
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(0x5a3b1e);
        let mut freq: std::collections::HashMap<Vec<fd_core::TupleId>, u32> =
            std::collections::HashMap::new();
        let trials = 8000u32;
        for _ in 0..trials {
            let kept = sample_subset_repair(&t, &fds, &mut rng).unwrap();
            // Every sample is a genuine subset repair.
            let keep: std::collections::HashSet<_> = kept.iter().copied().collect();
            assert!(t.subset(&keep).satisfies(&fds));
            assert_eq!(kept.len(), 3);
            *freq.entry(kept).or_default() += 1;
        }
        assert_eq!(freq.len(), 4, "all four repairs must be hit");
        for (repair, count) in freq {
            let expected = trials as f64 / 4.0;
            assert!(
                (count as f64 - expected).abs() < 5.0 * (expected * 0.75).sqrt(),
                "repair {repair:?} sampled {count} times (expected ≈ {expected})"
            );
        }
    }

    #[test]
    fn sampling_respects_consensus_block_sizes() {
        // ∅ → A with groups of 1 repair each but different *repair
        // counts* downstream: group x has 2 repairs (conflicting pair
        // under A -> B after the consensus on... here simply two
        // sub-repairs), group y has 1. Sampling must weight 2:1.
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "-> A; A B -> C").unwrap();
        let t = Table::build_unweighted(
            s,
            vec![
                tup!["x", 1, 0], // group x: conflicting pair on (A,B)=(x,1)
                tup!["x", 1, 1],
                tup!["y", 1, 0], // group y: single tuple, one repair
            ],
        )
        .unwrap();
        assert_eq!(count_subset_repairs(&t, &fds), ChainCountOutcome::Count(3));
        let mut rng = StdRng::seed_from_u64(0xb10c);
        let mut in_x = 0u32;
        let trials = 6000u32;
        for _ in 0..trials {
            let kept = sample_subset_repair(&t, &fds, &mut rng).unwrap();
            if kept.contains(&fd_core::TupleId(0)) || kept.contains(&fd_core::TupleId(1)) {
                in_x += 1;
            }
        }
        // Expect 2/3 of the samples in group x.
        let ratio = in_x as f64 / trials as f64;
        assert!((ratio - 2.0 / 3.0).abs() < 0.03, "measured ratio {ratio}");
    }

    #[test]
    fn sampling_fails_exactly_where_counting_fails() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B; B -> C").unwrap();
        let t = Table::build_unweighted(s, vec![tup!["x", 1, 0]]).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(sample_subset_repair(&t, &fds, &mut rng).is_err());
    }

    #[test]
    fn log2_count_matches_exact_count() {
        let mut rng = StdRng::seed_from_u64(0x1069);
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B; A B -> C").unwrap();
        for _ in 0..100 {
            let n = 1 + rng.gen_range(0..8);
            let rows: Vec<Tuple> = (0..n)
                .map(|_| {
                    tup![
                        ["x", "y"][rng.gen_range(0..2usize)],
                        rng.gen_range(0..3) as i64,
                        rng.gen_range(0..2) as i64
                    ]
                })
                .collect();
            let t = Table::build_unweighted(s.clone(), rows).unwrap();
            let ChainCountOutcome::Count(exact) = count_subset_repairs(&t, &fds) else {
                panic!("chain");
            };
            let log2 = count_subset_repairs_log2(&t, &fds).unwrap();
            assert!(
                (log2 - (exact as f64).log2()).abs() < 1e-9,
                "log2 {log2} vs exact {exact}"
            );
        }
    }

    #[test]
    fn polynomial_on_large_instance() {
        // 2^100-ish repair counts finish instantly where enumeration never
        // would: 100 independent conflicting pairs.
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        let mut rows = Vec::new();
        for g in 0..100i64 {
            rows.push(tup![g, 1, 0]);
            rows.push(tup![g, 2, 0]);
        }
        let t = Table::build_unweighted(s, rows).unwrap();
        assert_eq!(
            count_subset_repairs(&t, &fds),
            ChainCountOutcome::Count(1u128 << 100)
        );
    }
}
