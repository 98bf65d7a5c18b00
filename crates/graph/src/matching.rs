//! Maximum-weight bipartite matching.
//!
//! `MarriageRep` (Subroutine 3 of Algorithm 1) reduces the lhs-marriage case
//! to a maximum-weight matching of the bipartite graph whose sides are the
//! projections `π_{X₁}T` and `π_{X₂}T`. The graph is split into its
//! connected components first, and each component is solved alone with
//! the O(n³) Hungarian algorithm (potentials + shortest augmenting paths)
//! on its zero-padded square matrix; with nonnegative edge weights the
//! optimal assignment restricted to real edges is a maximum-weight
//! matching. Under a marriage every FD's lhs contains `X₁` or `X₂`, so
//! the bipartite components are exactly the conflict components of the
//! table: the matching, and with it Algorithm 1, is component-local, and
//! the cost is cubic in the largest component rather than in the table.

use crate::csr::{Components, UnionFind};

/// The result of a matching computation.
#[derive(Clone, Debug, PartialEq)]
pub struct Matching {
    /// Sum of the weights of matched (real) edges.
    pub total_weight: f64,
    /// Matched pairs `(left, right)`, sorted by left node.
    pub pairs: Vec<(u32, u32)>,
}

/// Computes a maximum-weight matching of the bipartite graph with parts
/// `0..n_left` and `0..n_right` and weighted edges `(l, r, w)`, `w ≥ 0`.
/// Parallel edges are merged keeping the maximum weight.
///
/// Each connected component is matched on its own, with its nodes
/// relabelled in their original relative order, so the pairs chosen
/// inside a component do not depend on the rest of the graph: the
/// matching of a disjoint union is the union of the matchings.
pub fn max_weight_bipartite_matching(
    n_left: usize,
    n_right: usize,
    edges: &[(u32, u32, f64)],
) -> Matching {
    debug_assert!(
        edges.iter().all(|&(_, _, w)| w >= 0.0),
        "weights must be nonnegative"
    );
    // Left node `l` is node `l`, right node `r` is node `n_left + r`.
    let mut uf = UnionFind::new(n_left + n_right);
    for &(l, r, _) in edges {
        assert!(
            (l as usize) < n_left && (r as usize) < n_right,
            "edge endpoint out of range"
        );
        uf.union(l, (n_left + r as usize) as u32);
    }
    let comps = Components::from_union_find(uf);
    // Per node: the index of its component and its rank on its side of
    // that component (components list their nodes ascending, lefts first).
    let mut comp_of = vec![0u32; n_left + n_right];
    let mut local = vec![0u32; n_left + n_right];
    let mut splits = Vec::with_capacity(comps.len());
    for (c, comp) in comps.iter().enumerate() {
        let split = comp.partition_point(|&v| (v as usize) < n_left);
        for side in [&comp[..split], &comp[split..]] {
            for (rank, &v) in side.iter().enumerate() {
                comp_of[v as usize] = c as u32;
                local[v as usize] = rank as u32;
            }
        }
        splits.push(split);
    }
    let mut buckets: Vec<Vec<(u32, u32, f64)>> = vec![Vec::new(); comps.len()];
    for &(l, r, w) in edges {
        let r = n_left + r as usize;
        buckets[comp_of[l as usize] as usize].push((local[l as usize], local[r], w));
    }
    let mut matched: Vec<(u32, u32, f64)> = Vec::new();
    for ((comp, split), sub_edges) in comps.iter().zip(splits).zip(&buckets) {
        if sub_edges.is_empty() {
            continue;
        }
        let (lefts, rights) = comp.split_at(split);
        for (l, r, w) in dense_matching(lefts.len(), rights.len(), sub_edges) {
            matched.push((lefts[l], rights[r] - n_left as u32, w));
        }
    }
    matched.sort_unstable_by_key(|&(l, r, _)| (l, r));
    Matching {
        total_weight: matched.iter().fold(0.0, |total, &(_, _, w)| total + w),
        pairs: matched.into_iter().map(|(l, r, _)| (l, r)).collect(),
    }
}

/// The Hungarian algorithm on one connected component: the matched real
/// edges `(l, r, w)` of a maximum-weight matching, in left order.
fn dense_matching(
    n_left: usize,
    n_right: usize,
    edges: &[(u32, u32, f64)],
) -> Vec<(usize, usize, f64)> {
    let n = n_left.max(n_right);
    // weight[l][r]: 0 for non-edges (padding), otherwise the edge weight.
    let mut weight = vec![vec![0.0f64; n]; n];
    let mut is_edge = vec![vec![false; n]; n];
    for &(l, r, w) in edges {
        let (l, r) = (l as usize, r as usize);
        if !is_edge[l][r] || w > weight[l][r] {
            weight[l][r] = w;
            is_edge[l][r] = true;
        }
    }
    let assignment = hungarian_min(&|i, j| -weight[i][j], n);
    assignment
        .into_iter()
        .enumerate()
        .filter(|&(l, r)| l < n_left && r < n_right && is_edge[l][r])
        .map(|(l, r)| (l, r, weight[l][r]))
        .collect()
}

/// Minimum-cost perfect assignment on an `n × n` cost matrix given as a
/// closure; returns `assign[row] = col`. Standard Hungarian algorithm with
/// row/column potentials, O(n³).
fn hungarian_min(cost: &dyn Fn(usize, usize) -> f64, n: usize) -> Vec<usize> {
    const UNASSIGNED: usize = usize::MAX;
    // 1-indexed internals; p[j] = row matched to column j.
    let mut u = vec![0.0f64; n + 1];
    let mut v = vec![0.0f64; n + 1];
    let mut p = vec![UNASSIGNED; n + 1];
    let mut way = vec![0usize; n + 1];
    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![f64::INFINITY; n + 1];
        let mut used = vec![false; n + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = f64::INFINITY;
            let mut j1 = 0usize;
            for j in 1..=n {
                if used[j] {
                    continue;
                }
                let cur = cost(i0 - 1, j - 1) - u[i0] - v[j];
                if cur < minv[j] {
                    minv[j] = cur;
                    way[j] = j0;
                }
                if minv[j] < delta {
                    delta = minv[j];
                    j1 = j;
                }
            }
            for j in 0..=n {
                if used[j] {
                    if p[j] != UNASSIGNED {
                        u[p[j]] += delta;
                    }
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == UNASSIGNED {
                break;
            }
        }
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }
    let mut assign = vec![UNASSIGNED; n];
    for j in 1..=n {
        if p[j] != UNASSIGNED {
            assign[p[j] - 1] = j - 1;
        }
    }
    assign
}

/// Exhaustive maximum-weight matching, exponential in the number of edges.
/// Oracle for property-testing the Hungarian implementation.
pub fn brute_force_matching(edges: &[(u32, u32, f64)]) -> f64 {
    fn rec(edges: &[(u32, u32, f64)], used_l: u64, used_r: u64, idx: usize) -> f64 {
        if idx == edges.len() {
            return 0.0;
        }
        let (l, r, w) = edges[idx];
        let skip = rec(edges, used_l, used_r, idx + 1);
        if used_l & (1 << l) == 0 && used_r & (1 << r) == 0 {
            let take = w + rec(edges, used_l | (1 << l), used_r | (1 << r), idx + 1);
            skip.max(take)
        } else {
            skip
        }
    }
    rec(edges, 0, 0, 0)
}

#[cfg(test)]
#[allow(clippy::type_complexity)]
mod tests {
    use super::*;

    #[test]
    fn empty_cases() {
        assert_eq!(max_weight_bipartite_matching(0, 5, &[]).total_weight, 0.0);
        assert_eq!(max_weight_bipartite_matching(3, 3, &[]).pairs.len(), 0);
    }

    #[test]
    fn single_edge() {
        let m = max_weight_bipartite_matching(1, 1, &[(0, 0, 7.0)]);
        assert_eq!(m.total_weight, 7.0);
        assert_eq!(m.pairs, vec![(0, 0)]);
    }

    #[test]
    fn prefers_heavier_combination() {
        // (0-0: 10) and (1-1: 10) beat the single heavy edge (0-1: 15).
        let m = max_weight_bipartite_matching(2, 2, &[(0, 0, 10.0), (0, 1, 15.0), (1, 1, 10.0)]);
        assert_eq!(m.total_weight, 20.0);
        assert_eq!(m.pairs, vec![(0, 0), (1, 1)]);
    }

    #[test]
    fn rectangular_sides() {
        // 3 left, 2 right: at most 2 matches.
        let m = max_weight_bipartite_matching(
            3,
            2,
            &[(0, 0, 5.0), (1, 0, 6.0), (2, 1, 2.0), (2, 0, 9.0)],
        );
        // Best: (2,0)=9 and (2,1)? no — node 2 used once. (2,0)+nothing on 1? r1 only from l2.
        // Options: (0,0)+(2,1)=7; (1,0)+(2,1)=8; (2,0)=9; (2,0) blocks r0 ⇒ total 9.
        // Max is (1,0)+(2,1)=8 vs 9 ⇒ 9.
        assert_eq!(m.total_weight, 9.0);
    }

    #[test]
    fn parallel_edges_keep_max() {
        let m = max_weight_bipartite_matching(1, 1, &[(0, 0, 3.0), (0, 0, 8.0)]);
        assert_eq!(m.total_weight, 8.0);
    }

    #[test]
    fn matches_brute_force_on_fixed_instances() {
        let cases: Vec<(usize, usize, Vec<(u32, u32, f64)>)> = vec![
            (
                3,
                3,
                vec![
                    (0, 0, 1.0),
                    (0, 1, 2.0),
                    (1, 0, 2.0),
                    (1, 2, 1.0),
                    (2, 2, 4.0),
                ],
            ),
            (
                4,
                3,
                vec![
                    (0, 0, 3.0),
                    (1, 0, 3.0),
                    (2, 1, 3.0),
                    (3, 1, 3.0),
                    (3, 2, 1.0),
                ],
            ),
            (2, 4, vec![(0, 3, 2.5), (1, 3, 2.5), (1, 0, 2.0)]),
        ];
        for (nl, nr, edges) in cases {
            let fast = max_weight_bipartite_matching(nl, nr, &edges);
            let slow = brute_force_matching(&edges);
            assert!(
                (fast.total_weight - slow).abs() < 1e-9,
                "hungarian={} brute={} edges={edges:?}",
                fast.total_weight,
                slow
            );
            // Matched pairs must form a matching over real edges.
            let mut ls: Vec<u32> = fast.pairs.iter().map(|p| p.0).collect();
            let mut rs: Vec<u32> = fast.pairs.iter().map(|p| p.1).collect();
            ls.dedup();
            rs.sort_unstable();
            rs.dedup();
            assert_eq!(ls.len(), fast.pairs.len());
            assert_eq!(rs.len(), fast.pairs.len());
        }
    }

    /// Random bipartite graph on `nl × nr` nodes with `m` edges whose
    /// weights repeat often, so ties between optima are common.
    fn random_graph(
        rng: &mut rand::rngs::StdRng,
        nl: u32,
        nr: u32,
        m: usize,
    ) -> Vec<(u32, u32, f64)> {
        use rand::Rng;
        (0..m)
            .map(|_| {
                (
                    rng.gen_range(0..nl),
                    rng.gen_range(0..nr),
                    rng.gen_range(1..4) as f64,
                )
            })
            .collect()
    }

    #[test]
    fn disjoint_union_matches_the_union_of_the_parts() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xD15);
        for _ in 0..200 {
            // Two graphs side by side: the second is shifted past the
            // first on both sides, so no edge joins them.
            let (nl1, nr1, nl2, nr2) = (4u32, 3u32, 3u32, 5u32);
            let g1 = random_graph(&mut rng, nl1, nr1, 7);
            let g2 = random_graph(&mut rng, nl2, nr2, 8);
            let union: Vec<_> = g1
                .iter()
                .copied()
                .chain(g2.iter().map(|&(l, r, w)| (l + nl1, r + nr1, w)))
                .collect();
            let whole =
                max_weight_bipartite_matching((nl1 + nl2) as usize, (nr1 + nr2) as usize, &union);
            let m1 = max_weight_bipartite_matching(nl1 as usize, nr1 as usize, &g1);
            let m2 = max_weight_bipartite_matching(nl2 as usize, nr2 as usize, &g2);
            let mut expected = m1.pairs.clone();
            expected.extend(m2.pairs.iter().map(|&(l, r)| (l + nl1, r + nr1)));
            expected.sort_unstable();
            assert_eq!(whole.pairs, expected, "{union:?}");
            assert_eq!(whole.total_weight, m1.total_weight + m2.total_weight);
        }
    }

    #[test]
    fn random_multi_component_instances_match_brute_force() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xB2F);
        for _ in 0..300 {
            // Up to four blocks of 2–3 nodes per side; edges stay inside
            // a block, so most instances have several components.
            let blocks = rng.gen_range(1..=4u32);
            let mut edges = Vec::new();
            for b in 0..blocks {
                let m = rng.gen_range(1..=4);
                for (l, r, w) in random_graph(&mut rng, 3, 3, m) {
                    edges.push((3 * b + l, 3 * b + r, w));
                }
            }
            let n = (3 * blocks) as usize;
            let fast = max_weight_bipartite_matching(n, n, &edges);
            let slow = brute_force_matching(&edges);
            assert!(
                (fast.total_weight - slow).abs() < 1e-9,
                "hungarian={} brute={slow} edges={edges:?}",
                fast.total_weight
            );
            let mut rs: Vec<u32> = fast.pairs.iter().map(|p| p.1).collect();
            rs.sort_unstable();
            rs.dedup();
            assert_eq!(rs.len(), fast.pairs.len(), "right nodes matched once");
            assert!(fast.pairs.windows(2).all(|w| w[0].0 < w[1].0));
        }
    }
}

/// Greedy matching ablation: scan edges by descending weight, take an edge
/// whenever both endpoints are free. Fast but suboptimal — `MarriageRep`
/// built on this would *not* return optimal S-repairs; the benchmark suite
/// quantifies the quality gap against the Hungarian algorithm.
pub fn greedy_matching(edges: &[(u32, u32, f64)]) -> Matching {
    let mut sorted: Vec<(u32, u32, f64)> = edges.to_vec();
    sorted.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("finite weights"));
    let mut used_l = std::collections::HashSet::new();
    let mut used_r = std::collections::HashSet::new();
    let mut pairs = Vec::new();
    let mut total = 0.0;
    for (l, r, w) in sorted {
        if !used_l.contains(&l) && !used_r.contains(&r) {
            used_l.insert(l);
            used_r.insert(r);
            pairs.push((l, r));
            total += w;
        }
    }
    pairs.sort_unstable();
    Matching {
        total_weight: total,
        pairs,
    }
}

#[cfg(test)]
mod greedy_tests {
    use super::*;

    #[test]
    fn greedy_is_a_valid_matching_but_can_lose() {
        // Greedy grabs the 15-edge and blocks both 10s: 15 < 20.
        let edges = [(0, 0, 10.0), (0, 1, 15.0), (1, 1, 10.0)];
        let greedy = greedy_matching(&edges);
        assert_eq!(greedy.total_weight, 15.0);
        let optimal = max_weight_bipartite_matching(2, 2, &edges);
        assert_eq!(optimal.total_weight, 20.0);
        assert!(greedy.total_weight < optimal.total_weight);
    }

    #[test]
    fn greedy_never_exceeds_optimal_and_stays_within_half() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(0x6D);
        for _ in 0..30 {
            let edges: Vec<(u32, u32, f64)> = (0..rng.gen_range(1..10))
                .map(|_| {
                    (
                        rng.gen_range(0..5),
                        rng.gen_range(0..5),
                        rng.gen_range(1..20) as f64,
                    )
                })
                .collect();
            let greedy = greedy_matching(&edges);
            let optimal = max_weight_bipartite_matching(5, 5, &edges);
            assert!(greedy.total_weight <= optimal.total_weight + 1e-9);
            // Classic guarantee: greedy is a 1/2-approximation.
            assert!(2.0 * greedy.total_weight >= optimal.total_weight - 1e-9);
            // And a valid matching.
            let mut ls: Vec<u32> = greedy.pairs.iter().map(|p| p.0).collect();
            ls.sort_unstable();
            let l_unique = ls.windows(2).all(|w| w[0] != w[1]);
            assert!(l_unique);
        }
    }
}
