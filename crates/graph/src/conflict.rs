//! Conflict graphs of tables under FD sets (Proposition 3.3).
//!
//! The nodes are the tuples of the table, weighted by the tuple weights;
//! edges join tuples that jointly violate an FD. Consistent subsets are
//! exactly the independent sets of this graph, so an optimal S-repair is the
//! complement of a minimum-weight vertex cover.

use crate::csr::{Components, UnionFind};
use crate::graph::Graph;
use fd_core::{for_each_cross_pair, ConflictIndex, FdSet, SplitScratch, Table};

/// A conflict graph whose node `i` is the `i`-th of the row positions
/// it was built over, weighted by that row's weight.
#[derive(Clone, Debug)]
pub struct ConflictGraph {
    /// The graph.
    pub graph: Graph,
}

impl ConflictGraph {
    /// The conflict graph of all of `table` under `fds`, node `i` being
    /// row `i`: [`ConflictGraph::of_rows`] over a fresh [`ConflictIndex`].
    pub fn build(table: &Table, fds: &FdSet) -> ConflictGraph {
        let mut sp = fd_trace::span("graph/conflict_build");
        sp.attr("rows", table.len());
        let rows: Vec<u32> = (0..table.len() as u32).collect();
        let cg = ConflictGraph::of_rows(table, &ConflictIndex::build(table, fds), &rows);
        sp.attr("edges", cg.graph.edge_count());
        cg
    }

    /// The conflict graph on the ascending row positions `rows`, a union
    /// of components, read off `index` (of `table`, keyed by position or
    /// by id): node `i` is `rows[i]`. Edges arrive FD by FD, each group
    /// at its first row, classes by first member, members in row order:
    /// the order a fresh index of the rows gathered into their own table
    /// yields, so vertex covers pick the same nodes.
    pub fn of_rows(table: &Table, index: &ConflictIndex, rows: &[u32]) -> ConflictGraph {
        let mut graph = Graph::new(rows.iter().map(|&p| table.weights()[p as usize]).collect());
        let node = |pos: u32| {
            rows.binary_search(&pos)
                .expect("conflicting groups lie inside the rows") as u32
        };
        let mut scratch = SplitScratch::default();
        for fd in 0..index.fd_count() {
            let mut visited = vec![false; rows.len()];
            for (v, &pos) in rows.iter().enumerate() {
                if visited[v] {
                    continue;
                }
                let Some(classes) = index.conflict_classes(table, fd, pos, &mut scratch) else {
                    continue;
                };
                for p in classes.iter_mut().flatten() {
                    *p = node(*p);
                    visited[*p as usize] = true;
                }
                for_each_cross_pair(classes, |u, w| graph.add_edge(u, w));
            }
        }
        ConflictGraph { graph }
    }
}

/// The connected components of the conflict graph of `table` under
/// `fds`, read off a fresh [`ConflictIndex`] (dropped on return) by
/// [`index_components`]: `O(|T| · |Δ| · α)` time, no edge enumerated.
/// Nodes are row positions; the CSR partition is ordered by smallest
/// row, exactly as [`Graph::connected_components`] orders the
/// materialized graph's.
pub fn conflict_components(table: &Table, fds: &FdSet) -> Components {
    index_components(&ConflictIndex::build(table, fds))
}

/// The connected components of a [`ConflictIndex`]'s conflict graph
/// over its row keys `0..key_space()`, ordered by smallest key (unused
/// keys are singletons). Each conflicting group induces a connected
/// complete multipartite block, so unioning its rows connects exactly
/// what its `Θ(group²)` edges would.
pub fn index_components(index: &ConflictIndex) -> Components {
    let mut sp = fd_trace::span("graph/components");
    sp.attr("rows", index.key_space());
    let mut uf = UnionFind::new(index.key_space());
    for fd in 0..index.fd_count() {
        for g in index.conflict_groups(fd) {
            let mut members = index.members(fd, g);
            let first = members.next().expect("a conflicting group has members");
            for key in members {
                uf.union(first, key);
            }
        }
    }
    let components = Components::from_union_find(uf);
    sp.attr("components", components.len());
    sp.attr("largest", components.largest());
    components
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_core::{schema_rabc, tup, Table};

    #[test]
    fn builds_edges_for_violations() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        let t = Table::build(
            s,
            vec![
                (tup!["x", 1, 0], 2.0),
                (tup!["x", 2, 0], 1.0),
                (tup!["y", 1, 0], 1.0),
            ],
        )
        .unwrap();
        let cg = ConflictGraph::build(&t, &fds);
        assert_eq!(cg.graph.node_count(), 3);
        assert_eq!(cg.graph.edge_count(), 1);
        assert!(cg.graph.has_edge(0, 1));
        assert_eq!(cg.graph.weight(0), 2.0);
    }

    #[test]
    fn consistent_table_has_no_edges() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B; B -> C").unwrap();
        let t = Table::build_unweighted(s, vec![tup!["x", 1, 1], tup!["y", 2, 2], tup!["z", 3, 3]])
            .unwrap();
        let cg = ConflictGraph::build(&t, &fds);
        assert_eq!(cg.graph.edge_count(), 0);
    }

    #[test]
    fn group_conflicts_form_complete_multipartite_blocks() {
        // Four tuples share A; B values 1,1,2,3 ⇒ conflicts across the
        // three B-classes: {0,1}×{2}, {0,1}×{3}, {2}×{3} = 5 edges.
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        let t = Table::build_unweighted(
            s,
            vec![
                tup!["x", 1, 0],
                tup!["x", 1, 1],
                tup!["x", 2, 0],
                tup!["x", 3, 0],
            ],
        )
        .unwrap();
        let cg = ConflictGraph::build(&t, &fds);
        assert_eq!(cg.graph.edge_count(), 5);
        assert!(!cg.graph.has_edge(0, 1)); // same B, no conflict
    }
}

#[cfg(test)]
mod component_tests {
    use super::*;
    use fd_core::{schema_rabc, tup, FdSet, Table};
    use rand::prelude::*;

    #[test]
    fn edge_free_components_match_graph_components() {
        let s = schema_rabc();
        let mut rng = StdRng::seed_from_u64(0xC0DE);
        for spec in ["A -> B", "A -> B; B -> C", "-> C", "A -> C; B -> C", ""] {
            let fds = FdSet::parse(&s, spec).unwrap();
            for _ in 0..10 {
                let rows = (0..rng.gen_range(0..25)).map(|_| {
                    (
                        tup![
                            rng.gen_range(0..4i64),
                            rng.gen_range(0..3i64),
                            rng.gen_range(0..3i64)
                        ],
                        1.0,
                    )
                });
                let t = Table::build(s.clone(), rows).unwrap();
                let fast = conflict_components(&t, &fds);
                let via_graph = ConflictGraph::build(&t, &fds).graph.connected_components();
                let got: Vec<Vec<u32>> = fast.iter().map(<[u32]>::to_vec).collect();
                assert_eq!(got, via_graph, "{spec}\n{t}");
            }
        }
    }

    #[test]
    fn consensus_fd_collapses_everything_into_one_component() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "-> C").unwrap();
        let t =
            Table::build_unweighted(s, vec![tup![1, 1, 0], tup![2, 2, 1], tup![3, 3, 2]]).unwrap();
        let comps = conflict_components(&t, &fds);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps.largest(), 3);
    }
}

#[cfg(test)]
mod naive_tests {
    use super::*;
    use fd_core::{schema_rabc, tup, Table};
    use rand::prelude::*;

    /// The conflict graph by the naive all-pairs scan (O(n²·|Δ|) tuple
    /// comparisons): the reference [`ConflictGraph::build`] is checked
    /// against.
    fn build_naive(table: &Table, fds: &FdSet) -> ConflictGraph {
        let mut graph = Graph::new(table.weights().to_vec());
        let agree = |i: usize, j: usize, attrs: fd_core::AttrSet| {
            attrs.iter().all(|a| table.col(a)[i] == table.col(a)[j])
        };
        for i in 0..table.len() {
            for j in i + 1..table.len() {
                let conflicting = fds
                    .iter()
                    .any(|fd| agree(i, j, fd.lhs()) && !agree(i, j, fd.rhs()));
                if conflicting {
                    graph.add_edge(i as u32, j as u32);
                }
            }
        }
        ConflictGraph { graph }
    }

    #[test]
    fn naive_agrees_with_grouped() {
        let s = schema_rabc();
        let mut rng = StdRng::seed_from_u64(0x6E);
        for spec in ["A -> B", "A -> B; B -> C", "-> C", "A B -> C; C -> B"] {
            let fds = FdSet::parse(&s, spec).unwrap();
            for _ in 0..10 {
                let rows = (0..rng.gen_range(0..12)).map(|_| {
                    (
                        tup![
                            rng.gen_range(0..3i64),
                            rng.gen_range(0..3i64),
                            rng.gen_range(0..3i64)
                        ],
                        1.0,
                    )
                });
                let t = Table::build(s.clone(), rows).unwrap();
                let fast = ConflictGraph::build(&t, &fds);
                let naive = build_naive(&t, &fds);
                let mut fe: Vec<_> = fast.graph.edges().to_vec();
                let mut ne: Vec<_> = naive.graph.edges().to_vec();
                fe.sort_unstable();
                ne.sort_unstable();
                assert_eq!(fe, ne, "{spec}\n{t}");
            }
        }
    }
}

#[cfg(test)]
mod of_rows_tests {
    use super::*;
    use fd_core::{schema_rabc, tup, Mutation, Table, TupleId, Value};
    use rand::prelude::*;

    const SPECS: [&str; 4] = [
        "A -> B; B -> C",
        "A -> C; B -> C",
        "A B -> C; C -> B",
        "-> C; A -> B",
    ];

    fn random_table(rng: &mut StdRng) -> Table {
        let rows: Vec<_> = (0..rng.gen_range(0..30))
            .map(|_| {
                (
                    tup![
                        rng.gen_range(0..5i64),
                        rng.gen_range(0..4i64),
                        rng.gen_range(0..3i64)
                    ],
                    [1.0, 2.0, 0.5][rng.gen_range(0..3usize)],
                )
            })
            .collect();
        Table::build(schema_rabc(), rows).unwrap()
    }

    /// Every conflicting component read off `index` (whose keys
    /// `position` maps to row positions) has the weights and the edges,
    /// in insertion order, of the conflict graph of the component
    /// gathered into its own table.
    fn assert_matches_gathered(
        t: &Table,
        fds: &FdSet,
        index: &ConflictIndex,
        position: impl Fn(u32) -> u32,
        ctx: &str,
    ) {
        for comp in index_components(index).iter().filter(|c| c.len() >= 2) {
            let mut rows: Vec<u32> = comp.iter().map(|&key| position(key)).collect();
            rows.sort_unstable();
            let read = ConflictGraph::of_rows(t, index, &rows).graph;
            let gathered = ConflictGraph::build(&t.gather_positions(&rows), fds).graph;
            assert_eq!(read.edges(), gathered.edges(), "{ctx} rows {rows:?}\n{t}");
            let weights =
                |g: &Graph| -> Vec<f64> { (0..rows.len() as u32).map(|v| g.weight(v)).collect() };
            assert_eq!(weights(&read), weights(&gathered), "{ctx}");
        }
    }

    #[test]
    fn components_read_off_a_fresh_index_match_their_gathered_tables() {
        let mut rng = StdRng::seed_from_u64(0x0F_2095);
        for spec in SPECS {
            let fds = FdSet::parse(&schema_rabc(), spec).unwrap();
            for case in 0..20 {
                let t = random_table(&mut rng);
                let index = ConflictIndex::build(&t, &fds);
                assert_matches_gathered(&t, &fds, &index, |pos| pos, &format!("{spec} #{case}"));
            }
        }
    }

    #[test]
    fn components_read_off_a_mutated_id_index_match_their_gathered_tables() {
        let mut rng = StdRng::seed_from_u64(0x1D_2095);
        let s = schema_rabc();
        for spec in SPECS {
            let fds = FdSet::parse(&s, spec).unwrap();
            for case in 0..4 {
                let mut t = random_table(&mut rng);
                let mut index = ConflictIndex::build_by_id(&t, &fds);
                for step in 0..60 {
                    let alive: Vec<TupleId> = t.ids().collect();
                    let m = match rng.gen_range(0..3usize) {
                        1 if !alive.is_empty() => Mutation::Delete {
                            id: alive[rng.gen_range(0..alive.len())],
                        },
                        2 if !alive.is_empty() => Mutation::SetCell {
                            id: alive[rng.gen_range(0..alive.len())],
                            attr: s.attr(["A", "B", "C"][rng.gen_range(0..3usize)]).unwrap(),
                            value: Value::from(rng.gen_range(0..4i64)),
                        },
                        _ => Mutation::Insert {
                            tuple: tup![
                                rng.gen_range(0..5i64),
                                rng.gen_range(0..4i64),
                                rng.gen_range(0..3i64)
                            ],
                            weight: [1.0, 2.0, 0.5][rng.gen_range(0..3usize)],
                        },
                    };
                    let effect = t.apply_mutation(&m).unwrap();
                    index.apply(&t, &effect);
                    let position = |key: u32| t.position_of(TupleId(key)).expect("live") as u32;
                    let ctx = format!("{spec} #{case} step {step} {m:?}");
                    assert_matches_gathered(&t, &fds, &index, position, &ctx);
                }
            }
        }
    }
}
