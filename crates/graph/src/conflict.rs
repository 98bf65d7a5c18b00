//! Conflict graphs of tables under FD sets (Proposition 3.3).
//!
//! The nodes are the tuples of the table, weighted by the tuple weights;
//! edges join tuples that jointly violate an FD. Consistent subsets are
//! exactly the independent sets of this graph, so an optimal S-repair is the
//! complement of a minimum-weight vertex cover.

use crate::csr::{Components, UnionFind};
use crate::graph::Graph;
use fd_core::{ConflictIndex, FdSet, Table, TupleId};

/// A conflict graph together with the node-to-tuple-id mapping.
#[derive(Clone, Debug)]
pub struct ConflictGraph {
    /// The graph; node `i` corresponds to `ids[i]`.
    pub graph: Graph,
    /// Tuple ids in node order.
    pub ids: Vec<TupleId>,
}

impl ConflictGraph {
    /// Builds the conflict graph of `table` under `fds` by streaming
    /// [`Table::for_each_conflicting_pair`] into it (edges deduplicated
    /// on insertion). Node `i` is the `i`-th row. The stream's order
    /// restricted to one component is the component's own stream order,
    /// which sharded/whole-table parity relies on.
    pub fn build(table: &Table, fds: &FdSet) -> ConflictGraph {
        let mut sp = fd_trace::span("graph/conflict_build");
        sp.attr("rows", table.len());
        let ids: Vec<TupleId> = table.ids().collect();
        let mut graph = Graph::new(table.weights().to_vec());
        table.for_each_conflicting_pair(fds, |p, q| {
            graph.add_edge(p, q);
        });
        sp.attr("edges", graph.edge_count());
        ConflictGraph { graph, ids }
    }

    /// Translates node indices back to tuple ids.
    pub fn to_ids(&self, nodes: &[u32]) -> Vec<TupleId> {
        nodes.iter().map(|&v| self.ids[v as usize]).collect()
    }
}

/// The connected components of the conflict graph of `table` under
/// `fds`, read off a fresh [`ConflictIndex`] (dropped on return) by
/// [`index_components`]: `O(|T| · |Δ| · α)` time, no edge enumerated.
/// Nodes are row positions; the CSR partition is ordered by smallest
/// row, exactly as [`Graph::connected_components`] orders the
/// materialized graph's.
pub fn conflict_components(table: &Table, fds: &FdSet) -> Components {
    let mut sp = fd_trace::span("graph/components");
    sp.attr("rows", table.len());
    let components = index_components(&ConflictIndex::build(table, fds));
    sp.attr("components", components.len());
    sp.attr("largest", components.largest());
    components
}

/// The connected components of a [`ConflictIndex`]'s conflict graph
/// over its row keys `0..key_space()`, ordered by smallest key (unused
/// keys are singletons). Each conflicting group induces a connected
/// complete multipartite block, so unioning its rows connects exactly
/// what its `Θ(group²)` edges would.
pub fn index_components(index: &ConflictIndex) -> Components {
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
    Components::from_union_find(uf)
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
        assert_eq!(cg.to_ids(&[1]), vec![TupleId(1)]);
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
        let ids: Vec<TupleId> = table.ids().collect();
        let mut graph = Graph::new(table.weights().to_vec());
        let agree = |i: usize, j: usize, attrs: fd_core::AttrSet| {
            attrs.iter().all(|a| table.col(a)[i] == table.col(a)[j])
        };
        for i in 0..ids.len() {
            for j in i + 1..ids.len() {
                let conflicting = fds
                    .iter()
                    .any(|fd| agree(i, j, fd.lhs()) && !agree(i, j, fd.rhs()));
                if conflicting {
                    graph.add_edge(i as u32, j as u32);
                }
            }
        }
        ConflictGraph { graph, ids }
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
