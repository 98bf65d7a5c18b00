//! Compact graph machinery for million-row conflict graphs: union-find,
//! a CSR (compressed sparse row) adjacency representation, and the CSR
//! partition of a node set into connected components.
//!
//! [`Graph`] is comfortable but heavy: per-node `Vec`s, an edge list
//! *and* a hash set of edges. At a million nodes that bookkeeping — not
//! the solving — becomes the bottleneck. Three lean types replace it
//! where scale matters:
//!
//! * [`UnionFind`] — path-halving + union-by-size disjoint sets; the
//!   engine behind `conflict_components`, the sharded solver's
//!   edge-free component extraction;
//! * [`Components`] — a partition of `0..n` stored CSR-style (one
//!   `offsets` array into one `nodes` array), so each component is a
//!   contiguous slice carrying only its own nodes; this is the shape
//!   the sharded solve path iterates;
//! * [`CsrGraph`] — immutable adjacency in two flat arrays, buildable
//!   from any edge stream without materializing an edge list first:
//!   the compact form for holding or analyzing a large conflict graph
//!   *as a graph* (degree/neighbor queries, component extraction)
//!   when the mutable [`Graph`] would not fit. The per-component
//!   *solvers* deliberately stay on [`Graph`] — their edge-order
//!   parity guarantees depend on its insertion-ordered edge list —
//!   so `CsrGraph` serves the measurement/analysis side (see the
//!   `scale` bench's `csr/compact` entries) and future CSR-native
//!   covers.

use crate::graph::Graph;

/// Disjoint-set forest with union by size and path halving: effectively
/// constant-time unions over `u32` node ids.
#[derive(Clone, Debug)]
pub struct UnionFind {
    /// Parent pointers; roots point at themselves.
    parent: Vec<u32>,
    /// Component sizes, valid at roots.
    size: Vec<u32>,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    /// The canonical representative of `v`'s set.
    pub fn find(&mut self, mut v: u32) -> u32 {
        while self.parent[v as usize] != v {
            let grandparent = self.parent[self.parent[v as usize] as usize];
            self.parent[v as usize] = grandparent;
            v = grandparent;
        }
        v
    }

    /// Merges the sets of `a` and `b`; true iff they were distinct.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra as usize] < self.size[rb as usize] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb as usize] = ra;
        self.size[ra as usize] += self.size[rb as usize];
        true
    }
}

/// A partition of the nodes `0..n` into components, stored CSR-style:
/// component `c` is the contiguous slice
/// `nodes[offsets[c] .. offsets[c + 1]]`, sorted ascending; components
/// are ordered by smallest member (the same order
/// [`Graph::connected_components`] produces). One `O(n)` counting pass
/// builds it — no per-component allocation.
#[derive(Clone, Debug, PartialEq)]
pub struct Components {
    offsets: Vec<u32>,
    nodes: Vec<u32>,
}

impl Components {
    /// The partition of a union-find's sets, in one `find` per node:
    /// the first pass points every node straight at its root and numbers
    /// the roots in order of first appearance (that is, by smallest
    /// member), the second places each node in its component's slice.
    /// The union-find's size array becomes the root → component map.
    pub fn from_union_find(mut uf: UnionFind) -> Components {
        let n = uf.parent.len();
        uf.size.fill(u32::MAX);
        let mut offsets: Vec<u32> = vec![0];
        for v in 0..n as u32 {
            let root = uf.find(v);
            uf.parent[v as usize] = root;
            let comp = &mut uf.size[root as usize];
            if *comp == u32::MAX {
                *comp = offsets.len() as u32 - 1;
                offsets.push(0);
            }
            offsets[*comp as usize + 1] += 1;
        }
        for c in 1..offsets.len() {
            offsets[c] += offsets[c - 1];
        }
        let mut cursor: Vec<u32> = offsets[..offsets.len() - 1].to_vec();
        let mut nodes = vec![0u32; n];
        for v in 0..n as u32 {
            let comp = uf.size[uf.parent[v as usize] as usize] as usize;
            nodes[cursor[comp] as usize] = v;
            cursor[comp] += 1;
        }
        Components { offsets, nodes }
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True iff the partition covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The nodes of component `c`, sorted ascending.
    pub fn component(&self, c: usize) -> &[u32] {
        &self.nodes[self.offsets[c] as usize..self.offsets[c + 1] as usize]
    }

    /// Iterates over the components as slices, ordered by smallest
    /// member.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> {
        (0..self.len()).map(move |c| self.component(c))
    }

    /// The size of the largest component (0 when empty).
    pub fn largest(&self) -> usize {
        self.iter().map(<[u32]>::len).max().unwrap_or(0)
    }

    /// Number of singleton components (isolated nodes).
    pub fn singletons(&self) -> usize {
        self.iter().filter(|c| c.len() == 1).count()
    }
}

/// An immutable node-weighted undirected graph in CSR form: the
/// neighbors of `v` are the sorted slice `adj[offsets[v] ..
/// offsets[v + 1]]`. Two flat arrays instead of `n` vectors plus an edge
/// hash set — the footprint that lets the conflict graph of a large
/// component fit where [`Graph`] would not.
#[derive(Clone, Debug)]
pub struct CsrGraph {
    weights: Vec<f64>,
    offsets: Vec<u32>,
    adj: Vec<u32>,
    edge_count: usize,
}

impl CsrGraph {
    /// Builds a CSR graph from an edge *stream*: `edges` is called with
    /// an emitter and may yield each undirected edge `{u, v}`, `u ≠ v`,
    /// any number of times (duplicate emissions merge). The stream runs
    /// twice — once to count degrees, once to fill — so it must be
    /// repeatable; no intermediate edge list is ever materialized.
    pub fn from_edge_stream<F>(weights: Vec<f64>, mut edges: F) -> CsrGraph
    where
        F: FnMut(&mut dyn FnMut(u32, u32)),
    {
        let n = weights.len();
        let mut sp = fd_trace::span("graph/csr_build");
        sp.attr("nodes", n);
        // Pass 1: degrees, duplicates included for now.
        let mut degree = vec![0u32; n];
        edges(&mut |u, v| {
            debug_assert_ne!(u, v, "self-loops are not allowed");
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        });
        let mut offsets = Vec::with_capacity(n + 1);
        let mut total = 0u32;
        offsets.push(0u32);
        for &d in &degree {
            total += d;
            offsets.push(total);
        }
        // Pass 2: fill both directions.
        let mut raw = vec![0u32; total as usize];
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        edges(&mut |u, v| {
            raw[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
            raw[cursor[v as usize] as usize] = u;
            cursor[v as usize] += 1;
        });
        // Sort and deduplicate each neighbor list, compacting.
        let mut adj = Vec::with_capacity(raw.len());
        let mut new_offsets = Vec::with_capacity(n + 1);
        new_offsets.push(0u32);
        for v in 0..n {
            let list = &mut raw[offsets[v] as usize..offsets[v + 1] as usize];
            list.sort_unstable();
            let base = adj.len();
            for &w in list.iter() {
                if adj.len() == base || *adj.last().expect("nonempty") != w {
                    adj.push(w);
                }
            }
            new_offsets.push(adj.len() as u32);
        }
        let edge_count = adj.len() / 2;
        sp.attr("edges", edge_count);
        CsrGraph {
            weights,
            offsets: new_offsets,
            adj,
            edge_count,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.weights.len()
    }

    /// Number of distinct undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// The weight of node `v`.
    pub fn weight(&self, v: u32) -> f64 {
        self.weights[v as usize]
    }

    /// The sorted neighbors of `v`.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.adj[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// Degree of `v`.
    pub fn degree(&self, v: u32) -> usize {
        self.neighbors(v).len()
    }

    /// True iff `{u, v}` is an edge (binary search).
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// The connected components, as a CSR partition.
    pub fn components(&self) -> Components {
        let mut uf = UnionFind::new(self.node_count());
        for v in 0..self.node_count() as u32 {
            for &w in self.neighbors(v) {
                if v < w {
                    uf.union(v, w);
                }
            }
        }
        Components::from_union_find(uf)
    }

    /// Expands into the mutable [`Graph`] representation, preserving
    /// node order; edges are inserted in `(min, max)` sorted order.
    pub fn to_graph(&self) -> Graph {
        let mut g = Graph::new(self.weights.clone());
        for v in 0..self.node_count() as u32 {
            for &w in self.neighbors(v) {
                if v < w {
                    g.add_edge(v, w);
                }
            }
        }
        g
    }
}

impl Graph {
    /// Compacts into the immutable CSR representation.
    pub fn to_csr(&self) -> CsrGraph {
        let weights: Vec<f64> = (0..self.node_count() as u32)
            .map(|v| self.weight(v))
            .collect();
        CsrGraph::from_edge_stream(weights, |emit| {
            for &(u, v) in self.edges() {
                emit(u, v);
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        uf.union(2, 3);
        uf.union(3, 4);
        assert_eq!(uf.find(3), uf.find(4));
        assert_ne!(uf.find(0), uf.find(2));
        let comps = Components::from_union_find(uf);
        assert_eq!(comps.iter().collect::<Vec<_>>(), [&[0, 1][..], &[2, 3, 4]]);
    }

    #[test]
    fn components_partition_from_union_find() {
        // Node 4 ends up the root of {0, …, 4}: the component is still
        // numbered and listed by its smallest member.
        let mut uf = UnionFind::new(6);
        uf.union(4, 2);
        uf.union(4, 0);
        uf.union(4, 1);
        uf.union(3, 0);
        uf.union(2, 0);
        let comps = Components::from_union_find(uf);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps.component(0), &[0, 1, 2, 3, 4]);
        assert_eq!(comps.component(1), &[5]);
        let mut uf = UnionFind::new(6);
        for (a, b) in [(3, 1), (1, 0), (4, 2)] {
            uf.union(a, b);
        }
        let comps = Components::from_union_find(uf);
        assert_eq!(comps.len(), 3);
        assert_eq!(comps.component(0), &[0, 1, 3]);
        assert_eq!(comps.component(1), &[2, 4]);
        assert_eq!(comps.component(2), &[5]);
        assert_eq!(comps.largest(), 3);
        assert_eq!(comps.singletons(), 1);
        assert!(!comps.is_empty());
        assert!(Components::from_union_find(UnionFind::new(0)).is_empty());
    }

    #[test]
    fn csr_from_stream_merges_duplicates_and_round_trips() {
        let csr = CsrGraph::from_edge_stream(vec![1.0, 2.0, 3.0, 4.0], |emit| {
            emit(0, 1);
            emit(1, 0); // duplicate in either orientation
            emit(1, 2);
            emit(0, 1);
        });
        assert_eq!(csr.node_count(), 4);
        assert_eq!(csr.edge_count(), 2);
        assert_eq!(csr.neighbors(1), &[0, 2]);
        assert!(csr.has_edge(0, 1));
        assert!(!csr.has_edge(0, 2));
        assert_eq!(csr.degree(3), 0);
        assert_eq!(csr.weight(1), 2.0);

        let g = csr.to_graph();
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(1, 2));
        // Graph → CSR → Graph is stable.
        let back = g.to_csr();
        assert_eq!(back.edge_count(), 2);
        assert_eq!(back.neighbors(0), &[1]);
    }

    #[test]
    fn csr_components_match_graph_components() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(0xC52);
        for _ in 0..20 {
            let n = rng.gen_range(1..30usize);
            let mut g = Graph::unweighted(n);
            for u in 0..n as u32 {
                for v in u + 1..n as u32 {
                    if rng.gen_range(0..10) == 0 {
                        g.add_edge(u, v);
                    }
                }
            }
            let csr = g.to_csr();
            let expect: Vec<Vec<u32>> = g.connected_components();
            let got: Vec<Vec<u32>> = csr.components().iter().map(<[u32]>::to_vec).collect();
            assert_eq!(got, expect);
        }
    }
}
