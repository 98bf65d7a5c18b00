//! # fd-graph
//!
//! Graph substrate for optimal FD repairs:
//!
//! * [`Graph`] — undirected node-weighted graphs with components and
//!   induced subgraphs;
//! * [`ConflictGraph`] — the conflict graph of a table, or of any
//!   union of its components, under an FD set (Proposition 3.3), read
//!   off a `fd_core::ConflictIndex`;
//! * [`conflict_components`] / [`index_components`] — the graph's
//!   connected components, read off a `fd_core::ConflictIndex` in
//!   `O(|T| · |Δ|)` **without enumerating edges** (the optimal-repair
//!   problems decompose over them), as a compact CSR partition
//!   ([`Components`]);
//! * [`UnionFind`] / [`Components`] — the flat-array substrate behind
//!   the million-row sharded solve path, with [`CsrGraph`] as the
//!   compact adjacency form for graph-scale analysis;
//! * [`max_weight_bipartite_matching`] — the Hungarian algorithm backing
//!   `MarriageRep` (Subroutine 3);
//! * [`min_weight_vertex_cover`] / [`vertex_cover_2approx`] — the exact
//!   baseline and the Bar-Yehuda–Even 2-approximation \[7\] behind
//!   Proposition 3.3;
//! * [`Tripartite`] and triangle packing — the MECT-B substrate of
//!   Lemma A.11;
//! * [`enumerate_maximal_independent_sets`] — subset-repair enumeration,
//!   the substrate for prioritized-repair semantics (§5 outlook).
//!
//! Everything is implemented in-tree; there are no external graph
//! dependencies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod conflict;
mod csr;
mod graph;
mod matching;
mod mis;
mod triangle;
mod vertex_cover;

pub use conflict::{conflict_components, index_components, ConflictGraph};
pub use csr::{Components, CsrGraph, UnionFind};
pub use graph::Graph;
pub use matching::{
    brute_force_matching, greedy_matching, max_weight_bipartite_matching, Matching,
};
pub use mis::{
    brute_force_maximal_independent_sets, enumerate_maximal_independent_sets,
    enumerate_maximal_independent_sets_capped, MisEnumeration, MIS_MAX_NODES,
};
pub use triangle::{
    greedy_edge_disjoint_triangles, max_edge_disjoint_triangles, Triangle, Tripartite,
};
pub use vertex_cover::{
    brute_force_vertex_cover, min_weight_vertex_cover, vertex_cover_2approx, VertexCover,
};
