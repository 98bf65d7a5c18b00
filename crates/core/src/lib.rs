//! # fd-core
//!
//! The relational substrate for the PODS'18 paper *"Computing Optimal
//! Repairs for Functional Dependencies"* (Livshits, Kimelfeld & Roy):
//! schemas, weighted tables with tuple identifiers, functional dependencies
//! with closures and the structural predicates used by the paper's
//! algorithms (consensus FDs, common lhs, lhs marriages, chains, local
//! minima), the simplification `Δ − X`, the repair distances `dist_sub` /
//! `dist_upd`, and the cover quantities `mlc`, `MFS`, `MCI`.
//!
//! Higher layers build on this crate: `fd-graph` (conflict graphs, matching,
//! vertex cover), `fd-srepair` (Algorithms 1–2 and the dichotomy),
//! `fd-urepair` (§4), `fd-mpd` (§3.4), and `fd-gen` (workloads).
//!
//! ## Quick example
//!
//! ```
//! use fd_core::{Schema, FdSet, Table, tup};
//!
//! let schema = Schema::new("Office", ["facility", "room", "floor", "city"]).unwrap();
//! let fds = FdSet::parse(&schema, "facility -> city; facility room -> floor").unwrap();
//! let table = Table::build(schema, vec![
//!     (tup!["HQ", 322, 3, "Paris"], 2.0),
//!     (tup!["HQ", 322, 30, "Madrid"], 1.0),
//! ]).unwrap();
//! assert!(!table.satisfies(&fds));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod armstrong;
mod attrset;
mod builder;
mod cover;
mod csv;
mod error;
mod fd;
mod fdset;
mod index;
mod keys;
mod mutation;
mod normalize;
mod parallel;
mod scan;
mod schema;
mod sym;
mod table;
mod tuple;
mod value;

pub use armstrong::{derive, Derivation};
pub use attrset::AttrSet;
pub use builder::{Cell, TableBuilder};
pub use cover::{mci, mfs, min_core_implicant, min_lhs_cover, mlc};
pub use csv::{
    parse_csv, table_from_csv, table_from_csv_reader, table_to_csv, CsvOptions, CsvReader,
};
pub use error::{Error, Result};
pub use fd::Fd;
pub use fdset::FdSet;
pub use index::{ConflictIndex, SplitScratch};
pub use keys::{
    bcnf_violation, bcnf_violation_in, candidate_keys, is_superkey, prime_attrs,
    third_nf_violation, NormalFormViolation,
};
pub use mutation::{Mutation, MutationEffect};
pub use normalize::{
    bcnf_decompose, is_lossless_join, preserves_dependencies, project_fds, third_nf_synthesis,
    Decomposition,
};
pub use parallel::{effective_threads, round_robin_map};
pub use scan::{for_each_cross_pair, KeyExtractor};
pub use schema::{schema_rabc, AttrId, Schema};
pub use sym::{Dictionary, FnvBuild, FnvHasher, Sym, SymRef};
pub use table::{Row, Table, TupleId};
pub use tuple::Tuple;
pub use value::{FreshSource, Value};
