//! Million-row scale workloads: `O(n)` deterministic generators with a
//! *controlled component structure*, built for the scalability bench
//! suite (`crates/bench/benches/scale.rs` → `BENCH_scale.json`).
//!
//! [`dirty_table`](crate::random::dirty_table) chases every row against every
//! FD and is perfect for small adversarial instances, but its
//! corruption pass is quadratic in spirit and its conflict structure is
//! unbounded. The generators here place rows into fixed-size *groups*
//! whose attribute values never leak across groups, so:
//!
//! * generation is one linear pass (a million rows in tens of
//!   milliseconds);
//! * every conflict stays inside one group — the conflict graph's
//!   components have bounded size by construction, which is exactly
//!   the regime the component-sharded solver is built for;
//! * the same `(rows, seed)` produces the same table on every platform
//!   (vendored `StdRng`, integer arithmetic only).
//!
//! Three workloads cover both sides of the dichotomy:
//!
//! * [`tractable_scale`] — `R(K, A, B)` under `K → A B` (a key FD;
//!   `OSRSucceeds` holds, Algorithm 1 applies per component);
//! * [`marriage_scale`] — `R(A, B, C)` under `{A → B, B → A, B → C}`
//!   (tractable through an lhs-marriage step, so Algorithm 1 runs a
//!   maximum-weight matching per component);
//! * [`hard_scale`] — `R(A, B, C)` under `{A → C, B → C}` (the
//!   Table-1 hard core `Δ_{A→C←B}`; APX-complete globally, yet exactly
//!   solvable per tiny component).

use fd_core::{FdSet, Schema, Table, Tuple, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Rows per generated group: conflicts never cross group boundaries,
/// so no conflict-graph component exceeds this many rows.
pub const GROUP_ROWS: usize = 8;

/// Approximate fraction of groups carrying at least one conflict
/// (1 in `DIRTY_ONE_IN`).
pub const DIRTY_ONE_IN: u32 = 4;

fn weights(rng: &mut StdRng, n: usize, weighted: bool) -> Vec<f64> {
    (0..n)
        .map(|_| {
            if weighted {
                rng.gen_range(1..=5) as f64
            } else {
                1.0
            }
        })
        .collect()
}

/// A tractable-side scale instance: `rows` rows of `R(K, A, B)` under
/// `Δ = {K → A B}`. Rows share a key in groups of [`GROUP_ROWS`]; in
/// roughly one group in [`DIRTY_ONE_IN`] a single row disagrees on `A`,
/// creating one bounded conflict component per dirty group.
pub fn tractable_scale(rows: usize, weighted: bool, seed: u64) -> (Arc<Schema>, FdSet, Table) {
    let schema = Schema::new("S", ["K", "A", "B"]).expect("valid schema");
    let fds = FdSet::parse(&schema, "K -> A B").expect("valid FDs");
    let mut rng = StdRng::seed_from_u64(seed);
    let ws = weights(&mut rng, rows, weighted);
    // Rows stream straight into the interned columnar table — every
    // value is an inline-int symbol, so no intermediate tuple buffer
    // and no dictionary pool entry is ever materialized.
    let mut table = Table::with_capacity(schema.clone(), rows);
    for (i, w) in ws.into_iter().enumerate() {
        let group = (i / GROUP_ROWS) as i64;
        let clean_a = group % 1000;
        let dirty_group = rng.gen_range(0..DIRTY_ONE_IN) == 0 && i % GROUP_ROWS == 0;
        let a = if dirty_group {
            clean_a + 1_000_000
        } else {
            clean_a
        };
        let tuple = Tuple::new(vec![
            Value::Int(group),
            Value::Int(a),
            Value::Int(group % 7),
        ]);
        table.push(tuple, w).expect("valid row");
    }
    (schema, fds, table)
}

/// A marriage scale instance: `rows` rows of `R(A, B, C)` under
/// `Δ = {A → B, B → A, B → C}`, whose simplification takes the
/// lhs-marriage step `({A}, {B})` (Subroutine 3). Each group of
/// [`GROUP_ROWS`] rows draws its `(A, B)` pairs from a private 2 × 2
/// band, so every conflict component — and every component of the
/// marriage's bipartite matching — is confined to one group; roughly
/// one group in [`DIRTY_ONE_IN`] also has a row with a deviating `C`.
pub fn marriage_scale(rows: usize, weighted: bool, seed: u64) -> (Arc<Schema>, FdSet, Table) {
    let schema = Schema::new("M", ["A", "B", "C"]).expect("valid schema");
    let fds = FdSet::parse(&schema, "A -> B; B -> A; B -> C").expect("valid FDs");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x3A77);
    let ws = weights(&mut rng, rows, weighted);
    let mut table = Table::with_capacity(schema.clone(), rows);
    for (i, w) in ws.into_iter().enumerate() {
        let group = (i / GROUP_ROWS) as i64;
        let a = 2 * group + rng.gen_range(0..2i64);
        let b = 2 * group + rng.gen_range(0..2i64);
        let dirty = rng.gen_range(0..DIRTY_ONE_IN) == 0 && i % GROUP_ROWS == GROUP_ROWS - 1;
        let c = if dirty { group + 1_000_000 } else { group };
        let tuple = Tuple::new(vec![Value::Int(a), Value::Int(b), Value::Int(c)]);
        table.push(tuple, w).expect("valid row");
    }
    (schema, fds, table)
}

/// A hard-side scale instance: `rows` rows of `R(A, B, C)` under
/// `Δ = {A → C, B → C}` (the hard core `Δ_{A→C←B}`). Each group of
/// [`GROUP_ROWS`] rows owns a private band of `A`/`B` values, so every
/// conflict component is confined to one group; roughly one group in
/// [`DIRTY_ONE_IN`] has a row with a deviating `C`.
pub fn hard_scale(rows: usize, weighted: bool, seed: u64) -> (Arc<Schema>, FdSet, Table) {
    let schema = Schema::new("H", ["A", "B", "C"]).expect("valid schema");
    let fds = FdSet::parse(&schema, "A -> C; B -> C").expect("valid FDs");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4A5D);
    let ws = weights(&mut rng, rows, weighted);
    let mut table = Table::with_capacity(schema.clone(), rows);
    for (i, w) in ws.into_iter().enumerate() {
        let group = (i / GROUP_ROWS) as i64;
        // Two A-values and two B-values per group: dense enough for a
        // genuine vertex-cover instance, never crossing groups.
        let a = 2 * group + (i % 2) as i64;
        let b = 2 * group + ((i / 2) % 2) as i64;
        let dirty = rng.gen_range(0..DIRTY_ONE_IN) == 0 && i % GROUP_ROWS == GROUP_ROWS - 1;
        let c = if dirty { group + 1_000_000 } else { group };
        let tuple = Tuple::new(vec![Value::Int(a), Value::Int(b), Value::Int(c)]);
        table.push(tuple, w).expect("valid row");
    }
    (schema, fds, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        let (_, _, a) = tractable_scale(500, true, 9);
        let (_, _, b) = tractable_scale(500, true, 9);
        assert_eq!(a, b);
        let (_, _, c) = tractable_scale(500, true, 10);
        assert_ne!(a, c);
        let (_, _, h1) = hard_scale(500, false, 9);
        let (_, _, h2) = hard_scale(500, false, 9);
        assert_eq!(h1, h2);
        let (_, _, m1) = marriage_scale(500, true, 9);
        let (_, _, m2) = marriage_scale(500, true, 9);
        assert_eq!(m1, m2);
    }

    #[test]
    fn conflicts_exist_and_stay_inside_groups() {
        for (schema_fds_table, name) in [
            (tractable_scale(2_000, false, 1), "tractable"),
            (hard_scale(2_000, false, 1), "hard"),
            (marriage_scale(2_000, false, 1), "marriage"),
        ] {
            let (_, fds, table) = schema_fds_table;
            assert!(!table.satisfies(&fds), "{name}: must be dirty");
            let comps = fd_graph::conflict_components(&table, &fds);
            assert!(comps.largest() >= 2, "{name}: no conflicting component");
            assert!(
                comps.largest() <= GROUP_ROWS,
                "{name}: component of {} rows leaked across groups",
                comps.largest()
            );
        }
    }

    #[test]
    fn tractable_instance_is_on_the_tractable_side() {
        let (_, fds, _) = tractable_scale(8, false, 1);
        assert!(fd_srepair_stub_is_chain(&fds));
    }

    /// `K → A B` is a chain, hence tractable — checked without a
    /// dependency on `fd-srepair`.
    fn fd_srepair_stub_is_chain(fds: &FdSet) -> bool {
        fds.is_chain()
    }
}
