//! Executable fact-wise reductions (§3.3, Appendix A.2.2).
//!
//! A fact-wise reduction `Π` from `(R, Δ)` to `(R′, Δ′)` is an injective,
//! polynomial-time tuple mapping that preserves consistency and
//! inconsistency of *pairs*; by Lemma 3.7 it yields a strict reduction
//! between the optimal-S-repair problems. This module implements:
//!
//! * the class-specific reductions of Lemmas A.14–A.17, from the Table-1
//!   hard cores over `R(A, B, C)` into any irreducible FD set, and
//! * the lifting reduction of Lemma A.18, from `(R, Δ − X)` to `(R, Δ)`,
//!   which undoes one simplification step of Algorithm 2.
//!
//! Chaining a class reduction with the lifting reductions along a
//! simplification trace turns any hard-core instance into an equally hard
//! instance of the *original* FD set — the constructive content of the
//! negative side of Theorem 3.4 (Figure 4).

use crate::classify::{Classification, HardCore};
use crate::succeeds::{Outcome, Trace};
use fd_core::{schema_rabc, AttrSet, FdSet, Schema, Table, Tuple, Value};
use std::sync::Arc;

/// How one target cell is synthesized from a source tuple.
#[derive(Clone, Debug, PartialEq)]
enum CellSpec {
    /// The distinguished constant `⊙`.
    Dot,
    /// A projection of source attribute indices: one index copies the
    /// value, several build the composite `⟨…⟩`.
    Proj(Vec<u16>),
}

/// An executable fact-wise reduction: a tuple mapping from a source schema
/// to a target schema.
#[derive(Clone, Debug)]
pub struct FactwiseReduction {
    source: Arc<Schema>,
    target: Arc<Schema>,
    cells: Vec<CellSpec>,
}

impl FactwiseReduction {
    /// The source schema.
    pub fn source(&self) -> &Arc<Schema> {
        &self.source
    }

    /// The target schema.
    pub fn target(&self) -> &Arc<Schema> {
        &self.target
    }

    /// Maps a single tuple through `Π`.
    pub fn map_tuple(&self, t: &Tuple) -> Tuple {
        assert_eq!(t.arity(), self.source.arity(), "tuple/schema mismatch");
        Tuple::new(self.cells.iter().map(|spec| match spec {
            CellSpec::Dot => Value::str("⊙"),
            CellSpec::Proj(idxs) => {
                if idxs.len() == 1 {
                    t.values()[idxs[0] as usize].clone()
                } else {
                    Value::composite(idxs.iter().map(|&i| t.values()[i as usize].clone()))
                }
            }
        }))
    }

    /// Maps a whole table, preserving identifiers and weights.
    pub fn map_table(&self, table: &Table) -> Table {
        assert_eq!(
            table.schema().as_ref(),
            self.source.as_ref(),
            "schema mismatch"
        );
        let mut out = Table::new(self.target.clone());
        for row in table.rows() {
            out.push_row(row.id, self.map_tuple(&row.tuple), row.weight)
                .expect("ids are unique in the source");
        }
        out
    }
}

/// Builds the Lemma A.14–A.17 reduction from `(R(A,B,C), core)` into
/// `(schema, Δ)`, where `cls` is the classification of the (irreducible)
/// `Δ`. The source core is `cls.core`.
pub fn class_reduction(
    schema: &Arc<Schema>,
    fds: &FdSet,
    cls: &Classification,
) -> FactwiseReduction {
    let (x1, x2) = (cls.x1, cls.x2);
    let cl1 = fds.closure_of(x1);
    let cl2 = fds.closure_of(x2);
    let xh1 = cl1.difference(x1);
    let xh2 = cl2.difference(x2);
    // Source attribute indices in R(A, B, C).
    const A: u16 = 0;
    const B: u16 = 1;
    const C: u16 = 2;
    let cells: Vec<CellSpec> = match cls.core {
        // Lemma A.14 (class 1).
        HardCore::AtoCfromB => schema
            .attr_ids()
            .map(|k| {
                let k_set = AttrSet::singleton(k);
                if k_set.is_subset(x1.intersect(x2)) {
                    CellSpec::Dot
                } else if k_set.is_subset(x1.difference(x2)) {
                    CellSpec::Proj(vec![A])
                } else if k_set.is_subset(x2.difference(x1)) {
                    CellSpec::Proj(vec![B])
                } else if k_set.is_subset(xh1) {
                    CellSpec::Proj(vec![A, C])
                } else if k_set.is_subset(xh2) {
                    CellSpec::Proj(vec![B, C])
                } else {
                    CellSpec::Proj(vec![A, B])
                }
            })
            .collect(),
        // Lemma A.15 (classes 2 and 3).
        HardCore::AtoBtoC => schema
            .attr_ids()
            .map(|k| {
                let k_set = AttrSet::singleton(k);
                if k_set.is_subset(x1.intersect(x2)) {
                    CellSpec::Dot
                } else if k_set.is_subset(x1.difference(x2)) {
                    CellSpec::Proj(vec![A])
                } else if k_set.is_subset(x2.difference(x1)) {
                    CellSpec::Proj(vec![B])
                } else if k_set.is_subset(xh1.difference(cl2)) {
                    CellSpec::Proj(vec![A, C])
                } else if k_set.is_subset(xh2) {
                    CellSpec::Proj(vec![B, C])
                } else {
                    CellSpec::Proj(vec![A])
                }
            })
            .collect(),
        // Lemma A.16 (class 4) with three local minima.
        HardCore::Triangle => {
            let x3 = cls.x3.expect("class 4 stores a third local minimum");
            schema
                .attr_ids()
                .map(|k| {
                    let k_set = AttrSet::singleton(k);
                    if k_set.is_subset(x1.intersect(x2).intersect(x3)) {
                        CellSpec::Dot
                    } else if k_set.is_subset(x1.intersect(x2).difference(x3)) {
                        CellSpec::Proj(vec![A])
                    } else if k_set.is_subset(x1.intersect(x3).difference(x2)) {
                        CellSpec::Proj(vec![B])
                    } else if k_set.is_subset(x2.intersect(x3).difference(x1)) {
                        CellSpec::Proj(vec![C])
                    } else if k_set.is_subset(x1.difference(x2).difference(x3)) {
                        CellSpec::Proj(vec![A, B])
                    } else if k_set.is_subset(x2.difference(x1).difference(x3)) {
                        CellSpec::Proj(vec![A, C])
                    } else if k_set.is_subset(x3.difference(x1).difference(x2)) {
                        CellSpec::Proj(vec![B, C])
                    } else {
                        CellSpec::Proj(vec![A, B, C])
                    }
                })
                .collect()
        }
        // Lemma A.17 (class 5); orientation fixed by the classifier.
        HardCore::ABtoCtoB => schema
            .attr_ids()
            .map(|k| {
                let k_set = AttrSet::singleton(k);
                let x2_minus_x1 = x2.difference(x1);
                if k_set.is_subset(x1.intersect(x2)) {
                    CellSpec::Dot
                } else if k_set.is_subset(x1.difference(x2)) {
                    CellSpec::Proj(vec![C])
                } else if k_set.is_subset(x2_minus_x1.intersect(xh1)) {
                    CellSpec::Proj(vec![B])
                } else if k_set.is_subset(x2_minus_x1.difference(xh1)) {
                    CellSpec::Proj(vec![A, B])
                } else if k_set.is_subset(xh1.difference(x2_minus_x1)) {
                    CellSpec::Proj(vec![B, C])
                } else {
                    CellSpec::Proj(vec![A, B, C])
                }
            })
            .collect(),
    };
    FactwiseReduction {
        source: schema_rabc(),
        target: schema.clone(),
        cells,
    }
}

/// The Lemma A.18 lifting reduction from `(R, Δ − X)` to `(R, Δ)`: removed
/// attributes are pinned to `⊙`, everything else is the identity. Source
/// and target share the schema `R`.
pub fn lifting_reduction(schema: &Arc<Schema>, removed: AttrSet) -> FactwiseReduction {
    let cells = schema
        .attr_ids()
        .map(|k| {
            if removed.contains(k) {
                CellSpec::Dot
            } else {
                CellSpec::Proj(vec![k.index()])
            }
        })
        .collect();
    FactwiseReduction {
        source: schema.clone(),
        target: schema.clone(),
        cells,
    }
}

/// Composes the lifting reductions along a (stuck) simplification trace:
/// maps instances of the stuck FD set back to instances of the original
/// `Δ`, one [`lifting_reduction`] per simplification step, innermost first.
///
/// Returns the reductions in application order (apply index 0 first).
pub fn lifting_chain(schema: &Arc<Schema>, trace: &Trace) -> Vec<FactwiseReduction> {
    debug_assert!(matches!(trace.outcome, Outcome::Stuck(_)));
    trace
        .steps
        .iter()
        .rev()
        .map(|step| lifting_reduction(schema, step.rule.removed()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify_irreducible;
    use crate::exact::exact_s_repair;
    use fd_core::tup;
    use rand::prelude::*;

    /// Random table over R(A,B,C) with a small active domain so conflicts
    /// are common.
    fn random_abc_table(rng: &mut StdRng, n: usize) -> Table {
        let rows = (0..n).map(|_| {
            (
                tup![
                    rng.gen_range(0..3i64),
                    rng.gen_range(0..3i64),
                    rng.gen_range(0..3i64)
                ],
                rng.gen_range(1..4) as f64,
            )
        });
        Table::build(schema_rabc(), rows).unwrap()
    }

    fn core_fds(core: HardCore) -> FdSet {
        FdSet::parse(&schema_rabc(), core.spec()).unwrap()
    }

    /// End-to-end check of Lemma 3.7 for a class reduction: optimal
    /// S-repair costs coincide on both sides, and consistency of pairs is
    /// preserved in both directions.
    fn check_class_reduction(names: &[&str], spec: &str) {
        let schema = Schema::new("R", names.to_vec()).unwrap();
        let fds = FdSet::parse(&schema, spec).unwrap();
        let cls = classify_irreducible(&fds).expect("irreducible");
        let red = class_reduction(&schema, &fds, &cls);
        let core = core_fds(cls.core);
        let mut rng = StdRng::seed_from_u64(0xFACE + names.len() as u64);
        for trial in 0..12 {
            let t = random_abc_table(&mut rng, 6 + trial % 4);
            let mapped = red.map_table(&t);
            // Injectivity on the rows present.
            let rows: Vec<fd_core::Row> = t.rows().collect();
            let mut images: Vec<Tuple> = rows.iter().map(|r| red.map_tuple(&r.tuple)).collect();
            let distinct_src: std::collections::HashSet<&Tuple> =
                rows.iter().map(|r| &r.tuple).collect();
            images.sort();
            images.dedup();
            assert_eq!(images.len(), distinct_src.len(), "Π must be injective");
            // Pairwise consistency preservation.
            for i in 0..rows.len() {
                for j in i + 1..rows.len() {
                    let src_pair = Table::build_unweighted(
                        schema_rabc(),
                        vec![rows[i].tuple.clone(), rows[j].tuple.clone()],
                    )
                    .unwrap();
                    let dst_pair = Table::build_unweighted(
                        schema.clone(),
                        vec![red.map_tuple(&rows[i].tuple), red.map_tuple(&rows[j].tuple)],
                    )
                    .unwrap();
                    assert_eq!(
                        src_pair.satisfies(&core),
                        dst_pair.satisfies(&fds),
                        "consistency must be preserved for pair ({}, {}) of {spec}",
                        rows[i].tuple,
                        rows[j].tuple
                    );
                }
            }
            // Strict reduction: optimal S-repair costs coincide.
            let src_opt = exact_s_repair(&t, &core);
            let dst_opt = exact_s_repair(&mapped, &fds);
            assert!(
                (src_opt.cost - dst_opt.cost).abs() < 1e-9,
                "{spec}: src {} vs dst {}",
                src_opt.cost,
                dst_opt.cost
            );
        }
    }

    #[test]
    fn class1_reduction_example_3_8() {
        check_class_reduction(&["A", "B", "C", "D"], "A -> B; C -> D");
    }

    #[test]
    fn class2_reduction_example_3_8() {
        check_class_reduction(&["A", "B", "C", "D", "E"], "A -> C D; B -> C E");
    }

    #[test]
    fn class3_reduction_example_3_8() {
        check_class_reduction(&["A", "B", "C", "D"], "A -> B C; B -> D");
    }

    #[test]
    fn class4_reduction_example_3_8() {
        check_class_reduction(&["A", "B", "C"], "A B -> C; A C -> B; B C -> A");
    }

    #[test]
    fn class5_reduction_example_3_8() {
        check_class_reduction(&["A", "B", "C", "D"], "A B -> C; C -> A D");
    }

    #[test]
    fn class5_reduction_ab_c_b_core() {
        check_class_reduction(&["A", "B", "C"], "A B -> C; C -> B");
    }

    #[test]
    fn hard_cores_reduce_to_themselves() {
        check_class_reduction(&["A", "B", "C"], "A -> B; B -> C");
        check_class_reduction(&["A", "B", "C"], "A -> C; B -> C");
    }

    #[test]
    fn lifting_preserves_costs_across_one_step() {
        // Δ = {facility→city, facility room→floor} simplifies by removing
        // `facility`; lift instances of Δ−facility back to Δ.
        let s = Schema::new("Office", ["facility", "room", "floor", "city"]).unwrap();
        let fds = FdSet::parse(&s, "facility -> city; facility room -> floor").unwrap();
        let removed = AttrSet::singleton(s.attr("facility").unwrap());
        let reduced = fds.minus(removed);
        let red = lifting_reduction(&s, removed);
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..10 {
            let rows = (0..8).map(|_| {
                (
                    tup![
                        rng.gen_range(0..2i64), // facility (ignored by Δ−X side)
                        rng.gen_range(0..2i64),
                        rng.gen_range(0..2i64),
                        rng.gen_range(0..2i64)
                    ],
                    rng.gen_range(1..3) as f64,
                )
            });
            let t = Table::build(s.clone(), rows).unwrap();
            let mapped = red.map_table(&t);
            let a = exact_s_repair(&t, &reduced);
            let b = exact_s_repair(&mapped, &fds);
            assert!((a.cost - b.cost).abs() < 1e-9, "{} vs {}", a.cost, b.cost);
        }
    }

    #[test]
    fn lifting_chain_restores_original_fd_set_instances() {
        // Example 4.7's Δ₂ = {state city → zip, state zip → country} gets
        // stuck after removing the common lhs `state`. The chain has one
        // lifting step.
        let s = Schema::new("R", ["state", "city", "zip", "country"]).unwrap();
        let fds = FdSet::parse(&s, "state city -> zip; state zip -> country").unwrap();
        let trace = crate::succeeds::simplification_trace(&fds);
        let Outcome::Stuck(stuck) = &trace.outcome else {
            panic!("expected stuck");
        };
        let chain = lifting_chain(&s, &trace);
        assert_eq!(chain.len(), 1);
        // Build an instance of the stuck set, push it through, compare.
        let mut rng = StdRng::seed_from_u64(5);
        let rows = (0..8).map(|_| {
            (
                tup![
                    rng.gen_range(0..2i64),
                    rng.gen_range(0..2i64),
                    rng.gen_range(0..2i64),
                    rng.gen_range(0..2i64)
                ],
                1.0,
            )
        });
        let t = Table::build(s.clone(), rows).unwrap();
        let mut mapped = t.clone();
        for red in &chain {
            mapped = red.map_table(&mapped);
        }
        let a = exact_s_repair(&t, stuck);
        let b = exact_s_repair(&mapped, &fds);
        assert!((a.cost - b.cost).abs() < 1e-9);
    }
}
