//! The Figure-2 classifier: places every irreducible FD set (no common
//! lhs, no consensus FD, no lhs marriage, nontrivial) into one of the five
//! classes of §3.3 / Lemma A.22, each of which admits a fact-wise reduction
//! from one of the four hard FD sets of Table 1.

use crate::succeeds::simplification_trace;
use fd_core::{AttrSet, FdSet};

/// The four hard "core" FD sets over `R(A, B, C)` of Table 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum HardCore {
    /// `Δ_{A→C←B} = {A → C, B → C}` (Lemma A.14 source).
    AtoCfromB,
    /// `Δ_{A→B→C} = {A → B, B → C}` (Lemma A.15 source).
    AtoBtoC,
    /// `Δ_{AB↔AC↔BC} = {AB → C, AC → B, BC → A}` (Lemma A.16 source).
    Triangle,
    /// `Δ_{AB→C→B} = {AB → C, C → B}` (Lemma A.17 source).
    ABtoCtoB,
}

impl HardCore {
    /// The FDs of the core, as a spec string over `R(A, B, C)`.
    pub fn spec(self) -> &'static str {
        match self {
            HardCore::AtoCfromB => "A -> C; B -> C",
            HardCore::AtoBtoC => "A -> B; B -> C",
            HardCore::Triangle => "A B -> C; A C -> B; B C -> A",
            HardCore::ABtoCtoB => "A B -> C; C -> B",
        }
    }

    /// The paper's name for the core.
    pub fn name(self) -> &'static str {
        match self {
            HardCore::AtoCfromB => "Δ_{A→C←B}",
            HardCore::AtoBtoC => "Δ_{A→B→C}",
            HardCore::Triangle => "Δ_{AB↔AC↔BC}",
            HardCore::ABtoCtoB => "Δ_{AB→C→B}",
        }
    }
}

/// The classification of an irreducible FD set: the Figure-2 class, the
/// Table-1 core it reduces from, and the witnessing local minima (oriented
/// so the corresponding lemma's conditions hold for `(x1, x2)` as stored).
#[derive(Clone, Debug, PartialEq)]
pub struct Classification {
    /// Figure-2 class, 1–5.
    pub class: u8,
    /// The hard core with a fact-wise reduction into this FD set.
    pub core: HardCore,
    /// First witnessing local minimum lhs.
    pub x1: AttrSet,
    /// Second witnessing local minimum lhs.
    pub x2: AttrSet,
    /// Third local minimum, present exactly for class 4 (Lemma A.16).
    pub x3: Option<AttrSet>,
}

/// Classifies an *irreducible* FD set (checked: nontrivial after trivial
/// removal, no common lhs, no consensus FD, no lhs marriage) into one of
/// the five classes. Returns `None` if the set is not irreducible.
pub fn classify_irreducible(fds: &FdSet) -> Option<Classification> {
    // Irreducible ⇔ Algorithm 2 is stuck before its first step.
    let trace = simplification_trace(fds);
    let fds = trace.step(0).err()?;
    let minima = fds.local_minima();
    debug_assert!(
        minima.len() >= 2,
        "an irreducible FD set has at least two local minima (§3.3)"
    );
    // Deterministic: first pair in sorted order that classifies.
    let (&x1, &x2) = (minima.first()?, minima.get(1)?);
    Some(classify_pair(fds, x1, x2, &minima))
}

fn classify_pair(fds: &FdSet, x1: AttrSet, x2: AttrSet, minima: &[AttrSet]) -> Classification {
    let xh1 = fds.closure_of(x1).difference(x1);
    let xh2 = fds.closure_of(x2).difference(x2);
    if !xh2.intersects(x1) {
        classify_oriented(fds, x1, x2, xh1, xh2, minima)
    } else if !xh1.intersects(x2) {
        // Symmetric: swap roles.
        classify_oriented(fds, x2, x1, xh2, xh1, minima)
    } else {
        // Both X̂₁ ∩ X₂ ≠ ∅ and X̂₂ ∩ X₁ ≠ ∅ (classes 4 and 5).
        if !x2.difference(x1).is_subset(xh1) {
            // Lemma A.17 conditions hold for (x1, x2).
            Classification {
                class: 5,
                core: HardCore::ABtoCtoB,
                x1,
                x2,
                x3: None,
            }
        } else if !x1.difference(x2).is_subset(xh2) {
            // Lemma A.17 with the roles swapped.
            Classification {
                class: 5,
                core: HardCore::ABtoCtoB,
                x1: x2,
                x2: x1,
                x3: None,
            }
        } else {
            // (X₁∖X₂) ⊆ X̂₂ and (X₂∖X₁) ⊆ X̂₁: class 4; Lemma A.22 shows a
            // third local minimum must exist (else Δ would have a common
            // lhs or an lhs marriage, contradicting irreducibility).
            let x3 = minima.iter().copied().find(|&m| m != x1 && m != x2);
            debug_assert!(x3.is_some(), "class 4 requires a third local minimum");
            Classification {
                class: 4,
                core: HardCore::Triangle,
                x1,
                x2,
                x3,
            }
        }
    }
}

/// Classification for an orientation with `X̂₂ ∩ X₁ = ∅` (cases 1–3 of
/// Lemma A.22).
fn classify_oriented(
    fds: &FdSet,
    x1: AttrSet,
    x2: AttrSet,
    xh1: AttrSet,
    xh2: AttrSet,
    _minima: &[AttrSet],
) -> Classification {
    let cl2 = fds.closure_of(x2);
    if !xh1.intersects(cl2) {
        Classification {
            class: 1,
            core: HardCore::AtoCfromB,
            x1,
            x2,
            x3: None,
        }
    } else if !xh1.intersects(x2) {
        // X̂₁ ∩ cl(X₂) ≠ ∅ but X̂₁ ∩ X₂ = ∅ forces X̂₁ ∩ X̂₂ ≠ ∅: class 2.
        debug_assert!(xh1.intersects(xh2));
        Classification {
            class: 2,
            core: HardCore::AtoBtoC,
            x1,
            x2,
            x3: None,
        }
    } else {
        Classification {
            class: 3,
            core: HardCore::AtoBtoC,
            x1,
            x2,
            x3: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_core::{schema_rabc, Schema};

    fn classify(names: &[&str], spec: &str) -> Classification {
        let s = Schema::new("R", names.to_vec()).unwrap();
        let fds = FdSet::parse(&s, spec).unwrap();
        classify_irreducible(&fds).expect("irreducible")
    }

    #[test]
    fn example_3_8_class_witnesses() {
        // The five FD sets of Example 3.8 land in classes 1–5.
        let c1 = classify(&["A", "B", "C", "D"], "A -> B; C -> D");
        assert_eq!((c1.class, c1.core), (1, HardCore::AtoCfromB));

        let c2 = classify(&["A", "B", "C", "D", "E"], "A -> C D; B -> C E");
        assert_eq!((c2.class, c2.core), (2, HardCore::AtoBtoC));

        let c3 = classify(&["A", "B", "C", "D"], "A -> B C; B -> D");
        assert_eq!((c3.class, c3.core), (3, HardCore::AtoBtoC));

        let c4 = classify(&["A", "B", "C"], "A B -> C; A C -> B; B C -> A");
        assert_eq!((c4.class, c4.core), (4, HardCore::Triangle));
        assert!(c4.x3.is_some());

        let c5 = classify(&["A", "B", "C", "D"], "A B -> C; C -> A D");
        assert_eq!((c5.class, c5.core), (5, HardCore::ABtoCtoB));
    }

    #[test]
    fn class5_orientation_satisfies_lemma_a17() {
        // For Δ₅ the stored orientation must satisfy Lemma A.17:
        // X̂₁∩X₂ ≠ ∅, X̂₂∩X₁ ≠ ∅, (X₂∖X₁) ⊄ X̂₁.
        let s = Schema::new("R", ["A", "B", "C", "D"]).unwrap();
        let fds = FdSet::parse(&s, "A B -> C; C -> A D").unwrap();
        let c = classify_irreducible(&fds).unwrap();
        let xh1 = fds.closure_of(c.x1).difference(c.x1);
        let xh2 = fds.closure_of(c.x2).difference(c.x2);
        assert!(xh1.intersects(c.x2));
        assert!(xh2.intersects(c.x1));
        assert!(!c.x2.difference(c.x1).is_subset(xh1));
    }

    #[test]
    fn table1_cores_classify_as_themselves() {
        // Δ_{A→C←B} is itself a class-2 set (X̂₁ ∩ X̂₂ = {C} ≠ ∅), so the
        // classifier reduces it from Δ_{A→B→C} via Lemma A.15 — the class-1
        // source Δ_{A→C←B} is used only when the closures are disjoint.
        let c = classify(&["A", "B", "C"], "A -> C; B -> C");
        assert_eq!((c.class, c.core), (2, HardCore::AtoBtoC));
        let c = classify(&["A", "B", "C"], "A -> B; B -> C");
        assert_eq!(c.core, HardCore::AtoBtoC);
        let c = classify(&["A", "B", "C"], "A B -> C; C -> B");
        assert_eq!((c.class, c.core), (5, HardCore::ABtoCtoB));
        let c = classify(&["A", "B", "C"], "A B -> C; A C -> B; B C -> A");
        assert_eq!(c.core, HardCore::Triangle);
    }

    #[test]
    fn reducible_sets_are_rejected() {
        let s = schema_rabc();
        for spec in [
            "A -> B",
            "A -> B; A -> C",
            "-> C; A -> B",
            "A -> B; B -> A; B -> C",
        ] {
            let fds = FdSet::parse(&s, spec).unwrap();
            assert!(classify_irreducible(&fds).is_none(), "{spec}");
        }
        assert!(classify_irreducible(&FdSet::empty()).is_none());
    }

    #[test]
    fn delta_ab_to_c_to_b_conditions() {
        // Δ_{AB→C→B}: minima {C} and {A,B}. cl(C)={B,C}: X̂ = {B} meets
        // {A,B}; cl(AB)=ABC: X̂={C} meets {C}. (X₂∖X₁) ⊄ X̂₁ in the stored
        // orientation.
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A B -> C; C -> B").unwrap();
        let c = classify_irreducible(&fds).unwrap();
        assert_eq!(c.class, 5);
    }
}
