//! Decomposition theorems for U-repairs.
//!
//! * Theorem 4.1: if `Δ = Δ₁ ∪ Δ₂` with `attr(Δ₁) ∩ attr(Δ₂) = ∅`, then
//!   α-optimal repairs compose component-wise in both directions.
//! * Theorem 4.3: consensus attributes can be stripped — `Δ` is equivalent
//!   to `{∅ → cl_Δ(∅)} ∪ (Δ − cl_Δ(∅))`, an attribute-disjoint union whose
//!   first part is solved optimally by Proposition B.2.

use crate::consensus::consensus_u_repair;
use crate::repair::URepair;
use fd_core::{AttrSet, Fd, FdSet, Table};
use std::borrow::Cow;

/// Splits `Δ` into maximal attribute-disjoint components (Theorem 4.1):
/// the finest partition of the nontrivial FDs such that FDs in different
/// parts share no attribute. Components are returned in a deterministic
/// order (by smallest attribute).
pub fn attribute_components(fds: &FdSet) -> Vec<FdSet> {
    // Groups stay pairwise attribute-disjoint: each FD absorbs every
    // group it shares an attribute with.
    let mut groups: Vec<(AttrSet, Vec<Fd>)> = Vec::new();
    for fd in fds.remove_trivial().iter() {
        let (mut attrs, mut members) = (fd.attrs(), vec![*fd]);
        groups.retain_mut(|(other, other_fds)| {
            let shared = other.intersects(attrs);
            if shared {
                attrs = attrs.union(*other);
                members.append(other_fds);
            }
            !shared
        });
        groups.push((attrs, members));
    }
    groups.sort_by_key(|(attrs, _)| *attrs);
    groups.into_iter().map(|(_, fds)| FdSet::new(fds)).collect()
}

/// Strips the consensus attributes (Theorem 4.3): returns
/// `(cl_Δ(∅), Δ − cl_Δ(∅))`. The first component is handled by
/// [`crate::consensus_u_repair`]; the second is attribute-disjoint from it
/// and equivalent to the rest of `Δ`.
pub fn strip_consensus(fds: &FdSet) -> (AttrSet, FdSet) {
    let consensus = fds.consensus_attrs();
    (consensus, fds.minus(consensus).remove_trivial())
}

/// Theorem 4.3's first step on a table: repairs the consensus attributes
/// optimally (Proposition B.2). Returns that repair, those attributes,
/// the base the consensus-free rest of `Δ` (last) is solved against: the
/// input itself when the repair writes no cell, else the input with the
/// consensus cells applied, once.
pub(crate) fn consensus_first<'t>(
    table: &'t Table,
    fds: &FdSet,
) -> (URepair, AttrSet, Cow<'t, Table>, FdSet) {
    let (attrs, rest) = strip_consensus(fds);
    if attrs.is_empty() {
        return (URepair::default(), attrs, Cow::Borrowed(table), rest);
    }
    let mut sp = fd_trace::span("urepair/consensus");
    sp.attr("attrs", attrs.len());
    let repair = consensus_u_repair(table, attrs);
    sp.attr("cells", repair.cells.len());
    let base = if repair.cells.is_empty() {
        Cow::Borrowed(table)
    } else {
        Cow::Owned(repair.apply(table))
    };
    (repair, attrs, base, rest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_core::Schema;

    #[test]
    fn splits_example_4_2() {
        // Δ = {item → cost, buyer → address}: two components.
        let s = Schema::new("R", ["item", "cost", "buyer", "address"]).unwrap();
        let fds = FdSet::parse(&s, "item -> cost; buyer -> address").unwrap();
        let comps = attribute_components(&fds);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].display(&s), "{item → cost}");
        assert_eq!(comps[1].display(&s), "{buyer → address}");
        assert!(comps[0].attrs().is_disjoint(comps[1].attrs()));
    }

    #[test]
    fn chained_attributes_stay_together() {
        // {A→B, B→C} share B; {E→F} is separate.
        let s = Schema::new("R", ["A", "B", "C", "E", "F"]).unwrap();
        let fds = FdSet::parse(&s, "A -> B; B -> C; E -> F").unwrap();
        let comps = attribute_components(&fds);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].len(), 2);
        assert_eq!(comps[1].len(), 1);
    }

    #[test]
    fn trivial_fds_are_dropped() {
        let s = Schema::new("R", ["A", "B"]).unwrap();
        let fds = FdSet::parse(&s, "A B -> A").unwrap();
        assert!(attribute_components(&fds).is_empty());
        assert!(attribute_components(&FdSet::empty()).is_empty());
    }

    #[test]
    fn strip_consensus_example_after_theorem_4_3() {
        // Δ = {∅→D, AD→B, B→CD}: cl(∅) = {D} and Δ − D = {A→B, B→C}.
        let s = Schema::new("R", ["A", "B", "C", "D"]).unwrap();
        let fds = FdSet::parse(&s, "-> D; A D -> B; B -> C D").unwrap();
        let (consensus, rest) = strip_consensus(&fds);
        assert_eq!(consensus, AttrSet::singleton(s.attr("D").unwrap()));
        let expected = FdSet::parse(&s, "A -> B; B -> C").unwrap();
        assert_eq!(rest, expected);
    }

    #[test]
    fn strip_consensus_cascades() {
        // ∅→A plus A→B makes B a consensus attribute too.
        let s = Schema::new("R", ["A", "B", "C"]).unwrap();
        let fds = FdSet::parse(&s, "-> A; A -> B; B C -> A").unwrap();
        let (consensus, rest) = strip_consensus(&fds);
        assert_eq!(consensus, s.attr_set(["A", "B"]).unwrap());
        assert!(rest.is_empty(), "remaining: {}", rest.display(&s));
    }

    #[test]
    fn all_consensus_leaves_nothing() {
        let s = Schema::new("R", ["A", "B"]).unwrap();
        let fds = FdSet::parse(&s, "-> A B").unwrap();
        let (consensus, rest) = strip_consensus(&fds);
        assert_eq!(consensus.len(), 2);
        assert!(rest.is_empty());
    }
}
