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

/// Splits `Δ` into maximal attribute-disjoint components (Theorem 4.1):
/// the finest partition of the nontrivial FDs such that FDs in different
/// parts share no attribute. Components are returned in a deterministic
/// order (by smallest attribute).
pub fn attribute_components(fds: &FdSet) -> Vec<FdSet> {
    let work = fds.remove_trivial();
    let fd_list: Vec<&Fd> = work.iter().collect();
    let n = fd_list.len();
    // Union-find over FD indices.
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, i: usize) -> usize {
        if parent[i] != i {
            let root = find(parent, parent[i]);
            parent[i] = root;
        }
        parent[i]
    }
    for i in 0..n {
        for j in i + 1..n {
            if fd_list[i].attrs().intersects(fd_list[j].attrs()) {
                let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                if ri != rj {
                    parent[ri] = rj;
                }
            }
        }
    }
    let mut groups: std::collections::BTreeMap<(AttrSet, usize), Vec<Fd>> =
        std::collections::BTreeMap::new();
    for i in 0..n {
        let root = find(&mut parent, i);
        let key_attrs = {
            // Smallest attribute set of the component, for ordering.
            let mut attrs = AttrSet::EMPTY;
            for (j, fd) in fd_list.iter().enumerate() {
                if find(&mut parent, j) == root {
                    attrs = attrs.union(fd.attrs());
                }
            }
            attrs
        };
        groups
            .entry((key_attrs, root))
            .or_default()
            .push(*fd_list[i]);
    }
    groups.into_values().map(FdSet::new).collect()
}

/// Strips the consensus attributes (Theorem 4.3): returns
/// `(cl_Δ(∅), Δ − cl_Δ(∅))`. The first component is handled by
/// [`crate::consensus_u_repair`]; the second is attribute-disjoint from it
/// and equivalent to the rest of `Δ`.
pub fn strip_consensus(fds: &FdSet) -> (AttrSet, FdSet) {
    let consensus = fds.consensus_attrs();
    (consensus, fds.minus(consensus).remove_trivial())
}

/// Theorem 4.3's first step on a table: strips the consensus attributes
/// and repairs them optimally (Proposition B.2). Returns that repair, the
/// consensus attributes, and the consensus-free rest of `Δ`, which the
/// caller solves against the repaired table.
pub(crate) fn consensus_first(table: &Table, fds: &FdSet) -> (URepair, AttrSet, FdSet) {
    let (consensus_attrs, rest) = strip_consensus(fds);
    let repair = if consensus_attrs.is_empty() {
        URepair::identity(table)
    } else {
        consensus_u_repair(table, consensus_attrs)
    };
    (repair, consensus_attrs, rest)
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
