//! Priority relations over tuples.
//!
//! Following Staworko, Chomicki & Marcinkowski (the paper's [29]), a
//! *priority relation* `≻` is an acyclic binary relation over the tuples of
//! an inconsistent table that relates only *conflicting* tuples: `t ≻ s`
//! asserts that, where `t` and `s` cannot coexist, `t` is to be preferred.
//! Priorities generalize the paper's weights (a weight function induces the
//! priority "strictly heavier wins on every conflict edge").

use crate::error::{PriorityError, Result};
use fd_core::{FdSet, Table, TupleId};
use std::collections::{HashMap, HashSet};

/// An acyclic preference relation `≻` over tuple identifiers.
///
/// The relation is stored as explicit `(winner, loser)` pairs. Acyclicity
/// is validated at construction; the conflict-only restriction is validated
/// when the relation is attached to a table via
/// [`crate::PrioritizedTable::new`].
#[derive(Clone, Debug, Default)]
pub struct PriorityRelation {
    pairs: Vec<(TupleId, TupleId)>,
    pair_set: HashSet<(TupleId, TupleId)>,
}

impl PriorityRelation {
    /// The empty priority (no preferences; every repair notion collapses to
    /// plain subset repairs).
    pub fn empty() -> PriorityRelation {
        PriorityRelation::default()
    }

    /// Builds a priority from `(winner, loser)` pairs.
    ///
    /// # Errors
    ///
    /// [`PriorityError::SelfPreference`] on a `t ≻ t` pair and
    /// [`PriorityError::Cyclic`] if the pairs contain a directed cycle.
    pub fn new<I>(pairs: I) -> Result<PriorityRelation>
    where
        I: IntoIterator<Item = (TupleId, TupleId)>,
    {
        let mut rel = PriorityRelation::default();
        for (w, l) in pairs {
            rel.add(w, l)?;
        }
        rel.check_acyclic()?;
        Ok(rel)
    }

    /// Derives a priority from tuple weights: `t ≻ s` iff `t` and `s`
    /// jointly violate some FD and `w(t) > w(s)`.
    ///
    /// This is the bridge between the paper's weighted cardinality repairs
    /// and the prioritized setting: the induced priority is automatically
    /// acyclic and conflict-restricted.
    pub fn from_weights(table: &Table, fds: &FdSet) -> PriorityRelation {
        let mut rel = PriorityRelation::default();
        for (a, b) in table.conflicting_pairs(fds) {
            let (wa, wb) = (
                table.weights()[table.position_of(a).expect("id from table")],
                table.weights()[table.position_of(b).expect("id from table")],
            );
            if wa > wb {
                let _ = rel.add(a, b);
            } else if wb > wa {
                let _ = rel.add(b, a);
            }
        }
        debug_assert!(rel.check_acyclic().is_ok());
        rel
    }

    fn add(&mut self, winner: TupleId, loser: TupleId) -> Result<()> {
        if winner == loser {
            return Err(PriorityError::SelfPreference { id: winner });
        }
        if self.pair_set.insert((winner, loser)) {
            self.pairs.push((winner, loser));
        }
        Ok(())
    }

    /// True iff `winner ≻ loser` was asserted directly (not transitively).
    pub fn prefers(&self, winner: TupleId, loser: TupleId) -> bool {
        self.pair_set.contains(&(winner, loser))
    }

    /// The asserted pairs, in insertion order.
    pub fn pairs(&self) -> &[(TupleId, TupleId)] {
        &self.pairs
    }

    /// Number of asserted pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True iff no preference was asserted.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Restricts the relation to pairs whose both endpoints survive in
    /// `alive` — used when tuples are deleted before re-analysis.
    pub fn restrict_to(&self, alive: &HashSet<TupleId>) -> PriorityRelation {
        let pairs: Vec<_> = self
            .pairs
            .iter()
            .copied()
            .filter(|(w, l)| alive.contains(w) && alive.contains(l))
            .collect();
        PriorityRelation {
            pair_set: pairs.iter().copied().collect(),
            pairs,
        }
    }

    fn check_acyclic(&self) -> Result<()> {
        // Kahn's algorithm over the preference digraph.
        let mut nodes: HashSet<TupleId> = HashSet::new();
        for &(w, l) in &self.pairs {
            nodes.insert(w);
            nodes.insert(l);
        }
        let mut indeg: HashMap<TupleId, usize> = nodes.iter().map(|&n| (n, 0)).collect();
        let mut out: HashMap<TupleId, Vec<TupleId>> = HashMap::new();
        for &(w, l) in &self.pairs {
            *indeg.get_mut(&l).expect("node registered") += 1;
            out.entry(w).or_default().push(l);
        }
        let mut queue: Vec<TupleId> = indeg
            .iter()
            .filter(|(_, &d)| d == 0)
            .map(|(&n, _)| n)
            .collect();
        queue.sort_unstable();
        let mut seen = 0usize;
        while let Some(n) = queue.pop() {
            seen += 1;
            for &m in out.get(&n).map(Vec::as_slice).unwrap_or(&[]) {
                let d = indeg.get_mut(&m).expect("node registered");
                *d -= 1;
                if *d == 0 {
                    queue.push(m);
                }
            }
        }
        if seen == nodes.len() {
            Ok(())
        } else {
            Err(PriorityError::Cyclic)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_core::{schema_rabc, tup, Table};

    fn id(i: u32) -> TupleId {
        TupleId(i)
    }

    #[test]
    fn rejects_self_preference() {
        assert_eq!(
            PriorityRelation::new(vec![(id(1), id(1))]).err(),
            Some(PriorityError::SelfPreference { id: id(1) })
        );
    }

    #[test]
    fn rejects_cycles() {
        assert_eq!(
            PriorityRelation::new(vec![(id(1), id(2)), (id(2), id(3)), (id(3), id(1))]).err(),
            Some(PriorityError::Cyclic)
        );
    }

    #[test]
    fn accepts_dags_and_dedups() {
        let rel =
            PriorityRelation::new(vec![(id(1), id(2)), (id(1), id(2)), (id(2), id(3))]).unwrap();
        assert_eq!(rel.len(), 2);
        assert!(rel.prefers(id(1), id(2)));
        assert!(!rel.prefers(id(2), id(1)));
    }

    #[test]
    fn from_weights_orients_conflicts_by_weight() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        let t = Table::build(
            s,
            vec![
                (tup!["x", 1, 0], 3.0),
                (tup!["x", 2, 0], 1.0),
                (tup!["y", 9, 0], 1.0),
            ],
        )
        .unwrap();
        let rel = PriorityRelation::from_weights(&t, &fds);
        assert_eq!(rel.pairs(), &[(id(0), id(1))]);
    }

    #[test]
    fn from_weights_skips_ties() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        let t = Table::build(s, vec![(tup!["x", 1, 0], 2.0), (tup!["x", 2, 0], 2.0)]).unwrap();
        assert!(PriorityRelation::from_weights(&t, &fds).is_empty());
    }

    #[test]
    fn restrict_drops_dead_pairs() {
        let rel = PriorityRelation::new(vec![(id(1), id(2)), (id(2), id(3))]).unwrap();
        let alive: HashSet<TupleId> = [id(1), id(2)].into_iter().collect();
        let r = rel.restrict_to(&alive);
        assert_eq!(r.pairs(), &[(id(1), id(2))]);
    }
}
