//! A table + FD set + priority bundle with precomputed conflict structure.

use crate::error::{PriorityError, Result};
use crate::relation::PriorityRelation;
use fd_core::{FdSet, Table, TupleId};
use fd_graph::ConflictGraph;
use std::collections::{HashMap, HashSet};

/// A table with its FD set and a validated priority relation, plus the
/// precomputed conflict graph and the transitive closure `≻⁺` of the
/// priority — the working object of every prioritized-repair check.
///
/// Construction validates the priority against the instance: every related
/// pair must reference existing tuples and must be a genuine conflict (two
/// tuples jointly violating an FD of the set).
pub struct PrioritizedTable<'a> {
    table: &'a Table,
    fds: &'a FdSet,
    /// Tuple ids in node order (sorted ascending).
    ids: Vec<TupleId>,
    index: HashMap<TupleId, usize>,
    /// Conflict adjacency over node indices.
    adj: Vec<Vec<usize>>,
    /// `direct[i * n + j]` iff `ids[i] ≻ ids[j]` was asserted.
    direct: Vec<bool>,
    /// `better[i * n + j]` iff `ids[i] ≻⁺ ids[j]` (transitive closure).
    better: Vec<bool>,
    n: usize,
}

impl<'a> PrioritizedTable<'a> {
    /// Bundles `table`, `fds` and `prio`, validating the priority.
    ///
    /// # Errors
    ///
    /// * [`PriorityError::UnknownTuple`] if a preference references an id
    ///   absent from the table;
    /// * [`PriorityError::NonConflictingPair`] if a preference relates two
    ///   tuples that never jointly violate an FD.
    pub fn new(table: &'a Table, fds: &'a FdSet, prio: &PriorityRelation) -> Result<Self> {
        let mut ids: Vec<TupleId> = table.ids().collect();
        ids.sort_unstable();
        let n = ids.len();
        let index: HashMap<TupleId, usize> =
            ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();

        let mut adj = vec![Vec::new(); n];
        let mut conflict_set: HashSet<(usize, usize)> = HashSet::new();
        for (a, b) in table.conflicting_pairs(fds) {
            let (i, j) = (index[&a], index[&b]);
            if conflict_set.insert((i.min(j), i.max(j))) {
                adj[i].push(j);
                adj[j].push(i);
            }
        }

        let mut better = vec![false; n * n];
        for &(w, l) in prio.pairs() {
            let wi = *index.get(&w).ok_or(PriorityError::UnknownTuple { id: w })?;
            let li = *index.get(&l).ok_or(PriorityError::UnknownTuple { id: l })?;
            if !conflict_set.contains(&(wi.min(li), wi.max(li))) {
                return Err(PriorityError::NonConflictingPair {
                    winner: w,
                    loser: l,
                });
            }
            better[wi * n + li] = true;
        }
        let direct = better.clone();
        // Boolean transitive closure (Warshall).
        for k in 0..n {
            for i in 0..n {
                if better[i * n + k] {
                    for j in 0..n {
                        if better[k * n + j] {
                            better[i * n + j] = true;
                        }
                    }
                }
            }
        }

        Ok(PrioritizedTable {
            table,
            fds,
            ids,
            index,
            adj,
            direct,
            better,
            n,
        })
    }

    /// The underlying table.
    pub fn table(&self) -> &Table {
        self.table
    }

    /// The FD set.
    pub fn fds(&self) -> &FdSet {
        self.fds
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True iff the table is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Tuple ids in node order.
    pub fn ids(&self) -> &[TupleId] {
        &self.ids
    }

    /// True iff `winner ≻⁺ loser` in the transitive closure of the priority.
    pub fn dominates(&self, winner: TupleId, loser: TupleId) -> bool {
        match (self.index.get(&winner), self.index.get(&loser)) {
            (Some(&w), Some(&l)) => self.better[w * self.n + l],
            _ => false,
        }
    }

    /// True iff the two tuples jointly violate some FD.
    pub fn conflicts(&self, a: TupleId, b: TupleId) -> bool {
        match (self.index.get(&a), self.index.get(&b)) {
            (Some(&i), Some(&j)) => self.adj[i].contains(&j),
            _ => false,
        }
    }

    pub(crate) fn idx(&self, id: TupleId) -> Result<usize> {
        self.index
            .get(&id)
            .copied()
            .ok_or(PriorityError::UnknownTuple { id })
    }

    pub(crate) fn adj_of(&self, i: usize) -> &[usize] {
        &self.adj[i]
    }

    pub(crate) fn better_idx(&self, wi: usize, li: usize) -> bool {
        self.better[wi * self.n + li]
    }

    pub(crate) fn direct_idx(&self, wi: usize, li: usize) -> bool {
        self.direct[wi * self.n + li]
    }

    /// Converts a kept-id list to a node-index set, erroring on unknown ids.
    pub(crate) fn to_index_set(&self, kept: &[TupleId]) -> Result<Vec<bool>> {
        let mut set = vec![false; self.n];
        for &id in kept {
            set[self.idx(id)?] = true;
        }
        Ok(set)
    }

    /// True iff `kept` is a consistent subset (independent in the conflict
    /// graph).
    pub fn is_consistent(&self, kept: &[TupleId]) -> Result<bool> {
        let set = self.to_index_set(kept)?;
        for i in 0..self.n {
            if set[i] && self.adj[i].iter().any(|&j| set[j]) {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// True iff `kept` is a subset repair: consistent and maximal (every
    /// excluded tuple conflicts with a kept one).
    pub fn is_subset_repair(&self, kept: &[TupleId]) -> Result<bool> {
        let set = self.to_index_set(kept)?;
        for i in 0..self.n {
            if set[i] {
                if self.adj[i].iter().any(|&j| set[j]) {
                    return Ok(false); // inconsistent
                }
            } else if !self.adj[i].iter().any(|&j| set[j]) {
                return Ok(false); // not maximal: i could be restored
            }
        }
        Ok(true)
    }

    /// Enumerates all subset repairs (maximal consistent subsets).
    ///
    /// # Errors
    ///
    /// [`PriorityError::TooLargeForEnumeration`] beyond
    /// [`fd_graph::MIS_MAX_NODES`] tuples — enumeration is inherently
    /// exponential in output size.
    pub fn subset_repairs(&self) -> Result<Vec<Vec<TupleId>>> {
        if self.n > fd_graph::MIS_MAX_NODES {
            return Err(PriorityError::TooLargeForEnumeration {
                size: self.n,
                max: fd_graph::MIS_MAX_NODES,
            });
        }
        let cg = ConflictGraph::build(self.table, self.fds);
        let sets = fd_graph::enumerate_maximal_independent_sets(&cg.graph);
        Ok(sets
            .into_iter()
            .map(|nodes| {
                let mut ids: Vec<TupleId> = nodes
                    .iter()
                    .map(|&v| self.table.id_at(v as usize))
                    .collect();
                ids.sort_unstable();
                ids
            })
            .collect())
    }

    /// The repair produced by greedily walking `ranking` (a total order,
    /// best first): each tuple is kept unless it conflicts with an
    /// already-kept tuple.
    ///
    /// This is the completion-semantics generator: when `ranking` is a
    /// linear extension of the priority, the result is by definition a
    /// completion-optimal repair.
    ///
    /// # Errors
    ///
    /// * [`PriorityError::NotAPermutation`] if `ranking` is not a
    ///   permutation of the table's tuple ids;
    /// * [`PriorityError::NotALinearExtension`] if `ranking` places a
    ///   dominated tuple above its dominator.
    pub fn greedy(&self, ranking: &[TupleId]) -> Result<Vec<TupleId>> {
        if ranking.len() != self.n {
            return Err(PriorityError::NotAPermutation);
        }
        let mut pos = vec![usize::MAX; self.n];
        for (p, &id) in ranking.iter().enumerate() {
            let i = self.idx(id)?;
            if pos[i] != usize::MAX {
                return Err(PriorityError::NotAPermutation);
            }
            pos[i] = p;
        }
        for wi in 0..self.n {
            for li in 0..self.n {
                if self.better[wi * self.n + li] && pos[wi] > pos[li] {
                    return Err(PriorityError::NotALinearExtension {
                        winner: self.ids[wi],
                        loser: self.ids[li],
                    });
                }
            }
        }
        let mut kept = vec![false; self.n];
        for &id in ranking {
            let i = self.idx(id)?;
            if !self.adj[i].iter().any(|&j| kept[j]) {
                kept[i] = true;
            }
        }
        let mut out: Vec<TupleId> = (0..self.n)
            .filter(|&i| kept[i])
            .map(|i| self.ids[i])
            .collect();
        out.sort_unstable();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_core::{schema_rabc, tup, Table};

    fn id(i: u32) -> TupleId {
        TupleId(i)
    }

    /// Two conflicting pairs under A -> B: {0,1} and {2,3}; tuple 4 is
    /// conflict-free.
    fn fixture() -> (Table, FdSet) {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        let t = Table::build_unweighted(
            s,
            vec![
                tup!["x", 1, 0],
                tup!["x", 2, 0],
                tup!["y", 1, 0],
                tup!["y", 2, 0],
                tup!["z", 1, 0],
            ],
        )
        .unwrap();
        (t, fds)
    }

    #[test]
    fn validates_conflicting_pairs() {
        let (t, fds) = fixture();
        let ok = PriorityRelation::new(vec![(id(0), id(1))]).unwrap();
        assert!(PrioritizedTable::new(&t, &fds, &ok).is_ok());

        let bad = PriorityRelation::new(vec![(id(0), id(2))]).unwrap();
        assert_eq!(
            PrioritizedTable::new(&t, &fds, &bad).err(),
            Some(PriorityError::NonConflictingPair {
                winner: id(0),
                loser: id(2)
            })
        );

        let unknown = PriorityRelation::new(vec![(id(0), id(99))]).unwrap();
        assert_eq!(
            PrioritizedTable::new(&t, &fds, &unknown).err(),
            Some(PriorityError::UnknownTuple { id: id(99) })
        );
    }

    #[test]
    fn transitive_closure_dominates() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        // Three tuples pairwise conflicting (same A, distinct B).
        let t = Table::build_unweighted(s, vec![tup!["x", 1, 0], tup!["x", 2, 0], tup!["x", 3, 0]])
            .unwrap();
        let rel = PriorityRelation::new(vec![(id(0), id(1)), (id(1), id(2))]).unwrap();
        let inst = PrioritizedTable::new(&t, &fds, &rel).unwrap();
        assert!(inst.dominates(id(0), id(1)));
        assert!(inst.dominates(id(1), id(2)));
        assert!(inst.dominates(id(0), id(2)), "closure must include 0 ≻⁺ 2");
        assert!(!inst.dominates(id(2), id(0)));
    }

    #[test]
    fn subset_repair_checks() {
        let (t, fds) = fixture();
        let rel = PriorityRelation::empty();
        let inst = PrioritizedTable::new(&t, &fds, &rel).unwrap();
        assert!(inst.is_subset_repair(&[id(0), id(2), id(4)]).unwrap());
        // Missing tuple 4 => not maximal.
        assert!(!inst.is_subset_repair(&[id(0), id(2)]).unwrap());
        // 0 and 1 conflict => inconsistent.
        assert!(!inst
            .is_subset_repair(&[id(0), id(1), id(2), id(4)])
            .unwrap());
        assert!(inst.is_consistent(&[id(0), id(2)]).unwrap());
    }

    #[test]
    fn enumerates_all_subset_repairs() {
        let (t, fds) = fixture();
        let rel = PriorityRelation::empty();
        let inst = PrioritizedTable::new(&t, &fds, &rel).unwrap();
        let mut repairs = inst.subset_repairs().unwrap();
        repairs.sort();
        assert_eq!(
            repairs,
            vec![
                vec![id(0), id(2), id(4)],
                vec![id(0), id(3), id(4)],
                vec![id(1), id(2), id(4)],
                vec![id(1), id(3), id(4)],
            ]
        );
    }

    #[test]
    fn greedy_respects_ranking() {
        let (t, fds) = fixture();
        let rel = PriorityRelation::new(vec![(id(1), id(0))]).unwrap();
        let inst = PrioritizedTable::new(&t, &fds, &rel).unwrap();
        let kept = inst.greedy(&[id(1), id(4), id(3), id(2), id(0)]).unwrap();
        assert_eq!(kept, vec![id(1), id(3), id(4)]);
        // A ranking contradicting 1 ≻ 0 is rejected.
        assert_eq!(
            inst.greedy(&[id(0), id(1), id(2), id(3), id(4)]).err(),
            Some(PriorityError::NotALinearExtension {
                winner: id(1),
                loser: id(0)
            })
        );
        // A non-permutation is rejected.
        assert_eq!(
            inst.greedy(&[id(1), id(1), id(2), id(3), id(4)]).err(),
            Some(PriorityError::NotAPermutation)
        );
    }
}
