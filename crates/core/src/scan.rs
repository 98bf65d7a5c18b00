//! Conflict detection over symbol columns.
//!
//! [`KeyExtractor`] hashes and compares a projection `t[X]` as a gather
//! over the table's `u32` symbol columns (one FNV fold and one word
//! compare per attribute; no `Value` is touched). The reads below run
//! over a freshly built [`ConflictIndex`], in `O(|T| · |Δ|)` time plus
//! output size: FDs in `Δ` order, groups and rhs classes in first-row
//! order. [`Table::conflicting_pairs`] materializes the pairs for small
//! tables; `fd-graph` reads conflict graphs and components straight off
//! the index.

use crate::attrset::AttrSet;
use crate::fd::Fd;
use crate::fdset::FdSet;
use crate::index::ConflictIndex;
use crate::sym::Sym;
use crate::table::{Table, TupleId};

/// A precomputed projection key for one attribute set: hashes and
/// compares `t[X]` as a gather over the table's symbol columns, with no
/// per-row allocation. The hash is an FNV-1a fold over the projected
/// 32-bit symbols — deterministic across runs and platforms.
#[derive(Clone, Debug)]
pub struct KeyExtractor {
    cols: Box<[usize]>,
}

impl KeyExtractor {
    /// Builds an extractor for the attribute set `X` (ascending order,
    /// matching [`crate::Tuple::project`]).
    pub fn new(attrs: AttrSet) -> KeyExtractor {
        KeyExtractor {
            cols: attrs.iter().map(|a| a.usize()).collect(),
        }
    }

    /// The hash of the projection of the row at `pos`: one FNV fold per
    /// attribute over its 32-bit symbol, with a final bit-mix so the low
    /// bits (used for power-of-two slot masks) see the whole word.
    #[inline]
    pub fn hash(&self, cols: &[Vec<Sym>], pos: u32) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &c in self.cols.iter() {
            h = (h ^ cols[c][pos as usize].raw() as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^ (h >> 31)
    }

    /// True iff the rows at `p` and `q` agree on `X` (symbol compare
    /// per attribute; symbol equality ⇔ value equality).
    #[inline]
    pub fn eq(&self, cols: &[Vec<Sym>], p: u32, q: u32) -> bool {
        self.cols
            .iter()
            .all(|&c| cols[c][p as usize] == cols[c][q as usize])
    }
}

impl Table {
    /// Streams every *conflict group*: for each FD and each lhs-group
    /// with at least two rhs classes, calls `f(fd, positions)` with the
    /// whole group's row positions, in row order. Each such group is a
    /// connected block of the conflict graph; a row may appear in groups
    /// of several FDs.
    pub fn for_each_conflict_group<F: FnMut(&Fd, &[u32])>(&self, fds: &FdSet, mut f: F) {
        let index = ConflictIndex::build(self, fds);
        let mut members: Vec<u32> = Vec::new();
        for (i, fd) in fds.iter().enumerate() {
            for g in index.conflict_groups(i) {
                members.clear();
                members.extend(index.members(i, g));
                f(fd, &members);
            }
        }
    }

    /// All conflicting pairs of identifiers: pairs `(i, j)`, `i < j` in row
    /// order, whose two tuples jointly violate some FD of `Δ`. This is the
    /// edge set of the *conflict graph* used by Proposition 3.3.
    ///
    /// This materializes every pair — `Θ(n²)` on dense instances. Large
    /// consumers read components or conflict graphs off a
    /// [`ConflictIndex`] instead.
    pub fn conflicting_pairs(&self, fds: &FdSet) -> Vec<(TupleId, TupleId)> {
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        ConflictIndex::build(self, fds).for_each_split(self, |_, classes| {
            for_each_cross_pair(classes, |p, q| pairs.push((p, q)));
        });
        pairs.sort_unstable();
        pairs.dedup();
        pairs
            .into_iter()
            .map(|(p, q)| (self.id_at(p as usize), self.id_at(q as usize)))
            .collect()
    }

    /// The number of distinct conflicting pairs, storing none.
    ///
    /// FDs sharing an lhs are merged first (a pair violates `X → Y` or
    /// `X → Z` iff it violates `X → Y Z`). The first FD's pairs are
    /// counted from its rhs-class sizes in `O(|T|)`; a later FD's pair
    /// counts only if it violates no earlier FD, which a group-of compare
    /// and an rhs word compare per earlier FD decide.
    pub fn conflicting_pair_count(&self, fds: &FdSet) -> usize {
        let mut merged: Vec<Fd> = Vec::new();
        for fd in fds.iter() {
            match merged.iter_mut().find(|m| m.lhs() == fd.lhs()) {
                Some(m) => *m = Fd::new(m.lhs(), m.rhs().union(fd.rhs())),
                None => merged.push(*fd),
            }
        }
        let merged = FdSet::new(merged);
        let index = ConflictIndex::build(self, &merged);
        let mut count = 0usize;
        index.for_each_split(self, |i, classes| {
            if i == 0 {
                let total: usize = classes.iter().map(Vec::len).sum();
                let same: usize = classes.iter().map(|c| c.len() * c.len()).sum();
                count += (total * total - same) / 2;
            } else {
                for_each_cross_pair(classes, |p, q| {
                    if !(0..i).any(|j| index.violates(self, j, p, q)) {
                        count += 1;
                    }
                });
            }
        });
        count
    }
}

/// Calls `f(p, q)` with `p < q` for every pair of rows in different
/// classes, classes in order and members in order: the conflicting
/// pairs of one split group.
pub fn for_each_cross_pair<F: FnMut(u32, u32)>(classes: &[Vec<u32>], mut f: F) {
    for (ci, class_a) in classes.iter().enumerate() {
        for class_b in &classes[ci + 1..] {
            for &p in class_a {
                for &q in class_b {
                    f(p.min(q), p.max(q));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::schema_rabc;
    use crate::tup;
    use rand::prelude::*;

    /// The conflicting pairs by the definition: every pair of rows,
    /// every FD.
    fn naive_pairs(t: &Table, fds: &FdSet) -> Vec<(TupleId, TupleId)> {
        let rows: Vec<_> = t.rows().collect();
        let mut pairs = Vec::new();
        for (i, a) in rows.iter().enumerate() {
            for b in &rows[i + 1..] {
                let agree = |x: AttrSet| a.tuple.project(x) == b.tuple.project(x);
                if fds.iter().any(|fd| agree(fd.lhs()) && !agree(fd.rhs())) {
                    pairs.push((a.id, b.id));
                }
            }
        }
        pairs
    }

    #[test]
    fn materialized_pairs_and_their_count_match_the_definition() {
        let s = schema_rabc();
        let mut rng = StdRng::seed_from_u64(0x5CA7);
        for spec in ["A -> B", "A -> B; B -> C", "-> C", "A B -> C; C -> B", ""] {
            let fds = FdSet::parse(&s, spec).unwrap();
            for _ in 0..10 {
                let rows = (0..rng.gen_range(0..20)).map(|_| {
                    (
                        tup![
                            rng.gen_range(0..3i64),
                            rng.gen_range(0..3i64),
                            rng.gen_range(0..3i64)
                        ],
                        1.0,
                    )
                });
                let t = Table::build(s.clone(), rows).unwrap();
                let pairs = t.conflicting_pairs(&fds);
                assert_eq!(pairs, naive_pairs(&t, &fds), "{spec}\n{t}");
                assert_eq!(t.conflicting_pair_count(&fds), pairs.len(), "{spec}");
            }
        }
    }

    #[test]
    fn multi_fd_counts_match_the_materialized_pair_set() {
        let s = schema_rabc();
        let mut rng = StdRng::seed_from_u64(0xC0A7);
        for spec in [
            "A -> B; A -> C",
            "A -> B; A -> C; B -> C",
            "-> C; A -> B; B -> A",
            "A -> C; B -> C; A B -> C",
        ] {
            let fds = FdSet::parse(&s, spec).unwrap();
            for _ in 0..20 {
                let rows = (0..rng.gen_range(0..30)).map(|_| {
                    tup![
                        rng.gen_range(0..3i64),
                        rng.gen_range(0..3i64),
                        rng.gen_range(0..3i64)
                    ]
                });
                let t = Table::build_unweighted(s.clone(), rows).unwrap();
                assert_eq!(
                    t.conflicting_pair_count(&fds),
                    t.conflicting_pairs(&fds).len(),
                    "{spec}\n{t}"
                );
            }
        }
    }

    #[test]
    fn shared_lhs_fds_count_like_their_merged_fd() {
        // One lhs group of 8,000 rows with B cycling mod 3 and C mod 2:
        // only rows agreeing on (i mod 6) fail to conflict.
        let s = schema_rabc();
        let rows = (0..8_000i64).map(|i| tup![0, i % 3, i % 2]);
        let t = Table::build_unweighted(s.clone(), rows).unwrap();
        for spec in ["A -> B; A -> C", "A -> B C"] {
            let fds = FdSet::parse(&s, spec).unwrap();
            assert_eq!(t.conflicting_pair_count(&fds), 26_666_666, "{spec}");
        }
    }

    #[test]
    fn conflict_groups_cover_every_pair_and_are_row_ordered() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        // Group x: B-classes {0,1},{2} → conflicting group {0,1,2};
        // row 3 is alone in group y.
        let t = Table::build_unweighted(
            s,
            vec![
                tup!["x", 1, 0],
                tup!["x", 1, 1],
                tup!["x", 2, 0],
                tup!["y", 3, 0],
            ],
        )
        .unwrap();
        let mut groups: Vec<Vec<u32>> = Vec::new();
        t.for_each_conflict_group(&fds, |_, members| groups.push(members.to_vec()));
        assert_eq!(groups, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn consensus_fd_scans_one_global_group() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "-> C").unwrap();
        let t =
            Table::build_unweighted(s, vec![tup![1, 1, 0], tup![2, 2, 1], tup![3, 3, 0]]).unwrap();
        let mut groups = 0;
        let mut members = Vec::new();
        t.for_each_conflict_group(&fds, |_, m| {
            groups += 1;
            members = m.to_vec();
        });
        assert_eq!(groups, 1);
        assert_eq!(members, vec![0, 1, 2]);
    }

    #[test]
    fn extractor_hash_and_eq_match_projection() {
        let s = schema_rabc();
        let t = Table::build_unweighted(
            s.clone(),
            vec![tup!["x", 1, 2], tup!["x", 9, 2], tup!["x", 1, 3]],
        )
        .unwrap();
        let cols = t.sym_cols();
        let x = KeyExtractor::new(s.attr_set(["A", "C"]).unwrap());
        assert!(x.eq(cols, 0, 1));
        assert!(!x.eq(cols, 0, 2));
        assert_eq!(x.hash(cols, 0), x.hash(cols, 1));
        // Empty keys: everything hashes and compares equal.
        let e = KeyExtractor::new(AttrSet::EMPTY);
        assert_eq!(e.hash(cols, 0), e.hash(cols, 2));
        assert!(e.eq(cols, 0, 2));
    }
}
