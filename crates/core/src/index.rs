//! The conflict index: one lhs partition per FD, built once and kept.
//!
//! Rows conflict under `X → Y` iff they agree on `X` and disagree on
//! `Y`. So per FD the index groups rows by lhs (an open-addressing
//! table over groups, members as intrusive lists in one flat `next`
//! array, each row's group) and counts each group's rhs classes. A
//! group with ≥ 2 classes is a *conflicting group*: a connected complete
//! multipartite block of the conflict graph (Proposition 3.3), so the
//! components are the union over conflicting groups, with no edge ever
//! enumerated.
//!
//! The cold reads build an index keyed by row position. The
//! incremental session keys one by [`TupleId`] (a delete shifts
//! positions, never ids) and keeps it current with
//! [`ConflictIndex::apply`] in `O(|Δ| · group)` per mutation. Hashes
//! only pick probe slots; grouping verifies symbol equality. A fresh
//! index numbers groups and finds classes in first-row order, and lists
//! members in row order: the order every conflict read inherits.

use crate::attrset::AttrSet;
use crate::fdset::FdSet;
use crate::mutation::MutationEffect;
use crate::scan::KeyExtractor;
use crate::table::{Table, TupleId};

/// "No row" / "no group" sentinel of the flat arrays.
const NONE: u32 = u32::MAX;

/// The position of the row named `key`: an index names rows by
/// position (one-shot reads) or, `by_id`, by tuple id (maintainable).
#[inline]
fn position(by_id: bool, table: &Table, key: u32) -> u32 {
    match by_id {
        false => key,
        true => table
            .position_of(TupleId(key))
            .expect("indexed row is alive") as u32,
    }
}

/// One lhs group; a probe and an append touch one record.
#[derive(Clone, Copy, Debug)]
struct Group {
    hash: u64,
    head: u32,
    tail: u32,
    /// Members; 0 once the group is freed.
    len: u32,
    classes: u32,
}

/// The lhs partition of one FD.
#[derive(Clone, Debug)]
struct Partition {
    lhs: KeyExtractor,
    rhs: KeyExtractor,
    /// `lhs ∪ rhs`: a cell edit outside it leaves the partition alone.
    attrs: AttrSet,
    /// Probe slots: group + 1, or 0 when empty.
    slots: Vec<u32>,
    groups: Vec<Group>,
    /// Freed group numbers, reused first.
    free: Vec<u32>,
    /// Per row key: the next member of its group, and its group.
    next: Vec<u32>,
    group: Vec<u32>,
}

/// Rhs sub-partition scratch, reused across groups: probe slots are
/// cleared by bumping the epoch, class lists keep their capacity.
#[derive(Default)]
pub struct SplitScratch {
    slot: Vec<u32>,
    stamp: Vec<u64>,
    epoch: u64,
    /// Member positions per class, in list order.
    members: Vec<Vec<u32>>,
    count: usize,
}

impl SplitScratch {
    /// Splits group `g` into its rhs classes, in first-occurrence order.
    fn split(&mut self, part: &Partition, table: &Table, by_id: bool, g: u32) -> &mut [Vec<u32>] {
        let cols = table.sym_cols();
        let group = &part.groups[g as usize];
        let cap = (2 * group.len as usize).next_power_of_two();
        if self.slot.len() < cap {
            self.slot.resize(cap, 0);
            self.stamp.resize(cap, 0);
        }
        self.epoch += 1;
        self.count = 0;
        let mut key = group.head;
        while key != NONE {
            let pos = position(by_id, table, key);
            let mut slot = part.rhs.hash(cols, pos) as usize & (cap - 1);
            loop {
                if self.stamp[slot] != self.epoch {
                    self.stamp[slot] = self.epoch;
                    self.slot[slot] = self.count as u32;
                    if self.members.len() == self.count {
                        self.members.push(Vec::new());
                    }
                    self.members[self.count].clear();
                    self.members[self.count].push(pos);
                    self.count += 1;
                    break;
                }
                let class = &mut self.members[self.slot[slot] as usize];
                if part.rhs.eq(cols, class[0], pos) {
                    class.push(pos);
                    break;
                }
                slot = (slot + 1) & (cap - 1);
            }
            key = part.next[key as usize];
        }
        &mut self.members[..self.count]
    }
}

impl Partition {
    /// Appends the row `key` at `pos` to its lhs group, opening the
    /// group if it is new, and returns it. The caller keeps the probe
    /// table under half full.
    #[inline]
    fn link(&mut self, table: &Table, by_id: bool, key: u32, pos: u32) -> u32 {
        let cols = table.sym_cols();
        let h = self.lhs.hash(cols, pos);
        let mask = self.slots.len() - 1;
        let mut slot = h as usize & mask;
        let g = loop {
            let g = self.slots[slot];
            if g == 0 {
                let group = Group {
                    hash: h,
                    head: key,
                    tail: key,
                    len: 1,
                    classes: 1,
                };
                let g = match self.free.pop() {
                    Some(g) => {
                        self.groups[g as usize] = group;
                        g
                    }
                    None => {
                        self.groups.push(group);
                        self.groups.len() as u32 - 1
                    }
                };
                self.slots[slot] = g + 1;
                break g;
            }
            let group = &mut self.groups[(g - 1) as usize];
            if group.hash == h && self.lhs.eq(cols, position(by_id, table, group.head), pos) {
                self.next[group.tail as usize] = key;
                group.tail = key;
                group.len += 1;
                break g - 1;
            }
            slot = (slot + 1) & mask;
        };
        self.group[key as usize] = g;
        g
    }

    /// Removes the row `key` from its group; returns the group if rows
    /// remain in it.
    fn unlink(&mut self, key: u32) -> Option<u32> {
        let g = std::mem::replace(&mut self.group[key as usize], NONE);
        let after = std::mem::replace(&mut self.next[key as usize], NONE);
        let group = &mut self.groups[g as usize];
        if group.head == key {
            group.head = after;
        } else {
            let mut prev = group.head;
            while self.next[prev as usize] != key {
                prev = self.next[prev as usize];
            }
            self.next[prev as usize] = after;
            if group.tail == key {
                group.tail = prev;
            }
        }
        group.len -= 1;
        if group.len > 0 {
            return Some(g);
        }
        // Backward-shift deletion of the group's slot keeps every probe
        // chain unbroken without tombstones.
        let mask = self.slots.len() - 1;
        let mut hole = group.hash as usize & mask;
        while self.slots[hole] != g + 1 {
            hole = (hole + 1) & mask;
        }
        self.slots[hole] = 0;
        let mut probe = hole;
        loop {
            probe = (probe + 1) & mask;
            let entry = self.slots[probe];
            if entry == 0 {
                break;
            }
            // The entry may move into the hole unless its home slot lies
            // cyclically in (hole, probe].
            let home = self.groups[(entry - 1) as usize].hash as usize & mask;
            if (probe.wrapping_sub(home) & mask) >= (probe.wrapping_sub(hole) & mask) {
                self.slots[hole] = entry;
                self.slots[probe] = 0;
                hole = probe;
            }
        }
        self.free.push(g);
        None
    }

    /// Doubles the probe table once it is half full.
    fn reserve_group(&mut self) {
        if 2 * (self.groups.len() - self.free.len() + 1) <= self.slots.len() {
            return;
        }
        self.slots = vec![0; 2 * self.slots.len()];
        let mask = self.slots.len() - 1;
        for (g, group) in self.groups.iter().enumerate().filter(|(_, gr)| gr.len > 0) {
            let mut slot = group.hash as usize & mask;
            while self.slots[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = g as u32 + 1;
        }
    }

    /// Re-counts the rhs classes of group `g`.
    fn recount(&mut self, table: &Table, by_id: bool, g: u32, scratch: &mut SplitScratch) {
        let classes = match self.groups[g as usize].len {
            0 | 1 => 1,
            _ => scratch.split(self, table, by_id, g).len() as u32,
        };
        self.groups[g as usize].classes = classes;
    }
}

/// Per-FD lhs partitions of a table with rhs-class counts, behind every
/// conflict read of the workspace. See the module docs.
///
/// # Examples
///
/// ```
/// use fd_core::{schema_rabc, tup, ConflictIndex, FdSet, Mutation, Table, TupleId};
///
/// let s = schema_rabc();
/// let fds = FdSet::parse(&s, "A -> B").unwrap();
/// let mut t = Table::build_unweighted(
///     s,
///     vec![tup![1, 1, 0], tup![1, 2, 0], tup![7, 7, 0]],
/// ).unwrap();
/// let mut index = ConflictIndex::build_by_id(&t, &fds);
/// let g = index.group_of(0, 0).unwrap();
/// assert_eq!(index.class_count(0, g), 2); // rows 0 and 1 conflict
/// let effect = t.apply_mutation(&Mutation::Delete { id: TupleId(1) }).unwrap();
/// index.apply(&t, &effect);
/// assert_eq!(index.class_count(0, g), 1);
/// assert_eq!(index.group_of(0, 1), None);
/// ```
#[derive(Clone, Debug)]
pub struct ConflictIndex {
    /// Rows are named by tuple id, not position.
    by_id: bool,
    /// One more than the largest row key (kept apart: `Δ` may be empty).
    key_space: usize,
    parts: Vec<Partition>,
}

impl ConflictIndex {
    /// Builds the index of `table` under `fds`, keyed by row position.
    pub fn build(table: &Table, fds: &FdSet) -> ConflictIndex {
        ConflictIndex::build_keyed(table, fds, false)
    }

    /// Builds the index keyed by [`TupleId`], the form
    /// [`ConflictIndex::apply`] keeps current.
    pub fn build_by_id(table: &Table, fds: &FdSet) -> ConflictIndex {
        ConflictIndex::build_keyed(table, fds, true)
    }

    fn build_keyed(table: &Table, fds: &FdSet, by_id: bool) -> ConflictIndex {
        let n = table.len();
        // fdlint: allow(O001, "observation only: the span is dropped at scope end and no trace value flows into the index")
        let mut sp = fd_trace::span("core/conflict_scan");
        sp.attr("rows", n);
        sp.attr("fds", fds.len());
        let key_of = |pos: u32| match by_id {
            false => pos,
            true => table.id_at(pos as usize).0,
        };
        let key_space = match by_id {
            false => n,
            true => table.ids().map(|id| id.0 as usize + 1).max().unwrap_or(0),
        };
        let mut scratch = SplitScratch::default();
        let parts: Vec<Partition> = fds
            .iter()
            .map(|fd| {
                let mut part = Partition {
                    lhs: KeyExtractor::new(fd.lhs()),
                    rhs: KeyExtractor::new(fd.rhs()),
                    attrs: fd.attrs(),
                    slots: vec![0; (2 * n).next_power_of_two().max(8)],
                    groups: Vec::new(),
                    free: Vec::new(),
                    next: vec![NONE; key_space],
                    group: vec![NONE; key_space],
                };
                for pos in 0..n as u32 {
                    part.link(table, by_id, key_of(pos), pos);
                }
                for g in 0..part.groups.len() as u32 {
                    part.recount(table, by_id, g, &mut scratch);
                }
                part
            })
            .collect();
        ConflictIndex {
            by_id,
            key_space,
            parts,
        }
    }

    /// The number of FDs indexed, in `Δ` order.
    pub fn fd_count(&self) -> usize {
        self.parts.len()
    }

    /// One more than the largest row key the index has room for.
    pub fn key_space(&self) -> usize {
        self.key_space
    }

    /// The group of the row `key` under FD `fd`, if the row is indexed.
    pub fn group_of(&self, fd: usize, key: u32) -> Option<u32> {
        let g = *self.parts[fd].group.get(key as usize)?;
        (g != NONE).then_some(g)
    }

    /// The member keys of group `g` under FD `fd`, in list order.
    pub fn members(&self, fd: usize, g: u32) -> impl Iterator<Item = u32> + '_ {
        let part = &self.parts[fd];
        let live = |key: u32| (key != NONE).then_some(key);
        std::iter::successors(live(part.groups[g as usize].head), move |&key| {
            live(part.next[key as usize])
        })
    }

    /// The number of rhs classes in group `g` under FD `fd`.
    pub fn class_count(&self, fd: usize, g: u32) -> usize {
        self.parts[fd].groups[g as usize].classes as usize
    }

    /// The conflicting groups (≥ 2 rhs classes) of FD `fd`, in group
    /// order.
    pub fn conflict_groups(&self, fd: usize) -> impl Iterator<Item = u32> + '_ {
        let groups = &self.parts[fd].groups;
        (0..groups.len() as u32).filter(move |&g| groups[g as usize].classes >= 2)
    }

    /// True iff no group under any FD holds two rhs classes: the
    /// indexed table satisfies `Δ`.
    pub fn is_consistent(&self) -> bool {
        (0..self.fd_count()).all(|fd| self.conflict_groups(fd).next().is_none())
    }

    /// The rhs classes of the group holding the row at position `pos`
    /// under FD `fd`, if that group conflicts: member positions in row
    /// order, classes by first member — a fresh index's order, whatever
    /// mutations this one has seen. `scratch` is reused across calls.
    pub fn conflict_classes<'s>(
        &self,
        table: &Table,
        fd: usize,
        pos: u32,
        scratch: &'s mut SplitScratch,
    ) -> Option<&'s mut [Vec<u32>]> {
        let key = match self.by_id {
            false => pos,
            true => table.id_at(pos as usize).0,
        };
        let g = self.parts[fd].group[key as usize];
        if self.class_count(fd, g) < 2 {
            return None;
        }
        let classes = scratch.split(&self.parts[fd], table, self.by_id, g);
        // Only an id-keyed index is mutated, and a cell edit re-links a
        // row at its new group's tail.
        if self.by_id {
            classes.iter_mut().for_each(|class| class.sort_unstable());
            classes.sort_unstable_by_key(|class| class[0]);
        }
        Some(classes)
    }

    /// True iff the rows at positions `p` and `q` violate FD `fd`.
    /// Position-keyed indexes only.
    pub(crate) fn violates(&self, table: &Table, fd: usize, p: u32, q: u32) -> bool {
        let part = &self.parts[fd];
        part.group[p as usize] == part.group[q as usize] && !part.rhs.eq(table.sym_cols(), p, q)
    }

    /// Calls `f(fd, classes)` for every conflicting group, FDs in `Δ`
    /// order and groups in group order, with the group's rhs classes as
    /// member positions. Rows in different classes of one call jointly
    /// violate FD `fd`.
    pub(crate) fn for_each_split<F: FnMut(usize, &[Vec<u32>])>(&self, table: &Table, mut f: F) {
        let mut scratch = SplitScratch::default();
        for (fd, part) in self.parts.iter().enumerate() {
            for g in self.conflict_groups(fd) {
                f(fd, scratch.split(part, table, self.by_id, g));
            }
        }
    }

    /// Brings an id-keyed index up to date with one mutation `table` has
    /// already applied: under every FD it touches, the row leaves its
    /// old group and joins its new one, and both groups' rhs classes are
    /// re-counted.
    ///
    /// # Panics
    ///
    /// On a position-keyed index: a delete shifts positions.
    pub fn apply(&mut self, table: &Table, effect: &MutationEffect) {
        assert!(self.by_id, "only an id-keyed index is maintained");
        let key = effect.id().0;
        self.key_space = self.key_space.max(key as usize + 1);
        let mut scratch = SplitScratch::default();
        for part in &mut self.parts {
            let (leave, join) = match effect {
                MutationEffect::Inserted { .. } => (false, true),
                MutationEffect::Deleted { .. } => (true, false),
                MutationEffect::CellSet { attr, .. } => {
                    let touched = part.attrs.contains(*attr);
                    (touched, touched)
                }
            };
            if let Some(g) = leave.then(|| part.unlink(key)).flatten() {
                part.recount(table, true, g, &mut scratch);
            }
            if join {
                part.next.resize(self.key_space, NONE);
                part.group.resize(self.key_space, NONE);
                part.reserve_group();
                let g = part.link(table, true, key, position(true, table, key));
                part.recount(table, true, g, &mut scratch);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mutation::Mutation;
    use crate::schema::schema_rabc;
    use crate::tup;
    use crate::value::Value;
    use rand::prelude::*;

    /// Each live row's group, as (sorted member keys, class count), per
    /// FD — a form independent of group numbering.
    fn canonical(index: &ConflictIndex, table: &Table) -> Vec<Vec<(Vec<u32>, usize)>> {
        (0..index.fd_count())
            .map(|fd| {
                table
                    .ids()
                    .map(|id| {
                        let g = index.group_of(fd, id.0).expect("live row is indexed");
                        let mut members: Vec<u32> = index.members(fd, g).collect();
                        members.sort_unstable();
                        (members, index.class_count(fd, g))
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn maintained_index_equals_a_fresh_build_after_every_mutation() {
        let s = schema_rabc();
        let mut rng = StdRng::seed_from_u64(0x1DE);
        for spec in [
            "A -> B",
            "A -> B; B -> C",
            "-> C; A -> B",
            "A B -> C; C -> B",
            "",
        ] {
            let fds = FdSet::parse(&s, spec).unwrap();
            // Few distinct values keep groups large and busy; the
            // inserts outgrow the probe table the build sized.
            let rows = (0..6).map(|_| {
                tup![
                    rng.gen_range(0..3i64),
                    rng.gen_range(0..3i64),
                    rng.gen_range(0..3i64)
                ]
            });
            let mut t = Table::build_unweighted(s.clone(), rows).unwrap();
            let mut index = ConflictIndex::build_by_id(&t, &fds);
            for step in 0..300 {
                let ids: Vec<TupleId> = t.ids().collect();
                let m = match rng.gen_range(0..3usize) {
                    0 if !ids.is_empty() => Mutation::Delete {
                        id: ids[rng.gen_range(0..ids.len())],
                    },
                    1 if !ids.is_empty() => Mutation::SetCell {
                        id: ids[rng.gen_range(0..ids.len())],
                        attr: s.attr(["A", "B", "C"][rng.gen_range(0..3usize)]).unwrap(),
                        value: Value::from(rng.gen_range(0..4i64)),
                    },
                    _ => Mutation::Insert {
                        tuple: tup![
                            rng.gen_range(0..4i64),
                            rng.gen_range(0..3i64),
                            rng.gen_range(0..3i64)
                        ],
                        weight: 1.0,
                    },
                };
                let effect = t.apply_mutation(&m).unwrap();
                index.apply(&t, &effect);
                let fresh = ConflictIndex::build_by_id(&t, &fds);
                assert_eq!(
                    canonical(&index, &t),
                    canonical(&fresh, &t),
                    "{spec} step {step}\n{t}"
                );
                if let MutationEffect::Deleted { row } = &effect {
                    assert!((0..index.fd_count()).all(|fd| index.group_of(fd, row.id.0).is_none()));
                }
            }
        }
    }

    #[test]
    fn a_fresh_build_numbers_groups_in_first_row_order() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        let t = Table::build_unweighted(
            s,
            vec![
                tup!["y", 1, 0],
                tup!["x", 1, 0],
                tup!["y", 2, 0],
                tup!["x", 1, 1],
            ],
        )
        .unwrap();
        let index = ConflictIndex::build(&t, &fds);
        assert_eq!(index.group_of(0, 0), Some(0));
        assert_eq!(index.group_of(0, 1), Some(1));
        assert_eq!(index.members(0, 0).collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(index.members(0, 1).collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(index.conflict_groups(0).collect::<Vec<_>>(), vec![0]);
        assert_eq!(index.class_count(0, 1), 1);
    }
}
