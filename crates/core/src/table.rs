//! Weighted tables with tuple identifiers (§2.1), FD satisfaction (§2.2),
//! and the repair distances `dist_sub` / `dist_upd` (§2.3).
//!
//! # Storage layout
//!
//! A [`Table`] has **one representation: dictionary-encoded columns**.
//! Every cell is interned to a 32-bit [`Sym`] through the table's
//! copy-on-write [`Dictionary`], and the symbols live in one dense
//! `Vec<Sym>` per attribute, beside an identifier column and a weights
//! column. Nothing else is stored: the algorithms only ever test cells
//! for equality, which symbols answer exactly, so every scan, group and
//! hash path runs over the columns (see the `scan` module). Values are
//! decoded only at the boundary — a [`Row`] is an owned value built from
//! the columns on demand ([`Table::rows`], [`Table::row_at`],
//! [`Table::row`]) for reports, the wire, and the solvers that need
//! concrete values. Identifier lookup is a dense offset `Vec<u32>`, not
//! a hash map. Derived tables (subsets, partition blocks, component
//! shards) share the dictionary and gather symbol columns by position.

use crate::attrset::AttrSet;
use crate::error::{Error, Result};
use crate::fd::Fd;
use crate::fdset::FdSet;
use crate::schema::{AttrId, Schema};
use crate::sym::{value_contains_fresh, Dictionary, FnvBuild, Sym};
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// A tuple identifier. Identifiers are stable across subsets and updates,
/// which is how the paper tracks which tuples were deleted or which cells
/// were changed.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TupleId(pub u32);

impl fmt::Display for TupleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// One row of a table: identifier, tuple, weight — a value decoded from
/// the columns at the boundary, not a view into storage.
#[derive(Clone, PartialEq, Debug)]
pub struct Row {
    /// The tuple identifier `i ∈ ids(T)`.
    pub id: TupleId,
    /// The tuple `T[i]`.
    pub tuple: Tuple,
    /// The weight `w_T(i) > 0`.
    pub weight: f64,
}

/// Position sentinel: "this identifier is not in the table".
const NO_POS: u32 = u32::MAX;

/// A table `T` over a schema: a finite map from identifiers to weighted
/// tuples (§2.1). Duplicate *tuples* are allowed; identifiers are unique.
///
/// Storage is columnar and dictionary-encoded — see the module docs.
#[derive(Clone, Debug)]
pub struct Table {
    schema: Arc<Schema>,
    /// The identifier column, row positions aligned.
    ids: Vec<TupleId>,
    next_id: u32,
    /// Dense identifier index: `index[id - index_base]` is the row
    /// position of `id` (or [`NO_POS`]). Covers `[index_base, max id]`, so
    /// sparse shards of a large table stay small.
    index: Vec<u32>,
    index_base: u32,
    /// Sorted `(id, pos)` pairs, used instead of the dense index when a
    /// gather's id range is much wider than its row count (e.g. a tiny
    /// component whose rows stride across a million-row table). Empty
    /// when the dense index is in use.
    index_sparse: Vec<(u32, u32)>,
    /// The copy-on-write value dictionary shared with derived tables.
    dict: Arc<Dictionary>,
    /// One symbol column per attribute, row positions aligned.
    cols: Vec<Vec<Sym>>,
    /// The weights column, row positions aligned.
    weights: Vec<f64>,
    /// Conservative: true iff a fresh-containing value may be stored.
    has_fresh: bool,
}

impl Table {
    /// Creates an empty table over `schema`.
    pub fn new(schema: Arc<Schema>) -> Table {
        let arity = schema.arity();
        Table {
            schema,
            ids: Vec::new(),
            next_id: 0,
            index: Vec::new(),
            index_base: 0,
            index_sparse: Vec::new(),
            dict: Arc::new(Dictionary::new()),
            cols: vec![Vec::new(); arity],
            weights: Vec::new(),
            has_fresh: false,
        }
    }

    /// Creates an empty table with row capacity reserved, for callers
    /// that push many rows (scale generators, [`Table::build`]); text
    /// loaders go through [`TableBuilder`](crate::TableBuilder).
    pub fn with_capacity(schema: Arc<Schema>, rows: usize) -> Table {
        let mut t = Table::new(schema);
        t.ids.reserve(rows);
        t.weights.reserve(rows);
        for col in &mut t.cols {
            col.reserve(rows);
        }
        t
    }

    /// Builds a table from `(tuple, weight)` pairs with ids `0, 1, 2, …`.
    pub fn build<I>(schema: Arc<Schema>, rows: I) -> Result<Table>
    where
        I: IntoIterator<Item = (Tuple, f64)>,
    {
        let iter = rows.into_iter();
        let mut t = Table::with_capacity(schema, iter.size_hint().0);
        for (tuple, weight) in iter {
            t.push(tuple, weight)?;
        }
        Ok(t)
    }

    /// Builds an unweighted table (all weights 1) with ids `0, 1, 2, …`.
    pub fn build_unweighted<I>(schema: Arc<Schema>, rows: I) -> Result<Table>
    where
        I: IntoIterator<Item = Tuple>,
    {
        Table::build(schema, rows.into_iter().map(|t| (t, 1.0)))
    }

    /// Appends a tuple with an automatically assigned identifier.
    pub fn push(&mut self, tuple: Tuple, weight: f64) -> Result<TupleId> {
        let id = TupleId(self.next_id);
        self.push_row(id, tuple, weight)?;
        Ok(id)
    }

    /// Interns `v` through the table's dictionary, copy-on-write: the
    /// shared pool is only cloned when `v` is genuinely new.
    fn intern(&mut self, v: &Value) -> Sym {
        match self.dict.lookup(v) {
            Some(sym) => sym,
            None => Arc::make_mut(&mut self.dict).intern(v),
        }
    }

    /// Records `id → pos` in the identifier index.
    fn index_insert(&mut self, id: u32, pos: u32) {
        if !self.index_sparse.is_empty() {
            // Pushing into a sparsely-indexed gather result: keep the
            // pair list sorted (duplicates were rejected upstream).
            let at = self.index_sparse.partition_point(|&(i, _)| i < id);
            self.index_sparse.insert(at, (id, pos));
            return;
        }
        if self.index.is_empty() {
            self.index_base = id;
        }
        if id < self.index_base {
            // Rare rebase: an explicit identifier below every previous
            // one. Rebuild the offset index over the existing rows.
            let base = id;
            let max = self.index_base as usize + self.index.len() - 1;
            let mut index = vec![NO_POS; max - base as usize + 1];
            for (p, id) in self.ids.iter().enumerate() {
                index[(id.0 - base) as usize] = p as u32;
            }
            self.index = index;
            self.index_base = base;
        }
        let slot = (id - self.index_base) as usize;
        if slot >= self.index.len() {
            self.index.resize(slot + 1, NO_POS);
        }
        self.index[slot] = pos;
    }

    /// The position of `id`, if present.
    #[inline]
    fn pos_of(&self, id: TupleId) -> Option<u32> {
        if !self.index_sparse.is_empty() {
            return self
                .index_sparse
                .binary_search_by_key(&id.0, |&(i, _)| i)
                .ok()
                .map(|k| self.index_sparse[k].1);
        }
        let slot = id.0.checked_sub(self.index_base)? as usize;
        match self.index.get(slot) {
            Some(&pos) if pos != NO_POS => Some(pos),
            _ => None,
        }
    }

    /// Appends a tuple under an explicit identifier.
    pub fn push_row(&mut self, id: TupleId, tuple: Tuple, weight: f64) -> Result<()> {
        if tuple.arity() != self.schema.arity() {
            return Err(Error::ArityMismatch {
                expected: self.schema.arity(),
                found: tuple.arity(),
            });
        }
        if weight <= 0.0 || !weight.is_finite() {
            return Err(Error::InvalidWeight { weight });
        }
        if self.pos_of(id).is_some() {
            return Err(Error::DuplicateTupleId { id: id.0 });
        }
        let pos = self.ids.len() as u32;
        for (c, v) in tuple.values().iter().enumerate() {
            let sym = self.intern(v);
            self.cols[c].push(sym);
            self.has_fresh |= value_contains_fresh(v);
        }
        self.next_id = self.next_id.max(id.0 + 1);
        self.index_insert(id.0, pos);
        self.ids.push(id);
        self.weights.push(weight);
        Ok(())
    }

    /// A table over freshly built columns with identifiers `0..n`: the
    /// landing point of [`TableBuilder`](crate::TableBuilder). The
    /// columns must be row-aligned and hold text-interned symbols of
    /// `dict` only, so no fresh constant is stored.
    pub(crate) fn from_columns(
        schema: Arc<Schema>,
        dict: Dictionary,
        cols: Vec<Vec<Sym>>,
        weights: Vec<f64>,
    ) -> Table {
        assert_eq!(cols.len(), schema.arity(), "one column per attribute");
        assert!(
            cols.iter().all(|col| col.len() == weights.len()),
            "columns are row-aligned"
        );
        let n = u32::try_from(weights.len()).expect("more than 2^32 rows");
        Table {
            schema,
            ids: (0..n).map(TupleId).collect(),
            next_id: n,
            index: (0..n).collect(),
            index_base: 0,
            index_sparse: Vec::new(),
            dict: Arc::new(dict),
            cols,
            weights,
            has_fresh: false,
        }
    }

    /// The schema of the table.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The table's value dictionary.
    pub fn dictionary(&self) -> &Dictionary {
        &self.dict
    }

    /// The symbol column of one attribute, row positions aligned.
    pub fn col(&self, attr: AttrId) -> &[Sym] {
        &self.cols[attr.usize()]
    }

    /// All symbol columns, in schema attribute order.
    pub fn sym_cols(&self) -> &[Vec<Sym>] {
        &self.cols
    }

    /// The weights column, row positions aligned.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// `|T|`: the number of tuple identifiers.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True iff the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Decodes every row, in insertion order. Each item is an owned
    /// [`Row`] built from the columns; code that only needs ids or
    /// weights should read [`Table::ids`] / [`Table::weights`] instead.
    pub fn rows(&self) -> impl Iterator<Item = Row> + '_ {
        (0..self.len()).map(|pos| self.row_at(pos))
    }

    /// Decodes the row at a position (insertion order).
    pub fn row_at(&self, pos: usize) -> Row {
        Row {
            id: self.ids[pos],
            tuple: Tuple::new(self.cols.iter().map(|col| self.dict.decode(col[pos]))),
            weight: self.weights[pos],
        }
    }

    /// The identifier at a position (insertion order).
    pub fn id_at(&self, pos: usize) -> TupleId {
        self.ids[pos]
    }

    /// All identifiers, in insertion order.
    pub fn ids(&self) -> impl Iterator<Item = TupleId> + '_ {
        self.ids.iter().copied()
    }

    /// Decodes the row with identifier `id` (O(1) lookup through the
    /// dense offset index).
    pub fn row(&self, id: TupleId) -> Result<Row> {
        self.pos_of(id)
            .map(|pos| self.row_at(pos as usize))
            .ok_or(Error::UnknownTupleId { id: id.0 })
    }

    /// The position (insertion order) of `id`, if present — the public
    /// face of the identifier index. The incremental repair layer uses
    /// it to translate cached component id lists into the position
    /// vectors [`Table::gather_positions`] wants, in O(component) time
    /// instead of an O(table) mask.
    pub fn position_of(&self, id: TupleId) -> Option<usize> {
        self.pos_of(id).map(|pos| pos as usize)
    }

    /// Removes the row with identifier `id`, returning it. Later rows
    /// shift down one position, so row order is preserved — a mutated
    /// table is indistinguishable from one freshly built in the same
    /// final order, which is what keeps incremental repair reports
    /// byte-identical to cold solves. O(n) in the table size (columns
    /// memmove, identifier index shifts); the identifier is never
    /// reused — [`Table::push`] keeps counting upward.
    pub fn delete_row(&mut self, id: TupleId) -> Result<Row> {
        let pos = self.pos_of(id).ok_or(Error::UnknownTupleId { id: id.0 })? as usize;
        let row = self.row_at(pos);
        for col in &mut self.cols {
            col.remove(pos);
        }
        self.weights.remove(pos);
        self.ids.remove(pos);
        if !self.index_sparse.is_empty() {
            self.index_sparse.retain(|&(i, _)| i != id.0);
            for entry in &mut self.index_sparse {
                if entry.1 > pos as u32 {
                    entry.1 -= 1;
                }
            }
        } else {
            self.index[(id.0 - self.index_base) as usize] = NO_POS;
            for slot in &mut self.index {
                if *slot != NO_POS && *slot > pos as u32 {
                    *slot -= 1;
                }
            }
        }
        Ok(row)
    }

    /// Replaces the value of one cell, returning the old value (O(1)):
    /// the new value is interned and written to the symbol column.
    pub fn set_value(&mut self, id: TupleId, attr: AttrId, value: Value) -> Result<Value> {
        let pos = self.pos_of(id).ok_or(Error::UnknownTupleId { id: id.0 })? as usize;
        let sym = self.intern(&value);
        self.has_fresh |= value_contains_fresh(&value);
        let old = std::mem::replace(&mut self.cols[attr.usize()][pos], sym);
        Ok(self.dict.decode(old))
    }

    /// The total weight `w_T(T)` of all rows.
    pub fn total_weight(&self) -> f64 {
        self.weights.iter().sum()
    }

    /// True iff distinct identifiers carry distinct tuples (§2.1).
    pub fn is_duplicate_free(&self) -> bool {
        let mut seen: HashSet<Box<[Sym]>, FnvBuild> = HashSet::default();
        (0..self.len()).all(|pos| {
            let key: Box<[Sym]> = self.cols.iter().map(|col| col[pos]).collect();
            seen.insert(key)
        })
    }

    /// True iff all weights are equal (§2.1).
    pub fn is_unweighted(&self) -> bool {
        match self.weights.first() {
            None => true,
            Some(first) => self.weights.iter().all(|w| w == first),
        }
    }

    // ------------------------------------------------------------------
    // FD satisfaction.
    // ------------------------------------------------------------------

    /// True iff the table satisfies the FD `X → Y` (§2.2).
    pub fn satisfies_fd(&self, fd: &Fd) -> bool {
        self.violation_positions(fd).is_none()
    }

    /// First violating position pair of one FD, in the deterministic
    /// "first row of the lhs group vs. current row" order.
    fn violation_positions(&self, fd: &Fd) -> Option<(u32, u32)> {
        let lhs: Vec<usize> = fd.lhs().iter().map(|a| a.usize()).collect();
        let rhs: Vec<usize> = fd.rhs().iter().map(|a| a.usize()).collect();
        let mut seen: HashMap<Box<[Sym]>, u32, FnvBuild> =
            HashMap::with_capacity_and_hasher(self.len(), FnvBuild::default());
        for pos in 0..self.len() as u32 {
            let key: Box<[Sym]> = lhs.iter().map(|&c| self.cols[c][pos as usize]).collect();
            match seen.entry(key) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    let rep = *e.get() as usize;
                    if rhs
                        .iter()
                        .any(|&c| self.cols[c][rep] != self.cols[c][pos as usize])
                    {
                        return Some((rep as u32, pos));
                    }
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(pos);
                }
            }
        }
        None
    }

    /// True iff the table satisfies every FD of `Δ`.
    pub fn satisfies(&self, fds: &FdSet) -> bool {
        fds.iter().all(|fd| self.satisfies_fd(fd))
    }

    /// Some violating pair `(i, j, fd)` with `i` before `j` in row order,
    /// or `None` if consistent.
    pub fn violating_pair(&self, fds: &FdSet) -> Option<(TupleId, TupleId, Fd)> {
        for fd in fds.iter() {
            if let Some((p, q)) = self.violation_positions(fd) {
                return Some((self.ids[p as usize], self.ids[q as usize], *fd));
            }
        }
        None
    }

    /// All conflicting pairs of identifiers: pairs `(i, j)`, `i < j` in row
    /// order, whose two tuples jointly violate some FD of `Δ`. This is the
    /// edge set of the *conflict graph* used by Proposition 3.3.
    ///
    /// This materializes every pair — `Θ(n²)` on dense instances. Large
    /// consumers should stream via
    /// [`Table::for_each_conflicting_pair`] instead.
    pub fn conflicting_pairs(&self, fds: &FdSet) -> Vec<(TupleId, TupleId)> {
        let mut pairs: HashSet<(u32, u32)> = HashSet::new();
        self.for_each_conflicting_pair(fds, |p, q| {
            pairs.insert((p, q));
        });
        let mut out: Vec<(u32, u32)> = pairs.into_iter().collect();
        out.sort_unstable();
        out.into_iter()
            .map(|(p, q)| (self.ids[p as usize], self.ids[q as usize]))
            .collect()
    }

    // ------------------------------------------------------------------
    // Subsets, updates, distances.
    // ------------------------------------------------------------------

    /// The sub-table holding exactly the rows at the given positions
    /// (insertion order indices), under their original identifiers: a
    /// **gather** — symbol columns are copied by position and the
    /// dictionary is shared, no value is re-interned. This is how
    /// component shards and partition blocks are built.
    pub fn gather_positions(&self, positions: &[u32]) -> Table {
        let ids: Vec<TupleId> = positions.iter().map(|&p| self.ids[p as usize]).collect();
        let cols: Vec<Vec<Sym>> = self
            .cols
            .iter()
            .map(|col| positions.iter().map(|&p| col[p as usize]).collect())
            .collect();
        let weights: Vec<f64> = positions
            .iter()
            .map(|&p| self.weights[p as usize])
            .collect();
        // Offset index over the id range actually present; when the
        // range is much wider than the row count (a few rows strided
        // across a huge table), sorted pairs beat a mostly-empty array.
        let (mut index, mut index_base) = (Vec::new(), 0);
        let mut index_sparse = Vec::new();
        if let (Some(min), Some(max)) = (ids.iter().min(), ids.iter().max()) {
            let (min, max) = (min.0, max.0);
            let range = (max - min + 1) as usize;
            if range <= ids.len() * 4 + 16 {
                index_base = min;
                index = vec![NO_POS; range];
                for (pos, id) in ids.iter().enumerate() {
                    index[(id.0 - min) as usize] = pos as u32;
                }
            } else {
                index_sparse = ids
                    .iter()
                    .enumerate()
                    .map(|(pos, id)| (id.0, pos as u32))
                    .collect();
                index_sparse.sort_unstable_by_key(|&(i, _)| i);
            }
        }
        Table {
            schema: self.schema.clone(),
            ids,
            next_id: self.next_id,
            index,
            index_base,
            index_sparse,
            dict: Arc::clone(&self.dict),
            cols,
            weights,
            has_fresh: self.has_fresh,
        }
    }

    /// [`Table::gather_positions`] with a new weights column:
    /// `weights[i]` becomes the weight of the row gathered from
    /// `positions[i]`.
    ///
    /// # Panics
    /// Panics if the lengths differ or a weight is not positive and
    /// finite.
    pub fn gather_reweighted(&self, positions: &[u32], weights: Vec<f64>) -> Table {
        assert_eq!(
            positions.len(),
            weights.len(),
            "one weight per gathered row"
        );
        assert!(
            weights.iter().all(|w| *w > 0.0 && w.is_finite()),
            "weights must be positive and finite"
        );
        let mut table = self.gather_positions(positions);
        table.weights = weights;
        table
    }

    /// A keep-mask over row positions: `mask[pos]` is true iff the row
    /// at `pos` has an id in `ids`. Pure index lookups — no hashing.
    pub fn position_mask<'a>(&self, ids: impl IntoIterator<Item = &'a TupleId>) -> Vec<bool> {
        let mut mask = vec![false; self.len()];
        for id in ids {
            if let Some(pos) = self.pos_of(*id) {
                mask[pos as usize] = true;
            }
        }
        mask
    }

    /// Positions whose mask entry equals `keep`, in row order.
    fn masked_positions(mask: &[bool], keep: bool) -> Vec<u32> {
        mask.iter()
            .enumerate()
            .filter(|(_, &m)| m == keep)
            .map(|(p, _)| p as u32)
            .collect()
    }

    /// The subset of `self` keeping exactly the identifiers in `keep`
    /// (ids not present in the table are ignored).
    pub fn subset(&self, keep: &HashSet<TupleId>) -> Table {
        // fdlint: allow(D001, "position_mask sets one bit per id: commutative, order cannot reach the gathered table")
        self.subset_ids(keep.iter())
    }

    /// [`Table::subset`] from any id sequence (duplicates are fine) —
    /// the allocation-light path used to materialize repairs: one keep
    /// mask through the dense id index, one gather.
    pub fn subset_ids<'a>(&self, keep: impl IntoIterator<Item = &'a TupleId>) -> Table {
        let mask = self.position_mask(keep);
        self.gather_positions(&Table::masked_positions(&mask, true))
    }

    /// The subset of `self` obtained by deleting the identifiers in `delete`.
    pub fn without(&self, delete: &HashSet<TupleId>) -> Table {
        // fdlint: allow(D001, "position_mask sets one bit per id: commutative, order cannot reach the gathered table")
        let mask = self.position_mask(delete.iter());
        self.gather_positions(&Table::masked_positions(&mask, false))
    }

    /// Selection `σ_{X = key} T`: rows whose projection on `attrs` equals
    /// `key` (values in ascending attribute order).
    pub fn select_eq(&self, attrs: AttrSet, key: &[Value]) -> Table {
        let cols: Vec<usize> = attrs.iter().map(|a| a.usize()).collect();
        if cols.len() != key.len() {
            return self.gather_positions(&[]);
        }
        // Encode the key through the dictionary: a component the
        // dictionary has never seen cannot occur in any row.
        let mut key_syms = Vec::with_capacity(key.len());
        for v in key {
            match self.dict.lookup(v) {
                Some(sym) => key_syms.push(sym),
                None => return self.gather_positions(&[]),
            }
        }
        let positions: Vec<u32> = (0..self.len() as u32)
            .filter(|&pos| {
                cols.iter()
                    .zip(key_syms.iter())
                    .all(|(&c, &k)| self.cols[c][pos as usize] == k)
            })
            .collect();
        self.gather_positions(&positions)
    }

    /// Partitions the table by the projection on `attrs`, returning
    /// `(key, block)` pairs sorted by key (deterministic). Grouping runs
    /// in symbol space; only one key per distinct block is decoded.
    pub fn partition_by(&self, attrs: AttrSet) -> Vec<(Vec<Value>, Table)> {
        let cols: Vec<usize> = attrs.iter().map(|a| a.usize()).collect();
        let mut blocks: Vec<Vec<u32>> = Vec::new();
        if let [col] = cols[..] {
            // Single-attribute partitions (every level of Algorithm 1's
            // recursion) key the map on the symbol itself — no per-row
            // boxing. Tiny tables (component shards, recursion blocks)
            // group by linear scan instead of a hash map: first-occurrence
            // order either way.
            let column = &self.cols[col];
            if column.len() <= 32 {
                let mut keys: Vec<Sym> = Vec::new();
                for (pos, &sym) in column.iter().enumerate() {
                    match keys.iter().position(|&k| k == sym) {
                        Some(b) => blocks[b].push(pos as u32),
                        None => {
                            keys.push(sym);
                            blocks.push(vec![pos as u32]);
                        }
                    }
                }
            } else {
                let mut lookup: HashMap<Sym, u32, FnvBuild> = HashMap::default();
                for (pos, &sym) in column.iter().enumerate() {
                    match lookup.entry(sym) {
                        std::collections::hash_map::Entry::Occupied(e) => {
                            blocks[*e.get() as usize].push(pos as u32);
                        }
                        std::collections::hash_map::Entry::Vacant(e) => {
                            e.insert(blocks.len() as u32);
                            blocks.push(vec![pos as u32]);
                        }
                    }
                }
            }
        } else {
            let mut lookup: HashMap<Box<[Sym]>, u32, FnvBuild> = HashMap::default();
            for pos in 0..self.len() as u32 {
                let key: Box<[Sym]> = cols.iter().map(|&c| self.cols[c][pos as usize]).collect();
                match lookup.entry(key) {
                    std::collections::hash_map::Entry::Occupied(e) => {
                        blocks[*e.get() as usize].push(pos);
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(blocks.len() as u32);
                        blocks.push(vec![pos]);
                    }
                }
            }
        }
        let mut keyed: Vec<(Vec<Value>, Vec<u32>)> = blocks
            .into_iter()
            .map(|positions| {
                let rep = positions[0] as usize;
                let key: Vec<Value> = cols
                    .iter()
                    .map(|&c| self.dict.decode(self.cols[c][rep]))
                    .collect();
                (key, positions)
            })
            .collect();
        keyed.sort_by(|(a, _), (b, _)| a.cmp(b));
        keyed
            .into_iter()
            .map(|(key, positions)| (key, self.gather_positions(&positions)))
            .collect()
    }

    /// The distinct projections `π_X T[∗]`, sorted.
    pub fn distinct_projections(&self, attrs: AttrSet) -> Vec<Vec<Value>> {
        let cols: Vec<usize> = attrs.iter().map(|a| a.usize()).collect();
        let mut seen: HashSet<Box<[Sym]>, FnvBuild> = HashSet::default();
        let mut keys: Vec<Vec<Value>> = Vec::new();
        for pos in 0..self.len() {
            let sym_key: Box<[Sym]> = cols.iter().map(|&c| self.cols[c][pos]).collect();
            if seen.insert(sym_key) {
                keys.push(
                    cols.iter()
                        .map(|&c| self.dict.decode(self.cols[c][pos]))
                        .collect(),
                );
            }
        }
        keys.sort();
        keys
    }

    /// The distinct values of one column, sorted (the column's active domain).
    pub fn column_domain(&self, attr: AttrId) -> Vec<Value> {
        let col = &self.cols[attr.usize()];
        let mut seen: HashSet<Sym, FnvBuild> = HashSet::default();
        let mut vals: Vec<Value> = Vec::new();
        for &sym in col {
            if seen.insert(sym) {
                vals.push(self.dict.decode(sym));
            }
        }
        vals.sort();
        vals
    }

    /// Checks that `other` is a subset of `self` (same schema, nested ids,
    /// identical tuples and weights), then returns
    /// `dist_sub(other, self) = Σ_{i ∈ ids(self) ∖ ids(other)} w(i)`.
    pub fn dist_sub(&self, other: &Table) -> Result<f64> {
        if self.schema != other.schema {
            return Err(Error::SchemaMismatch);
        }
        let mut missing = self.total_weight();
        for q in 0..other.len() {
            let p = self.pos_of(other.ids[q]).ok_or(Error::NotASubset)? as usize;
            if self.weights[p] != other.weights[q] || !self.tuple_eq(p, other, q) {
                return Err(Error::NotASubset);
            }
            missing -= self.weights[p];
        }
        Ok(missing)
    }

    /// Checks that `other` is an update of `self` (same schema, same ids,
    /// same weights), then returns the weighted Hamming distance
    /// `dist_upd(other, self) = Σ_i w(i) · H(self[i], other[i])` (§2.3).
    pub fn dist_upd(&self, other: &Table) -> Result<f64> {
        if self.schema != other.schema {
            return Err(Error::SchemaMismatch);
        }
        if self.len() != other.len() {
            return Err(Error::NotAnUpdate);
        }
        let mut total = 0.0;
        for q in 0..other.len() {
            let p = self.pos_of(other.ids[q]).ok_or(Error::NotAnUpdate)? as usize;
            if self.weights[p] != other.weights[q] {
                return Err(Error::NotAnUpdate);
            }
            let hamming = (0..self.cols.len())
                .filter(|&c| !self.cell_eq(p, other, q, c))
                .count();
            total += self.weights[p] * hamming as f64;
        }
        Ok(total)
    }

    /// True iff cell `c` of the row at `p` equals cell `c` of `other`'s
    /// row at `q`. Symbols decide it when both tables share one
    /// dictionary (symbols are canonical within a dictionary); otherwise
    /// the two cells are decoded.
    fn cell_eq(&self, p: usize, other: &Table, q: usize, c: usize) -> bool {
        let (a, b) = (self.cols[c][p], other.cols[c][q]);
        if Arc::ptr_eq(&self.dict, &other.dict) {
            a == b
        } else {
            self.dict.decode(a) == other.dict.decode(b)
        }
    }

    /// True iff the row at `p` and `other`'s row at `q` carry equal tuples.
    fn tuple_eq(&self, p: usize, other: &Table, q: usize) -> bool {
        (0..self.cols.len()).all(|c| self.cell_eq(p, other, q, c))
    }

    /// Renames every [`Value::Fresh`] constant to a dense
    /// first-appearance numbering (`⊥0`, `⊥1`, … in row/attribute
    /// order). Fresh constants are arbitrary placeholders, so this is a
    /// semantics-preserving renaming — equal cells stay equal, distinct
    /// cells stay distinct — that makes output containing fresh values
    /// deterministic across calls (the global fresh counter otherwise
    /// leaks process history into every serialized repair).
    ///
    /// **Fast path:** a table through which no fresh value has ever
    /// passed (the overwhelmingly common case — every subset repair,
    /// every clean load) returns immediately, without scanning a row.
    /// The check is a conservative flag, so a table that once held a
    /// fresh value still takes the full scan even after the value was
    /// overwritten.
    pub fn canonicalize_fresh(&mut self) {
        if !self.has_fresh {
            return;
        }
        let mut rename: HashMap<u64, u64> = HashMap::new();
        fn remap(value: &Value, rename: &mut HashMap<u64, u64>) -> Option<Value> {
            match value {
                Value::Fresh(tag) => {
                    let next = rename.len() as u64;
                    Some(Value::Fresh(*rename.entry(*tag).or_insert(next)))
                }
                Value::Composite(parts) => {
                    let mapped: Vec<Value> = parts
                        .iter()
                        .map(|p| remap(p, rename).unwrap_or_else(|| p.clone()))
                        .collect();
                    (mapped[..] != parts[..]).then(|| Value::Composite(mapped.into()))
                }
                _ => None,
            }
        }
        // Remap in symbol space: each distinct fresh-containing symbol is
        // rewritten once, then the columns translate through the
        // (old → new) symbol map.
        let mut sym_map: HashMap<Sym, Sym, FnvBuild> = HashMap::default();
        for pos in 0..self.len() {
            for c in 0..self.cols.len() {
                let old = self.cols[c][pos];
                let new = match sym_map.get(&old) {
                    Some(&mapped) => mapped,
                    None => {
                        let mapped = if self.dict.sym_contains_fresh(old) {
                            let value = self.dict.decode(old);
                            let renamed = remap(&value, &mut rename).expect("contains fresh");
                            self.intern(&renamed)
                        } else {
                            old
                        };
                        sym_map.insert(old, mapped);
                        mapped
                    }
                };
                self.cols[c][pos] = new;
            }
        }
    }

    /// The cells on which `other` differs from `self`, as
    /// `(id, attr, old, new)` tuples in row order. Requires an update.
    pub fn changed_cells(&self, other: &Table) -> Result<Vec<(TupleId, AttrId, Value, Value)>> {
        self.dist_upd(other)?; // validates update-ness
        let mut out = Vec::new();
        for (p, &id) in self.ids.iter().enumerate() {
            let q = other.pos_of(id).expect("validated above") as usize;
            for c in 0..self.cols.len() {
                if !self.cell_eq(p, other, q, c) {
                    out.push((
                        id,
                        AttrId::new(c as u16),
                        self.dict.decode(self.cols[c][p]),
                        other.dict.decode(other.cols[c][q]),
                    ));
                }
            }
        }
        Ok(out)
    }
}

impl PartialEq for Table {
    fn eq(&self, other: &Table) -> bool {
        if self.schema != other.schema || self.len() != other.len() {
            return false;
        }
        // Equal sizes and unique ids: every id of `self` found in `other`
        // with an equal row makes the two id sets, and tables, equal.
        self.ids.iter().enumerate().all(|(p, &id)| {
            other.pos_of(id).is_some_and(|q| {
                let q = q as usize;
                self.weights[p] == other.weights[q] && self.tuple_eq(p, other, q)
            })
        })
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let headers: Vec<String> = std::iter::once("id".to_string())
            .chain(self.schema.attr_names().iter().cloned())
            .chain(std::iter::once("w".to_string()))
            .collect();
        let mut cells: Vec<Vec<String>> = vec![headers];
        for row in self.rows() {
            let mut line = vec![row.id.to_string()];
            line.extend(row.tuple.values().iter().map(|v| v.to_string()));
            line.push(format!("{}", row.weight));
            cells.push(line);
        }
        let widths: Vec<usize> = (0..cells[0].len())
            .map(|c| {
                cells
                    .iter()
                    .map(|r| r[c].chars().count())
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        for (i, line) in cells.iter().enumerate() {
            for (c, cell) in line.iter().enumerate() {
                if c > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{cell:<width$}", width = widths[c])?;
            }
            writeln!(f)?;
            if i == 0 {
                writeln!(
                    f,
                    "{}",
                    "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::schema_rabc;
    use crate::tup;

    fn table_abc(rows: Vec<(Tuple, f64)>) -> Table {
        Table::build(schema_rabc(), rows).unwrap()
    }

    #[test]
    fn build_and_inspect() {
        let t = table_abc(vec![
            (tup!["x", 1, 2], 1.0),
            (tup!["x", 1, 2], 2.0),
            (tup!["y", 1, 3], 1.0),
        ]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.total_weight(), 4.0);
        assert!(!t.is_duplicate_free()); // rows 0 and 1 carry the same tuple
        assert!(!t.is_unweighted());
        assert_eq!(t.row(TupleId(2)).unwrap().tuple, tup!["y", 1, 3]);
        assert!(t.row(TupleId(9)).is_err());
    }

    #[test]
    fn push_validation() {
        let mut t = Table::new(schema_rabc());
        assert!(t.push(tup!["x", 1], 1.0).is_err()); // arity
        assert!(t.push(tup!["x", 1, 2], 0.0).is_err()); // weight
        assert!(t.push(tup!["x", 1, 2], -1.0).is_err());
        assert!(t.push(tup!["x", 1, 2], f64::INFINITY).is_err());
        let id = t.push(tup!["x", 1, 2], 1.0).unwrap();
        assert!(t.push_row(id, tup!["y", 1, 2], 1.0).is_err()); // dup id
    }

    /// The decoded `(id, tuple, weight)` view of a table, in row order.
    fn view(t: &Table) -> Vec<(u32, Tuple, f64)> {
        t.rows().map(|r| (r.id.0, r.tuple, r.weight)).collect()
    }

    #[test]
    fn decoded_view_tracks_every_operation() {
        let (a, b) = (AttrId::new(0), AttrId::new(1));
        let big = Value::Int(i64::MAX - 1); // beyond the inline range: spilled
        let pair = Value::pair(Value::str("p"), Value::from(3));
        let mut t = Table::new(schema_rabc());
        // push_row under explicit, non-monotone ids.
        t.push_row(TupleId(7), tup!["12", 12, 1], 1.0).unwrap();
        let row3 = Tuple::new(vec![Value::from(12), big.clone(), pair.clone()]);
        t.push_row(TupleId(3), row3.clone(), 2.0).unwrap();
        // Str("12") and Int(12) are distinct symbols in one column.
        assert_ne!(t.col(a)[0], t.col(a)[1]);
        // push continues above the largest id.
        assert_eq!(t.push(tup!["x", 1, 2], 0.5).unwrap(), TupleId(8));
        let row9 = tup![12, "y", 40];
        assert_eq!(t.push(row9.clone(), 3.0).unwrap(), TupleId(9));
        assert_eq!(
            view(&t),
            vec![
                (7, tup!["12", 12, 1], 1.0),
                (3, row3.clone(), 2.0),
                (8, tup!["x", 1, 2], 0.5),
                (9, row9.clone(), 3.0),
            ]
        );
        assert_eq!(t.row(TupleId(3)).unwrap().tuple, row3);
        assert_eq!(t.ids().collect::<Vec<_>>(), [7, 3, 8, 9].map(TupleId));
        assert_eq!(t.weights(), &[1.0, 2.0, 0.5, 3.0]);

        // delete_row returns the decoded row and shifts later rows down.
        let gone = t.delete_row(TupleId(3)).unwrap();
        assert_eq!((gone.id, gone.tuple, gone.weight), (TupleId(3), row3, 2.0));
        // set_value returns the decoded old cell.
        assert_eq!(
            t.set_value(TupleId(9), b, big.clone()).unwrap(),
            Value::str("y")
        );
        assert_eq!(
            t.set_value(TupleId(7), a, pair.clone()).unwrap(),
            Value::str("12")
        );
        let expect = vec![
            (
                7,
                Tuple::new(vec![pair.clone(), Value::from(12), Value::from(1)]),
                1.0,
            ),
            (8, tup!["x", 1, 2], 0.5),
            (
                9,
                Tuple::new(vec![Value::from(12), big.clone(), Value::from(40)]),
                3.0,
            ),
        ];
        assert_eq!(view(&t), expect);
        assert!(t.row(TupleId(3)).is_err());
        assert_eq!(t.id_at(1), TupleId(8));

        // gather_positions, dense-indexed: a narrow id range.
        for i in 0..60 {
            t.push(tup![i, "12", i], 1.0).unwrap();
        }
        let full = view(&t);
        let dense = t.gather_positions(&[2, 0, 4]);
        assert_eq!(
            view(&dense),
            vec![full[2].clone(), full[0].clone(), full[4].clone()]
        );
        assert_eq!(dense.row(TupleId(7)).unwrap().tuple, expect[0].1);
        // Sparse-indexed: two ids far apart relative to the row count.
        let mut sparse = t.gather_positions(&[0, 62]);
        assert_eq!(view(&sparse), vec![full[0].clone(), full[62].clone()]);
        assert_eq!(sparse.row(TupleId(69)).unwrap().weight, 1.0);
        assert!(sparse.row(TupleId(8)).is_err());
        // Edits on a sparse gather keep its decoded view in step.
        sparse
            .push_row(TupleId(40), tup!["late", 0, 0], 2.0)
            .unwrap();
        sparse.delete_row(TupleId(7)).unwrap();
        sparse.set_value(TupleId(69), b, Value::from(12)).unwrap();
        assert_eq!(
            view(&sparse),
            vec![(69, tup![59, 12, 59], 1.0), (40, tup!["late", 0, 0], 2.0),]
        );
        assert_eq!(sparse.row(TupleId(40)).unwrap().tuple, tup!["late", 0, 0]);
    }

    #[test]
    fn canonicalize_fresh_rewrites_the_decoded_view() {
        use crate::value::FreshSource;
        let mut src = FreshSource::new();
        let (f1, f2) = (src.next(), src.next());
        let mut t = Table::new(schema_rabc());
        let inner = Value::pair(f1.clone(), Value::str("q"));
        t.push(Tuple::new(vec![f2.clone(), Value::from(1), inner]), 1.0)
            .unwrap();
        t.push(Tuple::new(vec![f1, f2, Value::from(5)]), 2.0)
            .unwrap();
        t.canonicalize_fresh();
        // First appearance in row/attribute order: f2 → ⊥0, f1 → ⊥1,
        // including inside the composite.
        let (z, o) = (Value::Fresh(0), Value::Fresh(1));
        assert_eq!(
            view(&t),
            vec![
                (
                    0,
                    Tuple::new(vec![
                        z.clone(),
                        Value::from(1),
                        Value::pair(o.clone(), Value::str("q"))
                    ]),
                    1.0
                ),
                (1, Tuple::new(vec![o, z, Value::from(5)]), 2.0),
            ]
        );
    }

    #[test]
    fn explicit_ids_index_correctly() {
        let s = schema_rabc();
        let mut t = Table::new(s);
        t.push_row(TupleId(7), tup!["x", 1, 2], 1.0).unwrap();
        t.push_row(TupleId(3), tup!["y", 1, 2], 1.0).unwrap();
        t.push_row(TupleId(11), tup!["z", 1, 2], 1.0).unwrap();
        assert_eq!(t.row(TupleId(3)).unwrap().tuple, tup!["y", 1, 2]);
        assert_eq!(t.row(TupleId(7)).unwrap().tuple, tup!["x", 1, 2]);
        assert!(t.row(TupleId(0)).is_err());
        assert!(t.row(TupleId(12)).is_err());
        // Auto ids continue above the maximum explicit id.
        let id = t.push(tup!["w", 1, 2], 1.0).unwrap();
        assert_eq!(id, TupleId(12));
    }

    #[test]
    fn fd_satisfaction() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        let good = table_abc(vec![(tup!["x", 1, 2], 1.0), (tup!["x", 1, 3], 1.0)]);
        assert!(good.satisfies(&fds));
        let bad = table_abc(vec![(tup!["x", 1, 2], 1.0), (tup!["x", 2, 2], 1.0)]);
        assert!(!bad.satisfies(&fds));
        let (i, j, fd) = bad.violating_pair(&fds).unwrap();
        assert_eq!((i, j), (TupleId(0), TupleId(1)));
        assert_eq!(fd, *fds.iter().next().unwrap());
    }

    #[test]
    fn consensus_fd_satisfaction() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "-> C").unwrap();
        let good = table_abc(vec![(tup!["x", 1, 2], 1.0), (tup!["y", 2, 2], 1.0)]);
        assert!(good.satisfies(&fds));
        let bad = table_abc(vec![(tup!["x", 1, 2], 1.0), (tup!["y", 2, 3], 1.0)]);
        assert!(!bad.satisfies(&fds));
    }

    #[test]
    fn conflicting_pairs_enumeration() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B; B -> C").unwrap();
        // Rows 0/1 conflict on A→B; rows 0/2 conflict on B→C.
        let t = table_abc(vec![
            (tup!["x", 1, 2], 1.0),
            (tup!["x", 2, 2], 1.0),
            (tup!["z", 1, 9], 1.0),
        ]);
        let pairs = t.conflicting_pairs(&fds);
        assert_eq!(
            pairs,
            vec![(TupleId(0), TupleId(1)), (TupleId(0), TupleId(2))]
        );
    }

    #[test]
    fn duplicates_never_conflict() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B C").unwrap();
        let t = table_abc(vec![(tup!["x", 1, 2], 1.0), (tup!["x", 1, 2], 3.0)]);
        assert!(t.satisfies(&fds));
        assert!(t.conflicting_pairs(&fds).is_empty());
    }

    #[test]
    fn subset_and_dist_sub() {
        let t = table_abc(vec![
            (tup!["x", 1, 2], 2.0),
            (tup!["x", 2, 2], 1.0),
            (tup!["y", 1, 3], 1.5),
        ]);
        let keep: HashSet<TupleId> = [TupleId(0), TupleId(2)].into_iter().collect();
        let s = t.subset(&keep);
        assert_eq!(s.len(), 2);
        assert_eq!(t.dist_sub(&s).unwrap(), 1.0);
        assert_eq!(t.dist_sub(&t).unwrap(), 0.0);
        // A table with a mutated tuple is not a subset.
        let mut fake = s.clone();
        fake.set_value(TupleId(0), AttrId::new(1), Value::from(9))
            .unwrap();
        assert!(t.dist_sub(&fake).is_err());
    }

    #[test]
    fn update_and_dist_upd() {
        let t = table_abc(vec![(tup!["x", 1, 2], 2.0), (tup!["y", 1, 3], 1.0)]);
        let mut u = t.clone();
        u.set_value(TupleId(0), AttrId::new(0), Value::str("z"))
            .unwrap();
        u.set_value(TupleId(0), AttrId::new(2), Value::from(9))
            .unwrap();
        u.set_value(TupleId(1), AttrId::new(2), Value::from(9))
            .unwrap();
        // Tuple 0 changed 2 cells at weight 2, tuple 1 changed 1 at weight 1.
        assert_eq!(t.dist_upd(&u).unwrap(), 5.0);
        let changed = t.changed_cells(&u).unwrap();
        assert_eq!(changed.len(), 3);
        assert_eq!(changed[0].0, TupleId(0));
        // A subset is not an update.
        let keep: HashSet<TupleId> = [TupleId(0)].into_iter().collect();
        assert!(t.dist_upd(&t.subset(&keep)).is_err());
    }

    #[test]
    fn partitioning() {
        let s = schema_rabc();
        let t = table_abc(vec![
            (tup!["x", 1, 2], 1.0),
            (tup!["y", 2, 2], 1.0),
            (tup!["x", 3, 3], 1.0),
        ]);
        let a = AttrSet::singleton(s.attr("A").unwrap());
        let parts = t.partition_by(a);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].0, vec![Value::str("x")]);
        assert_eq!(parts[0].1.len(), 2);
        assert_eq!(parts[1].0, vec![Value::str("y")]);
        let sel = t.select_eq(a, &[Value::str("x")]);
        assert_eq!(sel, parts[0].1);
        // Partition by ∅ yields a single block.
        assert_eq!(t.partition_by(AttrSet::EMPTY).len(), 1);
    }

    #[test]
    fn select_eq_on_unseen_values_is_empty() {
        let s = schema_rabc();
        let t = table_abc(vec![(tup!["x", 1, 2], 1.0)]);
        let a = AttrSet::singleton(s.attr("A").unwrap());
        assert!(t.select_eq(a, &[Value::str("unseen")]).is_empty());
        assert!(t.select_eq(a, &[Value::from(123456)]).is_empty());
        assert!(t.select_eq(a, &[]).is_empty()); // arity mismatch
    }

    #[test]
    fn column_domain_sorted_dedup() {
        let s = schema_rabc();
        let t = table_abc(vec![
            (tup!["x", 3, 2], 1.0),
            (tup!["y", 1, 2], 1.0),
            (tup!["z", 3, 2], 1.0),
        ]);
        assert_eq!(
            t.column_domain(s.attr("B").unwrap()),
            vec![Value::from(1), Value::from(3)]
        );
    }

    #[test]
    fn equality_ignores_row_order() {
        let s = schema_rabc();
        let mut a = Table::new(s.clone());
        a.push_row(TupleId(0), tup!["x", 1, 2], 1.0).unwrap();
        a.push_row(TupleId(1), tup!["y", 1, 2], 1.0).unwrap();
        let mut b = Table::new(s);
        b.push_row(TupleId(1), tup!["y", 1, 2], 1.0).unwrap();
        b.push_row(TupleId(0), tup!["x", 1, 2], 1.0).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn display_renders() {
        let t = table_abc(vec![(tup!["x", 1, 2], 1.0)]);
        let shown = t.to_string();
        assert!(shown.contains("id"));
        assert!(shown.contains('x'));
    }

    #[test]
    fn canonicalize_fresh_renumbers_and_fast_paths() {
        use crate::value::FreshSource;
        let mut src = FreshSource::new();
        let (f1, f2) = (src.next(), src.next());
        let s = schema_rabc();
        let mut t = Table::build_unweighted(
            s,
            vec![
                Tuple::new(vec![f2.clone(), Value::from(1), f2.clone()]),
                Tuple::new(vec![f1.clone(), Value::from(1), Value::str("keep")]),
            ],
        )
        .unwrap();
        t.canonicalize_fresh();
        // First-appearance order: f2 → ⊥0, f1 → ⊥1; equal cells stay equal.
        let r0 = t.row(TupleId(0)).unwrap();
        assert_eq!(r0.tuple.values()[0], Value::Fresh(0));
        assert_eq!(r0.tuple.values()[2], Value::Fresh(0));
        assert_eq!(
            t.row(TupleId(1)).unwrap().tuple.values()[0],
            Value::Fresh(1)
        );
        // Columns stay in step with the renamed rows.
        let a = AttrId::new(0);
        assert_eq!(t.dictionary().decode(t.col(a)[0]), Value::Fresh(0));
        // A fresh-free table is untouched (the fast path).
        let mut clean = Table::build_unweighted(schema_rabc(), vec![tup!["x", 1, 2]]).unwrap();
        let before = clean.clone();
        clean.canonicalize_fresh();
        assert_eq!(clean, before);
    }
}
