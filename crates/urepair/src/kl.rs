//! A reconstruction of the Kolahi–Lakshmanan update-repair approximation
//! (the Theorem 4.13 comparator).
//!
//! The paper cites KL's ICDT'09 algorithm but does not restate it; this
//! module rebuilds a baseline with the structure their ratio analysis
//! implies (see DESIGN.md "Substitutions"):
//!
//! 1. consensus attributes are repaired optimally first (Theorem 4.3);
//! 2. a 2-approximate vertex cover of the conflict graph picks the tuples
//!    to modify; the remaining tuples form a consistent core;
//! 3. each picked tuple is re-admitted one at a time: right-hand sides
//!    forced by agreement with the current core are *equalized* to the
//!    forced value; when two forced values clash (or equalization loops),
//!    the tuple instead *breaks* the offending agreements by writing fresh
//!    constants over a minimum core implicant of the contested attribute,
//!    after which nothing can force that attribute again;
//! 4. as a terminating fallback, the tuple's minimum-lhs-cover cells are
//!    freshened, which disconnects it from every FD.
//!
//! The experiments of §4.4 compare the *proved ratio formulas* — computed
//! exactly in [`crate::bounds`] — and additionally report the realized
//! cost of this reconstruction.
//!
//! Step 2's conflict graph is read off a [`ConflictIndex`]: inside the
//! update solver, the plan's index of the component, so KL scans the
//! table only for a component with a wider rhs. Steps 2–4 run under the
//! `urepair/kl` span.

use crate::decompose::consensus_first;
use crate::repair::{URepair, UpdateWriter};
use fd_core::{
    min_core_implicant, min_lhs_cover, AttrId, ConflictIndex, FdSet, FreshSource, Table, Tuple,
    Value,
};
use fd_graph::{vertex_cover_2approx, ConflictGraph};
use std::collections::{HashMap, HashSet};

/// Computes a U-repair with the reconstructed Kolahi–Lakshmanan strategy.
/// Polynomial time; the realized cost is reported, the proved worst-case
/// ratio is [`crate::ratio_kl`].
pub fn kl_u_repair(table: &Table, fds: &FdSet) -> URepair {
    // Step 1: consensus attributes (Theorem 4.3).
    let (consensus, _, working, rest) = consensus_first(table, fds);
    let index = ConflictIndex::build(&working, &rest);
    let result = kl_component(table, consensus, &working, &rest, index);
    debug_assert!(
        result.apply(table).satisfies(fds),
        "KL reconstruction must be consistent"
    );
    result
}

/// Steps 2–4 on `working`, the consensus-repaired `table`, under `comp`,
/// consensus-free, whose `index` it is (in the update solver, the plan's
/// index of a component). KL reads single-rhs FDs, so a wider rhs is
/// indexed again under the split FDs. The index is freed once the cover
/// is read: the decoded core is the larger peak.
pub(crate) fn kl_component(
    table: &Table,
    consensus: URepair,
    working: &Table,
    comp: &FdSet,
    index: ConflictIndex,
) -> URepair {
    let fds = &comp.normalize_single_rhs();
    let index = if fds == comp {
        index
    } else {
        drop(index);
        ConflictIndex::build(working, fds)
    };
    let mut sp = fd_trace::span("urepair/kl");
    sp.attr("rows", working.len());
    // Step 2: pick the tuples to modify.
    let rows: Vec<u32> = (0..working.len() as u32).collect();
    let picked = vertex_cover_2approx(&ConflictGraph::of_rows(working, &index, &rows).graph).nodes;
    drop(index);
    sp.attr("picked", picked.len());

    // The consistent core: tuples outside the cover.
    let (mut order, outside): (Vec<_>, Vec<_>) = working
        .rows()
        .enumerate()
        .partition(|(pos, _)| picked.binary_search(&(*pos as u32)).is_ok());
    let mut core = Core::new(fds);
    for (_, row) in outside {
        core.push(row.tuple);
    }

    // Step 3: re-admit picked tuples one at a time, heaviest first (a
    // heavier tuple has more to lose from extra cell changes).
    order.sort_by(|(_, a), (_, b)| b.weight.partial_cmp(&a.weight).expect("finite"));

    // One update of the input: the consensus cells, then the re-admitted
    // tuples' cells on the (disjoint) rest attributes.
    let mut writer = UpdateWriter::new(table);
    for (id, attr, value) in consensus.cells {
        writer.set(table.position_of(id).expect("id from table"), attr, value);
    }
    let mut fresh = FreshSource::new();
    for (pos, row) in order {
        let repaired = repair_one(&row.tuple, &core, fds, &mut fresh);
        for attr in row.tuple.disagreement(&repaired).iter() {
            writer.set(pos, attr, repaired.get(attr).clone());
        }
        core.push(repaired);
    }

    let result = writer.finish();
    sp.attr("cells", result.cells.len());
    result
}

/// The consistent core of re-admitted and untouched tuples, indexed per
/// FD from lhs projection to the first core tuple of that lhs group.
///
/// Every tuple joins consistent with the core (`repair_one` ends in the
/// lhs-cover fallback), so all core tuples of one lhs group carry the
/// same rhs: the first of them violates an FD against a probe exactly
/// when any does, and is the witness an in-order scan of the core would
/// find first. Lookups cost one hash per FD instead of a pass over the
/// core.
struct Core<'a> {
    fds: &'a FdSet,
    tuples: Vec<Tuple>,
    first: Vec<HashMap<Vec<Value>, usize>>,
}

impl<'a> Core<'a> {
    fn new(fds: &'a FdSet) -> Core<'a> {
        Core {
            fds,
            tuples: Vec::new(),
            first: vec![HashMap::new(); fds.len()],
        }
    }

    fn push(&mut self, tuple: Tuple) {
        let at = self.tuples.len();
        for (fd, index) in self.fds.iter().zip(&mut self.first) {
            index.entry(tuple.project(fd.lhs())).or_insert(at);
        }
        self.tuples.push(tuple);
    }

    /// The first FD (in `Δ` order) that `t` violates against the core,
    /// with the first core tuple witnessing it.
    fn first_violation(&self, t: &Tuple) -> Option<(fd_core::Fd, &Tuple)> {
        for (fd, index) in self.fds.iter().zip(&self.first) {
            if let Some(&at) = index.get(&t.project(fd.lhs())) {
                let other = &self.tuples[at];
                if !t.agrees_on(other, fd.rhs()) {
                    return Some((*fd, other));
                }
            }
        }
        None
    }
}

/// Repairs one tuple against a consistent core; returns the new tuple.
fn repair_one(tuple: &Tuple, core: &Core, fds: &FdSet, fresh: &mut FreshSource) -> Tuple {
    let mut t = tuple.clone();
    // Attributes already forced to a value by equalization, and attributes
    // neutralized by a fresh core-implicant break.
    let mut equalized: HashMap<AttrId, Value> = HashMap::new();
    let mut broken: HashSet<AttrId> = HashSet::new();
    let max_iters = (t.arity() * (fds.len() + 1) * 4).max(16);
    for _ in 0..max_iters {
        let Some((fd, other)) = core.first_violation(&t) else {
            return t; // consistent with the core
        };
        let a = fd.rhs().single().expect("normalized single-rhs FDs");
        let forced = other.get(a).clone();
        let clash = equalized.get(&a).is_some_and(|v| *v != forced);
        if !clash && !broken.contains(&a) {
            t.set(a, forced.clone());
            equalized.insert(a, forced);
        } else {
            // Break every agreement that could force `a`: freshen a
            // minimum core implicant of `a`.
            let ci =
                min_core_implicant(fds, a).expect("consensus attributes were stripped in step 1");
            for b in ci.iter() {
                t.set(b, fresh.next());
                equalized.remove(&b);
                broken.insert(b);
            }
            broken.insert(a);
            // `a` is now unconstrained; give it back its original value if
            // it had been equalized (avoids a pointless change).
            if equalized.remove(&a).is_some() {
                t.set(a, tuple.get(a).clone());
            }
        }
    }
    // Fallback: disconnect the tuple from every lhs.
    let cover = min_lhs_cover(fds).expect("consensus-free after stripping");
    for b in cover.iter() {
        t.set(b, fresh.next());
    }
    debug_assert!(core.first_violation(&t).is_none());
    t
}

/// The reference [`Core::first_violation`] replaces: an in-order scan of
/// the whole core for every FD.
#[cfg(test)]
fn first_violation_scan<'a>(
    t: &Tuple,
    core: &'a [Tuple],
    fds: &FdSet,
) -> Option<(fd_core::Fd, &'a Tuple)> {
    for fd in fds.iter() {
        for other in core {
            if t.agrees_on(other, fd.lhs()) && !t.agrees_on(other, fd.rhs()) {
                return Some((*fd, other));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::ratio_kl;
    use crate::exact::{exact_u_repair, ExactConfig};
    use fd_core::{schema_rabc, tup, Schema};
    use rand::prelude::*;

    #[test]
    fn produces_consistent_updates_on_random_instances() {
        let s = schema_rabc();
        let specs = [
            "A -> B",
            "A -> B; B -> C",
            "A -> C; B -> C",
            "A B -> C; C -> B",
            "A -> B; B -> A; B -> C",
            "-> C; A -> B",
        ];
        let mut rng = StdRng::seed_from_u64(23);
        for spec in specs {
            let fds = FdSet::parse(&s, spec).unwrap();
            for _ in 0..10 {
                let n = rng.gen_range(2..10);
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
                let t = Table::build(s.clone(), rows).unwrap();
                let r = kl_u_repair(&t, &fds);
                r.verify(&t, &fds);
            }
        }
    }

    #[test]
    fn within_proved_ratio_on_small_instances() {
        let s = schema_rabc();
        let specs = ["A -> B; B -> C", "A -> C; B -> C"];
        let mut rng = StdRng::seed_from_u64(29);
        for spec in specs {
            let fds = FdSet::parse(&s, spec).unwrap();
            let bound = ratio_kl(&fds);
            for _ in 0..6 {
                let n = rng.gen_range(2..6);
                let rows = (0..n).map(|_| {
                    (
                        tup![
                            rng.gen_range(0..2i64),
                            rng.gen_range(0..2i64),
                            rng.gen_range(0..2i64)
                        ],
                        1.0,
                    )
                });
                let t = Table::build(s.clone(), rows).unwrap();
                let kl = kl_u_repair(&t, &fds);
                let exact = exact_u_repair(&t, &fds, &ExactConfig::default());
                assert!(
                    kl.cost <= bound * exact.cost + 1e-9,
                    "{spec}: kl={} bound={} exact={}\n{t}",
                    kl.cost,
                    bound,
                    exact.cost
                );
            }
        }
    }

    #[test]
    fn consistent_input_is_untouched() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B C").unwrap();
        let t = Table::build_unweighted(s, vec![tup![1, 1, 1], tup![2, 2, 2]]).unwrap();
        assert_eq!(kl_u_repair(&t, &fds).cost, 0.0);
    }

    #[test]
    fn equalization_is_cheap_on_simple_violations() {
        // One A-group, B disagreement: equalizing one rhs cell suffices.
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        let t =
            Table::build_unweighted(s, vec![tup![1, 7, 0], tup![1, 7, 1], tup![1, 8, 2]]).unwrap();
        let r = kl_u_repair(&t, &fds);
        r.verify(&t, &fds);
        assert_eq!(r.cost, 1.0);
    }

    #[test]
    fn handles_wide_schema_families() {
        // Δ'_2 = {A0A1→B0, A1A2→B1, A2A3→B2}.
        let s = Schema::new("R", ["A0", "A1", "A2", "A3", "B0", "B1", "B2"]).unwrap();
        let fds = FdSet::parse(&s, "A0 A1 -> B0; A1 A2 -> B1; A2 A3 -> B2").unwrap();
        let t = Table::build_unweighted(
            s,
            vec![
                tup![0, 0, 0, 0, 1, 1, 1],
                tup![0, 0, 0, 0, 2, 2, 2],
                tup![0, 0, 1, 1, 3, 3, 3],
            ],
        )
        .unwrap();
        let r = kl_u_repair(&t, &fds);
        r.verify(&t, &fds);
        assert!(r.cost > 0.0);
    }

    #[test]
    fn indexed_core_finds_the_violation_the_scan_finds() {
        // Random consistent cores (a tuple joins only when the scan finds
        // no violation against the core so far, as in `kl_u_repair`),
        // probed with random tuples: the index must name the same FD and
        // the same witness (by position) as the in-order scan.
        let s = schema_rabc();
        let mut rng = StdRng::seed_from_u64(0x6b1);
        for spec in [
            "A -> B",
            "A -> B; B -> C",
            "A -> C; B -> C",
            "A B -> C; C -> B",
        ] {
            let fds = FdSet::parse(&s, spec).unwrap().normalize_single_rhs();
            for _ in 0..40 {
                let mut core = Core::new(&fds);
                for _ in 0..60 {
                    let t = tup![
                        rng.gen_range(0..4i64),
                        rng.gen_range(0..4i64),
                        rng.gen_range(0..4i64)
                    ];
                    let scanned = first_violation_scan(&t, &core.tuples, &fds);
                    let indexed = core.first_violation(&t);
                    let position = |hit: Option<(fd_core::Fd, &Tuple)>| {
                        hit.map(|(fd, w)| {
                            let at = core.tuples.iter().position(|c| std::ptr::eq(c, w));
                            (fd, at)
                        })
                    };
                    assert_eq!(position(indexed), position(scanned), "{spec}: {t:?}");
                    if scanned.is_none() {
                        core.push(t);
                    }
                }
            }
        }
    }
}
