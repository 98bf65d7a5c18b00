//! Seeded property test of the update writer's invariants, over every
//! §4 constructor and both mixed repairs: on random tables and random
//! `Δ`, each repair's cells are sorted by row and then attribute, name
//! each cell at most once, never hold the input's value, and applied to
//! the input give a table that satisfies `Δ`. Where a constructor
//! measures its own update (every one except the compositions of
//! Theorem 4.1 and the mixed repairs' operation costs), `dist_upd` of
//! the applied table reproduces the recorded cost bit for bit.

use fd_core::{schema_rabc, AttrSet, Fd, FdSet, Table, TupleId, Value};
use fd_srepair::exact_s_repair;
use fd_urepair::{
    approx_mixed_repair, approx_u_repair, consensus_u_repair, exact_mixed_repair, exact_u_repair,
    kl_u_repair, make_minimal, subset_to_update, two_cycle_u_repair, update_to_subset, ExactConfig,
    MixedCosts, URepair, URepairSolver,
};
use rand::prelude::*;

/// Weights that are not dyadic, so a cost summed in another order than
/// `dist_upd`'s changes its bits.
const WEIGHTS: [f64; 5] = [1.0, 0.1, 0.7, 2.5, 0.3];

fn random_table(rng: &mut StdRng, rows: usize) -> Table {
    let rows = (0..rows).map(|_| {
        let tuple = fd_core::tup![
            rng.gen_range(0..3i64),
            rng.gen_range(0..3i64),
            rng.gen_range(0..3i64)
        ];
        (tuple, WEIGHTS[rng.gen_range(0..WEIGHTS.len())])
    });
    Table::build(schema_rabc(), rows).unwrap()
}

/// One to three single-rhs FDs over `R(A, B, C)`; an empty lhs makes a
/// consensus FD.
fn random_fds(rng: &mut StdRng) -> FdSet {
    let names = ["A", "B", "C"];
    let specs: Vec<String> = (0..rng.gen_range(1..=3))
        .map(|_| {
            let rhs = rng.gen_range(0..3usize);
            let lhs: Vec<&str> = (0..3)
                .filter(|&a| a != rhs && rng.gen_range(0..2) == 0)
                .map(|a| names[a])
                .collect();
            format!("{} -> {}", lhs.join(" "), names[rhs])
        })
        .collect();
    FdSet::parse(&schema_rabc(), &specs.join("; ")).unwrap()
}

/// The writer's invariants for `cells` over `base`.
fn check_cells(what: &str, base: &Table, cells: &[(TupleId, fd_core::AttrId, Value)]) {
    let keys: Vec<(usize, fd_core::AttrId)> = cells
        .iter()
        .map(|(id, attr, _)| (base.position_of(*id).expect("cell names a row"), *attr))
        .collect();
    assert!(
        keys.windows(2).all(|w| w[0] < w[1]),
        "{what}: cells not strictly in row/attribute order: {cells:?}"
    );
    for ((pos, attr), (_, _, value)) in keys.iter().zip(cells) {
        let old = base.dictionary().decode(base.col(*attr)[*pos]);
        assert_ne!(&old, value, "{what}: a cell holds its base value");
    }
}

/// Checks one update of `base` against `fds`; `measured` asks for the
/// bit-exact `dist_upd` equality.
fn check(what: &str, base: &Table, fds: &FdSet, repair: &URepair, measured: bool) {
    check_cells(what, base, &repair.cells);
    let applied = repair.apply(base);
    assert!(applied.satisfies(fds), "{what}: applied update violates Δ");
    let dist = base.dist_upd(&applied).unwrap();
    if measured {
        assert_eq!(
            dist.to_bits(),
            repair.cost.to_bits(),
            "{what}: cost {} is not dist_upd {dist}",
            repair.cost
        );
    } else {
        assert!((dist - repair.cost).abs() < 1e-9, "{what}: cost drifted");
    }
}

#[test]
fn every_update_constructor_keeps_the_writer_invariants() {
    let mut rng = StdRng::seed_from_u64(0x5e11);
    let two_cycle = FdSet::parse(&schema_rabc(), "A -> B; B -> A").unwrap();
    for case in 0..200 {
        let small = case % 2 == 0;
        let rows = if small {
            rng.gen_range(1..=4)
        } else {
            rng.gen_range(6..=40)
        };
        let t = random_table(&mut rng, rows);
        let fds = random_fds(&mut rng);
        let what = |solver: &str| format!("case {case} {solver} {}\n{t}", fds.display(t.schema()));

        let consensus = fds.consensus_attrs();
        if !consensus.is_empty() {
            let only = FdSet::new([Fd::new(AttrSet::EMPTY, consensus)]);
            let r = consensus_u_repair(&t, consensus);
            check(&what("consensus"), &t, &only, &r, true);
        }
        if fds.is_consensus_free() {
            let sr = exact_s_repair(&t, &fds);
            let r = subset_to_update(&t, &sr, &fds);
            check(&what("subset_to_update"), &t, &fds, &r, true);
            assert_eq!(update_to_subset(&t, &r).kept, sr.kept);
        }
        let r = two_cycle_u_repair(&t, &two_cycle);
        check(&what("two_cycle"), &t, &two_cycle, &r, true);

        let kl = kl_u_repair(&t, &fds);
        check(&what("kl"), &t, &fds, &kl, true);
        let minimal = make_minimal(&t, &fds, &kl);
        check(&what("make_minimal"), &t, &fds, &minimal, true);
        let approx = approx_u_repair(&t, &fds).repair;
        check(&what("approx"), &t, &fds, &approx, false);
        let solved = URepairSolver::default().solve(&t, &fds).repair;
        check(&what("solver"), &t, &fds, &solved, false);

        let costs = MixedCosts::new(WEIGHTS[case % WEIGHTS.len()] + 1.0, 1.0);
        let mut mixed = vec![("approx_mixed", approx_mixed_repair(&t, &fds, costs))];
        if small {
            let exact = exact_u_repair(&t, &fds, &ExactConfig::default());
            check(&what("exact"), &t, &fds, &exact, true);
            let cfg = ExactConfig::default();
            mixed.push(("exact_mixed", exact_mixed_repair(&t, &fds, costs, &cfg)));
        }
        for (name, m) in mixed {
            check_cells(&what(name), &t, &m.cells);
            assert!(
                m.cells.iter().all(|(id, _, _)| !m.deleted.contains(id)),
                "{}: a deleted tuple has a changed cell",
                what(name)
            );
            m.verify(&t, &fds, costs);
        }
    }
}
