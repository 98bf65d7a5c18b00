//! Property-based tests (proptest) of the core invariants: closure laws,
//! distance laws, matching optimality, vertex-cover guarantees, and
//! repair-level soundness on arbitrary small instances.

use fd_repairs::graph::{brute_force_matching, brute_force_vertex_cover};
use fd_repairs::prelude::*;
use fd_repairs::srepair::brute_force_s_repair;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Generators.
// ---------------------------------------------------------------------

fn arb_attrset(arity: u16) -> impl Strategy<Value = AttrSet> {
    prop::collection::vec(0..arity, 0..=arity as usize)
        .prop_map(|ids| ids.into_iter().map(AttrId::new).collect())
}

fn arb_fdset(arity: u16, max_fds: usize) -> impl Strategy<Value = FdSet> {
    prop::collection::vec(
        (arb_attrset(arity), arb_attrset(arity)).prop_filter_map("nonempty rhs", |(lhs, rhs)| {
            (!rhs.is_empty()).then_some(Fd::new(lhs, rhs))
        }),
        0..=max_fds,
    )
    .prop_map(FdSet::new)
}

/// Small random tables over R(A, B, C) with values in 0..3 and weights in
/// {1, 2, 3}.
fn arb_table(max_rows: usize) -> impl Strategy<Value = Table> {
    prop::collection::vec(((0..3i64, 0..3i64, 0..3i64), 1..4i64), 0..=max_rows).prop_map(|rows| {
        Table::build(
            schema_rabc(),
            rows.into_iter()
                .map(|((a, b, c), w)| (tup![a, b, c], w as f64)),
        )
        .expect("valid rows")
    })
}

fn arb_edges(n: u16, max_edges: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0..n as u32, 0..n as u32), 0..=max_edges).prop_map(|pairs| {
        pairs
            .into_iter()
            .filter(|(u, v)| u != v)
            .map(|(u, v)| (u.min(v), u.max(v)))
            .collect()
    })
}

// ---------------------------------------------------------------------
// Closure laws.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn closure_is_extensive_monotone_idempotent(
        fds in arb_fdset(5, 5),
        x in arb_attrset(5),
        y in arb_attrset(5),
    ) {
        let cx = fds.closure_of(x);
        // Extensive.
        prop_assert!(x.is_subset(cx));
        // Idempotent.
        prop_assert_eq!(fds.closure_of(cx), cx);
        // Monotone.
        if x.is_subset(y) {
            prop_assert!(cx.is_subset(fds.closure_of(y)));
        }
    }

    #[test]
    fn minus_removes_all_mentions(fds in arb_fdset(5, 5), x in arb_attrset(5)) {
        let reduced = fds.minus(x);
        prop_assert!(reduced.attrs().is_disjoint(x));
    }

    #[test]
    fn normalize_single_rhs_is_equivalent(fds in arb_fdset(5, 5)) {
        let norm = fds.normalize_single_rhs();
        prop_assert!(norm.equivalent(&fds.remove_trivial()));
        for fd in norm.iter() {
            prop_assert_eq!(fd.rhs().len(), 1);
        }
    }

    #[test]
    fn minimal_cover_is_equivalent(fds in arb_fdset(4, 4)) {
        prop_assert!(fds.minimal_cover().equivalent(&fds));
    }

    #[test]
    fn satisfaction_respects_equivalence(fds in arb_fdset(3, 3), table in arb_table(6)) {
        let cover = fds.minimal_cover();
        prop_assert_eq!(table.satisfies(&fds), table.satisfies(&cover));
    }
}

// ---------------------------------------------------------------------
// Distances.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn dist_sub_bounds(table in arb_table(8), mask in any::<u16>()) {
        let keep: std::collections::HashSet<TupleId> = table
            .ids()
            .enumerate()
            .filter(|(i, _)| mask & (1 << (i % 16)) != 0)
            .map(|(_, id)| id)
            .collect();
        let sub = table.subset(&keep);
        let d = table.dist_sub(&sub).unwrap();
        prop_assert!(d >= 0.0);
        prop_assert!(d <= table.total_weight() + 1e-9);
        prop_assert!((table.dist_sub(&table).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn conflicting_pairs_characterize_satisfaction(
        fds in arb_fdset(3, 3),
        table in arb_table(7),
    ) {
        let pairs = table.conflicting_pairs(&fds);
        prop_assert_eq!(pairs.is_empty(), table.satisfies(&fds));
        // Each reported pair really is jointly inconsistent.
        for (i, j) in pairs {
            let keep: std::collections::HashSet<TupleId> = [i, j].into_iter().collect();
            prop_assert!(!table.subset(&keep).satisfies(&fds));
        }
    }
}

// ---------------------------------------------------------------------
// Graph substrate.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hungarian_matches_brute_force(
        edges in prop::collection::vec((0..5u32, 0..5u32, 1..10i64), 0..10),
    ) {
        let edges: Vec<(u32, u32, f64)> =
            edges.into_iter().map(|(l, r, w)| (l, r, w as f64)).collect();
        let fast = max_weight_bipartite_matching(5, 5, &edges);
        let slow = brute_force_matching(&edges);
        prop_assert!((fast.total_weight - slow).abs() < 1e-9,
            "hungarian {} vs brute {}", fast.total_weight, slow);
    }

    #[test]
    fn vertex_cover_exact_and_approx(edges in arb_edges(8, 14), seed in any::<u64>()) {
        let mut g = Graph::new((0..8).map(|i| ((seed >> (i * 4)) & 7) as f64 + 1.0).collect());
        for (u, v) in edges {
            g.add_edge(u, v);
        }
        let exact = min_weight_vertex_cover(&g);
        let brute = brute_force_vertex_cover(&g);
        prop_assert!((exact.weight - brute.weight).abs() < 1e-9);
        prop_assert!(g.is_vertex_cover(&exact.nodes));
        let approx = vertex_cover_2approx(&g);
        prop_assert!(g.is_vertex_cover(&approx.nodes));
        prop_assert!(approx.weight <= 2.0 * exact.weight + 1e-9);
    }
}

// ---------------------------------------------------------------------
// Repairs.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn exact_s_repair_is_sound_and_optimal(fds in arb_fdset(3, 3), table in arb_table(7)) {
        let exact = exact_s_repair(&table, &fds);
        exact.verify(&table, &fds);
        let brute = brute_force_s_repair(&table, &fds);
        prop_assert!((exact.cost - brute.cost).abs() < 1e-9);
    }

    #[test]
    fn algorithm_1_agrees_with_exact_when_it_succeeds(
        fds in arb_fdset(3, 3),
        table in arb_table(7),
    ) {
        if let Ok(repair) = opt_s_repair(&table, &fds) {
            repair.verify(&table, &fds);
            let exact = exact_s_repair(&table, &fds);
            prop_assert!((repair.cost - exact.cost).abs() < 1e-9,
                "alg1 {} vs exact {}", repair.cost, exact.cost);
        }
    }

    #[test]
    fn u_engine_is_sound_and_never_beats_exact(
        fds in arb_fdset(3, 2),
        table in arb_table(5),
    ) {
        let sol = Planner.run(&table, &fds, &RepairRequest::update()).unwrap();
        let repaired = sol.repaired().unwrap();
        prop_assert!(repaired.satisfies(&fds));
        prop_assert!((table.dist_upd(repaired).unwrap() - sol.cost).abs() < 1e-9);
        let exact = exact_u_repair(&table, &fds, &ExactConfig::default());
        // No algorithm may return a cheaper consistent update than the
        // exhaustive optimum; optimal methods must match it.
        prop_assert!(sol.cost >= exact.cost - 1e-9);
        if sol.optimal {
            prop_assert!((sol.cost - exact.cost).abs() < 1e-9,
                "claimed optimal {} vs exact {}", sol.cost, exact.cost);
        } else {
            prop_assert!(sol.cost <= sol.ratio * exact.cost + 1e-9);
        }
    }

    #[test]
    fn mpd_log_odds_reduction_agrees_with_enumeration(
        fds in arb_fdset(3, 2),
        rows in prop::collection::vec(((0..2i64, 0..2i64, 0..2i64), 1..10u8), 0..7),
    ) {
        let table = Table::build(
            schema_rabc(),
            rows.into_iter().map(|((a, b, c), p)| {
                // Probabilities in {0.15, …, 0.95} avoiding 0.5 and 1.0.
                let p = 0.05 + (p as f64) * 0.09;
                (tup![a, b, c], if (p - 0.5).abs() < 0.02 { 0.55 } else { p })
            }),
        )
        .unwrap();
        let prob = ProbTable::new(table).unwrap();
        let fast = most_probable_database(&prob, &fds);
        let slow = brute_force_mpd(&prob, &fds);
        prop_assert!((fast.probability - slow.probability).abs() < 1e-9,
            "mpd {} vs brute {}", fast.probability, slow.probability);
    }
}

// ---------------------------------------------------------------------
// Extension invariants: normalization, CQA, counting, mixed, parallel.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bcnf_decomposition_is_lossless_and_in_bcnf(fds in arb_fdset(5, 4)) {
        let schema = Schema::new("R", ["A", "B", "C", "D", "E"]).unwrap();
        let d = bcnf_decompose(&schema, &fds);
        prop_assert!(is_lossless_join(&schema, &fds, &d.fragments));
        for &f in &d.fragments {
            prop_assert!(
                fd_repairs::core::bcnf_violation_in(&schema, &fds, f).is_none(),
                "fragment {} violates BCNF under {}",
                f.display(&schema),
                fds.display(&schema)
            );
        }
    }

    #[test]
    fn third_nf_synthesis_is_lossless_and_preserving(fds in arb_fdset(5, 4)) {
        let schema = Schema::new("R", ["A", "B", "C", "D", "E"]).unwrap();
        let d = third_nf_synthesis(&schema, &fds);
        prop_assert!(is_lossless_join(&schema, &fds, &d.fragments));
        prop_assert!(preserves_dependencies(&fds, &d.fragments));
    }

    #[test]
    fn cqa_semantics_nest(table in arb_table(7)) {
        use fd_repairs::srepair::{answers_all_repairs, answers_optimal_repairs};
        // A chain FD set so the optimal enumeration is available.
        let fds = FdSet::parse(&schema_rabc(), "A -> B; A B -> C").unwrap();
        let all = answers_all_repairs(&table, &fds);
        let opt = answers_optimal_repairs(&table, &fds, 100_000).expect("chain FD set");
        // certain(all) ⊆ certain(opt): surviving every repair implies
        // surviving every optimal one.
        for id in &all.certain {
            prop_assert!(opt.certain.contains(id));
        }
        // certain(opt) ⊆ possible(opt) ⊆ possible(all).
        for id in &opt.certain {
            prop_assert!(opt.possible.contains(id));
        }
        for id in &opt.possible {
            prop_assert!(all.possible.contains(id));
        }
    }

    #[test]
    fn chain_counts_dominate_optimal_counts(table in arb_table(8)) {
        let fds = FdSet::parse(&schema_rabc(), "A -> B; A B -> C").unwrap();
        let all = match count_subset_repairs(&table, &fds) {
            ChainCountOutcome::Count(c) => c,
            ChainCountOutcome::NotAChain(_) => unreachable!("chain FD set"),
        };
        let optimal = match count_optimal_s_repairs(&table, &fds) {
            CountOutcome::Count(c) => c,
            other => unreachable!("chain FD set: {other:?}"),
        };
        // Every optimal S-repair is a subset repair.
        prop_assert!(optimal <= all, "optimal {optimal} > all {all}");
        prop_assert!(optimal >= 1);
    }

    #[test]
    fn unit_mixed_cost_equals_s_optimum(table in arb_table(6)) {
        let fds = FdSet::parse(&schema_rabc(), "A -> B; B -> C").unwrap();
        let mixed = exact_mixed_repair(&table, &fds, MixedCosts::UNIT, &ExactConfig::default());
        let s = exact_s_repair(&table, &fds);
        prop_assert!((mixed.cost - s.cost).abs() < 1e-9,
            "mixed {} vs s {}", mixed.cost, s.cost);
    }

    #[test]
    fn parallel_algorithm_one_matches_sequential(table in arb_table(12)) {
        let fds = FdSet::parse(&schema_rabc(), "A -> B; A B -> C").unwrap();
        let seq = opt_s_repair(&table, &fds).expect("tractable");
        let cfg = ShardConfig { threads: 3, ..ShardConfig::default() };
        let par = sharded_s_repair(&table, &fds, &cfg);
        prop_assert_eq!(seq.kept, par.repair.kept);
    }
}
