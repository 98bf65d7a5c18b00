//! Cross-crate integration tests for the §5-outlook extensions: priorities
//! (fd-priority), conditional FDs / denial constraints (fd-cfd), mixed and
//! restricted repairs (fd-urepair), chain counting and the sharded
//! Algorithm 1 (fd-srepair) — all through the `fd_repairs` facade, the way
//! a downstream user would drive them.

use fd_repairs::prelude::*;
use fd_repairs::urepair::restriction_gap;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn dirty_office() -> (std::sync::Arc<Schema>, FdSet, Table) {
    let schema = Schema::new("Office", ["facility", "room", "floor", "city"]).unwrap();
    let fds = FdSet::parse(&schema, "facility -> city; facility room -> floor").unwrap();
    let table = Table::build(
        schema.clone(),
        vec![
            (tup!["HQ", 322, 3, "Paris"], 2.0),
            (tup!["HQ", 322, 30, "Madrid"], 1.0),
            (tup!["HQ", 122, 1, "Madrid"], 1.0),
            (tup!["Lab1", "B35", 3, "London"], 2.0),
        ],
    )
    .unwrap();
    (schema, fds, table)
}

#[test]
fn running_example_round_trip_through_every_extension() {
    let (_, fds, table) = dirty_office();

    // Chain counting: the running example has exactly the paper's two
    // optimal S-repairs (S1, S2), and exactly two subset repairs overall.
    assert_eq!(
        count_subset_repairs(&table, &fds),
        ChainCountOutcome::Count(2)
    );
    assert_eq!(
        count_optimal_s_repairs(&table, &fds),
        CountOutcome::Count(2)
    );

    // Algorithm 1 fanned over conflict components agrees with the
    // whole-table recursion.
    let seq = opt_s_repair(&table, &fds).unwrap();
    let cfg = ShardConfig {
        threads: 4,
        ..ShardConfig::default()
    };
    let par = sharded_s_repair(&table, &fds, &cfg);
    assert_eq!(seq.kept, par.repair.kept);
    assert_eq!(seq.cost, 2.0);

    // Weight-induced priorities: tuple 0 (weight 2) beats its conflicting
    // neighbors 1 and 2 (weight 1), so the unique Pareto repair is S2.
    let prio = PriorityRelation::from_weights(&table, &fds);
    let inst = PrioritizedTable::new(&table, &fds, &prio).unwrap();
    assert!(inst.is_categorical(Semantics::Pareto).unwrap());
    assert_eq!(
        inst.the_repair(Semantics::Pareto).unwrap().unwrap(),
        vec![TupleId(0), TupleId(3)],
    );

    // Mixed repairs with unit costs collapse to the optimal S-repair.
    let mixed = exact_mixed_repair(&table, &fds, MixedCosts::UNIT, &ExactConfig::default());
    mixed.verify(&table, &fds, MixedCosts::UNIT);
    assert_eq!(mixed.cost, 2.0);

    // CFD adapter: the plain FDs via the pairwise-constraint machinery
    // give the same optimum.
    let cs = fd_repairs::cfd::fd_constraints(&fds);
    let generic = cfd_optimal_subset_repair(&table, &cs);
    assert_eq!(generic.cost, 2.0);
}

#[test]
fn csv_to_repair_pipeline() {
    let csv = "\
facility,room,floor,city,w
HQ,322,3,Paris,2
HQ,322,30,Madrid,1
HQ,122,1,Madrid,1
Lab1,B35,3,London,2
";
    let table = table_from_csv(
        "Office",
        csv,
        &CsvOptions {
            weight_column: Some("w".to_string()),
        },
    )
    .unwrap();
    let fds = FdSet::parse(table.schema(), "facility -> city; facility room -> floor").unwrap();
    assert!(!table.satisfies(&fds));
    let repair = opt_s_repair(&table, &fds).unwrap();
    assert_eq!(repair.cost, 2.0);
    // Export the repaired table and re-import: still consistent.
    let clean_csv = table_to_csv(&repair.apply(&table), true);
    let again = table_from_csv(
        "Office",
        &clean_csv,
        &CsvOptions {
            weight_column: Some("weight".to_string()),
        },
    )
    .unwrap();
    assert!(again.satisfies(&FdSet::parse(again.schema(), "facility -> city").unwrap()));
}

#[test]
fn priority_families_nest_inside_subset_repairs() {
    let mut rng = StdRng::seed_from_u64(0xfeed);
    let schema = schema_rabc();
    let fds = FdSet::parse(&schema, "A -> B").unwrap();
    for _ in 0..20 {
        let n = 2 + rng.gen_range(0..6);
        let rows: Vec<Tuple> = (0..n)
            .map(|_| {
                tup![
                    ["x", "y"][rng.gen_range(0..2usize)],
                    rng.gen_range(0..3) as i64,
                    0
                ]
            })
            .collect();
        let table = Table::build_unweighted(schema.clone(), rows).unwrap();
        let prio = PriorityRelation::from_weights(&table, &fds);
        let inst = PrioritizedTable::new(&table, &fds, &prio).unwrap();
        let subset = inst.subset_repairs().unwrap();
        for sem in [Semantics::Global, Semantics::Pareto, Semantics::Completion] {
            for r in inst.repairs_under(sem).unwrap() {
                assert!(
                    subset.contains(&r),
                    "{sem:?} repair {r:?} is not a subset repair"
                );
                // And each is a genuine S-repair per the paper's notion.
                assert!(is_subset_repair(
                    &table,
                    &fds,
                    &SRepair::from_kept(&table, r)
                ));
            }
        }
    }
}

#[test]
fn mixed_repair_interpolates_between_s_and_u() {
    let mut rng = StdRng::seed_from_u64(0x3d11);
    let schema = schema_rabc();
    let fds = FdSet::parse(&schema, "A -> B; B -> C").unwrap();
    for _ in 0..15 {
        let n = 2 + rng.gen_range(0..4);
        let rows: Vec<Tuple> = (0..n)
            .map(|_| {
                tup![
                    ["x", "y"][rng.gen_range(0..2usize)],
                    rng.gen_range(0..2) as i64,
                    rng.gen_range(0..2) as i64
                ]
            })
            .collect();
        let table = Table::build_unweighted(schema.clone(), rows).unwrap();
        let s_cost = exact_s_repair(&table, &fds).cost;
        let u_cost = exact_u_repair(&table, &fds, &ExactConfig::default()).cost;
        for delete in [0.5, 1.0, 2.0, 8.0] {
            let costs = MixedCosts::new(delete, 1.0);
            let mixed = exact_mixed_repair(&table, &fds, costs, &ExactConfig::default());
            mixed.verify(&table, &fds, costs);
            // Mixed never beats nor exceeds the better pure strategy's
            // envelope: min is an upper bound; Cor 4.5 gives the lower.
            assert!(mixed.cost <= (s_cost * delete).min(u_cost) + 1e-9);
            assert!(mixed.cost + 1e-9 >= s_cost * delete.min(1.0));
        }
    }
}

#[test]
fn restriction_never_helps() {
    let mut rng = StdRng::seed_from_u64(0xab5);
    let schema = schema_rabc();
    let fds = FdSet::parse(&schema, "A -> B; A -> C").unwrap();
    for _ in 0..15 {
        let n = 2 + rng.gen_range(0..4);
        let rows: Vec<Tuple> = (0..n)
            .map(|_| {
                tup![
                    ["x", "y"][rng.gen_range(0..2usize)],
                    rng.gen_range(0..2) as i64,
                    rng.gen_range(0..2) as i64
                ]
            })
            .collect();
        let table = Table::build_unweighted(schema.clone(), rows).unwrap();
        let (unres, res) = restriction_gap(&table, &fds, &ExactConfig::default());
        assert!(res + 1e-9 >= unres);
    }
}

#[test]
fn cfd_pipeline_with_mixed_constraint_kinds() {
    let schema = schema_rabc();
    let cfds = vec![
        fd_repairs::cfd::Cfd::parse(&schema, "A=_, C=1 -> B=_").unwrap(),
        fd_repairs::cfd::Cfd::parse(&schema, "A=uk -> B=44").unwrap(),
    ];
    let table = Table::build_unweighted(
        schema.clone(),
        vec![
            tup!["uk", 44, 1],
            tup!["uk", 33, 1], // violates the constant CFD alone
            tup!["fr", 5, 1],
            tup!["fr", 6, 1], // conflicts with the previous inside C=1
            tup!["fr", 7, 0], // out of pattern
        ],
    )
    .unwrap();
    assert!(!cfd_satisfies(&table, &cfds));
    let exact = cfd_optimal_subset_repair(&table, &cfds);
    assert_eq!(exact.cost, 2.0); // forced uk/33 + one of the fr pair
    let approx = fd_repairs::cfd::approx_subset_repair(&table, &cfds);
    assert!(approx.cost <= 2.0 * exact.cost + 1e-9);
    assert!(cfd_satisfies(&approx.apply(&table), &cfds));
}
