//! Criterion bench: Algorithm 1 (`OptSRepair`) across its three
//! simplification shapes (common lhs, consensus, lhs marriage) and table
//! sizes — the Theorem 3.2 polynomial-time claim, measured — plus the
//! polynomial chain-count against the enumeration baseline, the only
//! viable option once repair counts grow exponentially.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fd_core::{FdSet, Schema};
use fd_gen::random::{dirty_table, DirtyConfig};
use fd_srepair::{
    approx_s_repair, brute_force_count_subset_repairs, count_subset_repairs, exact_s_repair,
    opt_s_repair,
};
use rand::prelude::*;
use std::hint::black_box;

fn bench_optsrepair(c: &mut Criterion) {
    let schema = Schema::new("R", ["A", "B", "C", "D"]).unwrap();
    let shapes: Vec<(&str, &str)> = vec![
        ("common_lhs_chain", "A -> B; A B -> C; A B C -> D"),
        ("consensus", "-> A; A -> B"),
        ("marriage", "A -> B; B -> A; B -> C"),
    ];
    for (name, spec) in shapes {
        let fds = FdSet::parse(&schema, spec).unwrap();
        let mut group = c.benchmark_group(format!("optsrepair_{name}"));
        group.sample_size(15);
        for n in [200usize, 1000, 5000] {
            let mut rng = StdRng::seed_from_u64(n as u64);
            let cfg = DirtyConfig {
                rows: n,
                domain: 8,
                corruptions: n / 5,
                weighted: true,
            };
            let table = dirty_table(&schema, &fds, &cfg, &mut rng);
            group.bench_with_input(BenchmarkId::from_parameter(n), &table, |b, t| {
                b.iter(|| opt_s_repair(black_box(t), &fds).unwrap());
            });
        }
        group.finish();
    }

    // Ablation on a tractable set: Algorithm 1 vs the generic exact
    // vertex-cover baseline vs the 2-approximation.
    let fds = FdSet::parse(&schema, "A -> B C D").unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let cfg = DirtyConfig {
        rows: 600,
        domain: 6,
        corruptions: 80,
        weighted: false,
    };
    let table = dirty_table(&schema, &fds, &cfg, &mut rng);
    let mut group = c.benchmark_group("s_repair_methods_n600");
    group.sample_size(15);
    group.bench_function("algorithm1", |b| {
        b.iter(|| opt_s_repair(black_box(&table), &fds).unwrap());
    });
    group.bench_function("exact_vertex_cover", |b| {
        b.iter(|| exact_s_repair(black_box(&table), &fds));
    });
    group.bench_function("approx2", |b| {
        b.iter(|| approx_s_repair(black_box(&table), &fds));
    });
    group.finish();
}

fn bench_chain_count(c: &mut Criterion) {
    let schema = Schema::new("R", ["A", "B", "C", "D"]).unwrap();
    let fds = FdSet::parse(&schema, "A -> B").unwrap();
    let mut group = c.benchmark_group("chain_count");
    group.sample_size(20);
    // Polynomial counter scales to tables whose repair count is
    // astronomically beyond enumeration.
    for n in [100usize, 1_000, 10_000] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let cfg = DirtyConfig {
            rows: n,
            domain: 32,
            corruptions: n / 3,
            weighted: false,
        };
        let table = dirty_table(&schema, &fds, &cfg, &mut rng);
        group.bench_with_input(BenchmarkId::new("dp", n), &table, |b, t| {
            b.iter(|| count_subset_repairs(black_box(t), &fds));
        });
    }
    // The enumeration baseline is only feasible tiny.
    for n in [10usize, 20] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let cfg = DirtyConfig {
            rows: n,
            domain: 4,
            corruptions: n / 3,
            weighted: false,
        };
        let table = dirty_table(&schema, &fds, &cfg, &mut rng);
        group.bench_with_input(BenchmarkId::new("enumerate", n), &table, |b, t| {
            b.iter(|| brute_force_count_subset_repairs(black_box(t), &fds));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_optsrepair, bench_chain_count);
criterion_main!(benches);
