//! Criterion bench: the Most Probable Database reduction (§3.4) on
//! tractable FD sets at growing table sizes, plus the exact-fallback cost
//! on a hard set at small sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fd_core::{FdSet, Table};
use fd_gen::random::{dirty_table, DirtyConfig};
use fd_mpd::{most_probable_database, ProbTable};
use rand::prelude::*;
use std::hint::black_box;

fn probabilistic(table: &Table, rng: &mut StdRng) -> ProbTable {
    let mut t = Table::new(table.schema().clone());
    for row in table.rows() {
        let p = *[0.55, 0.65, 0.75, 0.85, 0.95].choose(rng).unwrap();
        t.push_row(row.id, row.tuple, p).unwrap();
    }
    ProbTable::new(t).unwrap()
}

fn bench_mpd(c: &mut Criterion) {
    let schema = fd_core::schema_rabc();
    let tractable = FdSet::parse(&schema, "A -> B C").unwrap();
    let mut group = c.benchmark_group("mpd_tractable");
    group.sample_size(15);
    for n in [200usize, 1000, 5000] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let cfg = DirtyConfig {
            rows: n,
            domain: 8,
            corruptions: n / 5,
            weighted: false,
        };
        let base = dirty_table(&schema, &tractable, &cfg, &mut rng);
        let prob = probabilistic(&base, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(n), &prob, |b, p| {
            b.iter(|| most_probable_database(black_box(p), &tractable));
        });
    }
    group.finish();

    let hard = FdSet::parse(&schema, "A -> B; B -> C").unwrap();
    let mut group = c.benchmark_group("mpd_hard_exact_fallback");
    group.sample_size(10);
    for n in [12usize, 24] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let cfg = DirtyConfig {
            rows: n,
            domain: 3,
            corruptions: n / 2,
            weighted: false,
        };
        let base = dirty_table(&schema, &hard, &cfg, &mut rng);
        let prob = probabilistic(&base, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(n), &prob, |b, p| {
            b.iter(|| most_probable_database(black_box(p), &hard));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_mpd);
criterion_main!(benches);
