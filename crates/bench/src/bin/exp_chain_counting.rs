//! Experiment `exp_chain_counting` — the §2.2 pointer to the repair
//! counting dichotomy of Livshits & Kimelfeld \[26\]: subset repairs are
//! countable in polynomial time exactly for chain FD sets.
//!
//! Regenerated claims:
//!
//! 1. on chain FD sets the DP counter matches exhaustive enumeration on
//!    small tables;
//! 2. it scales to tables whose repair count is astronomically beyond
//!    enumeration (polynomial wall-clock, counts up to 2¹⁰⁰);
//! 3. on non-chain FD sets the recursion reports `NotAChain` — the #P-hard
//!    side of the dichotomy — including sets that still pass the
//!    *optimal-repair* dichotomy (`OSRSucceeds`), e.g. the lhs-marriage
//!    set Δ_{A↔B→C}: optimizing is easy there, counting is not.
//!
//! Every claim is also asserted, so a mismatch exits non-zero: the DP
//! counts, the 2¹⁰⁰ pin, the seeded sampler's four repairs each within
//! 10% of 2 500 draws, and `NotAChain` on the three non-chain sets.

use fd_bench::{kv, mark, section, timed};
use fd_core::{schema_rabc, tup, FdSet, Table, Tuple};
use fd_gen::random::{dirty_table, DirtyConfig};
use fd_srepair::{
    brute_force_count_subset_repairs, count_subset_repairs, count_subset_repairs_log2,
    osr_succeeds, sample_subset_repair, ChainCountOutcome,
};
use rand::{rngs::StdRng, Rng, SeedableRng};

fn main() {
    let s = schema_rabc();

    section("Chain sets: DP count ≡ enumeration (seeded, 200 instances)");
    let chain = FdSet::parse(&s, "A -> B; A B -> C").unwrap();
    let mut rng = StdRng::seed_from_u64(0xc0de);
    let mut agree = 0;
    for trial in 0..200 {
        let n = 1 + trial % 9;
        let rows: Vec<Tuple> = (0..n)
            .map(|_| {
                tup![
                    ["x", "y"][rng.gen_range(0..2usize)],
                    rng.gen_range(0..3) as i64,
                    rng.gen_range(0..2) as i64
                ]
            })
            .collect();
        let t = Table::build_unweighted(s.clone(), rows).unwrap();
        let ChainCountOutcome::Count(fast) = count_subset_repairs(&t, &chain) else {
            panic!("a chain set was reported as not a chain");
        };
        agree += usize::from(fast == brute_force_count_subset_repairs(&t, &chain));
    }
    kv("all 200 counts agree", mark(agree == 200));
    assert_eq!(agree, 200, "DP counts disagree with enumeration");

    section("Scaling: polynomial counting far beyond enumeration");
    let fd1 = FdSet::parse(&s, "A -> B").unwrap();
    println!("  {:>8} {:>24} {:>10}", "rows", "log2(repair count)", "ms");
    for n in [100usize, 1_000, 10_000, 100_000] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let cfg = DirtyConfig {
            rows: n,
            domain: 50,
            corruptions: n / 3,
            weighted: false,
        };
        let table = dirty_table(&s, &fd1, &cfg, &mut rng);
        let (log2, ms) = timed(|| count_subset_repairs_log2(&table, &fd1).expect("chain"));
        println!("  {n:>8} {log2:>24.1} {ms:>10.2}");
    }
    // The 2^100 pin: 100 disjoint conflicting pairs.
    let mut rows = Vec::new();
    for g in 0..100i64 {
        rows.push(tup![g, 1, 0]);
        rows.push(tup![g, 2, 0]);
    }
    let t = Table::build_unweighted(s.clone(), rows).unwrap();
    let ChainCountOutcome::Count(c) = count_subset_repairs(&t, &fd1) else {
        unreachable!()
    };
    kv(
        "100 independent pairs count",
        format!("{c} = 2^100: {}", mark(c == 1u128 << 100)),
    );
    assert_eq!(c, 1u128 << 100, "100 independent pairs have 2^100 repairs");

    section("Counting ⇒ sampling: uniform repair sampling (10 000 draws)");
    // Two independent pairs + a clean tuple: 4 equally likely repairs.
    let t = Table::build_unweighted(
        s.clone(),
        vec![
            tup!["x", 1, 0],
            tup!["x", 2, 0],
            tup!["y", 1, 0],
            tup!["y", 2, 0],
            tup!["z", 0, 0],
        ],
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(0x5a3b1e);
    let mut freq: std::collections::HashMap<Vec<fd_core::TupleId>, u32> =
        std::collections::HashMap::new();
    for _ in 0..10_000 {
        let kept = sample_subset_repair(&t, &fd1, &mut rng).expect("chain");
        *freq.entry(kept).or_default() += 1;
    }
    let mut counts: Vec<u32> = freq.values().copied().collect();
    counts.sort_unstable();
    kv("distinct repairs sampled (expect 4)", freq.len());
    kv(
        "frequency spread (expect ≈ 2500 each)",
        format!("{counts:?}"),
    );
    let uniform = freq.len() == 4 && counts.iter().all(|&c| (c as i64 - 2500).abs() < 250);
    kv("uniform within 10%", mark(uniform));
    assert!(
        uniform,
        "seeded sampler is not uniform within 10%: {counts:?}"
    );

    section("Non-chain sets report the #P-hard side");
    for (name, spec) in [
        ("Δ_{A→B→C}", "A -> B; B -> C"),
        ("Δ_{A→C←B}", "A -> C; B -> C"),
        (
            "Δ_{A↔B→C} (optimal-repair EASY, counting hard)",
            "A -> B; B -> A; B -> C",
        ),
    ] {
        let fds = FdSet::parse(&s, spec).unwrap();
        let t = Table::build_unweighted(s.clone(), vec![tup!["x", 1, 0]]).unwrap();
        let outcome = count_subset_repairs(&t, &fds);
        let reported = matches!(outcome, ChainCountOutcome::NotAChain(_));
        assert!(reported, "{name}: the counter must report NotAChain");
        kv(
            name,
            format!(
                "chain {} | OSRSucceeds {} | counter: {}",
                mark(fds.is_chain()),
                mark(osr_succeeds(&fds)),
                if reported {
                    "NotAChain ✓"
                } else {
                    "counted ✗"
                }
            ),
        );
    }
}
