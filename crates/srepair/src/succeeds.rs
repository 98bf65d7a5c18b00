//! `OSRSucceeds` — Algorithm 2 of the paper — plus a full simplification
//! trace, used by the dichotomy experiments (Example 3.5) and the hardness
//! pipeline (Figure 4), and the block split every recursion that walks
//! the trace applies at each depth.

use fd_core::{AttrSet, FdSet, FnvBuild, Schema, Sym, Table, TupleId, Value};
use std::collections::HashMap;
use std::hash::Hash;

/// One simplification rule application of Algorithm 2.
#[derive(Clone, Debug, PartialEq)]
pub enum Rule {
    /// Common lhs attribute `A`: `Δ := Δ − A`.
    CommonLhs(AttrSet),
    /// Consensus FD `∅ → X`: `Δ := Δ − X`.
    Consensus(AttrSet),
    /// Lhs marriage `(X₁, X₂)`: `Δ := Δ − X₁X₂`.
    Marriage(AttrSet, AttrSet),
}

impl Rule {
    /// The attributes removed by this rule.
    pub fn removed(&self) -> AttrSet {
        match self {
            Rule::CommonLhs(a) | Rule::Consensus(a) => *a,
            Rule::Marriage(x1, x2) => x1.union(*x2),
        }
    }

    /// Paper-style rendering, e.g. `(common lhs facility)`.
    pub fn display(&self, schema: &Schema) -> String {
        match self {
            Rule::CommonLhs(a) => format!("(common lhs {})", a.display(schema)),
            Rule::Consensus(x) => format!("(consensus {})", x.display(schema)),
            Rule::Marriage(x1, x2) => format!(
                "(lhs marriage ({}, {}))",
                x1.display(schema),
                x2.display(schema)
            ),
        }
    }
}

/// One step of the simplification trace: the FD set before (with trivial
/// FDs already removed), the rule applied, and the FD set after.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceStep {
    /// `Δ` before the rule (trivial FDs removed).
    pub before: FdSet,
    /// The rule applied.
    pub rule: Rule,
    /// `Δ` after the rule.
    pub after: FdSet,
}

/// The outcome of Algorithm 2.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    /// `Δ` was reduced to a trivial set: `OptSRepair` succeeds, and an
    /// optimal S-repair is computable in polynomial time (Theorem 3.4).
    Success,
    /// No simplification applies to the remaining nontrivial set: computing
    /// an optimal S-repair is APX-complete (Theorem 3.4).
    Stuck(FdSet),
}

/// A complete run of Algorithm 2.
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    /// The steps, in application order.
    pub steps: Vec<TraceStep>,
    /// Success or the stuck FD set.
    pub outcome: Outcome,
}

impl Trace {
    /// True iff the trace ended in success.
    pub fn succeeded(&self) -> bool {
        matches!(self.outcome, Outcome::Success)
    }

    /// The rule every block at recursion depth `depth` applies: each
    /// level of Algorithm 1 sees the same reduced `Δ`, so the trace
    /// decides for all of them. `Ok(None)` once `Δ` is trivial, `Err`
    /// with the stuck set when no simplification applies there.
    pub fn step(&self, depth: usize) -> Result<Option<&TraceStep>, &FdSet> {
        match (self.steps.get(depth), &self.outcome) {
            (Some(step), _) => Ok(Some(step)),
            (None, Outcome::Success) => Ok(None),
            (None, Outcome::Stuck(stuck)) => Err(stuck),
        }
    }

    /// Renders the trace in the style of Example 3.5.
    pub fn display(&self, schema: &Schema) -> String {
        let mut out = String::new();
        for step in &self.steps {
            out.push_str(&step.before.display(schema));
            out.push_str("\n  ");
            out.push_str(&step.rule.display(schema));
            out.push_str(" ⇛\n");
        }
        match &self.outcome {
            Outcome::Success => out.push_str("{}"),
            Outcome::Stuck(fds) => {
                out.push_str(&fds.display(schema));
                out.push_str("\n  (stuck: APX-complete)");
            }
        }
        out
    }
}

/// Runs Algorithm 2 and records every simplification.
pub fn simplification_trace(fds: &FdSet) -> Trace {
    let mut current = fds.clone();
    let mut steps = Vec::new();
    loop {
        current = current.remove_trivial();
        if current.is_empty() {
            return Trace {
                steps,
                outcome: Outcome::Success,
            };
        }
        let rule = if let Some(a) = current.common_lhs() {
            Rule::CommonLhs(AttrSet::singleton(a))
        } else if let Some(cfd) = current.consensus_fd() {
            Rule::Consensus(cfd.rhs())
        } else if let Some((x1, x2)) = current.lhs_marriage() {
            Rule::Marriage(x1, x2)
        } else {
            return Trace {
                steps,
                outcome: Outcome::Stuck(current),
            };
        };
        let after = current.minus(rule.removed());
        steps.push(TraceStep {
            before: current.clone(),
            rule,
            after: after.clone(),
        });
        current = after;
    }
}

/// Algorithm 2's trace of `Δ` in single-rhs form: the rule sequence every
/// recursion of this crate (Algorithm 1, the counters, the sampler) walks
/// by depth, an lhs-marriage step ending the chain-only ones.
pub(crate) fn recursion_trace(fds: &FdSet) -> Trace {
    simplification_trace(&fds.normalize_single_rhs())
}

/// Every row position of `table`: the block a recursion starts from.
pub(crate) fn all_rows(table: &Table) -> Vec<u32> {
    (0..table.len() as u32).collect()
}

/// The ids of the rows at positions `rows`.
pub(crate) fn ids_at(table: &Table, rows: &[u32]) -> Vec<TupleId> {
    rows.iter().map(|&p| table.id_at(p as usize)).collect()
}

/// The total weight of the rows at positions `rows`, summed in `rows` order.
pub(crate) fn weight_at(table: &Table, rows: &[u32]) -> f64 {
    rows.iter().map(|&p| table.weights()[p as usize]).sum()
}

/// Splits `rows`, positions of `table`, into the blocks of equal
/// projection on `attrs`: the partition a rule of the trace takes at one
/// depth. Blocks are sorted by their decoded key, members kept in `rows`
/// order, so the blocks of ascending rows are ascending. Grouping runs
/// in symbol space — the symbol itself for one attribute, a boxed
/// symbol slice for several — and one key per block is decoded.
pub(crate) fn split_blocks(table: &Table, rows: &[u32], attrs: AttrSet) -> Vec<Vec<u32>> {
    let cols: Vec<&[Sym]> = attrs.iter().map(|a| table.col(a)).collect();
    let mut blocks = match cols[..] {
        [col] => group_by(rows, |p| col[p as usize]),
        _ => group_by(rows, |p| {
            cols.iter()
                .map(|col| col[p as usize])
                .collect::<Box<[Sym]>>()
        }),
    };
    let dict = table.dictionary();
    blocks.sort_by_cached_key(|block| {
        cols.iter()
            .map(|col| dict.decode(col[block[0] as usize]))
            .collect::<Vec<Value>>()
    });
    blocks
}

/// Groups `rows` by `key`, blocks in order of first occurrence: a linear
/// scan over the keys seen so far up to 32 rows (component shards, deep
/// levels), an FNV map beyond.
fn group_by<K: Hash + Eq>(rows: &[u32], key: impl Fn(u32) -> K) -> Vec<Vec<u32>> {
    let mut blocks: Vec<Vec<u32>> = Vec::new();
    let mut scanned: Vec<K> = Vec::new();
    let mut lookup: HashMap<K, usize, FnvBuild> = HashMap::default();
    for &p in rows {
        let k = key(p);
        let next = blocks.len();
        let b = if rows.len() <= 32 {
            scanned
                .iter()
                .position(|seen| *seen == k)
                .unwrap_or_else(|| {
                    scanned.push(k);
                    next
                })
        } else {
            *lookup.entry(k).or_insert(next)
        };
        if b == next {
            blocks.push(Vec::new());
        }
        blocks[b].push(p);
    }
    blocks
}

/// `OSRSucceeds(Δ)` (Algorithm 2): true iff `OptSRepair` succeeds on `Δ`,
/// i.e. iff computing an optimal S-repair is in polynomial time
/// (Theorem 3.4).
pub fn osr_succeeds(fds: &FdSet) -> bool {
    simplification_trace(fds).succeeded()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_core::{schema_rabc, Schema};

    /// `split_blocks` by attribute names.
    fn split(t: &fd_core::Table, rows: &[u32], attrs: &[&str]) -> Vec<Vec<u32>> {
        let set = attrs.iter().fold(AttrSet::EMPTY, |set, name| {
            set.union(AttrSet::singleton(t.schema().attr(name).unwrap()))
        });
        split_blocks(t, rows, set)
    }

    #[test]
    fn split_blocks_sorts_blocks_by_key_and_keeps_row_order() {
        use fd_core::{tup, Table};
        let t = Table::build_unweighted(
            schema_rabc(),
            vec![tup!["x", 1, 2], tup!["y", 2, 2], tup!["x", 3, 3]],
        )
        .unwrap();
        assert_eq!(split(&t, &[0, 1, 2], &["A"]), vec![vec![0, 2], vec![1]]);
        // A strict sub-list of the table's rows, not in key order.
        assert_eq!(split(&t, &[1, 2], &["A"]), vec![vec![2], vec![1]]);
        assert_eq!(split(&t, &[2, 1, 0], &["C"]), vec![vec![1, 0], vec![2]]);
        // No rows: no blocks. No attributes: one block of every row.
        assert!(split(&t, &[], &["A"]).is_empty());
        assert!(split(&t, &[], &[]).is_empty());
        assert_eq!(split(&t, &[2, 0], &[]), vec![vec![2, 0]]);
        // Several attributes: the key is the tuple of values.
        assert_eq!(
            split(&t, &[0, 1, 2], &["A", "C"]),
            vec![vec![0], vec![2], vec![1]]
        );
        assert_eq!(split(&t, &[0, 1, 2], &["C", "B"]).len(), 3);
    }

    #[test]
    fn split_blocks_orders_by_decoded_value_not_by_symbol() {
        use fd_core::{Table, Tuple, Value};
        // Interned in the order Str("12"), spilled int, Int(12), Int(-5):
        // symbol order disagrees with value order, which puts every Int
        // (inline or spilled) before every Str.
        let values = [
            Value::str("12"),
            Value::Int(1 << 62),
            Value::Int(12),
            Value::Int(-5),
        ];
        let rows = values
            .iter()
            .map(|v| Tuple::new(vec![v.clone(), Value::Int(0), Value::Int(0)]));
        let t = Table::build_unweighted(schema_rabc(), rows).unwrap();
        let want = vec![vec![3], vec![2], vec![1], vec![0]];
        assert_eq!(split(&t, &[0, 1, 2, 3], &["A"]), want);
        // The same order through the multi-attribute (boxed key) path.
        assert_eq!(split(&t, &[0, 1, 2, 3], &["A", "B"]), want);
        // And through the hashed path, past the 32-row linear scan.
        let many: Vec<u32> = (0..40).map(|i| i % 4).collect();
        let blocks = split(&t, &many, &["A"]);
        assert_eq!(blocks.len(), 4);
        assert!(blocks[0].iter().all(|&p| p == 3) && blocks[3].iter().all(|&p| p == 0));
    }

    #[test]
    fn split_blocks_keeps_members_in_rows_order_on_both_sides_of_the_scan_threshold() {
        use fd_core::{tup, Table};
        for n in [20u32, 32, 33, 50] {
            let t = Table::build_unweighted(
                schema_rabc(),
                (0..n).map(|i| tup![i64::from(i % 3), i64::from(i % 5), 0]),
            )
            .unwrap();
            // A scrambled, strict sub-list of the positions.
            let rows: Vec<u32> = (0..n).rev().filter(|p| p % 7 != 3).collect();
            for attrs in [&["A"][..], &["B"], &["A", "B"]] {
                let blocks = split(&t, &rows, attrs);
                let mut seen: Vec<u32> = blocks.concat();
                seen.sort_unstable();
                let mut want = rows.clone();
                want.sort_unstable();
                assert_eq!(seen, want, "n={n} {attrs:?}: blocks partition rows");
                for block in &blocks {
                    let order: Vec<usize> = block
                        .iter()
                        .map(|p| rows.iter().position(|r| r == p).unwrap())
                        .collect();
                    assert!(order.windows(2).all(|w| w[0] < w[1]), "n={n} {attrs:?}");
                }
            }
            // Keys ascend from block to block.
            let a = t.schema().attr("A").unwrap();
            let firsts: Vec<_> = split(&t, &rows, &["A"])
                .iter()
                .map(|b| t.dictionary().decode(t.col(a)[b[0] as usize]))
                .collect();
            assert!(firsts.windows(2).all(|w| w[0] < w[1]), "n={n}");
        }
    }

    #[test]
    fn running_example_trace_matches_example_3_5() {
        let s = Schema::new("Office", ["facility", "room", "floor", "city"]).unwrap();
        let fds = FdSet::parse(&s, "facility -> city; facility room -> floor").unwrap();
        let trace = simplification_trace(&fds);
        assert!(trace.succeeded());
        // Example 3.5: common lhs, consensus, common lhs, consensus.
        let kinds: Vec<&'static str> = trace
            .steps
            .iter()
            .map(|st| match st.rule {
                Rule::CommonLhs(_) => "common",
                Rule::Consensus(_) => "consensus",
                Rule::Marriage(_, _) => "marriage",
            })
            .collect();
        assert_eq!(kinds, vec!["common", "consensus", "common", "consensus"]);
    }

    #[test]
    fn a_b_marriage_example_succeeds() {
        // Δ_{A↔B→C} (Example 3.5): marriage then consensus.
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B; B -> A; B -> C").unwrap();
        let trace = simplification_trace(&fds);
        assert!(trace.succeeded());
        assert!(matches!(trace.steps[0].rule, Rule::Marriage(_, _)));
        assert!(matches!(trace.steps[1].rule, Rule::Consensus(_)));
        assert_eq!(trace.steps.len(), 2);
    }

    #[test]
    fn hard_sets_get_stuck() {
        let s = schema_rabc();
        for spec in [
            "A -> B; B -> C",               // Δ_{A→B→C}
            "A -> C; B -> C",               // Δ_{A→C←B}
            "A B -> C; C -> B",             // Δ_{AB→C→B}
            "A B -> C; A C -> B; B C -> A", // Δ_{AB↔AC↔BC}
        ] {
            let fds = FdSet::parse(&s, spec).unwrap();
            assert!(!osr_succeeds(&fds), "{spec} should be stuck");
        }
        let s4 = Schema::new("R", ["A", "B", "C", "D"]).unwrap();
        let disjoint = FdSet::parse(&s4, "A -> B; C -> D").unwrap();
        assert!(!osr_succeeds(&disjoint));
    }

    #[test]
    fn chain_sets_always_succeed() {
        // Corollary 3.6.
        let s = Schema::new("R", ["A", "B", "C", "D"]).unwrap();
        for spec in ["A -> B; A B -> C; A B C -> D", "-> A; A -> B", "A -> B C D"] {
            let fds = FdSet::parse(&s, spec).unwrap();
            assert!(fds.is_chain(), "{spec} is a chain");
            assert!(osr_succeeds(&fds), "{spec} should succeed");
        }
    }

    #[test]
    fn example_4_7_sets() {
        // Δ₁ = {id country → passport, id passport → country}: succeeds
        // (common lhs then marriage).
        let s = Schema::new("R", ["id", "country", "passport", "state", "city", "zip"]).unwrap();
        let d1 = FdSet::parse(&s, "id country -> passport; id passport -> country").unwrap();
        let t1 = simplification_trace(&d1);
        assert!(t1.succeeded());
        assert!(matches!(t1.steps[0].rule, Rule::CommonLhs(_)));
        assert!(matches!(t1.steps[1].rule, Rule::Marriage(_, _)));

        // Δ₂ = {state city → zip, state zip → country}: fails.
        let d2 = FdSet::parse(&s, "state city -> zip; state zip -> country").unwrap();
        assert!(!osr_succeeds(&d2));
    }

    #[test]
    fn trace_display_renders() {
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B; B -> C").unwrap();
        let shown = simplification_trace(&fds).display(&s);
        assert!(shown.contains("stuck"));
        let ok = FdSet::parse(&s, "A -> B C").unwrap();
        let shown_ok = simplification_trace(&ok).display(&s);
        assert!(shown_ok.contains("common lhs"));
    }

    #[test]
    fn empty_and_trivial_succeed_with_no_steps() {
        let s = schema_rabc();
        assert!(osr_succeeds(&FdSet::empty()));
        let trivial = FdSet::parse(&s, "A B -> A").unwrap();
        let trace = simplification_trace(&trivial);
        assert!(trace.succeeded());
        assert!(trace.steps.is_empty());
    }

    #[test]
    fn recursions_report_a_stuck_or_marriage_step_only_when_they_reach_it() {
        use crate::{
            count_optimal_s_repairs, count_subset_repairs, enumerate_optimal_s_repairs,
            opt_s_repair, sample_subset_repair, ChainCountOutcome, CountOutcome,
        };
        use fd_core::{tup, Table};
        use rand::{rngs::StdRng, SeedableRng};
        let s = Schema::new("R", ["A", "B", "C", "D"]).unwrap();
        let mut rng = StdRng::seed_from_u64(7);

        // A consensus step, then a stuck set: an empty table has no
        // consensus block, so no recursion reaches the stuck set.
        let fds = FdSet::parse(&s, "-> A; B -> C; C -> D").unwrap();
        let empty = Table::new(s.clone());
        assert!(opt_s_repair(&empty, &fds).unwrap().kept.is_empty());
        assert_eq!(
            count_optimal_s_repairs(&empty, &fds),
            CountOutcome::Count(1)
        );
        assert_eq!(
            count_subset_repairs(&empty, &fds),
            ChainCountOutcome::Count(1)
        );
        assert_eq!(
            enumerate_optimal_s_repairs(&empty, &fds, 10),
            Some(vec![vec![]])
        );
        assert_eq!(sample_subset_repair(&empty, &fds, &mut rng), Ok(vec![]));

        // One row: its consensus block reaches the stuck set.
        let stuck = FdSet::parse(&s, "B -> C; C -> D").unwrap();
        let one = Table::build_unweighted(s.clone(), vec![tup![1, 1, 1, 1]]).unwrap();
        assert_eq!(opt_s_repair(&one, &fds).unwrap_err().remaining, stuck);
        assert_eq!(
            count_optimal_s_repairs(&one, &fds),
            CountOutcome::Irreducible(stuck.clone())
        );
        assert_eq!(
            count_subset_repairs(&one, &fds),
            ChainCountOutcome::NotAChain(stuck)
        );
        assert_eq!(enumerate_optimal_s_repairs(&one, &fds, 10), None);

        // An lhs marriage at the top: not a chain, not countable.
        let marriage = FdSet::parse(&s, "A -> B; B -> A; B -> C").unwrap();
        let two = Table::build_unweighted(s, vec![tup![1, 1, 0, 0], tup![1, 2, 0, 0]]).unwrap();
        assert_eq!(
            count_subset_repairs(&two, &marriage),
            ChainCountOutcome::NotAChain(marriage.clone())
        );
        assert_eq!(
            count_optimal_s_repairs(&two, &marriage),
            CountOutcome::MarriageEncountered
        );
        assert_eq!(enumerate_optimal_s_repairs(&two, &marriage, 10), None);
    }
}
