//! The two bulk front ends agree: the same rows loaded as `.fdr` and as
//! CSV give the same table, symbol for symbol (both feed one
//! `fd_core::TableBuilder`), the same `table_fingerprint`, and the same
//! `fdrepair repair --json` bytes. The `.fdr` document is large enough
//! to be parsed in more than one chunk on a multi-core machine.

use fd_repairs::engine::table_fingerprint;
use fd_repairs::instance::Instance;
use fd_repairs::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::process::Command;

/// Values both formats hold losslessly: no `|` or line break (`.fdr`),
/// no surrounding whitespace (`.fdr` trims, CSV does not).
const VALUES: &[&str] = &[
    "0",
    "-7",
    "+5",
    "007",
    "536870912",
    "-9223372036854775808",
    "9223372036854775808",
    "Paris",
    "Paris, TX",
    "say \"hi\"",
    "Ünïcödé",
    "日本",
    "4.2",
];
const WEIGHTS: &[&str] = &["1", "2", "0.5", "1e1", "007"];

/// One document's rows, as `(weight, [K, A, B])` text.
fn rows(n: usize) -> Vec<(&'static str, [String; 3])> {
    let mut rng = StdRng::seed_from_u64(0x1e57);
    (0..n)
        .map(|i| {
            let value = |rng: &mut StdRng| {
                if rng.gen_bool(0.5) {
                    VALUES.choose(rng).unwrap().to_string()
                } else {
                    format!("s{}", rng.gen_range(0..2_000))
                }
            };
            let key = format!("k{}", i / 4);
            (
                *WEIGHTS.choose(&mut rng).unwrap(),
                [key, value(&mut rng), value(&mut rng)],
            )
        })
        .collect()
}

fn fdr_text(rows: &[(&str, [String; 3])]) -> String {
    let mut text = String::from("relation R\nattrs K A B\nfd K -> A B\n");
    for (weight, [k, a, b]) in rows {
        text.push_str(&format!("row {weight} | {k} | {a} | {b}\n"));
    }
    text
}

fn csv_text(rows: &[(&str, [String; 3])]) -> String {
    let quote = |field: &str| {
        if field.contains([',', '"']) {
            format!("\"{}\"", field.replace('"', "\"\""))
        } else {
            field.to_string()
        }
    };
    let mut text = String::from("K,w,A,B\n");
    for (weight, [k, a, b]) in rows {
        text.push_str(&format!(
            "{},{weight},{},{}\n",
            quote(k),
            quote(a),
            quote(b)
        ));
    }
    text
}

/// Raw symbol columns, weights, and the pooled values in pool order.
fn image(table: &Table) -> (Vec<Vec<u32>>, Vec<u64>, Vec<Value>) {
    let mut pooled: Vec<(u32, Value)> = table
        .sym_cols()
        .iter()
        .flatten()
        .filter(|s| s.raw() >> 30 >= 2)
        .map(|s| (s.raw(), table.dictionary().decode(*s)))
        .collect();
    pooled.sort_by_key(|(raw, _)| *raw);
    pooled.dedup_by_key(|(raw, _)| *raw);
    assert_eq!(pooled.len(), table.dictionary().len());
    (
        table
            .sym_cols()
            .iter()
            .map(|c| c.iter().map(|s| s.raw()).collect())
            .collect(),
        table.weights().iter().map(|w| w.to_bits()).collect(),
        pooled.into_iter().map(|(_, v)| v).collect(),
    )
}

fn repair_json(args: &[&str]) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_fdrepair"))
        .args(["repair", "--json", "--no-timings"])
        .args(args)
        .output()
        .expect("run fdrepair");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

#[test]
fn fdr_and_csv_load_the_same_table_and_report() {
    // About 2.4 MB of `.fdr`: two or more chunks wherever there are
    // two or more cores.
    let rows = rows(80_000);
    let fdr = fdr_text(&rows);
    let csv = csv_text(&rows);
    assert!(fdr.len() > 2 << 20);

    let from_fdr = Instance::parse(&fdr).unwrap();
    let from_csv = Instance::from_csv("R", &csv, "K -> A B", Some("w")).unwrap();
    assert_eq!(from_fdr.schema.attr_names(), from_csv.schema.attr_names());
    assert_eq!(from_fdr.fds, from_csv.fds);
    assert_eq!(image(&from_fdr.table), image(&from_csv.table));
    assert_eq!(
        table_fingerprint(&from_fdr.table),
        table_fingerprint(&from_csv.table)
    );

    let dir = std::env::temp_dir().join(format!("ingest_parity_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (fdr_path, csv_path) = (dir.join("R.fdr"), dir.join("R.csv"));
    std::fs::write(&fdr_path, &fdr).unwrap();
    std::fs::write(&csv_path, &csv).unwrap();
    let from_fdr = repair_json(&[fdr_path.to_str().unwrap()]);
    let from_csv = repair_json(&[
        csv_path.to_str().unwrap(),
        "--fds",
        "K -> A B",
        "--weight",
        "w",
    ]);
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(from_fdr.len() > 1 << 20, "a full report");
    assert!(from_fdr == from_csv, "repair --json bytes differ");
}
