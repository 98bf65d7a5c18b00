//! End-to-end tests of the `fdrepair` CLI binary: every subcommand, both
//! input formats, and the error paths. Uses the binary Cargo builds for
//! this package (`CARGO_BIN_EXE_fdrepair`).

use std::io::Write;
use std::process::Command;

fn fdrepair(args: &[&str]) -> (String, String, bool) {
    let (out, err, code) = fdrepair_code(args);
    (out, err, code == 0)
}

/// Like [`fdrepair`] but returns the raw exit code (0 success, 1 I/O or
/// solve error, 2 usage error).
fn fdrepair_code(args: &[&str]) -> (String, String, i32) {
    let out = Command::new(env!("CARGO_BIN_EXE_fdrepair"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().expect("no signal"),
    )
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(name);
    let mut f = std::fs::File::create(&path).expect("temp file");
    f.write_all(contents.as_bytes()).expect("write");
    path
}

const OFFICE_FDR: &str = "\
relation Office
attrs facility room floor city
fd facility -> city
fd facility room -> floor
row 2 | HQ | 322 | 3 | Paris
row 1 | HQ | 322 | 30 | Madrid
row 1 | HQ | 122 | 1 | Madrid
row 2 | Lab1 | B35 | 3 | London
";

const OFFICE_CSV: &str = "\
facility,room,floor,city,w
HQ,322,3,Paris,2
HQ,322,30,Madrid,1
HQ,122,1,Madrid,1
Lab1,B35,3,London,2
";

#[test]
fn classify_reports_dichotomy_and_keys() {
    let path = write_temp("cli_office_classify.fdr", OFFICE_FDR);
    let (out, _, ok) = fdrepair(&["classify", path.to_str().unwrap()]);
    assert!(ok);
    assert!(out.contains("chain  : true"));
    assert!(out.contains("polynomial time"));
}

#[test]
fn check_lists_conflicts() {
    let path = write_temp("cli_office_check.fdr", OFFICE_FDR);
    let (out, _, ok) = fdrepair(&["check", path.to_str().unwrap()]);
    assert!(ok);
    assert!(out.contains("inconsistent: 2 conflicting pair(s)"));
}

#[test]
fn srepair_finds_the_paper_optimum() {
    let path = write_temp("cli_office_srepair.fdr", OFFICE_FDR);
    let (out, _, ok) = fdrepair(&["srepair", path.to_str().unwrap()]);
    assert!(ok);
    assert!(out.contains("dist_sub = 2"), "got:\n{out}");
    assert!(out.contains("optimal true"));
}

#[test]
fn urepair_finds_the_paper_optimum() {
    let path = write_temp("cli_office_urepair.fdr", OFFICE_FDR);
    let (out, _, ok) = fdrepair(&["urepair", path.to_str().unwrap()]);
    assert!(ok);
    assert!(out.contains("dist_upd = 2"), "got:\n{out}");
}

#[test]
fn count_reports_both_notions() {
    let path = write_temp("cli_office_count.fdr", OFFICE_FDR);
    let (out, _, ok) = fdrepair(&["count", path.to_str().unwrap()]);
    assert!(ok);
    assert!(out.contains("subset repairs (maximal consistent subsets): 2"));
    assert!(out.contains("optimal subset repairs: 2"));
}

#[test]
fn sample_produces_a_repair() {
    let path = write_temp("cli_office_sample.fdr", OFFICE_FDR);
    let (out, _, ok) = fdrepair(&["sample", path.to_str().unwrap()]);
    assert!(ok);
    assert!(
        out.contains("uniformly sampled subset repair keeps"),
        "got:\n{out}"
    );
}

#[test]
fn csv_input_with_fds_flag() {
    let path = write_temp("cli_office.csv", OFFICE_CSV);
    let (out, _, ok) = fdrepair(&[
        "srepair",
        path.to_str().unwrap(),
        "--fds",
        "facility -> city; facility room -> floor",
        "--weight",
        "w",
    ]);
    assert!(ok);
    assert!(out.contains("dist_sub = 2"), "got:\n{out}");
}

#[test]
fn csv_without_fds_flag_is_an_error() {
    let path = write_temp("cli_office_nofds.csv", OFFICE_CSV);
    let (_, err, ok) = fdrepair(&["srepair", path.to_str().unwrap()]);
    assert!(!ok);
    assert!(err.contains("--fds"));
}

#[test]
fn mpd_runs_on_probabilistic_weights() {
    let prob = "\
relation Reading
attrs sensor room
fd sensor -> room
row 0.9 | s1 | lab
row 0.6 | s1 | attic
row 0.8 | s2 | lab
";
    let path = write_temp("cli_prob.fdr", prob);
    let (out, _, ok) = fdrepair(&["mpd", path.to_str().unwrap()]);
    assert!(ok);
    assert!(
        out.contains("most probable consistent world: 2 of 3 tuples"),
        "got:\n{out}"
    );
}

#[test]
fn unknown_command_and_missing_file_fail_cleanly() {
    let path = write_temp("cli_office_err.fdr", OFFICE_FDR);
    let (_, err, ok) = fdrepair(&["frobnicate", path.to_str().unwrap()]);
    assert!(!ok);
    assert!(err.contains("unknown command"));

    let (_, err, ok) = fdrepair(&["check", "/nonexistent/nope.fdr"]);
    assert!(!ok);
    assert!(err.contains("cannot read"));

    let (_, err, ok) = fdrepair(&["check"]);
    assert!(!ok);
    assert!(err.contains("usage"));
}

#[test]
fn help_works_even_without_a_file() {
    // A lone --help/-h must print usage on stdout and exit 0 (it used to
    // fall into the "too few arguments" usage error).
    for flag in ["--help", "-h"] {
        let (out, err, code) = fdrepair_code(&[flag]);
        assert_eq!(code, 0, "{flag}");
        assert!(out.contains("usage"), "{flag}: {out}");
        assert!(out.contains("--json"), "{flag}: {out}");
        assert!(err.is_empty(), "{flag}: {err}");
    }
    // --help wins even alongside other arguments.
    let (out, _, code) = fdrepair_code(&["srepair", "--help"]);
    assert_eq!(code, 0);
    assert!(out.contains("usage"));
}

#[test]
fn version_prints_and_exits_zero() {
    let (out, _, code) = fdrepair_code(&["--version"]);
    assert_eq!(code, 0);
    assert!(out.starts_with("fdrepair "), "got: {out}");
    assert!(out.contains(env!("CARGO_PKG_VERSION")));
}

#[test]
fn exit_codes_distinguish_usage_io_and_success() {
    let path = write_temp("cli_exitcodes.fdr", OFFICE_FDR);
    let path = path.to_str().unwrap();
    // 0: success.
    assert_eq!(fdrepair_code(&["srepair", path]).2, 0);
    // 2: usage errors — too few args, unknown command, unknown flag,
    // unknown notion, flag missing its value.
    assert_eq!(fdrepair_code(&["check"]).2, 2);
    assert_eq!(fdrepair_code(&["frobnicate", path]).2, 2);
    assert_eq!(fdrepair_code(&["srepair", path, "--bogus"]).2, 2);
    assert_eq!(fdrepair_code(&["repair", path, "--notion", "nope"]).2, 2);
    assert_eq!(fdrepair_code(&["repair", path, "--notion"]).2, 2);
    // The command and the notion are checked before the input is read.
    assert_eq!(fdrepair_code(&["frobnicate", "/nonexistent/nope.fdr"]).2, 2);
    let missing = ["repair", "/nonexistent/nope.fdr", "--notion", "nope"];
    assert_eq!(fdrepair_code(&missing).2, 2);
    // 1: I/O and data errors.
    assert_eq!(fdrepair_code(&["check", "/nonexistent/nope.fdr"]).2, 1);
    let bad = write_temp("cli_exitcodes_bad.fdr", "relation R\nattrs A\nrow x | 1\n");
    assert_eq!(fdrepair_code(&["check", bad.to_str().unwrap()]).2, 1);
}

#[test]
fn unified_repair_subcommand_with_json() {
    let path = write_temp("cli_unified.fdr", OFFICE_FDR);
    let path = path.to_str().unwrap();
    for notion in ["s", "u", "mixed"] {
        let (out, err, ok) = fdrepair(&["repair", "--notion", notion, "--json", path]);
        assert!(ok, "notion {notion}: {err}");
        let json = fd_repairs::Json::parse(out.trim())
            .unwrap_or_else(|e| panic!("notion {notion}: invalid JSON ({e}):\n{out}"));
        assert_eq!(
            json.get("cost").and_then(|c| c.as_num()),
            Some(2.0),
            "notion {notion}"
        );
        assert_eq!(json.get("notion").and_then(|n| n.as_str()), Some(notion));
    }
}

#[test]
fn repair_output_writes_a_consistent_fdr_file() {
    let path = write_temp("cli_output_in.fdr", OFFICE_FDR);
    let out_path = std::env::temp_dir().join("cli_output_repaired.fdr");
    let (_, err, ok) = fdrepair(&[
        "repair",
        path.to_str().unwrap(),
        "--output",
        out_path.to_str().unwrap(),
    ]);
    assert!(ok, "{err}");
    // The written file is a valid .fdr instance and already consistent.
    let (out, _, ok) = fdrepair(&["check", out_path.to_str().unwrap()]);
    assert!(ok);
    assert!(
        out.contains("consistent: the table satisfies Δ"),
        "got:\n{out}"
    );
}

#[test]
fn invalid_cost_multipliers_are_usage_errors_not_panics() {
    let path = write_temp("cli_badcosts.fdr", OFFICE_FDR);
    let path = path.to_str().unwrap();
    for args in [
        ["repair", path, "--delete-cost", "0"],
        ["repair", path, "--delete-cost", "-1"],
        ["repair", path, "--update-cost", "inf"],
        ["srepair", path, "--update-cost", "NaN"],
    ] {
        let (_, err, code) = fdrepair_code(&args);
        assert_eq!(code, 2, "{args:?}: {err}");
        assert!(err.contains("positive finite"), "{args:?}: {err}");
    }
    // A missing value reports exactly one diagnostic, not two.
    let (_, err, code) = fdrepair_code(&["repair", path, "--delete-cost"]);
    assert_eq!(code, 2);
    assert_eq!(err.matches("--delete-cost needs").count(), 1, "{err}");
}

#[test]
fn check_honors_json() {
    let path = write_temp("cli_check_json.fdr", OFFICE_FDR);
    let (out, _, ok) = fdrepair(&["check", "--json", path.to_str().unwrap()]);
    assert!(ok);
    let json = fd_repairs::Json::parse(out.trim()).expect("valid JSON");
    assert_eq!(
        json.get("consistent").and_then(|c| c.as_bool()),
        Some(false)
    );
    assert_eq!(
        json.get("conflicting_pairs").and_then(|c| c.as_num()),
        Some(2.0)
    );
}

#[test]
fn classify_names_the_bcnf_violating_fd() {
    let path = write_temp("cli_classify_bcnf.fdr", OFFICE_FDR);
    let (out, _, ok) = fdrepair(&["classify", path.to_str().unwrap()]);
    assert!(ok);
    // Office's facility → city has a non-superkey lhs.
    assert!(
        out.contains("BCNF   : no (facility → city has a non-superkey lhs)"),
        "got:\n{out}"
    );
}

#[test]
fn explain_prints_a_plan_without_repairing() {
    let path = write_temp("cli_explain.fdr", OFFICE_FDR);
    let (out, _, ok) = fdrepair(&["explain", path.to_str().unwrap(), "--notion", "u"]);
    assert!(ok);
    assert!(out.contains("plan for notion `u`"), "got:\n{out}");
    assert!(out.contains("optimal = true"), "got:\n{out}");
    // No repaired table in plan output.
    assert!(!out.contains("repaired table"), "got:\n{out}");
}

#[test]
fn malformed_instance_reports_line() {
    let path = write_temp("cli_bad.fdr", "relation R\nattrs A\nrow x | 1\n");
    let (_, err, ok) = fdrepair(&["check", path.to_str().unwrap()]);
    assert!(!ok);
    assert!(err.contains("line 3"), "got:\n{err}");
}

#[test]
fn repair_threads_flag_keeps_the_cost_and_report() {
    let path = write_temp("cli_threads.fdr", OFFICE_FDR);
    let path = path.to_str().unwrap();
    let (seq, _, ok) = fdrepair(&["repair", "--json", path]);
    assert!(ok);
    let (par, _, ok) = fdrepair(&["repair", "--json", "--threads", "4", path]);
    assert!(ok);
    let strip_timings = |text: &str| {
        let mut json = fd_repairs::Json::parse(text.trim()).unwrap();
        if let fd_repairs::Json::Obj(pairs) = &mut json {
            pairs.retain(|(k, _)| k != "timings");
        }
        json.to_string()
    };
    assert_eq!(strip_timings(&seq), strip_timings(&par));
    let json = fd_repairs::Json::parse(par.trim()).unwrap();
    assert_eq!(json.get("cost").unwrap().as_num(), Some(2.0));
}

#[test]
fn serve_usage_errors() {
    // `serve` takes no file argument…
    let path = write_temp("cli_serve_extra.fdr", OFFICE_FDR);
    let (_, err, code) = fdrepair_code(&["serve", path.to_str().unwrap()]);
    assert_eq!(code, 2);
    assert!(err.contains("serve takes no file argument"), "got:\n{err}");
    // …its numeric flags validate…
    let (_, _, code) = fdrepair_code(&["serve", "--threads", "many"]);
    assert_eq!(code, 2);
    let (_, _, code) = fdrepair_code(&["serve", "--cache-entries", "-3"]);
    assert_eq!(code, 2);
    // …and an unbindable address is a runtime failure, not a hang.
    let (_, err, code) = fdrepair_code(&["serve", "--addr", "999.0.0.1:1"]);
    assert_eq!(code, 1);
    assert!(err.contains("cannot bind"), "got:\n{err}");
}

#[test]
fn serve_usage_mentions_the_service() {
    let (out, _, ok) = fdrepair(&["--help"]);
    assert!(ok);
    assert!(out.contains("serve"), "got:\n{out}");
    assert!(out.contains("--cache-entries"), "got:\n{out}");
}

#[test]
fn fuzz_smoke_agrees_on_small_campaigns() {
    // A bounded differential campaign: engine vs oracle on 8 cases per
    // notion must find no divergence (exit 0) and print one summary
    // line per notion.
    let (out, _, code) = fdrepair_code(&["fuzz", "--cases", "8", "--seed", "7"]);
    assert_eq!(code, 0, "got:\n{out}");
    for notion in ["s", "u", "mixed", "mpd"] {
        assert!(
            out.contains(&format!("fuzz --notion {notion}: 8 cases")),
            "missing {notion} summary:\n{out}"
        );
    }
    assert!(out.contains("0 divergence(s)"), "got:\n{out}");
}

#[test]
fn fuzz_usage_errors() {
    // `fuzz` takes no file argument…
    let path = write_temp("cli_fuzz_extra.fdr", OFFICE_FDR);
    let (_, err, code) = fdrepair_code(&["fuzz", path.to_str().unwrap()]);
    assert_eq!(code, 2);
    assert!(err.contains("fuzz takes no file argument"), "got:\n{err}");
    // …its notion is restricted to the oracle-backed four…
    let (_, err, code) = fdrepair_code(&["fuzz", "--notion", "count"]);
    assert_eq!(code, 2);
    assert!(err.contains("s|u|mixed|mpd"), "got:\n{err}");
    // …and the numeric flags validate.
    let (_, _, code) = fdrepair_code(&["fuzz", "--cases", "many"]);
    assert_eq!(code, 2);
    let (_, _, code) = fdrepair_code(&["fuzz", "--max-rows", "-1"]);
    assert_eq!(code, 2);
}

/// A generated instance whose JSON report is far larger than a pipe's
/// buffer, so writing it cannot finish before the reader goes away.
fn large_instance(name: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(name);
    let (_, err, code) = fdrepair_code(&[
        "gen",
        path.to_str().unwrap(),
        "--rows",
        "20000",
        "--workload",
        "tractable",
        "--seed",
        "3",
    ]);
    assert_eq!(code, 0, "gen failed:\n{err}");
    path
}

/// A failed report write is one error line and exit 1, not a panic.
fn assert_clean_write_failure(status: std::process::ExitStatus, stderr: &[u8]) {
    let err = String::from_utf8_lossy(stderr);
    assert_eq!(status.code(), Some(1), "stderr:\n{err}");
    assert!(
        err.starts_with("fdrepair: cannot write the report: "),
        "got:\n{err}"
    );
    assert_eq!(err.lines().count(), 1, "got:\n{err}");
    assert!(!err.contains("panicked"), "got:\n{err}");
}

#[cfg(target_os = "linux")]
#[test]
fn repair_json_into_a_full_disk_fails_cleanly() {
    let full = std::path::Path::new("/dev/full");
    if !full.exists() {
        return;
    }
    let path = write_temp("cli_dev_full.fdr", OFFICE_FDR);
    for command in ["repair", "mutate"] {
        let mut args = vec![command, "--json", path.to_str().unwrap()];
        let trace = write_temp(
            "cli_dev_full_trace.json",
            r#"[{"op": "set", "id": 0, "attr": "city", "value": "Rome"}]"#,
        );
        if command == "mutate" {
            args.extend(["--mutations", trace.to_str().unwrap()]);
        }
        let out = Command::new(env!("CARGO_BIN_EXE_fdrepair"))
            .args(&args)
            .stdout(std::fs::File::create(full).expect("/dev/full opens"))
            .output()
            .expect("binary runs");
        assert_clean_write_failure(out.status, &out.stderr);
    }
}

#[test]
fn repair_json_into_a_closed_pipe_fails_cleanly() {
    let path = large_instance("cli_closed_pipe.fdr");
    let mut child = Command::new(env!("CARGO_BIN_EXE_fdrepair"))
        .args(["repair", "--json", path.to_str().unwrap()])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary runs");
    // Close the read end before the report (about 1 MB) is written.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("binary exits");
    assert_clean_write_failure(out.status, &out.stderr);
}

#[test]
fn text_output_into_a_closed_pipe_fails_cleanly() {
    let path = large_instance("cli_closed_pipe_text.fdr");
    for command in ["repair", "check", "count", "explain"] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_fdrepair"))
            .args([command, path.to_str().unwrap()])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("binary runs");
        // Close the read end before the text is written.
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("binary exits");
        assert_clean_write_failure(out.status, &out.stderr);
    }
}

#[test]
fn repair_trace_summary_lists_the_serialize_span() {
    let path = write_temp("cli_trace_serialize.fdr", OFFICE_FDR);
    let trace = std::env::temp_dir().join("cli_trace_serialize.json");
    let (out, err, code) = fdrepair_code(&[
        "repair",
        "--json",
        "--trace",
        trace.to_str().unwrap(),
        path.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "stderr:\n{err}");
    assert!(fd_repairs::Json::parse(out.trim()).is_ok(), "got:\n{out}");
    let line = err
        .lines()
        .find(|l| l.starts_with("engine/serialize "))
        .unwrap_or_else(|| panic!("no engine/serialize row in the summary:\n{err}"));
    // One span: the report is written once.
    assert_eq!(line.split_whitespace().nth(1), Some("1"), "got:\n{err}");
    let chrome = std::fs::read_to_string(&trace).expect("trace written");
    assert!(chrome.contains("engine/serialize"), "got:\n{chrome}");
}
