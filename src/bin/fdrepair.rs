//! `fdrepair` — command-line optimal repairs for functional dependencies,
//! a thin client of the unified [`fd_engine`] call path: every command
//! builds a [`RepairRequest`], hands it to the [`Planner`], and renders
//! the [`RepairReport`] as text or (with `--json`) as machine-readable
//! JSON.
//!
//! ```text
//! fdrepair repair   <file>    unified repair: --notion <s|u|mixed|mpd>
//! fdrepair classify <file>    dichotomy, Figure-2 class, keys, normal forms
//! fdrepair check    <file>    consistency report and conflicting pairs
//! fdrepair explain  <file>    print the engine's plan without running it
//! fdrepair srepair  <file>    alias of `repair --notion s`
//! fdrepair urepair  <file>    alias of `repair --notion u`
//! fdrepair mpd      <file>    alias of `repair --notion mpd`
//! fdrepair count    <file>    number of (optimal) subset repairs
//! fdrepair sample   <file>    uniformly random subset repair (chain Δ)
//! fdrepair mutate   <file>    replay --mutations <trace> incrementally
//! fdrepair serve              HTTP repair service (POST /repair, /explain)
//! fdrepair fuzz               differential fuzz: engine vs brute-force oracle
//! fdrepair gen      <file>    write a synthetic scale instance as .fdr
//! ```
//!
//! `<file>` is either a `.fdr` instance (schema + FDs + rows; format
//! documented in `fd_repairs::instance`, example in
//! `examples/data/office.fdr`) or a `.csv` file, in which case the FDs
//! come from `--fds "A -> B; B -> C"` and an optional `--weight <column>`
//! names the tuple-weight column.
//!
//! Exit codes: `0` success, `1` I/O or solve error, `2` usage error.

use fd_repairs::instance::Instance;
use fd_repairs::prelude::*;
use std::io::{BufWriter, Write};
use std::process::ExitCode;

const USAGE: &str = "\
usage: fdrepair <command> <file.fdr> [options]
       fdrepair <command> <file.csv> --fds \"A -> B; B -> C\" [--weight <column>]
       fdrepair serve [--addr <ip:port>] [--threads <n>] [--cache-entries <n>]
                      [--max-body-bytes <n>] [--max-connections <n>]
                      [--table-quota <n>] [--table-rows-quota <n>]
       fdrepair fuzz [--notion <s|u|mixed|mpd|mutate>] [--cases <n>] [--seed <n>]
                     [--max-rows <n>]
       fdrepair mutate <file.fdr> --mutations <trace.json> [--json]
       fdrepair gen <out.fdr> --rows <n> [--workload <tractable|hard>] [--seed <n>]

commands:
  repair      unified repair; pick the notion with --notion <s|u|mixed|mpd>
  classify    dichotomy side, Figure-2 class, keys, normal forms
  check       consistency report and conflicting pairs
  explain     print the engine's plan without running it
  srepair     alias of `repair --notion s`
  urepair     alias of `repair --notion u`
  mpd         alias of `repair --notion mpd`
  count       number of (optimal) subset repairs
  sample      uniformly random subset repair (chain Δ only)
  mutate      replay a mutation trace (--mutations <file>) through an
              incremental session; report the subset repair of the
              mutated table, bit-identical to a cold solve
  serve       HTTP service: POST /repair, POST /explain, PUT/GET/DELETE
              /tables/{id}, GET /healthz, /metrics
  fuzz        differential fuzzing: random instances, engine vs brute-force
              oracle; divergences shrink to a .fdr counterexample (exit 1)
  gen         write a deterministic synthetic instance (fd-gen scale
              workloads) as .fdr — bench/CI fodder, not real data

options:
  --fds <spec>         FD set for CSV input (e.g. \"A -> B; B -> C\")
  --weight <column>    CSV column holding tuple weights
  --notion <name>      repair notion: s, u, mixed, mpd (default: s)
  --json               emit the full report as JSON on stdout
  --output <file>      write the repaired instance as .fdr
  --trace <file>       write a Chrome trace-event JSON profile of the run
                       (open in chrome://tracing or ui.perfetto.dev); a
                       per-span summary goes to stderr
  --no-timings         zero the report's timings block, making repeated
                       runs byte-identical (the wire's include_timings)
  --mutations <file>   mutate: JSON array of steps — {\"op\": \"insert\",
                       \"values\": [...], \"weight\": w}, {\"op\": \"delete\",
                       \"id\": n}, {\"op\": \"set\", \"id\": n, \"attr\": \"A\",
                       \"value\": v}
  --seed <n>           RNG seed for `sample` / `fuzz` (default: OS / 7)
  --cases <n>          fuzz: number of random cases per notion (default 200)
  --max-rows <n>       fuzz: largest table to draw (default: per-notion
                       oracle-safe bound)
  --exact              require a provably optimal result
  --max-ratio <r>      accept a guaranteed approximation ratio up to r
  --delete-cost <x>    mixed repair: cost multiplier per deleted tuple
  --update-cost <x>    mixed repair: cost multiplier per changed cell
  --threads <n>        worker threads: component fan-out of the sharded
                       subset/update solve, or the serve pool
                       (0 = ask the OS; default 1 / serve 4)
  --component-exact-limit <n>
                       sharded solve: hard-side components up to n rows
                       use the exact vertex-cover baseline (default 64)
  --addr <ip:port>     serve: bind address (default 127.0.0.1:7878)
  --cache-entries <n>  serve: LRU result-cache capacity (0 disables)
  --max-body-bytes <n> serve: largest accepted request body
  --no-access-log      serve: silence the per-request JSON access log
                       (one line per request on stderr, shed 503s included)
  --max-connections <n>
                       serve: open sockets the event loop holds at once;
                       beyond it new connections are closed (0 = 1024)
  --table-quota <n>    serve: stored tables allowed per tenant via
                       PUT /tables/{id} (0 = unlimited)
  --table-rows-quota <n>
                       serve: total rows at rest per tenant (0 = unlimited)
  --portable-poller    serve: use the portable tick-based poller even
                       where epoll is available (debug/CI aid)
  --rows <n>           gen: rows to generate (default 100000)
  --workload <name>    gen: tractable (K -> A B) or hard (A -> C; B -> C)
  -h, --help           print this help
  --version            print the version

exit codes: 0 success, 1 I/O or solve error, 2 usage error";

/// Everything parsed from the command line.
struct Cli {
    command: String,
    path: String,
    fd_spec: Option<String>,
    weight_col: Option<String>,
    notion: Option<String>,
    json: bool,
    output: Option<String>,
    seed: Option<u64>,
    exact: bool,
    max_ratio: Option<f64>,
    delete_cost: f64,
    update_cost: f64,
    threads: Option<usize>,
    component_exact_limit: Option<usize>,
    addr: Option<String>,
    cache_entries: Option<usize>,
    max_body_bytes: Option<usize>,
    cases: Option<usize>,
    max_rows: Option<usize>,
    trace: Option<String>,
    no_timings: bool,
    no_access_log: bool,
    max_connections: Option<usize>,
    table_quota: Option<usize>,
    table_rows_quota: Option<usize>,
    portable_poller: bool,
    rows: Option<usize>,
    workload: Option<String>,
    mutations: Option<String>,
}

enum CliOutcome {
    Run(Box<Cli>),
    /// `--help` / `--version`: printed, exit 0.
    Done,
    /// Usage error: printed to stderr, exit 2.
    Usage,
}

fn parse_args(args: &[String]) -> CliOutcome {
    // --help/--version anywhere win, even without a file argument.
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return CliOutcome::Done;
    }
    if args.iter().any(|a| a == "--version") {
        println!("fdrepair {}", env!("CARGO_PKG_VERSION"));
        return CliOutcome::Done;
    }
    let mut cli = Cli {
        command: String::new(),
        path: String::new(),
        fd_spec: None,
        weight_col: None,
        notion: None,
        json: false,
        output: None,
        seed: None,
        exact: false,
        max_ratio: None,
        delete_cost: 1.0,
        update_cost: 1.0,
        threads: None,
        component_exact_limit: None,
        addr: None,
        cache_entries: None,
        max_body_bytes: None,
        cases: None,
        max_rows: None,
        trace: None,
        no_timings: false,
        no_access_log: false,
        max_connections: None,
        table_quota: None,
        table_rows_quota: None,
        portable_poller: false,
        rows: None,
        workload: None,
        mutations: None,
    };
    // Flags may appear anywhere; the first two non-flag arguments are the
    // command and the file.
    let mut positional: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !flag.starts_with('-') {
            positional.push(flag);
            continue;
        }
        let mut value = |name: &str| match it.next() {
            Some(v) => Some(v.clone()),
            None => {
                eprintln!("fdrepair: {name} needs a value\n{USAGE}");
                None
            }
        };
        match flag.as_str() {
            "--json" => cli.json = true,
            "--exact" => cli.exact = true,
            "--fds" => match value("--fds") {
                Some(v) => cli.fd_spec = Some(v),
                None => return CliOutcome::Usage,
            },
            "--weight" => match value("--weight") {
                Some(v) => cli.weight_col = Some(v),
                None => return CliOutcome::Usage,
            },
            "--notion" => match value("--notion") {
                Some(v) => cli.notion = Some(v),
                None => return CliOutcome::Usage,
            },
            "--output" => match value("--output") {
                Some(v) => cli.output = Some(v),
                None => return CliOutcome::Usage,
            },
            "--seed" => match value("--seed").map(|v| v.parse::<u64>()) {
                Some(Ok(v)) => cli.seed = Some(v),
                Some(Err(_)) => {
                    eprintln!("fdrepair: --seed needs an integer\n{USAGE}");
                    return CliOutcome::Usage;
                }
                None => return CliOutcome::Usage,
            },
            "--max-ratio" => match value("--max-ratio").map(|v| v.parse::<f64>()) {
                Some(Ok(v)) => cli.max_ratio = Some(v),
                Some(Err(_)) => {
                    eprintln!("fdrepair: --max-ratio needs a number\n{USAGE}");
                    return CliOutcome::Usage;
                }
                None => return CliOutcome::Usage,
            },
            "--delete-cost" => match value("--delete-cost").map(|v| v.parse::<f64>()) {
                Some(Ok(v)) => cli.delete_cost = v,
                Some(Err(_)) => {
                    eprintln!("fdrepair: --delete-cost needs a number\n{USAGE}");
                    return CliOutcome::Usage;
                }
                None => return CliOutcome::Usage,
            },
            "--update-cost" => match value("--update-cost").map(|v| v.parse::<f64>()) {
                Some(Ok(v)) => cli.update_cost = v,
                Some(Err(_)) => {
                    eprintln!("fdrepair: --update-cost needs a number\n{USAGE}");
                    return CliOutcome::Usage;
                }
                None => return CliOutcome::Usage,
            },
            "--threads" => match value("--threads").map(|v| v.parse::<usize>()) {
                Some(Ok(v)) => cli.threads = Some(v),
                Some(Err(_)) => {
                    eprintln!("fdrepair: --threads needs an integer\n{USAGE}");
                    return CliOutcome::Usage;
                }
                None => return CliOutcome::Usage,
            },
            "--component-exact-limit" => {
                match value("--component-exact-limit").map(|v| v.parse::<usize>()) {
                    Some(Ok(v)) => cli.component_exact_limit = Some(v),
                    Some(Err(_)) => {
                        eprintln!("fdrepair: --component-exact-limit needs an integer\n{USAGE}");
                        return CliOutcome::Usage;
                    }
                    None => return CliOutcome::Usage,
                }
            }
            "--addr" => match value("--addr") {
                Some(v) => cli.addr = Some(v),
                None => return CliOutcome::Usage,
            },
            "--cache-entries" => match value("--cache-entries").map(|v| v.parse::<usize>()) {
                Some(Ok(v)) => cli.cache_entries = Some(v),
                Some(Err(_)) => {
                    eprintln!("fdrepair: --cache-entries needs an integer\n{USAGE}");
                    return CliOutcome::Usage;
                }
                None => return CliOutcome::Usage,
            },
            "--max-body-bytes" => match value("--max-body-bytes").map(|v| v.parse::<usize>()) {
                Some(Ok(v)) => cli.max_body_bytes = Some(v),
                Some(Err(_)) => {
                    eprintln!("fdrepair: --max-body-bytes needs an integer\n{USAGE}");
                    return CliOutcome::Usage;
                }
                None => return CliOutcome::Usage,
            },
            "--cases" => match value("--cases").map(|v| v.parse::<usize>()) {
                Some(Ok(v)) => cli.cases = Some(v),
                Some(Err(_)) => {
                    eprintln!("fdrepair: --cases needs an integer\n{USAGE}");
                    return CliOutcome::Usage;
                }
                None => return CliOutcome::Usage,
            },
            "--max-rows" => match value("--max-rows").map(|v| v.parse::<usize>()) {
                Some(Ok(v)) => cli.max_rows = Some(v),
                Some(Err(_)) => {
                    eprintln!("fdrepair: --max-rows needs an integer\n{USAGE}");
                    return CliOutcome::Usage;
                }
                None => return CliOutcome::Usage,
            },
            "--trace" => match value("--trace") {
                Some(v) => cli.trace = Some(v),
                None => return CliOutcome::Usage,
            },
            "--no-timings" => cli.no_timings = true,
            "--no-access-log" => cli.no_access_log = true,
            "--portable-poller" => cli.portable_poller = true,
            "--max-connections" => match value("--max-connections").map(|v| v.parse::<usize>()) {
                Some(Ok(v)) => cli.max_connections = Some(v),
                Some(Err(_)) => {
                    eprintln!("fdrepair: --max-connections needs an integer\n{USAGE}");
                    return CliOutcome::Usage;
                }
                None => return CliOutcome::Usage,
            },
            "--table-quota" => match value("--table-quota").map(|v| v.parse::<usize>()) {
                Some(Ok(v)) => cli.table_quota = Some(v),
                Some(Err(_)) => {
                    eprintln!("fdrepair: --table-quota needs an integer\n{USAGE}");
                    return CliOutcome::Usage;
                }
                None => return CliOutcome::Usage,
            },
            "--table-rows-quota" => match value("--table-rows-quota").map(|v| v.parse::<usize>()) {
                Some(Ok(v)) => cli.table_rows_quota = Some(v),
                Some(Err(_)) => {
                    eprintln!("fdrepair: --table-rows-quota needs an integer\n{USAGE}");
                    return CliOutcome::Usage;
                }
                None => return CliOutcome::Usage,
            },
            "--rows" => match value("--rows").map(|v| v.parse::<usize>()) {
                Some(Ok(v)) => cli.rows = Some(v),
                Some(Err(_)) => {
                    eprintln!("fdrepair: --rows needs an integer\n{USAGE}");
                    return CliOutcome::Usage;
                }
                None => return CliOutcome::Usage,
            },
            "--workload" => match value("--workload") {
                Some(v) => cli.workload = Some(v),
                None => return CliOutcome::Usage,
            },
            "--mutations" => match value("--mutations") {
                Some(v) => cli.mutations = Some(v),
                None => return CliOutcome::Usage,
            },
            other => {
                eprintln!("fdrepair: unexpected argument {other:?}\n{USAGE}");
                return CliOutcome::Usage;
            }
        }
    }
    // MixedCosts::new asserts on its inputs; reject them here so bad
    // multipliers are a usage error (exit 2), not a panic.
    for (flag, v) in [
        ("--delete-cost", cli.delete_cost),
        ("--update-cost", cli.update_cost),
    ] {
        if !(v > 0.0 && v.is_finite()) {
            eprintln!("fdrepair: {flag} must be a positive finite number, got {v}\n{USAGE}");
            return CliOutcome::Usage;
        }
    }
    // `serve` and `fuzz` are the commands without a file argument.
    match positional.as_slice() {
        [command] if matches!(command.as_str(), "serve" | "fuzz") => {
            cli.command = (*command).clone();
        }
        [command, path] => {
            cli.command = (*command).clone();
            cli.path = (*path).clone();
        }
        _ => {
            eprintln!("{USAGE}");
            return CliOutcome::Usage;
        }
    }
    CliOutcome::Run(Box::new(cli))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        CliOutcome::Run(cli) => cli,
        CliOutcome::Done => return ExitCode::SUCCESS,
        CliOutcome::Usage => return ExitCode::from(2),
    };

    if cli.command == "serve" || cli.command == "fuzz" {
        if !cli.path.is_empty() {
            eprintln!("fdrepair: {} takes no file argument\n{USAGE}", cli.command);
            return ExitCode::from(2);
        }
        return if cli.command == "serve" {
            serve(&cli)
        } else {
            fuzz(&cli)
        };
    }
    if cli.command == "gen" {
        return gen(&cli);
    }

    // Resolve the command and its notion before reading the input, so a
    // usage error is reported as one (exit 2) even when the file is bad.
    let notion = match cli.command.as_str() {
        "repair" | "explain" => match cli.notion.as_deref() {
            None => Some(Notion::Subset),
            Some(name) => match Notion::parse(name) {
                Some(n) => Some(n),
                None => {
                    eprintln!("fdrepair: unknown notion {name:?}\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
        },
        "srepair" => Some(Notion::Subset),
        "urepair" => Some(Notion::Update),
        "mpd" => Some(Notion::Mpd),
        "count" => Some(Notion::Count),
        "sample" => Some(Notion::Sample),
        "classify" => Some(Notion::Classify),
        "check" | "mutate" => None,
        other => {
            eprintln!("fdrepair: unknown command {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    // --trace: install a per-run collector early so the load phase
    // (CSV/.fdr interning) lands in the profile alongside the solve.
    let collector = cli.trace.as_ref().map(|_| fd_trace::Collector::default());
    let _trace_guard = collector.as_ref().map(fd_trace::Collector::install);

    let parsed = if cli.path.ends_with(".csv") {
        let Some(spec) = cli.fd_spec.as_deref() else {
            eprintln!("fdrepair: CSV input needs --fds \"<spec>\"\n{USAGE}");
            return ExitCode::from(2);
        };
        let relation = std::path::Path::new(&cli.path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("R");
        // Stream the CSV straight off disk: million-row inputs load
        // without the raw text ever being held in memory.
        match std::fs::File::open(&cli.path) {
            Ok(file) => Instance::from_csv_reader(
                relation,
                std::io::BufReader::new(file),
                spec,
                cli.weight_col.as_deref(),
            ),
            Err(e) => {
                eprintln!("fdrepair: cannot read {}: {e}", cli.path);
                return ExitCode::FAILURE;
            }
        }
    } else {
        match std::fs::read_to_string(&cli.path) {
            Ok(text) => Instance::parse(&text),
            Err(e) => {
                eprintln!("fdrepair: cannot read {}: {e}", cli.path);
                return ExitCode::FAILURE;
            }
        }
    };
    let instance = match parsed {
        Ok(i) => i,
        Err(e) => {
            eprintln!("fdrepair: {}: {e}", cli.path);
            return ExitCode::FAILURE;
        }
    };

    match (cli.command.as_str(), notion) {
        ("check", _) => emit(|out| check(out, &instance, cli.json))
            .err()
            .unwrap_or(ExitCode::SUCCESS),
        ("mutate", _) => mutate(&cli, &instance),
        ("explain", Some(notion)) => {
            let request = build_request(&cli, notion);
            let rendered = if cli.json {
                Planner
                    .plan(&instance.table, &instance.fds, &request)
                    .map(|plan| format!("{}\n", plan.to_json_value()))
            } else {
                Planner.explain(&instance.table, &instance.fds, &request)
            };
            match rendered {
                Ok(text) => emit(|out| out.write_all(text.as_bytes()))
                    .err()
                    .unwrap_or(ExitCode::SUCCESS),
                Err(e) => {
                    eprintln!("fdrepair: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        (_, Some(notion)) => {
            let request = build_request(&cli, notion);
            match Planner.run(&instance.table, &instance.fds, &request) {
                Ok(mut report) => {
                    if cli.no_timings {
                        report.timings = Timings::default();
                    }
                    if let Some(path) = cli.output.as_deref() {
                        let Some(repaired) = report.repaired() else {
                            eprintln!(
                                "fdrepair: --output needs a repairing notion, not {:?}",
                                notion.name()
                            );
                            return ExitCode::from(2);
                        };
                        let out = Instance {
                            schema: instance.schema.clone(),
                            fds: instance.fds.clone(),
                            table: repaired.clone(),
                        };
                        if let Err(e) = std::fs::write(path, out.to_fdr()) {
                            eprintln!("fdrepair: cannot write {path}: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                    if let Err(code) = print_report(&instance, &report, cli.json) {
                        return code;
                    }
                    if let (Some(path), Some(collector)) =
                        (cli.trace.as_deref(), collector.as_ref())
                    {
                        if let Err(e) = std::fs::write(path, collector.to_chrome_json()) {
                            eprintln!("fdrepair: cannot write trace {path}: {e}");
                            return ExitCode::FAILURE;
                        }
                        eprint!("{}", collector.summary());
                        eprintln!(
                            "trace written to {path} (open in chrome://tracing or ui.perfetto.dev)"
                        );
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("fdrepair: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => unreachable!("every command resolves above"),
    }
}

fn build_request(cli: &Cli, notion: Notion) -> RepairRequest {
    let mut request =
        RepairRequest::new(notion).mixed_costs(MixedCosts::new(cli.delete_cost, cli.update_cost));
    if let Some(seed) = cli.seed {
        request = request.seed(seed);
    }
    if let Some(threads) = cli.threads {
        request = request.threads(threads);
    }
    if let Some(limit) = cli.component_exact_limit {
        // The per-component cutoff is capped by the global
        // exponential-work allowance; a user raising the flag means to
        // raise the allowance with it.
        request = request.component_exact_limit(limit);
        if request.budgets.exact_fallback_limit < limit {
            request = request.exact_fallback_limit(limit);
        }
    }
    if cli.exact {
        request = request.optimality(Optimality::Exact);
    } else if let Some(max_ratio) = cli.max_ratio {
        request = request.optimality(Optimality::Approximate { max_ratio });
    }
    request
}

/// `fdrepair mutate`: replays a wire mutation trace (a JSON array of
/// `{"op": "insert"|"delete"|"set", ...}` steps, the format the fuzzer
/// shrinks divergences to) against the instance through an
/// [`IncrementalSession`], then reports the subset repair of the
/// mutated table — bit-identical to a cold solve with zeroed timings.
fn mutate(cli: &Cli, instance: &Instance) -> ExitCode {
    let Some(trace_path) = cli.mutations.as_deref() else {
        eprintln!("fdrepair: mutate needs --mutations <trace.json>\n{USAGE}");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(trace_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("fdrepair: cannot read {trace_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let trace = match parse_mutation_trace(&text, &JsonLimits::UNTRUSTED) {
        Ok(trace) => trace,
        Err(e) => {
            eprintln!("fdrepair: {trace_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let request = build_request(cli, Notion::Subset);
    let mut session =
        match IncrementalSession::new(instance.table.clone(), instance.fds.clone(), request) {
            Ok(session) => session,
            Err(e) => {
                eprintln!("fdrepair: {e}");
                return ExitCode::FAILURE;
            }
        };
    for (step, wire) in trace.iter().enumerate() {
        let resolved = match wire.resolve(&instance.schema) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("fdrepair: mutation {step}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = session.apply(&resolved) {
            eprintln!("fdrepair: mutation {step}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let report = match session.report() {
        Ok(report) => report,
        Err(e) => {
            eprintln!("fdrepair: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mutated = Instance {
        schema: instance.schema.clone(),
        fds: instance.fds.clone(),
        table: session.table().clone(),
    };
    if let Some(path) = cli.output.as_deref() {
        let repaired = report.repaired().expect("subset reports carry a table");
        let out = Instance {
            schema: instance.schema.clone(),
            fds: instance.fds.clone(),
            table: repaired.clone(),
        };
        if let Err(e) = std::fs::write(path, out.to_fdr()) {
            eprintln!("fdrepair: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let printed = if cli.json {
        print_report(&mutated, &report, true)
    } else {
        emit(|out| {
            writeln!(
                out,
                "applied {} mutation(s): {} row(s) now, served by {}",
                session.steps(),
                session.table().len(),
                if session.is_incremental() {
                    "the delta engine"
                } else {
                    "cold solves"
                }
            )?;
            render(out, &mutated, &report)
        })
    };
    printed.err().unwrap_or(ExitCode::SUCCESS)
}

/// `fdrepair fuzz`: differential campaigns, engine vs brute-force
/// oracle; each divergence shrinks to a `.fdr` counterexample written to
/// the working directory. Exit 0 iff every notion agreed everywhere.
fn fuzz(cli: &Cli) -> ExitCode {
    use fd_oracle::{run_fuzz, FuzzConfig, FuzzNotion};
    let notions: Vec<FuzzNotion> = match cli.notion.as_deref() {
        None => vec![
            FuzzNotion::Subset,
            FuzzNotion::Update,
            FuzzNotion::Mixed,
            FuzzNotion::Mpd,
            FuzzNotion::Mutate,
        ],
        Some(name) => match FuzzNotion::parse(name) {
            Some(n) => vec![n],
            None => {
                eprintln!(
                    "fdrepair: fuzz supports --notion s|u|mixed|mpd|mutate, got {name:?}\n{USAGE}"
                );
                return ExitCode::from(2);
            }
        },
    };
    let cases = cli.cases.unwrap_or(200);
    let seed = cli.seed.unwrap_or(7);
    let mut failed = false;
    for notion in notions {
        let config = FuzzConfig {
            notion,
            cases,
            seed,
            max_rows: cli.max_rows.unwrap_or(0),
        };
        let summary = run_fuzz(&config);
        println!(
            "fuzz --notion {}: {} cases (seed {}), {} optimal, {} approximate, {} divergence(s)",
            notion.name(),
            summary.cases,
            seed,
            summary.optimal_cases,
            summary.approximate_cases,
            summary.divergences.len()
        );
        for d in &summary.divergences {
            failed = true;
            eprintln!(
                "fdrepair: DIVERGENCE case {} (seed {}, schema {}): {}",
                d.case_index, d.case_seed, d.schema_name, d.message
            );
            let stem = format!("fuzz-{}-{}", notion.name(), d.case_seed);
            for (suffix, contents, note) in [
                (".fdr", &d.instance_fdr, "instance (request in header)"),
                (
                    ".call.json",
                    &d.call_json,
                    "full call, replays via POST /repair",
                ),
            ] {
                let path = format!("{stem}{suffix}");
                match std::fs::write(&path, contents) {
                    Ok(()) => eprintln!("  {note} written to {path}"),
                    Err(e) => eprintln!("  cannot write {path}: {e}"),
                }
            }
            // Mutate divergences also carry the shrunk trace: replay it
            // with `fdrepair mutate <stem>.fdr --mutations <stem>.trace`.
            if let Some(trace) = &d.trace_json {
                let path = format!("{stem}.trace");
                match std::fs::write(&path, trace) {
                    Ok(()) => eprintln!("  mutation trace written to {path}"),
                    Err(e) => eprintln!("  cannot write {path}: {e}"),
                }
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `fdrepair gen`: deterministic synthetic scale instances as `.fdr` —
/// bench/CI fodder with bounded conflict components by construction.
fn gen(cli: &Cli) -> ExitCode {
    let rows = cli.rows.unwrap_or(100_000);
    let seed = cli.seed.unwrap_or(42);
    let workload = cli.workload.as_deref().unwrap_or("tractable");
    let (schema, fds, table) = match workload {
        "tractable" => fd_gen::scale::tractable_scale(rows, false, seed),
        "hard" => fd_gen::scale::hard_scale(rows, false, seed),
        other => {
            eprintln!("fdrepair: gen supports --workload tractable|hard, got {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let instance = Instance { schema, fds, table };
    match std::fs::write(&cli.path, instance.to_fdr()) {
        Ok(()) => {
            println!(
                "fdrepair: wrote {rows} row(s) ({workload}, seed {seed}) to {}",
                cli.path
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fdrepair: cannot write {}: {e}", cli.path);
            ExitCode::FAILURE
        }
    }
}

/// `fdrepair serve`: bind, wire ctrl-c to graceful shutdown, serve.
fn serve(cli: &Cli) -> ExitCode {
    let defaults = fd_serve::ServeConfig::default();
    let config = fd_serve::ServeConfig {
        addr: cli.addr.clone().unwrap_or(defaults.addr.clone()),
        threads: cli.threads.unwrap_or(defaults.threads),
        cache_entries: cli.cache_entries.unwrap_or(defaults.cache_entries),
        max_body_bytes: cli.max_body_bytes.unwrap_or(defaults.max_body_bytes),
        access_log: !cli.no_access_log,
        max_connections: cli.max_connections.unwrap_or(defaults.max_connections),
        max_tables_per_tenant: cli.table_quota.unwrap_or(defaults.max_tables_per_tenant),
        max_rows_per_tenant: cli.table_rows_quota.unwrap_or(defaults.max_rows_per_tenant),
        portable_poller: cli.portable_poller || defaults.portable_poller,
        ..defaults
    };
    let server = match fd_serve::Server::bind(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("fdrepair: cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = match server.local_addr() {
        Ok(addr) => addr,
        Err(e) => {
            eprintln!("fdrepair: cannot read the bound address: {e}");
            return ExitCode::FAILURE;
        }
    };
    fd_serve::install_signal_handlers();
    println!("fdrepair: serving repairs on http://{addr} (ctrl-c to stop)");
    println!("  POST /repair       engine-JSON RepairRequest + instance → RepairReport");
    println!("  POST /explain      the same body → the plan, nothing solved");
    println!("  PUT  /tables/{{id}}  store a table; repair it later via \"table_ref\"");
    println!("  POST /tables/{{id}}/mutate  apply a mutation trace; delta + repair report");
    println!("  GET  /healthz      liveness");
    println!("  GET  /metrics      counters and latency quantiles");
    match server.run() {
        Ok(()) => {
            println!("fdrepair: shutdown complete");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fdrepair: server error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Writes to stdout through one locked buffer. A failed write (a closed
/// pipe, a full disk) prints one line and maps to exit 1.
fn emit(
    write: impl FnOnce(&mut BufWriter<std::io::StdoutLock<'static>>) -> std::io::Result<()>,
) -> std::result::Result<(), ExitCode> {
    let mut out = BufWriter::with_capacity(1 << 16, std::io::stdout().lock());
    write(&mut out).and_then(|()| out.flush()).map_err(|e| {
        eprintln!("fdrepair: cannot write the report: {e}");
        ExitCode::FAILURE
    })
}

/// Streams the report to stdout: its JSON and a newline, or the text
/// rendering.
fn print_report(
    inst: &Instance,
    report: &RepairReport,
    json: bool,
) -> std::result::Result<(), ExitCode> {
    emit(|out| {
        if json {
            report.write_json(out)?;
            out.write_all(b"\n")
        } else {
            render(out, inst, report)
        }
    })
}

/// Prints a repaired table for human eyes: small tables in full, large
/// ones only a head — rendering a million aligned rows costs more than
/// the solve, and the full table belongs in `--output` / `--json`.
fn render_table(out: &mut impl Write, label: &str, repaired: &Table) -> std::io::Result<()> {
    const FULL: usize = 200;
    const HEAD: u32 = 20;
    if repaired.len() <= FULL {
        writeln!(out, "{label}{repaired}")?;
    } else {
        let head: Vec<u32> = (0..HEAD).collect();
        writeln!(out, "{label}{}", repaired.gather_positions(&head))?;
        writeln!(
            out,
            "… {} more row(s) not shown (write the full table with --output or --json)",
            repaired.len() - HEAD as usize
        )?;
    }
    Ok(())
}

/// Renders a report in the human-readable style of the pre-engine CLI.
fn render(out: &mut impl Write, inst: &Instance, report: &RepairReport) -> std::io::Result<()> {
    match &report.body {
        ReportBody::Subset { deleted, repaired } => {
            writeln!(
                out,
                "method {}; optimal {}; guaranteed ratio {:.1}",
                report.methods.join("+"),
                report.optimal,
                report.ratio
            )?;
            writeln!(
                out,
                "delete {} tuple(s), dist_sub = {}",
                deleted.len(),
                report.cost
            )?;
            for id in deleted {
                let row = inst.table.row(*id).expect("id from table");
                writeln!(out, "  - tuple {id}: {} (weight {})", row.tuple, row.weight)?;
            }
            render_table(out, "\nrepaired table:\n", repaired)?;
        }
        ReportBody::Update { changed, repaired } => {
            writeln!(
                out,
                "methods [{}]; optimal {}; guaranteed ratio {:.1}",
                report.methods.join(", "),
                report.optimal,
                report.ratio
            )?;
            writeln!(
                out,
                "change {} cell(s), dist_upd = {}",
                changed.len(),
                report.cost
            )?;
            for cell in changed {
                writeln!(
                    out,
                    "  ~ tuple {}, {}: {} → {}",
                    cell.tuple, cell.attr, cell.old, cell.new
                )?;
            }
            render_table(out, "\nrepaired table:\n", repaired)?;
        }
        ReportBody::Mixed {
            deleted,
            changed,
            repaired,
        } => {
            writeln!(
                out,
                "method {}; optimal {}; guaranteed ratio {:.1}",
                report.methods.join("+"),
                report.optimal,
                report.ratio
            )?;
            writeln!(
                out,
                "delete {} tuple(s) and change {} cell(s), mixed cost = {}",
                deleted.len(),
                changed.len(),
                report.cost
            )?;
            for id in deleted {
                let row = inst.table.row(*id).expect("id from table");
                writeln!(out, "  - tuple {id}: {} (weight {})", row.tuple, row.weight)?;
            }
            for cell in changed {
                writeln!(
                    out,
                    "  ~ tuple {}, {}: {} → {}",
                    cell.tuple, cell.attr, cell.old, cell.new
                )?;
            }
            render_table(out, "\nrepaired table:\n", repaired)?;
        }
        ReportBody::Mpd {
            kept,
            probability,
            repaired,
        } => {
            writeln!(
                out,
                "most probable consistent world: {} of {} tuples, probability {:.6}",
                kept.len(),
                inst.table.len(),
                probability
            )?;
            render_table(out, "", repaired)?;
        }
        ReportBody::Count {
            subset_repairs,
            optimal_subset_repairs,
            notes,
        } => {
            if let Some(n) = subset_repairs {
                writeln!(out, "subset repairs (maximal consistent subsets): {n}")?;
            }
            if let Some(n) = optimal_subset_repairs {
                writeln!(out, "optimal subset repairs: {n}")?;
            }
            for note in notes {
                writeln!(out, "{note}")?;
            }
        }
        ReportBody::Sample { kept, repaired } => {
            writeln!(
                out,
                "uniformly sampled subset repair keeps {} tuple(s):",
                kept.len()
            )?;
            render_table(out, "", repaired)?;
        }
        ReportBody::Classify {
            keys,
            bcnf_violation,
            consistent,
            conflicts,
        } => {
            let schema = &inst.schema;
            writeln!(out, "schema : {schema}")?;
            writeln!(out, "Δ      : {}", inst.fds.display(schema))?;
            writeln!(out, "chain  : {}", report.dichotomy.chain)?;
            writeln!(out, "keys   : {}", keys.join(", "))?;
            match bcnf_violation {
                None => writeln!(out, "BCNF   : yes")?,
                Some(fd) => writeln!(out, "BCNF   : no ({fd} has a non-superkey lhs)")?,
            }
            writeln!(
                out,
                "input  : {}",
                if *consistent {
                    "consistent".to_string()
                } else {
                    format!("inconsistent ({conflicts} conflicting pairs)")
                }
            )?;

            let trace = simplification_trace(&inst.fds);
            writeln!(out, "\nOSRSucceeds trace:")?;
            for line in trace.display(schema).lines() {
                writeln!(out, "  {line}")?;
            }
            if report.dichotomy.osr_succeeds {
                writeln!(out, "\n⇒ optimal S-repairs: polynomial time (Theorem 3.4)")?;
            } else {
                writeln!(
                    out,
                    "\n⇒ optimal S-repairs: APX-complete; Figure-2 class {} via {}",
                    report.dichotomy.hard_class.expect("hard side"),
                    report.dichotomy.hard_core.as_deref().expect("hard side")
                )?;
            }
            writeln!(
                out,
                "U-repair approximation bounds: ours 2·mlc = {:.0}, Kolahi–Lakshmanan = {:.0}",
                report.dichotomy.ratio_ours, report.dichotomy.ratio_kl
            )?;
        }
    }
    Ok(())
}

fn check(out: &mut impl Write, inst: &Instance, json: bool) -> std::io::Result<()> {
    let consistent = inst.table.satisfies(&inst.fds);
    let pairs = if consistent {
        Vec::new()
    } else {
        inst.table.conflicting_pairs(&inst.fds)
    };
    if json {
        let doc = Json::obj([
            ("consistent", consistent.into()),
            ("conflicting_pairs", pairs.len().into()),
            (
                "pairs",
                Json::Arr(
                    pairs
                        .iter()
                        .map(|(i, j)| Json::Arr(vec![Json::Num(i.0 as f64), Json::Num(j.0 as f64)]))
                        .collect(),
                ),
            ),
        ]);
        return writeln!(out, "{doc}");
    }
    writeln!(out, "{}", inst.table)?;
    if consistent {
        return writeln!(out, "consistent: the table satisfies Δ");
    }
    writeln!(out, "inconsistent: {} conflicting pair(s)", pairs.len())?;
    for (i, j) in pairs.iter().take(20) {
        writeln!(out, "  tuples {i} and {j}")?;
    }
    if pairs.len() > 20 {
        writeln!(out, "  … and {} more", pairs.len() - 20)?;
    }
    Ok(())
}
