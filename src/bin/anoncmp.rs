//! `anoncmp` — command-line front end.
//!
//! ```text
//! anoncmp demo
//!     Walk through the paper's Table 1 example.
//!
//! anoncmp anonymize --input data.csv --qi age,zip --sensitive disease \
//!                   --k 5 [--algo mondrian] [--max-sup 20] [--output out.csv]
//!     Anonymize a CSV file (schema and hierarchies are inferred).
//!
//! anoncmp compare --input data.csv --qi age,zip --sensitive disease --k 5 \
//!                 [--jobs 4] [--methods noise:0.05,rankswap:8]
//!     Run all algorithms (in parallel, on the evaluation engine) and
//!     compare them with scalar and vector views. With --methods, the
//!     named perturbative methods join the tournament and every release
//!     is judged on the numeric bounded-loss property so the families
//!     stay commensurable.
//!
//! anoncmp risk --input data.csv --qi age,zip --sensitive disease [--threshold 0.2]
//!     Re-identification risk of releasing the file as-is.
//!
//! anoncmp serve [--addr 127.0.0.1:7171] [--threads N] [--max-inflight N]
//!     Run the long-lived comparison daemon (HTTP/1.1 + JSONL-over-TCP,
//!     see docs/WIRE_PROTOCOL.md). Drains and exits 0 on SIGINT/SIGTERM.
//!
//! anoncmp dist --dir DIR [--workers N] [--shards S] [--resume 1] [--chaos-seed N]
//!     Run a sweep grid sharded across N worker processes with a
//!     deterministic merge: `DIR/merged.jsonl` is byte-identical at any
//!     worker count, and a killed or stalled worker's shard is resumed
//!     by a survivor (`dist-worker` is the internal child entry point).
//! ```
//!
//! Schema inference: a column whose every value parses as an integer
//! becomes a numeric attribute with an automatic interval ladder; other
//! columns become categorical — with a character-masking hierarchy when
//! all values share one length, a flat one otherwise.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;

use anoncmp::microdata::csv as mdcsv;
use anoncmp::prelude::*;
// The prelude glob-exports the microdata `Result<T>` alias; commands use
// the std two-parameter form, so import it explicitly (named imports win
// over glob imports).
use std::result::Result;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match command.as_str() {
        "demo" => with_options(command, rest, &[], |_| demo()),
        "anonymize" => with_options(command, rest, ANONYMIZE_OPTIONS, anonymize),
        "compare" => with_options(command, rest, COMPARE_OPTIONS, compare),
        "frontier" => with_options(command, rest, INPUT_OPTIONS, frontier),
        "risk" => with_options(command, rest, RISK_OPTIONS, risk),
        "serve" => with_options(command, rest, SERVE_OPTIONS, serve_daemon),
        "dist" => with_options(command, rest, DIST_OPTIONS, dist),
        "dist-worker" => dist_worker(),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(1)
        }
    }
}

const USAGE: &str = "usage: anoncmp <demo|anonymize|compare|frontier|risk|serve|dist> [options]
  --input FILE        CSV file with a header row (required except for demo)
  --qi COLS           comma-separated quasi-identifier column names (required)
  --sensitive COL     sensitive column name (required)
  --k K               k-anonymity parameter (default 5)
  --algo NAME         datafly|samarati|incognito|subset-incognito|mondrian|greedy|
                      genetic|top-down|clustering|optimal (default mondrian)
  --max-sup N         suppression budget in tuples (default 0)
  --threshold P       risk threshold for `risk` (default 0.2)
  --output FILE       write the anonymized CSV here (anonymize only)
  --jobs N            engine worker threads for `compare` (default: one per CPU)
  --methods CSV       perturbative methods for `compare` (noise:0.05, cnoise:0.1,
                      rankswap:8, microagg:5, mdav:4, rwn:10); when present,
                      every job extracts the numeric bounded-loss property
  --resume FILE       checkpoint journal for `compare`: completed jobs are
                      appended fsync'd and replayed on re-run (crash-safe);
                      quarantined jobs land in FILE.failed.jsonl
  --max-retries N     retries for panicking/timed-out jobs (default 0)
  --chaos-seed N      deterministic fault injection for `compare` (testing)
serve options:
  --addr HOST:PORT    bind address (default 127.0.0.1:7171; port 0 = free port)
  --threads N         serving threads (default: one per CPU)
  --max-inflight N    admitted connections before shedding 429s (default 64)
  --release-cap N     release-cache LRU capacity, 0 = unbounded (default 256)
  --vector-cap N      vector-cache LRU capacity, 0 = unbounded (default 1024)
  --response-cap N    response-cache LRU capacity, 0 = unbounded (default 256)
  --engine-jobs N     engine workers per sweep (default: one per CPU)
  --max-rows N        largest synthesizable dataset per request (default 20000)
dist options:
  --dir DIR           working directory for spec/journals/merge (default anoncmp-dist)
  --workers N         concurrent worker processes (default 2)
  --shards S          fingerprint-range shards; fixed per run, independent of
                      --workers, so job→shard assignment never moves (default 8)
  --dataset KIND      census|hospital (default census)
  --rows N            synthesized rows (default 400; with --seed and --zip-pool)
  --ks CSV            k values of the sweep (default 2,5,10)
  --algos CSV         algorithm or perturbative-method names, mixed freely
                      (default: the standard suite)
  --props CSV         property tags (default: eq-class-size for generalization,
                      bounded-loss for perturbative methods)
  --engine-jobs N     engine threads per worker (default: cores / shards)
  --resume 1          reuse DIR's spec and shard journals (crash recovery)
  --stall-timeout-ms N  heartbeat staleness before a worker is presumed
                      stalled, killed, and its shard reassigned (default 10000)
  --chaos-seed N      worker-loss drill: abort the largest shard's first
                      worker after a seed-derived number of journal appends";

// The options each command reads; any other option is refused.
const INPUT_OPTIONS: &[&str] = &["input", "qi", "sensitive"];
const ANONYMIZE_OPTIONS: &[&str] = &["input", "qi", "sensitive", "k", "max-sup", "algo", "output"];
const COMPARE_OPTIONS: &[&str] = &[
    "input",
    "qi",
    "sensitive",
    "k",
    "max-sup",
    "jobs",
    "methods",
    "resume",
    "max-retries",
    "chaos-seed",
];
const RISK_OPTIONS: &[&str] = &["input", "qi", "sensitive", "threshold"];
const SERVE_OPTIONS: &[&str] = &[
    "addr",
    "threads",
    "max-inflight",
    "release-cap",
    "vector-cap",
    "response-cap",
    "engine-jobs",
    "max-rows",
];
const DIST_OPTIONS: &[&str] = &[
    "dir",
    "workers",
    "shards",
    "dataset",
    "rows",
    "seed",
    "zip-pool",
    "ks",
    "algos",
    "props",
    "max-sup",
    "engine-jobs",
    "resume",
    "stall-timeout-ms",
    "chaos-seed",
];

/// Parsed `--key value` options.
struct Options(BTreeMap<String, String>);

impl Options {
    fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required option --{key}"))
    }

    fn usize_or(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("--{key}: {e}")),
        }
    }

    fn f64_or(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("--{key}: {e}")),
        }
    }
}

/// Parses `rest` as `--key value` pairs and runs `command` on them. A key
/// outside `accepted` is refused before any work starts, so a misspelled
/// option is an error rather than silently ignored.
fn with_options(
    command: &str,
    rest: &[String],
    accepted: &[&str],
    run: fn(&Options) -> Result<(), String>,
) -> Result<(), String> {
    let mut map = BTreeMap::new();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected an --option, got '{flag}'"))?;
        if !accepted.contains(&key) {
            return Err(format!(
                "unknown option --{key} for `{command}` (see `anoncmp --help`)"
            ));
        }
        let value = it
            .next()
            .ok_or_else(|| format!("--{key} needs a value"))?
            .to_owned();
        map.insert(key.to_owned(), value);
    }
    run(&Options(map))
}

// ----------------------------------------------------------------------
// Input loading (schema inference lives in `anoncmp::infer`).
// ----------------------------------------------------------------------

fn load_csv(path: &str, qi: &[&str], sensitive: &str) -> Result<Arc<Dataset>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    anoncmp::infer::dataset_from_csv_inferred(&text, qi, sensitive)
}

/// Resolves `--algo` through the engine's algorithm registry. A
/// perturbative method releases numbers, not a generalized table, so it is
/// refused like an unknown name; the genetic search keeps its default seed.
fn parse_algo(name: &str) -> Result<Box<dyn Anonymizer>, String> {
    match anoncmp::engine::prelude::AlgorithmSpec::by_name(name) {
        Some(spec) if spec.perturb().is_none() => {
            Ok(spec.instantiate(GeneticConfig::default().seed))
        }
        _ => Err(format!("unknown algorithm '{name}'")),
    }
}

fn load_from_options(opts: &Options) -> Result<Arc<Dataset>, String> {
    let input = opts.require("input")?;
    let qi: Vec<&str> = opts.require("qi")?.split(',').map(str::trim).collect();
    let sensitive = opts.require("sensitive")?;
    load_csv(input, &qi, sensitive)
}

// ----------------------------------------------------------------------
// Commands.
// ----------------------------------------------------------------------

fn demo() -> Result<(), String> {
    use anoncmp::datagen::paper;
    use anoncmp::microdata::display;
    let t3a = paper::paper_t3a();
    let t3b = paper::paper_t3b();
    println!("The paper's Table 1, anonymized two ways (both 3-anonymous):\n");
    println!("{}", display::anonymized_table(&t3a));
    println!("{}", display::anonymized_table(&t3b));
    let s = EqClassSize.extract(&t3a);
    let t = EqClassSize.extract(&t3b);
    println!("Per-tuple class sizes:\n  T3a: {s}\n  T3b: {t}\n");
    println!(
        "T3b strongly dominates T3a: {} — same k, different protection.",
        strongly_dominates(&t, &s)
    );
    Ok(())
}

fn anonymize(opts: &Options) -> Result<(), String> {
    let dataset = load_from_options(opts)?;
    let k = opts.usize_or("k", 5)?;
    let max_sup = opts.usize_or("max-sup", 0)?;
    let algo = parse_algo(opts.get("algo").unwrap_or("mondrian"))?;
    let constraint = Constraint::k_anonymity(k).with_suppression(max_sup);
    let release = algo
        .anonymize(&dataset, &constraint)
        .map_err(|e| format!("{} failed: {e}", algo.name()))?;
    let b = BiasReport::of(&EqClassSize.extract(&release));
    eprintln!(
        "{}: {} tuples, {} classes, k = {}, suppressed {}, mean |EC| {:.1}, gini {:.3}",
        algo.name(),
        release.len(),
        release.classes().class_count(),
        release.classes().min_class_size(),
        release.suppressed_count(),
        b.mean,
        b.gini
    );
    let csv = mdcsv::anonymized_to_csv(&release);
    match opts.get("output") {
        Some(path) => {
            std::fs::write(path, csv).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => print!("{csv}"),
    }
    Ok(())
}

fn compare(opts: &Options) -> Result<(), String> {
    use anoncmp::engine::prelude::*;

    // Hook SIGINT/SIGTERM before any work: an interrupt mid-sweep now
    // lets the sweep finish its in-flight jobs and flush the checkpoint
    // journal instead of dying with a torn tail. (The journal heals torn
    // tails on resume anyway, but a clean exit 0 means nothing to heal.)
    let interrupted = anoncmp::serve::ShutdownFlag::new().on_signals();

    let dataset = load_from_options(opts)?;
    let k = opts.usize_or("k", 5)?;
    let max_sup = opts.usize_or("max-sup", dataset.len() / 20)?;
    let jobs = opts.usize_or("jobs", 0)?;
    let chaos_seed = opts.get("chaos-seed").map(str::parse).transpose();
    let chaos_seed = chaos_seed.map_err(|e| format!("--chaos-seed: {e}"))?;
    let max_retries = opts.get("max-retries").map(str::parse).transpose();
    let max_retries = max_retries.map_err(|e| format!("--max-retries: {e}"))?;
    let mut engine = Engine::new(EngineConfig::from_flags(jobs, chaos_seed, max_retries));
    let quarantine_path = match opts.get("resume") {
        None => None,
        Some(path) => {
            let summary = engine
                .resume(path)
                .map_err(|e| format!("cannot resume from {path}: {e}"))?;
            if summary.replayed > 0 || summary.dropped > 0 {
                eprintln!(
                    "resume: replayed {} completed job(s) from {path}, dropped {} torn line(s)",
                    summary.replayed, summary.dropped
                );
            }
            let quarantine_path = format!("{path}.failed.jsonl");
            let file = std::fs::File::create(&quarantine_path)
                .map_err(|e| format!("cannot create {quarantine_path}: {e}"))?;
            engine.quarantine_to(Box::new(file));
            Some(quarantine_path)
        }
    };

    // Perturbative methods joining the tournament force every job onto
    // the numeric bounded-loss property: class sizes mean nothing for a
    // noise release, and one shared property keeps the ▶cov matrix
    // commensurable across families.
    let methods: Vec<AlgorithmSpec> = match opts.get("methods") {
        None => vec![],
        Some(csv) => csv
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|name| match AlgorithmSpec::by_name(name) {
                Some(spec) if spec.perturb().is_some() => Ok(spec),
                Some(_) => Err(format!(
                    "--methods: '{name}' is a generalization algorithm, not a perturbative method"
                )),
                None => Err(format!("--methods: unknown perturbative method '{name}'")),
            })
            .collect::<Result<_, _>>()?,
    };
    let property = if methods.is_empty() {
        PropertySpec::EqClassSize
    } else {
        PropertySpec::BoundedLoss
    };

    // Run the full candidate suite as one engine sweep: parallel across
    // `--jobs` workers, deterministic in content, memoized by fingerprint.
    let spec = DatasetSpec::inline(opts.require("input")?, dataset);
    let jobs: Vec<EvalJob> = AlgorithmSpec::standard_suite()
        .into_iter()
        .chain(methods)
        .map(|algorithm| EvalJob {
            dataset: spec.clone(),
            algorithm,
            k,
            max_suppression: max_sup,
            properties: vec![property],
        })
        .collect();
    let sweep = engine.run(&jobs);

    let mut names: Vec<String> = Vec::new();
    let mut vectors: Vec<PropertyVector> = Vec::new();
    let mut metrics = Vec::new();
    for o in &sweep.outcomes {
        match (&o.record.status, &o.record.metrics) {
            (JobStatus::Ok, Some(m)) => {
                names.push(o.record.algorithm.clone());
                vectors.push(o.vectors[0].clone());
                metrics.push(m.clone());
            }
            (status, _) => {
                println!("{:<10} failed: {status:?}", o.record.algorithm)
            }
        }
    }
    println!(
        "{:<12} {:>4} {:>8} {:>10} {:>11} {:>7}",
        "algorithm", "k", "classes", "loss", "suppressed", "gini"
    );
    for ((name, m), v) in names.iter().zip(&metrics).zip(&vectors) {
        // Bounded-loss components are negated (higher is better); the bias
        // report wants the raw nonnegative losses back.
        let b = if property == PropertySpec::BoundedLoss {
            BiasReport::of(&v.negated())
        } else {
            BiasReport::of(v)
        };
        println!(
            "{:<12} {:>4} {:>8} {:>10.1} {:>11} {:>7.3}",
            name, m.min_class_size, m.classes, m.total_loss, m.suppressed, b.gini
        );
    }
    println!("\npairwise ▶cov verdicts on per-tuple privacy:");
    // One matrix holds every verdict; each pair is printed once.
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let matrix = ComparisonMatrix::of_vectors(&name_refs, &vectors, &CoverageComparator);
    for i in 0..names.len() {
        for j in (i + 1)..names.len() {
            let verdict = match matrix.outcome(i, j) {
                Preference::First => format!("{} ▶cov {}", names[i], names[j]),
                Preference::Second => format!("{} ▶cov {}", names[j], names[i]),
                _ => format!("{} ≈ {}", names[i], names[j]),
            };
            println!("  {verdict}");
        }
    }
    if sweep.resumed > 0 || sweep.retries > 0 || sweep.quarantined > 0 {
        eprintln!("{}", sweep.resilience_summary());
    }
    // Flush the quarantine file and close the journal before exit.
    if let Err(e) = engine.finish() {
        let path = quarantine_path.expect("only the quarantine sink writes");
        return Err(format!("cannot write {path}: {e}"));
    }
    if interrupted.requested() {
        eprintln!("interrupted: sweep drained and checkpoint journal flushed; exiting cleanly");
    }
    Ok(())
}

fn dist(opts: &Options) -> Result<(), String> {
    use anoncmp::core::wire::WireDataset;
    use anoncmp::engine::dist::{self, DistChaos, DistConfig, GridSpec, WorkerCommand};
    use std::time::Duration;

    let rows = opts.usize_or("rows", 400)?;
    let seed: u64 = match opts.get("seed") {
        None => 7,
        Some(v) => v.parse().map_err(|e| format!("--seed: {e}"))?,
    };
    let dataset = match opts.get("dataset").unwrap_or("census") {
        "census" => WireDataset::Census {
            rows,
            seed,
            zip_pool: opts.usize_or("zip-pool", 25)?,
        },
        "hospital" => WireDataset::Hospital { rows, seed },
        other => return Err(format!("unknown dataset '{other}' (census|hospital)")),
    };
    let csv_list = |key: &str| -> Vec<String> {
        opts.get(key)
            .map(|v| {
                v.split(',')
                    .map(|s| s.trim().to_owned())
                    .filter(|s| !s.is_empty())
                    .collect()
            })
            .unwrap_or_default()
    };
    let ks: Vec<usize> = match opts.get("ks") {
        None => vec![2, 5, 10],
        Some(v) => v
            .split(',')
            .map(|s| s.trim().parse().map_err(|e| format!("--ks: {e}")))
            .collect::<Result<_, _>>()?,
    };
    let shards = opts.usize_or("shards", 8)?;
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    let spec = GridSpec {
        dataset,
        algorithms: csv_list("algos"),
        ks,
        max_suppression: opts.usize_or("max-sup", rows / 20)?,
        properties: csv_list("props"),
        root_seed: 0xED5B_2009,
        shards,
        engine_jobs: opts.usize_or("engine-jobs", 0)?,
    };
    // Fail on an unknown algorithm/property name here, before any worker
    // is spawned against the saved spec.
    spec.jobs()?;

    let mut config = DistConfig::new(
        opts.get("dir").unwrap_or("anoncmp-dist"),
        opts.usize_or("workers", 2)?,
    );
    config.resume = matches!(opts.get("resume"), Some("1") | Some("true"));
    config.stall_timeout = Duration::from_millis(opts.usize_or("stall-timeout-ms", 10_000)? as u64);
    if let Some(chaos_seed) = opts.get("chaos-seed") {
        let chaos_seed: u64 = chaos_seed
            .parse()
            .map_err(|e| format!("--chaos-seed: {e}"))?;
        config.chaos = Some(DistChaos { seed: chaos_seed });
        eprintln!(
            "chaos: worker-loss drill armed (seed {chaos_seed}): the largest shard's first \
             worker aborts after a seed-derived number of fsync'd appends"
        );
    }
    let worker =
        WorkerCommand::current_exe(vec!["dist-worker".into()]).map_err(|e| e.to_string())?;
    let report = dist::run_supervisor(&spec, &config, &worker).map_err(|e| format!("dist: {e}"))?;

    println!(
        "{:<6} {:>6} {:>8} {:>8} {:>9} {:>9} {:>7}",
        "shard", "jobs", "records", "resumed", "restarts", "wall_ms", "worker"
    );
    for shard in &report.shards {
        println!(
            "{:<6} {:>6} {:>8} {:>8} {:>9} {:>9} {:>7}",
            shard.shard,
            shard.jobs,
            shard.records,
            shard.resumed,
            shard.restarts,
            shard.wall_ms,
            shard.worker_slot
        );
    }
    println!(
        "merged {} record(s) ({} duplicate(s) dropped, {} missing) into {} in {} ms",
        report.merge.merged,
        report.merge.duplicates_dropped,
        report.merge.missing,
        report.merged_path.display(),
        report.merge.wall_ms
    );
    println!(
        "merged digest: {}",
        dist::file_digest(&report.merged_path).map_err(|e| e.to_string())?
    );
    println!("{}", report.resilience_summary());
    Ok(())
}

fn dist_worker() -> Result<(), String> {
    match anoncmp::engine::dist::run_worker_from_env() {
        Ok(Some(summary)) => {
            eprintln!(
                "dist-worker: shard {} done ({} record(s), {} resumed)",
                summary.shard, summary.records, summary.resumed
            );
            Ok(())
        }
        Ok(None) => Err(
            "dist-worker is the internal child entry point of `anoncmp dist` and needs \
             ANONCMP_DIST_DIR/ANONCMP_DIST_SHARD in the environment"
                .into(),
        ),
        Err(e) => Err(format!("dist-worker: {e}")),
    }
}

fn serve_daemon(opts: &Options) -> Result<(), String> {
    use anoncmp::serve::prelude::*;

    let mut config = ServeConfig {
        addr: opts.get("addr").unwrap_or("127.0.0.1:7171").to_owned(),
        threads: opts.usize_or("threads", 0)?,
        max_inflight: opts.usize_or("max-inflight", 64)?,
        release_capacity: opts.usize_or("release-cap", 256)?,
        vector_capacity: opts.usize_or("vector-cap", 1024)?,
        response_capacity: opts.usize_or("response-cap", 256)?,
        engine_jobs: opts.usize_or("engine-jobs", 0)?,
        ..ServeConfig::default()
    };
    config.limits.max_rows = opts.usize_or("max-rows", config.limits.max_rows)?;

    // The flag is signal-hooked: SIGINT/SIGTERM stop the acceptor, drain
    // every admitted connection, and `wait` returns — exit code 0.
    let shutdown = ShutdownFlag::new().on_signals();
    let server = serve(config, shutdown).map_err(|e| format!("cannot bind: {e}"))?;
    eprintln!(
        "anoncmp-serve listening on {} ({} thread(s)); endpoints: POST /compare, POST /sweep, GET /stats, GET /healthz — Ctrl-C drains and exits",
        server.addr(),
        server.stats().threads,
    );
    server.wait();
    eprintln!("anoncmp-serve: drained, caches dropped, bye");
    Ok(())
}

fn frontier(opts: &Options) -> Result<(), String> {
    let dataset = load_from_options(opts)?;
    let moga = MultiObjectiveGenetic {
        config: MogaConfig {
            population: 24,
            generations: 20,
            ..Default::default()
        },
        ..Default::default()
    };
    let front = moga.run(&dataset).map_err(|e| e.to_string())?;
    println!("privacy/utility Pareto frontier ({} points):", front.len());
    println!(
        "{:<24} {:>6} {:>12} {:>12}",
        "levels", "k", "mean |EC|", "loss"
    );
    for s in &front {
        println!(
            "{:<24} {:>6} {:>12.1} {:>12.1}",
            format!("{:?}", s.levels),
            s.table.classes().min_class_size(),
            s.objectives[0],
            -s.objectives[1]
        );
    }
    println!("\npick a row and re-run `anonymize` at its k, or consume the levels directly.");
    Ok(())
}

fn risk(opts: &Options) -> Result<(), String> {
    let dataset = load_from_options(opts)?;
    let threshold = opts.f64_or("threshold", 0.2)?;
    let raw = AnonymizedTable::identity(dataset, "raw release");
    let report = RiskReport::of(&raw, threshold);
    println!("re-identification risk of releasing the file unmodified:");
    println!("  records                     : {}", raw.len());
    println!(
        "  unique QI combinations      : {}",
        raw.classes().class_count()
    );
    println!("  max prosecutor risk         : {:.3}", report.max_risk);
    println!("  mean prosecutor risk        : {:.3}", report.mean_risk);
    println!(
        "  expected re-identifications : {:.1}",
        report.expected_reidentifications
    );
    println!(
        "  records above {:>4.0}% risk    : {:.1}%",
        threshold * 100.0,
        report.at_risk_fraction * 100.0
    );
    if report.max_risk == 1.0 {
        println!("  ⚠ some records are unique on the quasi-identifier — anonymize first");
    }
    println!("\nquasi-identifier uniqueness profile:");
    let profiles = uniqueness_profile(raw.dataset());
    for line in render_profile(raw.dataset(), &profiles).lines() {
        println!("  {line}");
    }
    Ok(())
}
