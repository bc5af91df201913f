//! Prints the paper-reproduction experiments.
//!
//! Usage:
//! ```text
//! experiments                    # run everything (E01–E16)
//! experiments e04 e09 e13        # run selected experiments
//! experiments --list             # list the experiment index
//! experiments --quick            # run everything, E13 in its quick config
//! experiments e13 --jobs 8       # engine worker threads (0 = one per CPU)
//! experiments e13 --out r.jsonl  # stream engine EvalRecords as JSONL
//! experiments e13 --resume j.jsonl   # checkpoint journal: crash-safe resume
//! experiments e13 --max-retries 2    # retry panicking/timed-out jobs
//! experiments e13 --chaos-seed 42    # inject deterministic faults (testing)
//! ```
//!
//! `--jobs` only changes wall-clock time: engine sweeps are deterministic,
//! so the printed reports are byte-identical whatever the worker count.
//!
//! `--resume PATH` attaches a write-ahead checkpoint journal: every
//! completed job is appended fsync'd, and a re-run with the same flag
//! replays the journal (healing any torn tail left by a kill) and skips
//! completed jobs — the merged record set is byte-identical to an
//! uninterrupted run. Jobs that exhaust `--max-retries` are quarantined
//! into `PATH.failed.jsonl` with their cause and attempt history.

use std::time::Duration;

use anoncmp_bench::experiments::{registry, study};
use anoncmp_engine::{ChaosConfig, Engine};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let reg = registry();

    if args.iter().any(|a| a == "--list") {
        println!("available experiments:");
        for e in &reg {
            println!("  {:<5} {}", e.id, e.describes);
        }
        return;
    }

    // Flags with values: --jobs N, --out PATH, --resume PATH,
    // --max-retries N, --chaos-seed N.
    let mut positional: Vec<&str> = Vec::new();
    let mut quick = false;
    let mut resuming = false;
    let mut max_retries: Option<u32> = None;
    let mut chaos_seed: Option<u64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--jobs" => {
                let n = it
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .unwrap_or_else(|| fail("--jobs needs a non-negative integer"));
                Engine::global().set_jobs(n);
            }
            "--out" => {
                let path = it.next().unwrap_or_else(|| fail("--out needs a file path"));
                let file = std::fs::File::create(path)
                    .unwrap_or_else(|e| fail(&format!("cannot create {path}: {e}")));
                Engine::global().set_sink(Some(Box::new(std::io::BufWriter::new(file))));
            }
            "--resume" => {
                let path = it
                    .next()
                    .unwrap_or_else(|| fail("--resume needs a journal path"));
                let summary = Engine::global()
                    .resume(path)
                    .unwrap_or_else(|e| fail(&format!("cannot resume from {path}: {e}")));
                if summary.replayed > 0 || summary.dropped > 0 {
                    eprintln!(
                        "resume: replayed {} completed job(s) from {path}, dropped {} torn line(s)",
                        summary.replayed, summary.dropped
                    );
                }
                let quarantine_path = format!("{path}.failed.jsonl");
                let file = std::fs::File::create(&quarantine_path)
                    .unwrap_or_else(|e| fail(&format!("cannot create {quarantine_path}: {e}")));
                Engine::global().set_quarantine_sink(Some(Box::new(file)));
                resuming = true;
            }
            "--max-retries" => {
                max_retries = Some(
                    it.next()
                        .and_then(|v| v.parse::<u32>().ok())
                        .unwrap_or_else(|| fail("--max-retries needs a non-negative integer")),
                );
            }
            "--chaos-seed" => {
                chaos_seed = Some(
                    it.next()
                        .and_then(|v| v.parse::<u64>().ok())
                        .unwrap_or_else(|| fail("--chaos-seed needs an unsigned integer")),
                );
            }
            other if other.starts_with("--") => fail(&format!(
                "unknown flag {other} (supported: --list --quick --jobs --out \
                 --resume --max-retries --chaos-seed)"
            )),
            other => positional.push(other),
        }
    }
    let selected = positional;

    if let Some(seed) = chaos_seed {
        install_chaos(seed);
    }
    // An explicit --max-retries wins over the chaos default, in either
    // flag order.
    if let Some(n) = max_retries {
        Engine::global().set_max_retries(n);
    }

    let mut unknown: Vec<&str> = selected
        .iter()
        .filter(|id| !reg.iter().any(|e| e.id == **id))
        .copied()
        .collect();
    if !unknown.is_empty() {
        unknown.sort_unstable();
        eprintln!(
            "unknown experiment ids: {} (use --list)",
            unknown.join(", ")
        );
        std::process::exit(2);
    }

    for e in &reg {
        if !selected.is_empty() && !selected.contains(&e.id) {
            continue;
        }
        let report = if e.id == "e13" && quick {
            study::e13_study(&study::StudyConfig::quick())
        } else {
            (e.run)()
        };
        println!("{report}");
        println!("{}", "=".repeat(78));
    }

    // Drop the sinks so the JSONL files are flushed before exit.
    Engine::global().set_sink(None);
    Engine::global().set_quarantine_sink(None);
    if resuming {
        Engine::global().detach_journal();
    }
}

/// Installs the standard chaos profile (~10% of jobs faulted, transient)
/// for the given seed. Stall faults only become failures under a budget,
/// so a default 2 s budget is set when none was configured; retries
/// default to 2 so transient faults heal instead of littering the report.
fn install_chaos(seed: u64) {
    let engine = Engine::global();
    engine.set_chaos(Some(ChaosConfig::seeded(seed)));
    engine.set_budget(Some(Duration::from_secs(2)));
    engine.set_max_retries(2);
    eprintln!("chaos: seeded fault injection on (seed {seed}, ~10% of jobs, 2 s budget)");
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
