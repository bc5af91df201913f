//! Prints the paper-reproduction experiments.
//!
//! Usage:
//! ```text
//! experiments                    # run everything (E01–E17)
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

use std::fs::File;
use std::io::BufWriter;

use anoncmp_bench::experiments::{registry, study};
use anoncmp_engine::{Engine, EngineConfig};

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
    let mut jobs = 0usize;
    let mut out: Option<&str> = None;
    let mut resume: Option<&str> = None;
    let mut max_retries: Option<u32> = None;
    let mut chaos_seed: Option<u64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--jobs" => {
                jobs = it
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .unwrap_or_else(|| fail("--jobs needs a non-negative integer"));
            }
            "--out" => out = Some(it.next().unwrap_or_else(|| fail("--out needs a file path"))),
            "--resume" => {
                resume = Some(
                    it.next()
                        .unwrap_or_else(|| fail("--resume needs a journal path")),
                );
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

    // One engine for every selected experiment, so a release one
    // experiment computed is a cache hit for the next (E16 after E13).
    let mut engine = Engine::new(EngineConfig::from_flags(jobs, chaos_seed, max_retries));
    let mut outputs: Vec<String> = Vec::new();
    if let Some(path) = out {
        let file =
            File::create(path).unwrap_or_else(|e| fail(&format!("cannot create {path}: {e}")));
        engine.record_to(Box::new(BufWriter::new(file)));
        outputs.push(path.to_owned());
    }
    if let Some(path) = resume {
        let summary = engine
            .resume(path)
            .unwrap_or_else(|e| fail(&format!("cannot resume from {path}: {e}")));
        if summary.replayed > 0 || summary.dropped > 0 {
            eprintln!(
                "resume: replayed {} completed job(s) from {path}, dropped {} torn line(s)",
                summary.replayed, summary.dropped
            );
        }
        let quarantine_path = format!("{path}.failed.jsonl");
        let file = File::create(&quarantine_path)
            .unwrap_or_else(|e| fail(&format!("cannot create {quarantine_path}: {e}")));
        engine.quarantine_to(Box::new(file));
        outputs.push(quarantine_path);
    }

    for e in &reg {
        if !selected.is_empty() && !selected.contains(&e.id) {
            continue;
        }
        let report = if e.id == "e13" && quick {
            study::e13_study(&engine, &study::StudyConfig::quick())
        } else {
            (e.run)(&engine)
        };
        println!("{report}");
        println!("{}", "=".repeat(78));
    }

    if let Err(e) = engine.finish() {
        fail(&format!("cannot write {}: {e}", outputs.join(" or ")));
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
