//! The `anoncmp` binary refuses options its subcommand does not read,
//! before doing any work, so a misspelled or retired option is an error
//! rather than silently ignored; input it cannot represent, and an
//! algorithm it cannot anonymize with, are refused the same way.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A scratch directory unique to one test in this process.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("anoncmp-cli-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    dir
}

/// A toy input file with the header `age,zip,diagnosis`.
fn toy_csv(dir: &std::path::Path) -> PathBuf {
    let path = dir.join("d.csv");
    let mut text = String::from("age,zip,diagnosis\n");
    for i in 0..12 {
        let (age, zip, diagnosis) = (20 + i, i % 3, ["flu", "cold"][i % 2]);
        text.push_str(&format!("{age},1305{zip},{diagnosis}\n"));
    }
    std::fs::write(&path, text).expect("temp file is writable");
    path
}

fn anoncmp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_anoncmp"))
        .args(args)
        .output()
        .expect("the anoncmp binary runs")
}

fn assert_refused(out: &Output, option: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains(&format!("unknown option {option}")),
        "the error names {option}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "no work was done before the refusal");
}

#[test]
fn misspelled_output_option_is_refused() {
    let dir = scratch("misspelled");
    let input = toy_csv(&dir);
    let output = dir.join("out.csv");
    let (input, output) = (input.to_str().unwrap(), output.to_str().unwrap());
    let base = [
        "anonymize",
        "--input",
        input,
        "--qi",
        "age,zip",
        "--sensitive",
        "diagnosis",
        "--k",
        "2",
        "--algo",
        "mondrian",
    ];

    let out = anoncmp(&[&base[..], &["--ouput", output]].concat());
    assert_refused(&out, "--ouput");
    assert!(!std::path::Path::new(output).exists());

    let out = anoncmp(&[&base[..], &["--output", output]].concat());
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(std::path::Path::new(output).exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_subcommand_refuses_an_option_it_does_not_read() {
    let dir = scratch("every");
    let input = toy_csv(&dir);
    let input = input.to_str().unwrap();
    let csv = [
        "--input",
        input,
        "--qi",
        "age,zip",
        "--sensitive",
        "diagnosis",
    ];
    for (command, extra) in [
        ("compare", "--chunk-threads"),
        ("risk", "--k"),
        ("frontier", "--output"),
    ] {
        let out = anoncmp(&[&[command][..], &csv, &[extra, "4"]].concat());
        assert_refused(&out, extra);
    }
    // The bad address and `--ks` value make these fail fast, rather than
    // serve or spawn workers, on a binary that ignores unknown options.
    let serve = ["serve", "--addr", "not-an-address", "--chunk-threads", "4"];
    assert_refused(&anoncmp(&serve), "--chunk-threads");
    assert_refused(&anoncmp(&["dist", "--ks", "x", "--jobs", "4"]), "--jobs");
    assert_refused(&anoncmp(&["demo", "--k", "2"]), "--k");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn extreme_integer_column_is_refused_not_wrapped() {
    let dir = scratch("extreme");
    let input = dir.join("neg.csv");
    std::fs::write(
        &input,
        "age,zip,diagnosis\n-9223372036854775808,13053,flu\n30,13053,cold\n\
         31,13068,flu\n25,13068,cold\n",
    )
    .expect("temp file is writable");
    let out = anoncmp(&[
        "anonymize",
        "--input",
        input.to_str().unwrap(),
        "--qi",
        "age,zip",
        "--sensitive",
        "diagnosis",
        "--k",
        "2",
        "--algo",
        "mondrian",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("column 'age'"),
        "the error names the column: {stderr}"
    );
    assert!(
        !String::from_utf8_lossy(&out.stdout).contains("9223372036854775807"),
        "no wrapped-around interval is printed"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn anonymize_refuses_perturbative_and_unknown_algorithms() {
    let dir = scratch("unknown-algo");
    let input = toy_csv(&dir);
    for algo in ["noise:0.05", "magic"] {
        let out = anoncmp(&[
            "anonymize",
            "--input",
            input.to_str().unwrap(),
            "--qi",
            "age,zip",
            "--sensitive",
            "diagnosis",
            "--k",
            "2",
            "--algo",
            algo,
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
        assert!(
            stderr.contains(&format!("unknown algorithm '{algo}'")),
            "the error names the algorithm: {stderr}"
        );
        assert!(out.stdout.is_empty(), "no release is printed");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `--chaos-seed` runs the chaos drill, whose 2 retries heal its
/// transient faults; an explicit `--max-retries` wins over them, so the
/// same fault is quarantined instead.
#[test]
fn explicit_max_retries_wins_over_the_chaos_drill() {
    let dir = scratch("chaos");
    let input = toy_csv(&dir);
    let compare = [
        "compare",
        "--input",
        input.to_str().unwrap(),
        "--qi",
        "age,zip",
        "--sensitive",
        "diagnosis",
        "--k",
        "2",
        "--chaos-seed",
        "3",
    ];

    let out = anoncmp(&compare);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    assert!(stderr.contains("1 retry, 0 quarantined"), "{stderr}");

    let out = anoncmp(&[&compare[..], &["--max-retries", "0"]].concat());
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert!(out.status.success(), "stderr: {stderr}");
    assert!(stderr.contains("0 retries, 1 quarantined"), "{stderr}");
    assert!(
        stdout.lines().any(|line| line.starts_with("datafly ")
            && line.contains("failed: Panicked")
            && line.contains("chaos: injected panic")),
        "datafly's chaos panic is reported: {stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
