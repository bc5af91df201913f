//! The `anoncmp` binary refuses options its subcommand does not read,
//! before doing any work, so a misspelled or retired option is an error
//! rather than silently ignored.

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
