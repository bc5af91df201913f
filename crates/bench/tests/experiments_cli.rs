//! The `experiments` binary's chaos drill: `--chaos-seed` brings 2
//! retries, and an explicit `--max-retries` wins over them whichever
//! flag comes first.

use std::process::Command;

#[test]
fn explicit_max_retries_wins_over_the_chaos_drill_in_either_order() {
    for flags in [
        ["--chaos-seed", "17", "--max-retries", "0"],
        ["--max-retries", "0", "--chaos-seed", "17"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(["e13", "--quick"])
            .args(flags)
            .output()
            .expect("the experiments binary runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{flags:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        // Seed 17 faults 3 of the 16 quick-study jobs.
        assert!(
            stdout.contains("0 retries, 3 quarantined"),
            "{flags:?}: {stdout}"
        );
        assert_eq!(
            stdout.matches("chaos: injected panic").count(),
            3,
            "{flags:?}: {stdout}"
        );
    }
}
