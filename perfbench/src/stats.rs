//! Sample statistics, seed derivation and outcome accounting shared by
//! every workload.

use std::time::Instant;

use anoncmp_engine::fingerprint::{hex_id, Fingerprinter};

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The median of `values` (mean of the two middle values for an even
/// count); `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The tail of a latency distribution: the highest-ranked sample that
/// still has at least [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample's value.
    pub value: f64,
    /// Its rank (1-based) among the samples sorted ascending.
    pub rank: usize,
    /// `rank / samples`, as a percentage.
    pub percentile: f64,
    /// Samples the tail was chosen from.
    pub samples: usize,
}

/// Applies the tail rule. With [`TAIL_BEYOND`] or fewer samples no rank
/// qualifies, so the maximum is reported at the 100th percentile.
pub fn tail(values: &[f64]) -> Tail {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = if n > TAIL_BEYOND { n - TAIL_BEYOND } else { n };
    Tail {
        value: sorted
            .get(rank.wrapping_sub(1))
            .copied()
            .unwrap_or(f64::NAN),
        rank,
        percentile: if n == 0 {
            f64::NAN
        } else {
            100.0 * rank as f64 / n as f64
        },
        samples: n,
    }
}

/// SplitMix64: the benchmark's only source of derived randomness.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The order in which a run visits `count` entries of a pool of
/// `pool_len` pinned inputs: a partial Fisher–Yates shuffle seeded by the
/// workload seed, so one seed always yields the same rotation.
pub fn rotation(seed: u64, pool_len: usize, count: usize) -> Vec<usize> {
    assert!(
        count <= pool_len,
        "rotation of {count} from a pool of {pool_len}"
    );
    let mut state = seed;
    let mut pool: Vec<usize> = (0..pool_len).collect();
    for i in 0..count {
        let j = i + (splitmix(&mut state) % (pool_len - i) as u64) as usize;
        pool.swap(i, j);
    }
    pool.truncate(count);
    pool
}

/// FNV-1a digest of output bytes as 16 hex digits — the same digest
/// `dist::file_digest` computes over files.
pub fn digest(bytes: &[u8]) -> String {
    let mut f = Fingerprinter::new();
    f.write_bytes(bytes);
    hex_id(f.finish())
}

/// Whether one serve response is a success: status 200 and a body whose
/// digest is the one expected for the request. A 429 counts as a failure
/// like any other non-200 status.
pub fn response_ok(status: u16, body: &[u8], expected_digest: &str) -> bool {
    status == 200 && digest(body) == expected_digest
}

/// Attempted and failed operation counts of one run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed any check.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Adds another tally's counts.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Runs `prepare` `reps` times and returns the last result with the
/// median duration in seconds. Earlier results are dropped before the
/// next repetition starts, so each repetition pays the full set-up.
pub fn repeated_setup<T>(reps: usize, mut prepare: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let started = Instant::now();
        last = Some(prepare());
        times.push(started.elapsed().as_secs_f64());
    }
    (last.expect("at least one repetition"), median(&times))
}

/// Milliseconds elapsed since `since`.
pub fn ms_since(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The filesystem type `path` sits on, from the longest matching mount
/// point in `/proc/self/mounts`.
pub fn filesystem_of(path: &std::path::Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let _device = fields.next()?;
            let mount_point = fields.next()?;
            let fs_type = fields.next()?;
            path.starts_with(mount_point)
                .then(|| (mount_point.len(), format!("{fs_type} on {mount_point}")))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_of_thirty_samples_is_the_twentieth() {
        let values: Vec<f64> = (1..=30).rev().map(f64::from).collect();
        let t = tail(&values);
        assert_eq!(t.rank, 20);
        assert_eq!(t.value, 20.0);
        assert!((t.percentile - 66.666).abs() < 0.01);
    }

    #[test]
    fn tail_of_two_thousand_samples_is_p99_5() {
        let values: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = tail(&values);
        assert_eq!(t.rank, 1990);
        assert_eq!(t.value, 1990.0);
        assert_eq!(t.percentile, 99.5);
        assert_eq!(t.samples, 2000);
    }

    #[test]
    fn tail_of_few_samples_is_the_maximum() {
        let t = tail(&[3.0, 1.0, 2.0]);
        assert_eq!((t.value, t.rank, t.percentile), (3.0, 3, 100.0));
        assert!(tail(&[]).value.is_nan());
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn rotation_is_deterministic_and_distinct() {
        for seed in [0u64, 1, 42, u64::MAX] {
            let a = rotation(seed, 16, 8);
            assert_eq!(a, rotation(seed, 16, 8));
            assert_eq!(a.len(), 8);
            let mut sorted = a.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 8, "entries are distinct");
            assert!(a.iter().all(|&i| i < 16));
        }
        assert_ne!(rotation(1, 16, 8), rotation(2, 16, 8));
        // A full rotation is a permutation of the pool.
        let mut full = rotation(7, 8, 8);
        full.sort_unstable();
        assert_eq!(full, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn a_corrupted_digest_or_a_429_raises_the_error_rate() {
        let body = b"{\"results\":[],\"truncated\":false}";
        let expected = digest(body);
        let mut corrupted = expected.clone();
        corrupted.replace_range(0..1, if expected.starts_with('0') { "1" } else { "0" });

        let mut tally = Tally::default();
        tally.record(response_ok(200, body, &expected));
        assert_eq!(tally.error_rate(), 0.0);
        tally.record(response_ok(200, body, &corrupted));
        tally.record(response_ok(429, body, &expected));
        tally.record(response_ok(200, b"{}", &expected));
        assert_eq!(
            tally,
            Tally {
                attempted: 4,
                failed: 3
            }
        );
        assert_eq!(tally.error_rate(), 0.75);
    }
}
