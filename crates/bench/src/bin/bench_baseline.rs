//! Emits `BENCH_baseline.json`: machine-readable wall-clock baselines for
//! the `algorithms`, `grouping`, `loss_cache`, `hv_log_vs_exact`,
//! `lattice_encoded`, `property_extraction`, and `comparator_matrix` bench
//! groups, plus the out-of-core chunked groups at 1M/10M rows with a
//! `scaling` section, a `parallel_scaling` thread sweep (phases timed per
//! thread count, outputs digested for bit-identity), and per-entry peak
//! RSS.
//!
//! This is the workspace's one kernel-level bench harness: it records a
//! single JSON snapshot that CI and the README perf note can diff against.
//! Timings are wall-clock (mean and min over a fixed iteration count) on
//! synthetic census datasets. The `grouping`, `loss_cache`, and
//! `hv_log_vs_exact` groups are the ablations of DESIGN.md's key design
//! decisions 1–3. End-to-end numbers come from `perfbench/`.
//!
//! ```text
//! cargo run -p anoncmp-bench --release --bin bench_baseline            # writes ./BENCH_baseline.json
//! cargo run -p anoncmp-bench --release --bin bench_baseline -- out.json
//! cargo run -p anoncmp-bench --release --bin bench_baseline -- \
//!     --rows 1000000 --assert-peak-rss-mb 900 ci.json   # CI memory gate
//! ```
//!
//! Flags:
//! * `--rows N` — run the chunked groups at exactly `N` rows instead of
//!   the default 1M/10M ladder.
//! * `--max-rows N` — drop every bench group whose row count exceeds `N`
//!   (applies to the in-memory and chunked groups alike).
//! * `--chunk-threads N` — chunk worker threads for the main chunked
//!   rows (default 1, so the history stays comparable; the
//!   `parallel_scaling` section sweeps its own thread ladder).
//! * `--assert-peak-rss-mb N` — exit non-zero if the peak RSS of any
//!   bench group exceeded `N` MiB, so CI can pin the out-of-core memory
//!   envelope.

use std::sync::Arc;
use std::time::Instant;

use anoncmp_anonymize::prelude::*;
use anoncmp_core::prelude::*;
use anoncmp_datagen::census::{census_schema, generate, CensusConfig, CensusRows};
use anoncmp_microdata::loss::{CellLossCache, LossMetric};
use anoncmp_microdata::prelude::*;
use serde::Serialize;

/// Row counts for the in-memory (materialized vs encoded) groups.
const ROW_GROUPS: [usize; 2] = [10_000, 50_000];

/// Row counts for the out-of-core chunked groups. These never materialize
/// a `Dataset`: rows stream straight from the census generator into
/// fixed-size column chunks.
const CHUNKED_ROW_GROUPS: [usize; 2] = [1_000_000, 10_000_000];

/// Chunk granularity of the streaming groups: 64Ki rows per block keeps
/// the working set of one pass well under a megabyte per column.
const CHUNK_ROWS: usize = 65_536;

/// One timed bench entry.
#[derive(Serialize)]
struct BenchEntry {
    group: String,
    name: String,
    rows: usize,
    iters: usize,
    mean_ms: f64,
    min_ms: f64,
    /// Peak resident set (VmHWM) over this entry's timed runs alone, in
    /// MiB: the counter is reset via `/proc/self/clear_refs` before the
    /// first iteration. `None` off Linux.
    peak_rss_mb: Option<f64>,
}

/// How the chunked kernels scale from the smaller to the larger streamed
/// row count (min-over-min wall-clock ratios; linear scaling would be
/// `rows_large / rows_small`).
#[derive(Serialize)]
struct Scaling {
    rows_small: usize,
    rows_large: usize,
    partition_ratio: f64,
    extraction_ratio: f64,
}

/// One thread count's wall-clock for the three chunked phases.
#[derive(Serialize)]
struct PhaseTiming {
    threads: usize,
    /// Streaming encode+flush (`from_rows_parallel`), one shot.
    build_ms: f64,
    /// Per-node grouping (`partition`), min over the iterations.
    partition_ms: f64,
    /// All nine chunked property extractions, min over the iterations.
    extraction_ms: f64,
    /// FNV-1a digest of the class-id vector and every extracted
    /// property vector's bits — must agree across all thread counts.
    digest: String,
}

/// How the chunked pipeline scales with intra-node worker threads at a
/// fixed row count. Speedups are `threads=1` min-time divided by the
/// best multi-threaded min-time; on a single-core runner (see `cores`)
/// they hover near 1.0 and CI skips its speedup gate.
#[derive(Serialize)]
struct ParallelScaling {
    rows: usize,
    /// `std::thread::available_parallelism` on the measuring host —
    /// consumers must not expect speedups beyond this.
    cores: usize,
    phases: Vec<PhaseTiming>,
    partition_speedup: f64,
    extraction_speedup: f64,
    /// True iff every thread count produced byte-identical class ids
    /// and property vectors (the deterministic-merge contract).
    bit_identical: bool,
}

/// The perturbative wing's summary numbers.
#[derive(Serialize)]
struct Perturbative {
    rows: usize,
    /// True iff the numeric properties' contiguous-slice fast paths
    /// produced bit-identical vectors to the row-at-a-time references
    /// on a perturbed release. CI gates this unconditionally — it does
    /// not depend on core count.
    fast_naive_identical: bool,
    /// Min-over-min speedup of the fast extraction paths over the naive
    /// references (risk + loss summed).
    extraction_speedup: f64,
}

/// The whole baseline file.
#[derive(Serialize)]
struct Baseline {
    /// Speedup of encoded per-node evaluation over `Lattice::apply` at the
    /// largest measured in-memory size (min-over-min ratio; 0.0 when the
    /// group was filtered out by `--max-rows`).
    encoded_speedup_50k: f64,
    /// Speedup of incremental coarsening over `Lattice::apply` at the
    /// largest measured in-memory size.
    coarsen_speedup_50k: f64,
    /// Speedup of encoded property extraction over the materialize-then-
    /// extract path at the largest measured in-memory size.
    extraction_speedup_50k: f64,
    /// Speedup of the batched `ComparisonMatrix` kernel over the scalar
    /// all-ordered-pairs sweep for 32 candidates (summed over the cov,
    /// rank, and hv comparators).
    matrix_speedup_m32: f64,
    /// Chunked-kernel scaling between the two streamed sizes, when both
    /// ran.
    scaling: Option<Scaling>,
    /// Thread-scaling sweep of the chunked pipeline at the smallest
    /// streamed size, when any chunked group ran.
    parallel_scaling: Option<ParallelScaling>,
    /// Perturbative-wing equivalence and speedup summary.
    perturbative: Perturbative,
    /// The worst per-entry peak RSS (plus the final read), in MiB —
    /// the number `--assert-peak-rss-mb` gates. `None` off Linux.
    peak_rss_mb: Option<f64>,
    benches: Vec<BenchEntry>,
}

/// Times `f` over `iters` runs, returning `(mean_ms, min_ms)`.
fn time_ms(iters: usize, mut f: impl FnMut()) -> (f64, f64) {
    let mut total = 0.0;
    let mut min = f64::INFINITY;
    for _ in 0..iters {
        let t = Instant::now();
        f();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        total += ms;
        min = min.min(ms);
    }
    (total / iters as f64, min)
}

fn entry(group: &str, name: &str, rows: usize, iters: usize, f: impl FnMut()) -> BenchEntry {
    reset_peak_rss();
    let (mean_ms, min_ms) = time_ms(iters, f);
    let peak_rss_mb = peak_rss_mb();
    let rss = peak_rss_mb.map_or(String::new(), |r| format!(", peak {r:.0} MiB"));
    eprintln!("{group}/{name} rows={rows}: mean {mean_ms:.3} ms, min {min_ms:.3} ms{rss}");
    BenchEntry {
        group: group.into(),
        name: name.into(),
        rows,
        iters,
        mean_ms,
        min_ms,
        peak_rss_mb,
    }
}

fn census_config(rows: usize) -> CensusConfig {
    CensusConfig {
        rows,
        seed: 5,
        zip_pool: 20,
    }
}

fn census(rows: usize) -> Arc<Dataset> {
    generate(&census_config(rows))
}

/// The mid-lattice node every in-memory and chunked group evaluates.
const NODE: [usize; 6] = [2, 2, 1, 1, 1, 0];

fn grouping_benches(out: &mut Vec<BenchEntry>) {
    let rows = 10_000;
    let ds = census(rows);
    let lattice = Lattice::new(ds.schema().clone()).expect("census lattice");
    let table = lattice.apply(&ds, &NODE, "bench").expect("valid node");
    let records = table.records().to_vec();
    let qi: Vec<usize> = ds.schema().quasi_identifiers().to_vec();
    let codec = GenCodec::new(&ds).expect("census hierarchies are complete");
    let columns: Vec<&[u32]> = (0..NODE.len())
        .map(|dim| codec.encoded_column(dim, NODE[dim]))
        .collect();

    let iters = 20;
    out.push(entry("grouping", "hash", rows, iters, || {
        std::hint::black_box(EquivalenceClasses::group_by_hash(&records, &qi));
    }));
    out.push(entry("grouping", "sort", rows, iters, || {
        std::hint::black_box(EquivalenceClasses::group_by_sort(&records, &qi));
    }));
    out.push(entry("grouping", "codes", rows, iters, || {
        std::hint::black_box(EquivalenceClasses::group_by_codes(rows, &columns));
    }));
}

/// DESIGN.md decision 2: memoized vs direct cell-loss computation over
/// every cell of a full-domain release.
fn loss_cache_benches(out: &mut Vec<BenchEntry>) {
    let metric = LossMetric::paper_ratio();
    for rows in [1_000usize, 10_000] {
        let ds = census(rows);
        let lattice = Lattice::new(ds.schema().clone()).expect("census lattice");
        let table = lattice.apply(&ds, &NODE, "bench").expect("valid node");
        let width = ds.schema().len();
        let iters = 12;
        out.push(entry("loss_cache", "uncached", rows, iters, || {
            let mut total = 0.0;
            for tuple in 0..table.len() {
                for col in 0..width {
                    total += metric.cell_loss(&ds, col, table.cell(tuple, col));
                }
            }
            std::hint::black_box(total);
        }));
        out.push(entry("loss_cache", "cached", rows, iters, || {
            let mut cache = CellLossCache::new(metric.clone());
            let mut total = 0.0;
            for tuple in 0..table.len() {
                for col in 0..width {
                    total += cache.get(&ds, col, table.cell(tuple, col));
                }
            }
            std::hint::black_box(total);
        }));
    }
}

/// Comparisons per timed `hv_log_vs_exact` iteration: one comparison of
/// two 32-tuple vectors takes well under a microsecond.
const HV_COMPARISONS: usize = 10_000;

/// DESIGN.md decision 3: exact hypervolume products vs the log-space
/// proxy, at a dimension still safe for exact products. Each iteration
/// runs [`HV_COMPARISONS`] comparisons; `rows` is the vector length.
fn hv_benches(out: &mut Vec<BenchEntry>) {
    let n = 32usize;
    let d1 = PropertyVector::new("d1", (0..n).map(|i| ((i % 5) + 2) as f64).collect());
    let d2 = PropertyVector::new("d2", (0..n).map(|i| ((i % 3) + 3) as f64).collect());
    for (name, mode) in [("exact", HvMode::Exact), ("log", HvMode::Log)] {
        let hv = HypervolumeComparator::with_mode(mode);
        out.push(entry("hv_log_vs_exact", name, n, 20, || {
            for _ in 0..HV_COMPARISONS {
                std::hint::black_box(hv.compare(std::hint::black_box(&d1), &d2));
            }
        }));
    }
}

fn algorithm_benches(out: &mut Vec<BenchEntry>) {
    let rows = 600;
    let ds = census(rows);
    let constraint = Constraint::k_anonymity(5).with_suppression(rows / 20);
    let iters = 10;
    out.push(entry("algorithms", "datafly", rows, iters, || {
        std::hint::black_box(Datafly.anonymize(&ds, &constraint).expect("satisfiable"));
    }));
    out.push(entry("algorithms", "samarati", rows, iters, || {
        std::hint::black_box(
            Samarati::default()
                .anonymize(&ds, &constraint)
                .expect("satisfiable"),
        );
    }));
    out.push(entry("algorithms", "incognito", rows, iters, || {
        std::hint::black_box(
            Incognito::default()
                .anonymize(&ds, &constraint)
                .expect("satisfiable"),
        );
    }));
}

fn lattice_benches(out: &mut Vec<BenchEntry>, sizes: &[usize]) {
    for &rows in sizes {
        let ds = census(rows);
        let lattice = Lattice::new(ds.schema().clone()).expect("census lattice");
        let codec = GenCodec::new(&ds).expect("census hierarchies are complete");
        codec.partition(&NODE).expect("valid node"); // warm the encodings
        let parent_levels: Vec<usize> = {
            let mut l = NODE.to_vec();
            l[0] -= 1;
            l
        };
        let parent = codec.partition(&parent_levels).expect("valid parent");

        let iters = 10;
        out.push(entry(
            "lattice_encoded",
            "materialized",
            rows,
            iters,
            || {
                let t = lattice.apply(&ds, &NODE, "bench").expect("valid node");
                std::hint::black_box(t.classes().min_class_size());
            },
        ));
        out.push(entry("lattice_encoded", "encoded", rows, iters, || {
            let p = lattice.evaluate_node(&codec, &NODE).expect("valid node");
            std::hint::black_box(p.min_class_size());
        }));
        out.push(entry("lattice_encoded", "coarsen", rows, iters, || {
            let p = codec.coarsen(&parent, &NODE).expect("nested step");
            std::hint::black_box(p.min_class_size());
        }));
    }
}

fn extraction_properties() -> Vec<Box<dyn Property>> {
    vec![
        Box::new(EqClassSize),
        Box::new(SensitiveValueCount::default()),
        Box::new(GeneralizationLoss::classic()),
        Box::new(Precision),
        Box::new(Discernibility),
    ]
}

fn property_extraction_benches(out: &mut Vec<BenchEntry>, sizes: &[usize]) {
    let props = extraction_properties();
    for &rows in sizes {
        let ds = census(rows);
        let lattice = Lattice::new(ds.schema().clone()).expect("census lattice");
        let codec = GenCodec::new(&ds).expect("census hierarchies are complete");

        let iters = 10;
        out.push(entry(
            "property_extraction",
            "materialized",
            rows,
            iters,
            || {
                let table = lattice.apply(&ds, &NODE, "bench").expect("valid node");
                for p in &props {
                    std::hint::black_box(p.extract(&table));
                }
            },
        ));
        out.push(entry("property_extraction", "encoded", rows, iters, || {
            let partition = codec.partition(&NODE).expect("valid node");
            for p in &props {
                std::hint::black_box(p.extract_encoded(&codec, &partition));
            }
        }));
    }
}

/// The out-of-core groups: rows stream from the generator into fixed-size
/// column chunks (no `Dataset`, no `Vec<Vec<Value>>`), then per-node
/// grouping and property extraction run over the chunked view. The three
/// phases — build, partition, extraction — are timed as separate rows;
/// the extraction row reuses a pre-computed partition so it measures only
/// the property kernels.
fn chunked_benches(out: &mut Vec<BenchEntry>, sizes: &[usize], chunk_threads: usize) {
    let props = extraction_properties();
    for &rows in sizes {
        let config = census_config(rows);
        let iters = if rows > 2_000_000 { 2 } else { 3 };

        let mut built: Option<ChunkedCodec> = None;
        out.push(entry("lattice_encoded", "chunked_build", rows, 1, || {
            built = Some(
                ChunkedCodec::from_rows_parallel(
                    census_schema(config.zip_pool),
                    || CensusRows::new(&config),
                    CHUNK_ROWS,
                    ChunkStore::Memory,
                    chunk_threads,
                )
                .expect("streaming build"),
            );
        }));
        let codec = built.expect("built in the timed closure");
        codec.set_threads(chunk_threads);

        out.push(entry("lattice_encoded", "chunked", rows, iters, || {
            let p = codec.partition(&NODE).expect("valid node");
            std::hint::black_box(p.min_class_size());
        }));
        let partition = codec.partition(&NODE).expect("valid node");
        out.push(entry("property_extraction", "chunked", rows, iters, || {
            for p in &props {
                std::hint::black_box(
                    p.extract_chunked(&codec, &partition)
                        .expect("built-ins have chunked kernels"),
                );
            }
        }));
    }
}

/// All nine built-in properties with chunked kernels — the set the
/// `parallel_scaling` sweep extracts.
fn all_chunked_properties() -> Vec<Box<dyn Property>> {
    vec![
        Box::new(EqClassSize),
        Box::new(BreachProbability),
        Box::new(SensitiveValueCount::default()),
        Box::new(DistinctSensitiveCount::default()),
        Box::new(TClosenessDistance::default()),
        Box::new(IyengarUtility::with_metric(LossMetric::classic())),
        Box::new(GeneralizationLoss::classic()),
        Box::new(Precision),
        Box::new(Discernibility),
    ]
}

/// FNV-1a 64-bit, folded over `bytes`.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Sweeps the chunked pipeline over a thread ladder at one row count,
/// timing each phase and digesting the outputs so bit-identity across
/// thread counts is recorded, not assumed.
fn parallel_scaling(rows: usize) -> ParallelScaling {
    let config = census_config(rows);
    let props = all_chunked_properties();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let iters = if rows > 2_000_000 { 2 } else { 3 };

    let mut phases = Vec::new();
    for threads in [1usize, 2, 4] {
        let mut built: Option<ChunkedCodec> = None;
        let (_, build_ms) = time_ms(1, || {
            built = Some(
                ChunkedCodec::from_rows_parallel(
                    census_schema(config.zip_pool),
                    || CensusRows::new(&config),
                    CHUNK_ROWS,
                    ChunkStore::Memory,
                    threads,
                )
                .expect("streaming build"),
            );
        });
        let codec = built.expect("built in the timed closure");
        codec.set_threads(threads);

        let (_, partition_ms) = time_ms(iters, || {
            let p = codec.partition(&NODE).expect("valid node");
            std::hint::black_box(p.min_class_size());
        });
        let partition = codec.partition(&NODE).expect("valid node");
        let (_, extraction_ms) = time_ms(iters, || {
            for p in &props {
                std::hint::black_box(
                    p.extract_chunked(&codec, &partition)
                        .expect("built-ins have chunked kernels"),
                );
            }
        });

        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let ids = codec.class_ids(&NODE).expect("valid node");
        for id in &ids {
            fnv1a(&mut hash, &id.to_le_bytes());
        }
        for p in &props {
            let v = p
                .extract_chunked(&codec, &partition)
                .expect("built-ins have chunked kernels");
            fnv1a(&mut hash, v.name().as_bytes());
            for x in v.iter() {
                fnv1a(&mut hash, &x.to_bits().to_le_bytes());
            }
        }

        eprintln!(
            "parallel_scaling rows={rows} threads={threads}: build {build_ms:.0} ms, \
             partition {partition_ms:.0} ms, extraction {extraction_ms:.0} ms, \
             digest {hash:016x}"
        );
        phases.push(PhaseTiming {
            threads,
            build_ms,
            partition_ms,
            extraction_ms,
            digest: format!("{hash:016x}"),
        });
    }

    let base = &phases[0];
    let best = |f: fn(&PhaseTiming) -> f64| {
        phases[1..]
            .iter()
            .map(f)
            .fold(f64::INFINITY, f64::min)
            .max(f64::MIN_POSITIVE)
    };
    ParallelScaling {
        rows,
        cores,
        partition_speedup: base.partition_ms / best(|p| p.partition_ms),
        extraction_speedup: base.extraction_ms / best(|p| p.extraction_ms),
        bit_identical: phases.iter().all(|p| p.digest == base.digest),
        phases,
    }
}

fn min_of(benches: &[BenchEntry], group: &str, name: &str, rows: usize) -> Option<f64> {
    benches
        .iter()
        .find(|b| b.group == group && b.name == name && b.rows == rows)
        .map(|b| b.min_ms)
}

fn scaling_of(benches: &[BenchEntry], sizes: &[usize]) -> Option<Scaling> {
    let (&small, &large) = (sizes.iter().min()?, sizes.iter().max()?);
    if small == large {
        return None;
    }
    Some(Scaling {
        rows_small: small,
        rows_large: large,
        partition_ratio: min_of(benches, "lattice_encoded", "chunked", large)?
            / min_of(benches, "lattice_encoded", "chunked", small)?,
        extraction_ratio: min_of(benches, "property_extraction", "chunked", large)?
            / min_of(benches, "property_extraction", "chunked", small)?,
    })
}

/// Peak resident set (VmHWM) of this process in MiB, from
/// `/proc/self/status`. `None` on platforms without procfs.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Resets the VmHWM counter (writing `5` to `/proc/self/clear_refs`), so
/// the next [`peak_rss_mb`] read covers only the work since this call.
/// Best-effort: a failure (non-Linux, locked-down procfs) just leaves the
/// per-entry numbers as lifetime peaks.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

struct Cli {
    path: String,
    rows_override: Option<usize>,
    max_rows: Option<usize>,
    chunk_threads: usize,
    assert_peak_rss_mb: Option<f64>,
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        path: "BENCH_baseline.json".into(),
        rows_override: None,
        max_rows: None,
        chunk_threads: 1,
        assert_peak_rss_mb: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut numeric = |flag: &str| -> f64 {
            args.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{flag} requires a number"))
        };
        match arg.as_str() {
            "--rows" => cli.rows_override = Some(numeric("--rows") as usize),
            "--max-rows" => cli.max_rows = Some(numeric("--max-rows") as usize),
            "--chunk-threads" => cli.chunk_threads = numeric("--chunk-threads") as usize,
            "--assert-peak-rss-mb" => {
                cli.assert_peak_rss_mb = Some(numeric("--assert-peak-rss-mb"));
            }
            other => cli.path = other.into(),
        }
    }
    cli
}

fn capped(groups: &[usize], max_rows: Option<usize>) -> Vec<usize> {
    groups
        .iter()
        .copied()
        .filter(|&rows| max_rows.is_none_or(|cap| rows <= cap))
        .collect()
}

fn main() {
    let cli = parse_cli();
    let in_memory_sizes = capped(&ROW_GROUPS, cli.max_rows);
    let chunked_sizes = capped(
        &cli.rows_override
            .map(|r| vec![r])
            .unwrap_or_else(|| CHUNKED_ROW_GROUPS.to_vec()),
        cli.max_rows,
    );

    let mut benches = Vec::new();
    grouping_benches(&mut benches);
    loss_cache_benches(&mut benches);
    hv_benches(&mut benches);
    algorithm_benches(&mut benches);
    lattice_benches(&mut benches, &in_memory_sizes);
    property_extraction_benches(&mut benches, &in_memory_sizes);
    comparator_matrix_benches(&mut benches);
    let perturbative = perturbative_benches(&mut benches);
    chunked_benches(&mut benches, &chunked_sizes, cli.chunk_threads);
    let parallel = chunked_sizes
        .iter()
        .min()
        .map(|&rows| parallel_scaling(rows));

    // Speedups are quoted at the largest in-memory size that actually ran
    // (50k unless `--max-rows` filtered it); 0.0 means "not measured".
    let speedup_rows = in_memory_sizes.last().copied();
    let ratio = |num: Option<f64>, den: Option<f64>| match (num, den) {
        (Some(n), Some(d)) if d > 0.0 => n / d,
        _ => 0.0,
    };
    let materialized =
        speedup_rows.and_then(|r| min_of(&benches, "lattice_encoded", "materialized", r));
    let scalar_total: f64 = ["cov", "rank", "hv"]
        .iter()
        .filter_map(|t| {
            min_of(
                &benches,
                "comparator_matrix",
                &format!("scalar_{t}"),
                10_000,
            )
        })
        .sum();
    let matrix_total: f64 = ["cov", "rank", "hv"]
        .iter()
        .filter_map(|t| {
            min_of(
                &benches,
                "comparator_matrix",
                &format!("matrix_{t}"),
                10_000,
            )
        })
        .sum();
    let baseline = Baseline {
        encoded_speedup_50k: ratio(
            materialized,
            speedup_rows.and_then(|r| min_of(&benches, "lattice_encoded", "encoded", r)),
        ),
        coarsen_speedup_50k: ratio(
            materialized,
            speedup_rows.and_then(|r| min_of(&benches, "lattice_encoded", "coarsen", r)),
        ),
        extraction_speedup_50k: ratio(
            speedup_rows.and_then(|r| min_of(&benches, "property_extraction", "materialized", r)),
            speedup_rows.and_then(|r| min_of(&benches, "property_extraction", "encoded", r)),
        ),
        matrix_speedup_m32: ratio(Some(scalar_total), Some(matrix_total)),
        scaling: scaling_of(&benches, &chunked_sizes),
        parallel_scaling: parallel,
        perturbative,
        // Per-entry resets wiped the process-lifetime VmHWM, so the
        // gated number is the worst window: max over entries plus a
        // final read covering everything since the last reset.
        peak_rss_mb: benches
            .iter()
            .filter_map(|b| b.peak_rss_mb)
            .chain(peak_rss_mb())
            .fold(None, |acc: Option<f64>, r| {
                Some(acc.map_or(r, |a| a.max(r)))
            }),
        benches,
    };
    eprintln!(
        "encoded speedup at the largest in-memory size: {:.1}x, coarsen: {:.1}x",
        baseline.encoded_speedup_50k, baseline.coarsen_speedup_50k
    );
    eprintln!(
        "property extraction speedup: {:.1}x, comparator matrix at M=32: {:.1}x",
        baseline.extraction_speedup_50k, baseline.matrix_speedup_m32
    );
    if let Some(scaling) = &baseline.scaling {
        eprintln!(
            "chunked scaling {} -> {} rows: partition {:.1}x, extraction {:.1}x",
            scaling.rows_small,
            scaling.rows_large,
            scaling.partition_ratio,
            scaling.extraction_ratio
        );
    }
    if let Some(ps) = &baseline.parallel_scaling {
        eprintln!(
            "parallel scaling at {} rows on {} core(s): partition {:.2}x, extraction {:.2}x, bit-identical: {}",
            ps.rows, ps.cores, ps.partition_speedup, ps.extraction_speedup, ps.bit_identical
        );
        assert!(
            ps.bit_identical,
            "thread counts disagreed on class ids or property vectors — determinism bug"
        );
    }
    eprintln!(
        "perturbative extraction at {} rows: fast/naive bit-identical: {}, speedup {:.2}x",
        baseline.perturbative.rows,
        baseline.perturbative.fast_naive_identical,
        baseline.perturbative.extraction_speedup
    );
    assert!(
        baseline.perturbative.fast_naive_identical,
        "numeric-property fast paths diverged from the naive references — determinism bug"
    );
    if let Some(rss) = baseline.peak_rss_mb {
        eprintln!("peak RSS: {rss:.0} MiB");
    }
    std::fs::write(&cli.path, baseline.to_json() + "\n").expect("writable output path");
    eprintln!("wrote {}", cli.path);
    if let (Some(cap), Some(rss)) = (cli.assert_peak_rss_mb, baseline.peak_rss_mb) {
        assert!(
            rss <= cap,
            "peak RSS {rss:.0} MiB exceeds the asserted ceiling of {cap:.0} MiB"
        );
    }
}

/// The perturbative group: perturbation application cost plus the fast
/// vs naive extraction race for the numeric properties, with the
/// bit-identity of the two paths recorded (not assumed).
fn perturbative_benches(out: &mut Vec<BenchEntry>) -> Perturbative {
    use anoncmp_microdata::numeric::NumericBase;

    let rows = 4_000;
    let ds = census(rows);
    let base = NumericBase::of(&ds).expect("census has a numeric quasi-identifier");
    let iters = 5;

    for (name, spec) in [
        ("noise", PerturbSpec::noise(0.05)),
        ("mdav", PerturbSpec::mdav(5)),
        ("rankswap", PerturbSpec::rank_swap(8)),
    ] {
        out.push(entry("perturbative", name, rows, iters, || {
            std::hint::black_box(spec.apply(&base, 0xED5B_2009));
        }));
    }

    let release = PerturbSpec::mdav(5).apply(&base, 0xED5B_2009);
    let risk = NeighborhoodRisk::standard();
    let loss = BoundedDistanceLoss;
    out.push(entry("perturbative", "risk_fast", rows, iters, || {
        std::hint::black_box(risk.extract_numeric(&release));
    }));
    out.push(entry("perturbative", "risk_naive", rows, iters, || {
        std::hint::black_box(risk.extract_numeric_naive(&release));
    }));
    out.push(entry("perturbative", "loss_fast", rows, iters, || {
        std::hint::black_box(loss.extract_numeric(&release));
    }));
    out.push(entry("perturbative", "loss_naive", rows, iters, || {
        std::hint::black_box(loss.extract_numeric_naive(&release));
    }));

    let bits =
        |v: &PropertyVector| -> Vec<u64> { v.values().iter().map(|x| x.to_bits()).collect() };
    let fast_naive_identical = bits(&risk.extract_numeric(&release))
        == bits(&risk.extract_numeric_naive(&release))
        && bits(&loss.extract_numeric(&release)) == bits(&loss.extract_numeric_naive(&release));
    let fast = min_of(out, "perturbative", "risk_fast", rows)
        .zip(min_of(out, "perturbative", "loss_fast", rows))
        .map(|(a, b)| a + b);
    let naive = min_of(out, "perturbative", "risk_naive", rows)
        .zip(min_of(out, "perturbative", "loss_naive", rows))
        .map(|(a, b)| a + b);
    Perturbative {
        rows,
        fast_naive_identical,
        extraction_speedup: match (naive, fast) {
            (Some(n), Some(f)) if f > 0.0 => n / f,
            _ => 0.0,
        },
    }
}

/// Candidate pool for the matrix benches: `m` vectors of `n` tuples.
fn candidate_pool(m: usize, n: usize) -> Vec<PropertyVector> {
    (0..m)
        .map(|i| {
            PropertyVector::new(
                format!("c{i}"),
                (0..n)
                    .map(|t| ((i * 7 + t * 11) % 13) as f64 + 1.0)
                    .collect(),
            )
        })
        .collect()
}

fn comparator_matrix_benches(out: &mut Vec<BenchEntry>) {
    let (m, n) = (32usize, 10_000usize);
    let pool = candidate_pool(m, n);
    let names: Vec<String> = (0..m).map(|i| i.to_string()).collect();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let refs: Vec<&PropertyVector> = pool.iter().collect();
    let comparators: Vec<(&str, Box<dyn Comparator>)> = vec![
        ("cov", Box::new(CoverageComparator)),
        ("rank", Box::new(RankComparator::toward_ideal_of(&refs))),
        ("hv", Box::new(HypervolumeComparator::default())),
    ];
    let iters = 5;
    for (tag, c) in &comparators {
        out.push(entry(
            "comparator_matrix",
            &format!("scalar_{tag}"),
            n,
            iters,
            || {
                for i in 0..m {
                    for j in 0..m {
                        if i != j {
                            std::hint::black_box(c.compare(&pool[i], &pool[j]));
                        }
                    }
                }
            },
        ));
        out.push(entry(
            "comparator_matrix",
            &format!("matrix_{tag}"),
            n,
            iters,
            || {
                std::hint::black_box(ComparisonMatrix::of_vectors(&name_refs, &pool, c.as_ref()));
            },
        ));
    }
}
