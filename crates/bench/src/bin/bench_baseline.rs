//! Emits `BENCH_baseline.json`: machine-readable wall-clock baselines for
//! the `algorithms`, `grouping`, `loss_cache`, `hv_log_vs_exact`,
//! `lattice_encoded`, `property_extraction`, `comparator_matrix` and
//! `perturbative` bench groups, with per-entry peak RSS and the host's
//! core count.
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
//! ```

use std::sync::Arc;
use std::time::Instant;

use anoncmp_anonymize::prelude::*;
use anoncmp_core::prelude::*;
use anoncmp_datagen::census::{generate, CensusConfig};
use anoncmp_microdata::loss::{CellLossCache, LossMetric};
use anoncmp_microdata::prelude::*;
use serde::Serialize;

/// Row counts for the lattice and extraction groups (materialized vs
/// encoded).
const ROW_GROUPS: [usize; 2] = [10_000, 50_000];

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
    /// `std::thread::available_parallelism` on the measuring host.
    cores: usize,
    /// Speedup of encoded per-node evaluation over `Lattice::apply` at the
    /// largest measured size, 50k rows (min-over-min ratio).
    encoded_speedup_50k: f64,
    /// Speedup of incremental coarsening over `Lattice::apply` at the
    /// largest measured size.
    coarsen_speedup_50k: f64,
    /// Speedup of encoded property extraction over the materialize-then-
    /// extract path at the largest measured size.
    extraction_speedup_50k: f64,
    /// Speedup of the batched `ComparisonMatrix` kernel over the scalar
    /// all-ordered-pairs sweep for 32 candidates (summed over the cov,
    /// rank, and hv comparators).
    matrix_speedup_m32: f64,
    /// Perturbative-wing equivalence and speedup summary.
    perturbative: Perturbative,
    /// The worst per-entry peak RSS (plus the final read), in MiB.
    /// `None` off Linux.
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

fn census(rows: usize) -> Arc<Dataset> {
    generate(&CensusConfig {
        rows,
        seed: 5,
        zip_pool: 20,
    })
}

/// The mid-lattice node every lattice and extraction group evaluates.
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

fn min_of(benches: &[BenchEntry], group: &str, name: &str, rows: usize) -> Option<f64> {
    benches
        .iter()
        .find(|b| b.group == group && b.name == name && b.rows == rows)
        .map(|b| b.min_ms)
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

/// The output path: the one optional argument.
fn output_path() -> String {
    let mut args = std::env::args().skip(1);
    let path = args.next().unwrap_or_else(|| "BENCH_baseline.json".into());
    if path.starts_with("--") || args.next().is_some() {
        eprintln!("usage: bench_baseline [OUTPUT.json]");
        std::process::exit(2);
    }
    path
}

fn main() {
    let path = output_path();
    let mut benches = Vec::new();
    grouping_benches(&mut benches);
    loss_cache_benches(&mut benches);
    hv_benches(&mut benches);
    algorithm_benches(&mut benches);
    lattice_benches(&mut benches, &ROW_GROUPS);
    property_extraction_benches(&mut benches, &ROW_GROUPS);
    comparator_matrix_benches(&mut benches);
    let perturbative = perturbative_benches(&mut benches);

    // Speedups are quoted at the largest size.
    let rows = ROW_GROUPS[ROW_GROUPS.len() - 1];
    let ratio = |num: Option<f64>, den: Option<f64>| match (num, den) {
        (Some(n), Some(d)) if d > 0.0 => n / d,
        _ => 0.0,
    };
    let materialized = min_of(&benches, "lattice_encoded", "materialized", rows);
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
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        encoded_speedup_50k: ratio(
            materialized,
            min_of(&benches, "lattice_encoded", "encoded", rows),
        ),
        coarsen_speedup_50k: ratio(
            materialized,
            min_of(&benches, "lattice_encoded", "coarsen", rows),
        ),
        extraction_speedup_50k: ratio(
            min_of(&benches, "property_extraction", "materialized", rows),
            min_of(&benches, "property_extraction", "encoded", rows),
        ),
        matrix_speedup_m32: ratio(Some(scalar_total), Some(matrix_total)),
        perturbative,
        // Per-entry resets wiped the process-lifetime VmHWM, so the
        // recorded number is the worst window: max over entries plus a
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
        "encoded speedup at {rows} rows: {:.1}x, coarsen: {:.1}x",
        baseline.encoded_speedup_50k, baseline.coarsen_speedup_50k
    );
    eprintln!(
        "property extraction speedup: {:.1}x, comparator matrix at M=32: {:.1}x",
        baseline.extraction_speedup_50k, baseline.matrix_speedup_m32
    );
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
        eprintln!("peak RSS: {rss:.0} MiB on {} core(s)", baseline.cores);
    }
    std::fs::write(&path, baseline.to_json() + "\n").expect("writable output path");
    eprintln!("wrote {path}");
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
