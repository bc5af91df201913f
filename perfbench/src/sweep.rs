//! `sweep_mixed`: the paper's batch study as a closed loop with one caller.
//!
//! Each operation builds a fresh [`Engine`] with `--threads` workers (the cold caches of
//! a CLI process) and runs one mixed-family tournament on a 5,000-row
//! census dataset: six generalization algorithms and three perturbative
//! methods, each at k = 5 and k = 25, then the ▶cov and ▶spr matrices
//! over the neighborhood-risk vectors. Operations rotate over eight
//! pinned dataset seeds in a seed-derived order, and each one's output
//! digest must equal the pinned digest for its dataset seed.

use std::collections::HashSet;
use std::time::Instant;

use anoncmp_core::prelude::{
    ComparisonMatrix, CoverageComparator, PropertyVector, SpreadComparator,
};
use anoncmp_engine::fingerprint::derive_seed;
use anoncmp_engine::prelude::*;
use anoncmp_microdata::numeric::{NumericBase, Release};

use crate::stats::{self, digest, median, ms_since, Tally};
use crate::trace::{SpanId, Tracer};
use crate::{Context, Metric, Report};

/// Rows of every operation's dataset.
pub const ROWS: usize = 5_000;
/// Rows of the set-up warm-up operation.
const WARMUP_ROWS: usize = 500;
const ZIP_POOL: usize = 25;
/// Intra-job chunk threads of every engine.
pub const CHUNK_THREADS: usize = 1;
/// Pinned dataset seeds: `POOL_BASE + i` for `i < POOL`. Every run
/// visits all of them, in an order derived from the workload seed, so
/// runs with different seeds do the same work.
pub const POOL: usize = 8;
const POOL_BASE: u64 = 0x5EED_5000;
const KS: [usize; 2] = [5, 25];
const GENERALIZATION: [AlgorithmSpec; 6] = [
    AlgorithmSpec::Datafly,
    AlgorithmSpec::Samarati,
    AlgorithmSpec::Incognito,
    AlgorithmSpec::SubsetIncognito,
    AlgorithmSpec::Mondrian,
    AlgorithmSpec::TopDown,
];
const METHODS: [&str; 3] = ["mdav:5", "rankswap:8", "noise:0.05"];
const CLASSIC: [PropertySpec; 5] = [
    PropertySpec::EqClassSize,
    PropertySpec::IyengarUtility,
    PropertySpec::Precision,
    PropertySpec::Discernibility,
    PropertySpec::NeighborhoodRisk,
];
const NUMERIC: [PropertySpec; 2] = [PropertySpec::NeighborhoodRisk, PropertySpec::BoundedLoss];

/// The pinned dataset seed at pool index `i`.
pub fn pool_seed(i: usize) -> u64 {
    POOL_BASE + i as u64
}

/// The 18 jobs of one operation, k-major.
pub fn jobs(rows: usize, dataset_seed: u64) -> Vec<EvalJob> {
    let dataset = DatasetSpec::Census {
        rows,
        seed: dataset_seed,
        zip_pool: ZIP_POOL,
    };
    let mut jobs = Vec::new();
    for k in KS {
        let job = |algorithm, properties: &[PropertySpec]| EvalJob {
            dataset: dataset.clone(),
            algorithm,
            k,
            max_suppression: rows / 20,
            properties: properties.to_vec(),
        };
        jobs.extend(GENERALIZATION.iter().map(|&a| job(a, &CLASSIC)));
        jobs.extend(METHODS.iter().map(|m| {
            job(
                AlgorithmSpec::by_name(m).expect("method wire name"),
                &NUMERIC,
            )
        }));
    }
    jobs
}

fn engine(jobs: usize) -> Engine {
    Engine::new(EngineConfig {
        jobs,
        chunk_threads: CHUNK_THREADS,
        root_seed: crate::ROOT_SEED,
        ..EngineConfig::default()
    })
}

fn risk_vectors(sweep: &SweepResult) -> (Vec<String>, Vec<PropertyVector>) {
    sweep
        .outcomes
        .iter()
        .filter_map(|o| {
            let v = o.vectors.iter().find(|v| v.name() == "neighborhood-risk")?;
            Some((
                format!("{}@k{}", o.job.algorithm.label(), o.job.k),
                v.clone(),
            ))
        })
        .unzip()
}

fn matrices(sweep: &SweepResult) -> (ComparisonMatrix, ComparisonMatrix) {
    let (names, vectors) = risk_vectors(sweep);
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    (
        ComparisonMatrix::of_vectors(&names, &vectors, &CoverageComparator),
        ComparisonMatrix::of_vectors(&names, &vectors, &SpreadComparator),
    )
}

/// One operation's outputs.
struct Operation {
    sweep: SweepResult,
    jsonl: String,
    matrices: (ComparisonMatrix, ComparisonMatrix),
    wall_ms: f64,
    vector_hits: (u64, u64),
}

impl Operation {
    fn run(engine_jobs: usize, jobs: &[EvalJob]) -> Operation {
        let engine = engine(engine_jobs);
        let started = Instant::now();
        let sweep = engine.run(jobs);
        let jsonl = sweep.canonical_jsonl();
        let matrices = matrices(&sweep);
        let wall_ms = ms_since(started);
        Operation {
            vector_hits: engine.vector_cache_stats(),
            sweep,
            jsonl,
            matrices,
            wall_ms,
        }
    }

    /// Digest of the canonical JSONL followed by both rendered matrices.
    fn digest(&self) -> String {
        let mut text = self.jsonl.clone();
        text.push_str(&self.matrices.0.render());
        text.push_str(&self.matrices.1.render());
        digest(text.as_bytes())
    }

    fn failed_jobs(&self) -> usize {
        self.sweep
            .outcomes
            .iter()
            .filter(|o| !o.record.status.is_ok())
            .count()
    }

    fn ok(&self, expected: Option<&str>) -> bool {
        self.failed_jobs() == 0 && expected == Some(self.digest().as_str())
    }
}

/// Pinned output digest of every pool seed (`--pin`).
pub fn pin(threads: usize) -> Vec<(u64, String)> {
    (0..POOL)
        .map(|i| {
            let seed = pool_seed(i);
            let op = Operation::run(threads, &jobs(ROWS, seed));
            assert_eq!(op.failed_jobs(), 0, "sweep pin: failed jobs on seed {seed}");
            (seed, op.digest())
        })
        .collect()
}

/// Set-up: the run's job lists plus one small warm-up operation that
/// touches every code path the timed operations use. Also returns
/// whether every warm-up job succeeded.
fn prepare(ctx: &Context) -> (Vec<(u64, Vec<EvalJob>)>, bool) {
    let plan: Vec<(u64, Vec<EvalJob>)> = stats::rotation(ctx.seed, POOL, POOL)
        .into_iter()
        .map(|i| (pool_seed(i), jobs(ROWS, pool_seed(i))))
        .collect();
    let warmup = Operation::run(ctx.threads, &jobs(WARMUP_ROWS, plan[0].0));
    (plan, warmup.failed_jobs() == 0)
}

/// The untraced run: end-to-end metrics.
pub fn run(ctx: &Context) -> Report {
    let ((plan, warmed), setup_s) = stats::repeated_setup(crate::SETUP_REPS, || prepare(ctx));
    let mut tally = Tally::default();
    tally.record(warmed);
    let mut latencies = Vec::new();
    let mut completed_jobs = 0usize;
    let window = Instant::now();
    while window.elapsed().as_secs_f64() < ctx.seconds {
        let (seed, jobs) = &plan[latencies.len() % plan.len()];
        let op = Operation::run(ctx.threads, jobs);
        latencies.push(op.wall_ms);
        completed_jobs += op.sweep.outcomes.len();
        tally.record(op.ok(ctx.pins.get("sweep", *seed)));
    }
    let window_s = window.elapsed().as_secs_f64();
    let mut report =
        Report::end_to_end(tally, setup_s, &latencies, completed_jobs as f64 / window_s);
    report.info("rows", ROWS);
    report.info("jobs_per_op", plan[0].1.len());
    report.info(
        "dataset_seeds",
        format!("{:?}", plan.iter().map(|p| p.0).collect::<Vec<_>>()),
    );
    report
}

/// Stage spans of one single-worker replay, named after the layers.
const STAGES: [&str; 7] = [
    "datagen.synthesize",
    "anonymize.lattice",
    "anonymize.local",
    "anonymize.perturb",
    "core.extract",
    "core.extract_numeric",
    "core.matrix",
];

/// Replays operation `op_id` stage by stage through the layers' public
/// entry points, on the calling thread, exactly as a single-worker engine
/// runs it: one synthesis, one anonymization per job, extraction skipped
/// for a release digest the operation has already extracted (the engine's
/// content-addressed vector cache), then the matrices. Returns whether
/// the replay reproduced the engine's vectors.
fn replay(
    tracer: &Tracer,
    op_id: u64,
    parent: SpanId,
    jobs: &[EvalJob],
    reference: &SweepResult,
) -> bool {
    let span = |name, f: &mut dyn FnMut()| tracer.span(name, op_id, Some(parent), f);
    let mut dataset = None;
    span("datagen.synthesize", &mut || {
        dataset = Some(jobs[0].dataset.materialize())
    });
    let dataset = dataset.expect("synthesized");
    let mut extracted: HashSet<(String, &'static str)> = HashSet::new();
    let mut risk: Vec<PropertyVector> = Vec::new();
    let mut names: Vec<String> = Vec::new();
    let mut faithful = true;
    for (job, outcome) in jobs.iter().zip(&reference.outcomes) {
        let seed = derive_seed(crate::ROOT_SEED, job.release_fingerprint());
        let mut release = None;
        match job.algorithm.perturb() {
            Some(method) => span("anonymize.perturb", &mut || {
                let base = NumericBase::of(&dataset).expect("census has numeric QIs");
                release = Some(Release::Numeric(method.apply(&base, seed)));
            }),
            None => {
                let stage = match job.algorithm {
                    AlgorithmSpec::Mondrian | AlgorithmSpec::TopDown => "anonymize.local",
                    _ => "anonymize.lattice",
                };
                span(stage, &mut || {
                    release = job
                        .algorithm
                        .instantiate(seed)
                        .anonymize(&dataset, &job.constraint())
                        .ok()
                        .map(Release::Generalized);
                });
            }
        }
        let (Some(release), Some(digest)) = (release, outcome.record.release_digest.clone()) else {
            return false;
        };
        for (property, expected) in job.properties.iter().zip(&outcome.vectors) {
            if !extracted.insert((digest.clone(), property.tag())) {
                continue;
            }
            let stage = if property.is_numeric() {
                "core.extract_numeric"
            } else {
                "core.extract"
            };
            let mut vector = None;
            span(stage, &mut || vector = Some(extract(property, &release)));
            let vector = vector.expect("extracted");
            faithful &= same_bits(&vector, expected);
        }
        if let Some(v) = outcome
            .vectors
            .iter()
            .find(|v| v.name() == "neighborhood-risk")
        {
            names.push(format!("{}@k{}", job.algorithm.label(), job.k));
            risk.push(v.clone());
        }
    }
    span("core.matrix", &mut || {
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        std::hint::black_box(ComparisonMatrix::of_vectors(
            &names,
            &risk,
            &CoverageComparator,
        ));
        std::hint::black_box(ComparisonMatrix::of_vectors(
            &names,
            &risk,
            &SpreadComparator,
        ));
    });
    faithful
}

/// The engine's extraction dispatch: the numeric fast path on numeric
/// releases, the `Property` trait on generalized tables.
fn extract(property: &PropertySpec, release: &Release) -> PropertyVector {
    match release {
        Release::Numeric(numeric) => property
            .extract_numeric(numeric)
            .expect("only numeric properties run on numeric releases"),
        Release::Generalized(table) => property.instantiate().extract(table),
    }
}

fn same_bits(a: &PropertyVector, b: &PropertyVector) -> bool {
    a.values().len() == b.values().len()
        && a.values()
            .iter()
            .zip(b.values())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The traced run: per-layer metrics. Each operation runs three times —
/// the timed two-worker operation, a single-worker `Engine::run` of the
/// same jobs, and the stage-by-stage replay — so the stages can be set
/// against the single-worker time they should explain.
pub fn trace(ctx: &Context, seconds: f64, tracer: &Tracer) -> Report {
    let (plan, warmed) = prepare(ctx);
    let mut tally = Tally::default();
    tally.record(warmed);
    let mut per_op: Vec<Vec<f64>> = Vec::new(); // stage sums, then single, op, hit ratio, jobs, failed
    let window = Instant::now();
    let mut op_id = 0u64;
    while op_id == 0 || window.elapsed().as_secs_f64() < seconds {
        let (seed, jobs) = &plan[op_id as usize % plan.len()];
        let root = tracer.begin("sweep.op", op_id, None);
        let op = Operation::run(ctx.threads, jobs);
        tracer.end(root);
        let single_span = tracer.begin("engine.run_single", op_id, None);
        let single = Operation::run(1, jobs);
        tracer.end(single_span);
        let replay_root = tracer.begin("sweep.replay", op_id, None);
        let faithful = replay(tracer, op_id, replay_root, jobs, &single.sweep);
        tracer.end(replay_root);
        tally.record(
            faithful
                && op.ok(ctx.pins.get("sweep", *seed))
                && single.ok(ctx.pins.get("sweep", *seed)),
        );

        let mut row: Vec<f64> = STAGES.iter().map(|s| tracer.total_ms(op_id, s)).collect();
        let (hits, misses) = op.vector_hits;
        row.extend([
            tracer.total_ms(op_id, "engine.run_single"),
            op.wall_ms,
            hits as f64 / (hits + misses).max(1) as f64,
            op.sweep.outcomes.len() as f64,
            op.failed_jobs() as f64,
        ]);
        per_op.push(row);
        op_id += 1;
    }
    let column = |i: usize| median(&per_op.iter().map(|r| r[i]).collect::<Vec<_>>());
    let explained: Vec<f64> = per_op
        .iter()
        .map(|r| r[..STAGES.len()].iter().sum())
        .collect();
    let single_ms = column(STAGES.len());
    let residual: Vec<f64> = per_op
        .iter()
        .zip(&explained)
        .map(|(r, e)| r[STAGES.len()] - e)
        .collect();
    let share: Vec<f64> = per_op
        .iter()
        .zip(&explained)
        .map(|(r, e)| e / r[STAGES.len()])
        .collect();
    let speedup: Vec<f64> = per_op
        .iter()
        .map(|r| r[STAGES.len()] / r[STAGES.len() + 1])
        .collect();

    let mut metrics: Vec<Metric> = STAGES
        .iter()
        .enumerate()
        .map(|(i, stage)| Metric::new(format!("{stage}_ms"), column(i), "ms"))
        .collect();
    metrics.extend([
        Metric::new("engine.single_worker_ms", single_ms, "ms"),
        Metric::new("engine.residual_ms", median(&residual), "ms"),
        Metric::new("engine.explained_share", median(&share), "ratio"),
        Metric::new("engine.parallel_speedup", median(&speedup), "ratio"),
        Metric::new("engine.vector_hit_ratio", column(STAGES.len() + 2), "ratio"),
        Metric::new("engine.jobs", column(STAGES.len() + 3), "count"),
        Metric::new("engine.failed", column(STAGES.len() + 4), "count"),
        Metric::new(
            "sweep.traced_p50_ms",
            median(&tracer.durations_ms("sweep.op")),
            "ms",
        ),
    ]);
    let mut report = Report::new(tally, metrics);
    report.info("sweep_traced_ops", per_op.len());
    report
}
