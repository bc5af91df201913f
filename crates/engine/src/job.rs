//! Typed evaluation-job specifications.
//!
//! An [`EvalJob`] is a *plain-data* description of one release to compute
//! and measure: which dataset to synthesize, which algorithm to run with
//! which privacy parameters, and which property vectors to extract from
//! the result. Plain data matters twice over: the engine's workers rebuild
//! algorithm instances from specs inside their own threads (the
//! [`Anonymizer`] trait objects are not `Send`), and the memoization cache
//! keys on the spec's content fingerprint rather than on object identity.

use std::sync::Arc;
use std::time::Duration;

use anoncmp_anonymize::prelude::{
    Anonymizer, Constraint, Datafly, Genetic, GeneticConfig, GreedyCluster, GreedyRecoder,
    Incognito, Mondrian, OptimalLattice, PerturbSpec, Result as AnonymizeResult, Samarati,
    SubsetIncognito, TopDown,
};
use anoncmp_core::prelude::{
    BoundedDistanceLoss, BreachProbability, Discernibility, DistinctSensitiveCount, EqClassSize,
    GeneralizationLoss, IyengarUtility, NeighborhoodRisk, Precision, Property, PropertyVector,
    SensitiveValueCount,
};
use anoncmp_datagen::census::{generate, CensusConfig};
use anoncmp_datagen::healthcare::{generate_hospital, HospitalConfig};
use anoncmp_microdata::numeric::NumericRelease;
use anoncmp_microdata::prelude::{AnonymizedTable, Dataset, Value};
use serde::Serialize;

use crate::fingerprint::Fingerprinter;

/// Which dataset a job runs against.
///
/// Synthetic datasets are specified, not passed: the engine materializes
/// them on demand (and memoizes the result), so a spec can be
/// fingerprinted, serialized into an [`EvalRecord`], and compared across
/// processes. Externally loaded data (the CLI's CSV path) enters through
/// [`DatasetSpec::inline`], which fingerprints the dataset's *content* so
/// memoization stays sound.
///
/// [`EvalRecord`]: crate::record::EvalRecord
#[derive(Debug, Clone)]
pub enum DatasetSpec {
    /// The synthetic census microdata of the paper's experiments (§7).
    Census {
        /// Number of tuples.
        rows: usize,
        /// Generator seed.
        seed: u64,
        /// Number of distinct zip codes.
        zip_pool: usize,
    },
    /// The synthetic hospital-discharge dataset.
    Hospital {
        /// Number of discharge records.
        rows: usize,
        /// Generator seed.
        seed: u64,
    },
    /// An already-materialized dataset (e.g. loaded from CSV), keyed by a
    /// content fingerprint. Construct via [`DatasetSpec::inline`].
    Inline {
        /// Display label for records and reports.
        label: String,
        /// FNV-1a fingerprint of the dataset's schema and cell values.
        content_fingerprint: u64,
        /// The dataset itself.
        dataset: Arc<Dataset>,
    },
}

impl PartialEq for DatasetSpec {
    fn eq(&self, other: &Self) -> bool {
        let mut a = Fingerprinter::new();
        let mut b = Fingerprinter::new();
        self.fingerprint_into(&mut a);
        other.fingerprint_into(&mut b);
        a.finish() == b.finish()
    }
}

impl Eq for DatasetSpec {}

impl Serialize for DatasetSpec {
    fn serialize_json(&self, out: &mut String) {
        // Records only need an identifying description, not the data.
        self.label().serialize_json(out);
    }
}

impl DatasetSpec {
    /// Wraps an already-materialized dataset, fingerprinting its schema
    /// and every cell so that equal content yields equal cache keys.
    pub fn inline(label: impl Into<String>, dataset: Arc<Dataset>) -> Self {
        let mut f = Fingerprinter::new();
        let schema = dataset.schema();
        f.write_usize(dataset.len()).write_usize(schema.len());
        for attr in schema.attributes() {
            f.write_str(attr.name());
        }
        for row in 0..dataset.len() {
            for col in 0..schema.len() {
                match dataset.value(row, col) {
                    Value::Int(v) => f.write_u64(1).write_u64(*v as u64),
                    Value::Cat(c) => f.write_u64(2).write_u64(u64::from(*c)),
                };
            }
        }
        DatasetSpec::Inline {
            label: label.into(),
            content_fingerprint: f.finish(),
            dataset,
        }
    }

    /// A short human-readable label (used in reports and records).
    pub fn label(&self) -> String {
        match self {
            DatasetSpec::Census {
                rows,
                seed,
                zip_pool,
            } => {
                format!("census(rows={rows}, seed={seed}, zips={zip_pool})")
            }
            DatasetSpec::Hospital { rows, seed } => {
                format!("hospital(rows={rows}, seed={seed})")
            }
            DatasetSpec::Inline { label, .. } => label.clone(),
        }
    }

    /// The declared row count, without materializing anything. This is
    /// what admission control should consult: it is exact for synthetic
    /// specs and O(1) for inline ones.
    pub fn rows(&self) -> usize {
        match self {
            DatasetSpec::Census { rows, .. } | DatasetSpec::Hospital { rows, .. } => *rows,
            DatasetSpec::Inline { dataset, .. } => dataset.len(),
        }
    }

    /// Synthesizes (or unwraps) the dataset. Deterministic in the spec.
    pub fn materialize(&self) -> Arc<Dataset> {
        match self {
            DatasetSpec::Census {
                rows,
                seed,
                zip_pool,
            } => generate(&CensusConfig {
                rows: *rows,
                seed: *seed,
                zip_pool: *zip_pool,
            }),
            DatasetSpec::Hospital { rows, seed } => generate_hospital(&HospitalConfig {
                rows: *rows,
                seed: *seed,
            }),
            DatasetSpec::Inline { dataset, .. } => dataset.clone(),
        }
    }

    /// Absorbs the spec into a fingerprint.
    pub(crate) fn fingerprint_into(&self, f: &mut Fingerprinter) {
        match self {
            DatasetSpec::Census {
                rows,
                seed,
                zip_pool,
            } => {
                f.write_str("census")
                    .write_usize(*rows)
                    .write_u64(*seed)
                    .write_usize(*zip_pool);
            }
            DatasetSpec::Hospital { rows, seed } => {
                f.write_str("hospital").write_usize(*rows).write_u64(*seed);
            }
            DatasetSpec::Inline {
                content_fingerprint,
                ..
            } => {
                f.write_str("inline").write_u64(*content_fingerprint);
            }
        }
    }
}

/// Which anonymization algorithm a job runs.
///
/// Mirrors the eight-candidate suite of the paper study, plus the
/// perturbative wing ([`AlgorithmSpec::Perturb`]) and two mock algorithms
/// used to exercise the engine's failure paths in tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgorithmSpec {
    /// Sweeney's greedy full-domain generalizer.
    Datafly,
    /// Samarati's binary search over the generalization lattice.
    Samarati,
    /// LeFevre et al.'s bottom-up lattice search.
    Incognito,
    /// LeFevre et al.'s multidimensional median partitioner.
    Mondrian,
    /// The greedy cell-level recoder.
    Greedy,
    /// The single-objective genetic lattice search; its RNG is seeded from
    /// the engine's derived per-job seed.
    Genetic,
    /// Fung & Wang's top-down specialization.
    TopDown,
    /// The greedy k-member clustering anonymizer.
    Clustering,
    /// Incognito restricted to quasi-identifier subsets.
    SubsetIncognito,
    /// Exhaustive optimal lattice search (small lattices only).
    Optimal,
    /// A perturbative method (noise, rank swap, microaggregation, RWN):
    /// produces a [`NumericRelease`] over the dataset's numeric
    /// quasi-identifiers instead of a generalized table. The engine
    /// dispatches these through [`PerturbSpec::apply`], never through
    /// [`AlgorithmSpec::instantiate`].
    Perturb(PerturbSpec),
    /// Test-only: panics partway through `anonymize` to exercise the
    /// engine's `catch_unwind` isolation.
    MockPanic,
    /// Test-only: sleeps for the given number of milliseconds before
    /// delegating to [`Datafly`], to exercise the wall-clock budget.
    MockSleep {
        /// Sleep duration in milliseconds.
        millis: u64,
    },
}

impl AlgorithmSpec {
    /// The suite of the paper's comparison study, in report order.
    pub fn standard_suite() -> Vec<AlgorithmSpec> {
        vec![
            AlgorithmSpec::Datafly,
            AlgorithmSpec::Samarati,
            AlgorithmSpec::Incognito,
            AlgorithmSpec::Mondrian,
            AlgorithmSpec::Greedy,
            AlgorithmSpec::Genetic,
            AlgorithmSpec::TopDown,
            AlgorithmSpec::Clustering,
        ]
    }

    /// The algorithm's display name (matches `Anonymizer::name`).
    pub fn name(&self) -> &'static str {
        match self {
            AlgorithmSpec::Datafly => "datafly",
            AlgorithmSpec::Samarati => "samarati",
            AlgorithmSpec::Incognito => "incognito",
            AlgorithmSpec::Mondrian => "mondrian",
            AlgorithmSpec::Greedy => "greedy",
            AlgorithmSpec::Genetic => "genetic",
            AlgorithmSpec::TopDown => "top-down",
            AlgorithmSpec::Clustering => "clustering",
            AlgorithmSpec::SubsetIncognito => "subset-incognito",
            AlgorithmSpec::Optimal => "optimal",
            AlgorithmSpec::Perturb(spec) => spec.method.family(),
            AlgorithmSpec::MockPanic => "mock-panic",
            AlgorithmSpec::MockSleep { .. } => "mock-sleep",
        }
    }

    /// The algorithm's fully parameterized display label: the wire name
    /// for perturbative methods (`noise:0.05`, `mdav:5`, …) and the plain
    /// [`AlgorithmSpec::name`] otherwise. This is what [`EvalRecord`]s
    /// and reports show, and what [`AlgorithmSpec::by_name`] resolves.
    ///
    /// [`EvalRecord`]: crate::record::EvalRecord
    pub fn label(&self) -> String {
        match self {
            AlgorithmSpec::Perturb(spec) => spec.wire_name(),
            other => other.name().to_owned(),
        }
    }

    /// The perturbative spec, when this is a perturbative method.
    pub fn perturb(&self) -> Option<PerturbSpec> {
        match self {
            AlgorithmSpec::Perturb(spec) => Some(*spec),
            _ => None,
        }
    }

    /// The properties a job of this algorithm extracts: `requested`, or,
    /// when its grid names none, the family default — equivalence-class
    /// sizes for a generalization algorithm, and bounded loss for a
    /// perturbative method, whose release has no classes.
    pub fn properties_or_default(&self, requested: &[PropertySpec]) -> Vec<PropertySpec> {
        if !requested.is_empty() {
            return requested.to_vec();
        }
        match self {
            AlgorithmSpec::Perturb(_) => vec![PropertySpec::BoundedLoss],
            _ => vec![PropertySpec::EqClassSize],
        }
    }

    /// Resolves a display name back to its spec: one of the ten public
    /// generalization algorithms, or a perturbative wire name such as
    /// `noise:0.05` / `rankswap:8` / `mdav:5`. Mock/testing algorithms
    /// are deliberately unresolvable: anything that builds grids from
    /// external input (the serve daemon, dist grid specs) must not be
    /// able to name them.
    pub fn by_name(name: &str) -> Option<AlgorithmSpec> {
        const PUBLIC: [AlgorithmSpec; 10] = [
            AlgorithmSpec::Datafly,
            AlgorithmSpec::Samarati,
            AlgorithmSpec::Incognito,
            AlgorithmSpec::Mondrian,
            AlgorithmSpec::Greedy,
            AlgorithmSpec::Genetic,
            AlgorithmSpec::TopDown,
            AlgorithmSpec::Clustering,
            AlgorithmSpec::SubsetIncognito,
            AlgorithmSpec::Optimal,
        ];
        PUBLIC
            .into_iter()
            .find(|spec| spec.name() == name)
            .or_else(|| PerturbSpec::parse(name).map(AlgorithmSpec::Perturb))
    }

    /// Builds a runnable algorithm instance. `seed` is the engine-derived
    /// per-job seed; only stochastic algorithms consume it.
    ///
    /// # Panics
    /// On [`AlgorithmSpec::Perturb`]: perturbative methods do not emit an
    /// [`AnonymizedTable`] and are applied via [`PerturbSpec::apply`]
    /// instead — the engine dispatches on [`AlgorithmSpec::perturb`]
    /// before ever instantiating.
    pub fn instantiate(&self, seed: u64) -> Box<dyn Anonymizer> {
        match *self {
            AlgorithmSpec::Datafly => Box::new(Datafly),
            AlgorithmSpec::Samarati => Box::new(Samarati),
            AlgorithmSpec::Incognito => Box::new(Incognito),
            AlgorithmSpec::Mondrian => Box::new(Mondrian),
            AlgorithmSpec::Greedy => Box::new(GreedyRecoder),
            AlgorithmSpec::Genetic => {
                let mut genetic = Genetic::default();
                genetic.config = GeneticConfig {
                    seed,
                    ..genetic.config
                };
                Box::new(genetic)
            }
            AlgorithmSpec::TopDown => Box::new(TopDown),
            AlgorithmSpec::Clustering => Box::new(GreedyCluster),
            AlgorithmSpec::SubsetIncognito => Box::new(SubsetIncognito),
            AlgorithmSpec::Optimal => Box::new(OptimalLattice),
            AlgorithmSpec::Perturb(spec) => unreachable!(
                "{} is perturbative: apply via PerturbSpec::apply, not Anonymizer",
                spec.wire_name()
            ),
            AlgorithmSpec::MockPanic => Box::new(MockPanic),
            AlgorithmSpec::MockSleep { millis } => Box::new(MockSleep { millis }),
        }
    }

    /// Absorbs the spec into a fingerprint.
    pub(crate) fn fingerprint_into(&self, f: &mut Fingerprinter) {
        f.write_str(self.name());
        match self {
            AlgorithmSpec::MockSleep { millis } => {
                f.write_u64(*millis);
            }
            AlgorithmSpec::Perturb(spec) => {
                // The family is already in the name; the parameter
                // completes the spec.
                f.write_u64(u64::from(spec.param));
            }
            _ => {}
        }
    }
}

impl Serialize for AlgorithmSpec {
    fn serialize_json(&self, out: &mut String) {
        // Records and reports identify algorithms by their parameterized
        // label (`noise:0.05`), matching what `by_name` resolves.
        self.label().serialize_json(out);
    }
}

/// Which property vector to extract from a release (paper §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum PropertySpec {
    /// Size of each tuple's equivalence class.
    EqClassSize,
    /// Per-tuple disclosure-risk complement.
    BreachProbability,
    /// Iyengar's per-tuple utility (paper parameterization).
    IyengarUtility,
    /// Negated classic generalization loss.
    GeneralizationLoss,
    /// Per-tuple generalization precision.
    Precision,
    /// Negated per-tuple discernibility penalty.
    Discernibility,
    /// Count of the tuple's own sensitive value inside its class.
    SensitiveValueCount,
    /// Distinct sensitive values inside the tuple's class.
    DistinctSensitiveCount,
    /// Standardized-Euclidean k-nearest-neighbor disclosure risk
    /// (numeric; runs on both release families).
    NeighborhoodRisk,
    /// Mahalanobis k-nearest-neighbor disclosure risk (numeric; runs on
    /// both release families).
    MahalanobisRisk,
    /// Chaibub Neto's bounded distance-based information loss (numeric;
    /// runs on both release families).
    BoundedLoss,
}

impl PropertySpec {
    /// Builds the property extractor.
    pub fn instantiate(&self) -> Box<dyn Property> {
        match self {
            PropertySpec::EqClassSize => Box::new(EqClassSize),
            PropertySpec::BreachProbability => Box::new(BreachProbability),
            PropertySpec::IyengarUtility => Box::new(IyengarUtility::paper()),
            PropertySpec::GeneralizationLoss => Box::new(GeneralizationLoss::classic()),
            PropertySpec::Precision => Box::new(Precision),
            PropertySpec::Discernibility => Box::new(Discernibility),
            PropertySpec::SensitiveValueCount => Box::new(SensitiveValueCount { column: None }),
            PropertySpec::DistinctSensitiveCount => {
                Box::new(DistinctSensitiveCount { column: None })
            }
            PropertySpec::NeighborhoodRisk => Box::new(NeighborhoodRisk::standard()),
            PropertySpec::MahalanobisRisk => Box::new(NeighborhoodRisk::mahalanobis()),
            PropertySpec::BoundedLoss => Box::new(BoundedDistanceLoss),
        }
    }

    /// Whether this property is numeric-native: it has an
    /// [`PropertySpec::extract_numeric`] fast path and runs on both
    /// release families. Classic (generalization-structure) properties
    /// return `false` — on a perturbative release they are meaningless
    /// and the engine fails such jobs cleanly instead of extracting.
    pub fn is_numeric(&self) -> bool {
        matches!(
            self,
            PropertySpec::NeighborhoodRisk
                | PropertySpec::MahalanobisRisk
                | PropertySpec::BoundedLoss
        )
    }

    /// Extracts the property from a numeric release via its fast
    /// column-slice path. `None` for classic properties, which have no
    /// numeric-release semantics.
    pub fn extract_numeric(&self, release: &NumericRelease) -> Option<PropertyVector> {
        match self {
            PropertySpec::NeighborhoodRisk => {
                Some(NeighborhoodRisk::standard().extract_numeric(release))
            }
            PropertySpec::MahalanobisRisk => {
                Some(NeighborhoodRisk::mahalanobis().extract_numeric(release))
            }
            PropertySpec::BoundedLoss => Some(BoundedDistanceLoss.extract_numeric(release)),
            _ => None,
        }
    }

    /// The extractor's stable tag, used for fingerprinting, as the
    /// property half of the vector-cache key, and as the property's wire
    /// name in serve requests.
    pub fn tag(&self) -> &'static str {
        match self {
            PropertySpec::EqClassSize => "eq-class-size",
            PropertySpec::BreachProbability => "breach-probability",
            PropertySpec::IyengarUtility => "iyengar-utility",
            PropertySpec::GeneralizationLoss => "generalization-loss",
            PropertySpec::Precision => "precision",
            PropertySpec::Discernibility => "discernibility",
            PropertySpec::SensitiveValueCount => "sensitive-value-count",
            PropertySpec::DistinctSensitiveCount => "distinct-sensitive-count",
            PropertySpec::NeighborhoodRisk => "neighborhood-risk",
            PropertySpec::MahalanobisRisk => "mahalanobis-risk",
            PropertySpec::BoundedLoss => "bounded-loss",
        }
    }

    /// Resolves a stable tag back to its spec.
    pub fn by_tag(tag: &str) -> Option<PropertySpec> {
        const ALL: [PropertySpec; 11] = [
            PropertySpec::EqClassSize,
            PropertySpec::BreachProbability,
            PropertySpec::IyengarUtility,
            PropertySpec::GeneralizationLoss,
            PropertySpec::Precision,
            PropertySpec::Discernibility,
            PropertySpec::SensitiveValueCount,
            PropertySpec::DistinctSensitiveCount,
            PropertySpec::NeighborhoodRisk,
            PropertySpec::MahalanobisRisk,
            PropertySpec::BoundedLoss,
        ];
        ALL.into_iter().find(|spec| spec.tag() == tag)
    }
}

/// One unit of engine work: anonymize a dataset under a constraint and
/// extract the requested property vectors.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EvalJob {
    /// Dataset to synthesize.
    pub dataset: DatasetSpec,
    /// Algorithm to run.
    pub algorithm: AlgorithmSpec,
    /// The k of k-anonymity.
    pub k: usize,
    /// Maximum tuples the algorithm may suppress.
    pub max_suppression: usize,
    /// Property vectors to extract from the release.
    pub properties: Vec<PropertySpec>,
}

impl EvalJob {
    /// The privacy constraint this job anonymizes under.
    pub fn constraint(&self) -> Constraint {
        Constraint::k_anonymity(self.k).with_suppression(self.max_suppression)
    }

    /// Fingerprint of the *release* this job computes — dataset ×
    /// algorithm × privacy parameters, excluding the requested properties
    /// (property extraction is a cheap pure function of the release, so
    /// jobs that differ only in properties share a cache entry). This is
    /// the memoization key, and the per-job seed derives from it, which is
    /// what makes caching sound: two jobs with equal keys also run with
    /// equal seeds, so the cached release is exactly what a fresh run
    /// would have produced.
    pub fn release_fingerprint(&self) -> u64 {
        let mut f = Fingerprinter::new();
        self.dataset.fingerprint_into(&mut f);
        self.algorithm.fingerprint_into(&mut f);
        f.write_usize(self.k).write_usize(self.max_suppression);
        f.finish()
    }

    /// Fingerprint of the whole job, including requested properties. Used
    /// to deduplicate identical jobs within one sweep.
    pub fn job_fingerprint(&self) -> u64 {
        let mut f = Fingerprinter::new();
        f.write_u64(self.release_fingerprint());
        f.write_usize(self.properties.len());
        for p in &self.properties {
            f.write_str(p.tag());
        }
        f.finish()
    }
}

/// Test-only anonymizer that always panics (see [`AlgorithmSpec::MockPanic`]).
struct MockPanic;

impl Anonymizer for MockPanic {
    fn name(&self) -> String {
        "mock-panic".into()
    }

    fn anonymize(
        &self,
        _dataset: &Arc<Dataset>,
        _constraint: &Constraint,
    ) -> AnonymizeResult<AnonymizedTable> {
        panic!("mock-panic: deliberate failure injected for engine tests");
    }
}

/// Test-only anonymizer that stalls before delegating to Datafly (see
/// [`AlgorithmSpec::MockSleep`]).
struct MockSleep {
    millis: u64,
}

impl Anonymizer for MockSleep {
    fn name(&self) -> String {
        "mock-sleep".into()
    }

    fn anonymize(
        &self,
        dataset: &Arc<Dataset>,
        constraint: &Constraint,
    ) -> AnonymizeResult<AnonymizedTable> {
        std::thread::sleep(Duration::from_millis(self.millis));
        Datafly.anonymize(dataset, constraint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(algorithm: AlgorithmSpec, k: usize) -> EvalJob {
        EvalJob {
            dataset: DatasetSpec::Census {
                rows: 100,
                seed: 7,
                zip_pool: 10,
            },
            algorithm,
            k,
            max_suppression: 5,
            properties: vec![PropertySpec::EqClassSize],
        }
    }

    #[test]
    fn suite_matches_the_paper_study() {
        let names: Vec<&str> = AlgorithmSpec::standard_suite()
            .iter()
            .map(|a| a.name())
            .collect();
        assert_eq!(
            names,
            [
                "datafly",
                "samarati",
                "incognito",
                "mondrian",
                "greedy",
                "genetic",
                "top-down",
                "clustering"
            ]
        );
    }

    #[test]
    fn spec_names_match_instances() {
        for spec in AlgorithmSpec::standard_suite() {
            assert_eq!(spec.instantiate(1).name(), spec.name());
        }
    }

    #[test]
    fn release_fingerprint_ignores_properties() {
        let a = job(AlgorithmSpec::Datafly, 3);
        let mut b = a.clone();
        b.properties = vec![PropertySpec::EqClassSize, PropertySpec::Precision];
        assert_eq!(a.release_fingerprint(), b.release_fingerprint());
        assert_ne!(a.job_fingerprint(), b.job_fingerprint());
    }

    #[test]
    fn fingerprint_separates_parameters() {
        let base = job(AlgorithmSpec::Datafly, 3);
        assert_ne!(
            base.release_fingerprint(),
            job(AlgorithmSpec::Datafly, 4).release_fingerprint()
        );
        assert_ne!(
            base.release_fingerprint(),
            job(AlgorithmSpec::Mondrian, 3).release_fingerprint()
        );
    }

    #[test]
    fn perturb_specs_resolve_by_wire_name() {
        for name in [
            "noise:0.05",
            "cnoise:0.1",
            "rankswap:8",
            "microagg:5",
            "mdav:4",
            "rwn:10",
        ] {
            let spec = AlgorithmSpec::by_name(name).expect(name);
            assert_eq!(spec.label(), name);
            assert!(spec.perturb().is_some());
        }
        // Mocks stay unresolvable; unknown perturb families too.
        assert!(AlgorithmSpec::by_name("mock-panic").is_none());
        assert!(AlgorithmSpec::by_name("swap:3").is_none());
    }

    #[test]
    fn perturb_fingerprints_separate_method_and_parameter() {
        let noise5 = job(AlgorithmSpec::Perturb(PerturbSpec::noise(0.05)), 3);
        let noise10 = job(AlgorithmSpec::Perturb(PerturbSpec::noise(0.1)), 3);
        let cnoise5 = job(
            AlgorithmSpec::Perturb(PerturbSpec::correlated_noise(0.05)),
            3,
        );
        assert_ne!(noise5.release_fingerprint(), noise10.release_fingerprint());
        assert_ne!(noise5.release_fingerprint(), cnoise5.release_fingerprint());
        assert_eq!(
            noise5.release_fingerprint(),
            job(AlgorithmSpec::Perturb(PerturbSpec::noise(0.05)), 3).release_fingerprint()
        );
    }

    #[test]
    fn numeric_property_tags_round_trip() {
        for spec in [
            PropertySpec::NeighborhoodRisk,
            PropertySpec::MahalanobisRisk,
            PropertySpec::BoundedLoss,
        ] {
            assert!(spec.is_numeric());
            assert_eq!(PropertySpec::by_tag(spec.tag()), Some(spec));
            // The instantiated Property agrees on the name/tag.
            assert_eq!(spec.instantiate().name(), spec.tag());
        }
        assert!(!PropertySpec::EqClassSize.is_numeric());
    }

    #[test]
    fn inline_specs_fingerprint_by_content() {
        let gen = DatasetSpec::Census {
            rows: 40,
            seed: 9,
            zip_pool: 6,
        };
        let a = DatasetSpec::inline("a.csv", gen.materialize());
        let b = DatasetSpec::inline("b.csv", gen.materialize());
        // Same content, different labels: equal specs (labels are display
        // metadata, not identity).
        assert_eq!(a, b);
        let c = DatasetSpec::inline(
            "c.csv",
            DatasetSpec::Census {
                rows: 40,
                seed: 10,
                zip_pool: 6,
            }
            .materialize(),
        );
        assert_ne!(a, c);
    }

    #[test]
    fn declared_rows_need_no_materialization() {
        let census = DatasetSpec::Census {
            rows: 1_000_000,
            seed: 1,
            zip_pool: 10,
        };
        assert_eq!(census.rows(), 1_000_000);
        let hospital = DatasetSpec::Hospital { rows: 42, seed: 1 };
        assert_eq!(hospital.rows(), 42);
        let inline = DatasetSpec::inline(
            "x",
            DatasetSpec::Census {
                rows: 30,
                seed: 2,
                zip_pool: 5,
            }
            .materialize(),
        );
        assert_eq!(inline.rows(), 30);
    }

    #[test]
    fn dataset_materialization_is_deterministic() {
        let spec = DatasetSpec::Census {
            rows: 50,
            seed: 11,
            zip_pool: 8,
        };
        let a = spec.materialize();
        let b = spec.materialize();
        assert_eq!(a.len(), b.len());
        assert_eq!(a.len(), 50);
    }
}
