//! Wire → engine mapping and request validation.
//!
//! Wire requests name algorithms and properties by their stable string
//! tags; this module resolves those names onto [`AlgorithmSpec`] /
//! [`PropertySpec`] values and expands a validated request into the
//! [`EvalJob`] list the shared engine runs. Validation is strict and
//! bounded: unknown names, test-only mocks, and absurd sizes are rejected
//! *before* any dataset is synthesized, so a malicious or confused client
//! cannot make the daemon burn minutes of CPU on one request.

use std::fmt;

use anoncmp_core::wire::{CompareRequest, SweepRequest, WireDataset};
use anoncmp_engine::prelude::{AlgorithmSpec, DatasetSpec, EvalJob, PropertySpec};

/// Why planning refused a request before any work began.
///
/// The two variants map onto distinct HTTP statuses: an over-cap dataset
/// is the client's payload being too large (413, retryable with a smaller
/// request), while everything else is a malformed request (400).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The declared dataset exceeds the server's row cap. Admission
    /// consults only the spec's declared row count
    /// ([`DatasetSpec::rows`]) — nothing is synthesized or materialized
    /// for a request that will be refused.
    TooLarge(String),
    /// Anything else wrong with the request.
    Invalid(String),
}

impl PlanError {
    /// The human-readable refusal reason.
    pub fn message(&self) -> &str {
        match self {
            PlanError::TooLarge(m) | PlanError::Invalid(m) => m,
        }
    }
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.message())
    }
}

/// Hard caps applied to every request, keeping worst-case work bounded.
#[derive(Debug, Clone, Copy)]
pub struct RequestLimits {
    /// Maximum dataset rows a request may ask the server to synthesize.
    pub max_rows: usize,
    /// Maximum k values in one sweep.
    pub max_ks: usize,
    /// Maximum k itself.
    pub max_k: usize,
}

impl Default for RequestLimits {
    fn default() -> Self {
        RequestLimits {
            max_rows: 20_000,
            max_ks: 64,
            max_k: 10_000,
        }
    }
}

/// The algorithms a request may name: the paper's standard suite plus the
/// two extended candidates. The test-only mocks (`mock-panic`,
/// `mock-sleep`) are deliberately absent — a network client must not be
/// able to crash or stall workers by name.
const SERVABLE_ALGORITHMS: [AlgorithmSpec; 10] = [
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

/// Every property a request may name.
const SERVABLE_PROPERTIES: [PropertySpec; 11] = [
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

/// Resolves an algorithm wire name. Mocks and unknown names are errors.
pub fn algorithm_by_name(name: &str) -> Result<AlgorithmSpec, String> {
    SERVABLE_ALGORITHMS
        .iter()
        .find(|a| a.name() == name)
        .copied()
        .ok_or_else(|| format!("unknown algorithm {name:?}"))
}

/// Resolves a perturbative method wire name (`noise:0.05`, `rankswap:8`,
/// `mdav:5`, …). Only perturbative names are accepted here — algorithm
/// names go in the request's `algorithms` list.
pub fn method_by_name(name: &str) -> Result<AlgorithmSpec, String> {
    match AlgorithmSpec::by_name(name) {
        Some(spec) if spec.perturb().is_some() => Ok(spec),
        Some(_) => Err(format!(
            "{name:?} is an algorithm, not a perturbative method — put it in \"algorithms\""
        )),
        None => Err(format!("unknown perturbative method {name:?}")),
    }
}

/// Resolves a property wire name.
pub fn property_by_name(name: &str) -> Result<PropertySpec, String> {
    SERVABLE_PROPERTIES
        .iter()
        .find(|p| p.tag() == name)
        .copied()
        .ok_or_else(|| format!("unknown property {name:?}"))
}

fn dataset_spec(dataset: WireDataset, limits: &RequestLimits) -> Result<DatasetSpec, PlanError> {
    let spec = match dataset {
        WireDataset::Census {
            rows,
            seed,
            zip_pool,
        } => DatasetSpec::Census {
            rows,
            seed,
            zip_pool,
        },
        WireDataset::Hospital { rows, seed } => DatasetSpec::Hospital { rows, seed },
    };
    // Admission control reads the spec's declared row count, so no rows
    // are ever generated for a request that gets refused here.
    let rows = spec.rows();
    if rows == 0 {
        return Err(PlanError::Invalid(
            "dataset: \"rows\" must be at least 1".into(),
        ));
    }
    if rows > limits.max_rows {
        return Err(PlanError::TooLarge(format!(
            "dataset: {rows} rows exceeds the server limit of {} — split the request",
            limits.max_rows
        )));
    }
    Ok(spec)
}

fn algorithms(names: &[String]) -> Result<Vec<AlgorithmSpec>, String> {
    if names.is_empty() {
        return Ok(AlgorithmSpec::standard_suite());
    }
    names.iter().map(|n| algorithm_by_name(n)).collect()
}

fn methods(names: &[String]) -> Result<Vec<AlgorithmSpec>, String> {
    names.iter().map(|n| method_by_name(n)).collect()
}

/// The properties the request names, applied verbatim to every job (a
/// classic property on a perturbative release then fails that job
/// cleanly, as documented). An empty list gives each job its family's
/// default ([`AlgorithmSpec::properties_or_default`]).
fn properties(names: &[String]) -> Result<Vec<PropertySpec>, String> {
    names.iter().map(|n| property_by_name(n)).collect()
}

/// A validated compare request, expanded to engine jobs: one per
/// algorithm in request order, then one per perturbative method in
/// request order.
#[derive(Debug, Clone)]
pub struct ComparePlan {
    /// One job per requested algorithm.
    pub jobs: Vec<EvalJob>,
    /// The request's wall-clock budget, if any.
    pub budget_ms: Option<u64>,
}

/// Validates and expands a compare request.
pub fn plan_compare(
    req: &CompareRequest,
    limits: &RequestLimits,
) -> Result<ComparePlan, PlanError> {
    if req.k > limits.max_k {
        return Err(PlanError::Invalid(format!(
            "\"k\" exceeds the server limit of {}",
            limits.max_k
        )));
    }
    let dataset = dataset_spec(req.dataset, limits)?;
    let algorithms = algorithms(&req.algorithms).map_err(PlanError::Invalid)?;
    let methods = methods(&req.methods).map_err(PlanError::Invalid)?;
    let properties = properties(&req.properties).map_err(PlanError::Invalid)?;
    let jobs = algorithms
        .into_iter()
        .chain(methods)
        .map(|algorithm| EvalJob {
            dataset: dataset.clone(),
            algorithm,
            k: req.k,
            max_suppression: req.max_suppression,
            properties: algorithm.properties_or_default(&properties),
        })
        .collect();
    Ok(ComparePlan {
        jobs,
        budget_ms: req.budget_ms,
    })
}

/// A validated sweep request: one batch of jobs per k, in request order.
/// Batching per grid point is what lets the server stream each point's
/// records as soon as they are computed and check the request deadline
/// between points.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    /// One `(k, jobs)` batch per requested grid point.
    pub batches: Vec<(usize, Vec<EvalJob>)>,
    /// The request's wall-clock budget, if any.
    pub budget_ms: Option<u64>,
}

impl SweepPlan {
    /// Total jobs across every batch.
    pub fn total_jobs(&self) -> usize {
        self.batches.iter().map(|(_, jobs)| jobs.len()).sum()
    }
}

/// Validates and expands a sweep request.
pub fn plan_sweep(req: &SweepRequest, limits: &RequestLimits) -> Result<SweepPlan, PlanError> {
    if req.ks.len() > limits.max_ks {
        return Err(PlanError::Invalid(format!(
            "\"ks\" has {} entries; the server limit is {}",
            req.ks.len(),
            limits.max_ks
        )));
    }
    if let Some(&k) = req.ks.iter().find(|&&k| k > limits.max_k) {
        return Err(PlanError::Invalid(format!(
            "k={k} exceeds the server limit of {}",
            limits.max_k
        )));
    }
    let dataset = dataset_spec(req.dataset, limits)?;
    let algorithms = algorithms(&req.algorithms).map_err(PlanError::Invalid)?;
    let methods = methods(&req.methods).map_err(PlanError::Invalid)?;
    let properties = properties(&req.properties).map_err(PlanError::Invalid)?;
    let batches = req
        .ks
        .iter()
        .map(|&k| {
            let jobs = algorithms
                .iter()
                .chain(&methods)
                .map(|&algorithm| EvalJob {
                    dataset: dataset.clone(),
                    algorithm,
                    k,
                    max_suppression: req.max_suppression,
                    properties: algorithm.properties_or_default(&properties),
                })
                .collect();
            (k, jobs)
        })
        .collect();
    Ok(SweepPlan {
        batches,
        budget_ms: req.budget_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn census() -> WireDataset {
        WireDataset::Census {
            rows: 100,
            seed: 7,
            zip_pool: 10,
        }
    }

    #[test]
    fn every_public_algorithm_resolves_and_mocks_do_not() {
        for spec in SERVABLE_ALGORITHMS {
            assert_eq!(algorithm_by_name(spec.name()).unwrap(), spec);
        }
        assert!(algorithm_by_name("mock-panic").is_err());
        assert!(algorithm_by_name("mock-sleep").is_err());
        assert!(algorithm_by_name("does-not-exist").is_err());
    }

    #[test]
    fn every_property_resolves() {
        for spec in SERVABLE_PROPERTIES {
            assert_eq!(property_by_name(spec.tag()).unwrap(), spec);
        }
        assert!(property_by_name("entropy").is_err());
    }

    #[test]
    fn empty_algorithm_list_means_standard_suite() {
        let req = CompareRequest {
            dataset: census(),
            algorithms: vec![],
            methods: vec![],
            k: 3,
            max_suppression: 5,
            properties: vec![],
            budget_ms: None,
        };
        let plan = plan_compare(&req, &RequestLimits::default()).unwrap();
        assert_eq!(plan.jobs.len(), AlgorithmSpec::standard_suite().len());
        assert!(plan
            .jobs
            .iter()
            .all(|j| j.properties == [PropertySpec::EqClassSize]));
        assert!(plan.jobs.iter().all(|j| j.k == 3 && j.max_suppression == 5));
    }

    #[test]
    fn oversized_requests_are_rejected_before_any_work() {
        let limits = RequestLimits {
            max_rows: 50,
            max_ks: 2,
            max_k: 10,
        };
        let req = CompareRequest {
            dataset: census(), // 100 rows > 50
            algorithms: vec![],
            methods: vec![],
            k: 3,
            max_suppression: 0,
            properties: vec![],
            budget_ms: None,
        };
        let err = plan_compare(&req, &limits).unwrap_err();
        assert!(
            matches!(err, PlanError::TooLarge(_)),
            "over-cap rows must be a 413-class refusal, got {err:?}"
        );
        assert!(err.message().contains("rows"));

        let sweep = SweepRequest {
            dataset: WireDataset::Hospital { rows: 10, seed: 1 },
            algorithms: vec![],
            methods: vec![],
            ks: vec![2, 3, 4],
            max_suppression: 0,
            properties: vec![],
            budget_ms: None,
        };
        let err = plan_sweep(&sweep, &limits).unwrap_err();
        assert!(matches!(err, PlanError::Invalid(_)));
        assert!(err.message().contains("ks"));

        let big_k = SweepRequest {
            ks: vec![2, 999],
            ..sweep.clone()
        };
        let err = plan_sweep(&big_k, &limits).unwrap_err();
        assert!(matches!(err, PlanError::Invalid(_)));
        assert!(err.message().contains("k=999"));
    }

    #[test]
    fn sweep_batches_follow_request_order() {
        let req = SweepRequest {
            dataset: census(),
            algorithms: vec!["datafly".into(), "mondrian".into()],
            methods: vec![],
            ks: vec![5, 2, 10],
            max_suppression: 1,
            properties: vec!["precision".into()],
            budget_ms: Some(500),
        };
        let plan = plan_sweep(&req, &RequestLimits::default()).unwrap();
        let ks: Vec<usize> = plan.batches.iter().map(|(k, _)| *k).collect();
        assert_eq!(ks, [5, 2, 10]);
        assert_eq!(plan.total_jobs(), 6);
        assert_eq!(plan.budget_ms, Some(500));
        for (_, jobs) in &plan.batches {
            assert_eq!(jobs[0].algorithm, AlgorithmSpec::Datafly);
            assert_eq!(jobs[1].algorithm, AlgorithmSpec::Mondrian);
            assert_eq!(jobs[0].properties, [PropertySpec::Precision]);
        }
    }

    #[test]
    fn methods_expand_to_jobs_after_algorithms() {
        let req = CompareRequest {
            dataset: census(),
            algorithms: vec!["datafly".into()],
            methods: vec!["noise:0.05".into(), "mdav:5".into()],
            k: 3,
            max_suppression: 5,
            properties: vec![],
            budget_ms: None,
        };
        let plan = plan_compare(&req, &RequestLimits::default()).unwrap();
        let labels: Vec<String> = plan.jobs.iter().map(|j| j.algorithm.label()).collect();
        assert_eq!(labels, ["datafly", "noise:0.05", "mdav:5"]);
        // Default property for generalization jobs stays eq-class-size;
        // perturbative jobs default to the numeric bounded-loss property.
        assert_eq!(plan.jobs[0].properties, [PropertySpec::EqClassSize]);
        assert_eq!(plan.jobs[1].properties, [PropertySpec::BoundedLoss]);
        assert_eq!(plan.jobs[2].properties, [PropertySpec::BoundedLoss]);

        // An explicit property list applies to every job, both families.
        let explicit = CompareRequest {
            properties: vec!["bounded-loss".into()],
            ..req.clone()
        };
        let plan = plan_compare(&explicit, &RequestLimits::default()).unwrap();
        assert!(plan
            .jobs
            .iter()
            .all(|j| j.properties == [PropertySpec::BoundedLoss]));
    }

    #[test]
    fn sweep_batches_carry_method_jobs_per_k() {
        let req = SweepRequest {
            dataset: census(),
            algorithms: vec!["mondrian".into()],
            methods: vec!["rankswap:8".into()],
            ks: vec![2, 5],
            max_suppression: 0,
            properties: vec![],
            budget_ms: None,
        };
        let plan = plan_sweep(&req, &RequestLimits::default()).unwrap();
        assert_eq!(plan.total_jobs(), 4);
        for (_, jobs) in &plan.batches {
            assert_eq!(jobs[0].algorithm.label(), "mondrian");
            assert_eq!(jobs[1].algorithm.label(), "rankswap:8");
        }
    }

    #[test]
    fn method_list_rejects_algorithms_mocks_and_unknowns() {
        let err = method_by_name("datafly").unwrap_err();
        assert!(err.contains("not a perturbative method"), "{err}");
        assert!(method_by_name("mock-panic").is_err());
        assert!(method_by_name("noise:nonsense").is_err());
        let req = CompareRequest {
            dataset: census(),
            algorithms: vec![],
            methods: vec!["noise:0.05".into(), "mondrian".into()],
            k: 2,
            max_suppression: 0,
            properties: vec![],
            budget_ms: None,
        };
        let err = plan_compare(&req, &RequestLimits::default()).unwrap_err();
        assert!(err.message().contains("mondrian"), "{err}");
    }

    #[test]
    fn numeric_properties_are_servable() {
        for tag in ["neighborhood-risk", "mahalanobis-risk", "bounded-loss"] {
            assert!(property_by_name(tag).is_ok(), "{tag} should resolve");
        }
    }

    #[test]
    fn unknown_names_surface_in_the_error() {
        let req = CompareRequest {
            dataset: census(),
            algorithms: vec!["datafly".into(), "magic".into()],
            methods: vec![],
            k: 2,
            max_suppression: 0,
            properties: vec![],
            budget_ms: None,
        };
        let err = plan_compare(&req, &RequestLimits::default()).unwrap_err();
        assert!(err.message().contains("magic"), "{err}");
    }
}
