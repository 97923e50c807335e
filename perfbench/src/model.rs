//! The labeled TPC-H instance and the QCFE training path that every
//! workload builds, composed from the crates' public calls only.
//!
//! The instance (data, environments, labels, train/test split and every
//! training seed) is fixed by [`INSTANCE_SEED`], not by the run's
//! `--seed`, so the held-out q-errors and the count of estimates on the
//! `1e-6` ms clamp floor repeat exactly on every run. The run's seed
//! drives Algorithm 1's query instances and everything the workloads feed
//! the trained models: served plans, label streams, evaluation sets.

use crate::report::Report;
use crate::stats::{median, percentile, q_errors, Repeats};
use crate::trace::Tracer;
use qcfe_core::collect::{collect_workload, execute_queries, LabeledWorkload};
use qcfe_core::encoding::FeatureEncoder;
use qcfe_core::estimators::{EnvSnapshots, MscnEstimator, QppNetEstimator};
use qcfe_core::reduction::{reduce, ReductionMethod, ReductionOutcome};
use qcfe_core::snapshot::FeatureSnapshot;
use qcfe_core::templates::{simplified_queries, DataAbstract};
use qcfe_db::env::{DbEnvironment, HardwareProfile};
use qcfe_db::plan::{OperatorKind, PlanNode};
use qcfe_nn::{Activation, Dataset, Loss, Mlp, Optimizer, TrainConfig};
use qcfe_workloads::{Benchmark, BenchmarkKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::time::Instant;

/// Seed of the labeled instance and of all model training.
pub const INSTANCE_SEED: u64 = 12;
/// TPC-H data scale factor.
pub const DATA_SCALE: f64 = 0.001;
/// Knob environments the estimators are trained under.
pub const TRAINED_ENVS: usize = 4;
/// Labeled queries per trained environment.
pub const QUERIES_PER_ENV: usize = 150;
/// Training share of the labeled queries; the rest is held out.
pub const TRAIN_FRACTION: f64 = 0.8;
/// Training epochs of QCFE(qpp).
pub const QPP_ITERATIONS: usize = 10;
/// Training epochs of QCFE(mscn).
pub const MSCN_ITERATIONS: usize = 40;
/// Instances per simplified template (Algorithm 1's `scale`).
const TEMPLATE_SCALE: usize = 2;
/// Reference-set size of difference-propagation reduction.
pub const REFERENCE_COUNT: usize = 200;
/// The floor the estimators clamp raw predictions to, in ms.
pub const ESTIMATE_FLOOR_MS: f64 = 1e-6;

/// The benchmark every workload runs.
pub const BENCH: BenchmarkKind = BenchmarkKind::Tpch;

/// The labeled instance.
pub struct Instance {
    /// Schema, data and query templates.
    pub benchmark: Benchmark,
    /// [`TRAINED_ENVS`] labeled environments, then one that is never
    /// labeled here (the cold environment of `serve_feedback`).
    pub environments: Vec<DbEnvironment>,
    /// Every labeled query, pooled over the trained environments.
    pub labeled: LabeledWorkload,
    /// Training split.
    pub train: LabeledWorkload,
    /// Held-out split.
    pub test: LabeledWorkload,
    /// Wall time of label collection.
    pub collect_s: f64,
}

/// Generate the data and collect the labeled workload.
pub fn build_instance(tracer: &Tracer) -> Instance {
    let benchmark = BENCH.build(DATA_SCALE, INSTANCE_SEED);
    let mut rng = StdRng::seed_from_u64(INSTANCE_SEED ^ 0x5eed);
    let environments =
        DbEnvironment::sample_knob_configs(TRAINED_ENVS + 1, HardwareProfile::h1(), &mut rng);
    let started = Instant::now();
    let labeled = tracer.span("db.collect", None, 0, |_| {
        collect_workload(
            &benchmark,
            &environments[..TRAINED_ENVS],
            QUERIES_PER_ENV,
            INSTANCE_SEED,
        )
    });
    let collect_s = started.elapsed().as_secs_f64();
    let (train, test) = labeled.split(TRAIN_FRACTION, INSTANCE_SEED + 1);
    Instance {
        benchmark,
        environments,
        labeled,
        train,
        test,
        collect_s,
    }
}

/// Wall times of one pass of the training path.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrainTimes {
    /// FSO and FST snapshot fits, summed over environments.
    pub fit_s: f64,
    /// Algorithm 1: simplified queries generated and executed under every
    /// trained environment (the FST labels).
    pub fst_execute_s: f64,
    /// Auxiliary-model training plus reduction, summed over reductions.
    pub reduction_s: f64,
    /// QCFE(qpp) training.
    pub qpp_train_s: f64,
    /// QCFE(mscn) training.
    pub mscn_train_s: f64,
}

/// [`TrainTimes`] of the set-ups of one run.
#[derive(Debug, Default)]
pub struct TrainRepeats {
    total_s: Repeats,
    fit_ms: Repeats,
    fst_execute_s: Repeats,
    reduction_s: Repeats,
    qpp_train_s: Repeats,
    mscn_train_s: Repeats,
}

impl TrainRepeats {
    /// Record one set-up's training.
    pub fn push(&mut self, t: &TrainTimes) {
        self.total_s
            .push(t.fit_s + t.fst_execute_s + t.reduction_s + t.qpp_train_s + t.mscn_train_s);
        self.fit_ms.push(t.fit_s * 1e3);
        self.fst_execute_s.push(t.fst_execute_s);
        self.reduction_s.push(t.reduction_s);
        self.qpp_train_s.push(t.qpp_train_s);
        self.mscn_train_s.push(t.mscn_train_s);
    }

    /// Report the medians: `train_s` and the training layers' times.
    pub fn report(&self, report: &mut Report) {
        report.metric("train_s", self.total_s.median(), "s");
        report.metric("snapshot.fit_ms", self.fit_ms.median(), "ms");
        report.metric("snapshot.fst_execute_s", self.fst_execute_s.median(), "s");
        report.metric("reduction.s", self.reduction_s.median(), "s");
        report.metric("estimators.qpp_train_s", self.qpp_train_s.median(), "s");
        report.metric("estimators.mscn_train_s", self.mscn_train_s.median(), "s");
    }
}

/// The trained pair and what training produced on the way.
pub struct Trained {
    /// FSO snapshot per trained environment.
    pub fso: EnvSnapshots,
    /// FST snapshot per trained environment.
    pub fst: Vec<FeatureSnapshot>,
    /// Simplified queries Algorithm 1 generated.
    pub simplified_queries: usize,
    /// QCFE(mscn).
    pub mscn: MscnEstimator,
    /// QCFE(qpp).
    pub qpp: QppNetEstimator,
    /// Plan-level reduction of QCFE(mscn).
    pub mscn_reduction: ReductionOutcome,
    /// Per-operator reductions of QCFE(qpp) (operators with ≥ 16 samples).
    pub qpp_reductions: Vec<(OperatorKind, ReductionOutcome)>,
    /// Node-encoding width the QCFE(qpp) masks index into.
    pub node_dim: usize,
    /// Where the time went.
    pub times: TrainTimes,
}

/// Fit one FSO snapshot per trained environment.
fn fit_fso(instance: &Instance, tracer: &Tracer, parent: Option<u64>) -> EnvSnapshots {
    (0..TRAINED_ENVS)
        .map(|env| {
            let executions: Vec<_> = instance
                .labeled
                .for_environment(env)
                .iter()
                .map(|q| q.executed.clone())
                .collect();
            Some(tracer.span("snapshot.fit", parent, 0, |_| {
                FeatureSnapshot::fit_from_executions(&executions)
            }))
        })
        .collect()
}

/// Train the auxiliary cost model that scores features for reduction (the
/// learned model M of the paper's Figure 4), then reduce.
fn reduce_features(
    data: &Dataset,
    rng: &mut StdRng,
    tracer: &Tracer,
    parent: Option<u64>,
) -> ReductionOutcome {
    tracer.span("reduction.reduce", parent, 0, |_| {
        let mut aux = Mlp::new(&[data.dim(), 16, 1], Activation::Relu, rng);
        let cfg = TrainConfig {
            epochs: 40,
            batch_size: 32,
            optimizer: Optimizer::adam(0.01),
            loss: Loss::LogMse,
            shuffle: true,
        };
        aux.train(data, &cfg, rng);
        reduce(ReductionMethod::DiffProp, &aux, data, REFERENCE_COUNT, rng)
    })
}

/// Algorithm 1's FST path: simplified queries from each template's
/// representative SQL (instances drawn from `seed`), executed under every
/// trained environment, one snapshot fitted per environment.
fn fit_fst(
    instance: &Instance,
    seed: u64,
    times: &mut TrainTimes,
    tracer: &Tracer,
    parent: Option<u64>,
) -> (Vec<FeatureSnapshot>, usize) {
    let started = Instant::now();
    let mut rng = StdRng::seed_from_u64(seed);
    let original_sql: Vec<String> = instance
        .benchmark
        .templates
        .iter()
        .map(|t| t.representative_sql(&mut rng))
        .collect();
    let reference = instance
        .benchmark
        .build_database(DbEnvironment::reference());
    let data_abstract = DataAbstract::from_database(&reference);
    let simplified = tracer.span("templates.simplify", parent, 0, |_| {
        simplified_queries(&original_sql, &data_abstract, TEMPLATE_SCALE, &mut rng)
    });
    let mut fst = Vec::with_capacity(TRAINED_ENVS);
    let mut fit_s = 0.0;
    for env in &instance.environments[..TRAINED_ENVS] {
        let executions = tracer.span("snapshot.fst_execute", parent, 0, |_| {
            execute_queries(&instance.benchmark, env, &simplified, seed + 1000)
        });
        let t = Instant::now();
        fst.push(tracer.span("snapshot.fit", parent, 0, |_| {
            FeatureSnapshot::fit_from_executions(&executions)
        }));
        fit_s += t.elapsed().as_secs_f64();
    }
    times.fit_s += fit_s;
    times.fst_execute_s = started.elapsed().as_secs_f64() - fit_s;
    (fst, simplified.len())
}

/// Fit FSO and FST snapshots, reduce features and train QCFE(qpp) and
/// QCFE(mscn) on the FSO snapshots (the paper's main configuration).
/// `fst_seed` draws Algorithm 1's query instances; the models do not
/// depend on it, and every call returns bit-identical models.
pub fn train(instance: &Instance, fst_seed: u64, tracer: &Tracer, parent: Option<u64>) -> Trained {
    let mut times = TrainTimes::default();
    let started = Instant::now();
    let fso = fit_fso(instance, tracer, parent);
    times.fit_s = started.elapsed().as_secs_f64();
    let (fst, simplified_queries) = fit_fst(instance, fst_seed, &mut times, tracer, parent);
    let snapshots = Some(&fso);
    let encoder = FeatureEncoder::new(&instance.benchmark.catalog, true);
    let node_dim = encoder.node_dim();

    // QCFE(qpp): per-operator reduction, then training.
    let mut rng = StdRng::seed_from_u64(INSTANCE_SEED + 2);
    let started = Instant::now();
    let datasets = QppNetEstimator::operator_datasets(&encoder, &instance.train, snapshots);
    let mut masks: HashMap<OperatorKind, Vec<usize>> = HashMap::new();
    let mut qpp_reductions = Vec::new();
    for op in OperatorKind::ALL {
        match datasets.get(&op) {
            Some(data) if data.len() >= 16 => {
                let outcome = reduce_features(data, &mut rng, tracer, parent);
                masks.insert(op, outcome.kept.clone());
                qpp_reductions.push((op, outcome));
            }
            _ => {
                masks.insert(op, (0..node_dim).collect());
            }
        }
    }
    times.reduction_s += started.elapsed().as_secs_f64();
    let started = Instant::now();
    let qpp = tracer.span("estimators.train", parent, 0, |_| {
        let mut qpp = QppNetEstimator::new(encoder.clone(), Some(masks), &mut rng);
        qpp.train(&instance.train, snapshots, QPP_ITERATIONS, &mut rng);
        qpp
    });
    times.qpp_train_s = started.elapsed().as_secs_f64();

    // QCFE(mscn): plan-level reduction, then training.
    let mut rng = StdRng::seed_from_u64(INSTANCE_SEED + 3);
    let started = Instant::now();
    let full = MscnEstimator::build_dataset(&encoder, &instance.train, snapshots);
    let mscn_reduction = reduce_features(&full, &mut rng, tracer, parent);
    times.reduction_s += started.elapsed().as_secs_f64();
    let started = Instant::now();
    let (mscn, _) = tracer.span("estimators.train", parent, 0, |_| {
        MscnEstimator::train(
            encoder,
            &instance.train,
            snapshots,
            Some(mscn_reduction.kept.clone()),
            MSCN_ITERATIONS,
            &mut rng,
        )
    });
    times.mscn_train_s = started.elapsed().as_secs_f64();

    Trained {
        fso,
        fst,
        simplified_queries,
        mscn,
        qpp,
        mscn_reduction,
        qpp_reductions,
        node_dim,
        times,
    }
}

/// Check every reduction mask: non-empty, in range, no duplicates.
pub fn check_reductions(trained: &Trained, report: &mut Report) {
    let plan_dim = trained.mscn.encoder().plan_dim();
    let masks = std::iter::once(("mscn".to_string(), &trained.mscn_reduction, plan_dim)).chain(
        trained
            .qpp_reductions
            .iter()
            .map(|(op, r)| (format!("qpp {op:?}"), r, trained.node_dim)),
    );
    for (name, outcome, dim) in masks {
        let kept = &outcome.kept;
        let mut unique = kept.clone();
        unique.sort_unstable();
        unique.dedup();
        report.check(!kept.is_empty(), || {
            format!("{name} reduction kept nothing")
        });
        report.check(kept.iter().all(|&i| i < dim), || {
            format!("{name} reduction mask indexes past dim {dim}: {kept:?}")
        });
        report.check(unique.len() == kept.len(), || {
            format!("{name} reduction mask repeats a feature: {kept:?}")
        });
    }
}

/// Counts and checks that describe the trained pair, shared by every
/// workload.
pub fn report_train_counts(trained: &Trained, report: &mut Report) {
    let reductions = std::iter::once(&trained.mscn_reduction)
        .chain(trained.qpp_reductions.iter().map(|(_, r)| r));
    let (kept, total) = reductions.fold((0, 0), |(k, t), r| (k + r.kept.len(), t + r.original_dim));
    report.metric("reduction.features_kept", kept as f64, "count");
    report.metric("reduction.features_total", total as f64, "count");
    let fso = trained.fso.iter().flatten();
    let fso_cost: f64 = fso.clone().map(|s| s.collection_cost_ms).sum();
    let fst_cost: f64 = trained.fst.iter().map(|s| s.collection_cost_ms).sum();
    report.check(fst_cost < fso_cost, || {
        format!("FST label cost {fst_cost} ms is not below FSO label cost {fso_cost} ms")
    });
    report.metric("snapshot.fso_label_cost_ms", fso_cost, "sim_ms");
    report.metric("snapshot.fst_label_cost_ms", fst_cost, "sim_ms");
    report.metric(
        "templates.simplified_queries",
        trained.simplified_queries as f64,
        "count",
    );
    let qcfs: usize = fso.map(|s| s.to_bytes().len()).sum();
    report.metric(
        "codec.qcfs_bytes",
        qcfs as f64 / TRAINED_ENVS as f64,
        "bytes",
    );
    let qcfw = trained.mscn.to_weight_bytes().len() + trained.qpp.to_weight_bytes().len();
    report.metric("codec.qcfw_bytes", qcfw as f64 / 2.0, "bytes");
}

/// The checks and figures of the trained pair a serving workload serves:
/// reduction masks, held-out q-errors and evaluation speed.
pub fn check_served_models(
    instance: &Instance,
    trained: &Trained,
    tracer: &Tracer,
    report: &mut Report,
) {
    let eval = evaluate(instance, trained, tracer, None);
    check_reductions(trained, report);
    check_and_score(instance, trained, &eval, report);
    report_train_counts(trained, report);
    report.metric("estimators.floored", eval.floored() as f64, "count");
    report.metric(
        "estimators.eval_pps",
        eval.estimates() as f64 / eval.elapsed_s,
        "1/s",
    );
}

/// Held-out estimates of both models, one `predict` call per query and
/// model.
pub struct Evaluation {
    /// Measured latency of each held-out query, in ms.
    pub actuals: Vec<f64>,
    /// QCFE(qpp) estimates, in held-out order.
    pub qpp: Vec<f64>,
    /// QCFE(mscn) estimates, in held-out order.
    pub mscn: Vec<f64>,
    /// Wall time of the pass.
    pub elapsed_s: f64,
}

impl Evaluation {
    /// Estimates made (both models).
    pub fn estimates(&self) -> u64 {
        (self.qpp.len() + self.mscn.len()) as u64
    }

    /// Estimates that sit on the clamp floor: raw predictions ≤ 0 that the
    /// estimators turned into `1e-6` ms.
    pub fn floored(&self) -> u64 {
        self.qpp
            .iter()
            .chain(&self.mscn)
            .filter(|&&e| e <= ESTIMATE_FLOOR_MS)
            .count() as u64
    }
}

/// Estimate every held-out query with both models.
pub fn evaluate(
    instance: &Instance,
    trained: &Trained,
    tracer: &Tracer,
    parent: Option<u64>,
) -> Evaluation {
    let started = Instant::now();
    let (qpp, mscn) = tracer.span("estimators.evaluate", parent, 0, |_| {
        instance
            .test
            .queries
            .iter()
            .map(|q| {
                let snapshot = trained.fso[q.env_index].as_ref();
                (
                    trained.qpp.predict(&q.executed.root, snapshot),
                    trained.mscn.predict(&q.executed.root, snapshot),
                )
            })
            .unzip()
    });
    Evaluation {
        actuals: instance.test.actual_costs(),
        qpp,
        mscn,
        elapsed_s: started.elapsed().as_secs_f64(),
    }
}

/// Check the held-out estimates and add the q-error metrics.
///
/// `predict_batch` per environment must agree bit for bit with the
/// per-query calls; every estimate must be finite and positive; QCFE(qpp)
/// must beat a constant predictor of the training-mean latency on median
/// q-error. Percentiles include floored estimates.
pub fn check_and_score(
    instance: &Instance,
    trained: &Trained,
    eval: &Evaluation,
    report: &mut Report,
) {
    for env in 0..TRAINED_ENVS {
        let idx: Vec<usize> = (0..instance.test.len())
            .filter(|&i| instance.test.queries[i].env_index == env)
            .collect();
        let plans: Vec<&PlanNode> = idx
            .iter()
            .map(|&i| &instance.test.queries[i].executed.root)
            .collect();
        let snapshot = trained.fso[env].as_ref();
        let qpp = trained.qpp.predict_batch(&plans, snapshot);
        let mscn = trained.mscn.predict_batch(&plans, snapshot);
        for (k, &i) in idx.iter().enumerate() {
            report.check(qpp[k].to_bits() == eval.qpp[i].to_bits(), || {
                format!("QCFE(qpp) predict_batch differs from predict on held-out query {i}")
            });
            report.check(mscn[k].to_bits() == eval.mscn[i].to_bits(), || {
                format!("QCFE(mscn) predict_batch differs from predict on held-out query {i}")
            });
        }
    }
    for (name, estimates) in [("QCFE(qpp)", &eval.qpp), ("QCFE(mscn)", &eval.mscn)] {
        if let Some(bad) = estimates.iter().find(|e| !(e.is_finite() && **e > 0.0)) {
            report.fail(format!("{name} produced a non-positive estimate {bad}"));
            return;
        }
    }
    let qpp_q = q_errors(&eval.actuals, &eval.qpp);
    let mscn_q = q_errors(&eval.actuals, &eval.mscn);
    report.check(qpp_q.iter().chain(&mscn_q).all(|&q| q >= 1.0), || {
        "a q-error below 1".to_string()
    });
    let train_costs = instance.train.actual_costs();
    let mean_cost = train_costs.iter().sum::<f64>() / train_costs.len() as f64;
    let constant = vec![mean_cost; eval.actuals.len()];
    let constant_p50 = median(&q_errors(&eval.actuals, &constant));
    let qpp_p50 = median(&qpp_q);
    report.check(qpp_p50 < constant_p50, || {
        format!("QCFE(qpp) median q-error {qpp_p50} does not beat the training-mean predictor's {constant_p50}")
    });
    report.metric("qpp_qerror_p50", qpp_p50, "ratio");
    report.metric("qpp_qerror_p95", percentile(&qpp_q, 95.0), "ratio");
    report.metric("mscn_qerror_p50", median(&mscn_q), "ratio");
    report.metric("mscn_qerror_p95", percentile(&mscn_q, 95.0), "ratio");
}
