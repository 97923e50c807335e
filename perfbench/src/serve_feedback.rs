//! `serve_feedback`: reads beside writes, in process, no network. One
//! thread estimates plans through `QcfeGateway::estimate` with QCFE(qpp);
//! a second streams pre-executed labels through `record_execution` into
//! the same shard, which started from a neighbour's transferred snapshot.
//! Every refit persists a `QCFS` file and hot-swaps it. A final fixed
//! evaluation pass scores the refined shard.

use crate::model::{self, Instance, TrainRepeats, Trained, BENCH, TRAINED_ENVS};
use crate::procfs::{thread_switches, write_chars, PhaseCounters};
use crate::report::Report;
use crate::serve_uds::{report_service_metrics, shard_config};
use crate::stats::{median, percentile, q_errors, Repeats};
use crate::trace::Tracer;
use crate::{layers, split_units, traced_unit, RunConfig, SETUP_REPEATS};
use qcfe_core::collect::collect_workload;
use qcfe_core::cost_model::CostModel;
use qcfe_core::snapshot::{operator_samples, FeatureSnapshot, OperatorSample};
use qcfe_core::EstimatorKind;
use qcfe_db::env::DbEnvironment;
use qcfe_db::executor::ExecutedQuery;
use qcfe_db::plan::PlanNode;
use qcfe_serve::prelude::*;
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Distinct plans the reader estimates, cycled. QCFE(qpp) has no encoding
/// cache, so every estimate runs the model whatever the pool size; the
/// check that each answer matches an installed snapshot costs one batched
/// prediction per plan and refit, hence a small pool.
const READ_PLANS: usize = 128;
/// Pre-executed labels the writer streams, cycled.
const LABELS: usize = 512;
/// Queries of the final evaluation pass.
const EVAL_QUERIES: usize = 256;
/// Estimates per round.
const READS_PER_ROUND: usize = 10_000;
/// Labels per round. Reader and writer share one CPU, and a read that
/// wakes while the writer holds it can wait out the writer's time slice
/// (milliseconds). With 15 000 labels a round the slowest 0.1 % of reads
/// took about 2 ms, the 99th percentile sat where those waits begin, and
/// it spread by 22 % over ten runs; at 3 000 the 99.9th percentile stays
/// under 0.3 ms and the 99th among reads the writer did not hold up. A
/// costlier write path moves that edge back, so it still shows.
const LABELS_PER_ROUND: usize = 3_000;
/// Operator samples that trigger a refit.
const REFIT_THRESHOLD: usize = 8_192;
/// Operator samples the shard's label window keeps.
const WINDOW: usize = 16_384;
/// Wall time of one round on the reference machine, used only to turn
/// `--seconds` into a fixed number of rounds.
const NOMINAL_ROUND_S: f64 = 0.2;

/// Everything one set-up builds.
struct Setup {
    instance: Instance,
    trained: Trained,
    env: Arc<DbEnvironment>,
    reads: Vec<EstimateRequest>,
    labels: Vec<ExecutedQuery>,
    eval: Vec<ExecutedQuery>,
    gateway: QcfeGateway,
    /// The neighbour snapshot the shard warm-started from.
    transferred: FeatureSnapshot,
    warmup: EstimateResponse,
}

fn executed(instance: &Instance, env: &DbEnvironment, n: usize, seed: u64) -> Vec<ExecutedQuery> {
    collect_workload(&instance.benchmark, std::slice::from_ref(env), n, seed)
        .queries
        .into_iter()
        .map(|q| q.executed)
        .collect()
}

fn build(cfg: &RunConfig, tracer: &Tracer, index: usize, report: &mut Report) -> Setup {
    let instance = model::build_instance(tracer);
    let trained = model::train(&instance, cfg.seed, tracer, None);
    // The cold environment: sampled with the trained ones, never labeled
    // in training.
    let env = Arc::new(instance.environments[TRAINED_ENVS].clone());
    let reads: Vec<EstimateRequest> = executed(&instance, &env, READ_PLANS, cfg.seed ^ 0x4ead)
        .into_iter()
        .map(|q| {
            EstimateRequest::new(BENCH, Arc::clone(&env), q.root)
                .with_estimator(EstimatorKind::QcfeQpp)
        })
        .collect();
    let labels = executed(&instance, &env, LABELS, cfg.seed ^ 0x1abe);
    let eval = executed(&instance, &env, EVAL_QUERIES, cfg.seed ^ 0xe7a1);

    let gateway = QcfeGateway::builder(cfg.scratch.join(format!("gateway-{index}")))
        .service_config(shard_config())
        .refinement(RefinementConfig {
            refit_threshold: REFIT_THRESHOLD,
            min_drift: 0.0,
            buffer_capacity: WINDOW,
        })
        .with_model(
            ModelKey::new(BENCH, EstimatorKind::QcfeQpp, env.fingerprint()),
            Arc::new(trained.qpp.clone()),
        )
        .build()
        .expect("gateway builds");
    for (e, snapshot) in instance.environments[..TRAINED_ENVS]
        .iter()
        .zip(&trained.fso)
    {
        gateway
            .publish_snapshot(BENCH, e, snapshot.as_ref().expect("FSO snapshot"))
            .expect("snapshot published");
    }
    // Warm-up: the first estimate starts the shard from the nearest
    // published neighbour's snapshot.
    let warmup = gateway
        .estimate(reads[0].clone())
        .expect("warm-up estimate");
    let source = match warmup.provenance.snapshot_origin {
        SnapshotOrigin::Transferred { source, .. } => instance.environments[..TRAINED_ENVS]
            .iter()
            .position(|e| e.fingerprint() == source),
        _ => None,
    };
    let transferred = match source {
        Some(i) => trained.fso[i].clone().expect("FSO snapshot"),
        None => {
            report.fail(format!(
                "the cold shard did not start from a trained neighbour's snapshot: {:?}",
                warmup.provenance.snapshot_origin
            ));
            trained.fso[0].clone().expect("FSO snapshot")
        }
    };
    let direct = trained
        .qpp
        .predict_batch(&[&reads[0].plan], Some(&transferred))[0];
    report.check(direct.to_bits() == warmup.cost_ms.to_bits(), || {
        "warm-up estimate differs from predict_batch under the transferred snapshot".into()
    });
    Setup {
        instance,
        trained,
        env,
        reads,
        labels,
        eval,
        gateway,
        transferred,
        warmup,
    }
}

/// What the reader and writer threads saw.
#[derive(Default)]
struct Observed {
    read_tput: Repeats,
    read_p50: Repeats,
    read_p99: Repeats,
    label_eps: Repeats,
    record_us: Vec<f64>,
    refit_ms: Vec<f64>,
    traced_s: Repeats,
    untraced_s: Repeats,
    /// (read index, answer bits) of every estimate.
    served: Vec<(usize, u64)>,
    errors: u64,
    switches: u64,
}

impl Observed {
    /// Add what a later part of the same run saw.
    fn absorb(&mut self, other: Observed) {
        self.read_tput.extend(&other.read_tput);
        self.read_p50.extend(&other.read_p50);
        self.read_p99.extend(&other.read_p99);
        self.label_eps.extend(&other.label_eps);
        self.record_us.extend(other.record_us);
        self.refit_ms.extend(other.refit_ms);
        self.traced_s.extend(&other.traced_s);
        self.untraced_s.extend(&other.untraced_s);
        self.served.extend(other.served);
        self.errors += other.errors;
        self.switches += other.switches;
    }
}

/// Run the reader and the writer side by side for rounds `rounds`
/// (indices into the whole run), each doing a fixed amount of work per
/// round between two barriers.
fn read_beside_write(
    s: &Setup,
    rounds: std::ops::Range<usize>,
    trace: bool,
    tracer: &Tracer,
) -> Observed {
    let barrier = Barrier::new(2);
    let next_request = AtomicU64::new(1);
    let round_start = |r: usize| {
        if barrier.wait().is_leader() {
            tracer.set_enabled(traced_unit(trace, r));
        }
        barrier.wait();
    };
    let (reader, writer) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut rounds_out = Vec::with_capacity(rounds.len());
            let mut served = Vec::with_capacity(rounds.len() * READS_PER_ROUND);
            let mut errors = 0;
            for r in rounds.clone() {
                round_start(r);
                let mut latencies = Vec::with_capacity(READS_PER_ROUND);
                let start = Instant::now();
                tracer.span("bench.pass", None, 0, |pass| {
                    for k in 0..READS_PER_ROUND {
                        let i = (r * READS_PER_ROUND + k) % s.reads.len();
                        let id = next_request.fetch_add(1, Ordering::Relaxed);
                        let t0 = Instant::now();
                        let answer = tracer.span("gateway.estimate", pass, id, |_| {
                            s.gateway.estimate(s.reads[i].clone())
                        });
                        latencies.push(t0.elapsed().as_secs_f64() * 1e6);
                        match answer {
                            Ok(a) => served.push((i, a.cost_ms.to_bits())),
                            Err(_) => errors += 1,
                        }
                    }
                });
                rounds_out.push((start.elapsed().as_secs_f64(), latencies));
            }
            (rounds_out, served, errors, thread_switches())
        });
        let writer = scope.spawn(|| {
            let mut rounds_out = Vec::with_capacity(rounds.len());
            let mut record_us = Vec::with_capacity(rounds.len() * LABELS_PER_ROUND);
            let mut refit_ms = Vec::new();
            let mut errors = 0;
            for r in rounds.clone() {
                round_start(r);
                let start = Instant::now();
                tracer.span("bench.pass", None, 0, |pass| {
                    for k in 0..LABELS_PER_ROUND {
                        let label = &s.labels[(r * LABELS_PER_ROUND + k) % s.labels.len()];
                        let id = next_request.fetch_add(1, Ordering::Relaxed);
                        let t0 = Instant::now();
                        let outcome = tracer.span("gateway.record_execution", pass, id, |_| {
                            s.gateway.record_execution(BENCH, &s.env, label)
                        });
                        let us = t0.elapsed().as_secs_f64() * 1e6;
                        record_us.push(us);
                        match outcome {
                            Ok(o) if o.refits > 0 => refit_ms.push(us / 1e3),
                            Ok(_) => {}
                            Err(_) => errors += 1,
                        }
                    }
                });
                rounds_out.push(start.elapsed().as_secs_f64());
            }
            (rounds_out, record_us, refit_ms, errors, thread_switches())
        });
        (
            reader.join().expect("reader thread"),
            writer.join().expect("writer thread"),
        )
    });
    tracer.set_enabled(false);

    let (read_rounds, served, read_errors, read_switches) = reader;
    let (write_rounds, record_us, refit_ms, write_errors, write_switches) = writer;
    let mut out = Observed {
        record_us,
        refit_ms,
        served,
        errors: read_errors + write_errors,
        switches: read_switches + write_switches,
        ..Observed::default()
    };
    for (r, ((read_s, latencies), write_s)) in rounds.zip(read_rounds.iter().zip(&write_rounds)) {
        let wall = read_s.max(*write_s);
        if traced_unit(trace, r) {
            out.traced_s.push(wall);
            continue;
        }
        out.untraced_s.push(wall);
        out.read_tput.push(READS_PER_ROUND as f64 / read_s);
        out.read_p50.push(percentile(latencies, 50.0));
        out.read_p99.push(percentile(latencies, 99.0));
        out.label_eps.push(LABELS_PER_ROUND as f64 / write_s);
    }
    out
}

/// The snapshots the shard installs, replayed outside the gateway: the
/// transferred one, then `refit_with` over the sliding label window each
/// time [`REFIT_THRESHOLD`] samples have arrived since the last refit.
fn replay_refits(s: &Setup, labels_streamed: usize) -> Vec<FeatureSnapshot> {
    let per_label: Vec<Vec<OperatorSample>> = s.labels.iter().map(operator_samples).collect();
    let mut installed = vec![s.transferred.clone()];
    let mut window: VecDeque<OperatorSample> = VecDeque::new();
    let mut since = 0;
    for k in 0..labels_streamed {
        let samples = &per_label[k % per_label.len()];
        window.extend(samples.iter().copied());
        while window.len() > WINDOW {
            window.pop_front();
        }
        since += samples.len();
        if since >= REFIT_THRESHOLD {
            since = 0;
            let window: Vec<OperatorSample> = window.iter().copied().collect();
            let next = installed.last().expect("transferred").refit_with(&window);
            installed.push(next);
        }
    }
    installed
}

pub fn run(cfg: &RunConfig, tracer: &Tracer, report: &mut Report) {
    let mut setup_s = Repeats::default();
    let mut training = TrainRepeats::default();
    let mut timed_build = |index: usize, report: &mut Report| {
        tracer.set_enabled(cfg.trace);
        let started = Instant::now();
        let s = build(cfg, tracer, index, report);
        setup_s.push(started.elapsed().as_secs_f64());
        tracer.set_enabled(false);
        training.push(&s.trained.times);
        s
    };
    let s = timed_build(0, report);
    report.metric("db.collect_s", s.instance.collect_s, "s");
    report.metric(
        "db.queries_executed",
        (s.instance.labeled.len() + READ_PLANS + LABELS + EVAL_QUERIES) as f64,
        "count",
    );
    model::check_served_models(&s.instance, &s.trained, tracer, report);
    report.attempted += 1;

    let rounds = cfg.work_units(NOMINAL_ROUND_S, SETUP_REPEATS);
    let mut seen = Observed::default();
    let (mut cpu_s, mut switches, mut store_bytes) = (0.0, 0, 0);
    for (k, part) in split_units(rounds, SETUP_REPEATS).into_iter().enumerate() {
        if k > 0 {
            drop(timed_build(k, report));
        }
        let counters = PhaseCounters::start();
        let written = write_chars();
        let part = read_beside_write(&s, part, cfg.trace, tracer);
        store_bytes += write_chars() - written;
        let (cpu, sw) = counters.finish(part.switches);
        cpu_s += cpu;
        switches += sw;
        seen.absorb(part);
    }
    report.metric("setup_s", setup_s.median(), "s");
    training.report(report);
    let ops = rounds * (READS_PER_ROUND + LABELS_PER_ROUND);
    report.attempted += ops as u64;
    report.check(seen.errors == 0, || {
        format!("{} reads or writes failed", seen.errors)
    });

    // Every estimate must be a direct prediction under one of the
    // snapshots the shard installed.
    let labels_streamed = rounds * LABELS_PER_ROUND;
    let installed = replay_refits(&s, labels_streamed);
    let plans: Vec<&PlanNode> = s.reads.iter().map(|r| &r.plan).collect();
    let mut allowed: Vec<HashSet<u64>> = vec![HashSet::new(); plans.len()];
    for snapshot in &installed {
        for (i, cost) in s
            .trained
            .qpp
            .predict_batch(&plans, Some(snapshot))
            .into_iter()
            .enumerate()
        {
            allowed[i].insert(cost.to_bits());
        }
    }
    let stray = seen
        .served
        .iter()
        .filter(|(i, bits)| !allowed[*i].contains(bits))
        .count();
    report.check(stray == 0, || {
        format!("{stray} estimates match no snapshot the shard installed")
    });

    let stats = s.gateway.stats();
    let refits = installed.len() as u64 - 1;
    report.check(stats.refits == refits, || {
        format!(
            "{} refits, replaying the label windows gives {refits}",
            stats.refits
        )
    });
    report.check(stats.promotions == 1, || {
        format!(
            "{} promotions of the transferred shard, expected 1",
            stats.promotions
        )
    });
    let final_snapshot = installed.last().expect("transferred");
    match s.gateway.store().snapshot_bytes(BENCH, s.env.fingerprint()) {
        Ok(Some(bytes)) => report.check(bytes == final_snapshot.to_bytes(), || {
            "the persisted snapshot differs from the replayed refits".into()
        }),
        other => report.fail(format!(
            "no persisted snapshot for the refined shard: {other:?}"
        )),
    }

    // Final evaluation pass: the refined shard against the transferred
    // snapshot on the same held-out executions.
    let eval_plans: Vec<&PlanNode> = s.eval.iter().map(|q| &q.root).collect();
    let actuals: Vec<f64> = s.eval.iter().map(|q| q.total_ms).collect();
    let refined_direct = s
        .trained
        .qpp
        .predict_batch(&eval_plans, Some(final_snapshot));
    let transferred_direct = s
        .trained
        .qpp
        .predict_batch(&eval_plans, Some(&s.transferred));
    let mut served = Vec::with_capacity(s.eval.len());
    for (i, q) in s.eval.iter().enumerate() {
        let request = EstimateRequest::new(BENCH, Arc::clone(&s.env), q.root.clone())
            .with_estimator(EstimatorKind::QcfeQpp);
        match s.gateway.estimate(request) {
            Ok(a) => {
                report.check(a.cost_ms.to_bits() == refined_direct[i].to_bits(), || {
                    format!("evaluation estimate {i} differs from predict_batch under the final snapshot")
                });
                report.check(a.provenance.refined, || {
                    format!("evaluation estimate {i} is not refined")
                });
                served.push(a.cost_ms);
            }
            Err(e) => report.fail(format!("evaluation estimate {i} failed: {e}")),
        }
    }
    report.attempted += s.eval.len() as u64;
    if served.len() == s.eval.len() {
        // Reported side by side, not gated: whether the refined shard beats
        // the transferred snapshot depends on the seeded label stream and
        // evaluation queries (see README.md), and a gate that fails on
        // some seeds only would make the run's correctness a coin toss.
        report.metric(
            "served_qerror_p50",
            median(&q_errors(&actuals, &served)),
            "ratio",
        );
        report.metric(
            "refine.transferred_qerror_p50",
            median(&q_errors(&actuals, &transferred_direct)),
            "ratio",
        );
    }

    report.metric("throughput_eps", seen.read_tput.median(), "1/s");
    report.metric("latency_p50_us", seen.read_p50.median(), "us");
    report.metric("latency_p99_us", seen.read_p99.median(), "us");
    report.metric("label_eps", seen.label_eps.median(), "1/s");
    report.metric("gateway.inproc_p50_us", seen.read_p50.median(), "us");
    report.metric("gateway.shard_starts", stats.shard_starts as f64, "count");
    report.metric(
        "refine.record_p50_us",
        percentile(&seen.record_us, 50.0),
        "us",
    );
    report.metric(
        "refine.record_p99_us",
        percentile(&seen.record_us, 99.0),
        "us",
    );
    report.metric("refine.refits", stats.refits as f64, "count");
    report.metric("refine.refit_ms", median(&seen.refit_ms), "ms");
    report.metric("store.bytes_written", store_bytes as f64, "bytes");
    report.metric("proc.cpu_us_per_op", cpu_s * 1e6 / ops as f64, "us");
    report.metric("proc.ctxsw_per_op", switches as f64 / ops as f64, "count");
    report_service_metrics(&s.gateway, EstimatorKind::QcfeQpp, &s.instance, report);
    if cfg.trace {
        report.metric(
            "trace.overhead_pct",
            (seen.traced_s.median() / seen.untraced_s.median() - 1.0) * 100.0,
            "%",
        );
        side_passes(&s, report);
    }
}

/// Per-layer side passes on the reader's plans.
fn side_passes(s: &Setup, report: &mut Report) {
    report.metric(
        "db.fingerprint_us",
        layers::fingerprint_us(std::slice::from_ref(&*s.env)),
        "us",
    );
    let plans: Vec<(&PlanNode, Option<&FeatureSnapshot>)> = s
        .reads
        .iter()
        .map(|r| (&r.plan, Some(&s.transferred)))
        .collect();
    let qpp: &dyn CostModel = &s.trained.qpp;
    let mscn: &dyn CostModel = &s.trained.mscn;
    report.metric(
        "estimators.qpp_forward_b1_pps",
        layers::forward_pps(qpp, &plans, 1),
        "1/s",
    );
    report.metric(
        "estimators.qpp_forward_b32_pps",
        layers::forward_pps(qpp, &plans, 32),
        "1/s",
    );
    report.metric(
        "estimators.mscn_forward_b1_pps",
        layers::forward_pps(mscn, &plans, 1),
        "1/s",
    );
    let responses = vec![s.warmup; s.reads.len()];
    layers::report_wire(&s.reads, &responses, report);
}
