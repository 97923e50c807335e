//! `serve_uds`: closed-loop QCFE(mscn) estimates over `QCFP` on a Unix
//! socket, served by an in-process `qcfe-net` reactor in front of a
//! `QcfeGateway`. Two connections each wait for their reply, as a planner
//! waits for its estimate. The requests reuse a small pool of plans across
//! the four trained environments, so encodings stay in the shards'
//! encoding caches and the model is a small share of each request.

use crate::model::{self, Instance, TrainRepeats, Trained, BENCH, TRAINED_ENVS};
use crate::procfs::{thread_switches, PhaseCounters};
use crate::report::Report;
use crate::stats::{percentile, q_error, Repeats};
use crate::trace::Tracer;
use crate::{layers, split_units, traced_unit, RunConfig, SETUP_REPEATS};
use qcfe_core::collect::collect_workload;
use qcfe_core::cost_model::CostModel;
use qcfe_core::snapshot::FeatureSnapshot;
use qcfe_core::EstimatorKind;
use qcfe_db::plan::PlanNode;
use qcfe_net::{NetServerBuilder, QcfeClient, ServerHandle};
use qcfe_serve::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Client connections. They share the run's one CPU (see `affinity`), so a
/// request can wait behind the other connection's, as one planner's
/// estimate waits behind another's.
const CONNECTIONS: usize = 2;
/// Distinct plans per environment in the request pool.
const PLANS_PER_ENV: usize = 32;
/// Requests each connection sends per round.
const REQUESTS_PER_ROUND: usize = 6_000;
/// Wall time of one round on the reference machine, used only to turn
/// `--seconds` into a fixed number of rounds.
const NOMINAL_ROUND_S: f64 = 0.6;
/// In-process side-pass rounds of a traced run.
const INPROC_ROUNDS: usize = 4;

/// One entry of the request pool.
struct PoolPlan {
    env: usize,
    plan: PlanNode,
    actual_ms: f64,
}

/// Everything one set-up builds.
struct Setup {
    instance: Instance,
    trained: Trained,
    pool: Vec<PoolPlan>,
    /// Bits of the direct `predict_batch` answer for each pool plan.
    expected: Vec<u64>,
    requests: Vec<EstimateRequest>,
    gateway: Arc<QcfeGateway>,
    server: ServerHandle,
    socket: PathBuf,
    warmup: Vec<EstimateResponse>,
}

/// Service configuration of every shard: one worker per CPU the run may
/// use (one once the run is confined), at most two.
pub fn shard_config() -> ServiceConfig {
    ServiceConfig {
        workers: std::thread::available_parallelism().map_or(1, |n| n.get().min(2)),
        queue_capacity: 256,
        max_batch: 32,
        encoding_cache_capacity: 4096,
    }
}

fn build(cfg: &RunConfig, tracer: &Tracer, index: usize, report: &mut Report) -> Setup {
    let instance = model::build_instance(tracer);
    let trained = model::train(&instance, cfg.seed, tracer, None);
    let envs: Vec<Arc<qcfe_db::env::DbEnvironment>> = instance.environments[..TRAINED_ENVS]
        .iter()
        .map(|e| Arc::new(e.clone()))
        .collect();
    let pool: Vec<PoolPlan> = collect_workload(
        &instance.benchmark,
        &instance.environments[..TRAINED_ENVS],
        PLANS_PER_ENV,
        cfg.seed,
    )
    .queries
    .into_iter()
    .map(|q| PoolPlan {
        env: q.env_index,
        actual_ms: q.executed.total_ms,
        plan: q.executed.root,
    })
    .collect();
    let mut expected = vec![0u64; pool.len()];
    for (env, snapshot) in trained.fso.iter().enumerate() {
        let idx: Vec<usize> = (0..pool.len()).filter(|&i| pool[i].env == env).collect();
        let plans: Vec<&PlanNode> = idx.iter().map(|&i| &pool[i].plan).collect();
        for (k, cost) in trained
            .mscn
            .predict_batch(&plans, snapshot.as_ref())
            .into_iter()
            .enumerate()
        {
            expected[idx[k]] = cost.to_bits();
        }
    }
    let requests: Vec<EstimateRequest> = pool
        .iter()
        .map(|p| EstimateRequest::new(BENCH, Arc::clone(&envs[p.env]), p.plan.clone()))
        .collect();

    let gateway = Arc::new(
        QcfeGateway::builder(cfg.scratch.join(format!("gateway-{index}")))
            .service_config(shard_config())
            .build()
            .expect("gateway builds"),
    );
    let model: Arc<dyn CostModel> = Arc::new(trained.mscn.clone());
    for (env, snapshot) in envs.iter().zip(&trained.fso) {
        gateway
            .publish_snapshot(BENCH, env, snapshot.as_ref().expect("FSO snapshot"))
            .expect("snapshot published");
        gateway.register_model(
            ModelKey::new(BENCH, EstimatorKind::QcfeMscn, env.fingerprint()),
            Arc::clone(&model),
        );
    }
    let socket = cfg.scratch.join(format!("s{index}.sock"));
    let server = NetServerBuilder::new(Arc::clone(&gateway))
        .uds(&socket)
        .max_connections(CONNECTIONS + 2)
        .start()
        .expect("server starts");
    // Warm-up: every pool plan once, which starts every shard and fills
    // the encoding caches before anything is timed.
    let mut client = QcfeClient::connect_uds(&socket).expect("client connects");
    let mut warmup = Vec::with_capacity(pool.len());
    for (i, request) in requests.iter().enumerate() {
        match client.estimate(request) {
            Ok(r) => {
                report.check(r.cost_ms.to_bits() == expected[i], || {
                    format!("warm-up reply for pool plan {i} differs from predict_batch")
                });
                warmup.push(r);
            }
            Err(e) => report.fail(format!("warm-up request {i} failed: {e}")),
        }
    }
    Setup {
        instance,
        trained,
        pool,
        expected,
        requests,
        gateway,
        server,
        socket,
        warmup,
    }
}

/// Per-round results of a closed loop.
#[derive(Default)]
struct Rounds {
    /// Requests per second, per round.
    throughput: Repeats,
    /// Client-observed median latency (µs), per round.
    p50_us: Repeats,
    /// Client-observed 99th-percentile latency (µs), per round.
    p99_us: Repeats,
    /// Round wall times of traced rounds.
    traced_s: Repeats,
    /// Round wall times of untraced rounds.
    untraced_s: Repeats,
    /// Context switches of the loop's threads.
    switches: u64,
    /// Requests whose answer differed from the direct prediction.
    mismatches: u64,
    /// Requests that failed.
    errors: u64,
    /// Requests sent.
    sent: u64,
}

impl Rounds {
    /// Add the rounds of `other`, a later part of the same run.
    fn absorb(&mut self, other: &Rounds) {
        self.throughput.extend(&other.throughput);
        self.p50_us.extend(&other.p50_us);
        self.p99_us.extend(&other.p99_us);
        self.traced_s.extend(&other.traced_s);
        self.untraced_s.extend(&other.untraced_s);
        self.switches += other.switches;
        self.mismatches += other.mismatches;
        self.errors += other.errors;
        self.sent += other.sent;
    }
}

/// Run rounds `rounds` (indices into the whole run) of `per_round`
/// closed-loop requests on each of [`CONNECTIONS`] threads. Thread `t`
/// sends pool plans in the order of `orders[t]`, through a client
/// `connect(t)` makes, by `call(client, pool index, parent span, request
/// id)`. With `trace`, the rounds [`traced_unit`] picks are traced; the
/// per-round statistics take only the untraced rounds.
#[allow(clippy::too_many_arguments)]
fn closed_loop<C>(
    rounds: std::ops::Range<usize>,
    per_round: usize,
    orders: &[Vec<usize>],
    expected: &[u64],
    trace: bool,
    tracer: &Tracer,
    connect: impl Fn(usize) -> C + Sync,
    call: impl Fn(&mut C, usize, Option<u64>, u64) -> Result<f64, String> + Sync,
) -> Rounds {
    let barrier = Barrier::new(orders.len());
    let next_request = AtomicU64::new(1);
    type Thread = (Vec<(Instant, Instant, Vec<f64>)>, u64, u64, u64);
    let threads: Vec<Thread> = std::thread::scope(|scope| {
        let handles: Vec<_> = orders
            .iter()
            .enumerate()
            .map(|(t, order)| {
                let (barrier, next_request, connect, call, rounds) =
                    (&barrier, &next_request, &connect, &call, rounds.clone());
                scope.spawn(move || {
                    let mut client = connect(t);
                    let mut per_round_out = Vec::with_capacity(rounds.len());
                    let (mut mismatches, mut errors) = (0, 0);
                    for r in rounds.clone() {
                        if barrier.wait().is_leader() {
                            tracer.set_enabled(traced_unit(trace, r));
                        }
                        barrier.wait();
                        let mut latencies = Vec::with_capacity(per_round);
                        let start = Instant::now();
                        tracer.span("bench.pass", None, 0, |pass| {
                            for k in 0..per_round {
                                let i = order[(r * per_round + k) % order.len()];
                                let id = next_request.fetch_add(1, Ordering::Relaxed);
                                let t0 = Instant::now();
                                let answer = call(&mut client, i, pass, id);
                                latencies.push(t0.elapsed().as_secs_f64() * 1e6);
                                match answer {
                                    Ok(cost) if cost.to_bits() == expected[i] => {}
                                    Ok(_) => mismatches += 1,
                                    Err(_) => errors += 1,
                                }
                            }
                        });
                        per_round_out.push((start, Instant::now(), latencies));
                    }
                    (per_round_out, thread_switches(), mismatches, errors)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    tracer.set_enabled(false);

    let mut out = Rounds::default();
    for (_, switches, mismatches, errors) in &threads {
        out.switches += switches;
        out.mismatches += mismatches;
        out.errors += errors;
    }
    out.sent = (rounds.len() * per_round * orders.len()) as u64;
    for (j, r) in rounds.enumerate() {
        let start = threads.iter().map(|t| t.0[j].0).min().expect("threads");
        let end = threads.iter().map(|t| t.0[j].1).max().expect("threads");
        let wall = (end - start).as_secs_f64();
        if traced_unit(trace, r) {
            out.traced_s.push(wall);
            continue;
        }
        out.untraced_s.push(wall);
        let latencies: Vec<f64> = threads
            .iter()
            .flat_map(|t| t.0[j].2.iter().copied())
            .collect();
        out.throughput
            .push((per_round * orders.len()) as f64 / wall);
        out.p50_us.push(percentile(&latencies, 50.0));
        out.p99_us.push(percentile(&latencies, 99.0));
    }
    out
}

/// Seeded request orders over a pool of `len` plans, one per connection.
fn request_orders(seed: u64, len: usize) -> Vec<Vec<usize>> {
    (0..CONNECTIONS)
        .map(|c| {
            let mut rng = StdRng::seed_from_u64(seed ^ (0x0c0 + c as u64));
            (0..4 * len).map(|_| rng.gen_range(0..len)).collect()
        })
        .collect()
}

pub fn run(cfg: &RunConfig, tracer: &Tracer, report: &mut Report) {
    let mut setup_s = Repeats::default();
    let mut training = TrainRepeats::default();
    // Labels collected and the time it took, summed over the set-ups: one
    // set-up's collection is too short to time on its own.
    let (mut labels, mut collect_s) = (0, 0.0);
    let mut timed_build = |index: usize, report: &mut Report| {
        tracer.set_enabled(cfg.trace);
        let started = Instant::now();
        let s = build(cfg, tracer, index, report);
        setup_s.push(started.elapsed().as_secs_f64());
        tracer.set_enabled(false);
        training.push(&s.trained.times);
        labels += s.instance.labeled.len();
        collect_s += s.instance.collect_s;
        s
    };
    let s = timed_build(0, report);
    report.metric("db.collect_s", s.instance.collect_s, "s");
    report.metric(
        "db.queries_executed",
        (s.instance.labeled.len() + s.pool.len()) as f64,
        "count",
    );
    model::check_served_models(&s.instance, &s.trained, tracer, report);
    report.attempted += s.pool.len() as u64;

    let orders = request_orders(cfg.seed, s.pool.len());
    let rounds = cfg.work_units(NOMINAL_ROUND_S, SETUP_REPEATS);
    let mut uds = Rounds::default();
    let (mut cpu_s, mut switches) = (0.0, 0);
    for (k, part) in split_units(rounds, SETUP_REPEATS).into_iter().enumerate() {
        if k > 0 {
            let extra = timed_build(k, report);
            if let Err(e) = extra.server.join() {
                report.fail(format!(
                    "set-up {k}'s server did not shut down cleanly: {e}"
                ));
            }
        }
        let counters = PhaseCounters::start();
        let part = closed_loop(
            part,
            REQUESTS_PER_ROUND,
            &orders,
            &s.expected,
            cfg.trace,
            tracer,
            |_| QcfeClient::connect_uds(&s.socket).expect("client connects"),
            |client, i, parent, id| {
                tracer.span("client.estimate", parent, id, |_| {
                    client
                        .estimate(&s.requests[i])
                        .map(|r| r.cost_ms)
                        .map_err(|e| e.to_string())
                })
            },
        );
        let (cpu, sw) = counters.finish(part.switches);
        cpu_s += cpu;
        switches += sw;
        uds.absorb(&part);
    }
    report.metric("setup_s", setup_s.median(), "s");
    training.report(report);
    report.metric("label_eps", labels as f64 / collect_s, "1/s");
    report.attempted += uds.sent;
    report.check(uds.errors == 0, || {
        format!("{} UDS requests failed", uds.errors)
    });
    report.check(uds.mismatches == 0, || {
        format!("{} UDS replies differ from predict_batch", uds.mismatches)
    });
    report.metric("throughput_eps", uds.throughput.median(), "1/s");
    report.metric("latency_p50_us", uds.p50_us.median(), "us");
    report.metric("latency_p99_us", uds.p99_us.median(), "us");
    report.metric("proc.cpu_us_per_op", cpu_s * 1e6 / uds.sent as f64, "us");
    report.metric(
        "proc.ctxsw_per_op",
        switches as f64 / uds.sent as f64,
        "count",
    );
    let served: Vec<f64> = orders
        .iter()
        .flat_map(|o| (0..rounds * REQUESTS_PER_ROUND).map(move |k| o[k % o.len()]))
        .map(|i| q_error(s.pool[i].actual_ms, f64::from_bits(s.expected[i])))
        .collect();
    report.metric("served_qerror_p50", percentile(&served, 50.0), "ratio");

    if cfg.trace {
        report.metric(
            "trace.overhead_pct",
            (uds.traced_s.median() / uds.untraced_s.median() - 1.0) * 100.0,
            "%",
        );
        // The same requests, called in process: the gateway without the
        // network front end, traced like the UDS pass.
        let inproc = closed_loop(
            0..INPROC_ROUNDS,
            REQUESTS_PER_ROUND,
            &orders,
            &s.expected,
            true,
            tracer,
            |_| (),
            |_, i, parent, id| {
                tracer.span("gateway.estimate", parent, id, |_| {
                    s.gateway
                        .estimate(s.requests[i].clone())
                        .map(|r| r.cost_ms)
                        .map_err(|e| e.to_string())
                })
            },
        );
        report.attempted += inproc.sent;
        report.check(inproc.errors == 0 && inproc.mismatches == 0, || {
            "in-process side pass failed or differed from predict_batch".to_string()
        });
        report.metric("gateway.inproc_p50_us", inproc.p50_us.median(), "us");
        report.metric(
            "net.overhead_us",
            uds.p50_us.median() - inproc.p50_us.median(),
            "us",
        );
        side_passes(&s, report);
    }

    let gateway_stats = s.gateway.stats();
    report.metric(
        "gateway.shard_starts",
        gateway_stats.shard_starts as f64,
        "count",
    );
    report.check(gateway_stats.shard_starts == TRAINED_ENVS as u64, || {
        format!(
            "{} shard starts for {TRAINED_ENVS} environments",
            gateway_stats.shard_starts
        )
    });
    report_service_metrics(&s.gateway, EstimatorKind::QcfeMscn, &s.instance, report);
    let over_socket = s.pool.len() as u64 + uds.sent;
    match s.server.join() {
        Ok(stats) => {
            report.check(stats.responses_fault == 0, || {
                format!("{} responses were faults", stats.responses_fault)
            });
            report.check(stats.protocol_errors == 0, || {
                format!("{} protocol errors", stats.protocol_errors)
            });
            report.check(stats.responses_ok == over_socket, || {
                format!(
                    "server answered {} requests ok, {over_socket} were sent",
                    stats.responses_ok
                )
            });
        }
        Err(e) => report.fail(format!("server did not shut down cleanly: {e}")),
    }
    report.check(!s.socket.exists(), || {
        format!("socket {} left behind after shutdown", s.socket.display())
    });
}

/// Service-layer counters of every shard of `estimator`, weighted by the
/// requests each shard completed.
pub fn report_service_metrics(
    gateway: &QcfeGateway,
    estimator: EstimatorKind,
    instance: &Instance,
    report: &mut Report,
) {
    let (mut completed, mut p50, mut batch, mut hits) = (0.0, 0.0, 0.0, 0.0);
    for env in &instance.environments {
        let key = ModelKey::new(BENCH, estimator, env.fingerprint());
        if let Some(m) = gateway.shard_metrics(&key) {
            let n = m.completed as f64;
            completed += n;
            p50 += n * m.p50_latency_us;
            batch += n * m.mean_batch_size;
            hits += n * m.cache_hit_rate;
        }
    }
    let completed = completed.max(1.0);
    report.metric("service.p50_us", p50 / completed, "us");
    report.metric("service.batch_mean", batch / completed, "count");
    report.metric("service.cache_hit_rate", hits / completed, "ratio");
}

/// Per-layer side passes on the request pool.
fn side_passes(s: &Setup, report: &mut Report) {
    report.metric(
        "db.fingerprint_us",
        layers::fingerprint_us(&s.instance.environments[..TRAINED_ENVS]),
        "us",
    );
    let plans: Vec<(&PlanNode, Option<&FeatureSnapshot>)> = s
        .pool
        .iter()
        .map(|p| (&p.plan, s.trained.fso[p.env].as_ref()))
        .collect();
    let qpp: &dyn CostModel = &s.trained.qpp;
    let mscn: &dyn CostModel = &s.trained.mscn;
    report.metric(
        "estimators.mscn_forward_b1_pps",
        layers::forward_pps(mscn, &plans, 1),
        "1/s",
    );
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
    layers::report_wire(&s.requests, &s.warmup, report);
}
