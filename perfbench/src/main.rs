//! End-to-end and per-layer benchmark of the QCFE workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_uds|serve_feedback> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints progress and every check that failed on standard error, and as
//! the last line of standard output one JSON object: `correct`,
//! `attempted`, `failed` and the metrics — the end-to-end ones with
//! `--trace 0`, the per-layer ones with `--trace 1`. Exits 1 when a check
//! fails and 2 on bad arguments. See `perfbench/README.md`.

mod affinity;
mod layers;
mod model;
mod procfs;
mod report;
mod serve_feedback;
mod serve_uds;
mod stats;
mod trace;

use report::Report;
use std::path::PathBuf;
use trace::{self_ns_by_name, Tracer};

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("train_s", "s"),
    ("qpp_qerror_p50", "ratio"),
    ("qpp_qerror_p95", "ratio"),
    ("mscn_qerror_p50", "ratio"),
    ("mscn_qerror_p95", "ratio"),
    ("throughput_eps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("label_eps", "1/s"),
    ("served_qerror_p50", "ratio"),
];

/// Spans the benchmark records, each around one call into a layer.
const SPANS: &[&str] = &[
    "db.collect",
    "templates.simplify",
    "snapshot.fst_execute",
    "snapshot.fit",
    "reduction.reduce",
    "estimators.train",
    "estimators.evaluate",
    "client.estimate",
    "gateway.estimate",
    "gateway.record_execution",
    "bench.pass",
];

/// Per-layer metrics, reported by every workload with `--trace 1`; a layer
/// a workload does not exercise reads 0. Self times of [`SPANS`] follow.
const PER_LAYER: &[(&str, &str)] = &[
    ("db.collect_s", "s"),
    ("db.queries_executed", "count"),
    ("db.fingerprint_us", "us"),
    ("templates.simplified_queries", "count"),
    ("snapshot.fst_execute_s", "s"),
    ("snapshot.fit_ms", "ms"),
    ("snapshot.fso_label_cost_ms", "sim_ms"),
    ("snapshot.fst_label_cost_ms", "sim_ms"),
    ("reduction.s", "s"),
    ("reduction.features_kept", "count"),
    ("reduction.features_total", "count"),
    ("estimators.qpp_train_s", "s"),
    ("estimators.mscn_train_s", "s"),
    ("estimators.eval_pps", "1/s"),
    ("estimators.qpp_forward_b1_pps", "1/s"),
    ("estimators.qpp_forward_b32_pps", "1/s"),
    ("estimators.mscn_forward_b1_pps", "1/s"),
    ("estimators.floored", "count"),
    ("codec.qcfs_bytes", "bytes"),
    ("codec.qcfw_bytes", "bytes"),
    ("gateway.inproc_p50_us", "us"),
    ("gateway.shard_starts", "count"),
    ("service.p50_us", "us"),
    ("service.batch_mean", "count"),
    ("service.cache_hit_rate", "ratio"),
    ("refine.record_p50_us", "us"),
    ("refine.record_p99_us", "us"),
    ("refine.refits", "count"),
    ("refine.refit_ms", "ms"),
    ("refine.transferred_qerror_p50", "ratio"),
    ("store.bytes_written", "bytes"),
    ("wire.request_bytes", "bytes"),
    ("wire.response_bytes", "bytes"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("net.overhead_us", "us"),
    ("proc.cpu_us_per_op", "us"),
    ("proc.ctxsw_per_op", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// Parsed command line plus the run's scratch directory.
pub struct RunConfig {
    /// Which workload.
    pub workload: String,
    /// Seed of the workload's inputs.
    pub seed: u64,
    /// Intended measuring time; fixes the amount of work.
    pub seconds: u64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Directory for the run's files, relative to the working directory
    /// (a Unix socket path must stay short). Removed when the run ends.
    pub scratch: PathBuf,
}

impl RunConfig {
    /// A fixed number of work units for the run: `--seconds` divided by
    /// the time one unit takes on the reference machine, at least
    /// `minimum`. The count depends only on the arguments, so the work
    /// (and every count derived from it) repeats exactly.
    pub fn work_units(&self, nominal_unit_s: f64, minimum: usize) -> usize {
        ((self.seconds as f64 / nominal_unit_s).round() as usize).max(minimum)
    }
}

/// Set-ups per run. The first is the one measured; the others run between
/// equal parts of the measured work, so that `setup_s` and the other
/// set-up figures are medians over the whole run, not over its first
/// seconds (this machine changes speed for seconds at a time).
pub const SETUP_REPEATS: usize = 5;

/// Whether work unit `i` (a round) of a run records spans: with
/// `--trace 1`, one unit in four. The other units do the same work
/// untraced, which gives the tracing overhead, and the span log stays
/// small enough to write out.
pub fn traced_unit(trace: bool, i: usize) -> bool {
    trace && i % 4 == 1
}

/// `units` work units split into `parts` contiguous, near-equal ranges.
pub fn split_units(units: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    (0..parts)
        .map(|k| k * units / parts..(k + 1) * units / parts)
        .collect()
}

fn parse_args() -> Result<RunConfig, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !["serve_uds", "serve_feedback"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} needs a whole number"))
    };
    let seconds = number("--seconds")?;
    if !(1..=3600).contains(&seconds) {
        return Err("--seconds must be between 1 and 3600".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(RunConfig {
        scratch: PathBuf::from(".bench_tmp").join(format!("{workload}-{}", std::process::id())),
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <serve_uds|serve_feedback> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let cpu = match affinity::pin_to_one_cpu() {
        Ok(cpu) => format!("confined to CPU {cpu}"),
        Err(e) => format!("not confined to one CPU ({e})"),
    };
    std::fs::create_dir_all(&cfg.scratch).expect("scratch directory is writable");
    let scratch = Scratch(cfg.scratch.clone());
    eprintln!(
        "perfbench: {} seed {} seconds {} trace {}, {cpu}, matmul kernel {}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        qcfe_nn::kernel::active_kernel().name()
    );

    let tracer = Tracer::default();
    let mut report = Report::default();
    if cfg.workload == "serve_uds" {
        serve_uds::run(&cfg, &tracer, &mut report);
    } else {
        serve_feedback::run(&cfg, &tracer, &mut report);
    }
    report.metric("peak_rss_mb", procfs::peak_rss_mib(), "MiB");

    let names: Vec<(String, &str)> = if cfg.trace {
        let spans = tracer.spans();
        let self_ns = self_ns_by_name(&spans);
        report.metric("trace.spans", spans.len() as f64, "count");
        for name in SPANS {
            let self_ms = self_ns.get(name).map_or(0.0, |&ns| ns as f64 / 1e6);
            report.metric(&format!("span.{name}.self_ms"), self_ms, "ms");
        }
        let out = PathBuf::from(".bench_out")
            .join(format!("trace-{}-seed{}.jsonl", cfg.workload, cfg.seed));
        match tracer.write_jsonl(&out) {
            Ok(()) => eprintln!(
                "perfbench: {} spans written to {}",
                spans.len(),
                out.display()
            ),
            Err(e) => eprintln!("perfbench: could not write spans to {}: {e}", out.display()),
        }
        PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .chain(SPANS.iter().map(|s| (format!("span.{s}.self_ms"), "ms")))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    let names: Vec<(&str, &str)> = names.iter().map(|(n, u)| (n.as_str(), *u)).collect();
    for (name, unit) in &names {
        match report.get(name) {
            Some((v, recorded)) => {
                assert_eq!(recorded, *unit, "unit of {name} differs from its listing");
                eprintln!("  {name:<36} {v:>16.6} {unit}");
            }
            None if cfg.trace => {}
            None => report.fail(format!("end-to-end metric {name} was not measured")),
        }
    }
    eprintln!(
        "perfbench: attempted {} failed {}",
        report.attempted, report.failed
    );
    for failure in report.failures() {
        eprintln!("CHECK FAILED: {failure}");
    }
    println!("{}", report.to_json(&names));
    drop(scratch);
    std::process::exit(if report.correct() { 0 } else { 1 });
}
