//! Side passes of a traced run: short direct calls into one layer each,
//! on the workload's own inputs. They only feed per-layer metrics.

use crate::report::Report;
use crate::stats::Repeats;
use qcfe_core::cost_model::CostModel;
use qcfe_core::snapshot::FeatureSnapshot;
use qcfe_db::env::DbEnvironment;
use qcfe_db::plan::PlanNode;
use qcfe_net::{decode_frame, encode_request, encode_response, Frame, WireEstimate};
use qcfe_net::{WireRequest, WireResponse};
use qcfe_serve::request::{EstimateRequest, EstimateResponse};
use std::hint::black_box;
use std::time::Instant;

/// Repeats of every side pass; each metric is the median over them.
const REPEATS: usize = 7;

/// Median over [`REPEATS`] of `work` (which reports how many operations
/// it did) in µs per operation.
fn us_per_op(mut work: impl FnMut() -> usize) -> f64 {
    let mut r = Repeats::default();
    for _ in 0..REPEATS {
        let t = Instant::now();
        let ops = work();
        r.push(t.elapsed().as_secs_f64() * 1e6 / ops.max(1) as f64);
    }
    r.median()
}

/// Cost of one `DbEnvironment::fingerprint` call over `envs`, in µs.
pub fn fingerprint_us(envs: &[DbEnvironment]) -> f64 {
    us_per_op(|| {
        for _ in 0..2_000 {
            for env in envs {
                black_box(black_box(env).fingerprint());
            }
        }
        2_000 * envs.len()
    })
}

/// Plans per second of `model.predict_batch` over `plans` (with their
/// snapshots), in batches of `batch`.
pub fn forward_pps(
    model: &dyn CostModel,
    plans: &[(&PlanNode, Option<&FeatureSnapshot>)],
    batch: usize,
) -> f64 {
    let us = us_per_op(|| {
        let mut done = 0;
        while done < 4_096 {
            for chunk in plans.chunks(batch) {
                let roots: Vec<&PlanNode> = chunk.iter().map(|(p, _)| *p).collect();
                // A chunk shares the first plan's snapshot, as a service
                // batch shares its shard's.
                black_box(model.predict_batch(black_box(&roots), chunk[0].1));
                done += chunk.len();
            }
        }
        done
    });
    1e6 / us
}

/// Record the sizes and costs of the `QCFP` frames for `requests`
/// answered by `responses`: mean request and response bytes, and µs per
/// request frame encode and per request frame decode.
pub fn report_wire(
    requests: &[EstimateRequest],
    responses: &[EstimateResponse],
    report: &mut Report,
) {
    let wire: Vec<WireRequest> = requests
        .iter()
        .enumerate()
        .map(|(i, r)| WireRequest::from_estimate_request(i as u64 + 1, r).expect("wire request"))
        .collect();
    let frames: Vec<Vec<u8>> = wire
        .iter()
        .map(|w| encode_request(w).expect("request encodes"))
        .collect();
    let response_bytes: usize = responses
        .iter()
        .enumerate()
        .map(|(i, r)| {
            encode_response(&WireResponse {
                request_id: i as u64 + 1,
                outcome: Ok(WireEstimate::from_response(r)),
            })
            .expect("response encodes")
            .len()
        })
        .sum();
    let rounds = (4_096 / wire.len().max(1)).max(1);
    let encode_us = us_per_op(|| {
        for _ in 0..rounds {
            for w in &wire {
                black_box(encode_request(black_box(w)).expect("request encodes"));
            }
        }
        rounds * wire.len()
    });
    let decode_us = us_per_op(|| {
        for _ in 0..rounds {
            for f in &frames {
                let frame = decode_frame(black_box(f)).expect("request decodes");
                assert!(
                    matches!(frame, Frame::Request(_)),
                    "request frame decodes as one"
                );
                black_box(frame);
            }
        }
        rounds * frames.len()
    });
    let request_bytes = frames.iter().map(Vec::len).sum::<usize>() as f64 / frames.len() as f64;
    report.metric("wire.request_bytes", request_bytes, "bytes");
    report.metric(
        "wire.response_bytes",
        response_bytes as f64 / responses.len().max(1) as f64,
        "bytes",
    );
    report.metric("wire.encode_us", encode_us, "us");
    report.metric("wire.decode_us", decode_us, "us");
}
