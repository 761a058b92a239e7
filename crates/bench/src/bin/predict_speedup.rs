//! Batched-inference speedup table: the blocked matrix-matrix sweep kernel
//! against the pre-kernel point-at-a-time path, then the parallel sweep at
//! 1, 2, 4, … worker threads up to the machine's core count — with
//! bit-for-bit determinism of the predictions checked at every path.
//!
//! The baseline is the true pre-kernel code path, preserved as
//! `predict_reference`: the textbook one-output-at-a-time forward loops
//! with a fresh allocation set per point. Two faster paths are measured
//! against it: the production per-point path (`predict_with`, blocked
//! forward + reused scratch) and the batched blocked kernel sweep.
//!
//! With enough points the single-threaded batched sweep must beat the
//! baseline by at least [`MIN_BATCHED_SPEEDUP`]x — this assertion is *not*
//! gated on core count, so the gate arms on any machine; tiny smoke runs
//! only check determinism. Usage:
//!
//! ```text
//! cargo run --release --bin predict_speedup [points] [repeats]
//! ```
//!
//! Writes `results/predict_speedup.csv` and `results/predict_speedup.json`
//! through [`archpredict_bench::measure::Report`].

use archpredict::infer::predict_indices;
use archpredict::studies::Study;
use archpredict_ann::{Parallelism, PredictBuffer};
use archpredict_bench::measure::{self, Best, Report};
use archpredict_stats::json::Value;
use archpredict_stats::rng::Xoshiro256;

/// Below this many swept points, skip the speedup assertions: the fixed
/// setup costs of one run dominate and the comparison is noise.
const SPEEDUP_ASSERT_MIN_POINTS: usize = 4_096;

/// Required single-thread speedup of the batched blocked-kernel sweep over
/// the pre-kernel point-at-a-time baseline. The kernels deliver well above
/// this on one core; if a change drags the sweep back toward ~1x scalar
/// throughput, this gate fails loudly.
const MIN_BATCHED_SPEEDUP: f64 = 4.0;

fn main() {
    let [points, repeats] = measure::positional(
        std::env::args().skip(1),
        [("points", 16_384), ("repeats", 3)],
    );

    let space = Study::MemorySystem.space();
    let points = points.min(space.size());
    let fit = measure::synthetic_fit(&space, &mut Xoshiro256::seed_from(2));
    let indices: Vec<usize> = (0..points).collect();

    let cores = measure::cores();
    eprintln!(
        "predict_speedup: {points} points, 10-member ensemble, best of {repeats} runs, \
         {cores} core(s)"
    );

    // Baseline: the pre-kernel path — textbook scalar forward loops, one
    // fresh allocation set per point.
    let mut baseline = Best::default();
    let mut reference = Vec::new();
    for _ in 0..repeats {
        reference = baseline.time(|| {
            indices
                .iter()
                .map(|&i| {
                    fit.ensemble
                        .predict_reference(&space.encode(&space.point(i)))
                })
                .collect()
        });
    }
    let baseline = baseline.seconds();

    // Production per-point path: blocked forward kernel, reused scratch,
    // still one point per call.
    let mut point_blocked = Best::default();
    for _ in 0..repeats {
        let mut buf = PredictBuffer::default();
        let mut features = Vec::new();
        let swept: Vec<f64> = point_blocked.time(|| {
            indices
                .iter()
                .map(|&i| {
                    features.clear();
                    space.encode_into(&space.point(i), &mut features);
                    fit.ensemble.predict_with(&features, &mut buf)
                })
                .collect()
        });
        assert_eq!(
            reference, swept,
            "per-point blocked path diverged from the reference predictions"
        );
    }

    let mut report = Report::new("predict_speedup");
    report
        .meta("study", Value::Str(Study::MemorySystem.name().into()))
        .meta("points", Value::Num(points as f64))
        .meta("repeats", Value::Num(repeats as f64))
        .meta("ensemble_members", Value::Num(10.0))
        .meta("determinism", Value::Str("bit_identical_all_paths".into()))
        .row("point_at_a_time", baseline, "point_at_a_time")
        .row("point_blocked", point_blocked.seconds(), "point_at_a_time");
    for threads in measure::thread_ladder(cores) {
        let mut best = Best::default();
        for _ in 0..repeats {
            let swept = best.time(|| {
                predict_indices(&fit.ensemble, &space, &indices, Parallelism::Fixed(threads))
            });
            assert_eq!(
                reference, swept,
                "{threads}-thread sweep diverged from the point-at-a-time predictions"
            );
        }
        report.row(
            format!("batched_{threads}"),
            best.seconds(),
            "point_at_a_time",
        );
    }
    report.write();
    eprintln!("(every path produced bit-for-bit identical predictions)");

    let batched_1 = report.seconds("batched_1").expect("1 is the first rung");
    if points >= SPEEDUP_ASSERT_MIN_POINTS {
        let speedup = baseline / batched_1;
        assert!(
            speedup >= MIN_BATCHED_SPEEDUP,
            "single-thread batched sweep is only {speedup:.2}x over the point-at-a-time \
             baseline ({batched_1:.4}s vs {baseline:.4}s) at {points} points; \
             the blocked kernels must deliver >= {MIN_BATCHED_SPEEDUP}x"
        );
        eprintln!("speedup gate: batched_1 is {speedup:.2}x (>= {MIN_BATCHED_SPEEDUP}x required)");
    } else {
        eprintln!("(smoke run: <{SPEEDUP_ASSERT_MIN_POINTS} points, speedup assertion skipped)");
    }
}
