//! Telemetry overhead gate: the unified `core::telemetry` layer promises
//! that instrumentation is free when nobody is looking — a disarmed span
//! is one relaxed atomic load, a counter bump is one relaxed add — and
//! close to free even with the JSONL trace sink armed. This bench holds
//! that promise numerically on the two hot paths the paper's pipeline
//! spends its time in: the batched inference sweep (`infer.sweep` span +
//! counters per call) and the cached simulation batch (per-hit counter
//! traffic), measured disarmed and then with `ARCHPREDICT_TRACE` armed.
//!
//! Both legs assert **bit-for-bit identical results** across the armed
//! and disarmed runs — arming observability must never perturb the
//! numbers — and at full workload size the armed best-of-N time must be
//! within [`MAX_OVERHEAD_PCT`] percent of the disarmed one. Usage:
//!
//! ```text
//! cargo run --release --bin telemetry_overhead [points] [sweeps] [repeats]
//! ```
//!
//! Writes `results/telemetry_overhead.csv` and
//! `results/telemetry_overhead.json` through
//! [`archpredict_bench::measure::Report`]: each leg's armed row has the
//! disarmed row as its baseline, and the JSON carries each leg's overhead.

use archpredict::infer::predict_indices;
use archpredict::simulate::{CachedEvaluator, Oracle, SimBudget, SimStats, StudyEvaluator};
use archpredict::studies::Study;
use archpredict::telemetry;
use archpredict_ann::Parallelism;
use archpredict_bench::measure::{self, Best, Report};
use archpredict_stats::json::Value;
use archpredict_stats::rng::Xoshiro256;

/// Maximum tolerated slowdown of the armed run over the disarmed run.
const MAX_OVERHEAD_PCT: f64 = 2.0;

/// Below this many swept points the timed regions are too short for a
/// percent-level comparison; the run still measures and reports, but the
/// gate is skipped (same policy as the speedup benches).
const ASSERT_MIN_POINTS: usize = 4_096;

fn main() {
    let [points, sweeps, repeats] = measure::positional(
        std::env::args().skip(1),
        [("points", 8_192), ("sweeps", 8), ("repeats", 5)],
    );
    assert!(points > 0 && sweeps > 0 && repeats > 0);

    // The trace sink is process-global; this bench owns it for the whole
    // run. Start from a known-disarmed state whatever the environment
    // carried in.
    telemetry::clear_trace();
    let trace_path = std::env::temp_dir().join(format!(
        "archpredict_telemetry_overhead_{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&trace_path);

    let study = Study::MemorySystem;
    let space = study.space();
    let points = points.min(space.size());
    eprintln!(
        "telemetry_overhead: {points} points x {sweeps} sweeps (predict leg), \
         best of {repeats}, trace sink {}",
        trace_path.display()
    );

    // ---- Predict leg: the batched inference sweep. ----
    let mut rng = Xoshiro256::seed_from(2);
    let fit = measure::synthetic_fit(&space, &mut rng);
    let indices: Vec<usize> = (0..points).collect();
    // `sweeps` separate calls per timed region: each call is one
    // `infer.sweep` span, so the armed run pays `sweeps` JSONL appends —
    // the per-call cost is what the gate bounds, not one amortized line.
    let run_predict = || -> (f64, Vec<f64>) {
        let mut best = Best::default();
        let mut last = Vec::new();
        for _ in 0..repeats {
            best.time(|| {
                for _ in 0..sweeps {
                    last = predict_indices(&fit.ensemble, &space, &indices, Parallelism::Fixed(1));
                }
            });
        }
        (best.seconds(), last)
    };
    let (predict_disarmed, reference) = run_predict();
    telemetry::install_trace(&trace_path).expect("arm trace sink");
    let (predict_armed, armed_predictions) = run_predict();
    telemetry::clear_trace();
    assert_eq!(
        reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        armed_predictions
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        "arming the trace sink changed the predictions"
    );

    // ---- Sim leg: the cached simulation batch. ----
    let benchmark = archpredict_workloads::Benchmark::Gzip;
    let generator = archpredict_workloads::TraceGenerator::new(benchmark);
    let budget = SimBudget::spread(&generator, 2, 4_000, 8_000);
    let unique: Vec<usize> = {
        let n = 48.min(space.size());
        let stride = space.size() / n;
        (0..n).map(|i| i * stride).collect()
    };
    let mut sim_indices: Vec<usize> = Vec::new();
    for _ in 0..3 {
        sim_indices.extend_from_slice(&unique);
    }
    archpredict_stats::sampling::shuffle(&mut sim_indices, &mut rng);
    let run_sim = || -> (f64, SimStats) {
        let mut best = Best::default();
        let mut last = SimStats::default();
        for _ in 0..repeats {
            let cached = CachedEvaluator::with_parallelism(
                StudyEvaluator::with_budget(study, benchmark, budget.clone()),
                space.clone(),
                Parallelism::Fixed(1),
            );
            let mut stats = SimStats::default();
            let results = best.time(|| cached.evaluate_batch(&space, &sim_indices, &mut stats));
            assert!(results.iter().all(Result::is_ok));
            last = stats;
        }
        (best.seconds(), last)
    };
    let (sim_disarmed, stats_disarmed) = run_sim();
    telemetry::install_trace(&trace_path).expect("re-arm trace sink");
    let (sim_armed, stats_armed) = run_sim();
    telemetry::clear_trace();
    assert_eq!(
        stats_disarmed.unique_simulations, stats_armed.unique_simulations,
        "arming the trace sink changed the simulation work"
    );
    assert_eq!(stats_disarmed.cache_hits, stats_armed.cache_hits);

    // The armed runs must have actually traced something: a sink that
    // silently dropped events would make this whole comparison vacuous.
    let traced = std::fs::read_to_string(&trace_path).expect("read trace file");
    let span_lines = traced
        .lines()
        .filter(|l| l.contains("\"event\":\"span\""))
        .count();
    assert!(
        span_lines >= sweeps,
        "armed runs emitted only {span_lines} span events (expected >= {sweeps})"
    );
    let _ = std::fs::remove_file(&trace_path);

    let legs = [
        ("predict_sweep", predict_disarmed, predict_armed),
        ("sim_batch", sim_disarmed, sim_armed),
    ];
    let overhead_pct = |disarmed: f64, armed: f64| (armed / disarmed - 1.0) * 100.0;
    let mut report = Report::new("telemetry_overhead");
    report
        .meta("points", Value::Num(points as f64))
        .meta("sweeps", Value::Num(sweeps as f64))
        .meta("repeats", Value::Num(repeats as f64))
        .meta("span_events_observed", Value::Num(span_lines as f64))
        .meta("max_overhead_pct", Value::Num(MAX_OVERHEAD_PCT))
        .meta(
            "determinism",
            Value::Str("bit_identical_armed_vs_disarmed".into()),
        );
    for &(leg, disarmed, armed) in &legs {
        let baseline = format!("{leg}_disarmed");
        report
            .meta(
                &format!("{leg}_overhead_pct"),
                Value::num(overhead_pct(disarmed, armed)),
            )
            .row(baseline.clone(), disarmed, &baseline)
            .row(format!("{leg}_armed"), armed, &baseline);
    }
    report.write();

    if points >= ASSERT_MIN_POINTS {
        for &(leg, disarmed, armed) in &legs {
            let overhead = overhead_pct(disarmed, armed);
            assert!(
                overhead < MAX_OVERHEAD_PCT,
                "{leg} leg: armed run is {overhead:.2}% slower than disarmed \
                 ({armed:.4}s vs {disarmed:.4}s); telemetry must stay under {MAX_OVERHEAD_PCT}%"
            );
        }
        eprintln!("overhead gate: both legs under {MAX_OVERHEAD_PCT}% (best of {repeats})");
    } else {
        eprintln!("(smoke run: <{ASSERT_MIN_POINTS} points, overhead assertion skipped)");
    }
}
