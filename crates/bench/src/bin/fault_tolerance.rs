//! Fault-tolerance smoke gate: a quickstart-scale exploration driven
//! through the full fault-tolerant oracle stack
//! (`RetryingOracle<FaultInjectingOracle<CachedEvaluator<StudyEvaluator>>>`)
//! with a 10% injected fault rate. Asserts, with zero panics along the way:
//!
//! 1. every round still reaches its full sample budget — failed points are
//!    quarantined and replacements are drawn until the batch is whole;
//! 2. the learning-curve CSV (deterministic flavor, wall-clock columns
//!    excluded) is **bit-for-bit identical** at `Fixed(1)`, `Fixed(4)` and
//!    `Auto` parallelism — fault schedules, retries and resampling never
//!    depend on thread timing;
//! 3. a run killed after any round and resumed from its on-disk checkpoint
//!    produces the **byte-for-byte** same CSV as the uninterrupted run,
//!    even with a torn `.tmp` file left in the checkpoint directory;
//! 4. the quarantine survives persist/load round-trips;
//! 5. a pooled cross-application fit through the same faulted stack fills
//!    every application's quota and emits an identical deterministic CSV
//!    at every parallelism setting;
//! 6. the distributed stack (`RetryingOracle<CachedEvaluator<`
//!    `ProcessPoolOracle>>`) quarantines a deterministically crashing
//!    worker **identically at 0, 1 and 2 worker processes** — same error
//!    placements, same quarantine set, untouched batchmates — with the
//!    aborting worker respawned each attempt. Skipped with a loud warning
//!    if the `archpredict-worker` binary is not built.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p archpredict-bench --bin fault_tolerance \
//!     [batch] [rounds] [fault_percent]
//! ```

use archpredict::crossapp::CrossAppModel;
use archpredict::explorer::{Explorer, ExplorerConfig};
use archpredict::fault::{self, FaultInjectingOracle};
use archpredict::report::LearningCurve;
use archpredict::simulate::{CachedEvaluator, RetryingOracle, SimBudget, SimStats, StudyEvaluator};
use archpredict::studies::Study;
use archpredict_ann::{Parallelism, TrainConfig};
use archpredict_bench::write_artifact;
use archpredict_workloads::{Benchmark, TraceGenerator};
use std::path::Path;

type Stack = RetryingOracle<FaultInjectingOracle<CachedEvaluator<StudyEvaluator>>>;

fn main() {
    let mut args = std::env::args().skip(1);
    let batch: usize = args
        .next()
        .map(|a| a.parse().expect("batch must be a number"))
        .unwrap_or(50);
    let rounds: usize = args
        .next()
        .map(|a| a.parse().expect("rounds must be a number"))
        .unwrap_or(3);
    let fault_percent: f64 = args
        .next()
        .map(|a| a.parse().expect("fault_percent must be a number"))
        .unwrap_or(10.0);
    assert!(batch > 0 && rounds > 0 && (0.0..100.0).contains(&fault_percent));

    let study = Study::MemorySystem;
    let space = study.space();
    let benchmark = Benchmark::Gzip;
    let generator = TraceGenerator::new(benchmark);
    let budget = SimBudget::spread(&generator, 2, 4_000, 8_000);

    let fault = || fault::mixed(fault_percent / 100.0, 0xFA_17ED);
    let stack = |parallelism: Parallelism| -> Stack {
        RetryingOracle::new(FaultInjectingOracle::new(
            CachedEvaluator::with_parallelism(
                StudyEvaluator::with_budget(study, benchmark, budget.clone()),
                space.clone(),
                parallelism,
            ),
            fault(),
        ))
    };
    let config = |parallelism: Parallelism| ExplorerConfig {
        batch,
        target_error: 0.0,
        max_samples: batch * rounds,
        train: TrainConfig {
            max_epochs: 40,
            patience: 10,
            parallelism,
            ..TrainConfig::default()
        },
        seed: 0x1BEC,
        ..ExplorerConfig::default()
    };

    eprintln!(
        "fault_tolerance: {rounds} round(s) x {batch} points at {fault_percent}% \
         injected faults on the {} space",
        study.name()
    );

    // Gate 1+2: full runs at three parallelism settings; every round must
    // reach its budget and the deterministic CSVs must match bit-for-bit.
    let settings = [
        ("fixed_1", Parallelism::Fixed(1)),
        ("fixed_4", Parallelism::Fixed(4)),
        ("auto", Parallelism::Auto),
    ];
    let mut csvs: Vec<(String, String, SimStats)> = Vec::new();
    for &(label, parallelism) in &settings {
        let oracle = stack(parallelism);
        let mut explorer = Explorer::new(&space, &oracle, config(parallelism));
        let mut curve = LearningCurve::new(format!("{benchmark}"));
        let mut totals = SimStats::default();
        for round in 1..=rounds {
            let record = explorer.try_step().expect("step must not fail");
            assert_eq!(
                record.samples,
                batch * round,
                "[{label}] round {round} fell short of its budget \
                 (resampling must replace quarantined points)"
            );
            totals.merge(&record.simulation);
            let record = record.clone();
            curve.push(&record, None);
        }
        eprintln!(
            "  [{label:>7}] {} samples, {} failures, {} retries, {} quarantined, \
             {} resampled, {:.1}s virtual backoff",
            explorer.samples(),
            totals.failures,
            totals.retries,
            totals.quarantined,
            totals.resampled,
            oracle.virtual_backoff_seconds(),
        );
        assert!(
            totals.failures > 0,
            "[{label}] a {fault_percent}% fault rate over {} attempts injected nothing",
            batch * rounds
        );
        csvs.push((label.to_string(), curve.to_csv_deterministic(), totals));
    }
    for (label, csv, _) in &csvs[1..] {
        assert_eq!(
            &csvs[0].1, csv,
            "deterministic CSV diverged between fixed_1 and {label}"
        );
    }
    eprintln!("  deterministic CSVs identical across all parallelism settings");

    // Gate 3: kill-and-resume. A checkpointed run is dropped mid-study
    // (simulating `kill -9` between rounds; checkpoints are written
    // atomically after each round), then resumed from disk — with a torn
    // temp file planted in the checkpoint directory — and must reproduce
    // the uninterrupted run's CSV byte-for-byte.
    let ckpt_dir = Path::new("results/fault_tolerance/checkpoint");
    let _ = std::fs::remove_dir_all(ckpt_dir);
    let killed_after = rounds.div_ceil(2);
    {
        let oracle = stack(Parallelism::Auto);
        let mut explorer = Explorer::new(&space, &oracle, config(Parallelism::Auto));
        explorer.enable_checkpoints(ckpt_dir);
        for _ in 0..killed_after {
            explorer.try_step().expect("step must not fail");
        }
        // The explorer is dropped here without any shutdown path: the only
        // surviving state is the atomic per-round checkpoint.
    }
    std::fs::write(ckpt_dir.join("state.json.tmp"), b"{\"torn\":").expect("plant torn temp file");
    let oracle = stack(Parallelism::Auto);
    let mut resumed = Explorer::resume(&space, &oracle, config(Parallelism::Auto), ckpt_dir)
        .expect("resume from checkpoint");
    assert_eq!(resumed.samples(), batch * killed_after);
    for _ in killed_after..rounds {
        resumed.try_step().expect("step must not fail");
    }
    let mut curve = LearningCurve::new(format!("{benchmark}"));
    for round in resumed.history() {
        curve.push(round, None);
    }
    let auto_csv = &csvs.iter().find(|(l, ..)| l == "auto").expect("auto run").1;
    assert_eq!(
        auto_csv,
        &curve.to_csv_deterministic(),
        "kill after round {killed_after} + resume diverged from the uninterrupted run"
    );
    eprintln!("  kill after round {killed_after} + resume reproduced the CSV byte-for-byte");

    // Gate 4: quarantine persist/load round-trip.
    let quarantined = oracle.quarantined();
    let qpath = Path::new("results/fault_tolerance/quarantine.txt");
    oracle
        .persist_quarantine(qpath)
        .expect("persist quarantine");
    let fresh = stack(Parallelism::Auto);
    let loaded = fresh.load_quarantine(qpath).expect("load quarantine");
    assert_eq!(loaded, quarantined.len());
    assert_eq!(fresh.quarantined(), quarantined);
    eprintln!(
        "  quarantine of {} index(es) survived a persist/load round-trip",
        quarantined.len()
    );

    // Gate 5: cross-application determinism under the same faulted stack.
    // The pooled fit samples each application through the engine's
    // quarantine/resample loop; its single-round CSV must be identical at
    // every parallelism setting.
    let crossapp = |parallelism: Parallelism| -> (String, usize, SimStats) {
        let evaluators = vec![
            (benchmark, stack(parallelism)),
            (Benchmark::Mcf, {
                let generator = TraceGenerator::new(Benchmark::Mcf);
                let budget = SimBudget::spread(&generator, 2, 4_000, 8_000);
                RetryingOracle::new(FaultInjectingOracle::new(
                    CachedEvaluator::with_parallelism(
                        StudyEvaluator::with_budget(study, Benchmark::Mcf, budget),
                        space.clone(),
                        parallelism,
                    ),
                    fault(),
                ))
            }),
        ];
        let train = TrainConfig {
            max_epochs: 40,
            patience: 10,
            parallelism,
            ..TrainConfig::default()
        };
        let model = CrossAppModel::fit(&space, &evaluators, batch, &train, 0x1BEC);
        let mut curve = LearningCurve::new("crossapp");
        curve.push(&model.round(), None);
        (
            curve.to_csv_deterministic(),
            model.samples,
            model.simulation,
        )
    };
    let (crossapp_csv, crossapp_samples, crossapp_stats) = crossapp(Parallelism::Fixed(1));
    assert_eq!(
        crossapp_samples,
        batch * 2,
        "crossapp fit fell short of its per-app quota under faults"
    );
    for &(label, parallelism) in &settings[1..] {
        let (csv, ..) = crossapp(parallelism);
        assert_eq!(
            crossapp_csv, csv,
            "crossapp deterministic CSV diverged between fixed_1 and {label}"
        );
    }
    eprintln!(
        "  crossapp fit: {} samples, {} failures, {} resampled — CSV identical \
         across all parallelism settings",
        crossapp_samples, crossapp_stats.failures, crossapp_stats.resampled
    );

    write_artifact(Path::new("results/fault_tolerance/curve.csv"), auto_csv);
    write_artifact(
        Path::new("results/fault_tolerance/crossapp_curve.csv"),
        &crossapp_csv,
    );

    // Gate 6: distributed crash/quarantine determinism. A SleepyEvaluator
    // that crashes at one index (a keyed `fault.crashed` clause on the
    // active plan) must produce the same results, the same quarantine set
    // and untouched batchmates whether the crash is a real worker-process
    // death (1 or 2 workers) or the in-process fallback's `Err(Crashed)`
    // (0 workers).
    if archpredict::distributed::locate_worker_binary().is_err() {
        eprintln!(
            "fault_tolerance: WARNING: distributed gate skipped — archpredict-worker \
             not found (build with `cargo build --release -p archpredict-worker`)"
        );
    } else {
        use archpredict::distributed::{ProcessPoolOracle, WorkerSpec};
        use archpredict::failpoint::{self, FailAction, Plan, SiteSpec};
        use archpredict::simulate::{Oracle, SimError};
        let crash_index = 4_321usize;
        let spec = WorkerSpec::Sleepy {
            study,
            sleep_micros: 0,
        };
        let plan = Plan::new(0).keyed(
            fault::FP_CRASHED,
            crash_index as u64,
            SiteSpec::always(FailAction::Error),
        );
        let _plan = failpoint::enter(std::sync::Arc::new(plan));
        let indices = [3usize, crash_index, 77, 9_000, 15_000];
        let run = |workers: usize| {
            let pool = ProcessPoolOracle::with_workers(spec.clone(), workers)
                .expect("worker binary located above");
            let oracle = RetryingOracle::new(CachedEvaluator::new(pool, space.clone()));
            let mut stats = SimStats::default();
            let first = oracle.evaluate_batch(&space, &indices, &mut stats);
            let second = oracle.evaluate_batch(&space, &indices, &mut stats);
            let respawns = oracle.inner().inner().respawns();
            (
                first
                    .iter()
                    .map(|r| r.map(f64::to_bits))
                    .collect::<Vec<_>>(),
                second
                    .iter()
                    .map(|r| r.map(f64::to_bits))
                    .collect::<Vec<_>>(),
                oracle.quarantined(),
                respawns,
            )
        };
        let (first_0, second_0, quarantined_0, _) = run(0);
        assert_eq!(first_0[1], Err(SimError::Crashed));
        assert_eq!(second_0[1], Err(SimError::Quarantined));
        assert_eq!(quarantined_0, vec![crash_index]);
        assert!(
            first_0.iter().enumerate().all(|(i, r)| i == 1 || r.is_ok()),
            "a crashing index poisoned its batchmates: {first_0:?}"
        );
        for workers in [1usize, 2] {
            let (first, second, quarantined, respawns) = run(workers);
            assert_eq!(
                first_0, first,
                "distributed crash results diverged at {workers} workers"
            );
            assert_eq!(second_0, second);
            assert_eq!(quarantined_0, quarantined);
            assert!(
                respawns >= 1,
                "the aborting worker was never respawned at {workers} workers"
            );
        }
        eprintln!(
            "  distributed crash quarantined identically at 0, 1 and 2 workers \
             (batchmates untouched, dead workers respawned)"
        );
    }
    eprintln!("fault_tolerance: all gates passed");
}
