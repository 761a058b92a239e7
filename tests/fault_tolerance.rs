//! Fault-tolerance integration tests over the full oracle stack
//! (`RetryingOracle<FaultInjectingOracle<CachedEvaluator<_>>>`): the leaf
//! simulator runs exactly once per surviving index no matter the fault
//! schedule, exploration under faults is bit-for-bit deterministic at every
//! parallelism setting, and a checkpointed run killed between rounds
//! resumes into the identical learning curve.

use archpredict::crossapp::CrossAppModel;
use archpredict::explorer::{Explorer, ExplorerConfig};
use archpredict::failpoint::Plan;
use archpredict::fault::{self, FaultInjectingOracle};
use archpredict::report::LearningCurve;
use archpredict::simulate::{CachedEvaluator, Oracle, PointEvaluator, RetryingOracle, SimStats};
use archpredict::space::{DesignPoint, DesignSpace};
use archpredict::studies::Study;
use archpredict_ann::{Parallelism, TrainConfig};
use archpredict_workloads::Benchmark;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A cheap deterministic stand-in for the cycle simulator that counts how
/// often it actually runs.
struct CountingEvaluator {
    space: DesignSpace,
    calls: AtomicUsize,
}

impl CountingEvaluator {
    fn new(space: DesignSpace) -> Self {
        Self {
            space,
            calls: AtomicUsize::new(0),
        }
    }
}

impl PointEvaluator for CountingEvaluator {
    fn evaluate(&self, point: &DesignPoint) -> f64 {
        self.calls.fetch_add(1, Ordering::SeqCst);
        // A smooth nonlinear response over the encoded features.
        let features = self.space.encode(point);
        1.0 + features
            .iter()
            .enumerate()
            .map(|(i, &f)| (1.0 + i as f64).recip() * (f + 0.3 * f * f))
            .sum::<f64>()
    }

    fn instructions_per_evaluation(&self) -> u64 {
        1_000
    }
}

type Stack = RetryingOracle<FaultInjectingOracle<CachedEvaluator<CountingEvaluator>>>;

/// The default schedule: 10% mixed-mode faults.
fn default_plan() -> Plan {
    fault::mixed(0.1, 0xFA_17ED)
}

fn stack(space: &DesignSpace, plan: Plan, parallelism: Parallelism) -> Stack {
    RetryingOracle::new(FaultInjectingOracle::new(
        CachedEvaluator::with_parallelism(
            CountingEvaluator::new(space.clone()),
            space.clone(),
            parallelism,
        ),
        plan,
    ))
}

fn leaf_calls(oracle: &Stack) -> usize {
    oracle.inner().inner().inner().calls.load(Ordering::SeqCst)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Whatever the fault schedule does, the leaf simulator runs exactly
    /// once per index that ends up with a value: injected faults never
    /// reach it, retries re-enter through the dedup cache, and duplicate
    /// occurrences are served from cache.
    #[test]
    fn leaf_simulates_exactly_once_per_surviving_index(
        seed in 0u64..u64::MAX,
        probability in 0.0f64..0.6,
    ) {
        let space = Study::MemorySystem.space();
        let oracle = stack(
            &space,
            fault::mixed(probability, seed),
            Parallelism::Fixed(2),
        );
        // Distinct indices plus a duplicated tail.
        let mut indices: Vec<usize> = (0..120).map(|i| i * 7 % space.size()).collect();
        indices.extend_from_slice(&indices.clone()[..20]);
        let mut stats = SimStats::default();
        let results = oracle.evaluate_batch(&space, &indices, &mut stats);
        prop_assert_eq!(results.len(), indices.len());
        let survivors: std::collections::BTreeSet<usize> = indices
            .iter()
            .zip(&results)
            .filter(|(_, r)| r.is_ok())
            .map(|(&i, _)| i)
            .collect();
        prop_assert_eq!(leaf_calls(&oracle), survivors.len());
        prop_assert_eq!(stats.unique_simulations as usize, survivors.len());
    }
}

fn faulted_config(parallelism: Parallelism) -> ExplorerConfig {
    ExplorerConfig {
        batch: 25,
        target_error: 0.0,
        max_samples: 75,
        train: TrainConfig {
            max_epochs: 25,
            patience: 8,
            parallelism,
            ..TrainConfig::default()
        },
        seed: 0xFA_0175,
        ..ExplorerConfig::default()
    }
}

fn run_curve(parallelism: Parallelism) -> (String, Vec<usize>, Vec<f64>) {
    let space = Study::MemorySystem.space();
    let oracle = stack(&space, default_plan(), parallelism);
    let mut explorer = Explorer::new(&space, &oracle, faulted_config(parallelism));
    explorer.run();
    let mut curve = LearningCurve::new("counting");
    for round in explorer.history() {
        curve.push(round, None);
    }
    let probes: Vec<f64> = explorer.predict_indices(&[0, 123, 4_567, 11_000]);
    (
        curve.to_csv_deterministic(),
        explorer.sampled_indices().to_vec(),
        probes,
    )
}

/// Exploration under a 10% injected fault rate is bit-for-bit identical at
/// one thread, four threads, and auto parallelism: same sampled indices,
/// same learning curve, same predictions.
#[test]
fn faulted_exploration_is_deterministic_across_parallelism() {
    let (csv_1, indices_1, probes_1) = run_curve(Parallelism::Fixed(1));
    for parallelism in [Parallelism::Fixed(4), Parallelism::Auto] {
        let (csv, indices, probes) = run_curve(parallelism);
        assert_eq!(csv_1, csv, "curve diverged at {parallelism:?}");
        assert_eq!(indices_1, indices, "samples diverged at {parallelism:?}");
        let bits = |p: &[f64]| -> Vec<u64> { p.iter().map(|x| x.to_bits()).collect() };
        assert_eq!(
            bits(&probes_1),
            bits(&probes),
            "predictions diverged at {parallelism:?}"
        );
    }
}

/// A checkpointed run killed between rounds and resumed from disk replays
/// into the byte-for-byte identical learning curve, and each round still
/// reaches its full budget despite quarantined points.
#[test]
fn killed_run_resumes_into_identical_curve() {
    let space = Study::MemorySystem.space();
    let parallelism = Parallelism::Fixed(2);
    let dir = std::env::temp_dir().join(format!("archpredict_fault_resume_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let uninterrupted = {
        let oracle = stack(&space, default_plan(), parallelism);
        let mut explorer = Explorer::new(&space, &oracle, faulted_config(parallelism));
        explorer.run();
        for (round_number, round) in explorer.history().iter().enumerate() {
            assert_eq!(
                round.samples,
                25 * (round_number + 1),
                "round {round_number} fell short of its budget"
            );
        }
        let mut curve = LearningCurve::new("counting");
        for round in explorer.history() {
            curve.push(round, None);
        }
        curve.to_csv_deterministic()
    };

    {
        let oracle = stack(&space, default_plan(), parallelism);
        let mut explorer = Explorer::new(&space, &oracle, faulted_config(parallelism));
        explorer.enable_checkpoints(&dir);
        explorer.try_step().expect("round 1");
        // Killed here: the explorer (and its oracle, cache and quarantine)
        // is dropped without any shutdown path.
    }

    let oracle = stack(&space, default_plan(), parallelism);
    let mut resumed = Explorer::resume(&space, &oracle, faulted_config(parallelism), &dir)
        .expect("resume from checkpoint");
    assert_eq!(resumed.samples(), 25);
    resumed.try_run().expect("finish the study");
    let mut curve = LearningCurve::new("counting");
    for round in resumed.history() {
        curve.push(round, None);
    }
    assert_eq!(uninterrupted, curve.to_csv_deterministic());
    std::fs::remove_dir_all(&dir).expect("clean up checkpoint dir");
}

fn crossapp_run(parallelism: Parallelism) -> (CrossAppModel, String, Vec<u64>) {
    let space = Study::MemorySystem.space();
    // A 30% fault rate (distinct schedule per app) forces the pooled
    // sampler through its quarantine-and-resample loop.
    let fault = |seed: u64| fault::mixed(0.3, seed);
    let evaluators = vec![
        (Benchmark::Gzip, stack(&space, fault(0xA9_01), parallelism)),
        (Benchmark::Mcf, stack(&space, fault(0xA9_02), parallelism)),
    ];
    let train = TrainConfig {
        max_epochs: 25,
        patience: 8,
        parallelism,
        ..TrainConfig::default()
    };
    let model = CrossAppModel::fit(&space, &evaluators, 40, &train, 0xCA_FA17);
    let mut curve = LearningCurve::new("crossapp-faulted");
    curve.push(&model.round(), None);
    let probes: Vec<u64> = model
        .predict_indices(&space, &[0, 123, 4_567], Benchmark::Mcf, parallelism)
        .iter()
        .map(|p| p.to_bits())
        .collect();
    (model, curve.to_csv_deterministic(), probes)
}

/// A pooled cross-application fit under a 30% injected fault rate still
/// fills every application's quota (the resample loop fires), records the
/// faults in its telemetry, and is bit-for-bit identical at one thread,
/// four threads, and auto parallelism.
#[test]
fn faulted_crossapp_fit_is_deterministic_across_parallelism() {
    let (model, csv_1, probes_1) = crossapp_run(Parallelism::Fixed(1));
    assert_eq!(model.samples, 80, "both apps reach their quota");
    assert!(
        model.simulation.failures > 0 && model.simulation.retries > 0,
        "fault schedule never fired: {:?}",
        model.simulation
    );
    assert!(
        model.simulation.resampled > 0,
        "resample loop never exercised: {:?}",
        model.simulation
    );
    for parallelism in [Parallelism::Fixed(4), Parallelism::Auto] {
        let (_, csv, probes) = crossapp_run(parallelism);
        assert_eq!(csv_1, csv, "curve diverged at {parallelism:?}");
        assert_eq!(probes_1, probes, "predictions diverged at {parallelism:?}");
    }
}
