//! The campaign phase: the cold figure path (trace → simulate → encode →
//! fit → estimate → persist), driven from outside through
//! `Campaign::new`/`step` over the study oracle.

use crate::spans::Tracer;
use archpredict::campaign::{seed_stream, Campaign, CampaignConfig, Round};
use archpredict::infer;
use archpredict::registry::{Registry, StudyFitSpec};
use archpredict::simulate::{CachedEvaluator, Oracle, SimResult, SimStats, StudyEvaluator};
use archpredict::space::DesignSpace;
use archpredict::studies::Study;
use archpredict_ann::Parallelism;
use archpredict_stats::hash::{fnv1a_64_extend, FNV_OFFSET};
use archpredict_stats::json::Value;
use archpredict_stats::rng::Xoshiro256;
use archpredict_stats::sampling::{partial_shuffle, IncrementalSampler};
use archpredict_workloads::{Benchmark, TraceGenerator};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// The application every workload models.
pub const APP: Benchmark = Benchmark::Gzip;

/// What the campaign phase of a workload runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Studies, one campaign each per repetition (in order).
    pub studies: Vec<Study>,
    /// Final training-set size of each campaign.
    pub samples: usize,
    /// Simulations added per round.
    pub batch: usize,
    /// Held-out points each campaign's true error is measured on.
    pub held_out: usize,
    /// Whether set-up warms one shared oracle cache with every point the
    /// campaigns will evaluate (otherwise each campaign gets a fresh,
    /// empty cache).
    pub warm: bool,
    /// Repetitions of the whole set of campaigns.
    pub reps: usize,
    /// Whether each repetition derives its own campaign seed (otherwise
    /// every repetition repeats the first one's campaigns exactly).
    pub vary_seed: bool,
}

/// Campaign seed of repetition `rep` under workload seed `seed`.
pub fn rep_seed(seed: u64, rep: usize, vary: bool) -> u64 {
    let rep = if vary { rep as u64 } else { 0 };
    Xoshiro256::seed_from(seed)
        .derive(0xCA3B_0000 + rep)
        .next_u64()
}

/// The campaign policy every workload campaign runs under: the paper's
/// 10-fold ensembles, run to the sample cap.
pub fn config(plan: &Plan, seed: u64) -> CampaignConfig {
    CampaignConfig {
        batch: plan.batch,
        max_samples: plan.samples,
        target_error: 0.0,
        seed,
        ..CampaignConfig::default()
    }
}

/// Oracle work seen by the benchmark's wrapper, over the timed phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct OracleTotals {
    /// Summed counters of every batch.
    pub stats: SimStats,
    /// Wall seconds inside `evaluate_batch`.
    pub seconds: f64,
}

/// Wraps the study oracle so the benchmark can time `evaluate_batch`.
pub struct TimedOracle<'a, O> {
    inner: &'a O,
    tracer: &'a Tracer,
    totals: &'a Mutex<OracleTotals>,
}

impl<'a, O: Oracle> TimedOracle<'a, O> {
    /// Times every batch `inner` evaluates into `totals`.
    pub fn new(inner: &'a O, tracer: &'a Tracer, totals: &'a Mutex<OracleTotals>) -> Self {
        Self {
            inner,
            tracer,
            totals,
        }
    }
}

impl<O: Oracle> Oracle for TimedOracle<'_, O> {
    fn evaluate_batch(
        &self,
        space: &DesignSpace,
        indices: &[usize],
        stats: &mut SimStats,
    ) -> Vec<SimResult> {
        let _span = self.tracer.span("simulate.batch");
        let started = Instant::now();
        let mut own = SimStats::default();
        let results = self.inner.evaluate_batch(space, indices, &mut own);
        let seconds = started.elapsed().as_secs_f64();
        stats.merge(&own);
        let mut totals = self.totals.lock().expect("oracle totals poisoned");
        totals.stats.merge(&own);
        totals.seconds += seconds;
        results
    }
}

/// The study oracle every campaign uses: full simulation behind a
/// deduplicating in-memory cache.
pub type StudyOracle = CachedEvaluator<StudyEvaluator>;

/// Every point a campaign of `config` over `space` evaluates when no
/// evaluation fails: its training draws, then its `held_out` points (the
/// complement of the training set shuffled by the held-out stream, as
/// `Campaign::held_out_set` draws them).
pub fn campaign_points(
    space: &DesignSpace,
    config: &CampaignConfig,
    held_out: usize,
) -> Vec<usize> {
    let master = Xoshiro256::seed_from(config.seed);
    let mut sampler = IncrementalSampler::new(space.size(), master.derive(seed_stream::SAMPLER));
    let mut trained = Vec::new();
    while trained.len() < config.max_samples {
        let want = config.batch.min(config.max_samples - trained.len());
        trained.extend(sampler.next_batch(want));
    }
    let mut taken = vec![false; space.size()];
    for &i in &trained {
        taken[i] = true;
    }
    let mut complement: Vec<usize> = (0..space.size()).filter(|&i| !taken[i]).collect();
    let mut rng = master.derive(seed_stream::HELD_OUT);
    partial_shuffle(&mut complement, held_out, &mut rng);
    complement.truncate(held_out);
    trained.extend(complement);
    trained
}

/// One finished campaign.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Which study.
    pub study: Study,
    /// Wall seconds from the first round to the registry commit.
    pub seconds: f64,
    /// Seconds of `get_or_fit` outside the fit closure.
    pub commit_seconds: f64,
    /// Seconds inside `Campaign::step`.
    pub step_seconds: f64,
    /// Mean absolute % error on the held-out points.
    pub true_error: f64,
    /// Every round's record.
    pub rounds: Vec<Round>,
    /// Training indices in draw order.
    pub sampled: Vec<usize>,
    /// FNV-1a digest of the full-space predictions' bits.
    pub prediction_digest: u64,
}

/// Runs one campaign of `spec` over `oracle` and commits it to `registry`:
/// every round, true error on `held_out` held-out points, a full-space
/// rank, and the commit, all inside one `Registry::get_or_fit`.
///
/// # Errors
///
/// When a round, the true-error measurement or the commit fails.
pub fn run<O: Oracle>(
    spec: &StudyFitSpec,
    space: &DesignSpace,
    oracle: &O,
    held_out: usize,
    registry: &Registry,
    tracer: &Tracer,
) -> Result<Outcome, String> {
    let mut done: Option<Outcome> = None;
    let started = Instant::now();
    let outcome = {
        let _span = tracer.span("registry.get_or_fit");
        registry.get_or_fit(&spec.key(), spec.fingerprint(), || {
            let _span = tracer.span("campaign.run");
            let closure_started = Instant::now();
            let mut campaign = Campaign::new(space, oracle, spec.config.clone());
            let mut step_seconds = 0.0;
            while campaign.samples() < spec.config.max_samples {
                let _step = tracer.span("campaign.step");
                let step_started = Instant::now();
                let round = campaign.try_step().map_err(|e| e.to_string())?;
                step_seconds += step_started.elapsed().as_secs_f64();
                let fit = std::time::Duration::from_secs_f64(round.training_seconds);
                tracer.record("ann.fit", tracer.clock() - fit.as_secs_f64(), fit);
            }
            let held_out = campaign.held_out_set(held_out);
            let true_error = {
                let _span = tracer.span("campaign.true_error");
                campaign
                    .try_true_error(&held_out)
                    .map_err(|e| e.to_string())?
            };
            let ensemble = campaign.ensemble().ok_or("campaign trained no ensemble")?;
            let all: Vec<usize> = (0..space.size()).collect();
            let predictions = {
                let _span = tracer.span("infer.predict");
                infer::predict_indices(ensemble, space, &all, Parallelism::Auto)
            };
            let mut ranked = all;
            ranked.sort_by(|&a, &b| predictions[b].total_cmp(&predictions[a]));
            let payload = Value::Object(vec![
                ("true_error".into(), Value::num(true_error.mean)),
                ("best_index".into(), Value::num(ranked[0] as f64)),
            ]);
            done = Some(Outcome {
                study: spec.study,
                // The closure's own time; the caller's total replaces it.
                seconds: closure_started.elapsed().as_secs_f64(),
                commit_seconds: 0.0,
                step_seconds,
                true_error: true_error.mean,
                rounds: campaign.history().to_vec(),
                sampled: campaign.sampled_indices().to_vec(),
                prediction_digest: digest_f64(&predictions),
            });
            Ok((ensemble.clone(), payload))
        })
    };
    let seconds = started.elapsed().as_secs_f64();
    let outcome = outcome.map_err(|e| format!("{}: {e}", spec.key()))?;
    if outcome.warm {
        return Err(format!("{}: registry was not fresh", spec.key()));
    }
    let mut done = done.ok_or("fit closure did not run")?;
    done.commit_seconds = seconds - done.seconds;
    done.seconds = seconds;
    Ok(done)
}

/// FNV-1a over the bits of `values`.
pub fn digest_f64(values: &[f64]) -> u64 {
    values.iter().fold(FNV_OFFSET, |h, v| {
        fnv1a_64_extend(h, &v.to_bits().to_le_bytes())
    })
}

/// What the trace/engine split measured over a sample of points.
#[derive(Debug, Default, Clone, Copy)]
pub struct Split {
    /// Instructions generated.
    pub generated: u64,
    /// Seconds generating traces.
    pub trace_seconds: f64,
    /// Instructions committed by the engine (warm-up included).
    pub simulated: u64,
    /// Cycles the engine reported (measured part only).
    pub cycles: u64,
    /// Instructions the engine reported (measured part only).
    pub instructions: u64,
    /// Seconds in `simulate_with_warmup`.
    pub engine_seconds: f64,
    /// FNV-1a over every field of every interval's `SimResult`.
    pub digest: u64,
    /// Points whose IPC differed from the oracle's.
    pub mismatches: usize,
    /// Points measured.
    pub points: usize,
}

/// Instructions generated past each interval's budget, so the engine's
/// fetch-ahead never runs a pre-generated trace dry.
const TRACE_SLACK: u64 = 4_096;

/// Re-runs the study evaluator's work for `indices` in two timed halves —
/// trace generation (`TraceGenerator::interval`) into memory, then the
/// engine (`simulate_with_warmup`) over those traces — and checks that the
/// mean IPC is bit-identical to `reference`, the evaluator's value.
pub fn split(
    study: Study,
    evaluator: &StudyEvaluator,
    indices: &[usize],
    reference: &dyn Fn(usize) -> Option<f64>,
    tracer: &Tracer,
    into: &mut Split,
) {
    let space = evaluator.space();
    let budget = evaluator.budget();
    let generator = TraceGenerator::new(APP);
    let length = (budget.warmup + budget.measured + TRACE_SLACK) as usize;
    for &index in indices {
        let config = study.config_at(space, &space.point(index));
        let mut ipc_sum = 0.0;
        for &interval in &budget.intervals {
            let started = Instant::now();
            let trace: Vec<_> = {
                let _span = tracer.span("workloads.trace");
                generator.interval(interval).take(length).collect()
            };
            into.trace_seconds += started.elapsed().as_secs_f64();
            into.generated += trace.len() as u64;
            let started = Instant::now();
            let result = {
                let _span = tracer.span("sim.engine");
                archpredict_sim::simulate_with_warmup(
                    &config,
                    trace.into_iter(),
                    budget.warmup,
                    budget.measured,
                )
            };
            into.engine_seconds += started.elapsed().as_secs_f64();
            into.simulated += budget.warmup + result.instructions;
            into.instructions += result.instructions;
            into.cycles += result.cycles;
            into.digest = digest_sim(into.digest, &result);
            ipc_sum += result.ipc();
        }
        let ipc = ipc_sum / budget.intervals.len() as f64;
        if reference(index).map(f64::to_bits) != Some(ipc.to_bits()) {
            into.mismatches += 1;
        }
        into.points += 1;
    }
}

fn digest_sim(state: u64, r: &archpredict_sim::SimResult) -> u64 {
    [
        r.instructions,
        r.cycles,
        r.l1i_misses,
        r.l1d_misses,
        r.l2_misses,
        r.branches,
        r.mispredicts,
        r.btb_misses,
        r.l2_bus_busy,
        r.fsb_busy,
        r.fetch_stall_cycles,
        r.icache_stall_cycles,
        r.branch_stall_cycles,
        r.btb_stall_cycles,
    ]
    .iter()
    .fold(state, |h, v| fnv1a_64_extend(h, &v.to_le_bytes()))
}

/// Opens a fresh registry at `dir` (removing whatever was there).
///
/// # Errors
///
/// On filesystem failure.
pub fn fresh_registry(dir: &Path) -> Result<Registry, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    Registry::open(dir).map_err(|e| format!("open registry {}: {e}", dir.display()))
}

/// The fit spec of a workload campaign (the key the daemon serves it by).
pub fn spec(study: Study, config: CampaignConfig) -> StudyFitSpec {
    StudyFitSpec::new(study, APP, config)
}
