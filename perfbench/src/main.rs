//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!  --work <dir> --served <archpredict-served>`
//!
//! Runs one workload of the repository benchmark, checks the program's
//! outputs, and prints one JSON result as the last line of stdout: every
//! end-to-end metric untraced (`--trace 0`), every per-layer metric from
//! a traced run (`--trace 1`). `run.sh` builds the program and supplies
//! `--work` and `--served`. See `BENCHMARK.json` for the workloads.

use archpredict::simulate::{Oracle, SimStats};
use archpredict::studies::Study;
use perfbench::campaign::{self, OracleTotals, Plan, StudyOracle, TimedOracle, APP};
use perfbench::loadgen::{self, Kind};
use perfbench::serving::{self, Shape, StepResult};
use perfbench::spans::{self, Tracer};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::Instant;

/// Training points per study whose simulation is re-run as a
/// trace/engine split.
const SPLIT_POINTS: usize = 4;
/// Registry loads timed for `registry.get_ms`.
const GETS: usize = 5;
/// Local full-space sweeps timed for `infer.sweep_ms`.
const SWEEPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: PathBuf,
    served: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut work, mut served) =
        (None, None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| "--seconds takes a number")?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            "--work" => work = Some(PathBuf::from(value)),
            "--served" => served = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        work: work.ok_or("--work is required")?,
        served: served.ok_or("--served is required")?,
    })
}

/// Share of `--seconds` the campaign phase is sized to.
const CAMPAIGN_SHARE: f64 = 0.4;
/// Share of `--seconds` the serving phase searches for the highest rate
/// meeting the latency limit; its fixed steps take most of the rest.
const SEARCH_SHARE: f64 = 0.45;

/// The campaign plan and ladder shape of each workload, sized from
/// `--seconds`. Both workloads run the same serving ladder against the
/// memory-study model their campaigns committed.
fn plan(workload: &str, seconds: f64) -> Result<(Plan, Shape), String> {
    // A short lowest step keeps its tail percentile (p91 at 40 s) clear
    // of the host's occasional stalls; the light steps are longer, to
    // pool enough sweeps.
    let count = |per_second: f64| (per_second * seconds).round() as usize;
    let shape = Shape {
        base_count: count(3.0),
        light_count: count(5.0),
        step_count: count(3.0),
        search_seconds: SEARCH_SHARE * seconds,
    };
    let reps = |nominal: f64| ((CAMPAIGN_SHARE * seconds / nominal).round() as usize).max(1);
    let plan = match workload {
        // Cold: a fresh cache per campaign, so simulation dominates. A
        // repetition (one campaign per study) takes ~9 s on 2 cores.
        "campaign_sim" => Plan {
            studies: Study::ALL.to_vec(),
            samples: 150,
            batch: 50,
            held_out: 60,
            warm: false,
            reps: reps(9.0),
            vary_seed: true,
        },
        // Warm: set-up simulates every point the campaigns evaluate, so
        // fitting dominates the timed campaigns, which repeat one seed.
        // With one model per study per run, true error is measured on
        // three times the held-out points to keep the figure steady; the
        // warm cache keeps them out of the timed phase. A repetition
        // takes ~1.7 s on 2 cores; six span enough of the host's speed
        // drift for a steady median.
        "campaign_fit" => Plan {
            studies: Study::ALL.to_vec(),
            samples: 300,
            batch: 50,
            held_out: 180,
            warm: true,
            reps: reps(2.7),
            vary_seed: false,
        },
        other => return Err(format!("unknown workload {other:?}")),
    };
    Ok((plan, shape))
}

/// Operation counts: every oracle evaluation, campaign round and commit,
/// daemon set-up and request.
#[derive(Debug, Default, Clone, Copy)]
struct Ops {
    attempted: u64,
    failed: u64,
}

impl Ops {
    fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// The campaign phase's outcome.
struct CampaignPhase {
    /// Campaign seconds per repetition (summed over its studies).
    rep_seconds: Vec<f64>,
    /// The same, for the untraced twin of each repetition (traced runs).
    untraced_rep_seconds: Vec<f64>,
    /// Every campaign, in run order.
    outcomes: Vec<campaign::Outcome>,
    /// Oracle work through the benchmark's wrapper.
    totals: OracleTotals,
    /// Seconds of each repetition's set-up (fresh caches and registry).
    rep_setup: Vec<f64>,
    /// Per study: the split sample and the oracle's IPC for each point.
    samples: Vec<(Study, Vec<(usize, f64)>)>,
    /// Registry of the last repetition.
    root: PathBuf,
    /// Peak resident set of this process through the phase, MB.
    rss_mb: f64,
}

/// One repetition: a campaign per study, each with a fresh registry and,
/// unless the plan is warm, a fresh oracle cache.
struct Rep {
    /// Seconds creating the caches and registry.
    setup: f64,
    /// Campaign seconds, summed over the studies.
    seconds: f64,
    /// One campaign per study.
    outcomes: Vec<campaign::Outcome>,
    /// Per study: the split sample and the oracle's IPC for each point.
    samples: Vec<(Study, Vec<(usize, f64)>)>,
}

#[allow(clippy::too_many_arguments)]
fn run_rep(
    plan: &Plan,
    seed: u64,
    rep: usize,
    warm: &[StudyOracle],
    root: &Path,
    tracer: &Tracer,
    totals: &Mutex<OracleTotals>,
) -> Result<Rep, String> {
    let started = Instant::now();
    let config = campaign::config(plan, campaign::rep_seed(seed, rep, plan.vary_seed));
    let registry = campaign::fresh_registry(root)?;
    let fresh: Vec<StudyOracle> = if plan.warm {
        Vec::new()
    } else {
        plan.studies.iter().map(|s| s.oracle(APP)).collect()
    };
    let spaces: Vec<_> = plan.studies.iter().map(|s| s.space()).collect();
    let mut out = Rep {
        setup: started.elapsed().as_secs_f64(),
        seconds: 0.0,
        outcomes: Vec::new(),
        samples: Vec::new(),
    };
    for (i, &study) in plan.studies.iter().enumerate() {
        let oracle = if plan.warm { &warm[i] } else { &fresh[i] };
        let spec = campaign::spec(study, config.clone());
        let timed = TimedOracle::new(oracle, tracer, totals);
        let outcome = {
            let _root = tracer.span("bench.campaign");
            campaign::run(&spec, &spaces[i], &timed, plan.held_out, &registry, tracer)?
        };
        out.seconds += outcome.seconds;
        if rep == 0 {
            let cached = oracle.snapshot();
            let sample = outcome.sampled[..SPLIT_POINTS]
                .iter()
                .map(|&p| (p, cached.get(&p).copied().unwrap_or(f64::NAN)))
                .collect();
            out.samples.push((study, sample));
        }
        out.outcomes.push(outcome);
    }
    Ok(out)
}

/// Runs the plan's repetitions. With `paired`, each repetition first runs
/// untraced on the same inputs, so the tracing overhead compares like
/// with like at nearly the same moment.
fn campaign_phase(
    plan: &Plan,
    seed: u64,
    warm: &[StudyOracle],
    work: &Path,
    tracer: &Tracer,
    paired: bool,
) -> Result<CampaignPhase, String> {
    let totals = Mutex::new(OracleTotals::default());
    let mut phase = CampaignPhase {
        rep_seconds: Vec::new(),
        untraced_rep_seconds: Vec::new(),
        outcomes: Vec::new(),
        totals: OracleTotals::default(),
        rep_setup: Vec::new(),
        samples: Vec::new(),
        root: PathBuf::new(),
        rss_mb: f64::NAN,
    };
    for rep in 0..plan.reps {
        if paired {
            let root = work.join(format!("registry-{rep}-untraced"));
            let untraced = Tracer::new(false);
            let scratch = Mutex::new(OracleTotals::default());
            let baseline = run_rep(plan, seed, rep, warm, &root, &untraced, &scratch)?;
            phase.untraced_rep_seconds.push(baseline.seconds);
        }
        let root = work.join(format!("registry-{rep}"));
        let done = run_rep(plan, seed, rep, warm, &root, tracer, &totals)?;
        phase.rep_setup.push(done.setup);
        phase.rep_seconds.push(done.seconds);
        phase.samples.extend(done.samples);
        phase.outcomes.extend(done.outcomes);
        phase.root = root;
    }
    phase.totals = *totals.lock().expect("oracle totals poisoned");
    phase.rss_mb = serving::peak_rss_mb("self").unwrap_or(f64::NAN);
    Ok(phase)
}

/// The serving phase's outcome.
struct ServePhase {
    setups: Vec<f64>,
    /// The steps that always run: the lowest rate, then the light rates.
    fixed: Vec<StepResult>,
    /// The search's steps, in run order.
    search: Vec<StepResult>,
    stats_delta: BTreeMap<String, f64>,
    metrics_delta: BTreeMap<String, f64>,
    daemon_rss_mb: f64,
}

fn serve_phase(
    args: &Args,
    spec: &archpredict::registry::StudyFitSpec,
    root: &Path,
    shape: Shape,
    tracer: &Tracer,
) -> Result<ServePhase, String> {
    let mut setups = Vec::new();
    let mut daemon = None;
    for _ in 0..serving::SETUPS {
        let _span = tracer.span("bench.setup");
        let started = serving::start(&args.served, root, spec)?;
        setups.push(started.seconds);
        daemon = Some(started.daemon);
    }
    let mut daemon = daemon.ok_or("no daemon started")?;
    let addr = daemon.addr();
    let size = spec.study.space().size();
    let stats_before = serving::stats(addr)?;
    let metrics_before = serving::metrics(addr)?;
    // The daemon's peak memory is read after the always-run steps, before
    // the search, whose rates vary from run to run.
    let fixed = serving::run_ladder(
        addr,
        spec,
        serving::ladder(args.seed, shape, size),
        size,
        tracer,
    );
    let daemon_rss_mb = serving::peak_rss_mb(&daemon.pid().to_string()).unwrap_or(f64::NAN);
    // The traced run reports no serving rate, so it skips the search.
    let search = if args.trace {
        Vec::new()
    } else {
        serving::run_search(addr, spec, args.seed, shape, size, tracer)
    };
    let delta = |after: BTreeMap<String, f64>, before: &BTreeMap<String, f64>| {
        after
            .into_iter()
            .map(|(k, v)| {
                let was = before.get(&k).copied().unwrap_or(0.0);
                (k, v - was)
            })
            .collect()
    };
    let stats_delta = delta(serving::stats(addr)?, &stats_before);
    let metrics_delta = delta(serving::metrics(addr)?, &metrics_before);
    loadgen::http_post(addr, "/shutdown", "")?;
    let status = daemon.wait().map_err(|e| format!("reap daemon: {e}"))?;
    if !status.success() {
        return Err(format!("daemon exited {status} after shutdown"));
    }
    Ok(ServePhase {
        setups,
        fixed,
        search,
        stats_delta,
        metrics_delta,
        daemon_rss_mb,
    })
}

/// Warms one oracle per study with every point the workload's campaigns
/// evaluate; returns the oracles and the seconds taken.
fn warm_up(plan: &Plan, seed: u64, tracer: &Tracer) -> Result<(Vec<StudyOracle>, f64), String> {
    if !plan.warm {
        return Ok((Vec::new(), 0.0));
    }
    let _span = tracer.span("bench.setup");
    let started = Instant::now();
    let config = campaign::config(plan, campaign::rep_seed(seed, 0, plan.vary_seed));
    let mut oracles = Vec::new();
    for &study in &plan.studies {
        let oracle = study.oracle(APP);
        let space = study.space();
        let points = campaign::campaign_points(&space, &config, plan.held_out);
        let mut stats = SimStats::default();
        let results = {
            let _span = tracer.span("simulate.warmup");
            oracle.evaluate_batch(&space, &points, &mut stats)
        };
        if results.iter().any(Result::is_err) {
            return Err(format!("{study}: warm-up simulation failed"));
        }
        oracles.push(oracle);
    }
    Ok((oracles, started.elapsed().as_secs_f64()))
}

/// Result lines: metric name → (value, unit).
type Metrics = Vec<(String, f64, &'static str)>;

struct Checks {
    failures: Vec<String>,
}

impl Checks {
    fn require(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.failures.push(what.into());
        }
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let (plan, shape) = plan(&args.workload, args.seconds)?;
    if !args.served.is_file() {
        return Err(format!("no daemon binary at {}", args.served.display()));
    }
    let work = args
        .work
        .join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let result = measure(&args, &plan, shape, &work);
    let _ = std::fs::remove_dir_all(&work);
    let (metrics, ops, checks) = result?;
    for failure in &checks.failures {
        eprintln!("perfbench: CHECK FAILED: {failure}");
    }
    let correct = checks.failures.is_empty();
    let mut json = String::new();
    for (name, value, unit) in &metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        if !json.is_empty() {
            json.push_str(", ");
        }
        json.push_str(&format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        ops.attempted, ops.failed
    );
    Ok(correct)
}

fn measure(
    args: &Args,
    plan: &Plan,
    shape: Shape,
    work: &Path,
) -> Result<(Metrics, Ops, Checks), String> {
    let mut checks = Checks {
        failures: Vec::new(),
    };
    let mut ops = Ops::default();
    let tracer = Tracer::new(args.trace);

    let (warm, warmup_seconds) = warm_up(plan, args.seed, &tracer)?;
    let phase = campaign_phase(plan, args.seed, &warm, work, &tracer, args.trace)?;
    let serve_spec = {
        let last = plan.reps - 1;
        let config = campaign::config(plan, campaign::rep_seed(args.seed, last, plan.vary_seed));
        campaign::spec(Study::MemorySystem, config)
    };
    let serve = serve_phase(args, &serve_spec, &phase.root, shape, &tracer)?;

    // Checks.
    let local = {
        let _span = tracer.span("registry.get");
        serving::load_local(&phase.root, &serve_spec)?
    };
    let (compared, differing) = serving::check_served(&local, &serve_spec, &serve.fixed)?;
    checks.require(compared > 0, "no served predictions were compared");
    checks.require(
        differing == 0,
        format!("{differing} of {compared} served predictions differ from local inference"),
    );
    let mut split = campaign::Split::default();
    for (study, sample) in &phase.samples {
        let evaluator = archpredict::simulate::StudyEvaluator::new(*study, APP);
        let reference: BTreeMap<usize, f64> = sample.iter().copied().collect();
        let indices: Vec<usize> = sample.iter().map(|s| s.0).collect();
        campaign::split(
            *study,
            &evaluator,
            &indices,
            &|i| reference.get(&i).copied(),
            &tracer,
            &mut split,
        );
    }
    checks.require(
        split.mismatches == 0,
        format!(
            "trace/engine split IPC differs from the evaluator on {} of {} points",
            split.mismatches, split.points
        ),
    );
    if plan.warm {
        checks.require(
            phase.totals.stats.unique_simulations == 0,
            format!(
                "warm campaigns simulated {} points",
                phase.totals.stats.unique_simulations
            ),
        );
    }
    if !plan.vary_seed {
        let per_rep = plan.studies.len();
        let first: Vec<u64> = phase.outcomes[..per_rep]
            .iter()
            .map(|o| o.prediction_digest)
            .collect();
        for rep in phase.outcomes.chunks(per_rep) {
            let digests: Vec<u64> = rep.iter().map(|o| o.prediction_digest).collect();
            checks.require(digests == first, "repeated campaigns predicted differently");
        }
    }
    println!("digest sim_results {:016x}", split.digest);
    for o in &phase.outcomes[phase.outcomes.len() - plan.studies.len()..] {
        println!(
            "digest predictions.{} {:016x}",
            o.study, o.prediction_digest
        );
    }

    // Operations.
    let t = &phase.totals.stats;
    ops.add(t.evaluations() + t.failures, t.failures);
    let rounds: usize = phase.outcomes.iter().map(|o| o.rounds.len()).sum();
    ops.add((rounds + phase.outcomes.len()) as u64, 0);
    ops.add(serve.setups.len() as u64, 0);
    let mut fixed = ops;
    for step in &serve.fixed {
        fixed.add(step.outcomes.len() as u64, step.failures() as u64);
    }
    ops = fixed;
    for step in &serve.search {
        ops.add(step.outcomes.len() as u64, step.failures() as u64);
    }

    report(&serve, &phase);
    let metrics = if args.trace {
        per_layer(
            &tracer,
            &phase,
            &serve,
            &split,
            &local,
            &serve_spec,
            &phase.root,
        )?
    } else {
        end_to_end(&phase, &serve, warmup_seconds, fixed)
    };
    if args.trace {
        let path = work
            .parent()
            .unwrap_or(work)
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        tracer
            .write_jsonl(&path, &args.workload)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!("perfbench: spans written to {}", path.display());
    }
    Ok((metrics, ops, checks))
}

/// Latencies of `kind` over `steps`.
fn pooled(steps: &[StepResult], kind: Kind) -> Vec<f64> {
    steps.iter().flat_map(|s| s.latencies(kind)).collect()
}

/// The highest rate meeting the latency limit, from the search.
fn max_rate(serve: &ServePhase) -> f64 {
    let search: Vec<(f64, bool)> = serve.search.iter().map(|s| (s.rate(), s.met())).collect();
    serving::max_rate(&search)
}

fn tail_value(samples: &[f64]) -> f64 {
    loadgen::tail(samples, serving::TAIL_BEYOND).map_or(f64::NAN, |t| t.1.min(1e9))
}

fn end_to_end(
    phase: &CampaignPhase,
    serve: &ServePhase,
    warmup_seconds: f64,
    fixed: Ops,
) -> Metrics {
    let base = &serve.fixed[0];
    let small = base.latencies(Kind::Small);
    let sweeps = pooled(&serve.fixed, Kind::Sweep);
    // Geometric mean, so each study weighs by its relative error.
    let true_error = (phase
        .outcomes
        .iter()
        .map(|o| o.true_error.ln())
        .sum::<f64>()
        / phase.outcomes.len() as f64)
        .exp();
    let setup = warmup_seconds + loadgen::median(&phase.rep_setup) + loadgen::median(&serve.setups);
    eprintln!(
        "peak rss: benchmark through the campaigns {:.1} MB, daemon {:.1} MB",
        phase.rss_mb, serve.daemon_rss_mb
    );
    vec![
        ("setup_s".into(), setup, "s"),
        (
            "peak_rss_mb".into(),
            phase.rss_mb + serve.daemon_rss_mb,
            "MB",
        ),
        (
            "error_rate".into(),
            (fixed.failed + 1) as f64 / (fixed.attempted + 1) as f64,
            "ratio",
        ),
        (
            "campaign_s".into(),
            loadgen::median(&phase.rep_seconds),
            "s",
        ),
        ("true_error_pct".into(), true_error, "%"),
        ("predict_p50_ms".into(), loadgen::median(&small), "ms"),
        ("predict_tail_ms".into(), tail_value(&small), "ms"),
        ("sweep_p50_ms".into(), loadgen::median(&sweeps), "ms"),
        ("sweep_tail_ms".into(), tail_value(&sweeps), "ms"),
        ("max_rate_rps".into(), max_rate(serve), "req/s"),
    ]
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    tracer: &Tracer,
    phase: &CampaignPhase,
    serve: &ServePhase,
    split: &campaign::Split,
    local: &archpredict_ann::Ensemble,
    spec: &archpredict::registry::StudyFitSpec,
    root: &Path,
) -> Result<Metrics, String> {
    let spans = tracer.spans();
    let mut m: Metrics = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| m.push((name.into(), value, unit));

    put(
        "workloads.trace_mips",
        split.generated as f64 / split.trace_seconds / 1e6,
        "MIPS",
    );
    put(
        "sim.engine_mips",
        split.simulated as f64 / split.engine_seconds / 1e6,
        "MIPS",
    );
    put("sim.instructions", split.instructions as f64, "count");
    put("sim.cycles", split.cycles as f64, "count");

    let t = &phase.totals;
    let evaluations = t.stats.evaluations() as f64;
    put("simulate.batch_s", t.seconds, "s");
    put("simulate.evaluations", evaluations, "count");
    put(
        "simulate.unique_sims",
        t.stats.unique_simulations as f64,
        "count",
    );
    put(
        "simulate.hit_ratio",
        t.stats.cache_hits as f64 / evaluations.max(1.0),
        "ratio",
    );
    put("simulate.failures", t.stats.failures as f64, "count");

    let rounds: Vec<_> = phase.outcomes.iter().flat_map(|o| &o.rounds).collect();
    let fit_s: f64 = rounds.iter().map(|r| r.training_seconds).sum();
    let epochs: usize = rounds.iter().flat_map(|r| &r.folds).map(|f| f.epochs).sum();
    let examples: usize = rounds
        .iter()
        .flat_map(|r| &r.folds)
        .map(|f| f.epochs * f.train_samples)
        .sum();
    let skews: Vec<f64> = rounds
        .iter()
        .filter(|r| !r.folds.is_empty())
        .map(|r| {
            let secs: Vec<f64> = r.folds.iter().map(|f| f.seconds).collect();
            let mean = secs.iter().sum::<f64>() / secs.len() as f64;
            secs.iter().copied().fold(0.0, f64::max) / mean
        })
        .collect();
    put("ann.fit_s", fit_s, "s");
    put("ann.epochs", epochs as f64, "count");
    put("ann.examples_per_s", examples as f64 / fit_s, "1/s");
    put(
        "ann.fold_skew",
        skews.iter().sum::<f64>() / skews.len() as f64,
        "ratio",
    );

    let step_s: f64 = phase.outcomes.iter().map(|o| o.step_seconds).sum();
    let oracle_in_steps: f64 = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "simulate.batch")
        .filter(|(_, s)| s.parent.is_some_and(|p| spans[p].name == "campaign.step"))
        .map(|(_, s)| s.seconds())
        .sum();
    put("campaign.rounds", rounds.len() as f64, "count");
    put("campaign.step_s", step_s, "s");
    put("campaign.self_s", step_s - oracle_in_steps - fit_s, "s");

    let space = spec.study.space();
    let all: Vec<usize> = (0..space.size()).collect();
    let mut sweep_ms = Vec::new();
    for _ in 0..SWEEPS {
        let started = Instant::now();
        let _span = tracer.span("infer.predict");
        std::hint::black_box(archpredict::infer::predict_indices(
            local,
            &space,
            &all,
            archpredict_ann::Parallelism::Auto,
        ));
        sweep_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    let mut small_ms = Vec::new();
    for step in &serve.fixed {
        for indices in step.step.small_indices.iter().take(serving::KEEP_SMALL) {
            let started = Instant::now();
            std::hint::black_box(archpredict::infer::predict_indices(
                local,
                &space,
                indices,
                archpredict_ann::Parallelism::Auto,
            ));
            small_ms.push(started.elapsed().as_secs_f64() * 1e3);
        }
    }
    let sweep = loadgen::median(&sweep_ms);
    let small = loadgen::median(&small_ms);
    put("infer.sweep_ms", sweep, "ms");
    put("infer.small_ms", small, "ms");
    put(
        "infer.points_per_s",
        space.size() as f64 / (sweep / 1e3),
        "1/s",
    );

    let commit: Vec<f64> = phase
        .outcomes
        .iter()
        .map(|o| o.commit_seconds * 1e3)
        .collect();
    let mut get_ms = Vec::new();
    for _ in 0..GETS {
        let started = Instant::now();
        let _span = tracer.span("registry.get");
        serving::load_local(root, spec)?;
        get_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    let object_bytes: u64 = std::fs::read_dir(root.join("objects"))
        .map_err(|e| format!("read registry objects: {e}"))?
        .filter_map(|e| e.ok()?.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .max()
        .unwrap_or(0);
    put("registry.commit_ms", loadgen::median(&commit), "ms");
    put("registry.get_ms", loadgen::median(&get_ms), "ms");
    put("registry.object_kb", object_bytes as f64 / 1024.0, "KB");

    let stat = |k: &str| serve.stats_delta.get(k).copied().unwrap_or(0.0);
    let metric = |k: &str| serve.metrics_delta.get(k).copied().unwrap_or(0.0);
    let hits = stat("model_cache_hits");
    put(
        "serve.coalesce_ratio",
        stat("coalesced_jobs") / stat("predict_batches").max(1.0),
        "ratio",
    );
    put(
        "serve.model_hit_ratio",
        hits / (hits + stat("model_cache_misses")).max(1.0),
        "ratio",
    );
    put("serve.shed", metric("serve.requests_shed"), "count");
    put("serve.errors", metric("serve.errors"), "count");
    let service = |kind: Kind| -> Vec<f64> {
        serve
            .fixed
            .iter()
            .flat_map(|s| &s.outcomes)
            .filter(|o| o.kind == kind)
            .filter_map(|o| o.service_ms)
            .collect()
    };
    put(
        "serve.http_small_ms",
        loadgen::median(&service(Kind::Small)) - small,
        "ms",
    );
    put(
        "serve.http_sweep_ms",
        loadgen::median(&service(Kind::Sweep)) - sweep,
        "ms",
    );

    let base = &serve.fixed[0];
    let late: Vec<f64> = base.outcomes.iter().map(|o| o.late_ms).collect();
    put("loadgen.late_tail_ms", tail_value(&late), "ms");
    put(
        "loadgen.backlog_max",
        base.outcomes.iter().map(|o| o.backlog).max().unwrap_or(0) as f64,
        "count",
    );

    let traced_campaign_s = loadgen::median(&phase.rep_seconds);
    let untraced_campaign_s = loadgen::median(&phase.untraced_rep_seconds);
    put(
        "bench.coverage_pct",
        spans::coverage_pct(&spans, "bench.campaign"),
        "%",
    );
    put(
        "bench.trace_overhead_pct",
        100.0 * (traced_campaign_s / untraced_campaign_s - 1.0),
        "%",
    );
    let by_layer = spans::self_by_layer(&spans, "bench.setup");
    for layer in spans::LAYERS {
        put(
            &format!("self_s.{layer}"),
            by_layer.get(layer).copied().unwrap_or(0.0),
            "s",
        );
    }
    Ok(m)
}

/// A human-readable account of the serving ladder and the campaigns, on
/// stderr.
fn report(serve: &ServePhase, phase: &CampaignPhase) {
    for o in &phase.outcomes {
        eprintln!(
            "campaign {:<9} {:>7.3} s  true error {:.3}%  rounds {}  commit {:.2} ms",
            o.study.name(),
            o.seconds,
            o.true_error,
            o.rounds.len(),
            o.commit_seconds * 1e3
        );
    }
    for step in serve.fixed.iter().chain(&serve.search) {
        let small = step.latencies(Kind::Small);
        let sweep = step.latencies(Kind::Sweep);
        let t = loadgen::tail(&small, serving::TAIL_BEYOND);
        let w = loadgen::tail(&sweep, serving::TAIL_BEYOND);
        eprintln!(
            "rate {:>5} req/s: {:>4} sent, small p50 {:>8.2} ms, tail {}, sweep p50 {:>8.2} ms, tail {}, late end {:.2} ms, excess {:+.4}, failed {}",
            step.rate(),
            step.outcomes.len(),
            loadgen::median(&small),
            t.map_or("n/a".into(), |(p, v)| format!("p{p:.1} {v:.2} ms")),
            loadgen::median(&sweep),
            w.map_or("n/a".into(), |(p, v)| format!("p{p:.1} {v:.2} ms")),
            step.late_end_ms(),
            step.excess(),
            step.failures()
        );
    }
    if !serve.search.is_empty() {
        eprintln!(
            "search: {} steps, highest rate meeting the limit {:.1} req/s",
            serve.search.len(),
            max_rate(serve)
        );
    }
    let sweeps = pooled(&serve.fixed, Kind::Sweep);
    if let Some((p, _)) = loadgen::tail(&sweeps, serving::TAIL_BEYOND) {
        eprintln!(
            "sweep tail percentile over the light rates: p{p:.1} of {}",
            sweeps.len()
        );
    }
    if let Some((p, _)) =
        loadgen::tail(&serve.fixed[0].latencies(Kind::Small), serving::TAIL_BEYOND)
    {
        eprintln!("predict tail percentile at the lowest rate: p{p:.1}");
    }
}
