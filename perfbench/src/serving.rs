//! The serving phase: the real `archpredict-served` daemon, started
//! through `archpredict_bench::Daemon` with only `--addr` and `--root`,
//! serving the memory-study model the campaign phase committed, under an
//! open-loop ladder of fixed arrival rates.

use crate::loadgen::{self, Arrival, Kind, Outcome, Step};
use crate::spans::Tracer;
use archpredict::infer;
use archpredict::registry::{Registry, StudyFitSpec};
use archpredict::serve::http_request_text;
use archpredict_ann::{Ensemble, Parallelism};
use archpredict_bench::Daemon;
use archpredict_stats::json::Value;
use archpredict_stats::rng::Xoshiro256;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Latency limit on the small-predict tail, milliseconds.
pub const LIMIT_MS: f64 = 20.0;
/// Indices per small predict.
pub const SMALL_LEN: usize = 64;
/// One request in this many is a full-space sweep.
pub const SWEEP_EVERY: usize = 20;
/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;
/// The lowest ladder rate, requests per second; the small-predict
/// latencies are measured here. At this rate a sweep is in flight ~5% of
/// the time, so the small-predict tail percentile stays inside the
/// population of predicts that did not overlap one (at 50 req/s the
/// overlapping share, ~12%, straddled it and the tail jumped between
/// the two populations from run to run).
pub const BASE_RATE: f64 = 25.0;
/// The lowest rate of the grid the steps above the lowest one run on.
pub const FIRST_STEP: f64 = 80.0;
/// Each grid rate is this factor above the one before (rounded to 0.1
/// request per second).
pub const STEP_FACTOR: f64 = 1.1;
/// The grid's top rate.
pub const TOP_RATE: f64 = 800.0;
/// The grid rates up to this one always run, with longer steps: their
/// sweeps pool into the sweep latencies. The search starts above it.
pub const LIGHT_RATE: f64 = 100.0;
/// Grid steps the search climbs after a step that met the limit, until
/// its first miss.
pub const COARSE_STRIDE: usize = 2;
/// Small-predict responses per light step checked bit for bit.
pub const KEEP_SMALL: usize = 8;
/// Sweep responses per light step checked bit for bit.
pub const KEEP_SWEEPS: usize = 2;
/// Daemon set-ups per run; set-up time is their median.
pub const SETUPS: usize = 3;

/// The ladder's sizes: requests sent at the lowest rate, at each light
/// rate and in each search step, and how long the search runs. Every
/// search step sends the same number, so its small-predict tail sits at
/// the same percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Requests at the lowest rate.
    pub base_count: usize,
    /// Requests at each grid rate up to [`LIGHT_RATE`].
    pub light_count: usize,
    /// Requests in each search step.
    pub step_count: usize,
    /// Seconds the search runs; the step running when they are up
    /// finishes.
    pub search_seconds: f64,
}

/// The grid: [`FIRST_STEP`] rising geometrically to [`TOP_RATE`].
pub fn grid() -> Vec<f64> {
    (0..)
        .map(|k| (FIRST_STEP * STEP_FACTOR.powi(k) * 10.0).round() / 10.0)
        .take_while(|&r| r <= TOP_RATE)
        .collect()
}

/// The steps that always run, built from the workload seed: the lowest
/// rate, then every grid rate up to [`LIGHT_RATE`].
pub fn ladder(seed: u64, shape: Shape, space_size: usize) -> Vec<Step> {
    let mut rng = Xoshiro256::seed_from(seed).derive(0x5E4E_0000);
    let light = grid().into_iter().take_while(|&r| r <= LIGHT_RATE);
    std::iter::once((BASE_RATE, shape.base_count))
        .chain(light.map(|rate| (rate, shape.light_count)))
        .map(|(rate, count)| {
            loadgen::build_step(&mut rng, rate, count, SWEEP_EVERY, SMALL_LEN, space_size)
        })
        .collect()
}

/// Search step `index`, at `rate`, built from the workload seed: its
/// schedule and index lists depend on the seed, the index and the rate
/// only.
pub fn search_step(seed: u64, index: usize, rate: f64, count: usize, space_size: usize) -> Step {
    let mut rng = Xoshiro256::seed_from(seed).derive(0x5E4E_1000 + index as u64);
    loadgen::build_step(&mut rng, rate, count, SWEEP_EVERY, SMALL_LEN, space_size)
}

/// The search for the highest rate meeting the limit: a staircase on a
/// grid of rates. It climbs [`COARSE_STRIDE`] grid steps after each step
/// that met the limit until one misses it; from then on it moves one
/// grid step up after a step that met the limit and one down after a
/// miss, so it settles around the rate at which a step meets the limit
/// half the time (see [`max_rate`]). It ends once the top rate meets the
/// limit.
#[derive(Debug, Clone)]
pub struct Search {
    grid: Vec<f64>,
    at: usize,
    missed: bool,
    done: bool,
}

impl Search {
    /// A search on `grid` starting at `grid[start]`.
    pub fn new(grid: Vec<f64>, start: usize) -> Self {
        let at = start.min(grid.len().saturating_sub(1));
        let done = grid.is_empty();
        Search {
            grid,
            at,
            missed: false,
            done,
        }
    }

    /// The rate of the next step, or `None` once the top rate met the
    /// limit.
    pub fn next_rate(&self) -> Option<f64> {
        (!self.done).then(|| self.grid[self.at])
    }

    /// Moves on after a step at [`Search::next_rate`] that `met` the limit
    /// or missed it.
    pub fn record(&mut self, met: bool) {
        let top = self.grid.len() - 1;
        if !met {
            self.missed = true;
            self.at = self.at.saturating_sub(1);
        } else if self.at == top {
            self.done = true;
        } else {
            let stride = if self.missed { 1 } else { COARSE_STRIDE };
            self.at = (self.at + stride).min(top);
        }
    }
}

/// Request body of a `/predict` for `indices` on the model `spec` names.
pub fn predict_body(spec: &StudyFitSpec, indices: impl Iterator<Item = usize>) -> String {
    let list: Vec<String> = indices.map(|i| i.to_string()).collect();
    format!(
        r#"{{"study":"{}","app":"{}","seed":"{:x}","budget":{},"indices":[{}]}}"#,
        spec.study.name(),
        spec.benchmark.name(),
        spec.config.seed,
        spec.config.max_samples,
        list.join(",")
    )
}

/// One daemon set-up: spawn, readiness, and the model's warm load.
pub struct Started {
    /// The running daemon.
    pub daemon: Daemon,
    /// Seconds from spawn to the first prediction served.
    pub seconds: f64,
}

/// Spawns the daemon over `root` and warm-loads the model with a
/// one-index prediction.
///
/// # Errors
///
/// When the daemon does not start or the model does not load.
pub fn start(bin: &Path, root: &Path, spec: &StudyFitSpec) -> Result<Started, String> {
    let started = Instant::now();
    let args = vec![
        "--addr".to_owned(),
        "127.0.0.1:0".to_owned(),
        "--root".to_owned(),
        root.display().to_string(),
    ];
    let daemon = Daemon::spawn(&PathBuf::from(bin), &args, None)?;
    loadgen::http_post(daemon.addr(), "/predict", &predict_body(spec, 0..1))?;
    Ok(Started {
        daemon,
        seconds: started.elapsed().as_secs_f64(),
    })
}

/// A finished ladder step.
pub struct StepResult {
    /// The step as scheduled.
    pub step: Step,
    /// Per-request outcomes, in arrival order.
    pub outcomes: Vec<Outcome>,
}

impl StepResult {
    /// Offered rate, requests per second.
    pub fn rate(&self) -> f64 {
        self.step.rate
    }

    /// Due-time latencies of `kind`, failures as infinity.
    pub fn latencies(&self, kind: Kind) -> Vec<f64> {
        self.outcomes
            .iter()
            .filter(|o| o.kind == kind)
            .map(|o| o.latency_ms.unwrap_or(f64::INFINITY))
            .collect()
    }

    /// Mean lateness of the last quarter of sends.
    pub fn late_end_ms(&self) -> f64 {
        let n = self.outcomes.len();
        let last = &self.outcomes[n - n.div_ceil(4)..];
        last.iter().map(|o| o.late_ms).sum::<f64>() / last.len() as f64
    }

    /// Whether the backlog grew through the step: its last quarter of
    /// sends left, on average, later than the latency limit.
    pub fn saturated(&self) -> bool {
        self.late_end_ms() > LIMIT_MS
    }

    /// How far the step is past the limit: the share of small predicts
    /// slower than [`LIMIT_MS`] (failures included) minus the share the
    /// tail may leave beyond it. The small-predict tail meets the limit
    /// exactly when this is at most 0. A step whose backlog grew counts as
    /// every request missing.
    pub fn excess(&self) -> f64 {
        let small = self.latencies(Kind::Small);
        let n = small.len().max(1) as f64;
        let allowed = TAIL_BEYOND as f64 / n;
        if self.saturated() {
            return 1.0 - allowed;
        }
        small.iter().filter(|&&l| l > LIMIT_MS).count() as f64 / n - allowed
    }

    /// Whether the step met the limit: its small-predict tail stayed
    /// within [`LIMIT_MS`] and its backlog did not grow.
    pub fn met(&self) -> bool {
        self.excess() <= 0.0
    }

    /// Requests that failed.
    pub fn failures(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.latency_ms.is_none())
            .count()
    }
}

/// The highest rate meeting the limit, from the search's steps in run
/// order as `(rate, met)`: the geometric mean of the step rates from the
/// search's first miss on, the rate its staircase settled around.
///
/// Near the limit whether one step meets it depends on the sweeps it
/// happened to meet and on the host: a step at a rate that meets it half
/// the time ranges from well inside the limit to past it. The staircase
/// turns that into the rate at which a step meets the limit half the
/// time, and averaging every step it took after finding the limit spans
/// the host's slow and fast spells instead of ending on one. A search
/// that never missed reports the highest rate it reached.
pub fn max_rate(search: &[(f64, bool)]) -> f64 {
    let Some(first_miss) = search.iter().position(|&(_, met)| !met) else {
        return search.iter().map(|s| s.0).fold(0.0, f64::max);
    };
    let settled = &search[first_miss..];
    let mean_log = settled.iter().map(|s| s.0.ln()).sum::<f64>() / settled.len() as f64;
    mean_log.exp()
}

/// Runs the fixed `steps` against `addr` in order. The first
/// [`KEEP_SMALL`] small responses and [`KEEP_SWEEPS`] sweeps of every
/// step are kept for the bit-identity check.
pub fn run_ladder(
    addr: SocketAddr,
    spec: &StudyFitSpec,
    steps: Vec<Step>,
    space_size: usize,
    tracer: &Tracer,
) -> Vec<StepResult> {
    let sweep_body = predict_body(spec, 0..space_size);
    steps
        .into_iter()
        .map(|step| {
            let kept = keep_first(&step.arrivals, KEEP_SMALL, KEEP_SWEEPS);
            run_one(addr, spec, step, &sweep_body, &|i| kept[i], tracer)
        })
        .collect()
}

/// Runs the [`Search`] against `addr` from the first grid rate above
/// [`LIGHT_RATE`], each step built by [`search_step`] from `seed`, until
/// `shape.search_seconds` have passed or the top rate met the limit.
pub fn run_search(
    addr: SocketAddr,
    spec: &StudyFitSpec,
    seed: u64,
    shape: Shape,
    space_size: usize,
    tracer: &Tracer,
) -> Vec<StepResult> {
    let grid = grid();
    let start = grid.partition_point(|&r| r <= LIGHT_RATE);
    let mut search = Search::new(grid, start);
    let sweep_body = predict_body(spec, 0..space_size);
    let started = Instant::now();
    let mut results: Vec<StepResult> = Vec::new();
    while started.elapsed().as_secs_f64() < shape.search_seconds {
        let Some(rate) = search.next_rate() else {
            break;
        };
        let step = search_step(seed, results.len(), rate, shape.step_count, space_size);
        let result = run_one(addr, spec, step, &sweep_body, &|_| false, tracer);
        search.record(result.met());
        results.push(result);
    }
    results
}

/// Runs one step over at most `nproc` senders, keeping the response
/// bodies `keep` selects.
fn run_one(
    addr: SocketAddr,
    spec: &StudyFitSpec,
    step: Step,
    sweep_body: &str,
    keep: &(dyn Fn(usize) -> bool + Sync),
    tracer: &Tracer,
) -> StepResult {
    let senders = std::thread::available_parallelism().map_or(1, |n| n.get());
    let bodies: Vec<String> = step
        .small_indices
        .iter()
        .map(|ix| predict_body(spec, ix.iter().copied()))
        .collect();
    let send = |a: &Arrival| -> Result<String, String> {
        let _span = tracer.span("serve.http");
        match a.kind {
            Kind::Sweep => loadgen::http_post(addr, "/predict", sweep_body),
            Kind::Small => loadgen::http_post(addr, "/predict", &bodies[a.body]),
        }
    };
    let outcomes = loadgen::run_step(&step, senders, &send, keep);
    StepResult { step, outcomes }
}

/// Marks the first `smalls` small predicts and the first `sweeps` sweeps.
fn keep_first(arrivals: &[Arrival], smalls: usize, sweeps: usize) -> Vec<bool> {
    let (mut small, mut sweep) = (0, 0);
    arrivals
        .iter()
        .map(|a| {
            let (seen, limit) = match a.kind {
                Kind::Small => (&mut small, smalls),
                Kind::Sweep => (&mut sweep, sweeps),
            };
            *seen += 1;
            *seen <= limit
        })
        .collect()
}

/// Compares every kept response with local inference over the registry
/// artifact; returns how many predictions were compared and how many
/// differed in any bit.
///
/// # Errors
///
/// When a kept body is not a prediction response.
pub fn check_served(
    ensemble: &Ensemble,
    spec: &StudyFitSpec,
    results: &[StepResult],
) -> Result<(usize, usize), String> {
    let space = spec.study.space();
    let all: Vec<usize> = (0..space.size()).collect();
    let full = infer::predict_indices(ensemble, &space, &all, Parallelism::Auto);
    let (mut compared, mut differing) = (0, 0);
    for result in results {
        for (arrival, outcome) in result.step.arrivals.iter().zip(&result.outcomes) {
            let Some(body) = &outcome.body else { continue };
            let served = parse_predictions(body)?;
            let local = match arrival.kind {
                Kind::Sweep => full.clone(),
                Kind::Small => {
                    let indices = &result.step.small_indices[arrival.body];
                    infer::predict_indices(ensemble, &space, indices, Parallelism::Auto)
                }
            };
            if served.len() != local.len() {
                return Err(format!(
                    "served {} predictions for {} indices",
                    served.len(),
                    local.len()
                ));
            }
            compared += local.len();
            differing += served
                .iter()
                .zip(&local)
                .filter(|(s, l)| s.to_bits() != l.to_bits())
                .count();
        }
    }
    Ok((compared, differing))
}

fn parse_predictions(body: &str) -> Result<Vec<f64>, String> {
    let value = Value::parse(body).map_err(|e| format!("response not JSON: {e}"))?;
    value
        .get("predictions")
        .and_then(|p| p.as_array().map(<[Value]>::to_vec))
        .map_err(|e| format!("response has no predictions: {e}"))?
        .iter()
        .map(|v| v.as_f64().map_err(|e| e.to_string()))
        .collect()
}

/// `GET /stats` counters as numbers.
///
/// # Errors
///
/// On transport failure or a malformed body.
pub fn stats(addr: SocketAddr) -> Result<BTreeMap<String, f64>, String> {
    let (status, text) = http_request_text(addr, "GET", "/stats", None)?;
    if status != 200 {
        return Err(format!("/stats answered {status}"));
    }
    let value = Value::parse(&text).map_err(|e| e.to_string())?;
    let Value::Object(fields) = value else {
        return Err("/stats is not an object".into());
    };
    Ok(fields
        .into_iter()
        .filter_map(|(k, v)| v.as_f64().ok().map(|v| (k, v)))
        .collect())
}

/// `GET /metrics` counters.
///
/// # Errors
///
/// On transport failure or a malformed scrape.
pub fn metrics(addr: SocketAddr) -> Result<BTreeMap<String, f64>, String> {
    let (status, text) = http_request_text(addr, "GET", "/metrics", None)?;
    if status != 200 {
        return Err(format!("/metrics answered {status}"));
    }
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .map(|line| {
            let (name, value) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("malformed metrics line {line:?}"))?;
            let value = value
                .parse()
                .map_err(|_| format!("non-numeric metrics line {line:?}"))?;
            Ok((name.to_owned(), value))
        })
        .collect()
}

/// Loads the served model's artifact straight from the registry.
///
/// # Errors
///
/// When the registry cannot be read or holds no such model.
pub fn load_local(root: &Path, spec: &StudyFitSpec) -> Result<Ensemble, String> {
    let registry = Registry::open(root).map_err(|e| e.to_string())?;
    registry
        .get(&spec.key(), spec.fingerprint())
        .map_err(|e| e.to_string())?
        .map(|o| o.model)
        .ok_or_else(|| format!("registry has no {}", spec.key()))
}

/// Peak resident set (VmHWM) of process `pid` in MB (`"self"` for this
/// process).
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
