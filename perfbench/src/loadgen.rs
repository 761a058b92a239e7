//! The open-loop load generator behind the serving phase.
//!
//! Arrivals follow a seeded schedule that does not wait for the server:
//! each request has a due time, and its latency is timed from that due
//! time, so a stalled server is charged for every request that queued
//! behind the stall. A request that fails (transport error or a non-200
//! status, including `503` load shedding) is recorded as a miss: it
//! counts in the error rate and sorts above every latency in the tail.
//!
//! The generator never runs more sender threads — and so never holds
//! more connections open — than the host has cores.

use archpredict_stats::rng::Xoshiro256;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What one scheduled request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A small `/predict` of a few indices.
    Small,
    /// A `/predict` over the whole design space.
    Sweep,
}

/// One scheduled request: when it is due (offset from the start of its
/// step), what it asks for, and which prepared body it sends.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Due time as an offset from the step's start.
    pub due: Duration,
    /// Small predict or full sweep.
    pub kind: Kind,
    /// Index into the step's small-request bodies (unused for sweeps).
    pub body: usize,
}

/// A fixed-rate step of the load ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// Offered arrival rate, requests per second.
    pub rate: f64,
    /// Arrivals in due order.
    pub arrivals: Vec<Arrival>,
    /// Index lists of the small requests, one per small arrival.
    pub small_indices: Vec<Vec<usize>>,
}

/// Builds one step: `count` arrivals at `rate` requests per second, every
/// `sweep_every`-th of them a sweep (from a seeded phase), and
/// `small_len` seeded indices below `space_size` per small request.
///
/// Arrivals are stratified: one at a seeded offset inside each
/// `1 / rate` slot. Every step therefore offers exactly its rate without
/// the clumps of a Poisson schedule, which would make the tail measure
/// where the schedule happened to bunch requests rather than the daemon.
pub fn build_step(
    rng: &mut Xoshiro256,
    rate: f64,
    count: usize,
    sweep_every: usize,
    small_len: usize,
    space_size: usize,
) -> Step {
    let phase = rng.index(sweep_every);
    let mut arrivals = Vec::with_capacity(count);
    let mut small_indices = Vec::new();
    for i in 0..count {
        let due = Duration::from_secs_f64((i as f64 + rng.next_f64()) / rate);
        let (kind, body) = if i % sweep_every == phase {
            (Kind::Sweep, 0)
        } else {
            small_indices.push((0..small_len).map(|_| rng.index(space_size)).collect());
            (Kind::Small, small_indices.len() - 1)
        };
        arrivals.push(Arrival { due, kind, body });
    }
    Step {
        rate,
        arrivals,
        small_indices,
    }
}

/// Outcome of one request, as the generator saw it.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Small predict or sweep.
    pub kind: Kind,
    /// Milliseconds from the due time to the full response (`None` when
    /// the request failed).
    pub latency_ms: Option<f64>,
    /// Milliseconds from the send to the full response (`None` on
    /// failure): the client-side HTTP time without the queueing delay.
    pub service_ms: Option<f64>,
    /// How late the generator sent it, milliseconds after its due time.
    pub late_ms: f64,
    /// Requests already due but not yet sent when this one was sent.
    pub backlog: usize,
    /// The response body, kept only for the requests `keep` selected.
    pub body: Option<String>,
}

/// Sends one request and returns the response body, or an error for a
/// transport failure or any status other than 200.
pub type Send<'a> = dyn Fn(&Arrival) -> Result<String, String> + Sync + 'a;

/// Runs `step` as an open loop over `senders` threads, each sending one
/// request at a time. `keep(i)` selects the arrivals whose response
/// bodies are returned for checking. Outcomes come back in arrival order.
pub fn run_step(
    step: &Step,
    senders: usize,
    send: &Send<'_>,
    keep: &(dyn Fn(usize) -> bool + Sync),
) -> Vec<Outcome> {
    let next = AtomicUsize::new(0);
    let outcomes: Mutex<Vec<Option<Outcome>>> = Mutex::new(vec![None; step.arrivals.len()]);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..senders.max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some(arrival) = step.arrivals.get(i) else {
                    break;
                };
                let due = start + arrival.due;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let sent = Instant::now();
                let elapsed = sent - start;
                let already_due = step.arrivals.partition_point(|a| a.due <= elapsed);
                let backlog = already_due.saturating_sub(i + 1);
                let result = send(arrival);
                let done = Instant::now();
                let ok = result.is_ok();
                let outcome = Outcome {
                    kind: arrival.kind,
                    latency_ms: ok.then(|| ms(done.saturating_duration_since(due))),
                    service_ms: ok.then(|| ms(done - sent)),
                    late_ms: ms(sent.saturating_duration_since(due)),
                    backlog,
                    body: result.ok().filter(|_| keep(i)),
                };
                outcomes.lock().expect("outcome table poisoned")[i] = Some(outcome);
            });
        }
    });
    outcomes
        .into_inner()
        .expect("outcome table poisoned")
        .into_iter()
        .map(|o| o.expect("every arrival was sent"))
        .collect()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Sends one HTTP/1.1 request to the daemon and returns the body of a 200
/// response; anything else is an error.
pub fn http_post(addr: SocketAddr, path: &str, body: &str) -> Result<String, String> {
    let (status, text) = archpredict::serve::http_request_text(addr, "POST", path, Some(body))?;
    if status == 200 {
        Ok(text)
    } else {
        Err(format!(
            "status {status}: {}",
            text.chars().take(200).collect::<String>()
        ))
    }
}

/// The highest percentile of `samples` with at least `beyond` samples
/// above it, and its value: `Some((percentile, value))`, or `None` when
/// there are not more than `beyond` samples. Failed requests are passed
/// as `f64::INFINITY`, so they sit beyond every finite latency.
///
/// With `n` samples sorted ascending, the value is the one at rank
/// `n - beyond - 1` (0-based), whose percentile is `100 (n - beyond) / n`.
pub fn tail(samples: &[f64], beyond: usize) -> Option<(f64, f64)> {
    let n = samples.len();
    if n <= beyond {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = n - beyond - 1;
    Some((100.0 * (n - beyond) as f64 / n as f64, sorted[rank]))
}

/// Median of `samples` (mean of the middle pair for even counts);
/// `NaN` for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}
