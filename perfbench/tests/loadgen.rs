//! The benchmark's own tests: the tail-percentile helper, seeded inputs,
//! and due-time latency accounting against a stalled fake server.

use perfbench::campaign::{self, Plan};
use perfbench::loadgen::{self, Arrival, Kind, Step};
use perfbench::serving::{self, Shape};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::time::Duration;

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    let samples: Vec<f64> = (1..=100).map(f64::from).collect();
    let (percentile, value) = loadgen::tail(&samples, 10).expect("100 samples have a tail");
    assert_eq!(value, 90.0, "exactly ten samples (91..=100) lie beyond it");
    assert_eq!(percentile, 90.0);
    assert_eq!(samples.iter().filter(|&&s| s > value).count(), 10);

    let (percentile, value) = loadgen::tail(&samples[..11], 10).expect("eleven samples");
    assert_eq!((percentile, value), (100.0 / 11.0, 1.0));
    assert!(
        loadgen::tail(&samples[..10], 10).is_none(),
        "ten samples leave none to report"
    );
}

#[test]
fn tail_ignores_input_order_and_counts_failures_beyond_it() {
    let mut samples: Vec<f64> = (1..=40).rev().map(f64::from).collect();
    samples.extend([f64::INFINITY; 5]);
    // 45 samples: the five failures and five slowest successes lie beyond.
    let (_, value) = loadgen::tail(&samples, 10).expect("tail");
    assert_eq!(value, 35.0);
    samples.extend([f64::INFINITY; 6]);
    let (_, value) = loadgen::tail(&samples, 10).expect("tail");
    assert!(
        value.is_infinite(),
        "eleven failures push the tail past every latency"
    );
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(loadgen::median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(loadgen::median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert!(loadgen::median(&[]).is_nan());
}

const SHAPE: Shape = Shape {
    base_count: 120,
    light_count: 200,
    step_count: 120,
    search_seconds: 1.0,
};

#[test]
fn the_same_seed_gives_the_same_schedule_and_index_lists() {
    let mut a = serving::ladder(7, SHAPE, 23_040);
    let b = serving::ladder(7, SHAPE, 23_040);
    assert_eq!(a, b);
    assert_eq!(
        serving::search_step(7, 3, 150.0, 120, 23_040),
        serving::search_step(7, 3, 150.0, 120, 23_040)
    );
    assert_ne!(
        serving::search_step(7, 3, 150.0, 120, 23_040).arrivals,
        serving::search_step(7, 4, 150.0, 120, 23_040).arrivals,
        "each search step has a schedule of its own"
    );
    let mut c = serving::ladder(8, SHAPE, 23_040);
    assert_eq!(a.len(), c.len());
    a.push(serving::search_step(7, 0, 150.0, 120, 23_040));
    c.push(serving::search_step(8, 0, 150.0, 120, 23_040));
    for (x, y) in a.iter().zip(&c) {
        assert_eq!(
            x.arrivals.len(),
            y.arrivals.len(),
            "counts do not depend on the seed"
        );
        assert_ne!(
            x.arrivals, y.arrivals,
            "a different seed moves the schedule"
        );
        assert_ne!(x.small_indices, y.small_indices);
    }
}

#[test]
fn every_block_of_twenty_requests_holds_exactly_one_sweep() {
    let search = (0..4).map(|i| serving::search_step(3, i, 188.6, 120, 23_040));
    for step in serving::ladder(3, SHAPE, 23_040).into_iter().chain(search) {
        for (i, a) in step.arrivals.iter().enumerate() {
            let slot = a.due.as_secs_f64() * step.rate;
            assert!(
                slot >= i as f64 && slot < (i + 1) as f64,
                "one arrival per slot"
            );
        }
        for block in step.arrivals.chunks(serving::SWEEP_EVERY) {
            let sweeps = block.iter().filter(|a| a.kind == Kind::Sweep).count();
            assert!(sweeps <= 1);
            if block.len() == serving::SWEEP_EVERY {
                assert_eq!(sweeps, 1);
            }
        }
        let smalls = step
            .arrivals
            .iter()
            .filter(|a| a.kind == Kind::Small)
            .count();
        assert_eq!(step.small_indices.len(), smalls);
        assert!(step
            .small_indices
            .iter()
            .all(|ix| ix.len() == serving::SMALL_LEN && ix.iter().all(|&i| i < 23_040)));
    }
}

#[test]
fn campaign_inputs_follow_the_workload_seed() {
    let plan = Plan {
        studies: vec![archpredict::studies::Study::MemorySystem],
        samples: 100,
        batch: 50,
        held_out: 60,
        warm: true,
        reps: 3,
        vary_seed: true,
    };
    let space = archpredict::studies::Study::MemorySystem.space();
    let points = |seed: u64, rep: usize| {
        let config = campaign::config(&plan, campaign::rep_seed(seed, rep, plan.vary_seed));
        campaign::campaign_points(&space, &config, plan.held_out)
    };
    assert_eq!(points(5, 0), points(5, 0));
    assert_ne!(points(5, 0), points(6, 0));
    assert_ne!(
        points(5, 0),
        points(5, 1),
        "repetitions draw their own campaigns"
    );
    assert_eq!(
        campaign::rep_seed(5, 0, false),
        campaign::rep_seed(5, 2, false),
        "fixed-seed repetitions repeat one campaign"
    );
    let all = points(5, 0);
    assert_eq!(all.len(), 100 + 60);
    let mut unique = all.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(
        unique.len(),
        all.len(),
        "held-out points are disjoint from training points"
    );
}

#[test]
fn max_rate_is_where_the_search_settled_after_its_first_miss() {
    // The climb before the first miss does not count.
    let settled = serving::max_rate(&[
        (100.0, true),
        (121.0, true),
        (146.41, false),
        (133.1, true),
        (146.41, false),
        (133.1, true),
    ]);
    let expected = (146.41f64 * 133.1 * 146.41 * 133.1).powf(0.25);
    assert!((settled - expected).abs() < 1e-9);
    assert!(settled > 133.1 && settled < 146.41);
    // A search that never missed reports the highest rate it reached.
    assert_eq!(
        serving::max_rate(&[(100.0, true), (121.0, true), (800.0, true)]),
        800.0
    );
    // A search that missed from its first step settles below it.
    let low = serving::max_rate(&[(100.0, false), (90.0, false), (80.0, true)]);
    assert!(low < 90.0 && low > 80.0);
    assert_eq!(serving::max_rate(&[]), 0.0);
}

#[test]
fn a_step_meets_the_limit_with_at_most_ten_small_predicts_over_it() {
    // 120 requests, every 20th a sweep: 114 small predicts.
    let step = serving::search_step(1, 0, 100.0, 120, 23_040);
    let result = |slow: usize, late_ms: f64| {
        let mut small = 0;
        let outcomes = step
            .arrivals
            .iter()
            .map(|a| {
                let latency = match a.kind {
                    Kind::Sweep => 40.0,
                    Kind::Small => {
                        small += 1;
                        if small <= slow {
                            50.0
                        } else {
                            5.0
                        }
                    }
                };
                loadgen::Outcome {
                    kind: a.kind,
                    latency_ms: Some(latency),
                    service_ms: Some(latency),
                    late_ms,
                    backlog: 0,
                    body: None,
                }
            })
            .collect();
        serving::StepResult {
            step: step.clone(),
            outcomes,
        }
    };
    assert!(result(10, 0.0).met());
    assert_eq!(result(10, 0.0).excess(), 0.0);
    assert!(!result(11, 0.0).met());
    // A step whose sends fell behind by more than the limit misses it,
    // however fast its responses.
    let behind = result(0, serving::LIMIT_MS + 1.0);
    assert!(behind.saturated() && !behind.met());
    assert!((behind.excess() - (1.0 - 10.0 / 114.0)).abs() < 1e-12);
}

#[test]
fn the_grid_climbs_geometrically_to_the_top_rate() {
    let grid = serving::grid();
    assert_eq!(grid[0], serving::FIRST_STEP);
    assert!(serving::BASE_RATE < grid[0]);
    assert!(*grid.last().expect("rates") <= serving::TOP_RATE);
    assert!(grid
        .windows(2)
        .all(|w| (w[1] / w[0] - serving::STEP_FACTOR).abs() < 0.01));
    let light = serving::ladder(1, SHAPE, 23_040);
    assert_eq!(light[0].rate, serving::BASE_RATE);
    assert!(light[1..].iter().all(|s| s.rate <= serving::LIGHT_RATE));
    assert_eq!(
        light.len(),
        1 + grid.partition_point(|&r| r <= serving::LIGHT_RATE)
    );
}

#[test]
fn the_search_climbs_coarsely_to_its_first_miss_then_one_step_at_a_time() {
    let grid: Vec<f64> = (1..=10).map(|k| 10.0 * f64::from(k)).collect();
    let mut search = serving::Search::new(grid, 0);
    let mut visited = Vec::new();
    for met in [true, true, false, true, false, false, true] {
        visited.push(search.next_rate().expect("running"));
        search.record(met);
    }
    assert_eq!(visited, [10.0, 30.0, 50.0, 40.0, 50.0, 40.0, 30.0]);
    assert_eq!(search.next_rate(), Some(40.0));

    let mut bottom = serving::Search::new(vec![10.0, 20.0], 0);
    bottom.record(false);
    assert_eq!(
        bottom.next_rate(),
        Some(10.0),
        "the search stays on the grid"
    );
    bottom.record(true);
    bottom.record(true);
    assert_eq!(bottom.next_rate(), None, "the top rate met the limit");
}

/// A fake daemon answering connections one at a time, in order: it sleeps
/// `stall` before answering the first request and answers every request
/// with `status`.
fn fake_server(stall: Duration, status: &'static str) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake server");
    let addr = listener.local_addr().expect("local addr");
    std::thread::spawn(move || {
        for (i, stream) in listener.incoming().enumerate() {
            let Ok(stream) = stream else { break };
            let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
            let mut length = 0usize;
            loop {
                let mut line = String::new();
                if reader.read_line(&mut line).unwrap_or(0) == 0 {
                    break;
                }
                let line = line.trim_end().to_ascii_lowercase();
                if line.is_empty() {
                    break;
                }
                if let Some(v) = line.strip_prefix("content-length:") {
                    length = v.trim().parse().unwrap_or(0);
                }
            }
            let mut body = vec![0u8; length];
            let _ = reader.read_exact(&mut body);
            if i == 0 {
                std::thread::sleep(stall);
            }
            let mut stream = stream;
            let _ = stream.write_all(
                format!("HTTP/1.1 {status}\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{{}}")
                    .as_bytes(),
            );
        }
    });
    addr
}

fn evenly_spaced(count: usize, gap_ms: u64) -> Step {
    Step {
        rate: 1000.0 / gap_ms.max(1) as f64,
        arrivals: (0..count)
            .map(|i| Arrival {
                due: Duration::from_millis(i as u64 * gap_ms),
                kind: Kind::Small,
                body: 0,
            })
            .collect(),
        small_indices: vec![vec![0]],
    }
}

#[test]
fn latency_is_timed_from_when_each_request_was_due() {
    let stall = Duration::from_millis(300);
    let addr = fake_server(stall, "200 OK");
    let step = evenly_spaced(5, 20);
    let send = |_: &Arrival| loadgen::http_post(addr, "/predict", "{}");
    let outcomes = loadgen::run_step(&step, 1, &send, &|_| false);
    let stall_ms = stall.as_secs_f64() * 1e3;
    for (i, (arrival, outcome)) in step.arrivals.iter().zip(&outcomes).enumerate() {
        let due_ms = arrival.due.as_secs_f64() * 1e3;
        let latency = outcome.latency_ms.expect("every request succeeds");
        // Every request waited for the stall to clear, whenever it was due:
        // a closed-loop timer would report the later ones as fast.
        assert!(
            latency >= stall_ms - due_ms - 1.0,
            "request {i} due at {due_ms} ms reported {latency} ms"
        );
        if i > 0 {
            assert!(
                outcome.late_ms >= stall_ms - due_ms - 1.0,
                "request {i} was sent late"
            );
            assert!(outcome.service_ms.expect("service time") < latency);
        }
    }
    assert_eq!(
        outcomes[1].backlog, 3,
        "all five were due when the second was sent"
    );
    assert_eq!(outcomes[4].backlog, 0);
}

#[test]
fn refused_requests_are_misses() {
    let addr = fake_server(Duration::ZERO, "503 Service Unavailable");
    let step = evenly_spaced(3, 5);
    let send = |_: &Arrival| loadgen::http_post(addr, "/predict", "{}");
    let outcomes = loadgen::run_step(&step, 2, &send, &|_| true);
    assert!(outcomes
        .iter()
        .all(|o| o.latency_ms.is_none() && o.body.is_none()));
    let result = serving::StepResult { step, outcomes };
    assert_eq!(result.failures(), 3);
    assert!(result
        .latencies(Kind::Small)
        .iter()
        .all(|l| l.is_infinite()));
}

#[test]
fn connections_never_exceed_the_sender_count() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake server");
    let addr = listener.local_addr().expect("local addr");
    let (open, peak) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
    {
        let (open, peak) = (Arc::clone(&open), Arc::clone(&peak));
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { break };
                let (open, peak) = (Arc::clone(&open), Arc::clone(&peak));
                std::thread::spawn(move || {
                    let now = open.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    let mut buf = [0u8; 1024];
                    let _ = stream.read(&mut buf);
                    std::thread::sleep(Duration::from_millis(30));
                    open.fetch_sub(1, Ordering::SeqCst);
                    let _ = stream.write_all(
                        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}",
                    );
                });
            }
        });
    }
    // Ten requests all due at once: an unbounded generator would open ten
    // connections together.
    let step = evenly_spaced(10, 0);
    let send = |_: &Arrival| loadgen::http_post(addr, "/predict", "{}");
    let outcomes = loadgen::run_step(&step, 2, &send, &|_| false);
    assert!(outcomes.iter().all(|o| o.latency_ms.is_some()));
    assert_eq!(peak.load(Ordering::SeqCst), 2);
    assert!(outcomes[9].backlog == 0 && outcomes[2].backlog > 0);
}
