//! Training speedup table, two sections sharing one CSV:
//!
//! 1. **Kernel section** (always armed, single-thread): the vectorized
//!    backpropagation step (`Network::train_example`) against the textbook
//!    scalar reference (`Network::train_example_reference`) over identical
//!    presentations, asserting the resulting networks are **bit-for-bit
//!    identical** and that the vectorized step is at least
//!    [`MIN_KERNEL_SPEEDUP`]x faster. This gate does not depend on core
//!    count, so it fails loudly on any machine if the kernels regress.
//! 2. **Parallel-fit section**: wall-clock of a 10-fold `fit_ensemble` at
//!    1, 2, 4, … worker threads up to the machine's core count, with
//!    bit-for-bit determinism checked at every thread count. The ≥2x
//!    multi-thread assertion necessarily stays gated on having ≥4 cores.
//!
//! ```text
//! cargo run --release --bin train_speedup [samples] [repeats]
//! ```
//!
//! Writes `results/train_speedup.csv` and `results/train_speedup.json`
//! through [`archpredict_bench::measure::Report`].

use archpredict_ann::{fit_ensemble, CvFit, Dataset, Network, Parallelism, Sample, TrainConfig};
use archpredict_bench::measure::{self, Best, Report};
use archpredict_stats::json::Value;
use archpredict_stats::rng::Xoshiro256;

/// Required speedup of the vectorized backprop step over the scalar
/// reference. Conservative: the restructured loops deliver well above
/// this; the gate exists so training can never quietly fall back to
/// textbook-loop throughput.
const MIN_KERNEL_SPEEDUP: f64 = 1.2;

/// Presentations per timed kernel run. Below roughly a hundred thousand
/// steps the comparison is noise-dominated, so smoke runs skip the gate.
const KERNEL_ASSERT_MIN_STEPS: usize = 100_000;

fn dataset(n: usize) -> Dataset {
    let mut rng = Xoshiro256::seed_from(5);
    (0..n)
        .map(|_| {
            let a = rng.next_f64();
            let b = rng.next_f64();
            let c = rng.next_f64();
            Sample::new(
                vec![a, b, c],
                0.3 + 0.5 * (a * 2.0).sin().abs() + 0.2 * b * c,
            )
        })
        .collect()
}

fn fits_match(a: &CvFit, b: &CvFit) -> bool {
    let probes = [[0.1, 0.2, 0.3], [0.5, 0.5, 0.5], [0.9, 0.4, 0.7]];
    a.estimate == b.estimate
        && probes
            .iter()
            .all(|x| a.ensemble.member_predictions(x) == b.ensemble.member_predictions(x))
}

/// Times `steps` single-example SGD presentations through `step`,
/// returning (seconds, trained network). Inputs/targets are regenerated
/// identically per call from a fixed seed.
fn run_trainer(
    steps: usize,
    mut net: Network,
    step: impl Fn(&mut Network, &[f64; 3], &[f64; 1]) -> f64,
) -> (f64, Network) {
    let mut rng = Xoshiro256::seed_from(11);
    let examples: Vec<([f64; 3], [f64; 1])> = (0..1024)
        .map(|_| {
            let x = [rng.next_f64(), rng.next_f64(), rng.next_f64()];
            let t = [0.3 + 0.4 * x[0] + 0.2 * x[1] * x[2]];
            (x, t)
        })
        .collect();
    let (seconds, sink) = measure::timed(|| {
        let mut sink = 0.0;
        for i in 0..steps {
            let (x, t) = &examples[i % examples.len()];
            sink += step(&mut net, x, t);
        }
        sink
    });
    assert!(sink.is_finite(), "training error diverged");
    (seconds, net)
}

fn main() {
    let [samples, repeats] =
        measure::positional(std::env::args().skip(1), [("samples", 200), ("repeats", 3)]);

    let cores = measure::cores();

    // --- Kernel section: scalar reference vs vectorized backprop. ---
    let steps = (samples * 1000).max(KERNEL_ASSERT_MIN_STEPS.min(200_000));
    eprintln!("train_speedup kernel section: {steps} presentations, [3,16,1] network");
    let mut rng = Xoshiro256::seed_from(9);
    let fresh = Network::new(&[3, 16, 1], &mut rng);
    let (mut ref_best, mut vec_best) = (Best::default(), Best::default());
    let mut nets: Option<(Network, Network)> = None;
    for _ in 0..repeats {
        let (t_ref, net_ref) = run_trainer(steps, fresh.clone(), |n, x, t| {
            n.train_example_reference(x, t, 0.1, 0.5)
        });
        let (t_vec, net_vec) = run_trainer(steps, fresh.clone(), |n, x, t| {
            n.train_example(x, t, 0.1, 0.5)
        });
        ref_best.record(t_ref);
        vec_best.record(t_vec);
        nets = Some((net_ref, net_vec));
    }
    let (ref_best, vec_best) = (ref_best.seconds(), vec_best.seconds());
    let (net_ref, net_vec) = nets.expect("at least one repeat");
    assert_eq!(
        net_ref, net_vec,
        "vectorized trainer diverged from the scalar reference"
    );
    eprintln!("(vectorized and reference trainers produced bit-for-bit identical networks)");
    let mut report = Report::new("train_speedup");
    report
        .meta("samples", Value::Num(samples as f64))
        .meta("kernel_steps", Value::Num(steps as f64))
        .meta("repeats", Value::Num(repeats as f64))
        .meta("folds", Value::Num(10.0))
        .meta("determinism", Value::Str("bit_identical_all_paths".into()))
        .row("train_step_reference", ref_best, "train_step_reference")
        .row("train_step_vectorized", vec_best, "train_step_reference");

    // --- Parallel-fit section. ---
    let data = dataset(samples);
    let config_with = |parallelism| TrainConfig {
        max_epochs: 200,
        patience: 200,
        parallelism,
        ..TrainConfig::default()
    };

    eprintln!(
        "train_speedup fit section: {samples} samples, 10 folds, best of {repeats} runs, \
         {cores} core(s)"
    );
    let reference = fit_ensemble(&data, 10, &config_with(Parallelism::Fixed(1)), 7);

    // Thread counts up to the core count, capped at 10 = the fold count.
    let (mut fit_1, mut best_fit_speedup) = (f64::NAN, 0.0f64);
    for threads in measure::thread_ladder(cores.min(10)) {
        let config = config_with(Parallelism::Fixed(threads));
        let mut best = Best::default();
        for _ in 0..repeats {
            let fit = best.time(|| fit_ensemble(&data, 10, &config, 7));
            assert!(
                fits_match(&reference, &fit),
                "{threads}-thread fit diverged from the sequential fit"
            );
        }
        if threads == 1 {
            fit_1 = best.seconds();
        }
        best_fit_speedup = best_fit_speedup.max(fit_1 / best.seconds());
        report.row(
            format!("fit_threads_{threads}"),
            best.seconds(),
            "fit_threads_1",
        );
    }
    eprintln!("(all thread counts produced bit-for-bit identical fits)");
    report.write();

    if steps >= KERNEL_ASSERT_MIN_STEPS {
        let kernel_speedup = ref_best / vec_best;
        assert!(
            kernel_speedup >= MIN_KERNEL_SPEEDUP,
            "vectorized backprop is only {kernel_speedup:.2}x over the scalar reference \
             ({vec_best:.4}s vs {ref_best:.4}s); must deliver >= {MIN_KERNEL_SPEEDUP}x"
        );
        eprintln!(
            "kernel gate: vectorized step is {kernel_speedup:.2}x \
             (>= {MIN_KERNEL_SPEEDUP}x required)"
        );
    } else {
        eprintln!("(smoke run: <{KERNEL_ASSERT_MIN_STEPS} steps, kernel gate skipped)");
    }
    if cores >= 4 {
        assert!(
            best_fit_speedup >= 2.0,
            "expected >=2x fit speedup with {cores} cores, best was {best_fit_speedup:.2}x"
        );
    }
}
