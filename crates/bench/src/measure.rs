//! Shared timing and reporting for the gate binaries (`predict_speedup`,
//! `train_speedup`, `sim_speedup`, `telemetry_overhead`).
//!
//! Every gate times its paths best-of-N with [`Best`], takes its sizes as
//! positional numbers through [`positional`], walks the same
//! [`thread_ladder`], and reports through one [`Report`]: a stderr table
//! plus `results/<bin>.csv` and `results/<bin>.json` with one row layout,
//! `path,seconds,baseline,speedup_vs_baseline`, where `baseline` names the
//! row the speedup is measured against.

use crate::write_artifact;
use archpredict::space::DesignSpace;
use archpredict_ann::{fit_ensemble, CvFit, Dataset, Sample, TrainConfig};
use archpredict_stats::json::Value;
use archpredict_stats::rng::Xoshiro256;
use archpredict_stats::sampling::sample_without_replacement;
use std::path::Path;
use std::time::Instant;

/// Runs `f` once, returning its wall-clock seconds and its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let started = Instant::now();
    let out = f();
    (started.elapsed().as_secs_f64(), out)
}

/// Best-of-N accumulator: the minimum of the timings it has seen.
#[derive(Debug, Clone, Copy)]
pub struct Best(f64);

impl Default for Best {
    fn default() -> Self {
        Best(f64::INFINITY)
    }
}

impl Best {
    /// Times `f` (and only `f`: setup belongs outside the closure), keeps
    /// the minimum, and returns `f`'s result.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (seconds, out) = timed(f);
        self.record(seconds);
        out
    }

    /// Folds in a timing taken elsewhere.
    pub fn record(&mut self, seconds: f64) {
        self.0 = self.0.min(seconds);
    }

    /// The best timing so far (`inf` before the first).
    pub fn seconds(self) -> f64 {
        self.0
    }
}

/// The machine's available parallelism (1 when unknown).
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Thread counts 1, 2, 4, … below `cap`, then `cap` itself.
pub fn thread_ladder(cap: usize) -> Vec<usize> {
    let mut ladder = vec![1];
    let mut threads = 2;
    while threads < cap {
        ladder.push(threads);
        threads *= 2;
    }
    if cap > 1 {
        ladder.push(cap);
    }
    ladder
}

/// Parses positional numbers over `(name, default)` pairs: the i-th
/// argument overrides the i-th default.
///
/// # Panics
///
/// Panics on any `--flag`, on a non-number, and on more arguments than
/// `defaults` names.
pub fn positional<const N: usize>(
    args: impl IntoIterator<Item = String>,
    defaults: [(&str, usize); N],
) -> [usize; N] {
    let names: Vec<&str> = defaults.iter().map(|&(name, _)| name).collect();
    let mut values = defaults.map(|(_, default)| default);
    for (i, arg) in args.into_iter().enumerate() {
        assert!(
            !arg.starts_with("--"),
            "unknown flag {arg} (this binary takes only positional numbers: {names:?})"
        );
        assert!(
            i < N,
            "unexpected argument {arg} (expected at most {names:?})"
        );
        values[i] = arg
            .parse()
            .unwrap_or_else(|_| panic!("{} must be a number, got {arg:?}", names[i]));
    }
    values
}

/// The synthetic 300-point memory-study ensemble the inference gates
/// sweep: 10 folds at 100 epochs, target `0.5 + 0.3 * f[0]` (inference
/// cost is target-independent). Draws the training points from `rng`,
/// which the callers seed with 2.
pub fn synthetic_fit(space: &DesignSpace, rng: &mut Xoshiro256) -> CvFit {
    let data: Dataset = sample_without_replacement(space.size(), 300, rng)
        .into_iter()
        .map(|i| {
            let f = space.encode(&space.point(i));
            let t = 0.5 + 0.3 * f[0];
            Sample::new(f, t)
        })
        .collect();
    let config = TrainConfig {
        max_epochs: 100,
        ..TrainConfig::default()
    };
    fit_ensemble(&data, 10, &config, 3)
}

struct Row {
    path: String,
    seconds: f64,
    baseline: String,
    speedup: f64,
}

/// One gate's results: run metadata plus timed rows, each measured against
/// a named baseline row.
pub struct Report {
    bin: &'static str,
    meta: Vec<(String, Value)>,
    rows: Vec<Row>,
}

impl Report {
    /// An empty report for binary `bin`, with the core count recorded.
    pub fn new(bin: &'static str) -> Self {
        Report {
            bin,
            meta: vec![("cores".into(), Value::Num(cores() as f64))],
            rows: Vec::new(),
        }
    }

    /// Adds a metadata member to the JSON document.
    pub fn meta(&mut self, key: &str, value: Value) -> &mut Self {
        self.meta.push((key.into(), value));
        self
    }

    /// Adds a row timed at `seconds`, with its speedup over the earlier row
    /// `baseline` (a row naming itself is its own baseline, speedup 1).
    ///
    /// # Panics
    ///
    /// Panics if `baseline` is neither `path` nor an earlier row.
    pub fn row(&mut self, path: impl Into<String>, seconds: f64, baseline: &str) -> &mut Self {
        let path = path.into();
        let base = if path == baseline {
            seconds
        } else {
            self.seconds(baseline)
                .unwrap_or_else(|| panic!("baseline row {baseline} not reported yet"))
        };
        self.rows.push(Row {
            speedup: base / seconds,
            path,
            seconds,
            baseline: baseline.into(),
        });
        self
    }

    /// Seconds of the row named `path`.
    pub fn seconds(&self, path: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.path == path).map(|r| r.seconds)
    }

    fn csv(&self) -> String {
        let mut out = String::from("path,seconds,baseline,speedup_vs_baseline\n");
        for r in &self.rows {
            out.push_str(&format!(
                "{},{:.6},{},{:.3}\n",
                r.path, r.seconds, r.baseline, r.speedup
            ));
        }
        out
    }

    fn json(&self) -> Value {
        let rows = self
            .rows
            .iter()
            .map(|r| {
                Value::Object(vec![
                    ("path".into(), Value::Str(r.path.clone())),
                    ("seconds".into(), Value::num(r.seconds)),
                    ("baseline".into(), Value::Str(r.baseline.clone())),
                    ("speedup_vs_baseline".into(), Value::num(r.speedup)),
                ])
            })
            .collect();
        let mut members = vec![("bin".into(), Value::Str(self.bin.into()))];
        members.extend(self.meta.iter().cloned());
        members.push(("rows".into(), Value::Array(rows)));
        Value::Object(members)
    }

    /// Prints the table to stderr and writes `results/<bin>.csv` and
    /// `results/<bin>.json`.
    pub fn write(&self) {
        let width = self.rows.iter().map(|r| r.path.len()).max().unwrap_or(4);
        eprintln!(
            "{:>width$} {:>10} {:>8}  baseline",
            "path", "seconds", "speedup"
        );
        for r in &self.rows {
            eprintln!(
                "{:>width$} {:>10.4} {:>7.2}x  {}",
                r.path, r.seconds, r.speedup, r.baseline
            );
        }
        let results = Path::new("results");
        write_artifact(&results.join(format!("{}.csv", self.bin)), &self.csv());
        let json = self.json().to_json() + "\n";
        write_artifact(&results.join(format!("{}.json", self.bin)), &json);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn thread_ladder_doubles_up_to_the_cap() {
        assert_eq!(thread_ladder(1), [1]);
        assert_eq!(thread_ladder(2), [1, 2]);
        assert_eq!(thread_ladder(6), [1, 2, 4, 6]);
        assert_eq!(thread_ladder(10), [1, 2, 4, 8, 10]);
        // `train_speedup` caps at the fold count: a 16-core box stops at 10.
        let cores = [16usize];
        assert_eq!(thread_ladder(cores[0].min(10)), [1, 2, 4, 8, 10]);
    }

    #[test]
    fn positional_keeps_defaults_and_applies_overrides() {
        let defaults = [("points", 16_384), ("repeats", 3)];
        assert_eq!(positional(args(&[]), defaults), [16_384, 3]);
        assert_eq!(positional(args(&["8192"]), defaults), [8_192, 3]);
        assert_eq!(positional(args(&["8192", "2"]), defaults), [8_192, 2]);
    }

    #[test]
    #[should_panic(expected = "unknown flag --output-json")]
    fn positional_rejects_flags() {
        positional(args(&["8192", "2", "--output-json"]), [("a", 1), ("b", 2)]);
    }

    #[test]
    #[should_panic(expected = "repeats must be a number")]
    fn positional_rejects_non_numbers() {
        positional(args(&["8192", "two"]), [("points", 1), ("repeats", 2)]);
    }

    #[test]
    fn report_json_round_trips_seconds_bit_for_bit() {
        let times = [0.1 + 0.2, 1e-9, 12.345_678_901_234_567, 5e-324];
        let mut report = Report::new("unit");
        report.meta("points", Value::Num(8.0));
        report.row("base", times[0], "base");
        for (i, &t) in times.iter().enumerate().skip(1) {
            report.row(format!("path_{i}"), t, "base");
        }
        let parsed = Value::parse(&report.json().to_json()).unwrap();
        assert_eq!(parsed.get("bin").unwrap().as_str().unwrap(), "unit");
        assert_eq!(parsed.get("points").unwrap().as_usize().unwrap(), 8);
        let rows = parsed.get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows.len(), times.len());
        for (row, &t) in rows.iter().zip(&times) {
            let seconds = row.get("seconds").unwrap().as_f64().unwrap();
            assert_eq!(seconds.to_bits(), t.to_bits());
            assert_eq!(row.get("baseline").unwrap().as_str().unwrap(), "base");
        }
        assert_eq!(report.csv().lines().count(), times.len() + 1);
    }
}
