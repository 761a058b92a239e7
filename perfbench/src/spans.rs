//! In-memory spans recorded by the benchmark's own wrappers around each
//! call into the program, written out when the run ends and folded into
//! per-layer self time.
//!
//! A span's layer is its name up to the first `.` (`simulate.batch` is in
//! the `simulate` layer). Its self time is its duration minus the part of
//! that interval its child spans cover. Recording is off unless the run
//! is traced; an untraced run pays one branch per wrapper.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The layers spans are recorded in, named after the program's modules
/// (plus `bench`, the benchmark's own root spans).
pub const LAYERS: [&str; 9] = [
    "bench",
    "registry",
    "campaign",
    "simulate",
    "ann",
    "infer",
    "workloads",
    "sim",
    "serve",
];

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.operation`.
    pub name: &'static str,
    /// Start, seconds since the tracer's epoch.
    pub start: f64,
    /// End, seconds since the tracer's epoch.
    pub end: f64,
    /// Index of the enclosing span on the same thread, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// The layer the span belongs to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// The span store of one run.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// Indices of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// An open span; it ends when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    index: Option<usize>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Opens a span named `name` as a child of this thread's innermost
    /// open span.
    pub fn span(&self, name: &'static str) -> Guard<'_> {
        if !self.enabled {
            return Guard {
                tracer: self,
                index: None,
            };
        }
        let parent = OPEN.with(|open| open.borrow().last().copied());
        let start = self.now();
        let index = {
            let mut spans = self.spans.lock().expect("span store poisoned");
            spans.push(Span {
                name,
                start,
                end: f64::NAN,
                parent,
            });
            spans.len() - 1
        };
        OPEN.with(|open| open.borrow_mut().push(index));
        Guard {
            tracer: self,
            index: Some(index),
        }
    }

    /// Records a finished child span of this thread's innermost open span
    /// for work the benchmark cannot wrap, because it runs inside a call
    /// the benchmark makes (the ensemble fit inside `Campaign::step`).
    pub fn record(&self, name: &'static str, start: f64, duration: Duration) {
        if !self.enabled {
            return;
        }
        let parent = OPEN.with(|open| open.borrow().last().copied());
        self.spans.lock().expect("span store poisoned").push(Span {
            name,
            start,
            end: start + duration.as_secs_f64(),
            parent,
        });
    }

    /// Seconds since the epoch, for [`Tracer::record`] (0 when disabled).
    pub fn clock(&self) -> f64 {
        if self.enabled {
            self.now()
        } else {
            0.0
        }
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Writes every span as one JSON line (`name`, `start`, `end`,
    /// `parent`, `workload`).
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"workload\":\"{workload}\"}}",
                s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let Some(index) = self.index else { return };
        let end = self.tracer.now();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&i| i == index) {
                open.remove(pos);
            }
        });
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans[index].end = end;
        }
    }
}

/// Self time per span: duration minus the union of its children's
/// intervals (children of one parent run on its thread, so they do not
/// overlap, but the union is taken anyway).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(s.end);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.seconds() - covered).max(0.0)
        })
        .collect()
}

/// Self seconds folded by layer, over every span outside the subtrees
/// rooted at spans named `skip` (set-up, which is not timed work).
pub fn self_by_layer(spans: &[Span], skip: &str) -> BTreeMap<&'static str, f64> {
    let mut skipped = vec![false; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        // Parents are recorded before their children.
        skipped[i] = s.name == skip || s.parent.is_some_and(|p| skipped[p]);
    }
    let mut by_layer = BTreeMap::new();
    for ((s, own), skipped) in spans.iter().zip(self_times(spans)).zip(skipped) {
        if !skipped {
            *by_layer.entry(s.layer()).or_insert(0.0) += own;
        }
    }
    by_layer
}

/// Share of the spans named `root` covered by layer spans: one minus the
/// roots' own self time over their duration, in percent.
pub fn coverage_pct(spans: &[Span], root: &str) -> f64 {
    let own = self_times(spans);
    let (mut dark, mut whole) = (0.0, 0.0);
    for (s, own) in spans.iter().zip(own) {
        if s.name == root {
            dark += own;
            whole += s.seconds();
        }
    }
    if whole > 0.0 {
        100.0 * (1.0 - dark / whole)
    } else {
        f64::NAN
    }
}
