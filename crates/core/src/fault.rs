//! Seeded simulation-error injection for testing the fault-tolerant
//! oracle stack, expressed as [`crate::failpoint`] sites.
//!
//! Each injectable [`SimError`] has a site named after it ([`SITES`]),
//! checked with the design-point index as its key. Because a keyed
//! check is a pure function of `(seed, site, index, attempt)` — never of
//! thread timing or of other indices' checks — an injected-fault run is
//! bit-for-bit reproducible at every [`archpredict_ann::Parallelism`]
//! setting, which is exactly what the CI smoke gate asserts.
//!
//! Two things consult the sites: [`FaultInjectingOracle`], with the plan
//! it owns, and the [`crate::distributed::SleepyEvaluator`] test double,
//! with the calling thread's active plan (which the process pool carries
//! into its workers).

use crate::failpoint::{FailAction, Plan, SiteSpec};
use crate::simulate::{Oracle, SimError, SimResult, SimStats};
use crate::space::DesignSpace;
use crate::telemetry::{self, Counter};

/// Site injecting [`SimError::Transient`].
pub const FP_TRANSIENT: &str = "fault.transient";
/// Site injecting [`SimError::Crashed`] (a worker process that evaluates
/// into it dies for real).
pub const FP_CRASHED: &str = "fault.crashed";
/// Site injecting [`SimError::TimedOut`].
pub const FP_TIMED_OUT: &str = "fault.timed_out";
/// Site injecting [`SimError::NonFinite`].
pub const FP_NON_FINITE: &str = "fault.non_finite";

/// Every `fault.*` site with the error it injects, in check order.
pub const SITES: [(&str, SimError); 4] = [
    (FP_TRANSIENT, SimError::Transient),
    (FP_CRASHED, SimError::Crashed),
    (FP_TIMED_OUT, SimError::TimedOut),
    (FP_NON_FINITE, SimError::NonFinite),
];

/// The error `plan` injects into this evaluation of `index`, if any: the
/// [`SITES`] are checked in order under key `index`, and the first that
/// fires names the error.
pub fn injected(plan: &Plan, index: usize) -> Option<SimError> {
    SITES
        .iter()
        .find(|(site, _)| plan.fire(site, index as u64).is_some())
        .map(|&(_, error)| error)
}

/// A mixed-mode plan: each evaluation faults with probability
/// `probability`, split 5:2:2:1 between transient, crashed, timed-out and
/// non-finite faults.
pub fn mixed(probability: f64, seed: u64) -> Plan {
    const WEIGHTS: [f64; 4] = [0.5, 0.2, 0.2, 0.1];
    let mut plan = Plan::new(seed);
    // Sites are checked in order, so each one's probability is its share
    // conditioned on no earlier site having fired.
    let mut unfired = 1.0;
    for (&(site, _), weight) in SITES.iter().zip(WEIGHTS) {
        let share = probability * weight;
        let spec = SiteSpec {
            probability: (share / unfired).min(1.0),
            ..SiteSpec::always(FailAction::Error)
        };
        plan = plan.site(site, spec);
        unfired -= share;
    }
    plan
}

/// Wraps any oracle with a seeded, deterministic fault schedule.
///
/// Faulted occurrences never reach the inner oracle — the injector
/// simulates the backend dying *before* it produces a value — so wrapping
/// a [`crate::simulate::CachedEvaluator`] keeps the cache free of
/// injected garbage, and the exactly-once-per-surviving-index property of
/// the stack is preserved.
///
/// Fault decisions are computed sequentially in input order before the
/// surviving subset is delegated to the inner oracle, and the plan's
/// attempt counts persist across batches (retries of an index advance
/// its schedule), so injection is independent of the inner oracle's
/// thread count.
#[derive(Debug)]
pub struct FaultInjectingOracle<O> {
    inner: O,
    plan: Plan,
    injected: Counter,
}

impl<O: Oracle> FaultInjectingOracle<O> {
    /// Wraps `inner` with the `fault.*` sites of `plan` (see [`mixed`]).
    pub fn new(inner: O, plan: Plan) -> Self {
        Self {
            inner,
            plan,
            injected: Counter::mirroring("fault.injected", &telemetry::FAULT_INJECTED),
        }
    }

    /// The wrapped oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Total faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.get()
    }
}

impl<O: Oracle> Oracle for FaultInjectingOracle<O> {
    fn evaluate_batch(
        &self,
        space: &DesignSpace,
        indices: &[usize],
        stats: &mut SimStats,
    ) -> Vec<SimResult> {
        // Phase 1 (sequential, input order): decide each occurrence's
        // fate. Duplicate occurrences of an index advance its attempt
        // count independently, in input order, so the schedule does not
        // depend on how the inner oracle parallelizes.
        let mut results: Vec<SimResult> = Vec::with_capacity(indices.len());
        let mut passing: Vec<usize> = Vec::new();
        let mut passing_slots: Vec<usize> = Vec::new();
        for (slot, &index) in indices.iter().enumerate() {
            match injected(&self.plan, index) {
                Some(error) => {
                    stats.failures += 1;
                    self.injected.incr();
                    results.push(Err(error));
                }
                None => {
                    passing.push(index);
                    passing_slots.push(slot);
                    results.push(Ok(0.0)); // placeholder, filled below
                }
            }
        }
        // Phase 2: the surviving subset goes to the inner oracle as one
        // batch, preserving its dedup/fan-out behavior.
        let inner_results = self.inner.evaluate_batch(space, &passing, stats);
        for (slot, outcome) in passing_slots.into_iter().zip(inner_results) {
            results[slot] = outcome;
        }
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::{PointEvaluator, RetryingOracle};
    use crate::space::DesignPoint;
    use crate::studies::Study;
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct CountingEvaluator {
        calls: AtomicUsize,
    }

    impl PointEvaluator for CountingEvaluator {
        fn evaluate(&self, point: &DesignPoint) -> f64 {
            self.calls.fetch_add(1, Ordering::SeqCst);
            point.0.iter().sum::<usize>() as f64 + 1.0
        }
        fn instructions_per_evaluation(&self) -> u64 {
            100
        }
    }

    fn counting() -> CountingEvaluator {
        CountingEvaluator {
            calls: AtomicUsize::new(0),
        }
    }

    #[test]
    fn schedule_is_a_pure_function_of_seed_index_attempt() {
        let first: Vec<Option<SimError>> = {
            let plan = mixed(0.1, 0xFA_17ED);
            (0..600).map(|i| injected(&plan, i % 200)).collect()
        };
        // Same checks in another index order: each index's sequence of
        // outcomes is unchanged.
        let plan = mixed(0.1, 0xFA_17ED);
        let mut second = vec![None; 600];
        for i in (0..200).rev() {
            for attempt in 0..3 {
                second[attempt * 200 + i] = injected(&plan, i);
            }
        }
        assert_eq!(first, second);
        // ~10% of first attempts fault (loose statistical bound), and
        // every mode occurs.
        let plan = mixed(0.1, 0xFA_17ED);
        let faults: Vec<SimError> = (0..2000).filter_map(|i| injected(&plan, i)).collect();
        assert!(
            (100..300).contains(&faults.len()),
            "fault count {}",
            faults.len()
        );
        for (_, mode) in SITES {
            assert!(faults.contains(&mode), "{mode:?} never injected");
        }
    }

    #[test]
    fn faulted_attempts_never_reach_the_inner_oracle() {
        let space = Study::MemorySystem.space();
        let injector = FaultInjectingOracle::new(counting(), mixed(0.5, 0xFA_17ED));
        let indices: Vec<usize> = (0..100).collect();
        let mut stats = SimStats::default();
        let results = injector.evaluate_batch(&space, &indices, &mut stats);
        let ok = results.iter().filter(|r| r.is_ok()).count();
        let failed = results.len() - ok;
        assert_eq!(injector.inner().calls.load(Ordering::SeqCst), ok);
        assert_eq!(injector.injected() as usize, failed);
        assert_eq!(stats.failures as usize, failed);
        assert_eq!(stats.unique_simulations as usize, ok);
        assert!(failed > 10 && ok > 10, "ok {ok} / failed {failed}");
    }

    #[test]
    fn retry_stack_recovers_retriable_injected_faults_deterministically() {
        let space = Study::MemorySystem.space();
        let retriable = |probability| SiteSpec {
            probability,
            ..SiteSpec::always(FailAction::Error)
        };
        let run = || {
            let plan = Plan::new(77)
                .site(FP_TRANSIENT, retriable(0.18))
                .site(FP_CRASHED, retriable(0.07))
                .site(FP_TIMED_OUT, retriable(0.07));
            let oracle = RetryingOracle::new(FaultInjectingOracle::new(counting(), plan));
            let mut stats = SimStats::default();
            let results = oracle.evaluate_batch(&space, &(0..50).collect::<Vec<_>>(), &mut stats);
            (results, stats.retries, stats.quarantined)
        };
        let (a, retries, _) = run();
        let (b, _, _) = run();
        assert_eq!(a, b, "same seed, same outcome");
        assert!(retries > 0, "0.3 fault rate should trigger retries");
        // With p = 0.3 and 3 attempts, perma-failure is ~2.7% per index.
        let ok = a.iter().filter(|r| r.is_ok()).count();
        assert!(ok >= 40, "only {ok}/50 survived");
    }
}
