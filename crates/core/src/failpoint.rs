//! Deterministic, seeded fault injection: the one fault layer.
//!
//! A chaos run is only debuggable if it is replayable: "the daemon died
//! after 4 000 requests" is useless unless the same seed reproduces the
//! same death at the same request. This module provides named **fault
//! sites** compiled into production code paths (`persist::write_atomic`,
//! the registry commit path, the serve request handler, distributed
//! worker dispatch, the `fault.*` sites of [`crate::fault`]) and one value
//! that decides them, a [`Plan`]. [`Plan::fire`] decides a check of
//! `(site, key)` as a pure function of `(seed, site, key, attempt)`, where
//! `attempt` counts that pair's checks on that plan — independent of the
//! checks other keys received, or their order. Sites without a natural
//! key pass [`NO_KEY`], so their attempt is the site's hit count.
//!
//! Plans are active per thread: [`enter`] arms one until its guard
//! drops. Fan-out paths capture [`active`] and re-enter it in the threads
//! they spawn (the pool's span threads, the simulation batch fan-out, the
//! server's connection threads), and the process pool renders it into
//! each worker's `ARCHPREDICT_FAILPOINTS`. Binaries enter
//! [`Plan::from_env`] at startup; tests enter their own plans, so
//! concurrent tests never see each other's. With no active plan a check
//! costs one thread-local read.
//!
//! # Text format
//!
//! ```text
//! ARCHPREDICT_FAILPOINTS="seed=0x5EED;registry.commit.entry=error@0.2;fault.crashed#1234=error@1"
//! ```
//!
//! Clauses are `;`-separated. `seed=<u64, 0x-hex ok>` sets the schedule
//! seed (default 0). Every other clause is
//! `<site>[#<key>]=<action>@<probability>[@<max_fires>]` where `<action>`
//! is one of `error`, `torn`, `panic`, `abort`, `exit:<code>`,
//! `delay:<ms>`. A `#<key>` clause (u64, 0x-hex ok) targets one key and
//! outranks the site's unkeyed clause; `max_fires` caps each
//! `(site, key)` pair.

use archpredict_stats::hash::fnv1a_64;
use archpredict_stats::rng::Xoshiro256;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Environment variable read by [`Plan::from_env`] and set by the process
/// pool on its workers (and by a chaos harness on its daemons).
pub const ENV_FAILPOINTS: &str = "ARCHPREDICT_FAILPOINTS";

/// The key checked by sites with no natural key ([`check`]).
pub const NO_KEY: u64 = 0;

/// What an armed site does when it fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FailAction {
    /// The instrumented call returns an injected `io::Error`.
    Error,
    /// `persist::write_atomic` leaves a half-written temp file behind and
    /// errors — the on-disk shape of a writer killed mid-write. At sites
    /// without a partial-write notion this degrades to [`FailAction::Error`].
    Torn,
    /// The calling thread sleeps, then the call proceeds normally.
    /// Exercises timeout and drain paths without failing anything.
    Delay(Duration),
    /// The calling thread panics (`catch_unwind` isolation coverage).
    Panic,
    /// The whole process aborts — a real `kill -9`-shaped death.
    Abort,
    /// The process exits with this code, skipping destructors.
    Exit(i32),
}

/// One armed site: what to do, how often, and for how many fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteSpec {
    pub action: FailAction,
    /// Per-check fire probability in `[0, 1]`; `1.0` fires every check.
    pub probability: f64,
    /// Stop firing a `(site, key)` pair after this many fires (`None` =
    /// unbounded).
    pub max_fires: Option<u64>,
}

impl SiteSpec {
    /// A spec that fires `action` on the first check and never again —
    /// the common "die exactly once, right here" configuration.
    pub fn once(action: FailAction) -> Self {
        SiteSpec {
            action,
            probability: 1.0,
            max_fires: Some(1),
        }
    }

    /// A spec that fires `action` on every check.
    pub fn always(action: FailAction) -> Self {
        SiteSpec {
            action,
            probability: 1.0,
            max_fires: None,
        }
    }
}

/// What [`Plan::fire`] hands back to the instrumented call site when a
/// returnable action fires. (`Delay`/`Panic`/`Abort`/`Exit` are executed
/// inside [`Plan::fire`] itself and never surface here.)
#[derive(Debug)]
pub enum Failure {
    /// Fail the call with this error.
    Error(std::io::Error),
    /// Simulate a torn write: leave partial bytes, then fail the call.
    Torn,
}

impl Failure {
    /// Collapses the failure into its injected `io::Error`. Sites with
    /// no notion of a partial write use this so `Torn` degrades to a
    /// plain error instead of silently doing nothing.
    pub fn into_io_error(self, site: &str) -> std::io::Error {
        match self {
            Failure::Error(e) => e,
            Failure::Torn => std::io::Error::other(format!("failpoint `{site}` fired (torn)")),
        }
    }
}

/// One clause of a plan: a site, optionally one key of it, and its spec.
#[derive(Debug)]
struct Clause {
    site: String,
    key: Option<u64>,
    spec: SiteSpec,
}

/// A seeded fault schedule: which sites fire, for which keys, how. It is
/// consulted directly ([`Plan::fire`]) or as the calling thread's active
/// plan ([`enter`], [`check`]), and owns its per-`(site, key)` counts.
#[derive(Debug, Default)]
pub struct Plan {
    seed: u64,
    clauses: Vec<Clause>,
    /// `(clause index, key)` → `(attempts, fires)`.
    counts: Mutex<HashMap<(usize, u64), (u64, u64)>>,
}

impl Plan {
    /// An empty plan under `seed`: nothing fires until sites are added.
    pub fn new(seed: u64) -> Self {
        Plan {
            seed,
            ..Plan::default()
        }
    }

    /// Arms `site` for every key (chainable).
    pub fn site(self, site: &str, spec: SiteSpec) -> Self {
        self.clause(site, None, spec)
    }

    /// Arms `site` for `key` only (chainable); takes precedence over
    /// the site's unkeyed clause for that key.
    pub fn keyed(self, site: &str, key: u64, spec: SiteSpec) -> Self {
        self.clause(site, Some(key), spec)
    }

    fn clause(mut self, site: &str, key: Option<u64>, spec: SiteSpec) -> Self {
        self.clauses.push(Clause {
            site: site.to_string(),
            key,
            spec,
        });
        self
    }

    /// Decides one check of `(site, key)`. Unconfigured sites return
    /// `None` without counting. Attempt `n` of an armed pair fires iff
    /// `rng(seed, site, key, n) < probability` and the pair has fired
    /// fewer than `max_fires` times — identically on every run.
    ///
    /// `Delay` sleeps then returns `None`; `Panic`/`Abort`/`Exit` never
    /// return. `Error`/`Torn` hand a [`Failure`] back for the call site to
    /// realize.
    pub fn fire(&self, site: &str, key: u64) -> Option<Failure> {
        let find = |k: Option<u64>| {
            self.clauses
                .iter()
                .position(|c| c.site == site && c.key == k)
        };
        let index = find(Some(key)).or_else(|| find(None))?;
        let spec = self.clauses[index].spec;
        let attempt = {
            let mut counts = self.counts.lock().expect("failpoint counts lock");
            let (attempts, fires) = counts.entry((index, key)).or_default();
            *attempts += 1;
            // Key 0 leaves the site stream as it is, so an unkeyed site's
            // schedule is the plain per-site stream indexed by hit count.
            let mut rng = Xoshiro256::seed_from(self.seed)
                .derive(fnv1a_64(site.as_bytes()) ^ key)
                .derive(*attempts);
            let spent = spec.max_fires.is_some_and(|max| *fires >= max);
            if spent || rng.next_f64() >= spec.probability {
                return None;
            }
            *fires += 1;
            *attempts
        };
        match spec.action {
            FailAction::Error => Some(Failure::Error(std::io::Error::other(format!(
                "failpoint `{site}` fired (key {key}, attempt {attempt})"
            )))),
            FailAction::Torn => Some(Failure::Torn),
            FailAction::Delay(d) => {
                std::thread::sleep(d);
                None
            }
            FailAction::Panic => {
                panic!("failpoint `{site}` fired (key {key}, attempt {attempt})")
            }
            FailAction::Abort => std::process::abort(),
            FailAction::Exit(code) => std::process::exit(code),
        }
    }

    /// Parses the clause syntax (see the module docs).
    pub fn parse(text: &str) -> Result<Plan, String> {
        let mut plan = Plan::default();
        for clause in text.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (lhs, rhs) = clause
                .split_once('=')
                .ok_or_else(|| format!("failpoint clause `{clause}` is missing `=`"))?;
            let (lhs, rhs) = (lhs.trim(), rhs.trim());
            if lhs == "seed" {
                plan.seed = parse_u64(rhs).ok_or_else(|| format!("bad failpoint seed `{rhs}`"))?;
                continue;
            }
            let (site, key) = match lhs.split_once('#') {
                None => (lhs, None),
                Some((site, key)) => {
                    let key = parse_u64(key).ok_or_else(|| format!("bad key in `{clause}`"))?;
                    (site, Some(key))
                }
            };
            let mut parts = rhs.split('@');
            let action = parse_action(parts.next().unwrap_or_default())
                .ok_or_else(|| format!("bad failpoint action in `{clause}`"))?;
            let probability = match parts.next() {
                None => 1.0,
                Some(p) => p
                    .parse::<f64>()
                    .ok()
                    .filter(|p| (0.0..=1.0).contains(p))
                    .ok_or_else(|| format!("bad failpoint probability in `{clause}`"))?,
            };
            let max_fires = match parts.next() {
                None => None,
                Some(m) => Some(
                    m.parse::<u64>()
                        .map_err(|_| format!("bad failpoint max_fires in `{clause}`"))?,
                ),
            };
            if parts.next().is_some() {
                return Err(format!(
                    "too many `@` fields in failpoint clause `{clause}`"
                ));
            }
            let spec = SiteSpec {
                action,
                probability,
                max_fires,
            };
            plan = plan.clause(site, key, spec);
        }
        Ok(plan)
    }

    /// Parses `ARCHPREDICT_FAILPOINTS` into a plan to [`enter`] (`None` if
    /// unset or empty); a malformed plan is an `Err` to treat as fatal,
    /// never a silently unfaulted "chaos" run.
    pub fn from_env() -> Result<Option<Arc<Plan>>, String> {
        match std::env::var(ENV_FAILPOINTS) {
            Ok(text) if !text.trim().is_empty() => Plan::parse(&text).map(|p| Some(Arc::new(p))),
            _ => Ok(None),
        }
    }
}

/// Renders the plan in the clause syntax [`Plan::parse`] reads.
impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed={:#x}", self.seed)?;
        for Clause { site, key, spec } in &self.clauses {
            write!(f, ";{site}")?;
            if let Some(key) = key {
                write!(f, "#{key}")?;
            }
            match spec.action {
                FailAction::Error => write!(f, "=error")?,
                FailAction::Torn => write!(f, "=torn")?,
                FailAction::Panic => write!(f, "=panic")?,
                FailAction::Abort => write!(f, "=abort")?,
                FailAction::Exit(code) => write!(f, "=exit:{code}")?,
                FailAction::Delay(d) => write!(f, "=delay:{}", d.as_millis())?,
            }
            write!(f, "@{}", spec.probability)?;
            if let Some(max) = spec.max_fires {
                write!(f, "@{max}")?;
            }
        }
        Ok(())
    }
}

fn parse_u64(text: &str) -> Option<u64> {
    if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        text.parse().ok()
    }
}

fn parse_action(text: &str) -> Option<FailAction> {
    match text {
        "error" => Some(FailAction::Error),
        "torn" => Some(FailAction::Torn),
        "panic" => Some(FailAction::Panic),
        "abort" => Some(FailAction::Abort),
        _ => {
            if let Some(code) = text.strip_prefix("exit:") {
                code.parse().ok().map(FailAction::Exit)
            } else if let Some(ms) = text.strip_prefix("delay:") {
                ms.parse()
                    .ok()
                    .map(|ms| FailAction::Delay(Duration::from_millis(ms)))
            } else {
                None
            }
        }
    }
}

thread_local! {
    /// The plan the calling thread's site checks consult.
    static ACTIVE: RefCell<Option<Arc<Plan>>> = const { RefCell::new(None) };
}

/// The calling thread's active plan: capture it before spawning a thread
/// and [`enter`] it inside.
pub fn active() -> Option<Arc<Plan>> {
    ACTIVE.with(|a| a.borrow().clone())
}

/// Makes `plan` (or no plan) active on the calling thread until the
/// returned guard drops, restoring the previous one.
pub fn enter(plan: impl Into<Option<Arc<Plan>>>) -> PlanScope {
    let previous = ACTIVE.with(|a| a.replace(plan.into()));
    PlanScope { previous }
}

/// Guard restoring the thread's previous plan on drop.
#[must_use = "dropping the scope immediately leaves the plan"]
pub struct PlanScope {
    previous: Option<Arc<Plan>>,
}

impl Drop for PlanScope {
    fn drop(&mut self) {
        let previous = self.previous.take();
        ACTIVE.with(|a| *a.borrow_mut() = previous);
    }
}

/// Checks `site` under [`NO_KEY`] against the calling thread's active
/// plan; `None` when no plan is active or the site is not armed.
pub fn check(site: &str) -> Option<Failure> {
    active()?.fire(site, NO_KEY)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fires(plan: &Plan, site: &str, key: u64, checks: usize) -> Vec<bool> {
        (0..checks)
            .map(|_| plan.fire(site, key).is_some())
            .collect()
    }

    fn error_at(probability: f64, max_fires: Option<u64>) -> SiteSpec {
        SiteSpec {
            action: FailAction::Error,
            probability,
            max_fires,
        }
    }

    #[test]
    fn disarmed_sites_never_fire() {
        for _ in 0..100 {
            assert!(check("persist.write_atomic").is_none());
        }
    }

    #[test]
    fn unconfigured_sites_are_inert_even_when_armed() {
        let plan = Plan::new(1).site("some.other.site", SiteSpec::once(FailAction::Error));
        let _scope = enter(Arc::new(plan));
        for _ in 0..100 {
            assert!(check("persist.write_atomic").is_none());
        }
        assert!(
            check("some.other.site").is_some(),
            "the armed site still fires"
        );
    }

    #[test]
    fn once_spec_fires_exactly_once() {
        let plan = Plan::new(7).site("site.a", SiteSpec::once(FailAction::Error));
        let outcomes = fires(&plan, "site.a", NO_KEY, 50);
        assert_eq!(outcomes.iter().filter(|f| **f).count(), 1);
        assert!(outcomes[0], "probability 1.0 fires on the first check");
    }

    #[test]
    fn schedule_is_a_pure_function_of_seed_site_and_hit() {
        let spec = error_at(0.3, None);
        let run = |seed: u64| fires(&Plan::new(seed).site("site.det", spec), "site.det", 5, 200);
        let first = run(0x5EED);
        assert_eq!(first, run(0x5EED), "same seed, same schedule");
        let count = first.iter().filter(|f| **f).count();
        assert!(
            (20..=120).contains(&count),
            "p=0.3 over 200 checks: {count}"
        );
        assert_ne!(first, run(0x0DD), "different seed, different schedule");
    }

    /// A key's outcomes do not depend on how many checks other keys
    /// received, or in what order.
    #[test]
    fn keyed_outcomes_ignore_other_keys_checks() {
        let plan = || Plan::new(0xBEEF).site("fault.x", error_at(0.4, Some(20)));
        let alone = fires(&plan(), "fault.x", 7, 60);
        for stride in [1u64, 3, 5] {
            let noisy = plan();
            let mut outcomes = Vec::new();
            for n in 0..60u64 {
                for other in 0..n % stride + 1 {
                    noisy.fire("fault.x", 100 + other * 31 + n);
                }
                outcomes.push(noisy.fire("fault.x", 7).is_some());
            }
            assert_eq!(outcomes, alone, "stride {stride} perturbed key 7");
        }
        // Forward and reverse key order give every key the same outcome.
        let (forward, backward) = (plan(), plan());
        let a: Vec<bool> = (0..40)
            .map(|k| forward.fire("fault.x", k).is_some())
            .collect();
        let mut b: Vec<bool> = (0..40)
            .rev()
            .map(|k| backward.fire("fault.x", k).is_some())
            .collect();
        b.reverse();
        assert_eq!(a, b);
    }

    #[test]
    fn keyed_clause_targets_one_key_and_outranks_the_unkeyed_one() {
        let plan = Plan::new(3)
            .site("fault.y", SiteSpec::always(FailAction::Error))
            .keyed("fault.y", 42, SiteSpec::once(FailAction::Error));
        assert_eq!(fires(&plan, "fault.y", 42, 4), [true, false, false, false]);
        assert!(fires(&plan, "fault.y", 41, 4).iter().all(|f| *f));
        let only = Plan::new(3).keyed("fault.z", 9, SiteSpec::always(FailAction::Error));
        assert!(fires(&only, "fault.z", 8, 20).iter().all(|f| !*f));
        assert!(fires(&only, "fault.z", 9, 3).iter().all(|f| *f));
    }

    /// Two threads enter different plans for the same site at the same
    /// time; each sees exactly its own schedule.
    #[test]
    fn concurrent_threads_see_only_their_own_plans() {
        let barrier = std::sync::Barrier::new(2);
        let run = |plan: Plan| {
            let _scope = enter(Arc::new(plan));
            barrier.wait();
            let outcomes: Vec<bool> = (0..200).map(|_| check("shared.site").is_some()).collect();
            barrier.wait();
            outcomes
        };
        let (always, never) = std::thread::scope(|scope| {
            let always = Plan::new(1).site("shared.site", SiteSpec::always(FailAction::Error));
            let a = scope.spawn(|| run(always));
            let b = scope.spawn(|| run(Plan::new(2)));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert!(always.iter().all(|f| *f), "the armed thread missed fires");
        assert!(never.iter().all(|f| !*f), "the other plan leaked in");
        assert!(active().is_none(), "the test thread never entered a plan");
    }

    #[test]
    fn scopes_nest_and_restore() {
        let (outer, inner) = (Arc::new(Plan::new(1)), Arc::new(Plan::new(2)));
        let is = |plan: &Arc<Plan>| active().is_some_and(|a| Arc::ptr_eq(&a, plan));
        {
            let _outer = enter(outer.clone());
            {
                let _inner = enter(inner.clone());
                assert!(is(&inner));
                let _none = enter(None);
                assert!(active().is_none());
            }
            assert!(is(&outer));
        }
        assert!(active().is_none());
    }

    #[test]
    fn delay_action_sleeps_then_proceeds() {
        let delay = SiteSpec::once(FailAction::Delay(Duration::from_millis(30)));
        let plan = Plan::new(3).site("site.slow", delay);
        let start = std::time::Instant::now();
        assert!(
            plan.fire("site.slow", NO_KEY).is_none(),
            "delay does not fail the call"
        );
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn env_syntax_round_trips() {
        let text = "seed=0xc0ffee;registry.commit.entry=error@0.25@3;\
                    persist.write_atomic=torn@1@1;serve.handler=delay:15@0.5;\
                    distributed.worker.eval=abort@1@1;fault.crashed#1234=error@1;\
                    fault.non_finite#0=panic@1;site.exit=exit:9@0.020408163265306124@2";
        let plan = Plan::parse(text).expect("valid plan");
        assert_eq!(plan.to_string(), text, "render(parse(text)) == text");
        let built = Plan::new(0xC0FFEE)
            .site("registry.commit.entry", error_at(0.25, Some(3)))
            .site("persist.write_atomic", SiteSpec::once(FailAction::Torn))
            .site(
                "serve.handler",
                SiteSpec {
                    action: FailAction::Delay(Duration::from_millis(15)),
                    probability: 0.5,
                    max_fires: None,
                },
            )
            .site("distributed.worker.eval", SiteSpec::once(FailAction::Abort))
            .keyed("fault.crashed", 1_234, SiteSpec::always(FailAction::Error))
            .keyed("fault.non_finite", 0, SiteSpec::always(FailAction::Panic))
            .site(
                "site.exit",
                SiteSpec {
                    action: FailAction::Exit(9),
                    probability: 0.020408163265306124,
                    max_fires: Some(2),
                },
            );
        assert_eq!(built.to_string(), text, "the chained plan renders it");
        // The parsed `#key` clause targets exactly its key.
        assert!(plan.fire("fault.crashed", 1_233).is_none());
        assert!(plan.fire("fault.crashed", 1_234).is_some());
        let hex = Plan::parse("seed=7;fault.crashed#0x10=error@1").expect("hex key");
        assert_eq!(hex.to_string(), "seed=0x7;fault.crashed#16=error@1");
    }

    #[test]
    fn malformed_plans_are_rejected() {
        for bad in [
            "no-equals-sign",
            "seed=zzz",
            "site=frobnicate@1",
            "site=error@1.5",
            "site=error@-0.1",
            "site=error@0.5@x",
            "site=error@0.5@1@extra",
            "site=delay:abc@1",
            "site=exit:abc@1",
            "site#=error@1",
            "site#abc=error@1",
            "site#-1=error@1",
            "site#1#2=error@1",
            "site#18446744073709551616=error@1",
        ] {
            assert!(Plan::parse(bad).is_err(), "`{bad}` should be rejected");
        }
        // Empty clauses and whitespace are tolerated.
        let plan = Plan::parse(" seed=7 ; ; a.b=error@0.5 ").expect("valid");
        assert_eq!(plan.to_string(), "seed=0x7;a.b=error@0.5");
    }
}
