//! **pc-faults** — seeded, deterministic fault injection.
//!
//! A [`FaultPlan`] maps *site names* (stable string keys compiled into the
//! code, e.g. `persist.write`, `wire.read`, `store.score`) to
//! a [`Trigger`] (when the site fires) and an [`Action`] (what happens when
//! it does). Installing a plan arms the process-wide registry; call sites
//! probe it with [`fail_point`] / [`check`], which cost one atomic load when
//! no plan is installed.
//!
//! Decisions are **deterministic**: the `k`-th probe of a site draws its
//! verdict from `mix64(seed, site, k)`, so two runs with the same plan and
//! the same per-site probe counts inject exactly the same faults — the
//! replay property chaos experiments rely on. Thread interleavings may remap
//! *which* request absorbs the `k`-th verdict, but never how many fire.
//!
//! Plan specs are one-line strings, suitable for a CLI flag or environment
//! variable:
//!
//! ```text
//! seed=42;persist.write=p0.5;store.score=n3;wire.read=p0.1:stall250
//!         └ fire 50% of probes  └ fire on the 3rd probe only
//!                                          └ when fired, stall 250 ms instead of failing
//! ```
//!
//! Triggers: `p<prob>` (each probe fires independently with that
//! probability) or `n<k>` (one-shot: exactly the `k`-th probe fires,
//! 1-based). Actions: `fail` (default — the site raises its natural error:
//! an I/O error for persistence and wire sites, a panic for `store.score`) or
//! `stall<ms>` (the probe sleeps, then proceeds — for exercising deadlines
//! and for holding a save open while a test delivers SIGKILL).
//!
//! ```
//! use pc_faults::{FaultPlan, Action};
//!
//! let plan = FaultPlan::parse("seed=7;persist.write=n1").unwrap();
//! let injector = pc_faults::Injector::new(plan);
//! assert_eq!(injector.check("persist.write"), Some(Action::Fail)); // 1st probe
//! assert_eq!(injector.check("persist.write"), None); // one-shot is spent
//! assert_eq!(injector.check("unplanned.site"), None);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use parking_lot::RwLock;
use pc_stats::mix64;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Every fault-site name compiled into the workspace, sorted. A site name
/// used at an injection point but absent here would silently never fire
/// from a plan that spells it the same wrong way — so `pc analyze` (W004)
/// cross-checks both directions against this registry.
pub const SITES: &[&str] = &[
    "persist.fsync",
    "persist.load",
    "persist.rename",
    "persist.write",
    "ring.forward",
    "ring.probe",
    "store.score",
    "wire.read",
    "wire.write",
];

/// When a site fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Each probe fires independently with this probability in `[0, 1]`.
    Probability(f64),
    /// Exactly the `k`-th probe fires (1-based), then the site disarms.
    Nth(u64),
}

/// What happens when a site fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// The site raises its natural error (I/O error, panic, ...).
    Fail,
    /// The probe sleeps this many milliseconds, then proceeds normally.
    Stall(u64),
}

/// One site's rule: a trigger and the action it releases.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteRule {
    /// When the site fires.
    pub trigger: Trigger,
    /// What happens when it does.
    pub action: Action,
}

/// A parsed fault plan: a seed plus per-site rules.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    seed: u64,
    sites: BTreeMap<String, SiteRule>,
}

/// A malformed plan spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanParseError(String);

impl fmt::Display for PlanParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault plan: {}", self.0)
    }
}

impl std::error::Error for PlanParseError {}

impl FaultPlan {
    /// An empty plan (no sites armed).
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            sites: BTreeMap::new(),
        }
    }

    /// Arms `site` with `rule`, replacing any previous rule for it.
    pub fn arm(mut self, site: &str, rule: SiteRule) -> Self {
        self.sites.insert(site.to_string(), rule);
        self
    }

    /// Parses a `seed=N;site=trigger[:action];...` spec.
    ///
    /// # Errors
    ///
    /// [`PlanParseError`] naming the offending clause.
    pub fn parse(spec: &str) -> Result<Self, PlanParseError> {
        let bad = |m: String| PlanParseError(m);
        let mut plan = FaultPlan::default();
        for clause in spec.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| bad(format!("clause {clause:?} is not `key=value`")))?;
            let (key, value) = (key.trim(), value.trim());
            if key == "seed" {
                plan.seed = value
                    .parse()
                    .map_err(|_| bad(format!("unparsable seed {value:?}")))?;
                continue;
            }
            if key.is_empty() {
                return Err(bad(format!("empty site name in {clause:?}")));
            }
            let (trigger_text, action_text) = match value.split_once(':') {
                Some((t, a)) => (t, Some(a)),
                None => (value, None),
            };
            let trigger = match trigger_text.split_at_checked(1) {
                Some(("p", p)) => {
                    let p: f64 = p
                        .parse()
                        .map_err(|_| bad(format!("unparsable probability in {clause:?}")))?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(bad(format!("probability out of [0, 1] in {clause:?}")));
                    }
                    Trigger::Probability(p)
                }
                Some(("n", n)) => {
                    let n: u64 = n
                        .parse()
                        .map_err(|_| bad(format!("unparsable probe index in {clause:?}")))?;
                    if n == 0 {
                        return Err(bad(format!("probe index is 1-based in {clause:?}")));
                    }
                    Trigger::Nth(n)
                }
                _ => {
                    return Err(bad(format!(
                        "trigger must be p<prob> or n<k> in {clause:?}"
                    )))
                }
            };
            let action = match action_text {
                None | Some("fail") => Action::Fail,
                Some(a) => match a.strip_prefix("stall") {
                    Some(ms) => Action::Stall(
                        ms.parse()
                            .map_err(|_| bad(format!("unparsable stall in {clause:?}")))?,
                    ),
                    None => return Err(bad(format!("unknown action {a:?} in {clause:?}"))),
                },
            };
            plan.sites
                .insert(key.to_string(), SiteRule { trigger, action });
        }
        Ok(plan)
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether no site is armed.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// The canonical spec string (parses back to an equal plan).
    pub fn to_spec(&self) -> String {
        let mut out = format!("seed={}", self.seed);
        for (site, rule) in &self.sites {
            out.push(';');
            out.push_str(site);
            out.push('=');
            match rule.trigger {
                Trigger::Probability(p) => out.push_str(&format!("p{p}")),
                Trigger::Nth(n) => out.push_str(&format!("n{n}")),
            }
            match rule.action {
                Action::Fail => {}
                Action::Stall(ms) => out.push_str(&format!(":stall{ms}")),
            }
        }
        out
    }
}

/// Per-site runtime state: the rule plus probe/fire accounting.
struct SiteState {
    rule: SiteRule,
    probes: AtomicU64,
    fired: AtomicU64,
}

/// An armed fault plan: deterministic per-site verdicts plus accounting.
///
/// Most code probes the process-wide injector through [`fail_point`] /
/// [`check`]; owning an `Injector` directly is for unit tests that need
/// isolation from the global registry.
pub struct Injector {
    seed: u64,
    spec: String,
    sites: BTreeMap<String, SiteState>,
}

impl Injector {
    /// Arms `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let spec = plan.to_spec();
        let sites = plan
            .sites
            .into_iter()
            .map(|(site, rule)| {
                (
                    site,
                    SiteState {
                        rule,
                        probes: AtomicU64::new(0),
                        fired: AtomicU64::new(0),
                    },
                )
            })
            .collect();
        Self {
            seed: plan.seed,
            spec,
            sites,
        }
    }

    /// The canonical spec of the armed plan.
    pub fn spec(&self) -> &str {
        &self.spec
    }

    /// Probes `site`: returns the action to take if the site fires now.
    ///
    /// [`Action::Stall`] is returned (not slept) so callers control where
    /// the stall lands; [`fail_point`] handles it for the common case.
    pub fn check(&self, site: &str) -> Option<Action> {
        let state = self.sites.get(site)?;
        let k = state.probes.fetch_add(1, Ordering::Relaxed);
        let fires = match state.rule.trigger {
            Trigger::Nth(n) => k + 1 == n,
            Trigger::Probability(p) => {
                // The k-th verdict of a site is a pure function of
                // (seed, site, k): replayable regardless of interleaving.
                let word = mix64(self.seed ^ site_key(site) ^ mix64(k));
                ((word >> 11) as f64) * (1.0 / 9_007_199_254_740_992.0) < p
            }
        };
        if fires {
            state.fired.fetch_add(1, Ordering::Relaxed);
            Some(state.rule.action)
        } else {
            None
        }
    }

    /// Per-site `(site, probes, fired)` accounting, in site order.
    pub fn snapshot(&self) -> Vec<(String, u64, u64)> {
        self.sites
            .iter()
            .map(|(site, s)| {
                (
                    site.clone(),
                    s.probes.load(Ordering::Relaxed),
                    s.fired.load(Ordering::Relaxed),
                )
            })
            .collect()
    }

    /// Total faults fired across all sites.
    pub fn total_fired(&self) -> u64 {
        self.sites
            .values()
            .map(|s| s.fired.load(Ordering::Relaxed))
            .sum()
    }
}

fn site_key(site: &str) -> u64 {
    // FNV-1a over the site name, folded through mix64.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in site.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
    }
    mix64(h)
}

/// The process-wide registry. `ARMED` makes the disarmed fast path one
/// relaxed atomic load; the lock is only taken when a plan is installed.
static ARMED: AtomicBool = AtomicBool::new(false);
static REGISTRY: RwLock<Option<Arc<Injector>>> = RwLock::new(None);

/// Arms `plan` process-wide, replacing any previous plan. Returns the
/// injector for accounting ([`Injector::snapshot`]).
pub fn install(plan: FaultPlan) -> Arc<Injector> {
    let injector = Arc::new(Injector::new(plan));
    *REGISTRY.write() = Some(Arc::clone(&injector));
    ARMED.store(true, Ordering::Release);
    injector
}

/// Disarms the process-wide registry.
pub fn uninstall() {
    ARMED.store(false, Ordering::Release);
    *REGISTRY.write() = None;
}

/// The currently armed injector, if any.
pub fn active() -> Option<Arc<Injector>> {
    if !ARMED.load(Ordering::Acquire) {
        return None;
    }
    REGISTRY.read().clone()
}

/// Probes `site` against the process-wide plan. Stalls are slept here;
/// `true` means the site must raise its natural error.
pub fn fail_point(site: &str) -> bool {
    match check(site) {
        Some(Action::Fail) => true,
        Some(Action::Stall(_)) | None => false,
    }
}

/// Probes `site` against the process-wide plan, sleeping out stalls and
/// returning the fired action (a returned stall has already been slept).
pub fn check(site: &str) -> Option<Action> {
    let injector = active()?;
    let action = injector.check(site)?;
    if let Action::Stall(ms) = action {
        std::thread::sleep(Duration::from_millis(ms));
    }
    Some(action)
}

/// The canonical injected-fault error for `site`, as an I/O error. The
/// message prefix (`injected fault at`) is the marker chaos harnesses use to
/// separate injected failures from organic ones.
pub fn injected_io(site: &str) -> std::io::Error {
    std::io::Error::other(format!("injected fault at {site}"))
}

/// Whether an error message reports an injected fault.
pub fn is_injected_message(message: &str) -> bool {
    message.contains("injected fault at ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_canonical_spec() {
        let spec = "seed=42;persist.write=p0.5;store.score=n3;wire.read=p0.1:stall250";
        let plan = FaultPlan::parse(spec).unwrap();
        assert_eq!(plan.seed(), 42);
        assert_eq!(FaultPlan::parse(&plan.to_spec()).unwrap(), plan);
        assert_eq!(
            plan.sites["store.score"],
            SiteRule {
                trigger: Trigger::Nth(3),
                action: Action::Fail
            }
        );
        assert_eq!(
            plan.sites["wire.read"],
            SiteRule {
                trigger: Trigger::Probability(0.1),
                action: Action::Stall(250)
            }
        );
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "persist.write",      // no `=`
            "seed=x",             // unparsable seed
            "=p0.5",              // empty site
            "a.b=q0.5",           // unknown trigger
            "a.b=p1.5",           // probability out of range
            "a.b=n0",             // probe index is 1-based
            "a.b=p0.5:explode",   // unknown action
            "a.b=p0.5:stallfast", // unparsable stall
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn empty_clauses_and_whitespace_are_tolerated() {
        let plan = FaultPlan::parse(" seed=1 ; ; a.b = n1 ;").unwrap();
        assert_eq!(plan.seed(), 1);
        assert_eq!(plan.sites.len(), 1);
    }

    #[test]
    fn nth_trigger_fires_exactly_once() {
        let injector = Injector::new(FaultPlan::parse("a.b=n3").unwrap());
        let fired: Vec<bool> = (0..6).map(|_| injector.check("a.b").is_some()).collect();
        assert_eq!(fired, [false, false, true, false, false, false]);
        assert_eq!(injector.snapshot(), vec![("a.b".to_string(), 6, 1)]);
    }

    #[test]
    fn probability_verdicts_replay_exactly() {
        let plan = FaultPlan::parse("seed=9;a.b=p0.3").unwrap();
        let run = |plan: FaultPlan| -> Vec<bool> {
            let injector = Injector::new(plan);
            (0..200).map(|_| injector.check("a.b").is_some()).collect()
        };
        let first = run(plan.clone());
        assert_eq!(first, run(plan), "same plan must replay the same verdicts");
        let fired = first.iter().filter(|&&f| f).count();
        assert!((30..=90).contains(&fired), "p0.3 over 200 probes: {fired}");
    }

    #[test]
    fn probability_extremes() {
        let always = Injector::new(FaultPlan::parse("a=p1.0").unwrap());
        let never = Injector::new(FaultPlan::parse("a=p0.0").unwrap());
        for _ in 0..50 {
            assert_eq!(always.check("a"), Some(Action::Fail));
            assert_eq!(never.check("a"), None);
        }
    }

    #[test]
    fn unarmed_sites_are_no_ops() {
        let injector = Injector::new(FaultPlan::parse("a=p1.0").unwrap());
        assert_eq!(injector.check("other"), None);
    }

    // The one test that touches the process-wide registry (parallel tests
    // sharing it would race).
    #[test]
    fn install_check_uninstall_cycle() {
        let injector = install(FaultPlan::parse("x.y=n1").unwrap());
        assert!(fail_point("x.y"));
        assert!(!fail_point("x.y"));
        assert_eq!(injector.total_fired(), 1);
        uninstall();
        assert!(!fail_point("x.y"));
        assert!(active().is_none());
    }

    #[test]
    fn injected_error_marker_roundtrips() {
        let e = injected_io("persist.write");
        assert!(is_injected_message(&e.to_string()));
        assert!(!is_injected_message("disk full"));
    }

    #[test]
    fn site_registry_is_sorted_and_unique() {
        let mut sorted = SITES.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(SITES, sorted.as_slice(), "SITES must be sorted, no dupes");
    }
}
