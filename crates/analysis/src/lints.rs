//! The lint catalog: every invariant `pc analyze` enforces, as a named,
//! individually-suppressible rule.
//!
//! Families mirror the invariants the reproduction rests on:
//!
//! * **D — determinism.** Alg. 1–4, the stitcher, persistence, and the
//!   packed kernels must be bit-for-bit reproducible; anything
//!   iteration-order- or clock-dependent is banned outside the telemetry
//!   "timing" phase.
//! * **P — panic-safety.** The service's request-handling and worker-pool
//!   paths must answer every request; `catch_unwind` respawn is a last
//!   resort, not a control-flow mechanism.
//! * **U — unsafe hygiene.** `unsafe` blocks carry `// SAFETY:` comments;
//!   invariant-skipping constructors stay in their allowlisted homes.
//! * **W — wire/telemetry contracts.** Protocol variants have codec
//!   roundtrip tests; referenced counters and spans are declared in the
//!   catalog (and declared names stay referenced).
//! * **A — analyzer hygiene.** Suppression comments are well-formed.
//!
//! Suppression syntax (same line or the line above the finding):
//!
//! ```text
//! // pc-allow: D002 — read deadlines are wall-clock by design
//! ```

/// One lint's identity and documentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lint {
    /// Stable id (`D001`, `P002`, …) used in findings, baselines, and
    /// `pc-allow` comments.
    pub id: &'static str,
    /// Short kebab-case name.
    pub name: &'static str,
    /// What the lint enforces, and where.
    pub summary: &'static str,
}

/// Every lint, in id order — the single source of truth for `--list`,
/// suppression validation, and the README catalog.
pub const LINTS: &[Lint] = &[
    Lint {
        id: "A001",
        name: "malformed-suppression",
        summary: "a pc-allow comment must name known lint ids and give a reason \
                  after an em dash or ` - `",
    },
    Lint {
        id: "C001",
        name: "lock-order-cycle",
        summary: "the held-before graph over crates/{service,kernels,telemetry}/src \
                  must be acyclic; every edge inside a cycle is a potential AB/BA \
                  deadlock and gets its own finding",
    },
    Lint {
        id: "C002",
        name: "reentrant-acquisition",
        summary: "a call path must not re-acquire a non-reentrant lock it already \
                  holds (the PR 8 fan_out_save deadlock class), directly or through \
                  the conservative call graph",
    },
    Lint {
        id: "C003",
        name: "lock-held-across-blocking",
        summary: "no lock held across wire I/O, thread parking (sleep/park/recv/\
                  empty-paren join, or a condvar wait, which releases only its \
                  own guard), fsync, or a fault-site stall — directly or \
                  through a resolved call",
    },
    Lint {
        id: "C004",
        name: "guard-escapes-scope",
        summary: "MutexGuard/RwLock guards must not be returned from functions or \
                  stored in struct fields; escaping guards defeat scope-based \
                  hold-time reasoning",
    },
    Lint {
        id: "D001",
        name: "hash-collections",
        summary: "std HashMap/HashSet banned (iteration order is seeded per process); \
                  use BTreeMap/BTreeSet or sort before iterating",
    },
    Lint {
        id: "D002",
        name: "wall-clock",
        summary: "Instant::now/SystemTime::now banned outside crates/telemetry and \
                  crates/bench (non-test code only); timing belongs to the telemetry \
                  \"timing\" phase",
    },
    Lint {
        id: "D003",
        name: "unseeded-rng",
        summary: "thread_rng/from_entropy banned outside crates/telemetry and \
                  crates/bench (non-test code only); every random stream takes an \
                  explicit seed",
    },
    Lint {
        id: "P001",
        name: "unwrap",
        summary: ".unwrap() banned in crates/service/src outside test modules; \
                  request paths return typed errors",
    },
    Lint {
        id: "P002",
        name: "expect",
        summary: ".expect(…) banned in crates/service/src outside test modules; \
                  request paths return typed errors",
    },
    Lint {
        id: "P003",
        name: "panic-macro",
        summary: "panic!/unreachable!/todo!/unimplemented! banned in \
                  crates/service/src outside test modules",
    },
    Lint {
        id: "P004",
        name: "direct-index",
        summary: "slice/map indexing (`xs[i]`) banned in crates/service/src outside \
                  test modules; use .get()/.get_mut() and handle the miss",
    },
    Lint {
        id: "U001",
        name: "unsafe-without-safety-comment",
        summary: "every `unsafe` needs a `// SAFETY:` comment on the same line or \
                  within the three lines above",
    },
    Lint {
        id: "U002",
        name: "unchecked-outside-allowlist",
        summary: "from_sorted_unchecked may only be referenced in its home module \
                  (crates/core/src/bits.rs)",
    },
    Lint {
        id: "U003",
        name: "unsafe-outside-allowlist",
        summary: "`unsafe` code may only appear in the audited SIMD kernel module \
                  (crates/kernels/src/simd.rs) and the counting-allocator tests \
                  (crates/kernels/tests/alloc_discipline.rs, \
                  crates/service/tests/checkpoint_alloc.rs); everything else \
                  stays forbid(unsafe_code)-clean",
    },
    Lint {
        id: "W001",
        name: "protocol-roundtrip",
        summary: "every Request/Response variant in crates/service/src/protocol.rs \
                  must appear in a *roundtrip* codec test",
    },
    Lint {
        id: "W002",
        name: "metric-undeclared",
        summary: "every counter!/time!(\"…\") name must be declared in the \
                  matching COUNTERS/SPANS list of crates/telemetry/src/catalog.rs",
    },
    Lint {
        id: "W003",
        name: "metric-unreferenced",
        summary: "every name declared in the COUNTERS/SPANS lists of \
                  crates/telemetry/src/catalog.rs must be referenced by some \
                  counter!/time!(\"…\") site",
    },
    Lint {
        id: "W004",
        name: "fault-site-unregistered",
        summary: "every fail_point/injected_io/check(\"…\") site name must be \
                  declared in crates/faults/src/lib.rs::SITES (and every declared \
                  site must have a reference), so a typo'd site can never silently \
                  never-fire",
    },
];

/// Looks up a lint by id.
pub fn lint(id: &str) -> Option<&'static Lint> {
    LINTS.iter().find(|l| l.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_sorted_and_unique() {
        let ids: Vec<&str> = LINTS.iter().map(|l| l.id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(ids, sorted, "LINTS must be in sorted id order, no dupes");
    }

    #[test]
    fn lookup_finds_every_lint() {
        for l in LINTS {
            assert_eq!(lint(l.id).map(|x| x.name), Some(l.name));
        }
        assert!(lint("Z999").is_none());
    }
}
