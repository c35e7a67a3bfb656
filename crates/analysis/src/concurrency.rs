//! Cross-function concurrency lints (the C family), computed over the
//! per-file summaries extracted by [`crate::sema`].
//!
//! The call graph is deliberately conservative: an edge exists only when
//! the callee name resolves to **exactly one** non-test `fn` definition in
//! the workspace and is not on a stoplist of std-colliding names (`len`,
//! `push`, `clone`, …). A missed edge costs a missed finding; a wrong
//! edge costs a false positive that somebody `pc-allow`s away and never
//! reads again — so precision wins.
//!
//! Summaries propagate to a fixpoint: each function's transitive
//! lock-acquisition and blocking sets grow monotonically through resolved
//! calls, carrying a witness chain of function names for the report.
//!
//! Findings are emitted only for functions in the shipped concurrency
//! surface — `crates/service/src`, `crates/kernels/src`,
//! `crates/telemetry/src` — though summaries are computed workspace-wide
//! so e.g. `pc-core` persistence fsyncs propagate into service callers.

use std::collections::{BTreeMap, BTreeSet};

use crate::sema::{BlockKind, FnDef, GuardField};

/// Callee names never resolved, even when uniquely defined: they collide
/// with std/container methods, so a textual match is meaningless.
const STOPLIST: &[&str] = &[
    "new",
    "default",
    "len",
    "is_empty",
    "push",
    "pop",
    "push_back",
    "pop_front",
    "insert",
    "get",
    "get_mut",
    "remove",
    "clear",
    "clone",
    "truncate",
    "drain",
    "contains",
    "contains_key",
    "iter",
    "into_iter",
    "next",
    "send",
    "extend",
    "fmt",
    "from",
    "into",
    "as_str",
    "to_string",
    "to_vec",
    "min",
    "max",
    "sum",
    "map",
    "filter",
    "collect",
    "flush",
    "write_all",
    "join",
    "run",
    "start",
    "stop",
    "close",
    "reset",
    "shutdown",
    "snapshot",
    "spawn",
    "recv",
];

/// File prefixes whose non-test functions get C-family findings.
const SCOPE: &[&str] = &[
    "crates/service/src/",
    "crates/kernels/src/",
    "crates/telemetry/src/",
];

/// A cross-function finding, positioned at its witness line.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CrossFinding {
    /// Lint id (`C001` … `C004`).
    pub lint: &'static str,
    /// Workspace-relative file of the witness.
    pub file: String,
    /// 1-based witness line.
    pub line: usize,
    /// Rendered message.
    pub message: String,
}

/// Transitive per-function summary.
#[derive(Debug, Clone, Default)]
struct Summary {
    /// Lock → witness chain of function names below this one (empty for a
    /// direct acquisition).
    acquires: BTreeMap<String, Vec<String>>,
    /// Blocking kind → (token, witness chain).
    blocks: BTreeMap<BlockKind, (String, Vec<String>)>,
}

/// Runs every C lint over the extracted functions and guard fields.
pub fn check(fns: &[FnDef], guard_fields: &[GuardField]) -> Vec<CrossFinding> {
    let resolve = build_resolver(fns);
    let summaries = fixpoint(fns, &resolve);

    let mut out: BTreeSet<CrossFinding> = BTreeSet::new();
    check_lock_order(fns, &resolve, &summaries, &mut out);
    check_reentrancy(fns, &resolve, &summaries, &mut out);
    check_blocking(fns, &resolve, &summaries, &mut out);
    check_guard_escape(fns, guard_fields, &mut out);
    out.into_iter().collect()
}

/// Whether a function is in the reporting scope.
fn in_scope(f: &FnDef) -> bool {
    !f.in_test && SCOPE.iter().any(|p| f.file.starts_with(p))
}

/// Callee name → unique defining index, for resolvable names only.
fn build_resolver(fns: &[FnDef]) -> BTreeMap<String, usize> {
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        if !f.in_test {
            by_name.entry(f.name.as_str()).or_default().push(i);
        }
    }
    by_name
        .into_iter()
        .filter(|(name, defs)| defs.len() == 1 && !STOPLIST.contains(name))
        .map(|(name, defs)| (name.to_string(), defs[0]))
        .collect()
}

/// Propagates acquisition/blocking summaries through resolved calls until
/// stable. Monotone (entries are only added, never changed), so this
/// terminates even on recursive call graphs.
fn fixpoint(fns: &[FnDef], resolve: &BTreeMap<String, usize>) -> Vec<Summary> {
    let mut summaries: Vec<Summary> = fns
        .iter()
        .map(|f| {
            let mut s = Summary::default();
            for a in &f.acquires {
                s.acquires.entry(a.lock.clone()).or_default();
            }
            for b in &f.blocking {
                s.blocks
                    .entry(b.kind)
                    .or_insert_with(|| (b.token.clone(), Vec::new()));
            }
            s
        })
        .collect();

    loop {
        let mut changed = false;
        for i in 0..fns.len() {
            for call in &fns[i].calls {
                let Some(&j) = resolve.get(&call.callee) else {
                    continue;
                };
                if i == j {
                    continue;
                }
                let callee_sum = summaries[j].clone();
                let callee_name = fns[j].name.clone();
                let s = &mut summaries[i];
                for (lock, chain) in callee_sum.acquires {
                    s.acquires.entry(lock).or_insert_with(|| {
                        changed = true;
                        let mut c = vec![callee_name.clone()];
                        c.extend(chain);
                        c
                    });
                }
                for (kind, (token, chain)) in callee_sum.blocks {
                    s.blocks.entry(kind).or_insert_with(|| {
                        changed = true;
                        let mut c = vec![callee_name.clone()];
                        c.extend(chain);
                        (token, c)
                    });
                }
            }
        }
        if !changed {
            return summaries;
        }
    }
}

/// ` (via a → b)` suffix for a witness chain, empty when direct.
fn via(chain: &[String]) -> String {
    if chain.is_empty() {
        String::new()
    } else {
        format!(" (via {})", chain.join(" → "))
    }
}

/// C001: build the held-before graph (edge `A → B` = lock B acquired, or
/// reachable-acquired through a call, while A is held) and report every
/// edge inside a strongly-connected component — each is one half of a
/// potential AB/BA deadlock.
fn check_lock_order(
    fns: &[FnDef],
    resolve: &BTreeMap<String, usize>,
    summaries: &[Summary],
    out: &mut BTreeSet<CrossFinding>,
) {
    // Edge → first witness (file, line, chain-suffix).
    let mut edges: BTreeMap<(String, String), (String, usize, String)> = BTreeMap::new();
    let mut add = |held: &str, acq: &str, file: &str, line: usize, suffix: String| {
        if held != acq {
            edges.entry((held.to_string(), acq.to_string())).or_insert((
                file.to_string(),
                line,
                suffix,
            ));
        }
    };
    for f in fns.iter().filter(|f| in_scope(f)) {
        for a in &f.acquires {
            for h in &a.held {
                add(h, &a.lock, &f.file, a.line, String::new());
            }
        }
        for c in &f.calls {
            if c.held.is_empty() {
                continue;
            }
            let Some(&j) = resolve.get(&c.callee) else {
                continue;
            };
            for (lock, chain) in &summaries[j].acquires {
                let mut full = vec![fns[j].name.clone()];
                full.extend(chain.iter().cloned());
                for h in &c.held {
                    add(h, lock, &f.file, c.line, via(&full));
                }
            }
        }
    }

    let nodes: BTreeSet<&String> = edges.keys().flat_map(|(a, b)| [a, b]).collect();
    let sccs = tarjan(&nodes, &edges);
    for scc in sccs.iter().filter(|scc| scc.len() > 1) {
        let cycle = {
            let mut m: Vec<&str> = scc.iter().map(String::as_str).collect();
            m.sort_unstable();
            m.join(" → ")
        };
        for ((a, b), (file, line, suffix)) in &edges {
            if scc.contains(a) && scc.contains(b) {
                out.insert(CrossFinding {
                    lint: "C001",
                    file: file.clone(),
                    line: *line,
                    message: format!(
                        "lock-order cycle: {b} acquired while {a} held{suffix} (cycle: {cycle})"
                    ),
                });
            }
        }
    }
}

/// Iterative Tarjan SCC over the lock-order graph.
fn tarjan(
    nodes: &BTreeSet<&String>,
    edges: &BTreeMap<(String, String), (String, usize, String)>,
) -> Vec<BTreeSet<String>> {
    let index_of: BTreeMap<&str, usize> = nodes
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i))
        .collect();
    let names: Vec<&str> = nodes.iter().map(|n| n.as_str()).collect();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); names.len()];
    for (a, b) in edges.keys() {
        adj[index_of[a.as_str()]].push(index_of[b.as_str()]);
    }

    let n = names.len();
    let (mut index, mut low, mut on_stack) = (vec![usize::MAX; n], vec![0usize; n], vec![false; n]);
    let (mut stack, mut sccs, mut counter) = (Vec::new(), Vec::new(), 0usize);
    // Explicit DFS stack: (node, next-edge cursor).
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        let mut dfs: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&(v, cursor)) = dfs.last() {
            if index[v] == usize::MAX {
                index[v] = counter;
                low[v] = counter;
                counter += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = adj[v].get(cursor) {
                if let Some(top) = dfs.last_mut() {
                    top.1 += 1;
                }
                if index[w] == usize::MAX {
                    dfs.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                dfs.pop();
                if let Some(&(parent, _)) = dfs.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut scc = BTreeSet::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        scc.insert(names[w].to_string());
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(scc);
                }
            }
        }
    }
    sccs
}

/// C002: a call path re-acquires a non-reentrant lock it already holds —
/// the PR 8 `fan_out_save` bug class.
fn check_reentrancy(
    fns: &[FnDef],
    resolve: &BTreeMap<String, usize>,
    summaries: &[Summary],
    out: &mut BTreeSet<CrossFinding>,
) {
    for f in fns.iter().filter(|f| in_scope(f)) {
        for a in &f.acquires {
            if a.held.iter().any(|h| h == &a.lock) {
                out.insert(CrossFinding {
                    lint: "C002",
                    file: f.file.clone(),
                    line: a.line,
                    message: format!("re-entrant acquisition of {} (already held)", a.lock),
                });
            }
        }
        for c in &f.calls {
            if c.held.is_empty() {
                continue;
            }
            let Some(&j) = resolve.get(&c.callee) else {
                continue;
            };
            for (lock, chain) in &summaries[j].acquires {
                if c.held.iter().any(|h| h == lock) {
                    out.insert(CrossFinding {
                        lint: "C002",
                        file: f.file.clone(),
                        line: c.line,
                        message: format!(
                            "call to {} re-acquires {} already held{}",
                            c.callee,
                            lock,
                            via(chain)
                        ),
                    });
                }
            }
        }
    }
}

/// C003: a lock held across wire I/O, thread parking, fsync, or a
/// fault-site stall — directly or through a resolved call.
fn check_blocking(
    fns: &[FnDef],
    resolve: &BTreeMap<String, usize>,
    summaries: &[Summary],
    out: &mut BTreeSet<CrossFinding>,
) {
    for f in fns.iter().filter(|f| in_scope(f)) {
        for b in &f.blocking {
            if b.held.is_empty() {
                continue;
            }
            out.insert(CrossFinding {
                lint: "C003",
                file: f.file.clone(),
                line: b.line,
                message: format!(
                    "{} held across {} ({})",
                    b.held.join(", "),
                    b.kind.noun(),
                    b.token
                ),
            });
        }
        for c in &f.calls {
            if c.held.is_empty() {
                continue;
            }
            let Some(&j) = resolve.get(&c.callee) else {
                continue;
            };
            // One finding per callsite: the first (lowest-severity-ordered)
            // blocking kind the callee can reach.
            if let Some((kind, (token, chain))) = summaries[j].blocks.iter().next() {
                out.insert(CrossFinding {
                    lint: "C003",
                    file: f.file.clone(),
                    line: c.line,
                    message: format!(
                        "{} held across call to {}, which performs {} ({}{})",
                        c.held.join(", "),
                        c.callee,
                        kind.noun(),
                        token,
                        via(chain)
                    ),
                });
            }
        }
    }
}

/// C004: a lock guard escapes its acquisition scope — returned from a
/// function or stored into a struct field — defeating scope-based
/// hold-time reasoning (including this analysis).
fn check_guard_escape(
    fns: &[FnDef],
    guard_fields: &[GuardField],
    out: &mut BTreeSet<CrossFinding>,
) {
    for f in fns.iter().filter(|f| in_scope(f)) {
        if let Some(ty) = &f.returns_guard {
            out.insert(CrossFinding {
                lint: "C004",
                file: f.file.clone(),
                line: f.line,
                message: format!("fn {} returns {ty}: lock guard escapes its scope", f.name),
            });
        }
    }
    for g in guard_fields {
        if SCOPE.iter().any(|p| g.file.starts_with(p)) {
            out.insert(CrossFinding {
                lint: "C004",
                file: g.file.clone(),
                line: g.line,
                message: format!("struct field holds {}: lock guard escapes its scope", g.ty),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;
    use crate::sema;

    fn analyze(files: &[(&str, &str)]) -> Vec<CrossFinding> {
        let mut fns = Vec::new();
        let mut guards = Vec::new();
        for (rel, src) in files {
            let lines = lexer::lex(src);
            let n = lines.len();
            let mut depth_start = vec![0i32; n];
            let mut depth = 0i32;
            for (i, line) in lines.iter().enumerate() {
                depth_start[i] = depth;
                depth += line.code.chars().fold(0, |d, c| match c {
                    '{' => d + 1,
                    '}' => d - 1,
                    _ => d,
                });
            }
            let s = sema::extract(rel, &lines, &depth_start, &vec![false; n]);
            fns.extend(s.fns);
            guards.extend(s.guard_fields);
        }
        check(&fns, &guards)
    }

    #[test]
    fn c001_reports_ab_ba_cycle() {
        let found = analyze(&[(
            "crates/service/src/x.rs",
            "fn ab(&self) {\n\
             \x20   let _a = self.alpha.lock();\n\
             \x20   let _b = self.beta.lock();\n\
             }\n\
             fn ba(&self) {\n\
             \x20   let _b = self.beta.lock();\n\
             \x20   let _a = self.alpha.lock();\n\
             }\n",
        )]);
        let c001: Vec<&CrossFinding> = found.iter().filter(|f| f.lint == "C001").collect();
        assert_eq!(
            c001.len(),
            2,
            "one finding per edge in the cycle: {found:?}"
        );
    }

    #[test]
    fn c001_consistent_order_is_clean() {
        let found = analyze(&[(
            "crates/service/src/x.rs",
            "fn ab(&self) {\n\
             \x20   let _a = self.alpha.lock();\n\
             \x20   let _b = self.beta.lock();\n\
             }\n\
             fn ab2(&self) {\n\
             \x20   let _a = self.alpha.lock();\n\
             \x20   let _b = self.beta.lock();\n\
             }\n",
        )]);
        assert!(found.iter().all(|f| f.lint != "C001"), "{found:?}");
    }

    #[test]
    fn c002_flags_reacquire_through_call() {
        // The fan_out_save shape: hold the lock, call a helper that
        // re-takes it.
        let found = analyze(&[(
            "crates/service/src/x.rs",
            "fn fan_out(&self) {\n\
             \x20   let _order = self.mutation_lock.lock();\n\
             \x20   save_helper();\n\
             }\n\
             fn save_helper(&self) {\n\
             \x20   let _order = self.mutation_lock.lock();\n\
             }\n",
        )]);
        let c002: Vec<&CrossFinding> = found.iter().filter(|f| f.lint == "C002").collect();
        assert_eq!(c002.len(), 1, "{found:?}");
        assert_eq!(c002[0].line, 3);
        assert!(c002[0].message.contains("save_helper"));
    }

    #[test]
    fn c002_flags_direct_reacquire_and_deep_chain() {
        let found = analyze(&[(
            "crates/service/src/x.rs",
            "fn top(&self) {\n\
             \x20   let _g = self.state.lock();\n\
             \x20   middle();\n\
             }\n\
             fn middle(&self) {\n\
             \x20   bottom();\n\
             }\n\
             fn bottom(&self) {\n\
             \x20   let _g = self.state.lock();\n\
             }\n",
        )]);
        let c002: Vec<&CrossFinding> = found.iter().filter(|f| f.lint == "C002").collect();
        assert_eq!(c002.len(), 1, "{found:?}");
        assert!(c002[0].message.contains("via bottom"), "{:?}", c002[0]);
    }

    #[test]
    fn c003_flags_blocking_under_lock() {
        let found = analyze(&[(
            "crates/service/src/x.rs",
            "fn f(&self) {\n\
             \x20   let _g = self.state.lock();\n\
             \x20   stream.write_frame(&msg);\n\
             }\n",
        )]);
        let c003: Vec<&CrossFinding> = found.iter().filter(|f| f.lint == "C003").collect();
        assert_eq!(c003.len(), 1, "{found:?}");
        assert!(c003[0].message.contains("wire I/O"), "{:?}", c003[0]);
    }

    #[test]
    fn c003_propagates_fsync_from_another_crate() {
        let found = analyze(&[
            (
                "crates/core/src/persist.rs",
                "fn durable_save(path: &Path) {\n    file.sync_all();\n}\n",
            ),
            (
                "crates/service/src/x.rs",
                "fn f(&self) {\n\
                 \x20   let _g = self.save_lock.lock();\n\
                 \x20   durable_save(path);\n\
                 }\n",
            ),
        ]);
        let c003: Vec<&CrossFinding> = found.iter().filter(|f| f.lint == "C003").collect();
        assert_eq!(c003.len(), 1, "{found:?}");
        assert!(c003[0].message.contains("fsync"), "{:?}", c003[0]);
        assert_eq!(c003[0].file, "crates/service/src/x.rs");
    }

    #[test]
    fn c003_flags_a_lock_held_into_a_condvar_wait() {
        // A store read lock held across a call chain that ends parked on
        // another mutex's condvar: the wait releases only its own guard.
        let found = analyze(&[
            (
                "crates/kernels/src/pool.rs",
                "fn run_tasks(&self) {\n\
                 \x20   let mut st = self.state.lock();\n\
                 \x20   while st.pending > 0 {\n\
                 \x20       st = self.done_cv.wait(st);\n\
                 \x20   }\n\
                 }\n",
            ),
            (
                "crates/service/src/store.rs",
                "fn closest_among(&self) {\n\
                 \x20   let db = self.db.read();\n\
                 \x20   run_tasks(n);\n\
                 }\n",
            ),
        ]);
        let c003: Vec<&CrossFinding> = found.iter().filter(|f| f.lint == "C003").collect();
        assert_eq!(c003.len(), 1, "{found:?}");
        assert_eq!(c003[0].file, "crates/service/src/store.rs");
        assert_eq!(c003[0].line, 3);
        assert!(c003[0].message.contains("thread parking"), "{:?}", c003[0]);
        assert!(c003[0].message.contains("wait"), "{:?}", c003[0]);
    }

    #[test]
    fn c003_not_reported_outside_scope() {
        let found = analyze(&[(
            "crates/core/src/persist.rs",
            "fn f(&self) {\n    let _g = self.state.lock();\n    file.sync_all();\n}\n",
        )]);
        assert!(
            found.is_empty(),
            "core is out of reporting scope: {found:?}"
        );
    }

    #[test]
    fn c004_flags_returned_guard_and_field() {
        let found = analyze(&[(
            "crates/service/src/x.rs",
            "struct Held<'a> {\n\
             \x20   guard: MutexGuard<'a, u32>,\n\
             }\n\
             fn grab(&self) -> MutexGuard<'_, u32> {\n\
             \x20   self.state.lock()\n\
             }\n",
        )]);
        let c004: Vec<&CrossFinding> = found.iter().filter(|f| f.lint == "C004").collect();
        assert_eq!(c004.len(), 2, "{found:?}");
    }

    #[test]
    fn stoplist_name_never_resolves() {
        // `len` read-locks internally; calling it under a lock must not
        // produce a C002 through the name collision.
        let found = analyze(&[(
            "crates/service/src/x.rs",
            "fn len(&self) {\n\
             \x20   let _g = self.state.lock();\n\
             }\n\
             fn f(&self) {\n\
             \x20   let _g = self.state.lock();\n\
             \x20   let n = q.len();\n\
             }\n",
        )]);
        assert!(
            found.iter().all(|f| f.lint != "C002"),
            "stoplisted callee must not resolve: {found:?}"
        );
    }

    #[test]
    fn duplicate_definitions_never_resolve() {
        let found = analyze(&[(
            "crates/service/src/x.rs",
            "fn helper(&self) {\n\
             \x20   let _g = self.state.lock();\n\
             }\n\
             fn f(&self) {\n\
             \x20   let _g = self.state.lock();\n\
             \x20   helper();\n\
             }\n\
             mod other {\n\
             fn helper(&self) {}\n\
             }\n",
        )]);
        assert!(
            found.iter().all(|f| f.lint != "C002"),
            "ambiguous callee must not resolve: {found:?}"
        );
    }

    #[test]
    fn recursion_terminates() {
        let found = analyze(&[(
            "crates/service/src/x.rs",
            "fn a(&self) {\n    let _g = self.state.lock();\n    b();\n}\n\
             fn b(&self) {\n    a();\n}\n",
        )]);
        // a → b → a re-acquires state.
        assert!(found.iter().any(|f| f.lint == "C002"), "{found:?}");
    }
}
