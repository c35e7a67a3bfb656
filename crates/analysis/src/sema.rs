//! Per-file semantic extraction for the C-family concurrency lints.
//!
//! Built on the same line lexer as everything else (no external parser —
//! the vendored-compat policy applies to tooling too), this pass recovers
//! just enough structure for cross-function reasoning:
//!
//! * a **symbol table** of `fn` definitions (name, file, crate, body span,
//!   test-ness, whether the return type is a lock guard);
//! * per-function **lock summaries**: every acquisition (`.lock()` /
//!   `.read()` / `.write()` / `.try_lock()` with *empty* argument lists —
//!   `read(buf)` is I/O, not a lock), with the set of locks already held
//!   at that point;
//! * every **callsite** with the locks held across it (feeding the
//!   conservative name-matched call graph in [`crate::concurrency`]);
//! * every **blocking operation** — wire I/O, `park`/`sleep`/`join`/`recv`,
//!   condvar waits, `fsync`, fault-site stalls — with the locks held
//!   across it.
//!
//! Lock identity is textual and crate-scoped: the receiver's final field
//! name before the acquisition (`self.mutation_lock.lock()` →
//! `service/mutation_lock`). Held scopes follow Rust's drop rules at line
//! granularity: a `let`-bound guard is held until its block closes (or an
//! explicit `drop(name)`); an inline temporary (`x.lock().push(…)`) is held
//! only for the rest of its statement's line. Guards that escape through a
//! return value or a struct field defeat this model entirely — which is
//! exactly what lint **C004** exists to flag.
//!
//! A condvar wait — `.wait(g)`, `.wait_while(g, …)`, `.wait_timeout(g, …)`
//! or `.wait_timeout_while(g, …)` — parks holding every lock except the
//! `let`-bound guard `g`, which the condvar releases while it sleeps. A
//! `.wait()` with empty parens (`ServerHandle::wait`) is not a condvar
//! wait.
//!
//! Known, accepted approximations (all conservative for the shipped tree):
//! multi-line guard chains read as temporaries; a guard bound inside an
//! `if` arm reads as held through the `else`; `.join()` blocks only with
//! empty parens (`path.join("x")` is not a thread join).

use crate::lexer::{self, Line};

/// Guard types whose escape (return value or struct field) trips C004.
pub const GUARD_TYPES: &[&str] = &[
    "MutexGuard",
    "RwLockReadGuard",
    "RwLockWriteGuard",
    "MappedMutexGuard",
    "MappedRwLockReadGuard",
    "MappedRwLockWriteGuard",
];

/// A blocking-operation class (the C003 taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BlockKind {
    /// TCP connect/accept or frame read/write.
    Wire,
    /// Thread parking: `sleep`, `park`, `recv`, empty-paren `join`, and
    /// condvar waits.
    Park,
    /// Filesystem durability: `sync_all` / `sync_data`.
    Fsync,
    /// A fault-injection probe, which can stall under a `stall` action.
    Fault,
}

impl BlockKind {
    /// Human name used in findings.
    pub fn noun(self) -> &'static str {
        match self {
            BlockKind::Wire => "wire I/O",
            BlockKind::Park => "thread parking",
            BlockKind::Fsync => "fsync",
            BlockKind::Fault => "fault-site stall",
        }
    }
}

/// Tokens that classify as blocking, per kind. `join` and the condvar
/// waits are handled separately (they depend on their arguments).
const WIRE_TOKENS: &[&str] = &[
    "read_frame",
    "read_frame_guarded",
    "write_frame",
    "connect",
    "connect_with",
    "call_routed",
    "call_routed_write",
    "accept",
    "call",
];
const PARK_TOKENS: &[&str] = &["sleep", "park", "park_timeout", "recv", "recv_timeout"];
const FSYNC_TOKENS: &[&str] = &["sync_all", "sync_data"];
const FAULT_TOKENS: &[&str] = &["fail_point"];
/// Condvar wait methods; the first argument is the guard they release.
const WAIT_TOKENS: &[&str] = &["wait", "wait_while", "wait_timeout", "wait_timeout_while"];

/// One lock acquisition inside a function body.
#[derive(Debug, Clone)]
pub struct Acquire {
    /// Crate-scoped lock identity, e.g. `service/mutation_lock`.
    pub lock: String,
    /// 1-based line.
    pub line: usize,
    /// Locks already held when this acquisition runs.
    pub held: Vec<String>,
}

/// One callsite inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Bare callee name (`maybe_checkpoint`, not a path).
    pub callee: String,
    /// 1-based line.
    pub line: usize,
    /// Locks held across the call.
    pub held: Vec<String>,
}

/// One directly-blocking operation inside a function body.
#[derive(Debug, Clone)]
pub struct BlockingOp {
    /// The classification.
    pub kind: BlockKind,
    /// The token that matched (`call_routed`, `sync_all`, …).
    pub token: String,
    /// 1-based line.
    pub line: usize,
    /// Locks held across the operation.
    pub held: Vec<String>,
}

/// One `fn` definition with its concurrency summary.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Bare function name.
    pub name: String,
    /// Workspace-relative file.
    pub file: String,
    /// Crate the file belongs to (`service`, `kernels`, …), `root` for
    /// top-level `src/`.
    pub crate_name: String,
    /// 1-based signature line.
    pub line: usize,
    /// Whether the definition sits in test context.
    pub in_test: bool,
    /// The guard type named in the return type, if any (C004).
    pub returns_guard: Option<String>,
    /// Direct lock acquisitions.
    pub acquires: Vec<Acquire>,
    /// Callsites with held-lock context.
    pub calls: Vec<CallSite>,
    /// Direct blocking operations.
    pub blocking: Vec<BlockingOp>,
}

/// A struct field of guard type (C004).
#[derive(Debug, Clone)]
pub struct GuardField {
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line of the field.
    pub line: usize,
    /// The guard type that matched.
    pub ty: String,
}

/// Everything the semantic pass extracts from one file.
#[derive(Debug, Default)]
pub struct FileSema {
    /// Function definitions with summaries.
    pub fns: Vec<FnDef>,
    /// Guard-typed struct fields.
    pub guard_fields: Vec<GuardField>,
}

/// The crate name of a workspace-relative path.
fn crate_of(rel: &str) -> String {
    rel.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("root")
        .to_string()
}

/// Extracts the semantic summary of one lexed file.
pub fn extract(rel: &str, lines: &[Line], depth_start: &[i32], in_test: &[bool]) -> FileSema {
    let mut sema = FileSema::default();
    let crate_name = crate_of(rel);

    for idx in 0..lines.len() {
        collect_guard_field(rel, lines, in_test, idx, &mut sema);
        let code = &lines[idx].code;
        for at in lexer::find_tokens(code, "fn") {
            let name = leading_ident(code[at + 2..].trim_start());
            if name.is_empty() {
                continue;
            }
            let Some(sig) = read_signature(lines, idx, at) else {
                continue; // trait method declaration (`fn x(…);`), no body
            };
            let returns_guard = sig
                .text
                .find("->")
                .and_then(|arrow| guard_type_in(&sig.text[arrow..]));
            let mut def = FnDef {
                name,
                file: rel.to_string(),
                crate_name: crate_name.clone(),
                line: idx + 1,
                in_test: in_test[idx],
                returns_guard,
                acquires: Vec::new(),
                calls: Vec::new(),
                blocking: Vec::new(),
            };
            scan_body(lines, depth_start, &sig, &mut def);
            sema.fns.push(def);
        }
    }
    sema
}

/// A struct field whose type is a lock guard. Heuristic: a line with a
/// guard-type token, an `ident:` field pattern before it, and none of the
/// tokens that mark other positions (`fn` = signature, `let` = local
/// binding, `->` = return type, `impl`/`use` = non-field mentions).
fn collect_guard_field(
    rel: &str,
    lines: &[Line],
    in_test: &[bool],
    idx: usize,
    sema: &mut FileSema,
) {
    if in_test[idx] {
        return;
    }
    let code = &lines[idx].code;
    for ty in GUARD_TYPES {
        let Some(&at) = lexer::find_tokens(code, ty).first() else {
            continue;
        };
        let before = &code[..at];
        let excluded = ["fn", "let", "impl", "use"]
            .iter()
            .any(|t| !lexer::find_tokens(code, t).is_empty())
            || code.contains("->");
        if excluded || !before.trim_end().ends_with(':') {
            continue;
        }
        let lhs = before.trim_end().trim_end_matches(':').trim_end();
        if lhs.chars().next_back().is_some_and(lexer::is_ident_char) {
            sema.guard_fields.push(GuardField {
                file: rel.to_string(),
                line: idx + 1,
                ty: (*ty).to_string(),
            });
        }
    }
}

/// A parsed signature: its flattened text and the body's opening position.
struct Signature {
    /// Signature text from `fn` to the opening `{` (exclusive).
    text: String,
    /// Line index of the opening `{`.
    body_line: usize,
    /// Column of the opening `{` on that line.
    body_col: usize,
}

/// Reads a signature starting at the `fn` token. Returns `None` when a
/// `;` ends it before any `{` (a bodyless trait method), or when no brace
/// appears within a sane window.
fn read_signature(lines: &[Line], idx: usize, at: usize) -> Option<Signature> {
    let mut text = String::new();
    for (j, line) in lines.iter().enumerate().skip(idx).take(32) {
        let start = if j == idx { at } else { 0 };
        for (col, c) in line.code.char_indices().skip(start) {
            match c {
                '{' => {
                    return Some(Signature {
                        text,
                        body_line: j,
                        body_col: col,
                    })
                }
                ';' => return None,
                _ => text.push(c),
            }
        }
        text.push(' ');
    }
    None
}

/// The first guard type mentioned in `s`.
fn guard_type_in(s: &str) -> Option<String> {
    GUARD_TYPES
        .iter()
        .find(|ty| !lexer::find_tokens(s, ty).is_empty())
        .map(|ty| (*ty).to_string())
}

/// A `let`-bound guard currently held.
#[derive(Debug)]
struct HeldGuard {
    lock: String,
    /// The binding name, for `drop(name)` release (`None` for patterns).
    name: Option<String>,
    /// Brace depth at the acquisition column; the guard releases when a
    /// line starts below this depth.
    depth: i32,
    /// Acquisition position, so same-line events before it are unaffected.
    line: usize,
    col: usize,
}

/// One in-line event, processed in column order.
#[derive(Debug)]
enum Event {
    Acquire {
        lock: String,
        let_bound: bool,
        guard_name: Option<String>,
        depth: i32,
    },
    Call {
        callee: String,
    },
    Blocking {
        kind: BlockKind,
        token: String,
    },
    /// A condvar wait that releases the guard bound to `guard`.
    Wait {
        token: String,
        guard: String,
    },
    Drop {
        name: String,
    },
}

/// Walks the body of one function, tracking held guards and recording
/// acquisitions, callsites, and blocking ops with their held context.
fn scan_body(lines: &[Line], depth_start: &[i32], sig: &Signature, def: &mut FnDef) {
    let mut held: Vec<HeldGuard> = Vec::new();
    let mut depth_after_open =
        depth_start[sig.body_line] + braces_delta(&lines[sig.body_line].code[..=sig.body_col]);
    let base = depth_after_open; // depth just inside the fn body
    let mut line_idx = sig.body_line;
    loop {
        let code = &lines[line_idx].code;
        let from_col = if line_idx == sig.body_line {
            sig.body_col + 1
        } else {
            0
        };
        let line_depth = if line_idx == sig.body_line {
            depth_after_open
        } else {
            depth_start[line_idx]
        };
        // Scope release: guards whose acquisition depth exceeds this line's
        // starting depth went out of scope with their block.
        held.retain(|g| g.line == line_idx || line_depth >= g.depth);

        let mut events = line_events(code, from_col, line_depth);
        events.sort_by_key(|(col, _)| *col);
        let mut temps: Vec<(usize, String)> = Vec::new(); // (col, lock)
        for (col, event) in events {
            let held_now = |held: &[HeldGuard], temps: &[(usize, String)]| -> Vec<String> {
                let mut out: Vec<String> = held
                    .iter()
                    .filter(|g| g.line != line_idx || g.col < col)
                    .map(|g| g.lock.clone())
                    .collect();
                out.extend(
                    temps
                        .iter()
                        .filter(|(c, _)| *c < col)
                        .map(|(_, l)| l.clone()),
                );
                out.sort();
                out.dedup();
                out
            };
            match event {
                Event::Acquire {
                    lock,
                    let_bound,
                    guard_name,
                    depth,
                } => {
                    let lock = format!("{}/{}", def.crate_name, lock);
                    def.acquires.push(Acquire {
                        lock: lock.clone(),
                        line: line_idx + 1,
                        held: held_now(&held, &temps),
                    });
                    if let_bound {
                        held.push(HeldGuard {
                            lock,
                            name: guard_name,
                            depth,
                            line: line_idx,
                            col,
                        });
                    } else {
                        temps.push((col, lock));
                    }
                }
                Event::Call { callee } => {
                    def.calls.push(CallSite {
                        callee,
                        line: line_idx + 1,
                        held: held_now(&held, &temps),
                    });
                }
                Event::Blocking { kind, token } => {
                    def.blocking.push(BlockingOp {
                        kind,
                        token,
                        line: line_idx + 1,
                        held: held_now(&held, &temps),
                    });
                }
                Event::Wait { token, guard } => {
                    let released: Vec<&str> = held
                        .iter()
                        .filter(|g| g.name.as_deref() == Some(guard.as_str()))
                        .map(|g| g.lock.as_str())
                        .collect();
                    let mut still = held_now(&held, &temps);
                    still.retain(|lock| !released.contains(&lock.as_str()));
                    def.blocking.push(BlockingOp {
                        kind: BlockKind::Park,
                        token,
                        line: line_idx + 1,
                        held: still,
                    });
                }
                Event::Drop { name } => {
                    held.retain(|g| g.name.as_deref() != Some(name.as_str()));
                }
            }
        }

        // Advance to the next line; stop once the body's closing brace
        // returns the depth to (or below) the function's base.
        depth_after_open = line_depth + braces_delta(&code[from_col.min(code.len())..]);
        line_idx += 1;
        if line_idx >= lines.len() || depth_after_open < base {
            break;
        }
        if line_idx > sig.body_line && depth_start[line_idx] < base {
            break;
        }
    }
}

/// Net brace depth change across `code`.
fn braces_delta(code: &str) -> i32 {
    let mut d = 0i32;
    for c in code.chars() {
        match c {
            '{' => d += 1,
            '}' => d -= 1,
            _ => {}
        }
    }
    d
}

/// Keywords and call-position tokens that are not workspace function calls.
const CALL_EXCLUDE: &[&str] = &[
    "if",
    "while",
    "for",
    "match",
    "loop",
    "return",
    "fn",
    "let",
    "move",
    "in",
    "as",
    "else",
    "unsafe",
    "impl",
    "pub",
    "use",
    "where",
    "struct",
    "enum",
    "trait",
    "type",
    "mod",
    "ref",
    "break",
    "continue",
    "crate",
    "super",
    "Self",
    "self",
    "dyn",
    // lock / sync primitives handled by the acquisition and drop scanners
    "lock",
    "read",
    "write",
    "try_lock",
    "drop",
    "wait",
    "wait_while",
    "wait_timeout",
    "wait_timeout_while",
    "notify_all",
    "notify_one",
];

/// Collects the column-ordered events on one line, starting at `from_col`.
/// `line_depth` is the brace depth at `from_col`.
fn line_events(code: &str, from_col: usize, line_depth: i32) -> Vec<(usize, Event)> {
    let mut events = Vec::new();
    let bytes = code.as_bytes();
    let has_let = lexer::find_tokens(code, "let")
        .into_iter()
        .find(|&at| at >= from_col);

    // Acquisitions: `.lock()` / `.read()` / `.write()` / `.try_lock()`.
    for method in ["lock", "read", "write", "try_lock"] {
        for at in lexer::find_tokens(code, method) {
            if at < from_col + 1 || bytes.get(at.wrapping_sub(1)) != Some(&b'.') {
                continue;
            }
            let after = &code[at + method.len()..];
            if !after.starts_with("()") {
                continue; // `read(buf)` etc. is I/O, not a lock
            }
            let lock = receiver_name(code, at - 1);
            let let_bound = has_let.is_some_and(|l| l < at)
                && tail_is_guard_binding(&code[at + method.len() + 2..]);
            let guard_name = if let_bound {
                has_let.map(|l| {
                    let rest = code[l + 3..].trim_start();
                    let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
                    leading_ident(rest)
                })
            } else {
                None
            };
            let depth = line_depth + braces_delta(&code[from_col..at]);
            events.push((
                at,
                Event::Acquire {
                    lock,
                    let_bound,
                    guard_name: guard_name.filter(|n| !n.is_empty()),
                    depth,
                },
            ));
        }
    }

    // Blocking ops.
    let classes: [(&[&str], BlockKind); 4] = [
        (WIRE_TOKENS, BlockKind::Wire),
        (PARK_TOKENS, BlockKind::Park),
        (FSYNC_TOKENS, BlockKind::Fsync),
        (FAULT_TOKENS, BlockKind::Fault),
    ];
    for (tokens, kind) in classes {
        for tok in tokens {
            for at in lexer::find_tokens(code, tok) {
                if at < from_col {
                    continue;
                }
                events.push((
                    at,
                    Event::Blocking {
                        kind,
                        token: (*tok).to_string(),
                    },
                ));
            }
        }
    }
    // Thread join: `.join()` with empty parens only (`path.join("x")` is
    // not a thread join).
    for at in lexer::find_tokens(code, "join") {
        if at >= from_col
            && bytes.get(at.wrapping_sub(1)) == Some(&b'.')
            && code[at + 4..].starts_with("()")
        {
            events.push((
                at,
                Event::Blocking {
                    kind: BlockKind::Park,
                    token: "join".to_string(),
                },
            ));
        }
    }

    // Condvar waits: a method call whose first argument is non-empty.
    for tok in WAIT_TOKENS {
        for at in lexer::find_tokens(code, tok) {
            if at < from_col || bytes.get(at.wrapping_sub(1)) != Some(&b'.') {
                continue;
            }
            let Some(args) = code[at + tok.len()..].strip_prefix('(') else {
                continue;
            };
            let args = args.trim_start();
            if args.is_empty() || args.starts_with(')') {
                continue;
            }
            events.push((
                at,
                Event::Wait {
                    token: (*tok).to_string(),
                    guard: leading_ident(args),
                },
            ));
        }
    }

    // Drops: `drop(name)`.
    for at in lexer::find_tokens(code, "drop") {
        if at < from_col {
            continue;
        }
        let arg = code[at + 4..].trim_start();
        if let Some(inner) = arg.strip_prefix('(') {
            let name = leading_ident(inner.trim_start());
            if !name.is_empty() {
                events.push((at, Event::Drop { name }));
            }
        }
    }

    // Generic callsites: `ident(…)` that is not a keyword, macro, or
    // definition. Blocking tokens are also calls (their summaries may
    // resolve to workspace functions); duplicates are harmless.
    let mut i = from_col;
    let chars: Vec<char> = code.chars().collect();
    while i < chars.len() {
        if !lexer::is_ident_char(chars[i]) || chars[i].is_ascii_digit() {
            i += 1;
            continue;
        }
        let start = i;
        while i < chars.len() && lexer::is_ident_char(chars[i]) {
            i += 1;
        }
        let ident: String = chars[start..i].iter().collect();
        let boundary_ok = start == 0 || !lexer::is_ident_char(chars[start - 1]);
        let mut j = i;
        while j < chars.len() && chars[j] == ' ' {
            j += 1;
        }
        let next = chars.get(j).copied().unwrap_or(' ');
        if !boundary_ok || next != '(' || CALL_EXCLUDE.contains(&ident.as_str()) {
            continue;
        }
        // Skip `fn name(` — the definition itself, not a call.
        let before = code[..start].trim_end();
        if before.ends_with("fn") {
            continue;
        }
        events.push((start, Event::Call { callee: ident }));
    }

    events
}

/// The lock identity of the receiver ending at the `.` at `dot` — the
/// field/variable segment right before the acquisition method, or the
/// method name when the receiver is itself a call (`shard_for(id).write()`).
fn receiver_name(code: &str, dot: usize) -> String {
    let chars: Vec<char> = code[..dot].chars().collect();
    let mut end = chars.len();
    if end > 0 && chars[end - 1] == ')' {
        // Receiver is a call: walk back over the balanced parens, then
        // read the ident before them.
        let mut depth = 0i32;
        while end > 0 {
            match chars[end - 1] {
                ')' => depth += 1,
                '(' => {
                    depth -= 1;
                    if depth == 0 {
                        end -= 1;
                        break;
                    }
                }
                _ => {}
            }
            end -= 1;
        }
    }
    let mut start = end;
    while start > 0 && lexer::is_ident_char(chars[start - 1]) {
        start -= 1;
    }
    let name: String = chars[start..end].iter().collect();
    if name.is_empty() || name == "self" {
        "anon".to_string()
    } else {
        name
    }
}

/// Whether the text after an acquisition's `()` is only benign guard
/// adapters up to the statement end — i.e. the `let` binds the *guard*,
/// not some value extracted through it.
fn tail_is_guard_binding(mut rest: &str) -> bool {
    const ADAPTERS: &[&str] = &["unwrap", "expect", "unwrap_or_else", "into_inner"];
    loop {
        rest = rest.trim_start();
        if rest.starts_with(';') {
            return true;
        }
        if let Some(r) = rest.strip_prefix('?') {
            rest = r;
            continue;
        }
        let Some(r) = rest.strip_prefix('.') else {
            // End of line without `;`: a multi-line chain — treat as a
            // temporary (conservatively not held) rather than guess.
            return false;
        };
        let name = leading_ident(r);
        if !ADAPTERS.contains(&name.as_str()) {
            return false;
        }
        let after = &r[name.len()..];
        let Some(skipped) = skip_balanced_parens(after.trim_start()) else {
            return false;
        };
        rest = skipped;
    }
}

/// Skips one balanced `(…)` group, returning the rest.
fn skip_balanced_parens(s: &str) -> Option<&str> {
    let mut depth = 0i32;
    for (i, c) in s.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&s[i + 1..]);
                }
            }
            _ if depth == 0 => return None,
            _ => {}
        }
    }
    None
}

/// The identifier at the start of `s`.
fn leading_ident(s: &str) -> String {
    s.chars().take_while(|&c| lexer::is_ident_char(c)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sema(rel: &str, src: &str) -> FileSema {
        let lines = lexer::lex(src);
        let n = lines.len();
        let mut depth_start = vec![0i32; n];
        let mut depth = 0i32;
        for (i, line) in lines.iter().enumerate() {
            depth_start[i] = depth;
            depth += braces_delta(&line.code);
        }
        extract(rel, &lines, &depth_start, &vec![false; n])
    }

    #[test]
    fn fn_symbols_and_spans_are_collected() {
        let s = sema(
            "crates/service/src/x.rs",
            "fn a() {\n    b();\n}\nfn b() {}\n",
        );
        let names: Vec<&str> = s.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
        assert_eq!(s.fns[0].calls.len(), 1);
        assert_eq!(s.fns[0].calls[0].callee, "b");
    }

    #[test]
    fn let_bound_guard_is_held_until_block_end() {
        let s = sema(
            "crates/service/src/x.rs",
            "fn f(&self) {\n\
             \x20   {\n\
             \x20       let _g = self.state.lock();\n\
             \x20       inner();\n\
             \x20   }\n\
             \x20   outer();\n\
             }\n",
        );
        let f = &s.fns[0];
        assert_eq!(f.acquires.len(), 1);
        assert_eq!(f.acquires[0].lock, "service/state");
        let inner = f.calls.iter().find(|c| c.callee == "inner").unwrap();
        assert_eq!(inner.held, vec!["service/state"]);
        let outer = f.calls.iter().find(|c| c.callee == "outer").unwrap();
        assert!(outer.held.is_empty(), "guard released at block end");
    }

    #[test]
    fn temporary_guard_is_held_for_its_statement_only() {
        let s = sema(
            "crates/service/src/x.rs",
            "fn f(&self) {\n\
             \x20   self.queue.lock().push_back(item);\n\
             \x20   after();\n\
             }\n",
        );
        let f = &s.fns[0];
        assert_eq!(f.acquires[0].lock, "service/queue");
        let push = f.calls.iter().find(|c| c.callee == "push_back").unwrap();
        assert_eq!(push.held, vec!["service/queue"]);
        let after = f.calls.iter().find(|c| c.callee == "after").unwrap();
        assert!(after.held.is_empty());
    }

    #[test]
    fn let_of_extracted_value_is_not_a_held_guard() {
        // `let pooled = node.pool.lock().pop();` binds the popped value.
        let s = sema(
            "crates/service/src/x.rs",
            "fn f(&self) {\n    let pooled = self.pool.lock().pop();\n    after();\n}\n",
        );
        let f = &s.fns[0];
        let after = f.calls.iter().find(|c| c.callee == "after").unwrap();
        assert!(after.held.is_empty(), "popped value is not a guard");
    }

    #[test]
    fn guard_adapters_still_bind_the_guard() {
        let s = sema(
            "crates/service/src/x.rs",
            "fn f(&self) {\n\
             \x20   let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());\n\
             \x20   work();\n\
             }\n",
        );
        let f = &s.fns[0];
        let work = f.calls.iter().find(|c| c.callee == "work").unwrap();
        assert_eq!(work.held, vec!["service/state"]);
    }

    #[test]
    fn drop_releases_a_named_guard() {
        let s = sema(
            "crates/service/src/x.rs",
            "fn f(&self) {\n\
             \x20   let g = self.state.lock();\n\
             \x20   drop(g);\n\
             \x20   after();\n\
             }\n",
        );
        let f = &s.fns[0];
        let after = f.calls.iter().find(|c| c.callee == "after").unwrap();
        assert!(after.held.is_empty(), "drop(g) releases the guard");
    }

    #[test]
    fn io_read_write_with_args_are_not_acquisitions() {
        let s = sema(
            "crates/service/src/x.rs",
            "fn f(&self) {\n    stream.read(&mut buf);\n    w.write(b);\n    self.m.read();\n}\n",
        );
        let f = &s.fns[0];
        assert_eq!(f.acquires.len(), 1);
        assert_eq!(f.acquires[0].lock, "service/m");
    }

    #[test]
    fn blocking_ops_record_held_locks() {
        let s = sema(
            "crates/service/src/x.rs",
            "fn f(&self) {\n\
             \x20   let _g = self.state.lock();\n\
             \x20   std::thread::sleep(d);\n\
             \x20   file.sync_all();\n\
             \x20   handle.join();\n\
             \x20   path.join(\"x\");\n\
             }\n",
        );
        let f = &s.fns[0];
        let kinds: Vec<(BlockKind, &str)> = f
            .blocking
            .iter()
            .map(|b| (b.kind, b.token.as_str()))
            .collect();
        assert!(kinds.contains(&(BlockKind::Park, "sleep")));
        assert!(kinds.contains(&(BlockKind::Fsync, "sync_all")));
        assert_eq!(
            kinds.iter().filter(|(_, t)| *t == "join").count(),
            1,
            "path.join(\"x\") must not read as a thread join"
        );
        assert!(f.blocking.iter().all(|b| b.held == vec!["service/state"]));
    }

    #[test]
    fn condvar_wait_parks_holding_all_but_its_guard() {
        let s = sema(
            "crates/kernels/src/x.rs",
            "fn own(&self) {\n\
             \x20   let mut st = self.state.lock();\n\
             \x20   st = self.cv.wait(st);\n\
             }\n\
             fn both(&self) {\n\
             \x20   let db = self.db.read();\n\
             \x20   let mut st = self.state.lock();\n\
             \x20   let (st, _) = self.cv.wait_timeout_while(st, d, |s| s.busy);\n\
             }\n\
             fn handle(&self) {\n\
             \x20   let _g = self.state.lock();\n\
             \x20   server.wait();\n\
             }\n",
        );
        let parks = |f: &FnDef| -> Vec<(BlockKind, String, Vec<String>)> {
            f.blocking
                .iter()
                .map(|b| (b.kind, b.token.clone(), b.held.clone()))
                .collect()
        };
        assert_eq!(
            parks(&s.fns[0]),
            vec![(BlockKind::Park, "wait".to_string(), vec![])],
            "a wait releases its own guard"
        );
        assert_eq!(
            parks(&s.fns[1]),
            vec![(
                BlockKind::Park,
                "wait_timeout_while".to_string(),
                vec!["kernels/db".to_string()]
            )],
            "every other guard stays held across the wait"
        );
        assert!(
            s.fns[2].blocking.is_empty(),
            "an empty-paren wait() is not a condvar wait"
        );
    }

    #[test]
    fn return_type_guard_is_flagged() {
        let s = sema(
            "crates/service/src/x.rs",
            "fn grab(&self) -> std::sync::MutexGuard<'_, u32> {\n    self.state.lock()\n}\n",
        );
        assert_eq!(s.fns[0].returns_guard.as_deref(), Some("MutexGuard"));
    }

    #[test]
    fn struct_field_guard_is_flagged() {
        let s = sema(
            "crates/service/src/x.rs",
            "struct Holder<'a> {\n    guard: std::sync::MutexGuard<'a, u32>,\n    n: u32,\n}\n",
        );
        assert_eq!(s.guard_fields.len(), 1);
        assert_eq!(s.guard_fields[0].line, 2);
        assert_eq!(s.guard_fields[0].ty, "MutexGuard");
    }

    #[test]
    fn call_receiver_name_falls_back_to_method() {
        let s = sema(
            "crates/service/src/x.rs",
            "fn f(&self) {\n    let g = self.shard_for(id).write();\n}\n",
        );
        assert_eq!(s.fns[0].acquires[0].lock, "service/shard_for");
    }

    #[test]
    fn keywords_are_not_calls() {
        let s = sema(
            "crates/service/src/x.rs",
            "fn f(&self) {\n    if ready(x) {\n        return helper(x);\n    }\n}\n",
        );
        let callees: Vec<&str> = s.fns[0].calls.iter().map(|c| c.callee.as_str()).collect();
        assert!(callees.contains(&"ready"));
        assert!(callees.contains(&"helper"));
        assert!(!callees.contains(&"if"));
        assert!(!callees.contains(&"return"));
    }

    #[test]
    fn trait_method_declarations_have_no_body() {
        let s = sema(
            "crates/service/src/x.rs",
            "trait T {\n    fn declared(&self) -> u32;\n}\n",
        );
        assert!(s.fns.is_empty(), "bodyless declarations are skipped");
    }
}
