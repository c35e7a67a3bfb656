//! The analysis engine: workspace walk, per-line scanning, suppression
//! handling, test-region detection, and the cross-file wire-contract checks.
//!
//! Scoping rules (see [`crate::lints::LINTS`] for the catalog):
//!
//! * the walk skips `target/`, `results/`, hidden directories, and
//!   `crates/compat/` (vendored shims are exempt by policy);
//! * **D001** applies to every walked line, tests included — test
//!   assertions that iterate a hash map are exactly how nondeterminism
//!   sneaks into "passing" suites;
//! * **D002/D003** skip test context and the two crates whose whole job is
//!   timing (`crates/telemetry`, `crates/bench`);
//! * **P-lints** apply to `crates/service/src` outside test context;
//! * **U-lints** apply everywhere;
//! * **W-lints** are cross-file: `counter!` / `time!` references
//!   (non-test) against the `COUNTERS` / `SPANS` lists in
//!   `crates/telemetry/src/catalog.rs`, protocol variants against
//!   `*roundtrip*` test bodies anywhere under `crates/service`, and (W004)
//!   fault-site name literals at injection points against the `SITES`
//!   registry in `crates/faults/src/lib.rs`;
//! * **C-lints** are cross-function: per-file summaries from
//!   [`crate::sema`] feed the conservative call graph and lock-order
//!   analysis in [`crate::concurrency`]; findings land in
//!   `crates/{service,kernels,telemetry}/src` outside test context.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

use crate::concurrency;
use crate::findings::Finding;
use crate::lexer::{self, Line};
use crate::lints;
use crate::sema;

/// The only files allowed to contain `unsafe` (U003): the SIMD kernels —
/// each site individually justified by a `// SAFETY:` comment (U001) — plus
/// the counting-allocator tests that audit `map_chunked`'s and the store
/// checkpoint's allocation discipline.
pub const UNSAFE_FILE_ALLOWLIST: &[&str] = &[
    "crates/kernels/src/simd.rs",
    "crates/kernels/tests/alloc_discipline.rs",
    "crates/service/tests/checkpoint_alloc.rs",
];

/// The raw outcome of walking and scanning a tree (before baseline
/// comparison).
#[derive(Debug, Default)]
pub struct Analysis {
    /// All findings, sorted by (file, line, lint).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// Walks `root` and runs every lint. `Err` is an internal error (I/O,
/// unreadable source) — distinct from "findings exist".
pub fn analyze(root: &Path) -> Result<Analysis, String> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut scanner = Scanner::default();
    for rel in &files {
        let full = root.join(rel);
        let source =
            fs::read_to_string(&full).map_err(|e| format!("read {}: {e}", full.display()))?;
        scanner.scan_file(rel, &source);
    }
    Ok(scanner.finish())
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if name.starts_with('.') || name == "target" || name == "results" {
                continue;
            }
            let rel = rel_path(root, &path);
            if rel == "crates/compat" {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push(rel_path(root, &path));
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let mut s = String::new();
    for comp in rel.components() {
        if !s.is_empty() {
            s.push('/');
        }
        s.push_str(&comp.as_os_str().to_string_lossy());
    }
    s
}

/// One family of catalogued telemetry names: the macro that references
/// them and the `catalog.rs` list that declares them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricKind {
    Counter,
    Span,
}

impl MetricKind {
    const ALL: [MetricKind; 2] = [MetricKind::Counter, MetricKind::Span];

    /// How findings name this family.
    fn noun(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Span => "span",
        }
    }

    /// The macro whose string argument references a name of this family.
    fn macro_name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Span => "time",
        }
    }

    /// The `catalog.rs` list that declares this family.
    fn list_token(self) -> &'static str {
        match self {
            MetricKind::Counter => "COUNTERS",
            MetricKind::Span => "SPANS",
        }
    }
}

/// A counter!("…") / time!("…") reference site.
struct MetricRef {
    kind: MetricKind,
    name: String,
    file: String,
    line: usize,
}

/// A protocol enum variant.
struct Variant {
    enum_name: String,
    name: String,
    line: usize,
}

/// A fail_point/injected_io/.check("…") fault-site reference.
struct SiteRef {
    name: String,
    file: String,
    line: usize,
}

#[derive(Default)]
struct CrossFile {
    metric_refs: Vec<MetricRef>,
    /// Declared metric names with their family and catalog line.
    catalog: Vec<(MetricKind, String, usize)>,
    catalog_file_seen: bool,
    variants: Vec<Variant>,
    protocol_file: String,
    /// Concatenated code text of every `*roundtrip*` fn under
    /// `crates/service`.
    roundtrip_text: String,
    /// Fault-site name references at injection points (non-test).
    site_refs: Vec<SiteRef>,
    /// Site names declared in `crates/faults/src/lib.rs::SITES`.
    sites: Vec<(String, usize)>,
    sites_file_seen: bool,
    /// Per-function concurrency summaries, workspace-wide.
    fns: Vec<sema::FnDef>,
    /// Guard-typed struct fields (C004).
    guard_fields: Vec<sema::GuardField>,
}

#[derive(Default)]
pub(crate) struct Scanner {
    findings: Vec<Finding>,
    cross: CrossFile,
    files_scanned: usize,
    /// `(file, 1-based line)` → suppressed lint ids, for findings emitted
    /// after all files are scanned (C family, W004).
    allow_map: BTreeMap<(String, usize), BTreeSet<String>>,
}

/// Per-file preprocessing: lexed lines, brace depth at line start, test
/// regions, and suppression sets.
struct Prep {
    lines: Vec<Line>,
    depth_start: Vec<i32>,
    in_test: Vec<bool>,
    allow: Vec<BTreeSet<String>>,
}

impl Scanner {
    pub(crate) fn scan_file(&mut self, rel: &str, source: &str) {
        self.files_scanned += 1;
        let prep = self.prepare(rel, source);
        self.scan_lines(rel, &prep);
        self.collect_cross_file(rel, &prep);
        let file_sema = sema::extract(rel, &prep.lines, &prep.depth_start, &prep.in_test);
        self.cross.fns.extend(file_sema.fns);
        self.cross.guard_fields.extend(file_sema.guard_fields);
    }

    pub(crate) fn finish(mut self) -> Analysis {
        self.check_catalog();
        self.check_roundtrips();
        self.check_sites();
        self.check_concurrency();
        self.findings.sort_by_key(|f| f.sort_key());
        Analysis {
            findings: self.findings,
            files_scanned: self.files_scanned,
        }
    }

    /// Lexes the file and builds depth/test/suppression tables. Emits A001
    /// for malformed suppressions as a side effect.
    fn prepare(&mut self, rel: &str, source: &str) -> Prep {
        let lines = lexer::lex(source);
        let n = lines.len();
        let mut depth_start = vec![0i32; n];
        let mut in_test = vec![false; n];
        let mut allow: Vec<BTreeSet<String>> = vec![BTreeSet::new(); n];

        let file_is_test = rel.starts_with("tests/")
            || rel.contains("/tests/")
            || rel.starts_with("benches/")
            || rel.contains("/benches/");

        let mut depth = 0i32;
        let mut pending_cfg_test = false;
        let mut test_until: Option<i32> = None;
        for (idx, line) in lines.iter().enumerate() {
            depth_start[idx] = depth;
            let was_test = test_until.is_some();
            if line.code.contains("cfg(test)") {
                pending_cfg_test = true;
            }
            for c in line.code.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        if pending_cfg_test {
                            if test_until.is_none() {
                                test_until = Some(depth);
                            }
                            pending_cfg_test = false;
                        }
                    }
                    '}' => {
                        depth -= 1;
                        if let Some(d) = test_until {
                            if depth < d {
                                test_until = None;
                            }
                        }
                    }
                    _ => {}
                }
            }
            in_test[idx] = file_is_test || was_test || test_until.is_some();
        }

        for (idx, line) in lines.iter().enumerate() {
            if let Some(ids) = self.parse_suppression(rel, idx + 1, &line.comment) {
                for id in &ids {
                    allow[idx].insert(id.clone());
                    if idx + 1 < n {
                        allow[idx + 1].insert(id.clone());
                    }
                }
            }
        }

        // Mirror the suppression table into the cross-file map for findings
        // emitted after the walk (C family, W004).
        for (idx, ids) in allow.iter().enumerate() {
            if !ids.is_empty() {
                self.allow_map
                    .entry((rel.to_string(), idx + 1))
                    .or_default()
                    .extend(ids.iter().cloned());
            }
        }

        Prep {
            lines,
            depth_start,
            in_test,
            allow,
        }
    }

    /// Parses one comment's `pc-allow:` clause. Returns the allowed ids when
    /// well-formed; emits A001 and returns `None` otherwise.
    fn parse_suppression(&mut self, rel: &str, line: usize, comment: &str) -> Option<Vec<String>> {
        // Only a comment that *is* a suppression counts — prose that merely
        // mentions pc-allow (docs, this function) must not parse as one.
        let rest = comment.trim_start().strip_prefix("pc-allow:")?;
        let mut a001 = |message: String| {
            self.findings.push(Finding {
                lint: "A001",
                file: rel.to_string(),
                line,
                message,
            });
        };
        let (ids_part, reason) = match rest.find('—') {
            Some(dash) => (&rest[..dash], &rest[dash + '—'.len_utf8()..]),
            None => match rest.find(" - ") {
                Some(dash) => (&rest[..dash], &rest[dash + 3..]),
                None => {
                    a001("pc-allow without a reason (append `— reason`)".to_string());
                    return None;
                }
            },
        };
        if reason.trim().is_empty() {
            a001("pc-allow without a reason (append `— reason`)".to_string());
            return None;
        }
        let ids: Vec<String> = ids_part
            .split(|c: char| c == ',' || c.is_whitespace())
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect();
        if ids.is_empty() {
            a001("pc-allow names no lint ids".to_string());
            return None;
        }
        for id in &ids {
            if lints::lint(id).is_none() {
                a001(format!("pc-allow names unknown lint id `{id}`"));
                return None;
            }
        }
        Some(ids)
    }

    /// Emits a finding after the walk, honoring the suppression comment (if
    /// any) recorded at its file/line during `prepare`.
    fn emit_late(&mut self, lint: &'static str, file: String, line: usize, message: String) {
        if self
            .allow_map
            .get(&(file.clone(), line))
            .is_some_and(|ids| ids.contains(lint))
        {
            return;
        }
        self.findings.push(Finding {
            lint,
            file,
            line,
            message,
        });
    }

    fn emit(&mut self, prep: &Prep, lint: &'static str, rel: &str, idx: usize, message: String) {
        if prep.allow[idx].contains(lint) {
            return;
        }
        self.findings.push(Finding {
            lint,
            file: rel.to_string(),
            line: idx + 1,
            message,
        });
    }

    fn scan_lines(&mut self, rel: &str, prep: &Prep) {
        let service_src = rel.starts_with("crates/service/src/");
        let timing_crate = rel.starts_with("crates/telemetry/") || rel.starts_with("crates/bench/");

        for idx in 0..prep.lines.len() {
            let code = prep.lines[idx].code.clone();
            let test = prep.in_test[idx];

            // D001 — everywhere, tests included.
            for tok in ["HashMap", "HashSet"] {
                for _ in lexer::find_tokens(&code, tok) {
                    self.emit(
                        prep,
                        "D001",
                        rel,
                        idx,
                        format!(
                            "std {tok} has per-process-seeded iteration order; \
                             use the BTree equivalent or sort before iterating"
                        ),
                    );
                }
            }

            if !test && !timing_crate {
                // D002 — wall clock.
                for pat in ["Instant::now", "SystemTime::now"] {
                    for _ in lexer::find_tokens(&code, pat) {
                        self.emit(
                            prep,
                            "D002",
                            rel,
                            idx,
                            format!(
                                "{pat} reads the wall clock; deterministic paths take \
                                 time as input (the telemetry \"timing\" phase owns real time)"
                            ),
                        );
                    }
                }
                // D003 — unseeded RNG.
                for tok in ["thread_rng", "from_entropy"] {
                    for _ in lexer::find_tokens(&code, tok) {
                        self.emit(
                            prep,
                            "D003",
                            rel,
                            idx,
                            format!("{tok} draws OS entropy; every stream takes an explicit seed"),
                        );
                    }
                }
            }

            if service_src && !test {
                self.scan_panic_safety(rel, prep, idx, &code);
            }

            // U001 — unsafe needs a SAFETY comment nearby.
            for _ in lexer::find_tokens(&code, "unsafe") {
                let documented = (idx.saturating_sub(3)..=idx)
                    .any(|j| prep.lines[j].comment.contains("SAFETY:"));
                if !documented {
                    self.emit(
                        prep,
                        "U001",
                        rel,
                        idx,
                        "`unsafe` without a `// SAFETY:` comment on the same line or \
                         within the three lines above"
                            .to_string(),
                    );
                }
            }

            // U003 — unsafe stays in the audited kernel modules. A SAFETY
            // comment satisfies U001 anywhere, but only the allowlisted
            // files may contain unsafe at all; everywhere else the fix is
            // to not write it.
            if !UNSAFE_FILE_ALLOWLIST.contains(&rel) {
                for _ in lexer::find_tokens(&code, "unsafe") {
                    self.emit(
                        prep,
                        "U003",
                        rel,
                        idx,
                        format!(
                            "`unsafe` outside the audited kernel modules \
                             ({})",
                            UNSAFE_FILE_ALLOWLIST.join(", ")
                        ),
                    );
                }
            }

            // U002 — invariant-skipping constructor stays home.
            if rel != "crates/core/src/bits.rs" {
                for _ in lexer::find_tokens(&code, "from_sorted_unchecked") {
                    self.emit(
                        prep,
                        "U002",
                        rel,
                        idx,
                        "from_sorted_unchecked referenced outside its home module \
                         crates/core/src/bits.rs"
                            .to_string(),
                    );
                }
            }

            // Metric references feed the cross-file W002/W003 checks.
            if !test {
                for kind in MetricKind::ALL {
                    let mac = kind.macro_name();
                    for at in lexer::find_tokens(&code, mac) {
                        if let Some(name) =
                            macro_string_arg(&code, &prep.lines[idx].raw, at + mac.len())
                        {
                            self.cross.metric_refs.push(MetricRef {
                                kind,
                                name,
                                file: rel.to_string(),
                                line: idx + 1,
                            });
                        }
                    }
                }
            }
        }
    }

    fn scan_panic_safety(&mut self, rel: &str, prep: &Prep, idx: usize, code: &str) {
        for at in lexer::find_tokens(code, "unwrap") {
            if at > 0 && code.as_bytes()[at - 1] == b'.' {
                self.emit(
                    prep,
                    "P001",
                    rel,
                    idx,
                    ".unwrap() can panic on a request path; return a typed error".to_string(),
                );
            }
        }
        for at in lexer::find_tokens(code, "expect") {
            if at > 0 && code.as_bytes()[at - 1] == b'.' {
                self.emit(
                    prep,
                    "P002",
                    rel,
                    idx,
                    ".expect() can panic on a request path; return a typed error".to_string(),
                );
            }
        }
        for tok in ["panic", "unreachable", "todo", "unimplemented"] {
            for at in lexer::find_tokens(code, tok) {
                if code[at + tok.len()..].starts_with('!') {
                    self.emit(
                        prep,
                        "P003",
                        rel,
                        idx,
                        format!(
                            "{tok}! aborts request handling; return a typed error \
                             (catch_unwind respawn is a last resort)"
                        ),
                    );
                }
            }
        }
        // P004 — `xs[i]` style indexing. A '[' immediately after an
        // identifier, ']' or ')' is an index expression; type positions
        // (`&mut [u8]`) and literals (`[0; 4]`) have a non-ident char
        // before the bracket.
        let bytes = code.as_bytes();
        for (pos, &b) in bytes.iter().enumerate() {
            if b != b'[' || pos == 0 {
                continue;
            }
            let prev = bytes[pos - 1] as char;
            if lexer::is_ident_char(prev) || prev == ']' || prev == ')' {
                self.emit(
                    prep,
                    "P004",
                    rel,
                    idx,
                    "direct indexing can panic; use .get()/.get_mut() and handle the miss"
                        .to_string(),
                );
            }
        }
    }

    /// Collects catalog declarations, protocol variants, and roundtrip-test
    /// bodies for the cross-file checks.
    fn collect_cross_file(&mut self, rel: &str, prep: &Prep) {
        if rel == "crates/telemetry/src/catalog.rs" {
            self.cross.catalog_file_seen = true;
            // Two declaration regions, one per list. Only the `pub const
            // NAME: &[&str]` line opens a region (lookup helpers mention the
            // list tokens too); `];` closes it.
            let mut region: Option<MetricKind> = None;
            for (idx, line) in prep.lines.iter().enumerate() {
                if region.is_none() {
                    region = MetricKind::ALL.into_iter().find(|k| {
                        line.code.contains("&[&str]")
                            && !lexer::find_tokens(&line.code, k.list_token()).is_empty()
                    });
                }
                let Some(kind) = region else { continue };
                for name in string_literals(&line.code, &line.raw) {
                    self.cross.catalog.push((kind, name, idx + 1));
                }
                if line.code.contains("];") {
                    region = None;
                }
            }
        }

        if rel == "crates/service/src/protocol.rs" {
            self.cross.protocol_file = rel.to_string();
            self.collect_variants(prep);
        }

        if rel.starts_with("crates/service/") {
            self.collect_roundtrip_bodies(prep);
        }

        if rel == "crates/faults/src/lib.rs" {
            self.cross.sites_file_seen = true;
            // Same region shape as the telemetry catalog: only the
            // `pub const SITES: &[&str]` line opens, `];` closes.
            let mut in_region = false;
            for (idx, line) in prep.lines.iter().enumerate() {
                if !in_region {
                    in_region = line.code.contains("&[&str]")
                        && !lexer::find_tokens(&line.code, "SITES").is_empty();
                }
                if !in_region {
                    continue;
                }
                for name in string_literals(&line.code, &line.raw) {
                    self.cross.sites.push((name, idx + 1));
                }
                if line.code.contains("];") {
                    in_region = false;
                }
            }
        } else {
            // Fault-site references: fail_point("…") / injected_io("…") /
            // receiver.check("…") outside tests. `check` is generic, so it
            // only counts as a method call (previous char is `.`).
            for (idx, line) in prep.lines.iter().enumerate() {
                if prep.in_test[idx] {
                    continue;
                }
                for tok in ["fail_point", "injected_io", "check"] {
                    for at in lexer::find_tokens(&line.code, tok) {
                        if tok == "check"
                            && line.code.as_bytes().get(at.wrapping_sub(1)) != Some(&b'.')
                        {
                            continue;
                        }
                        if let Some(name) = call_string_arg(&line.code, &line.raw, at + tok.len()) {
                            self.cross.site_refs.push(SiteRef {
                                name,
                                file: rel.to_string(),
                                line: idx + 1,
                            });
                        }
                    }
                }
            }
        }
    }

    fn collect_variants(&mut self, prep: &Prep) {
        let n = prep.lines.len();
        let mut idx = 0usize;
        while idx < n {
            let code = &prep.lines[idx].code;
            let enum_name = lexer::find_tokens(code, "enum")
                .first()
                .map(|&at| leading_ident(code[at + 4..].trim_start()))
                .filter(|name| name == "Request" || name == "Response");
            let Some(enum_name) = enum_name else {
                idx += 1;
                continue;
            };
            let base = prep.depth_start[idx];
            let mut j = idx + 1;
            while j < n && prep.depth_start[j] > base {
                if prep.depth_start[j] == base + 1 {
                    let trimmed = prep.lines[j].code.trim_start();
                    let first = trimmed.chars().next().unwrap_or(' ');
                    if first.is_ascii_uppercase() {
                        self.cross.variants.push(Variant {
                            enum_name: enum_name.clone(),
                            name: leading_ident(trimmed),
                            line: j + 1,
                        });
                    }
                }
                j += 1;
            }
            idx = j;
        }
    }

    fn collect_roundtrip_bodies(&mut self, prep: &Prep) {
        let n = prep.lines.len();
        for idx in 0..n {
            let code = &prep.lines[idx].code;
            let Some(&at) = lexer::find_tokens(code, "fn").first() else {
                continue;
            };
            let name = leading_ident(code[at + 2..].trim_start());
            if !name.contains("roundtrip") {
                continue;
            }
            let base = prep.depth_start[idx];
            self.cross.roundtrip_text.push_str(code);
            self.cross.roundtrip_text.push('\n');
            let mut j = idx + 1;
            while j < n && prep.depth_start[j] > base {
                self.cross.roundtrip_text.push_str(&prep.lines[j].code);
                self.cross.roundtrip_text.push('\n');
                j += 1;
            }
        }
    }

    /// W002/W003 — referenced counters / spans vs. the catalog, each
    /// family checked against its own list.
    fn check_catalog(&mut self) {
        if !self.cross.catalog_file_seen && self.cross.metric_refs.is_empty() {
            return;
        }
        for kind in MetricKind::ALL {
            let declared: BTreeSet<&str> = self
                .cross
                .catalog
                .iter()
                .filter(|(k, _, _)| *k == kind)
                .map(|(_, name, _)| name.as_str())
                .collect();
            let referenced: BTreeSet<&str> = self
                .cross
                .metric_refs
                .iter()
                .filter(|r| r.kind == kind)
                .map(|r| r.name.as_str())
                .collect();
            for r in self.cross.metric_refs.iter().filter(|r| r.kind == kind) {
                if !declared.contains(r.name.as_str()) {
                    self.findings.push(Finding {
                        lint: "W002",
                        file: r.file.clone(),
                        line: r.line,
                        message: format!(
                            "{} \"{}\" is not declared in \
                             crates/telemetry/src/catalog.rs::{}",
                            kind.noun(),
                            r.name,
                            kind.list_token(),
                        ),
                    });
                }
            }
            for (_, name, line) in self.cross.catalog.iter().filter(|(k, _, _)| *k == kind) {
                if !referenced.contains(name.as_str()) {
                    self.findings.push(Finding {
                        lint: "W003",
                        file: "crates/telemetry/src/catalog.rs".to_string(),
                        line: *line,
                        message: format!(
                            "{} \"{name}\" is declared but no {}!(…) site references it",
                            kind.noun(),
                            kind.macro_name(),
                        ),
                    });
                }
            }
        }
    }

    /// W004 — fault-site names at injection points vs. the `SITES`
    /// registry, both directions.
    fn check_sites(&mut self) {
        if !self.cross.sites_file_seen && self.cross.site_refs.is_empty() {
            return;
        }
        let declared: BTreeSet<String> = self
            .cross
            .sites
            .iter()
            .map(|(name, _)| name.clone())
            .collect();
        let referenced: BTreeSet<String> = self
            .cross
            .site_refs
            .iter()
            .map(|r| r.name.clone())
            .collect();
        let refs: Vec<(String, String, usize)> = self
            .cross
            .site_refs
            .iter()
            .map(|r| (r.name.clone(), r.file.clone(), r.line))
            .collect();
        for (name, file, line) in refs {
            if !declared.contains(&name) {
                self.emit_late(
                    "W004",
                    file,
                    line,
                    format!(
                        "fault site \"{name}\" is not declared in \
                         crates/faults/src/lib.rs::SITES"
                    ),
                );
            }
        }
        let sites = self.cross.sites.clone();
        for (name, line) in sites {
            if !referenced.contains(&name) {
                self.emit_late(
                    "W004",
                    "crates/faults/src/lib.rs".to_string(),
                    line,
                    format!(
                        "fault site \"{name}\" is declared but no injection point references it"
                    ),
                );
            }
        }
    }

    /// C001–C004 — the cross-function concurrency lints.
    fn check_concurrency(&mut self) {
        let found = concurrency::check(&self.cross.fns, &self.cross.guard_fields);
        for f in found {
            self.emit_late(f.lint, f.file, f.line, f.message);
        }
    }

    /// W001 — every protocol variant appears in some roundtrip test.
    fn check_roundtrips(&mut self) {
        for v in &self.cross.variants {
            let pat = format!("{}::{}", v.enum_name, v.name);
            if lexer::find_tokens(&self.cross.roundtrip_text, &pat).is_empty() {
                self.findings.push(Finding {
                    lint: "W001",
                    file: self.cross.protocol_file.clone(),
                    line: v.line,
                    message: format!("{pat} has no codec roundtrip test"),
                });
            }
        }
    }
}

/// The identifier at the start of `s`.
fn leading_ident(s: &str) -> String {
    s.chars().take_while(|&c| lexer::is_ident_char(c)).collect()
}

/// If `code[from..]` starts (after whitespace) with `!(` followed by a
/// string literal, reads that literal's contents out of the aligned raw
/// line.
fn macro_string_arg(code: &str, raw: &str, from: usize) -> Option<String> {
    let code_chars: Vec<char> = code.chars().collect();
    let raw_chars: Vec<char> = raw.chars().collect();
    let mut i = from;
    while code_chars.get(i) == Some(&' ') {
        i += 1;
    }
    if code_chars.get(i) != Some(&'!') {
        return None;
    }
    i += 1;
    while code_chars.get(i) == Some(&' ') {
        i += 1;
    }
    if code_chars.get(i) != Some(&'(') {
        return None;
    }
    i += 1;
    while i < code_chars.len() && code_chars[i] != '"' {
        i += 1;
    }
    if i >= code_chars.len() {
        return None;
    }
    let start = i + 1;
    let mut end = start;
    while end < code_chars.len() && code_chars[end] != '"' {
        end += 1;
    }
    if end >= code_chars.len() || end > raw_chars.len() {
        return None;
    }
    Some(raw_chars[start..end].iter().collect())
}

/// If `code[from..]` starts (after whitespace) with `(` followed directly
/// by a string literal, reads that literal's contents out of the aligned
/// raw line. The plain-call sibling of [`macro_string_arg`].
fn call_string_arg(code: &str, raw: &str, from: usize) -> Option<String> {
    let code_chars: Vec<char> = code.chars().collect();
    let raw_chars: Vec<char> = raw.chars().collect();
    let mut i = from;
    while code_chars.get(i) == Some(&' ') {
        i += 1;
    }
    if code_chars.get(i) != Some(&'(') {
        return None;
    }
    i += 1;
    while code_chars.get(i) == Some(&' ') {
        i += 1;
    }
    if code_chars.get(i) != Some(&'"') {
        return None;
    }
    let start = i + 1;
    let mut end = start;
    while end < code_chars.len() && code_chars[end] != '"' {
        end += 1;
    }
    if end >= code_chars.len() || end > raw_chars.len() {
        return None;
    }
    Some(raw_chars[start..end].iter().collect())
}

/// All string literal contents on a line, read from the raw text via the
/// code/raw alignment (delimiters survive blanking, contents do not).
fn string_literals(code: &str, raw: &str) -> Vec<String> {
    let code_chars: Vec<char> = code.chars().collect();
    let raw_chars: Vec<char> = raw.chars().collect();
    let mut out = Vec::new();
    let mut open: Option<usize> = None;
    for (i, &c) in code_chars.iter().enumerate() {
        if c != '"' {
            continue;
        }
        match open.take() {
            None => open = Some(i),
            Some(start) => {
                if i <= raw_chars.len() {
                    out.push(raw_chars[start + 1..i].iter().collect());
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(rel: &str, source: &str) -> Vec<Finding> {
        let mut s = Scanner::default();
        s.scan_file(rel, source);
        s.finish().findings
    }

    fn ids(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.lint).collect()
    }

    #[test]
    fn d001_fires_everywhere_including_tests() {
        let src = "use std::collections::HashMap;\n\
                   #[cfg(test)]\nmod tests {\n    fn f() { let m = HashMap::new(); }\n}\n";
        let found = scan("crates/core/src/x.rs", src);
        assert_eq!(ids(&found), vec!["D001", "D001"]);
        assert_eq!(found[0].line, 1);
        assert_eq!(found[1].line, 4);
    }

    #[test]
    fn d002_skips_tests_and_timing_crates() {
        let src = "fn f() { let t = Instant::now(); }\n\
                   #[cfg(test)]\nmod tests {\n    fn g() { let t = Instant::now(); }\n}\n";
        assert_eq!(ids(&scan("crates/core/src/x.rs", src)), vec!["D002"]);
        assert!(scan("crates/telemetry/src/x.rs", src).is_empty());
        assert!(scan("crates/bench/src/x.rs", src).is_empty());
    }

    #[test]
    fn p_lints_scope_to_service_src() {
        let src = "fn f(xs: &[u8]) { let v = xs.get(0).unwrap(); foo.expect(\"x\"); \
                   panic!(\"boom\"); let y = xs[0]; }\n";
        let found = scan("crates/service/src/x.rs", src);
        assert_eq!(ids(&found), vec!["P001", "P002", "P003", "P004"]);
        assert!(scan("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn p004_ignores_types_and_literals() {
        let src = "fn f(buf: &mut [u8], xs: [u64; 4]) { let a = [0u8; 2]; }\n";
        assert!(scan("crates/service/src/x.rs", src).is_empty());
    }

    #[test]
    fn suppression_silences_and_validates() {
        let ok = "fn f() { let t = Instant::now(); } // pc-allow: D002 — deadline is wall-clock\n";
        assert!(scan("crates/core/src/x.rs", ok).is_empty());
        let above = "// pc-allow: D002 — deadline is wall-clock\n\
                     fn f() { let t = Instant::now(); }\n";
        assert!(scan("crates/core/src/x.rs", above).is_empty());
        let no_reason = "fn f() { let t = Instant::now(); } // pc-allow: D002\n";
        assert_eq!(
            ids(&scan("crates/core/src/x.rs", no_reason)),
            vec!["A001", "D002"]
        );
        let unknown = "fn f() { let t = Instant::now(); } // pc-allow: Z999 — whatever\n";
        assert_eq!(
            ids(&scan("crates/core/src/x.rs", unknown)),
            vec!["A001", "D002"]
        );
    }

    #[test]
    fn u001_wants_safety_comments() {
        let bad = "fn f() { unsafe { g() } }\n";
        assert_eq!(ids(&scan("crates/kernels/src/simd.rs", bad)), vec!["U001"]);
        let good = "// SAFETY: g has no preconditions\nfn f() { unsafe { g() } }\n";
        assert!(scan("crates/kernels/src/simd.rs", good).is_empty());
        let string = "fn f() { let s = \"unsafe\"; }\n";
        assert!(scan("crates/kernels/src/simd.rs", string).is_empty());
    }

    #[test]
    fn u003_allowlists_the_kernel_modules() {
        // SAFETY-documented, so U001 is satisfied — the finding is purely
        // about the file.
        let src = "// SAFETY: g has no preconditions\nfn f() { unsafe { g() } }\n";
        assert_eq!(ids(&scan("crates/core/src/x.rs", src)), vec!["U003"]);
        for rel in UNSAFE_FILE_ALLOWLIST {
            assert!(scan(rel, src).is_empty(), "{rel} is allowlisted");
        }
        // Undocumented unsafe outside the allowlist trips both U-lints.
        let bare = "fn f() { unsafe { g() } }\n";
        assert_eq!(
            ids(&scan("crates/core/src/x.rs", bare)),
            vec!["U001", "U003"]
        );
    }

    #[test]
    fn u002_allowlists_the_home_module() {
        let src = "fn f() { let b = Bitset::from_sorted_unchecked(v); }\n";
        assert_eq!(ids(&scan("crates/core/src/packed.rs", src)), vec!["U002"]);
        assert!(scan("crates/core/src/bits.rs", src).is_empty());
    }

    #[test]
    fn w002_and_w003_cross_check_the_catalog() {
        let mut s = Scanner::default();
        s.scan_file(
            "crates/telemetry/src/catalog.rs",
            "pub const COUNTERS: &[&str] = &[\n    \"a.b\",\n    \"c.d\",\n];\n",
        );
        s.scan_file(
            "crates/core/src/x.rs",
            "fn f() { counter!(\"a.b\").add(1); \
                                             counter!(\"z.z\").add(1); }\n",
        );
        let found = s.finish().findings;
        assert_eq!(ids(&found), vec!["W002", "W003"]);
        assert!(found[0].message.contains("z.z"));
        assert!(found[1].message.contains("c.d"));
    }

    #[test]
    fn w002_and_w003_check_spans_against_their_own_list() {
        let catalog = "pub const COUNTERS: &[&str] = &[\n    \"a.b\",\n];\n\
                       pub const SPANS: &[&str] = &[\n    \"s.good\",\n    \"s.rotten\",\n];\n\
                       pub fn is_declared(n: &str) -> bool { COUNTERS.binary_search(&n).is_ok() }\n";
        let mut s = Scanner::default();
        s.scan_file("crates/telemetry/src/catalog.rs", catalog);
        s.scan_file(
            "crates/core/src/x.rs",
            "fn f() {\n    counter!(\"a.b\").add(1);\n    let _s = time!(\"s.good\");\n    \
             let _t = time!(\"s.stray\");\n}\n",
        );
        let found = s.finish().findings;
        assert_eq!(ids(&found), vec!["W002", "W003"]);
        // The stray span is undeclared; the rotten span is unreferenced.
        assert!(found[0].message.contains("span \"s.stray\""));
        assert!(found[0].message.contains("SPANS"));
        assert!(found[1].message.contains("span \"s.rotten\""));
        assert!(found[1].message.contains("time!"));
    }

    #[test]
    fn a_span_name_does_not_satisfy_a_counter_declaration() {
        // Same name in SPANS but referenced via counter! — each family
        // checks against its own list, so both directions fire.
        let catalog = "pub const SPANS: &[&str] = &[\n    \"x.y\",\n];\n";
        let mut s = Scanner::default();
        s.scan_file("crates/telemetry/src/catalog.rs", catalog);
        s.scan_file(
            "crates/core/src/x.rs",
            "fn f() { counter!(\"x.y\").incr(); }\n",
        );
        let found = s.finish().findings;
        assert_eq!(ids(&found), vec!["W002", "W003"]);
        assert!(found[0].message.contains("counter \"x.y\""));
        assert!(found[1].message.contains("span \"x.y\""));
    }

    #[test]
    fn w001_wants_roundtrip_coverage() {
        let mut s = Scanner::default();
        s.scan_file(
            "crates/service/src/protocol.rs",
            "pub enum Request {\n    Ping,\n    Identify { id: u64 },\n}\n",
        );
        s.scan_file(
            "crates/service/tests/codec.rs",
            "#[test]\nfn ping_roundtrip() { let r = Request::Ping; }\n",
        );
        let found = s.finish().findings;
        assert_eq!(ids(&found), vec!["W001"]);
        assert!(found[0].message.contains("Request::Identify"));
        assert_eq!(found[0].line, 3);
    }

    #[test]
    fn counter_refs_read_the_literal_from_raw() {
        let mut s = Scanner::default();
        s.scan_file(
            "crates/core/src/x.rs",
            "fn f() { counter!(\"core.x.y\").add(1); }\n",
        );
        let found = s.finish().findings;
        // No catalog file seen and no catalog entries -> refs unchecked only
        // when there are no refs; with refs present they are undeclared.
        assert_eq!(ids(&found), vec!["W002"]);
        assert!(found[0].message.contains("core.x.y"));
    }
}
