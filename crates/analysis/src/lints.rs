//! The lint registry: each lint statically enforces an invariant the
//! workspace already guards dynamically (counting-allocator tests,
//! golden `SimStats`, proptest oracles), so violations fail in CI before
//! a golden re-record or a flaky zero-alloc run has to catch them.
//!
//! | lint | invariant |
//! |------|-----------|
//! | `determinism` | sim/scheduler/controller code is replay-deterministic: no wall clocks, no hash-order-dependent containers |
//! | `hot-path-no-alloc` | functions declared hot in `analysis.json` contain no syntactic allocation or clone |
//! | `integer-time` | no new `f64`-seconds parameters in core/scheduler/sim signatures outside the deprecated API edge |
//! | `edge-only-by-id` | id-keyed maps (`by_id`, and fields tracked in one named file) are touched only at the public-API edge, never on hot paths; a file-scoped entry its file never names is stale |
//! | `panic-discipline` | steady-state paths carry no bare `unwrap()` or empty `expect("")` — panics must name the broken invariant |
//! | `unsafe-inventory` | every `unsafe` is enumerated and carries a `// SAFETY:` comment |
//! | `parallel-region` | the sharded scoped-thread region reaches shared state only through per-shard handles; barrier-merge machinery stays outside |
//! | `dead-public` | an unrestricted `pub` item in a library crate is named by non-test code of another crate — a `pub` is a promise to a caller that exists |

use crate::config::AnalysisConfig;
use crate::lexer::{self, FnSpan, Token, TokenKind};
use crate::report::{AnalysisReport, UnsafeSite, Violation};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// One source file, pre-lexed into the views the lints need.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// Raw source lines (for `SAFETY:` lookback and allowlist matching).
    pub lines: Vec<String>,
    /// The full token stream, comments included, tests included.
    pub tokens: Vec<Token>,
    /// Production code only: `#[cfg(test)]` items elided, comments
    /// stripped.  Most lints scan this view.
    pub code: Vec<Token>,
    /// Function spans over [`SourceFile::code`].
    pub fns: Vec<FnSpan>,
}

impl SourceFile {
    /// Lexes `src` into all scanning views.
    pub fn parse(path: impl Into<String>, src: &str) -> Self {
        let tokens = lexer::lex(src);
        let code: Vec<Token> = lexer::elide_cfg_test(&tokens)
            .into_iter()
            .filter(|t| t.kind != TokenKind::Comment)
            .collect();
        let fns = lexer::fn_spans(&code);
        SourceFile {
            path: path.into(),
            lines: src.lines().map(str::to_owned).collect(),
            tokens,
            code,
            fns,
        }
    }

    fn line_text(&self, line: u32) -> String {
        self.lines
            .get(line.saturating_sub(1) as usize)
            .cloned()
            .unwrap_or_default()
    }
}

/// Runs every lint over `files` and reconciles against the allowlist.
pub fn run(config: &AnalysisConfig, files: &[SourceFile]) -> AnalysisReport {
    let mut raw = Vec::new();
    let mut inventory = Vec::new();
    for file in files {
        determinism(config, file, &mut raw);
        integer_time(config, file, &mut raw);
        edge_only_by_id(config, file, &mut raw);
        panic_discipline(config, file, &mut raw);
        unsafe_inventory(config, file, &mut raw, &mut inventory);
        parallel_region(config, file, &mut raw);
    }
    hot_path_no_alloc(config, files, &mut raw);
    parallel_region_presence(config, files, &mut raw);
    dead_public(config, files, &mut raw);
    let line_text = |v: &Violation| {
        files
            .iter()
            .find(|f| f.path == v.file)
            .map(|f| f.line_text(v.line))
            .unwrap_or_default()
    };
    let mut report = AnalysisReport::reconcile(raw, config.allows.clone(), line_text);
    report.unsafe_inventory = inventory;
    report.files_scanned = files.len();
    report
}

/// `true` when `path` is `scope` or lies under the `scope` directory.
fn in_scope(path: &str, scopes: &[String]) -> bool {
    scopes
        .iter()
        .any(|s| path == s || path.starts_with(&format!("{s}/")))
}

/// `true` when the token texts starting at `i` are exactly `pattern`.
fn seq_at(tokens: &[Token], i: usize, pattern: &[&str]) -> bool {
    pattern
        .iter()
        .enumerate()
        .all(|(k, p)| tokens.get(i + k).is_some_and(|t| t.text == *p))
}

/// Forbids wall clocks and hash-ordered containers in replay-deterministic
/// crates.  One violation per site: `Instant` (reported as `Instant::now`
/// when called), `SystemTime`, `HashMap`, `HashSet`, `thread::current`.
/// The golden `SimStats` captures and the calendar replay proptest guard
/// the same property dynamically.
fn determinism(config: &AnalysisConfig, file: &SourceFile, out: &mut Vec<Violation>) {
    if !in_scope(&file.path, config.paths("determinism")) {
        return;
    }
    let code = &file.code;
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let snippet = match t.text.as_str() {
            "HashMap" | "HashSet" | "SystemTime" => t.text.clone(),
            "Instant" => {
                if seq_at(code, i + 1, &[":", ":", "now"]) {
                    "Instant::now".to_owned()
                } else {
                    "Instant".to_owned()
                }
            }
            "thread" if seq_at(code, i + 1, &[":", ":", "current"]) => "thread::current".to_owned(),
            _ => continue,
        };
        out.push(Violation {
            lint: "determinism",
            file: file.path.clone(),
            line: t.line,
            message: format!(
                "`{snippet}` in a replay-deterministic crate: simulation outcomes must not \
                 depend on wall clocks or hash iteration order"
            ),
            snippet,
        });
    }
}

const ALLOC_PATTERNS: &[(&[&str], &str)] = &[
    (&["Vec", ":", ":", "new"], "Vec::new"),
    (&["vec", "!"], "vec!"),
    (&["Box", ":", ":", "new"], "Box::new"),
    (&["String", ":", ":", "new"], "String::new"),
    (&["format", "!"], "format!"),
    (&[".", "collect"], ".collect()"),
    (&[".", "clone"], ".clone()"),
    (&[".", "to_vec"], ".to_vec()"),
    (&[".", "to_string"], ".to_string()"),
    (&[".", "to_owned"], ".to_owned()"),
];

/// Forbids syntactic allocation (and owned clones) inside the functions
/// `analysis.json` declares hot (`<file>::<fn>`, or `<file>::*`): the
/// dispatch spans, the controller cycle and the actuation / wake-up paths
/// between them.  Complements the dynamic counting-allocator test.  A
/// configured function that no longer exists is itself a violation, so
/// the hot list cannot silently rot after a rename.
fn hot_path_no_alloc(config: &AnalysisConfig, files: &[SourceFile], out: &mut Vec<Violation>) {
    for hot in &config.hot_functions {
        let Some(file) = files.iter().find(|f| f.path == hot.file) else {
            out.push(Violation {
                lint: "hot-path-no-alloc",
                file: hot.file.clone(),
                line: 0,
                snippet: format!("{}::{}", hot.file, hot.function),
                message: "hot-declared file not found in the scanned workspace".to_owned(),
            });
            continue;
        };
        let spans: Vec<&FnSpan> = file
            .fns
            .iter()
            .filter(|s| hot.function == "*" || s.name == hot.function)
            .collect();
        if spans.is_empty() {
            out.push(Violation {
                lint: "hot-path-no-alloc",
                file: hot.file.clone(),
                line: 0,
                snippet: format!("{}::{}", hot.file, hot.function),
                message: "hot-declared function not found — update analysis.json after renames"
                    .to_owned(),
            });
            continue;
        }
        for span in spans {
            let body = &file.code[span.body_start..=span.body_end.min(file.code.len() - 1)];
            for i in 0..body.len() {
                for (pattern, label) in ALLOC_PATTERNS {
                    if seq_at(body, i, pattern) {
                        out.push(Violation {
                            lint: "hot-path-no-alloc",
                            file: file.path.clone(),
                            line: body[i].line,
                            snippet: (*label).to_owned(),
                            message: format!(
                                "`{label}` inside hot function `{}`: steady-state dispatch \
                                 paths must not allocate (see tests/zero_alloc_steady_state.rs)",
                                span.name
                            ),
                        });
                    }
                }
            }
        }
    }
}

/// Flags `f64` seconds parameters (`*_s`, `*_secs`, `seconds`) in
/// function signatures of integer-time crates.  Time crosses the host
/// boundary as integer-microsecond `SimTime`; the surviving f64 edges
/// are the pre-`SimTime` surface kept for compatibility, allowlisted with
/// justifications: each converts once at the boundary and computes in
/// integer microseconds.
fn integer_time(config: &AnalysisConfig, file: &SourceFile, out: &mut Vec<Violation>) {
    if !in_scope(&file.path, config.paths("integer-time")) {
        return;
    }
    let code = &file.code;
    let mut i = 0usize;
    while i < code.len() {
        if !code[i].is_ident("fn") {
            i += 1;
            continue;
        }
        let Some(name) = code.get(i + 1).filter(|t| t.kind == TokenKind::Ident) else {
            i += 1;
            continue;
        };
        // Scan the signature up to the body `{` or declaration `;`.
        let mut j = i + 2;
        let mut depth = 0i64;
        while j < code.len() {
            let t = &code[j];
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" | ";" if depth == 0 => break,
                    _ => {}
                }
            }
            if t.kind == TokenKind::Ident
                && seconds_name(&t.text)
                && seq_at(code, j + 1, &[":", "f64"])
            {
                out.push(Violation {
                    lint: "integer-time",
                    file: file.path.clone(),
                    line: t.line,
                    snippet: format!("{}({}: f64)", name.text, t.text),
                    message: format!(
                        "f64-seconds parameter `{}` in `{}`: time crosses this layer as \
                         integer-microsecond SimTime; f64 seconds survive only at the \
                         deprecated API edge",
                        t.text, name.text
                    ),
                });
            }
            j += 1;
        }
        i = j.max(i + 1);
    }
}

fn seconds_name(name: &str) -> bool {
    name.ends_with("_s") || name.ends_with("_secs") || name == "seconds" || name == "secs"
}

/// Confines access to the configured id-keyed maps (`by_id`, and fields
/// tracked in their own file only, where another file's field shares the
/// name) to the declared public-API-edge files, and bans it outright
/// inside hot-declared functions even there (the dense-handle contract:
/// steady-state spans address threads and jobs by slot handle only).  A
/// file-scoped entry whose file never names its field guards nothing and
/// is reported as stale, like an allowlist entry that matches nothing.
fn edge_only_by_id(config: &AnalysisConfig, file: &SourceFile, out: &mut Vec<Violation>) {
    if !in_scope(&file.path, config.paths("edge-only-by-id")) {
        return;
    }
    let own = config
        .id_maps
        .iter()
        .filter(|m| m.file.as_ref() == Some(&file.path));
    for map in own.filter(|m| !file.code.iter().any(|t| t.is_ident(&m.field))) {
        out.push(Violation {
            lint: "edge-only-by-id",
            file: file.path.clone(),
            line: 0,
            snippet: map.field.clone(),
            message: format!(
                "stale id map: `{}` is tracked in this file but the file never names it — \
                 delete the entry from analysis.json",
                map.field
            ),
        });
    }
    let is_edge_file = config.edge_files.iter().any(|f| f == &file.path);
    let hot_spans: Vec<&FnSpan> = config
        .hot_functions
        .iter()
        .filter(|h| h.file == file.path)
        .flat_map(|h| {
            file.fns
                .iter()
                .filter(move |s| h.function == "*" || s.name == h.function)
        })
        .collect();
    let tracked: Vec<&str> = config
        .id_maps
        .iter()
        .filter(|m| m.file.as_ref().is_none_or(|f| f == &file.path))
        .map(|m| m.field.as_str())
        .collect();
    for (i, t) in file.code.iter().enumerate() {
        if t.kind != TokenKind::Ident || !tracked.contains(&t.text.as_str()) {
            continue;
        }
        let map = &t.text;
        let in_hot = hot_spans
            .iter()
            .find(|s| i >= s.body_start && i <= s.body_end);
        if let Some(span) = in_hot {
            out.push(Violation {
                lint: "edge-only-by-id",
                file: file.path.clone(),
                line: t.line,
                snippet: format!("{map} in {}", span.name),
                message: format!(
                    "`{map}` inside hot function `{}`: steady-state spans must use dense \
                     slot handles, id maps survive only at the public API edge",
                    span.name
                ),
            });
        } else if !is_edge_file {
            out.push(Violation {
                lint: "edge-only-by-id",
                file: file.path.clone(),
                line: t.line,
                snippet: map.clone(),
                message: format!(
                    "`{map}` outside the declared public-API-edge files (see \
                     analysis.json lints.edge-only-by-id.edge_files)"
                ),
            });
        }
    }
}

/// Forbids bare `unwrap()` and empty `expect("")` outside `#[cfg(test)]`
/// code in steady-state crates: a slot-invariant panic must name the
/// invariant that broke.
fn panic_discipline(config: &AnalysisConfig, file: &SourceFile, out: &mut Vec<Violation>) {
    if !in_scope(&file.path, config.paths("panic-discipline")) {
        return;
    }
    let code = &file.code;
    for i in 0..code.len() {
        if seq_at(code, i, &[".", "unwrap", "(", ")"]) {
            out.push(Violation {
                lint: "panic-discipline",
                file: file.path.clone(),
                line: code[i + 1].line,
                snippet: ".unwrap()".to_owned(),
                message: "bare `unwrap()` on a steady-state path: use \
                          `expect(\"<named invariant>\")` so a panic identifies which \
                          invariant broke, or add a justified allowlist entry"
                    .to_owned(),
            });
        }
        if seq_at(code, i, &[".", "expect", "("])
            && code.get(i + 3).is_some_and(|t| {
                t.kind == TokenKind::Literal && (t.text == "\"\"" || t.text == "r\"\"")
            })
        {
            out.push(Violation {
                lint: "panic-discipline",
                file: file.path.clone(),
                line: code[i + 1].line,
                snippet: "expect(\"\")".to_owned(),
                message: "empty `expect(\"\")` message: name the invariant that broke".to_owned(),
            });
        }
    }
}

/// Enumerates every `unsafe` occurrence (tests included) into the
/// inventory and flags any without a `// SAFETY:` comment on the same
/// line or within the three lines above.  The production crates all
/// `#![forbid(unsafe_code)]`, so the sites are in test code.
fn unsafe_inventory(
    config: &AnalysisConfig,
    file: &SourceFile,
    out: &mut Vec<Violation>,
    inventory: &mut Vec<UnsafeSite>,
) {
    if !in_scope(&file.path, config.paths("unsafe-inventory")) {
        return;
    }
    for (i, t) in file.tokens.iter().enumerate() {
        if !t.is_ident("unsafe") {
            continue;
        }
        let kind = file
            .tokens
            .iter()
            .skip(i + 1)
            .find(|n| n.kind != TokenKind::Comment)
            .map(|n| match n.text.as_str() {
                "impl" | "fn" | "trait" => n.text.clone(),
                _ => "block".to_owned(),
            })
            .unwrap_or_else(|| "block".to_owned());
        let line = t.line as usize;
        let documented = (line.saturating_sub(3)..=line)
            .filter_map(|l| file.lines.get(l.saturating_sub(1)))
            .any(|text| text.contains("SAFETY:"));
        if !documented {
            out.push(Violation {
                lint: "unsafe-inventory",
                file: file.path.clone(),
                line: t.line,
                snippet: format!("unsafe {kind}"),
                message: format!(
                    "`unsafe {kind}` without a `// SAFETY:` comment on the same line or \
                     the three lines above"
                ),
            });
        }
        inventory.push(UnsafeSite {
            file: file.path.clone(),
            line: t.line,
            kind,
            documented,
        });
    }
}

/// Audits the sharded parallel region (`ShardedSim::advance_all`): inside
/// every `std::thread::scope(...)` call in the configured file,
/// `self.<field>` may touch only the per-shard handles, and the
/// barrier-merge machinery (trace merge, rebalancer state) must not be
/// reachable at all.  Complements the bit-identical parallel-vs-sequential
/// test in `tests/sharded_sim.rs`.
fn parallel_region(config: &AnalysisConfig, file: &SourceFile, out: &mut Vec<Violation>) {
    if file.path != config.parallel_file || config.parallel_file.is_empty() {
        return;
    }
    let code = &file.code;
    let mut i = 0usize;
    while i < code.len() {
        if !(seq_at(code, i, &["thread", ":", ":", "scope"]) && seq_at(code, i + 4, &["("])) {
            i += 1;
            continue;
        }
        let open = i + 4;
        let close = lexer::matching_close(code, open);
        let region = &code[open..close.min(code.len())];
        for (k, t) in region.iter().enumerate() {
            if t.is_ident("self") && seq_at(region, k + 1, &["."]) {
                if let Some(field) = region.get(k + 2).filter(|f| f.kind == TokenKind::Ident) {
                    if !config
                        .parallel_allowed_self_fields
                        .iter()
                        .any(|a| a == &field.text)
                    {
                        out.push(Violation {
                            lint: "parallel-region",
                            file: file.path.clone(),
                            line: field.line,
                            snippet: format!("self.{}", field.text),
                            message: format!(
                                "`self.{}` inside the scoped-thread parallel region: shards \
                                 may reach shared state only through the allowlisted \
                                 per-shard handles (shared state merges at barriers)",
                                field.text
                            ),
                        });
                    }
                }
            }
            if t.kind == TokenKind::Ident && config.parallel_forbidden.iter().any(|f| f == &t.text)
            {
                out.push(Violation {
                    lint: "parallel-region",
                    file: file.path.clone(),
                    line: t.line,
                    snippet: t.text.clone(),
                    message: format!(
                        "barrier-merge machinery `{}` referenced inside the parallel \
                         region: merges must happen at barriers, after every shard joined",
                        t.text
                    ),
                });
            }
        }
        i = close.max(i + 1);
    }
}

/// The parallel region must *exist*, and so must every name its config
/// lists: a missing `thread::scope` call (reported alone), or a self
/// field or forbidden name the file never mentions, means the audit has
/// silently lost its subject, which is itself an error.
fn parallel_region_presence(
    config: &AnalysisConfig,
    files: &[SourceFile],
    out: &mut Vec<Violation>,
) {
    if config.parallel_file.is_empty() {
        return;
    }
    let Some(file) = files.iter().find(|f| {
        f.path == config.parallel_file
            && (0..f.code.len()).any(|i| seq_at(&f.code, i, &["thread", ":", ":", "scope"]))
    }) else {
        out.push(Violation {
            lint: "parallel-region",
            file: config.parallel_file.clone(),
            line: 0,
            snippet: "thread::scope".to_owned(),
            message: "no `thread::scope` parallel region found in the configured file — \
                      update analysis.json if the sharded executor moved"
                .to_owned(),
        });
        return;
    };
    let configured = config.parallel_allowed_self_fields.iter();
    for name in configured.chain(&config.parallel_forbidden) {
        if !file.code.iter().any(|t| t.is_ident(name)) {
            out.push(Violation {
                lint: "parallel-region",
                file: file.path.clone(),
                line: 0,
                snippet: name.clone(),
                message: format!(
                    "`{name}` is configured for the parallel region but the file never \
                     mentions it, so the entry guards nothing — delete it from analysis.json"
                ),
            });
        }
    }
}

/// The compilation unit a source file belongs to, for `dead-public`: its
/// name and whether it is a library crate (whose `pub` items the lint
/// audits).  `None` for test code — anything under a `tests/` or
/// `benches/` directory — which is never a caller.
///
/// `crates/<name>/src/**` is the library `crates/<name>`, except its
/// `src/bin/**` and `src/main.rs`, which are separate binary crates and
/// therefore callers *of* that library.  Everything else (the facade's
/// `src/`, `examples/`, `benchmark/src`) is a caller-only unit named by
/// its first path component.
fn crate_unit(path: &str) -> Option<(String, bool)> {
    let parts: Vec<&str> = path.split('/').collect();
    if parts.iter().any(|p| *p == "tests" || *p == "benches") {
        return None;
    }
    Some(match parts.as_slice() {
        ["crates", name, "src", "bin", ..] | ["crates", name, "src", "main.rs"] => {
            (format!("crates/{name}/src/bin"), false)
        }
        ["crates", name, "src", ..] => (format!("crates/{name}"), true),
        ["crates", name, ..] => (format!("crates/{name}/{}", parts[2]), false),
        _ => (parts[0].to_owned(), false),
    })
}

/// Item kinds `dead-public` audits after an unrestricted `pub`.
const ITEM_KEYWORDS: &[&str] = &["fn", "struct", "enum", "trait", "type", "const"];

/// The item kinds that name a type.  A caller can hold one of these
/// without ever spelling it (the return value of a live `pub fn`, a
/// `pub` field), so they are also kept by [`exposed_names`].
const TYPE_KEYWORDS: &[&str] = &["struct", "enum", "trait", "type"];

/// Function qualifiers that may sit between `pub` and `fn`.
const FN_QUALIFIERS: &[&str] = &["const", "async", "unsafe", "extern"];

/// A `pub` is a promise to another crate.  Every unrestricted `pub`
/// `fn` / `struct` / `enum` / `trait` / `type` / `const` in a library
/// crate under the configured paths must be *named* by non-test code of
/// a different compilation unit (see [`crate_unit`]): another library, a
/// binary, an example, the facade, the benchmark package.  `pub use`
/// re-exports, `#[cfg(test)]` items, `tests/` directories, comments
/// (doctests included) and string literals do not count as callers.
///
/// The match is by bare identifier, with no name resolution, so it is
/// conservative: a `new` or `len` somewhere else keeps every `new` and
/// `len` alive.  What it does flag has no caller by any spelling.  One
/// sharpening: a *free* function (declared outside any `impl` or `trait`
/// block) is not kept alive by a method call `x.name()` or a declaration
/// `fn name`, which cannot reach it — only by a path, a bare call or a
/// use as a value.  One more thing keeps a *type* alive: appearing in a
/// public signature of its own crate ([`exposed_names`]) — rustc's
/// `private_interfaces` would refuse the demotion anyway.
///
/// The remedy is to delete the item, demote it to `pub(crate)` (after
/// which rustc's own `dead_code` decides, with real name resolution,
/// whether it is live inside its crate), or allowlist it with a reason.
fn dead_public(config: &AnalysisConfig, files: &[SourceFile], out: &mut Vec<Violation>) {
    if config.paths("dead-public").is_empty() {
        return;
    }
    let units: Vec<Option<(String, bool)>> = files.iter().map(|f| crate_unit(&f.path)).collect();
    // (name, spelled where only a method can be meant) → the distinct
    // units whose non-test, non-re-export code names it so.
    let mut named_by: BTreeMap<(&str, bool), Vec<&str>> = BTreeMap::new();
    // library unit → names its own public signatures expose.
    let mut exposed: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    // per file: the unrestricted `pub` declarations of a library's source.
    let mut decls: Vec<Vec<PubDecl>> = Vec::with_capacity(files.len());
    for (file, unit) in files.iter().zip(&units) {
        decls.push(Vec::new());
        let Some((unit, is_lib)) = unit else { continue };
        let code = &file.code;
        let mut i = 0usize;
        while i < code.len() {
            if let Some(end) = pub_use_end(code, i) {
                i = end + 1;
                continue;
            }
            if code[i].kind == TokenKind::Ident {
                let key = (code[i].text.as_str(), method_or_decl(code, i));
                let units = named_by.entry(key).or_default();
                if !units.contains(&unit.as_str()) {
                    units.push(unit);
                }
            }
            i += 1;
        }
        if *is_lib {
            let found = pub_decls(code);
            exposed_names(code, &found, exposed.entry(unit).or_default());
            *decls.last_mut().expect("pushed above") = found;
        }
    }
    for ((file, unit), decls) in files.iter().zip(&units).zip(&decls) {
        let Some((unit, true)) = unit else { continue };
        if !in_scope(&file.path, config.paths("dead-public")) {
            continue;
        }
        let code = &file.code;
        for decl in decls {
            let (kind, Some(name)) = (&code[decl.keyword], code.get(decl.keyword + 1)) else {
                continue;
            };
            if !ITEM_KEYWORDS.contains(&kind.text.as_str()) || name.kind != TokenKind::Ident {
                continue;
            }
            let free_fn = kind.text == "fn" && decl.owner.is_none();
            let spellings: &[bool] = if free_fn { &[false] } else { &[false, true] };
            let named_elsewhere = spellings
                .iter()
                .filter_map(|&method_only| named_by.get(&(name.text.as_str(), method_only)))
                .any(|units| units.iter().any(|u| u != unit));
            let exposed_here = TYPE_KEYWORDS.contains(&kind.text.as_str())
                && exposed[unit.as_str()].contains(name.text.as_str());
            if !named_elsewhere && !exposed_here {
                out.push(Violation {
                    lint: "dead-public",
                    file: file.path.clone(),
                    line: name.line,
                    snippet: format!("{} {}", kind.text, name.text),
                    message: format!(
                        "`pub {} {}` is named by no non-test code outside {unit}: delete it, \
                         demote it to `pub(crate)`, or allowlist it with a reason",
                        kind.text, name.text
                    ),
                });
            }
        }
    }
}

/// `true` when the identifier at `i` is spelled where no free function
/// of another crate can be meant: after a method-call `.` (not `..`), or
/// after `fn` (a declaration of its own).
fn method_or_decl(code: &[Token], i: usize) -> bool {
    let before = |k: usize| i.checked_sub(k).map(|j| &code[j]);
    before(1).is_some_and(|t| t.is_ident("fn"))
        || (before(1).is_some_and(|t| t.is_punct("."))
            && !before(2).is_some_and(|t| t.is_punct(".")))
}

/// Every `impl` and `trait` block in `code`: its header (from the
/// keyword up to its `{`) and the index of its closing `}`.
fn assoc_blocks(code: &[Token]) -> Vec<(Range<usize>, usize)> {
    let mut out = Vec::new();
    for (i, t) in code.iter().enumerate() {
        // `impl` in item position opens a block; `x: impl Trait` does not.
        let item_position =
            i == 0 || ["}", "{", ";", "]", "unsafe"].contains(&code[i - 1].text.as_str());
        if t.is_ident("trait") || (t.is_ident("impl") && item_position) {
            let open = scan_to(code, i, &["{", ";"]);
            if code.get(open).is_some_and(|t| t.is_punct("{")) {
                out.push((i..open, lexer::matching_close(code, open)));
            }
        }
    }
    out
}

/// One unrestricted `pub` declaration (not a `pub use` / `pub mod`).
struct PubDecl {
    /// Index of the item keyword (`fn`, `struct`, ...); for a `pub`
    /// field, of the first token after `pub`.
    keyword: usize,
    /// One past the last token of the declaration's public *head*: a
    /// `fn` signature or `struct` header up to its body, a whole `trait`
    /// or `enum` (methods, variants and payloads are as public as the
    /// item), a `type` / `const` / `static` through its `;`, a field
    /// through its type.
    head_end: usize,
    /// The header of the `impl` or `trait` block the declaration sits in
    /// (a method), or `None` (a free item).
    owner: Option<Range<usize>>,
}

/// Finds every unrestricted `pub` declaration in `code`.  `pub(crate)` /
/// `pub(super)` promise nothing outside the crate and are skipped.
fn pub_decls(code: &[Token]) -> Vec<PubDecl> {
    let blocks = assoc_blocks(code);
    let mut out = Vec::new();
    for i in 0..code.len() {
        if !code[i].is_ident("pub") || code.get(i + 1).is_some_and(|t| t.is_punct("(")) {
            continue;
        }
        // Step over function qualifiers (`pub const unsafe extern "C" fn`);
        // a `const` followed by a name is the item keyword itself.
        let mut k = i + 1;
        while code
            .get(k)
            .is_some_and(|t| FN_QUALIFIERS.contains(&t.text.as_str()))
            && code.get(k + 1).is_some_and(|n| {
                n.is_ident("fn")
                    || n.kind == TokenKind::Literal
                    || FN_QUALIFIERS.contains(&n.text.as_str())
            })
        {
            k += 1;
            if code[k].kind == TokenKind::Literal {
                k += 1;
            }
        }
        let Some(keyword) = code.get(k) else { continue };
        let head_end = match keyword.text.as_str() {
            "use" | "mod" => continue,
            "trait" | "enum" => {
                let stop = scan_to(code, k, &["{", ";"]);
                if code.get(stop).is_some_and(|t| t.is_punct("{")) {
                    lexer::matching_close(code, stop)
                } else {
                    stop
                }
            }
            "fn" | "struct" | "union" => scan_to(code, k, &["{", ";"]),
            "type" | "const" | "static" => scan_to(code, k, &[";"]),
            _ => scan_to(code, k, &[","]),
        };
        let owner = blocks
            .iter()
            .find(|(header, close)| header.end < k && k < *close)
            .map(|(header, _)| header.clone());
        out.push(PubDecl {
            keyword: k,
            head_end,
            owner,
        });
    }
    out
}

/// Index of the first token at or after `from` that sits at bracket
/// depth zero (`()`, `[]`, `<>`, and `{}` unless `{` is itself a stop)
/// and is one of `stops` — or closes a bracket opened before `from`.
/// `code.len()` if there is none.
fn scan_to(code: &[Token], from: usize, stops: &[&str]) -> usize {
    let mut depth = 0i64;
    for (k, t) in code.iter().enumerate().skip(from) {
        if t.kind != TokenKind::Punct {
            continue;
        }
        let text = t.text.as_str();
        if depth == 0 && stops.contains(&text) {
            return k;
        }
        match text {
            "(" | "[" | "{" | "<" => depth += 1,
            // `->` is an arrow, not a closing angle bracket.
            ">" if code[k - 1].is_punct("-") => {}
            ")" | "]" | "}" | ">" => {
                depth -= 1;
                if depth < 0 {
                    return k;
                }
            }
            _ => {}
        }
    }
    code.len()
}

/// Collects into `out` every identifier a library's public signatures
/// expose: the heads of its [`pub_decls`] (`decls`), minus each
/// declaration's own name, and minus — inside an `impl` block — the names
/// in that block's header, so `impl Foo { pub fn merge(&mut self, other:
/// &Foo) }` does not keep `Foo` alive by itself.
fn exposed_names<'a>(code: &'a [Token], decls: &[PubDecl], out: &mut BTreeSet<&'a str>) {
    for decl in decls {
        let i = decl.keyword;
        let header = decl.owner.clone().map_or(&[][..], |h| &code[h]);
        let own_name = ITEM_KEYWORDS.contains(&code[i].text.as_str()) as usize;
        for t in &code[(i + own_name + 1).min(decl.head_end)..decl.head_end] {
            if t.kind == TokenKind::Ident && !header.iter().any(|h| h.text == t.text) {
                out.insert(t.text.as_str());
            }
        }
    }
}

/// If a `pub use ...;` re-export (restricted or not) starts at token
/// `i`, the index of its closing `;`.
fn pub_use_end(code: &[Token], i: usize) -> Option<usize> {
    if !code[i].is_ident("pub") {
        return None;
    }
    let mut k = i + 1;
    if code.get(k).is_some_and(|t| t.is_punct("(")) {
        k = lexer::matching_close(code, k) + 1;
    }
    if !code.get(k).is_some_and(|t| t.is_ident("use")) {
        return None;
    }
    Some(
        code[k..]
            .iter()
            .position(|t| t.is_punct(";"))
            .map_or(code.len(), |p| k + p),
    )
}
