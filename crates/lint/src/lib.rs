//! accl-lint: the determinism linter for the ACCL+ simulation workspace.
//!
//! Every experiment in this repository rests on the simulator's bit-replay
//! contract: a seeded run replays bit-identically, across runs, tie
//! permutations and machines. That contract is trivially broken by ambient
//! nondeterminism — one `HashMap` iteration in an event handler, one wall
//! clock read, one float accumulating into a timestamp — and nothing about
//! `cargo test` catches the breakage until a golden digest diverges weeks
//! later. This crate is the static half of the enforcement (the dynamic
//! half is `accl-sim`'s race detector, `accl_sim::race`): a lexer-based
//! pass over the sim-visible crates that reports determinism hazards with
//! `file:line` diagnostics and fails CI on any unannotated finding.
//!
//! The pass is token-based, not AST-based (the build environment is
//! offline, so `syn` is unavailable); precision comes from small amounts of
//! context tracking — variable/field names declared with unordered types,
//! balanced-paren argument scans for time constructors — rather than full
//! type resolution. `#[cfg(test)]` items are skipped: test-only code may
//! observe nondeterminism without perturbing the simulated timeline.
//!
//! # Rules
//!
//! | rule | severity | bans |
//! |------|----------|------|
//! | `unordered-collection` | deny | `HashMap`/`HashSet` (and IndexMap) in sim-visible code |
//! | `unordered-iteration`  | deny | `.iter()`/`.keys()`/`.values()`/`.drain()`/`.retain()`/`for … in` over a tracked unordered map |
//! | `wall-clock`           | deny | `Instant`, `SystemTime` (simulated time only) |
//! | `ambient-entropy`      | deny | `thread_rng`, `from_entropy`, `OsRng`, `RandomState`, `DefaultHasher`, `getrandom` |
//! | `float-timing`         | deny | float literals / `f32`/`f64` casts / float math inside `Time::from_*` / `Dur::from_*` arguments |
//! | `unstable-tie-sort`    | warn | `sort_unstable_by` / `sort_unstable_by_key` (projection may tie; `sort_unstable` by full value is fine) |
//!
//! # Audited exceptions
//!
//! A finding is suppressed by an `allow_nondeterminism` annotation in a
//! comment on the same line or the line directly above, naming the rule and
//! a reason:
//!
//! ```text
//! // allow_nondeterminism(unstable-tie-sort): keys are (time, seq), unique by construction
//! bucket.sort_unstable_by_key(|e| Reverse(e.key()));
//! ```
//!
//! An annotation with the wrong rule name or an empty reason does not
//! suppress anything (and is itself reported), so exceptions stay audited.

pub mod cfg;
pub mod lexer;
pub mod parse;
pub mod rules;

use std::fmt;
use std::path::{Path, PathBuf};

use lexer::{lex, Comment, TokKind, Token};

/// Crates whose `src/` trees are sim-visible and therefore linted.
pub const LINTED_CRATES: &[&str] = &["sim", "net", "poe", "mem", "cclo", "core", "swmpi", "obs"];

/// How severe a finding is. `Deny` findings break the bit-replay contract
/// outright; `Warn` findings are hazards that need an audit (and an
/// annotation) to stay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Breaks determinism; must be fixed or explicitly annotated.
    Deny,
    /// Potential hazard; must be audited and annotated.
    Warn,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Deny => write!(f, "deny"),
            Severity::Warn => write!(f, "warn"),
        }
    }
}

/// One determinism hazard at a source location.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Path as given to the linter (workspace-relative in CI output).
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Rule id, e.g. `unordered-collection`.
    pub rule: &'static str,
    pub severity: Severity,
    /// Human-readable diagnostic.
    pub message: String,
    /// Audited-exception reason, when an `allow_nondeterminism` annotation
    /// covers the finding. `None` means the finding gates.
    pub allowed: Option<String>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}[{}] {}",
            self.file, self.line, self.severity, self.rule, self.message
        )?;
        if let Some(reason) = &self.allowed {
            write!(f, " (allowed: {reason})")?;
        }
        Ok(())
    }
}

const UNORDERED_TYPES: &[&str] = &["HashMap", "HashSet", "IndexMap", "IndexSet"];
const WALL_CLOCK: &[&str] = &["Instant", "SystemTime"];
const ENTROPY: &[&str] = &[
    "thread_rng",
    "from_entropy",
    "OsRng",
    "RandomState",
    "DefaultHasher",
    "getrandom",
];
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_iter",
    "into_keys",
    "into_values",
];
const TIME_CTORS: &[&str] = &[
    "from_ps",
    "from_ns",
    "from_us",
    "from_ms",
    "from_s",
    "from_cycles",
];
const FLOAT_HINTS: &[&str] = &[
    "f32", "f64", "powf", "powi", "sqrt", "round", "ceil", "floor", "exp", "ln", "log2", "log10",
];

/// An `allow_nondeterminism` annotation that no longer suppresses any
/// finding — dead weight that hides real audit state (reported by the
/// CLI's `--audit-allows` mode).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaleAllow {
    /// Path as given to the linter.
    pub file: String,
    /// 1-based line of the annotation comment.
    pub line: u32,
    /// Rule name the annotation claims to allow.
    pub rule: String,
}

impl fmt::Display for StaleAllow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: stale allow_nondeterminism({}) — suppresses no finding; remove it",
            self.file, self.line, self.rule
        )
    }
}

/// Infers the crate name from a workspace-relative label such as
/// `crates/net/src/switch.rs` (used by the layering rule).
fn crate_of_label(file: &str) -> Option<&str> {
    let norm = file.strip_prefix("./").unwrap_or(file);
    let at = norm.find("crates/")?;
    let rest = &norm[at + "crates/".len()..];
    let end = rest.find('/')?;
    Some(&rest[..end])
}

/// Lints one source file given as a string. `file` is only used to label
/// diagnostics (and to infer the crate for the layering rule).
pub fn lint_source(file: &str, src: &str) -> Vec<Finding> {
    lint_source_full(file, src).0
}

/// Like [`lint_source`] but also returns the stale `allow_nondeterminism`
/// annotations found in the file.
pub fn lint_source_full(file: &str, src: &str) -> (Vec<Finding>, Vec<StaleAllow>) {
    let (toks, comments) = lex(src);
    let (toks, skipped) = strip_cfg_test_with_spans(&toks);
    // Comments inside `#[cfg(test)]` items never match a finding (the
    // tokens are stripped), so their allows must not be audited as stale.
    let comments: Vec<Comment> = comments
        .into_iter()
        .filter(|c| {
            !skipped
                .iter()
                .any(|(lo, hi)| c.line >= *lo && c.line <= *hi)
        })
        .collect();
    let mut findings = Vec::new();

    let tracked = collect_unordered_names(&toks);

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let name = t.text.as_str();

        if UNORDERED_TYPES.contains(&name) {
            findings.push(Finding {
                file: file.into(),
                line: t.line,
                rule: "unordered-collection",
                severity: Severity::Deny,
                message: format!(
                    "`{name}` in sim-visible code: iteration order depends on the hasher; \
                     use `BTreeMap`/`BTreeSet` or another deterministic-order structure"
                ),
                allowed: None,
            });
        } else if WALL_CLOCK.contains(&name) {
            // Only two spellings can reach the host clock: a path use
            // (`Instant::now`, `SystemTime::now`) or an import through the
            // `time` module (`use std::time::Instant`). An identifier that
            // merely *spells* a clock name — the trace module's
            // `SpanEventKind::Instant` variant, its declaration, a match
            // arm — is not a clock read, and bare type positions are
            // unreachable without a flagged import.
            let path_use = toks.get(i + 1).is_some_and(|n| n.text == "::");
            // `time::Instant` directly, or inside a brace group:
            // `use std::time::{Duration, Instant}`.
            let time_import = {
                let mut j = i;
                while j >= 1 && (toks[j - 1].text == "," || toks[j - 1].kind == TokKind::Ident) {
                    j -= 1;
                }
                if j >= 1 && toks[j - 1].text == "{" {
                    j -= 1;
                }
                j >= 2 && toks[j - 1].text == "::" && toks[j - 2].text == "time"
            };
            if path_use || time_import {
                findings.push(Finding {
                    file: file.into(),
                    line: t.line,
                    rule: "wall-clock",
                    severity: Severity::Deny,
                    message: format!(
                        "`{name}` reads the host clock: simulation logic must use simulated \
                         time (`Ctx::now`) only"
                    ),
                    allowed: None,
                });
            }
        } else if ENTROPY.contains(&name) {
            findings.push(Finding {
                file: file.into(),
                line: t.line,
                rule: "ambient-entropy",
                severity: Severity::Deny,
                message: format!(
                    "`{name}` draws ambient entropy: all randomness must come from a \
                     seeded per-component stream (`Simulator::fork_rng`)"
                ),
                allowed: None,
            });
        } else if (name == "sort_unstable_by" || name == "sort_unstable_by_key")
            && prev_is_dot(&toks, i)
        {
            findings.push(Finding {
                file: file.into(),
                line: t.line,
                rule: "unstable-tie-sort",
                severity: Severity::Warn,
                message: format!(
                    "`{name}` with a key projection: elements comparing equal keep an \
                     unspecified relative order; sort by a total key, use a stable sort, \
                     or annotate why ties are impossible"
                ),
                allowed: None,
            });
        } else if ITER_METHODS.contains(&name)
            && prev_is_dot(&toks, i)
            && i >= 2
            && toks[i - 2].kind == TokKind::Ident
            && tracked.contains(&toks[i - 2].text)
        {
            findings.push(Finding {
                file: file.into(),
                line: t.line,
                rule: "unordered-iteration",
                severity: Severity::Deny,
                message: format!(
                    "`.{name}()` over `{}`, which is declared as an unordered map/set: \
                     visit order is hasher-dependent",
                    toks[i - 2].text
                ),
                allowed: None,
            });
        } else if name == "in" {
            // `for x in [&[mut]] tracked { ... }`
            let mut j = i + 1;
            while j < toks.len()
                && matches!(toks[j].text.as_str(), "&" | "mut" | "(" | "self" | ".")
            {
                j += 1;
            }
            if j < toks.len()
                && toks[j].kind == TokKind::Ident
                && tracked.contains(&toks[j].text)
                && toks
                    .get(j + 1)
                    .is_some_and(|n| n.text == "{" || n.text == ")")
            {
                findings.push(Finding {
                    file: file.into(),
                    line: toks[j].line,
                    rule: "unordered-iteration",
                    severity: Severity::Deny,
                    message: format!(
                        "`for … in {}` iterates an unordered map/set: visit order is \
                         hasher-dependent",
                        toks[j].text
                    ),
                    allowed: None,
                });
            }
        } else if TIME_CTORS.contains(&name)
            && i >= 2
            && toks[i - 1].text == "::"
            && (toks[i - 2].text == "Time" || toks[i - 2].text == "Dur")
        {
            if let Some(hint) = float_in_args(&toks, i + 1) {
                findings.push(Finding {
                    file: file.into(),
                    line: t.line,
                    rule: "float-timing",
                    severity: Severity::Deny,
                    message: format!(
                        "float arithmetic ({hint}) feeding `{}::{}`: timestamps must be \
                         computed in fixed point (the Pipe 32.32-ps contract) — float \
                         rounding is platform- and optimization-dependent",
                        toks[i - 2].text,
                        name
                    ),
                    allowed: None,
                });
            }
        } else if (name == "Time" || name == "Dur")
            && toks.get(i + 1).is_some_and(|n| n.text == "(")
            && !prev_is_dot(&toks, i)
        {
            // Tuple construction `Dur(…)` / `Time(…)` (only possible inside
            // `accl-sim::time` itself, where the field is visible): float
            // math inside the argument is the same hazard as at `from_*`
            // call sites.
            if let Some(hint) = float_in_args(&toks, i + 1) {
                findings.push(Finding {
                    file: file.into(),
                    line: t.line,
                    rule: "float-timing",
                    severity: Severity::Deny,
                    message: format!(
                        "float arithmetic ({hint}) constructing `{name}`: a float-to-time \
                         conversion must be an audited single-rounding unit boundary, \
                         never accumulation (the Pipe 32.32-ps contract)"
                    ),
                    allowed: None,
                });
            }
        }
        i += 1;
    }

    // Parser-backed rule families (resource-pairing, digest-coverage,
    // exhaustive-handling, layering, time-safety) run over the structural
    // view of the same stripped token stream.
    let parsed = parse::parse_file(&toks);
    findings.extend(rules::run(file, crate_of_label(file), &toks, &parsed));

    let stale = apply_allows(file, &mut findings, &comments);
    (findings, stale)
}

/// Returns true when `toks[i]` is directly preceded by a `.`.
fn prev_is_dot(toks: &[Token], i: usize) -> bool {
    i >= 1 && toks[i - 1].kind == TokKind::Punct && toks[i - 1].text == "."
}

/// Names of fields and locals declared with an unordered map/set type in
/// this file: `name: HashMap<…>`, `let [mut] name = HashMap::new()`, and
/// `name = HashSet::with_capacity(…)` forms.
fn collect_unordered_names(toks: &[Token]) -> Vec<String> {
    let mut names = Vec::new();
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident || !UNORDERED_TYPES.contains(&toks[i].text.as_str()) {
            continue;
        }
        // Walk backwards over the type/initializer expression to the
        // introducing `name :` or `name =`, stopping at statement or item
        // boundaries.
        let mut j = i;
        while j > 0 {
            j -= 1;
            let t = &toks[j];
            if t.kind == TokKind::Punct
                && matches!(t.text.as_str(), ";" | "{" | "}" | "(" | "," | ")")
            {
                break;
            }
            if t.kind == TokKind::Punct && (t.text == ":" || t.text == "=") && j >= 1 {
                let cand = &toks[j - 1];
                if cand.kind == TokKind::Ident
                    && !matches!(cand.text.as_str(), "let" | "mut" | "pub")
                {
                    names.push(cand.text.clone());
                }
                break;
            }
        }
    }
    names.sort_unstable();
    names.dedup();
    names
}

/// Scans a balanced-paren argument list starting at the `(` at/after
/// `start`; returns the first float hint found inside, if any.
fn float_in_args(toks: &[Token], start: usize) -> Option<String> {
    let mut i = start;
    if toks.get(i).map(|t| t.text.as_str()) != Some("(") {
        return None;
    }
    let mut depth = 0i32;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        return None;
                    }
                }
                _ => {}
            }
        } else if t.kind == TokKind::Float {
            return Some(format!("float literal `{}`", t.text));
        } else if t.kind == TokKind::Ident && FLOAT_HINTS.contains(&t.text.as_str()) {
            return Some(format!("`{}`", t.text));
        }
        i += 1;
    }
    None
}

/// Removes token ranges covered by `#[cfg(test)]`: the attribute plus the
/// following item (up to the matching `}` of its first brace block, or the
/// next `;` for brace-less items).
#[allow(dead_code)]
fn strip_cfg_test(toks: &[Token]) -> Vec<Token> {
    strip_cfg_test_with_spans(toks).0
}

/// Like [`strip_cfg_test`], also returning the inclusive line spans of the
/// stripped regions (so comment-based allow auditing can skip them).
fn strip_cfg_test_with_spans(toks: &[Token]) -> (Vec<Token>, Vec<(u32, u32)>) {
    let mut out = Vec::with_capacity(toks.len());
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if is_cfg_test_at(toks, i) {
            let span_lo = toks[i].line;
            // Skip the attribute itself: `# [ cfg ( test ) ]` = 7 tokens
            // (with `(test)` possibly longer, e.g. `cfg(all(test, ...))`);
            // find the closing `]`.
            let mut j = i + 1; // at `[`
            let mut depth = 0i32;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            // Skip any further attributes between cfg(test) and the item.
            while j < toks.len() && toks[j].text == "#" {
                let mut depth = 0i32;
                j += 1;
                while j < toks.len() {
                    match toks[j].text.as_str() {
                        "[" => depth += 1,
                        "]" => {
                            depth -= 1;
                            if depth == 0 {
                                j += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
            // Skip the item: to the matching `}` of the first `{`, unless a
            // `;` ends it first (e.g. `#[cfg(test)] use …;`).
            let mut depth = 0i32;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    ";" if depth == 0 => {
                        j += 1;
                        break;
                    }
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            let span_hi = toks
                .get(j.saturating_sub(1))
                .map(|t| t.line)
                .unwrap_or(span_lo);
            spans.push((span_lo, span_hi));
            i = j;
            continue;
        }
        out.push(toks[i].clone());
        i += 1;
    }
    (out, spans)
}

/// Matches `# [ cfg ( test ) ]` or `# [ cfg ( all|any ( … test … ) ) ]`
/// starting at token `i`.
fn is_cfg_test_at(toks: &[Token], i: usize) -> bool {
    if toks.get(i).map(|t| t.text.as_str()) != Some("#")
        || toks.get(i + 1).map(|t| t.text.as_str()) != Some("[")
        || toks.get(i + 2).map(|t| t.text.as_str()) != Some("cfg")
    {
        return false;
    }
    // Scan to the closing `]`, looking for a bare `test` ident.
    let mut j = i + 3;
    let mut depth = 0i32;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "[" | "(" => depth += 1,
            ")" => depth -= 1,
            "]" if depth == 0 => return false,
            "test" if toks[j].kind == TokKind::Ident => return true,
            _ => {}
        }
        j += 1;
    }
    false
}

/// Suppresses findings covered by a valid `allow_nondeterminism` comment on
/// the same line or the line directly above. Invalid annotations (missing
/// rule or reason) are surfaced as findings themselves. Returns the allows
/// that matched no finding — stale audits.
fn apply_allows(file: &str, findings: &mut Vec<Finding>, comments: &[Comment]) -> Vec<StaleAllow> {
    let mut allows: Vec<(u32, String, String)> = Vec::new(); // (line, rule, reason)
    let mut bad: Vec<Finding> = Vec::new();
    for c in comments {
        let Some(pos) = c.text.find("allow_nondeterminism") else {
            continue;
        };
        let rest = &c.text[pos + "allow_nondeterminism".len()..];
        let parsed = (|| {
            let rest = rest.trim_start();
            let inner = rest.strip_prefix('(')?;
            let close = inner.find(')')?;
            let rule = inner[..close].trim().to_string();
            let after = inner[close + 1..]
                .trim_start()
                .trim_start_matches(':')
                .trim();
            if rule.is_empty() || after.is_empty() {
                return None;
            }
            Some((rule, after.to_string()))
        })();
        match parsed {
            Some((rule, reason)) => allows.push((c.line, rule, reason)),
            None => bad.push(Finding {
                file: file.into(),
                line: c.line,
                rule: "bad-allow-annotation",
                severity: Severity::Deny,
                message: "malformed `allow_nondeterminism` annotation: expected \
                          `allow_nondeterminism(rule-name): reason`"
                    .into(),
                allowed: None,
            }),
        }
    }
    let mut used = vec![false; allows.len()];
    for f in findings.iter_mut() {
        if let Some((idx, (_, _, reason))) =
            allows.iter().enumerate().find(|(_, (line, rule, _))| {
                (*line == f.line || *line + 1 == f.line) && (rule == f.rule || rule == "*")
            })
        {
            f.allowed = Some(reason.clone());
            used[idx] = true;
        }
    }
    findings.extend(bad);
    allows
        .into_iter()
        .zip(used)
        .filter(|(_, u)| !u)
        .map(|((line, rule, _), _)| StaleAllow {
            file: file.into(),
            line,
            rule,
        })
        .collect()
}

/// Recursively collects `.rs` files under `dir`, in sorted path order.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints the `src/` trees of every crate in [`LINTED_CRATES`] under
/// `workspace_root`. Returns all findings (allowed and not) in path order.
pub fn lint_workspace(workspace_root: &Path) -> std::io::Result<Vec<Finding>> {
    lint_workspace_full(workspace_root).map(|(f, _)| f)
}

/// Like [`lint_workspace`] but also returns every stale
/// `allow_nondeterminism` annotation across the linted crates.
pub fn lint_workspace_full(
    workspace_root: &Path,
) -> std::io::Result<(Vec<Finding>, Vec<StaleAllow>)> {
    let mut findings = Vec::new();
    let mut stale = Vec::new();
    let mut flow_uses = Vec::new();
    for krate in LINTED_CRATES {
        let src_dir = workspace_root.join("crates").join(krate).join("src");
        if !src_dir.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        rs_files(&src_dir, &mut files)?;
        for path in files {
            let src = std::fs::read_to_string(&path)?;
            let label = path
                .strip_prefix(workspace_root)
                .unwrap_or(&path)
                .display()
                .to_string();
            let (f, s) = lint_source_full(&label, &src);
            findings.extend(f);
            stale.extend(s);
            flow_uses.extend(flow_edge_uses_in(&label, &src));
        }
    }
    // Both sides of a flow edge live on opposite ends of a handoff, so
    // the emit/join match is checked across the whole corpus, not per
    // file — an emitted edge name nothing ever joins dangles in every
    // trace that crosses it.
    findings.extend(rules::flow_join_findings(&flow_uses));
    Ok((findings, stale))
}

/// Collects the named flow emit/join sites of one file (test items
/// stripped), for the workspace-level flow-pairing check.
pub fn flow_edge_uses_in(file: &str, src: &str) -> Vec<rules::FlowEdgeUse> {
    let (toks, _) = lex(src);
    let (toks, _) = strip_cfg_test_with_spans(&toks);
    rules::flow_edge_uses(file, src, &toks)
}
