//! The parser-backed rule families: resource-pairing, digest-coverage,
//! exhaustive-handling, layering, and time-safety.
//!
//! These complement the token-stream determinism rules in [`crate`]: they
//! need the item/function/flow structure that [`crate::parse`] recovers and
//! (for resource-pairing) the path-sensitive engine in [`crate::cfg`].
//!
//! | rule | invariant |
//! |------|-----------|
//! | `resource-pairing` | acquire sites (trace spans, tx-credit gates, RBM buffers) release on every exit path |
//! | `digest-coverage` | every `impl Component` provides a non-default `state_digest` |
//! | `exhaustive-handling` | no `_` wildcard over sim-visible protocol enums |
//! | `layering` | crates respect the mlwip module seams (net ⊄ poe, cclo ⊄ net internals); POE engines leave the I/O plumbing to `iface::PoeIo` |
//! | `time-safety` | no unchecked `+`/`-`/`*` on raw picosecond values outside the checked ctors |

use crate::cfg::{self, Event};
use crate::lexer::{TokKind, Token};
use crate::parse::{FnDef, Node, ParsedFile};
use crate::{Finding, Severity};

/// Protocol enums whose `match`es must stay exhaustive: adding a variant
/// (a new fault kind, a new completion status) must force every handler to
/// take a position, not fall into a stale `_` arm.
pub const PROTOCOL_ENUMS: &[&str] = &[
    "FaultAction",
    "CmdStatus",
    "CclError",
    "OverloadPolicy",
    "MembershipEvent",
];

/// Runs every parser-backed rule over one file.
pub fn run(file: &str, krate: Option<&str>, toks: &[Token], parsed: &ParsedFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    resource_pairing(file, parsed, &mut findings);
    digest_coverage(file, parsed, &mut findings);
    exhaustive_handling(file, parsed, &mut findings);
    if let Some(krate) = krate {
        layering(file, krate, toks, &mut findings);
    }
    time_safety(file, toks, &mut findings);
    findings
}

// ---------------------------------------------------------------------------
// resource-pairing
// ---------------------------------------------------------------------------

/// Methods that begin a trace span and return its handle.
const SPAN_ACQUIRE: &[&str] = &["span_begin", "span_begin_attrs"];
/// Methods that end a span (first argument is the handle).
const SPAN_RELEASE: &[&str] = &["span_end", "span_end_at"];
/// Methods that emit a causal flow edge and return its handle.
const FLOW_ACQUIRE: &[&str] = &["flow_begin"];
/// Methods that join a flow edge (the *second* argument is the handle —
/// the first is the static edge name).
const FLOW_RELEASE: &[&str] = &["flow_end"];

/// Per-file custody table: a counter that models a bounded resource may
/// only be mutated by its designated acquire/release functions, so the
/// pairing (and side accounting like RBM shrink debt) cannot be bypassed.
struct Custody {
    file_suffix: &'static str,
    counter: &'static str,
    allowed_fns: &'static [&'static str],
    why: &'static str,
}

const CUSTODY: &[Custody] = &[
    Custody {
        file_suffix: "cclo/src/rbm.rs",
        counter: "free_bufs",
        allowed_fns: &["new", "release_buf", "resync"],
        why: "buffer releases must flow through `release_buf` (shrink debt is paid down first) \
              or the restart-time `resync` wipe",
    },
    Custody {
        file_suffix: "poe/src/iface.rs",
        counter: "in_flight",
        allowed_fns: &["admit", "credit", "leak"],
        why: "tx-window credits may only move in `admit`/`credit`/`leak`, keeping the \
              in-flight count in lock-step with stamped frames",
    },
];

fn resource_pairing(file: &str, parsed: &ParsedFile, findings: &mut Vec<Finding>) {
    for (_, f) in parsed.all_fns() {
        span_pairing(file, f, findings);
        flow_pairing(file, f, findings);
        credit_consume(file, f, findings);
        must_use_gate_results(file, f, findings);
    }
    counter_custody(file, parsed, findings);
}

/// Tokens of a node the leaf scanners look at (headers of control nodes,
/// full contents of leaves/returns).
fn node_tokens(node: &Node) -> &[Token] {
    match node {
        Node::Leaf(t) => t,
        Node::Return { toks, .. } => toks,
        Node::If { cond, .. } => cond,
        Node::Match { scrutinee, .. } => scrutinee,
        Node::Loop { head, .. } => head,
        Node::Block(_) => &[],
    }
}

/// Splits a token run into statements at depth-0 `;`.
fn statements(toks: &[Token]) -> Vec<&[Token]> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = 0usize;
    for (i, t) in toks.iter().enumerate() {
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            ";" if depth == 0 => {
                out.push(&toks[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < toks.len() {
        out.push(&toks[start..]);
    }
    out
}

/// Whether a statement diverges unconditionally (`panic!`/`unreachable!`/
/// `todo!` at depth 0 — a closure's `|| panic!(..)` sits inside parens and
/// does not count).
fn stmt_diverges(stmt: &[Token]) -> bool {
    let mut depth = 0i32;
    for (i, t) in stmt.iter().enumerate() {
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "panic" | "unreachable" | "todo"
                if depth == 0 && stmt.get(i + 1).is_some_and(|n| n.text == "!") =>
            {
                return true;
            }
            _ => {}
        }
    }
    false
}

/// Flow-sensitive span pairing: a span begun into a `let`-bound local must
/// be ended (or escape into a struct/field/call, transferring ownership)
/// on every path out of the function.
fn span_pairing(file: &str, f: &FnDef, findings: &mut Vec<Finding>) {
    let mut scan = |node: &Node| -> Vec<Event> {
        let toks = node_tokens(node);
        let mut events = Vec::new();
        for stmt in statements(toks) {
            if stmt_diverges(stmt) {
                events.push(Event::Diverge);
                continue;
            }
            // `let [mut] name = … .span_begin*( … )` opens an obligation on
            // `name`; any *other* mention of an open name either ends the
            // span (release) or moves the handle (escape).
            let binding = span_let_binding(stmt);
            if let Some((name, line)) = &binding {
                events.push(Event::Open {
                    key: name.clone(),
                    line: *line,
                    note: "span begun here".into(),
                });
                continue;
            }
            let mut i = 0usize;
            while i < stmt.len() {
                let t = &stmt[i];
                if t.kind != TokKind::Ident {
                    i += 1;
                    continue;
                }
                if SPAN_RELEASE.contains(&t.text.as_str())
                    && stmt.get(i + 1).is_some_and(|n| n.text == "(")
                {
                    // First argument, when it is a bare local, releases it.
                    if let Some(arg) = stmt.get(i + 2) {
                        let lone = arg.kind == TokKind::Ident
                            && stmt
                                .get(i + 3)
                                .is_some_and(|n| n.text == "," || n.text == ")");
                        if lone {
                            events.push(Event::Close {
                                key: arg.text.clone(),
                            });
                            i += 3;
                            continue;
                        }
                    }
                } else {
                    // A mention outside a release escapes the handle: it
                    // was stored, sent, or compared — ownership moved.
                    events.push(Event::Escape {
                        key: t.text.clone(),
                    });
                }
                i += 1;
            }
        }
        events
    };
    let end_line = last_line(&f.body).unwrap_or(f.line);
    for leak in cfg::analyze(&f.body, end_line, &mut scan) {
        findings.push(Finding {
            file: file.into(),
            line: leak.line,
            rule: "resource-pairing",
            severity: Severity::Deny,
            message: format!(
                "span `{}` begun in `{}` is not ended on the exit path at line {}: every \
                 `span_begin` needs a `span_end` (or the handle must escape to its next owner) \
                 on all paths, or the trace ring holds the span open forever",
                leak.key, f.name, leak.exit_line
            ),
            allowed: None,
        });
    }
}

/// Detects `let [mut] name = … span_begin*( … )` and returns the binding.
fn span_let_binding(stmt: &[Token]) -> Option<(String, u32)> {
    acquire_let_binding(stmt, SPAN_ACQUIRE)
}

/// Flow-sensitive flow-edge pairing: a `FlowId` handle returned by
/// `flow_begin` must reach a `flow_end` (as its second argument) or escape
/// into its carrier (a frame field, an in-flight table) on every path out
/// of the function. A handle dropped on the floor is an emitted edge the
/// receive side can never join — the Tx→Rx causality the critical-path
/// walk depends on silently goes missing.
fn flow_pairing(file: &str, f: &FnDef, findings: &mut Vec<Finding>) {
    let mut scan = |node: &Node| -> Vec<Event> {
        let toks = node_tokens(node);
        let mut events = Vec::new();
        for stmt in statements(toks) {
            if stmt_diverges(stmt) {
                events.push(Event::Diverge);
                continue;
            }
            if let Some((name, line)) = acquire_let_binding(stmt, FLOW_ACQUIRE) {
                events.push(Event::Open {
                    key: name,
                    line,
                    note: "flow edge emitted here".into(),
                });
                continue;
            }
            let mut i = 0usize;
            while i < stmt.len() {
                let t = &stmt[i];
                if t.kind != TokKind::Ident {
                    i += 1;
                    continue;
                }
                if FLOW_RELEASE.contains(&t.text.as_str())
                    && stmt.get(i + 1).is_some_and(|n| n.text == "(")
                {
                    // `flow_end(name, handle, to)` — a bare-local second
                    // argument joins (releases) the handle.
                    if let Some((handle, after)) = lone_call_arg(stmt, i + 1, 1) {
                        events.push(Event::Close { key: handle });
                        i = after;
                        continue;
                    }
                } else {
                    // Any other mention moves the handle to its next
                    // owner (stamped into a frame, stashed in a table).
                    events.push(Event::Escape {
                        key: t.text.clone(),
                    });
                }
                i += 1;
            }
        }
        events
    };
    let end_line = last_line(&f.body).unwrap_or(f.line);
    for leak in cfg::analyze(&f.body, end_line, &mut scan) {
        findings.push(Finding {
            file: file.into(),
            line: leak.line,
            rule: "resource-pairing",
            severity: Severity::Deny,
            message: format!(
                "flow handle `{}` emitted in `{}` is dropped on the exit path at line {}: \
                 every `flow_begin` must reach a `flow_end` (or the handle must escape into \
                 its carrier frame/table), or the Tx→Rx causal edge is never joined and the \
                 critical-path walk loses the handoff",
                leak.key, f.name, leak.exit_line
            ),
            allowed: None,
        });
    }
}

/// Detects `let [mut] name = … <acquire>( … )` and returns the binding.
fn acquire_let_binding(stmt: &[Token], acquire: &[&str]) -> Option<(String, u32)> {
    if stmt.first().map(|t| t.text.as_str()) != Some("let") {
        return None;
    }
    let mut i = 1;
    if stmt.get(i).is_some_and(|t| t.text == "mut") {
        i += 1;
    }
    let name = stmt.get(i)?;
    if name.kind != TokKind::Ident || name.text == "_" {
        return None;
    }
    if stmt.get(i + 1).map(|t| t.text.as_str()) != Some("=") {
        return None;
    }
    let has_acquire = stmt[i + 2..]
        .iter()
        .any(|t| t.kind == TokKind::Ident && acquire.contains(&t.text.as_str()));
    has_acquire.then(|| (name.text.clone(), name.line))
}

/// If argument `arg_idx` (0-based) of the call whose `(` sits at
/// `open_idx` is a single bare identifier, returns it plus the index one
/// past the call's closing `)`.
fn lone_call_arg(stmt: &[Token], open_idx: usize, arg_idx: usize) -> Option<(String, usize)> {
    debug_assert_eq!(stmt.get(open_idx).map(|t| t.text.as_str()), Some("("));
    let mut depth = 0i32;
    let mut arg = 0usize;
    let mut start = open_idx + 1;
    let mut found: Option<String> = None;
    for (i, t) in stmt.iter().enumerate().skip(open_idx) {
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    if arg == arg_idx {
                        found = lone_ident(&stmt[start..i]);
                    }
                    return found.map(|name| (name, i + 1));
                }
            }
            "," if depth == 1 => {
                if arg == arg_idx {
                    found = Some(lone_ident(&stmt[start..i])?);
                }
                arg += 1;
                start = i + 1;
            }
            _ => {}
        }
    }
    None // unbalanced call — statement splitter artifacts; be conservative
}

fn lone_ident(toks: &[Token]) -> Option<String> {
    match toks {
        [t] if t.kind == TokKind::Ident => Some(t.text.clone()),
        _ => None,
    }
}

/// One side of a named flow edge: an emit (`flow_begin("name", …)`) or a
/// join (`flow_end("name", …)`) site.
#[derive(Debug, Clone)]
pub struct FlowEdgeUse {
    /// File label the site was found in.
    pub file: String,
    /// 1-based source line of the call.
    pub line: u32,
    /// The static edge name (the string-literal first argument).
    pub name: String,
    /// `true` for `flow_begin`, `false` for `flow_end`.
    pub emitted: bool,
}

/// Collects every named flow emit/join site in one file's token stream.
/// Calls whose first argument is not a string literal (the `Ctx` wrappers
/// forwarding `name` through) are not sites and are skipped. The lexer
/// blanks string contents (so literal text cannot confuse depth scans), so
/// the edge name is recovered from the source line of the call.
pub fn flow_edge_uses(file: &str, src: &str, toks: &[Token]) -> Vec<FlowEdgeUse> {
    let lines: Vec<&str> = src.lines().collect();
    let mut uses = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let emitted = FLOW_ACQUIRE.contains(&t.text.as_str());
        if !emitted && !FLOW_RELEASE.contains(&t.text.as_str()) {
            continue;
        }
        if toks.get(i + 1).map(|n| n.text.as_str()) != Some("(") {
            continue;
        }
        if toks.get(i + 2).is_none_or(|arg| arg.kind != TokKind::Str) {
            continue;
        }
        let Some(name) = lines
            .get(t.line as usize - 1)
            .and_then(|l| quoted_after(l, &t.text))
        else {
            continue; // name split across lines — out of scope for this scan
        };
        uses.push(FlowEdgeUse {
            file: file.into(),
            line: t.line,
            name,
            emitted,
        });
    }
    uses
}

/// The first `"…"` literal following `call(` on a source line.
fn quoted_after(line: &str, call: &str) -> Option<String> {
    let at = line.find(&format!("{call}("))?;
    let rest = &line[at..];
    let open = rest.find('"')?;
    let body = &rest[open + 1..];
    let close = body.find('"')?;
    Some(body[..close].to_string())
}

/// The workspace-level half of flow pairing: every emitted edge name must
/// have at least one receive-side join somewhere in the linted crates, and
/// vice versa. A begin/join pair lives on opposite ends of a handoff
/// (often opposite ends of a wire), so this check only makes sense over
/// the whole corpus — per-file analysis cannot see the other side.
pub fn flow_join_findings(uses: &[FlowEdgeUse]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for u in uses {
        let other_side = uses
            .iter()
            .any(|v| v.name == u.name && v.emitted != u.emitted);
        if other_side {
            continue;
        }
        let (this, missing) = if u.emitted {
            ("emitted", "`flow_end` join")
        } else {
            ("joined", "`flow_begin` emit")
        };
        findings.push(Finding {
            file: u.file.clone(),
            line: u.line,
            rule: "resource-pairing",
            severity: Severity::Deny,
            message: format!(
                "flow edge \"{}\" is {} here but has no matching {} anywhere in the linted \
                 crates: both sides of a Tx→Rx handoff must exist or the causal graph \
                 dangles at every crossing",
                u.name, this, missing
            ),
            allowed: None,
        });
    }
    findings
}

fn last_line(body: &[Node]) -> Option<u32> {
    body.iter().rev().find_map(|n| match n {
        Node::Leaf(t) => t.last().map(|t| t.line),
        Node::Return { line, .. } => Some(*line),
        Node::If { line, .. } | Node::Match { line, .. } | Node::Loop { line, .. } => Some(*line),
        Node::Block(inner) => last_line(inner),
    })
}

/// A handler that consumes a `CreditReturn` must put the credits back into
/// a gate (`….gate.credit(…)`) on every path: swallowing the return leaks
/// the sender's tx window for good — the exact bug of the checked-in
/// chaos credit-leak repro, caught here at lint time.
fn credit_consume(file: &str, f: &FnDef, findings: &mut Vec<Finding>) {
    walk_credit(file, f, &f.body, findings);
}

fn walk_credit(file: &str, f: &FnDef, nodes: &[Node], findings: &mut Vec<Finding>) {
    for node in nodes {
        match node {
            Node::Match {
                line,
                scrutinee,
                arms,
            } => {
                let consumes = scrutinee.iter().any(|t| t.text == "CreditReturn")
                    && scrutinee.iter().any(|t| t.text.contains("downcast"));
                for arm in arms {
                    let ok_arm = arm
                        .pat
                        .first()
                        .is_some_and(|t| t.text == "Ok" || t.text == "Some");
                    if consumes && ok_arm {
                        check_credit_released(file, f, *line, &arm.body, findings);
                    }
                    walk_credit(file, f, &arm.body, findings);
                }
            }
            Node::If {
                line,
                cond,
                then,
                els,
            } => {
                let consumes = cond.iter().any(|t| t.text == "CreditReturn")
                    && cond.iter().any(|t| t.text.contains("downcast"))
                    && cond.first().is_some_and(|t| t.text == "let");
                if consumes {
                    check_credit_released(file, f, *line, then, findings);
                }
                walk_credit(file, f, then, findings);
                if let Some(e) = els {
                    walk_credit(file, f, e, findings);
                }
            }
            Node::Loop { body, .. } | Node::Block(body) => walk_credit(file, f, body, findings),
            _ => {}
        }
    }
}

fn check_credit_released(
    file: &str,
    f: &FnDef,
    line: u32,
    body: &[Node],
    findings: &mut Vec<Finding>,
) {
    let mut scan = |node: &Node| -> Vec<Event> {
        let toks = node_tokens(node);
        let mut events = Vec::new();
        for stmt in statements(toks) {
            if stmt_diverges(stmt) {
                events.push(Event::Diverge);
            }
        }
        if has_gate_credit(toks) {
            events.push(Event::Close {
                key: "creditreturn".into(),
            });
        }
        events
    };
    // The loop *head* `for frame in self.gate.credit(…)` is where the real
    // handlers release — node_tokens exposes it to the scanner above.
    let end = last_line(body).unwrap_or(line);
    if !cfg::analyze_with_seed(
        body,
        end,
        "creditreturn",
        line,
        "credits consumed",
        &mut scan,
    )
    .is_empty()
    {
        findings.push(Finding {
            file: file.into(),
            line,
            rule: "resource-pairing",
            severity: Severity::Deny,
            message: format!(
                "`{}` consumes a CreditReturn without crediting its gate on every path: \
                 call `gate.credit(…)` (and transmit the frames it releases) or the \
                 sender's tx window shrinks forever — the deadlock the runtime detector \
                 names `net.txcredit(…)` orphaned wait",
                f.name
            ),
            allowed: None,
        });
    }
}

/// `… gate . credit ( …` — the receiver must be a credit gate.
fn has_gate_credit(toks: &[Token]) -> bool {
    toks.windows(4).any(|w| {
        w[0].text.ends_with("gate") && w[1].text == "." && w[2].text == "credit" && w[3].text == "("
    })
}

/// The frames returned by `gate.admit(…)` / `gate.credit(…)` carry data
/// (and, once stamped, a credit): discarding the result loses both.
fn must_use_gate_results(file: &str, f: &FnDef, findings: &mut Vec<Finding>) {
    visit_leaves(&f.body, &mut |toks| {
        for stmt in statements(toks) {
            let call_at = stmt.windows(4).position(|w| {
                w[0].text.ends_with("gate")
                    && w[1].text == "."
                    && (w[2].text == "credit" || w[2].text == "admit")
                    && w[3].text == "("
            });
            let Some(at) = call_at else { continue };
            let method = stmt[at + 2].text.clone();
            let line = stmt[at + 2].line;
            let discarded = stmt.first().is_some_and(|t| t.text == "let")
                && stmt.get(1).is_some_and(|t| t.text == "_")
                && stmt.get(2).is_some_and(|t| t.text == "=");
            // A bare expression statement (no binding, no use of the
            // result) also drops the returned frames on the floor.
            let bare = !discarded
                && !stmt.iter().take(at).any(|t| {
                    matches!(
                        t.text.as_str(),
                        "let"
                            | "="
                            | "return"
                            | "in"
                            | "if"
                            | "while"
                            | "match"
                            | "push"
                            | "extend"
                            | "send"
                    )
                })
                && stmt.first().is_some_and(|t| t.kind == TokKind::Ident);
            if discarded || bare {
                findings.push(Finding {
                    file: file.into(),
                    line,
                    rule: "resource-pairing",
                    severity: Severity::Deny,
                    message: format!(
                        "result of `gate.{method}(…)` in `{}` is discarded: the returned \
                         frames must be transmitted (they hold data and stamped credits)",
                        f.name
                    ),
                    allowed: None,
                });
            }
        }
    });
}

fn visit_leaves(nodes: &[Node], f: &mut dyn FnMut(&[Token])) {
    for node in nodes {
        match node {
            Node::Leaf(t) => f(t),
            Node::Return { toks, .. } => f(toks),
            Node::If {
                cond, then, els, ..
            } => {
                f(cond);
                visit_leaves(then, f);
                if let Some(e) = els {
                    visit_leaves(e, f);
                }
            }
            Node::Match {
                scrutinee, arms, ..
            } => {
                f(scrutinee);
                for arm in arms {
                    visit_leaves(&arm.body, f);
                }
            }
            Node::Loop { head, body, .. } => {
                f(head);
                visit_leaves(body, f);
            }
            Node::Block(inner) => visit_leaves(inner, f),
        }
    }
}

/// Resource counters may only be mutated inside their designated
/// acquire/release functions.
fn counter_custody(file: &str, parsed: &ParsedFile, findings: &mut Vec<Finding>) {
    for c in CUSTODY {
        if !file.ends_with(c.file_suffix) {
            continue;
        }
        for (_, f) in parsed.all_fns() {
            if c.allowed_fns.contains(&f.name.as_str()) {
                continue;
            }
            visit_leaves(&f.body, &mut |toks| {
                for (i, t) in toks.iter().enumerate() {
                    if t.text != c.counter {
                        continue;
                    }
                    // Only release-side mutations are custodial: `+=` and
                    // plain assignment. Acquire-side `-=` happens wherever
                    // admission/matching decides to spend a buffer/credit.
                    let mutated = match toks.get(i + 1).map(|n| n.text.as_str()) {
                        Some("+") => toks.get(i + 2).is_some_and(|n| n.text == "="),
                        Some("=") => toks.get(i + 2).is_none_or(|n| n.text != "="),
                        _ => false,
                    };
                    if mutated {
                        findings.push(Finding {
                            file: file.into(),
                            line: t.line,
                            rule: "resource-pairing",
                            severity: Severity::Deny,
                            message: format!(
                                "`{}` mutated in `{}`, outside its custodian{} {}: {}",
                                c.counter,
                                f.name,
                                if c.allowed_fns.len() == 1 { "" } else { "s" },
                                c.allowed_fns.join("/"),
                                c.why
                            ),
                            allowed: None,
                        });
                    }
                }
            });
        }
    }
}

// ---------------------------------------------------------------------------
// digest-coverage
// ---------------------------------------------------------------------------

/// Every `impl Component` must carry a non-default `state_digest`: the
/// race detector's shadow runs and the queue-kind replay gates compare
/// digests — a defaulted (`None`) digest makes those comparisons
/// vacuously pass for the component, which is exactly how coverage rots.
fn digest_coverage(file: &str, parsed: &ParsedFile, findings: &mut Vec<Finding>) {
    for im in &parsed.impls {
        if im.trait_name.as_deref() != Some("Component") {
            continue;
        }
        if im.fns.iter().any(|f| f.name == "state_digest") {
            continue;
        }
        findings.push(Finding {
            file: file.into(),
            line: im.line,
            rule: "digest-coverage",
            severity: Severity::Deny,
            message: format!(
                "`impl Component for {}` does not implement `state_digest`: the race \
                 detector's shadow runs and queue-kind A/B gates silently compare \
                 nothing for this component — digest its externally-meaningful state \
                 (counters, totals, data checksums) with `accl_sim::digest::fnv_fold`",
                im.type_name
            ),
            allowed: None,
        });
    }
}

// ---------------------------------------------------------------------------
// exhaustive-handling
// ---------------------------------------------------------------------------

/// `match`es over sim-visible protocol enums may not hide variants behind
/// `_`: a new `FaultAction` or `CmdStatus` must fail to compile until every
/// handler takes a position. Diverging catch-alls (`other => panic!(…)`)
/// are fine — they fail loudly.
fn exhaustive_handling(file: &str, parsed: &ParsedFile, findings: &mut Vec<Finding>) {
    for (_, f) in parsed.all_fns() {
        walk_matches(&f.body, &mut |line, _scrutinee, arms| {
            let on_protocol = arms.iter().any(|arm| {
                arm.pat
                    .windows(2)
                    .any(|w| PROTOCOL_ENUMS.contains(&w[0].text.as_str()) && w[1].text == "::")
            });
            if !on_protocol {
                return None;
            }
            for arm in arms {
                // Guarded arms don't silence exhaustiveness; skip them.
                let guard_at = arm
                    .pat
                    .iter()
                    .position(|t| t.text == "if")
                    .unwrap_or(arm.pat.len());
                let pat = &arm.pat[..guard_at];
                if guard_at < arm.pat.len() {
                    continue;
                }
                let wild = wildcard_in(pat);
                let Some(wild_line) = wild else { continue };
                let diverges = arm_diverges(&arm.body);
                if !diverges {
                    return Some((line, wild_line));
                }
            }
            None
        })
        .into_iter()
        .for_each(|(_, wild_line)| {
            findings.push(Finding {
                file: file.into(),
                line: wild_line,
                rule: "exhaustive-handling",
                severity: Severity::Deny,
                message: "`_` wildcard over a protocol enum (FaultAction/CmdStatus/CclError/\
                          OverloadPolicy/MembershipEvent): spell the variants out (or diverge \
                          loudly) so new variants cannot be silently mishandled"
                    .into(),
                allowed: None,
            });
        });
    }
}

/// A `_` that elides enum variants: top-level, or the sole payload of a
/// top-level `Ok(_)`/`Err(_)`/`Some(_)` wrapper. `Variant(_)` payload
/// elision (ignoring a field of a *named* variant) is fine.
fn wildcard_in(pat: &[Token]) -> Option<u32> {
    let mut depth = 0i32;
    for (i, t) in pat.iter().enumerate() {
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            s if s == "_" || (s.starts_with('_') && t.kind == TokKind::Ident) => {
                if depth == 0 {
                    return Some(t.line);
                }
                if depth == 1 && i >= 2 {
                    let wrapper = &pat[i - 2];
                    let opens = pat[i - 1].text == "(";
                    let closes = pat.get(i + 1).is_some_and(|n| n.text == ")");
                    if opens && closes && matches!(wrapper.text.as_str(), "Ok" | "Err" | "Some") {
                        return Some(t.line);
                    }
                }
            }
            _ => {}
        }
    }
    // A bare lowercase binding (`other => …`) is the same catch-all.
    if pat.len() == 1
        && pat[0].kind == TokKind::Ident
        && pat[0].text.chars().next().is_some_and(|c| c.is_lowercase())
    {
        return Some(pat[0].line);
    }
    None
}

fn arm_diverges(body: &[Node]) -> bool {
    let mut diverges = false;
    visit_leaves(body, &mut |toks| {
        if statements(toks).iter().any(|s| stmt_diverges(s)) {
            diverges = true;
        }
    });
    diverges
}

/// `(match line, wildcard arms, arm patterns) -> hit` visitor over the
/// `match` nodes of a body; a hit is `(match line, wildcard line)`.
type MatchVisitor<'a> = dyn FnMut(u32, &[Token], &[crate::parse::Arm]) -> Option<(u32, u32)> + 'a;

fn walk_matches(nodes: &[Node], f: &mut MatchVisitor<'_>) -> Vec<(u32, u32)> {
    let mut hits = Vec::new();
    walk_matches_inner(nodes, f, &mut hits);
    hits
}

fn walk_matches_inner(nodes: &[Node], f: &mut MatchVisitor<'_>, hits: &mut Vec<(u32, u32)>) {
    for node in nodes {
        match node {
            Node::Match {
                line,
                scrutinee,
                arms,
            } => {
                if let Some(hit) = f(*line, scrutinee, arms) {
                    hits.push(hit);
                }
                for arm in arms {
                    walk_matches_inner(&arm.body, f, hits);
                }
            }
            Node::If { then, els, .. } => {
                walk_matches_inner(then, f, hits);
                if let Some(e) = els {
                    walk_matches_inner(e, f, hits);
                }
            }
            Node::Loop { body, .. } | Node::Block(body) => walk_matches_inner(body, f, hits),
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// layering
// ---------------------------------------------------------------------------

/// The mlwip seams ("Modularizing TCP Implementations"): each layer may
/// only see the layer interfaces below it. `restricted` deps are usable
/// through an item allowlist (the frame-layer surface of `accl_net`);
/// everything else from that dep is a seam violation.
struct Layer {
    krate: &'static str,
    allowed: &'static [&'static str],
    restricted: &'static [(&'static str, &'static [&'static str])],
}

/// The frame-layer surface of `accl_net`: addresses and frames, not the
/// switch/queue machinery (egress queues, pause state, overload policy),
/// which only the cluster-wiring layer (`accl-core`) may touch.
const NET_FRAME_SURFACE: &[&str] = &[
    "frame",
    "Frame",
    "CreditReturn",
    "NodeAddr",
    "DEFAULT_MTU",
    "WIRE_OVERHEAD_BYTES",
];

const LAYERS: &[Layer] = &[
    Layer {
        krate: "sim",
        allowed: &[],
        restricted: &[],
    },
    Layer {
        krate: "net",
        allowed: &["accl_sim"],
        restricted: &[],
    },
    Layer {
        krate: "mem",
        allowed: &["accl_sim"],
        restricted: &[],
    },
    Layer {
        krate: "poe",
        allowed: &["accl_sim", "accl_mem"],
        restricted: &[("accl_net", NET_FRAME_SURFACE)],
    },
    Layer {
        krate: "cclo",
        allowed: &["accl_sim", "accl_mem", "accl_poe"],
        restricted: &[("accl_net", NET_FRAME_SURFACE)],
    },
    Layer {
        krate: "swmpi",
        // The software-MPI baseline wires its own cluster, so it owns the
        // net construction surface too — but not the switch internals.
        // From cclo it may share the implementation-neutral schedule IR
        // (command set, firmware table, message/dtype model, plugin costs,
        // algorithm config) but not the engine modules (rbm/dmp/tx/rx/uc).
        allowed: &["accl_sim", "accl_mem"],
        restricted: &[
            (
                "accl_net",
                &[
                    "frame",
                    "Frame",
                    "CreditReturn",
                    "NodeAddr",
                    "DEFAULT_MTU",
                    "WIRE_OVERHEAD_BYTES",
                    "NetConfig",
                    "Network",
                    "FaultPlan",
                ],
            ),
            (
                "accl_cclo",
                &["command", "firmware", "msg", "plugins", "config"],
            ),
        ],
    },
    Layer {
        krate: "obs",
        // The trace-analytics engine observes through public surfaces
        // only: the span stream and stats (sim), the assembled cluster
        // and workload drivers (core, dlrm), and the fault-plan config
        // it needs to stage degraded captures. It may never reach the
        // engine or switch internals — an analyzer that depends on
        // private structure stops being evidence about the system.
        allowed: &["accl_sim", "accl_core", "accl_dlrm"],
        restricted: &[("accl_net", &["NodeAddr", "Degradation", "FaultPlan"])],
    },
];

/// POE engine files, and the I/O plumbing they must leave to
/// `iface::PoeIo` (credit handling, the Rx FCS check, flow edges, gated
/// sends): an engine that names it again is growing its own copy back.
const POE_ENGINES: &[&str] = &["poe/src/tcp.rs", "poe/src/rdma.rs", "poe/src/udp.rs"];
const POE_IO_PLUMBING: &[&str] = &[
    "CreditReturn",
    "TxCreditLeak",
    "fcs_ok",
    "flow_begin",
    "flow_end",
    "send_gated",
];

fn layering(file: &str, krate: &str, toks: &[Token], findings: &mut Vec<Finding>) {
    if POE_ENGINES.iter().any(|f| file.ends_with(f)) {
        let plumbing = toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident && POE_IO_PLUMBING.contains(&t.text.as_str()));
        for t in plumbing {
            findings.push(Finding {
                file: file.into(),
                line: t.line,
                rule: "layering",
                severity: Severity::Deny,
                message: format!(
                    "POE engine names `{}`: route it through `iface::PoeIo`",
                    t.text
                ),
                allowed: None,
            });
        }
    }
    let Some(layer) = LAYERS.iter().find(|l| l.krate == krate) else {
        return; // core (and unlisted crates) may see everything below
    };
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || !t.text.starts_with("accl_") {
            i += 1;
            continue;
        }
        let dep = t.text.as_str();
        if dep == format!("accl_{krate}") {
            i += 1;
            continue; // own-crate path (`accl_net::…` inside net doc tests)
        }
        if layer.allowed.contains(&dep) {
            i += 1;
            continue;
        }
        if let Some((_, surface)) = layer.restricted.iter().find(|(d, _)| *d == dep) {
            // Check the referenced item(s): `accl_net::Item` or a use
            // group `accl_net::{A, B}`.
            let mut bad: Option<&Token> = None;
            if toks.get(i + 1).is_some_and(|n| n.text == "::") {
                match toks.get(i + 2).map(|n| n.text.as_str()) {
                    Some("{") => {
                        let mut j = i + 3;
                        while j < toks.len() && toks[j].text != "}" {
                            if toks[j].kind == TokKind::Ident
                                && !surface.contains(&toks[j].text.as_str())
                            {
                                bad = Some(&toks[j]);
                                break;
                            }
                            j += 1;
                        }
                    }
                    Some(_) => {
                        let item = &toks[i + 2];
                        if item.kind == TokKind::Ident && !surface.contains(&item.text.as_str()) {
                            bad = Some(item);
                        }
                    }
                    None => {}
                }
            }
            if let Some(b) = bad {
                findings.push(Finding {
                    file: file.into(),
                    line: b.line,
                    rule: "layering",
                    severity: Severity::Deny,
                    message: format!(
                        "crate `{krate}` reaches past the `{dep}` frame surface to `{}`: the \
                         switch/queue internals belong to the cluster-wiring layer (accl-core); \
                         depend on the frame-level items ({}) or route through core",
                        b.text,
                        surface.join(", ")
                    ),
                    allowed: None,
                });
            }
            i += 1;
            continue;
        }
        findings.push(Finding {
            file: file.into(),
            line: t.line,
            rule: "layering",
            severity: Severity::Deny,
            message: format!(
                "crate `{krate}` must not depend on `{dep}`: the layering contract is \
                 sim < net/mem < poe < cclo < core (swmpi beside poe) — an upward or \
                 cross reference here makes the coming transport modularization impossible"
            ),
            allowed: None,
        });
        i += 1;
    }
}

// ---------------------------------------------------------------------------
// time-safety
// ---------------------------------------------------------------------------

/// Raw-picosecond arithmetic wraps silently in release builds; `Time`/`Dur`
/// operators are overflow-checked. Flag `x.as_ps() + …`, `… * x.as_ps()`,
/// and arithmetic inside `Time::from_ps(…)`/`Dur::from_ps(…)` arguments.
/// Division stays legal (it cannot overflow), as does widening through
/// `u128::from(x.as_ps())` before multiplying.
fn time_safety(file: &str, toks: &[Token], findings: &mut Vec<Finding>) {
    let arith = |s: &str| matches!(s, "+" | "-" | "*" | "%");
    let mut report = |line: u32, what: String| {
        findings.push(Finding {
            file: file.into(),
            line,
            rule: "time-safety",
            severity: Severity::Deny,
            message: format!(
                "{what}: raw picosecond arithmetic wraps silently in release builds — use the \
                 checked `Time`/`Dur` operators, `saturating_*`, or widen to `u128` first"
            ),
            allowed: None,
        });
    };
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        if t.text == "as_ps"
            && i >= 1
            && toks[i - 1].text == "."
            && toks.get(i + 1).is_some_and(|n| n.text == "(")
            && toks.get(i + 2).is_some_and(|n| n.text == ")")
        {
            // `<recv>.as_ps() <op>` — operator right after the call.
            if toks.get(i + 3).is_some_and(|n| arith(&n.text)) {
                report(t.line, "`as_ps()` feeding an unchecked operator".into());
                continue;
            }
            // `<op> <recv>.as_ps()` — walk back over the receiver chain.
            let mut j = i - 1; // at `.`
            loop {
                if j == 0 {
                    break;
                }
                j -= 1;
                let p = &toks[j];
                if p.text == ")" || p.text == "]" {
                    // Skip the balanced group.
                    let close = p.text.clone();
                    let open = if close == ")" { "(" } else { "[" };
                    let mut depth = 1i32;
                    while j > 0 && depth > 0 {
                        j -= 1;
                        if toks[j].text == close {
                            depth += 1;
                        } else if toks[j].text == open {
                            depth -= 1;
                        }
                    }
                    continue;
                }
                if p.kind == TokKind::Ident || p.text == "." || p.text == "::" {
                    continue;
                }
                if arith(&p.text) {
                    report(t.line, "unchecked operator feeding `.as_ps()`".into());
                }
                break;
            }
        } else if t.text == "from_ps"
            && i >= 2
            && toks[i - 1].text == "::"
            && (toks[i - 2].text == "Time" || toks[i - 2].text == "Dur")
            && toks.get(i + 1).is_some_and(|n| n.text == "(")
        {
            // Arithmetic at depth 1 of the argument list reconstructs a
            // timestamp from unchecked math.
            let mut depth = 0i32;
            let mut j = i + 1;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    s if depth == 1 && arith(s) => {
                        report(
                            toks[j].line,
                            format!(
                                "unchecked arithmetic inside `{}::from_ps(…)`",
                                toks[i - 2].text
                            ),
                        );
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
        }
    }
}
