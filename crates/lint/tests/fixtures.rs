//! Fixture tests for the determinism linter: each rule has a positive
//! snippet (must be flagged), a negative snippet (must stay clean), and an
//! allow-annotated snippet (flagged but audited).

use accl_lint::{lint_source, Severity};

fn rules(src: &str) -> Vec<(&'static str, u32, bool)> {
    lint_source("fixture.rs", src)
        .into_iter()
        .map(|f| (f.rule, f.line, f.allowed.is_some()))
        .collect()
}

fn gating_rules(src: &str) -> Vec<&'static str> {
    lint_source("fixture.rs", src)
        .into_iter()
        .filter(|f| f.allowed.is_none())
        .map(|f| f.rule)
        .collect()
}

#[test]
fn hashmap_state_is_flagged() {
    let src = "
use std::collections::HashMap;
struct S { sessions: HashMap<u32, u64> }
";
    let found = rules(src);
    assert!(
        found
            .iter()
            .filter(|(r, _, _)| *r == "unordered-collection")
            .count()
            >= 2,
        "both the import and the field should be flagged: {found:?}"
    );
    assert!(found
        .iter()
        .any(|&(r, line, _)| r == "unordered-collection" && line == 3));
}

#[test]
fn hashmap_iteration_is_flagged_at_the_iteration_site() {
    let src = "
struct S { qps: HashMap<u32, u64> }
impl S {
    fn sum(&self) -> u64 { self.qps.values().sum() }
    fn walk(&self) { for kv in &self.qps { drop(kv); } }
}
";
    let found = rules(src);
    assert!(
        found
            .iter()
            .any(|&(r, line, _)| r == "unordered-iteration" && line == 4),
        "`.values()` on a tracked HashMap field must be flagged: {found:?}"
    );
    assert!(
        found
            .iter()
            .any(|&(r, line, _)| r == "unordered-iteration" && line == 5),
        "`for … in &map` must be flagged: {found:?}"
    );
}

#[test]
fn btreemap_is_clean() {
    let src = "
use std::collections::BTreeMap;
struct S { sessions: BTreeMap<u32, u64> }
impl S {
    fn sum(&self) -> u64 { self.sessions.values().sum() }
}
";
    assert!(gating_rules(src).is_empty());
}

#[test]
fn wall_clock_and_entropy_are_flagged() {
    let src = "
fn bad() {
    let t = std::time::Instant::now();
    let mut rng = rand::thread_rng();
    drop((t, rng));
}
";
    let found = gating_rules(src);
    assert!(found.contains(&"wall-clock"), "{found:?}");
    assert!(found.contains(&"ambient-entropy"), "{found:?}");
}

#[test]
fn qualified_enum_variant_named_instant_is_not_wall_clock() {
    // `SpanEventKind::Instant` (the trace module's point event) is a
    // qualified item of another type, not `std::time::Instant`.
    let clean = "
fn f(kind: SpanEventKind) -> bool {
    matches!(kind, SpanEventKind::Instant | SpanEventKind::Begin)
}
";
    assert!(gating_rules(clean).is_empty(), "{:?}", rules(clean));
    // The real clock stays banned in every spelling that can reach it.
    for bad in [
        "use std::time::Instant;",
        "use std::time::{Duration, Instant};",
        "fn f() { let t = Instant::now(); drop(t); }",
        "fn f() -> std::time::Instant { std::time::Instant::now() }",
    ] {
        assert!(gating_rules(bad).contains(&"wall-clock"), "{bad}");
    }
}

#[test]
fn float_in_time_constructor_is_flagged_integer_is_not() {
    let bad = "fn f(bytes: u64) -> Dur { Dur::from_ps((bytes as f64 * 3.2) as u64) }";
    assert!(gating_rules(bad).contains(&"float-timing"), "{bad}");
    let bad2 = "fn f(x: u64) -> Time { Time::from_ns(x.pow(2) as u64 + 1.5 as u64) }";
    assert!(gating_rules(bad2).contains(&"float-timing"));
    // Unchecked integer multiplication inside `from_ps` is the time-safety
    // rule's territory now; pure division cannot overflow and stays clean.
    let good = "fn f(bytes: u64) -> Dur { Dur::from_ps(bytes / 10) }";
    assert!(gating_rules(good).is_empty(), "{good}");
}

#[test]
fn tie_prone_unstable_sorts_warn_but_value_sorts_do_not() {
    let bad = "fn f(v: &mut Vec<(u64, u64)>) { v.sort_unstable_by_key(|&(a, _)| a); }";
    let found = lint_source("fixture.rs", bad);
    assert!(found
        .iter()
        .any(|f| f.rule == "unstable-tie-sort" && f.severity == Severity::Warn));
    let good = "fn f(v: &mut Vec<u64>) { v.sort_unstable(); }";
    assert!(gating_rules(good).is_empty());
}

#[test]
fn allow_annotation_audits_a_finding() {
    let src = "
fn f(v: &mut Vec<(u64, u64)>) {
    // allow_nondeterminism(unstable-tie-sort): keys are unique by construction
    v.sort_unstable_by_key(|&(a, _)| a);
}
";
    let found = rules(src);
    assert_eq!(
        found
            .iter()
            .filter(|&&(r, _, allowed)| r == "unstable-tie-sort" && allowed)
            .count(),
        1,
        "{found:?}"
    );
    assert!(gating_rules(src).is_empty());
}

#[test]
fn same_line_allow_annotation_works() {
    let src =
        "fn f(v: &mut Vec<u64>) { v.sort_unstable_by(|a, b| a.cmp(b)); } // allow_nondeterminism(unstable-tie-sort): total order\n";
    assert!(gating_rules(src).is_empty());
}

#[test]
fn allow_for_the_wrong_rule_does_not_suppress() {
    let src = "
// allow_nondeterminism(wall-clock): wrong rule
let m: HashMap<u32, u32> = HashMap::new();
";
    assert!(gating_rules(src).contains(&"unordered-collection"));
}

#[test]
fn malformed_allow_is_itself_a_finding() {
    let src = "
// allow_nondeterminism: no rule name given
fn f() {}
";
    assert!(gating_rules(src).contains(&"bad-allow-annotation"));
}

#[test]
fn cfg_test_items_are_skipped() {
    let src = "
struct S;
#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    #[test]
    fn t() {
        let m: HashMap<u32, u32> = HashMap::new();
        let _ = std::time::Instant::now();
        drop(m);
    }
}
";
    assert!(
        gating_rules(src).is_empty(),
        "test-only code may observe nondeterminism: {:?}",
        rules(src)
    );
}

#[test]
fn strings_and_comments_are_not_findings() {
    let src = r##"
// HashMap mentioned in a comment is fine
fn f() -> &'static str { "Instant::now and thread_rng in a string" }
"##;
    assert!(gating_rules(src).is_empty());
}

#[test]
fn trace_module_passes_all_rules() {
    // The tracing subsystem is part of the simulator's determinism
    // contract (span ids feed golden digests), so the real module source
    // must come through the linter with zero gating findings — not as a
    // synthetic snippet, but the file that ships.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../sim/src/trace.rs");
    let src = std::fs::read_to_string(path).expect("read crates/sim/src/trace.rs");
    let findings = lint_source("crates/sim/src/trace.rs", &src);
    let gating: Vec<_> = findings.iter().filter(|f| f.allowed.is_none()).collect();
    assert!(
        gating.is_empty(),
        "trace module has unaudited determinism findings: {gating:?}"
    );
}

#[test]
fn injected_hazard_in_sim_crate_fails_the_gate() {
    // The CI-gate scenario from the acceptance criteria: a HashMap iteration
    // injected into a kernel-like snippet is caught as a deny finding.
    let src = "
pub struct Kernel { pending: HashMap<u64, Event> }
impl Kernel {
    pub fn flush(&mut self) {
        for (_, ev) in self.pending.drain() { dispatch(ev); }
    }
}
";
    let found = lint_source("crates/sim/src/kernel.rs", src);
    assert!(found.iter().any(|f| f.rule == "unordered-iteration"
        && f.severity == Severity::Deny
        && f.allowed.is_none()));
}

#[test]
fn poe_engines_may_not_name_the_shared_io_plumbing() {
    // The POE seam: credit handling, the Rx FCS check and epoch fence, flow
    // edges and gated sends belong to `iface::PoeIo`. Each name is a
    // layering finding in every engine file, and stays legal in the module
    // that owns it.
    let names = [
        "CreditReturn",
        "TxCreditLeak",
        "EpochFence",
        "fcs_ok",
        "flow_begin",
        "flow_end",
        "send_gated",
    ];
    for engine in ["tcp", "rdma", "udp"] {
        let file = format!("crates/poe/src/{engine}.rs");
        for name in names {
            let src = format!("fn f(io: &mut Io) {{\n    io.{name}();\n}}\n");
            let found = lint_source(&file, &src);
            assert!(
                found.iter().any(|f| f.rule == "layering"
                    && f.line == 2
                    && f.severity == Severity::Deny
                    && f.allowed.is_none()),
                "`{name}` in {file} was not flagged: {found:?}"
            );
            assert!(
                lint_source("crates/poe/src/iface.rs", &src)
                    .iter()
                    .all(|f| f.rule != "layering"),
                "`{name}` must stay legal in iface.rs"
            );
        }
    }
    // Comments and strings do not count, matching the token-based rules.
    let src = "// flow_begin lives in iface\nfn f() -> &'static str { \"send_gated\" }\n";
    assert!(lint_source("crates/poe/src/tcp.rs", src)
        .iter()
        .all(|f| f.rule != "layering"));
}

#[test]
fn generation_stamped_self_messages_are_flagged() {
    // A `gen`-checked self-message is a hand-rolled lazy-cancel timer;
    // kernel timer slots replace it. The payload type's declaration in
    // the same file decides: a `gen` field flags the `send_self` line.
    let src = "
struct RtoTimer { qp: u32, gen: u64 }
struct Tick { qp: u32 }
struct Pair(u32, u64);
fn f(ctx: &mut Ctx<'_>, qp: u32) {
    ctx.send_self(ports::TIMER, rto, RtoTimer { qp, gen: 1 });
    ctx.send_self(ports::TIMER, rto, Tick { qp });
    ctx.send(peer, rto, RtoTimer { qp, gen: 2 });
    ctx.arm_timer(ports::TIMER, 0, rto, Tick { qp });
}
";
    let found: Vec<_> = rules(src)
        .into_iter()
        .filter(|(r, _, _)| *r == "timer-generation")
        .collect();
    assert_eq!(found, vec![("timer-generation", 6, false)], "{found:?}");
    // Without a `gen` field anywhere, nothing is flagged.
    let clean = "
struct RtoTimer { qp: u32, generation_hint: u64 }
fn f(ctx: &mut Ctx<'_>) { ctx.send_self(ports::TIMER, rto, RtoTimer { qp: 0, generation_hint: 0 }); }
";
    assert!(gating_rules(clean).is_empty());
}
