//! Fixture tests for the parser-backed rule families — resource-pairing,
//! digest-coverage, exhaustive-handling, layering, time-safety — plus the
//! two planted-bug integration tests from the acceptance criteria: a
//! deleted credit-release call and a deleted span `End`, each caught by
//! the flow-sensitive resource-pairing rule before the runtime deadlock
//! detector would ever see the leak.

use accl_lint::lint_source;

fn gating(file: &str, src: &str) -> Vec<(&'static str, u32)> {
    lint_source(file, src)
        .into_iter()
        .filter(|f| f.allowed.is_none())
        .map(|f| (f.rule, f.line))
        .collect()
}

fn has_rule(found: &[(&'static str, u32)], rule: &str) -> bool {
    found.iter().any(|&(r, _)| r == rule)
}

// ---------------------------------------------------------------------------
// resource-pairing: span lifecycle
// ---------------------------------------------------------------------------

#[test]
fn span_leaked_on_early_return_is_flagged() {
    let src = "
fn run_op(&mut self, ctx: &mut Ctx<'_>, req: OpReq) {
    let span = ctx.span_begin(\"uc.op\", req.parent);
    if req.bytes == 0 {
        return;
    }
    ctx.span_end(span);
}
";
    let found = gating("fixture.rs", src);
    assert!(
        has_rule(&found, "resource-pairing"),
        "early return with the span still open must be flagged: {found:?}"
    );
}

#[test]
fn span_ended_on_every_path_is_clean() {
    let src = "
fn run_op(&mut self, ctx: &mut Ctx<'_>, req: OpReq) {
    let span = ctx.span_begin(\"uc.op\", req.parent);
    if req.bytes == 0 {
        ctx.span_end(span);
        return;
    }
    self.issue(ctx, req);
    ctx.span_end(span);
}
";
    assert_eq!(gating("fixture.rs", src), vec![]);
}

#[test]
fn span_escaping_into_a_struct_transfers_ownership() {
    // The XDMA pattern: the span handle is stashed in the in-flight table
    // and ended by a later completion handler — not a leak.
    let src = "
fn start_copy(&mut self, ctx: &mut Ctx<'_>, req: XdmaCopy) {
    let span = ctx.span_begin_attrs(\"mem.xdma.copy\", req.span, &[]);
    self.inflight.insert(req.tag, CopyState { req, written: 0, span });
}
";
    assert_eq!(gating("fixture.rs", src), vec![]);
}

#[test]
fn span_leak_behind_a_diverging_path_is_exempt() {
    let src = "
fn run_op(&mut self, ctx: &mut Ctx<'_>, req: OpReq) {
    let span = ctx.span_begin(\"uc.op\", req.parent);
    if req.bytes == 0 {
        panic!(\"zero-length op\");
    }
    ctx.span_end(span);
}
";
    assert_eq!(gating("fixture.rs", src), vec![]);
}

// ---------------------------------------------------------------------------
// resource-pairing: credit consumption
// ---------------------------------------------------------------------------

#[test]
fn swallowed_credit_return_is_flagged() {
    let src = "
fn on_credit(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
    match payload.try_downcast::<accl_net::CreditReturn>() {
        Ok(ret) => {
            ctx.stats().add(\"poe.credits_seen\", u64::from(ret.credits));
        }
        Err(other) => {
            drop(other);
        }
    }
}
";
    let found = gating("fixture.rs", src);
    assert!(
        has_rule(&found, "resource-pairing"),
        "an Ok(CreditReturn) arm that never credits its gate must be flagged: {found:?}"
    );
}

#[test]
fn credited_and_retransmitted_credit_return_is_clean() {
    let src = "
fn on_credit(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
    match payload.try_downcast::<accl_net::CreditReturn>() {
        Ok(ret) => {
            for frame in self.gate.credit(ret.credits, self.credit_ep) {
                ctx.send(self.net_tx, self.latency, frame);
            }
        }
        Err(other) => {
            drop(other);
        }
    }
}
";
    assert_eq!(gating("fixture.rs", src), vec![]);
}

#[test]
fn discarded_gate_result_is_flagged() {
    let src = "
fn on_frame(&mut self, ctx: &mut Ctx<'_>, frame: Frame) {
    let _ = self.gate.admit(frame, self.credit_ep);
}
";
    let found = gating("fixture.rs", src);
    assert!(has_rule(&found, "resource-pairing"), "{found:?}");
    // Binding and using the released frames is the correct shape.
    let good = "
fn on_frame(&mut self, ctx: &mut Ctx<'_>, frame: Frame) {
    for out in self.gate.admit(frame, self.credit_ep) {
        ctx.send(self.net_tx, self.latency, out);
    }
}
";
    assert_eq!(gating("fixture.rs", good), vec![]);
}

// ---------------------------------------------------------------------------
// resource-pairing: counter custody
// ---------------------------------------------------------------------------

#[test]
fn release_side_counter_mutation_outside_custodian_is_flagged() {
    let src = "
impl Rbm {
    fn sneak_release(&mut self) {
        self.free_bufs += 1;
    }
    fn spend(&mut self) {
        self.free_bufs -= 1;
    }
    fn release_buf(&mut self) {
        self.free_bufs += 1;
    }
    fn resync(&mut self) {
        self.free_bufs = 0;
    }
}
";
    let found = gating("crates/cclo/src/rbm.rs", src);
    let custody: Vec<_> = found
        .iter()
        .filter(|&&(r, _)| r == "resource-pairing")
        .collect();
    assert_eq!(
        custody.len(),
        2,
        "only the out-of-custody `+=` and `=` (not the acquire-side `-=`, \
         not the custodian) should be flagged: {found:?}"
    );
    assert_eq!(custody[0].1, 4, "{found:?}");
    assert_eq!(custody[1].1, 13, "{found:?}");
}

// ---------------------------------------------------------------------------
// digest-coverage
// ---------------------------------------------------------------------------

#[test]
fn component_without_state_digest_is_flagged() {
    let src = "
impl Component for Switch {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, port: PortId, payload: Payload) {
        drop((ctx, port, payload));
    }
}
";
    let found = gating("fixture.rs", src);
    assert!(has_rule(&found, "digest-coverage"), "{found:?}");
}

#[test]
fn component_with_state_digest_is_clean() {
    let src = "
impl Component for Switch {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, port: PortId, payload: Payload) {
        drop((ctx, port, payload));
    }
    fn state_digest(&self) -> Option<u64> {
        let mut h = 0u64;
        accl_sim::digest::fnv_fold(&mut h, &self.frames.to_le_bytes());
        Some(h)
    }
}
";
    assert_eq!(gating("fixture.rs", src), vec![]);
}

#[test]
fn non_component_impls_are_not_digest_checked() {
    let src = "
impl fmt::Display for Switch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, \"switch\")
    }
}
";
    assert_eq!(gating("fixture.rs", src), vec![]);
}

// ---------------------------------------------------------------------------
// exhaustive-handling
// ---------------------------------------------------------------------------

#[test]
fn wildcard_over_protocol_enum_is_flagged() {
    let src = "
fn apply(&mut self, action: FaultAction) {
    match action {
        FaultAction::Drop => self.dropped += 1,
        _ => {}
    }
}
";
    let found = gating("fixture.rs", src);
    assert!(has_rule(&found, "exhaustive-handling"), "{found:?}");
    // A bare lowercase binding is the same silent catch-all.
    let bound = "
fn apply(&mut self, status: CmdStatus) {
    match status {
        CmdStatus::Ok => self.done += 1,
        other => self.note(other),
    }
}
";
    let found = gating("fixture.rs", bound);
    assert!(has_rule(&found, "exhaustive-handling"), "{found:?}");
}

#[test]
fn wildcard_over_membership_event_is_flagged() {
    // Recovery handlers must take a position on every lifecycle event:
    // a stale `_` arm would silently ignore a new membership transition
    // (and `CclError::Partitioned` carries the same contract).
    let src = "
fn on_membership(&mut self, ev: MembershipEvent) {
    match ev {
        MembershipEvent::Suspected { node } => self.suspect(node),
        MembershipEvent::Confirmed { node } => self.confirm(node),
        _ => {}
    }
}
";
    let found = gating("fixture.rs", src);
    assert!(has_rule(&found, "exhaustive-handling"), "{found:?}");
    let err = "
fn classify(&mut self, e: CclError) {
    match e {
        CclError::Partitioned => self.partitioned += 1,
        _ => self.other += 1,
    }
}
";
    let found = gating("fixture.rs", err);
    assert!(has_rule(&found, "exhaustive-handling"), "{found:?}");
}

#[test]
fn spelled_out_membership_match_is_clean() {
    let src = "
fn on_membership(&mut self, ev: MembershipEvent) {
    match ev {
        MembershipEvent::Suspected { node } => self.suspect(node),
        MembershipEvent::Confirmed { node } => self.confirm(node),
        MembershipEvent::Restarted { node } => self.restarted(node),
        MembershipEvent::Rejoined { node } => self.rejoined(node),
        MembershipEvent::Partitioned { mask } => self.cut(mask),
        MembershipEvent::Healed { mask } => self.heal(mask),
    }
}
";
    assert_eq!(gating("fixture.rs", src), vec![]);
}

#[test]
fn diverging_catch_all_over_protocol_enum_is_clean() {
    let src = "
fn apply(&mut self, action: FaultAction) {
    match action {
        FaultAction::Drop => self.dropped += 1,
        other => panic!(\"unhandled fault action {other:?}\"),
    }
}
";
    assert_eq!(gating("fixture.rs", src), vec![]);
}

#[test]
fn spelled_out_protocol_match_is_clean() {
    let src = "
fn apply(&mut self, action: FaultAction) {
    match action {
        FaultAction::Drop => self.dropped += 1,
        FaultAction::Corrupt(seed) => self.corrupt(seed),
        FaultAction::Delay(d) => self.delay(d),
    }
}
";
    assert_eq!(gating("fixture.rs", src), vec![]);
}

#[test]
fn wildcard_over_unlisted_enum_is_not_flagged() {
    // Only the sim-visible protocol enums carry the contract.
    let src = "
fn apply(&mut self, kind: LocalKind) {
    match kind {
        LocalKind::A => self.a += 1,
        _ => {}
    }
}
";
    assert_eq!(gating("fixture.rs", src), vec![]);
}

// ---------------------------------------------------------------------------
// layering
// ---------------------------------------------------------------------------

#[test]
fn net_depending_on_poe_is_flagged() {
    let found = gating(
        "crates/net/src/fixture.rs",
        "use accl_poe::iface::TxCreditGate;\n",
    );
    assert!(has_rule(&found, "layering"), "{found:?}");
}

#[test]
fn poe_reaching_past_the_net_frame_surface_is_flagged() {
    let found = gating(
        "crates/poe/src/fixture.rs",
        "use accl_net::switch::EgressQueue;\n",
    );
    assert!(has_rule(&found, "layering"), "{found:?}");
    // The frame-level surface stays open to the transport layer.
    assert_eq!(
        gating(
            "crates/poe/src/fixture.rs",
            "use accl_net::frame::Frame;\nuse accl_net::{CreditReturn, NodeAddr};\n",
        ),
        vec![]
    );
}

#[test]
fn swmpi_may_share_the_schedule_ir_but_not_the_engine() {
    let found = gating("crates/swmpi/src/fixture.rs", "use accl_cclo::rbm::Rbm;\n");
    assert!(has_rule(&found, "layering"), "{found:?}");
    assert_eq!(
        gating(
            "crates/swmpi/src/fixture.rs",
            "use accl_cclo::command::CcloCommand;\nuse accl_cclo::firmware::Firmware;\n",
        ),
        vec![]
    );
}

// ---------------------------------------------------------------------------
// time-safety
// ---------------------------------------------------------------------------

#[test]
fn raw_picosecond_arithmetic_is_flagged() {
    let add = "fn f(t: Time, d: Dur) -> u64 { t.as_ps() + d.as_ps() }";
    assert!(has_rule(&gating("fixture.rs", add), "time-safety"), "{add}");
    let mul = "fn f(d: Dur) -> u64 { 100 * d.as_ps() }";
    assert!(has_rule(&gating("fixture.rs", mul), "time-safety"), "{mul}");
    let ctor = "fn f(n: u64, per: u64) -> Dur { Dur::from_ps(n * per) }";
    assert!(
        has_rule(&gating("fixture.rs", ctor), "time-safety"),
        "{ctor}"
    );
}

#[test]
fn widened_and_divided_picosecond_math_is_clean() {
    // Division cannot overflow; widening to u128 before multiplying is the
    // documented escape hatch (the trace latency table does exactly this).
    let div = "fn f(t: Time) -> u64 { t.as_ps() / 1000 }";
    assert_eq!(gating("fixture.rs", div), vec![]);
    let widened =
        "fn f(d: Dur, total: u64) -> u128 { u128::from(d.as_ps()) * 100 / u128::from(total) }";
    assert_eq!(gating("fixture.rs", widened), vec![]);
    let checked = "fn f(a: Dur, b: Dur) -> Dur { a + b }";
    assert_eq!(gating("fixture.rs", checked), vec![]);
}

// ---------------------------------------------------------------------------
// planted-bug integration tests (acceptance criteria)
// ---------------------------------------------------------------------------

#[test]
fn planted_bug_deleted_credit_release_is_caught() {
    // Take the real POE I/O edge source (the one CREDIT handler all three
    // engines share), verify it is clean, then plant the bug the chaos
    // harness hunts at runtime: the handler consumes the CreditReturn
    // without crediting its gate. The analyzer must catch it statically.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../poe/src/iface.rs");
    let src = std::fs::read_to_string(path).expect("read crates/poe/src/iface.rs");
    let clean = gating("crates/poe/src/iface.rs", &src);
    assert_eq!(clean, vec![], "shipping POE I/O edge must lint clean");

    let planted = src.replace("self.gate.credit(ret.credits, credit_ep)", "[]");
    assert_ne!(
        planted, src,
        "credit-release site not found — handler moved?"
    );
    let found = gating("crates/poe/src/iface.rs", &planted);
    assert!(
        found.iter().any(|&(r, _)| r == "resource-pairing"),
        "deleting the gate.credit call must trip resource-pairing: {found:?}"
    );
}

#[test]
fn planted_bug_deleted_span_end_is_caught() {
    // An op handler in the engine's house style: span opened at entry,
    // ended on both the early-out and the fall-through path. Deleting one
    // `span_end` (the early-out one) leaves a path that exits with the
    // span open — the leak the trace ring would otherwise carry forever.
    let handler = "
fn run_op(&mut self, ctx: &mut Ctx<'_>, req: OpReq) {
    let span = ctx.span_begin_attrs(\"uc.op\", req.span, &[]);
    if req.bytes == 0 {
        ctx.span_end(span);
        return;
    }
    self.issue(ctx, req);
    ctx.span_end(span);
}
";
    assert_eq!(gating("fixture.rs", handler), vec![]);

    let planted = handler.replacen("ctx.span_end(span);", "", 1);
    assert_ne!(planted, handler);
    let found = gating("fixture.rs", &planted);
    assert!(
        found.iter().any(|&(r, _)| r == "resource-pairing"),
        "deleting the early-out span_end must trip resource-pairing: {found:?}"
    );
}

// ---------------------------------------------------------------------------
// resource-pairing: flow-edge lifecycle
// ---------------------------------------------------------------------------

#[test]
fn flow_handle_dropped_on_early_return_is_flagged() {
    let src = "
fn send_seg(&mut self, ctx: &mut Ctx<'_>, seg: Seg) {
    let flow = ctx.flow_begin(\"poe.flow\", seg.span);
    if seg.bytes == 0 {
        return;
    }
    self.wire(ctx, seg.with_flow(flow));
}
";
    let found = gating("fixture.rs", src);
    assert!(
        has_rule(&found, "resource-pairing"),
        "early return with the flow handle unjoined and unescaped must be flagged: {found:?}"
    );
}

#[test]
fn flow_handle_joined_or_escaping_is_clean() {
    // The shipping Tx-side shape: the handle is stamped into the frame
    // (escape — the Rx side joins it later) …
    let tx = "
fn send_seg(&mut self, ctx: &mut Ctx<'_>, seg: Seg) {
    let flow = ctx.flow_begin(\"poe.flow\", seg.span);
    self.wire(ctx, seg.with_flow(flow));
}
";
    assert_eq!(gating("fixture.rs", tx), vec![]);
    // … and a local loopback that joins the handle itself.
    let local = "
fn loopback(&mut self, ctx: &mut Ctx<'_>, span: SpanId, rx_span: SpanId) {
    let flow = ctx.flow_begin(\"poe.flow\", span);
    ctx.flow_end(\"poe.flow\", flow, rx_span);
}
";
    assert_eq!(gating("fixture.rs", local), vec![]);
}

#[test]
fn flow_emit_without_any_join_in_the_corpus_is_flagged() {
    // The workspace-level half: both sides of a handoff live in different
    // functions (often different files), so the emit/join name match runs
    // over every collected site at once.
    let tx = accl_lint::flow_edge_uses_in(
        "tx.rs",
        "fn a(&mut self, ctx: &mut Ctx<'_>, s: SpanId) -> FlowId { ctx.flow_begin(\"poe.flow\", s) }",
    );
    let rx = accl_lint::flow_edge_uses_in(
        "rx.rs",
        "fn b(&mut self, ctx: &mut Ctx<'_>, f: FlowId, s: SpanId) { ctx.flow_end(\"poe.flow\", f, s) }",
    );
    let paired: Vec<_> = tx.iter().cloned().chain(rx.iter().cloned()).collect();
    assert!(accl_lint::rules::flow_join_findings(&paired).is_empty());

    // Tx alone: the edge is emitted but nothing in the corpus joins it.
    let findings = accl_lint::rules::flow_join_findings(&tx);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "resource-pairing");
    assert!(findings[0].message.contains("poe.flow"), "{findings:?}");

    // Rx alone: an orphaned join is just as wrong.
    assert_eq!(accl_lint::rules::flow_join_findings(&rx).len(), 1);
}

#[test]
fn planted_bug_deleted_flow_join_is_caught_workspace_wide() {
    // Take the real POE I/O edge (which emits and joins every engine's
    // `poe.flow` edges), verify its flow edges pair, then delete the
    // Rx-side join. The per-file walk cannot see the loss (the handle
    // rides inside the frame), but the corpus-level name match must.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../poe/src/iface.rs");
    let src = std::fs::read_to_string(path).expect("read crates/poe/src/iface.rs");
    let clean = accl_lint::flow_edge_uses_in("crates/poe/src/iface.rs", &src);
    assert!(clean.iter().any(|u| u.emitted) && clean.iter().any(|u| !u.emitted));
    assert!(accl_lint::rules::flow_join_findings(&clean).is_empty());

    let planted = src.replace("ctx.flow_end(\"poe.flow\", frame.flow, rx_span);", "");
    assert_ne!(
        planted, src,
        "flow join site not found — receive path moved?"
    );
    let uses = accl_lint::flow_edge_uses_in("crates/poe/src/iface.rs", &planted);
    let findings = accl_lint::rules::flow_join_findings(&uses);
    assert!(
        !findings.is_empty(),
        "deleting the Rx-side flow_end must trip the workspace flow-pairing check"
    );
    assert!(findings.iter().all(|f| f.rule == "resource-pairing"));
}
