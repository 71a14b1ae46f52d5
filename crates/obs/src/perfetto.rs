//! Chrome/Perfetto `trace_event` JSON, rendered from a [`TraceDoc`].
//!
//! The output is the JSON Object Format (`{"traceEvents": […]}`) that
//! `ui.perfetto.dev` and `chrome://tracing` load. A rank's components
//! (named `n<r>.…`) form process `r`; every other component belongs to
//! the harness process `u32::MAX`. Each component is a thread numbered by
//! its index. A matched Begin/End pair becomes a complete `X` event; a
//! Begin without its End (the span was still open) an unterminated `B`;
//! an instant an `i`; a flow edge an `s`/`f` pair whose finish binds to
//! the enclosing slice. Timestamps are microseconds with six fractional
//! digits, so picoseconds survive exactly. Attributes become `args`.

use std::collections::BTreeMap;

use accl_sim::json::quote;

use crate::model::{ObsKind, ObsValue, TraceDoc};

/// Process id of the components outside any rank.
const HARNESS_PID: u32 = u32::MAX;

/// Picoseconds as microseconds with six fractional digits.
fn micros(ps: u64) -> String {
    format!("{}.{:06}", ps / 1_000_000, ps % 1_000_000)
}

/// The `, "args": {…}` suffix of an event; empty without attributes.
fn args(attrs: &[(String, ObsValue)]) -> String {
    if attrs.is_empty() {
        return String::new();
    }
    let body: Vec<String> = attrs
        .iter()
        .map(|(k, v)| match v {
            ObsValue::U64(n) => format!("{}: {n}", quote(k)),
            ObsValue::Str(s) => format!("{}: {}", quote(k), quote(s)),
        })
        .collect();
    format!(", \"args\": {{{}}}", body.join(", "))
}

/// Renders `doc` as Chrome/Perfetto `trace_event` JSON, one event a line:
/// process and thread names first, then the events in document order.
pub fn render(doc: &TraceDoc) -> String {
    let pid = |comp: u32| doc.rank_of(comp).unwrap_or(HARNESS_PID);
    let ends: BTreeMap<u64, u64> = doc
        .events
        .iter()
        .filter(|e| e.kind == ObsKind::End)
        .map(|e| (e.id, e.time_ps))
        .collect();
    let threads: BTreeMap<(u32, u32), &str> = doc
        .events
        .iter()
        .map(|e| ((pid(e.comp), e.comp), doc.comp_name(e.comp)))
        .collect();
    let mut pids: Vec<u32> = threads.keys().map(|&(p, _)| p).collect();
    pids.dedup();

    let mut lines = Vec::new();
    for p in pids {
        let label = match p {
            HARNESS_PID => "harness".to_string(),
            rank => format!("rank {rank}"),
        };
        lines.push(format!(
            "{{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": {p}, \"tid\": 0, \
             \"args\": {{\"name\": \"{label}\"}}}}"
        ));
    }
    for (&(p, tid), name) in &threads {
        lines.push(format!(
            "{{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": {p}, \"tid\": {tid}, \
             \"args\": {{\"name\": {}}}}}",
            quote(name)
        ));
    }
    for e in &doc.events {
        let name = quote(&e.name);
        let cat = quote(e.name.split_once('.').map_or(e.name.as_str(), |(c, _)| c));
        let at = format!(
            "\"pid\": {}, \"tid\": {}, \"ts\": {}",
            pid(e.comp),
            e.comp,
            micros(e.time_ps)
        );
        let line = match e.kind {
            ObsKind::Begin => {
                let common = format!("\"name\": {name}, \"cat\": {cat}, {at}{}", args(&e.attrs));
                match ends.get(&e.id) {
                    Some(&end) => format!(
                        "{{\"ph\": \"X\", {common}, \"dur\": {}}}",
                        micros(end.saturating_sub(e.time_ps))
                    ),
                    None => format!("{{\"ph\": \"B\", {common}}}"),
                }
            }
            ObsKind::Instant => format!(
                "{{\"ph\": \"i\", \"s\": \"t\", \"name\": {name}, \"cat\": {cat}, {at}{}}}",
                args(&e.attrs)
            ),
            // Flow pairs share `cat`, `name` and `id` (the flow id in hex).
            ObsKind::FlowBegin => format!(
                "{{\"ph\": \"s\", \"id\": \"{:#x}\", \"name\": {name}, \"cat\": \"flow\", {at}}}",
                e.id
            ),
            ObsKind::FlowEnd => format!(
                "{{\"ph\": \"f\", \"bp\": \"e\", \"id\": \"{:#x}\", \"name\": {name}, \
                 \"cat\": \"flow\", {at}}}",
                e.id
            ),
            ObsKind::End => continue,
        };
        lines.push(line);
    }
    format!(
        "{{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n{}\n]}}\n",
        lines.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ObsEvent;

    fn ev(time_ps: u64, kind: ObsKind, id: u64, comp: u32, name: &str) -> ObsEvent {
        ObsEvent {
            time_ps,
            kind,
            id,
            parent: 0,
            comp,
            name: name.to_string(),
            attrs: vec![],
        }
    }

    #[test]
    fn renders_every_phase_literally() {
        use ObsKind::*;
        let mut coll = ev(1_500_000, Begin, 1, 0, "driver.coll");
        coll.attrs = vec![
            ("op".to_string(), ObsValue::Str("allreduce".to_string())),
            ("bytes".to_string(), ObsValue::U64(64)),
        ];
        let doc = TraceDoc {
            components: vec!["n0.driver".into(), "n1.poe".into(), "switch".into()],
            events: vec![
                coll,
                ev(2_000_000, FlowBegin, 0xab, 0, "poe.flow"),
                ev(2_500_000, Instant, 3, 2, "net.drop"),
                ev(3_000_000, Begin, 2, 1, "poe.rx"),
                ev(3_000_001, FlowEnd, 0xab, 1, "poe.flow"),
                ev(4_000_000, End, 1, 0, ""),
            ],
            ..TraceDoc::default()
        };
        let want = r#"{"displayTimeUnit": "ns", "traceEvents": [
{"ph": "M", "name": "process_name", "pid": 0, "tid": 0, "args": {"name": "rank 0"}},
{"ph": "M", "name": "process_name", "pid": 1, "tid": 0, "args": {"name": "rank 1"}},
{"ph": "M", "name": "process_name", "pid": 4294967295, "tid": 0, "args": {"name": "harness"}},
{"ph": "M", "name": "thread_name", "pid": 0, "tid": 0, "args": {"name": "n0.driver"}},
{"ph": "M", "name": "thread_name", "pid": 1, "tid": 1, "args": {"name": "n1.poe"}},
{"ph": "M", "name": "thread_name", "pid": 4294967295, "tid": 2, "args": {"name": "switch"}},
{"ph": "X", "name": "driver.coll", "cat": "driver", "pid": 0, "tid": 0, "ts": 1.500000, "args": {"op": "allreduce", "bytes": 64}, "dur": 2.500000},
{"ph": "s", "id": "0xab", "name": "poe.flow", "cat": "flow", "pid": 0, "tid": 0, "ts": 2.000000},
{"ph": "i", "s": "t", "name": "net.drop", "cat": "net", "pid": 4294967295, "tid": 2, "ts": 2.500000},
{"ph": "B", "name": "poe.rx", "cat": "poe", "pid": 1, "tid": 1, "ts": 3.000000},
{"ph": "f", "bp": "e", "id": "0xab", "name": "poe.flow", "cat": "flow", "pid": 1, "tid": 1, "ts": 3.000001}
]}
"#;
        assert_eq!(render(&doc), want);
    }
}
