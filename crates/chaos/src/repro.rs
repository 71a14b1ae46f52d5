//! The JSON repro format: a failing chaos run, pinned.
//!
//! A repro is the complete recipe for re-running one chaos failure: the
//! exact seed, the workload specification, and the (shrunk) fault-event
//! schedule. It is deliberately tiny and human-readable — the point of
//! shrinking is that the file a CI job uploads, or a developer checks in
//! as a regression, names *the* one or two faults that matter:
//!
//! ```json
//! {
//!   "format": 1,
//!   "seed": 17,
//!   "workload": {"op": "allreduce", "nodes": 3, "count": 2048, "transport": "tcp", "verify_fcs": false, "overload": false, "workers": 1, "membership": false},
//!   "events": [
//!     {"kind": "corrupt", "index": 9}
//!   ]
//! }
//! ```
//!
//! The file is written by [`accl_sim::json`], whose layout keeps the
//! workload and each fault event on one line.

use crate::workload::{self, CollKind, RunReport, WorkloadSpec};
use accl_core::Transport;
use accl_net::{Degradation, FaultEvent, FaultPlan, NodeAddr};
use accl_sim::json::{self, Json};
use accl_sim::time::{Dur, Time};

/// Repro file format version; bumped on schema changes.
const FORMAT: u64 = 1;

/// A serializable chaos failure: seed + workload + minimal schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Repro {
    /// The chaos seed the failure was found at.
    pub seed: u64,
    /// The workload that exposed it.
    pub spec: WorkloadSpec,
    /// The (typically shrunk) fault schedule.
    pub events: Vec<FaultEvent>,
}

impl Repro {
    /// Rebuilds the fault plan from the event list.
    pub fn plan(&self) -> FaultPlan {
        FaultPlan::from_events(&self.events)
    }

    /// Re-runs the workload under the repro's schedule.
    pub fn replay(&self) -> RunReport {
        workload::run(&self.spec, self.plan())
    }

    /// Serializes to the JSON repro format.
    pub fn to_json(&self) -> String {
        let spec = Json::Obj(vec![
            (
                "op".into(),
                Json::Str(
                    match self.spec.kind {
                        CollKind::AllReduce => "allreduce",
                        CollKind::Bcast => "bcast",
                    }
                    .into(),
                ),
            ),
            ("nodes".into(), Json::U64(self.spec.nodes as u64)),
            ("count".into(), Json::U64(self.spec.count)),
            (
                "transport".into(),
                Json::Str(
                    match self.spec.transport {
                        Transport::Tcp => "tcp",
                        Transport::Udp => "udp",
                        Transport::Rdma => "rdma",
                    }
                    .into(),
                ),
            ),
            ("verify_fcs".into(), Json::Bool(self.spec.verify_fcs)),
            ("overload".into(), Json::Bool(self.spec.overload)),
            ("workers".into(), Json::U64(self.spec.workers as u64)),
            ("membership".into(), Json::Bool(self.spec.membership)),
        ]);
        json::write(&Json::Obj(vec![
            ("format".into(), Json::U64(FORMAT)),
            ("seed".into(), Json::U64(self.seed)),
            ("workload".into(), spec),
            (
                "events".into(),
                Json::Arr(self.events.iter().map(event_to_json).collect()),
            ),
        ]))
    }

    /// Parses a repro file.
    pub fn from_json(text: &str) -> Result<Repro, String> {
        let doc = json::parse(text)?;
        let format = doc.field_as("format", Json::as_u64)?;
        if format != FORMAT {
            return Err(format!(
                "unsupported repro format {format} (expected {FORMAT})"
            ));
        }
        let seed = doc.field_as("seed", Json::as_u64)?;
        let w = doc.field("workload")?;
        let kind = match w.field_as("op", Json::as_str)? {
            "allreduce" => CollKind::AllReduce,
            "bcast" => CollKind::Bcast,
            other => return Err(format!("unknown op `{other}`")),
        };
        let transport = match w.field_as("transport", Json::as_str)? {
            "tcp" => Transport::Tcp,
            "udp" => Transport::Udp,
            "rdma" => Transport::Rdma,
            other => return Err(format!("unknown transport `{other}`")),
        };
        let spec = WorkloadSpec {
            kind,
            nodes: w.field_as("nodes", Json::as_u64)? as usize,
            count: w.field_as("count", Json::as_u64)?,
            transport,
            verify_fcs: w.field_as("verify_fcs", Json::as_bool)?,
            // Absent in pre-overload repros: default to the unbounded
            // cluster those files were recorded against.
            overload: w.get("overload").and_then(Json::as_bool).unwrap_or(false),
            seed,
            // Absent in pre-parallel repros: those ran sequentially. The
            // field is advisory anyway — outcomes are worker-invariant.
            workers: w.get("workers").and_then(Json::as_u64).unwrap_or(1).max(1) as usize,
            // Absent in pre-membership repros: those did not run the
            // self-healing recovery loop.
            membership: w.get("membership").and_then(Json::as_bool).unwrap_or(false),
        };
        let events = doc
            .field_as("events", Json::as_arr)?
            .iter()
            .map(event_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Repro { seed, spec, events })
    }
}

fn event_to_json(ev: &FaultEvent) -> Json {
    let obj = |kind: &str, rest: Vec<(String, Json)>| {
        let mut pairs = vec![("kind".to_string(), Json::Str(kind.into()))];
        pairs.extend(rest);
        Json::Obj(pairs)
    };
    match *ev {
        FaultEvent::Drop { index } => obj("drop", vec![("index".into(), Json::U64(index))]),
        FaultEvent::Corrupt { index } => obj("corrupt", vec![("index".into(), Json::U64(index))]),
        FaultEvent::Duplicate { index } => {
            obj("duplicate", vec![("index".into(), Json::U64(index))])
        }
        FaultEvent::Delay { index, by } => obj(
            "delay",
            vec![
                ("index".into(), Json::U64(index)),
                ("by_ps".into(), Json::U64(by.as_ps())),
            ],
        ),
        FaultEvent::LinkDown { node, from, until } => obj(
            "link_down",
            vec![
                ("node".into(), Json::U64(node.0 as u64)),
                ("from_ps".into(), Json::U64(from.as_ps())),
                ("until_ps".into(), Json::U64(until.as_ps())),
            ],
        ),
        FaultEvent::Degrade { node, window } => obj(
            "degrade",
            vec![
                ("node".into(), Json::U64(node.0 as u64)),
                ("from_ps".into(), Json::U64(window.from.as_ps())),
                ("until_ps".into(), Json::U64(window.until.as_ps())),
                ("loss_ppm".into(), Json::U64(window.loss_ppm as u64)),
                (
                    "throttle_gbps_x100".into(),
                    Json::U64(window.throttle_gbps_x100 as u64),
                ),
            ],
        ),
        FaultEvent::Crash { node, at } => obj(
            "crash",
            vec![
                ("node".into(), Json::U64(node.0 as u64)),
                ("at_ps".into(), Json::U64(at.as_ps())),
            ],
        ),
        FaultEvent::CreditLeak { node, at, credits } => obj(
            "credit_leak",
            vec![
                ("node".into(), Json::U64(node.0 as u64)),
                ("at_ps".into(), Json::U64(at.as_ps())),
                ("credits".into(), Json::U64(credits as u64)),
            ],
        ),
        FaultEvent::PauseStorm { node, at, hold } => obj(
            "pause_storm",
            vec![
                ("node".into(), Json::U64(node.0 as u64)),
                ("at_ps".into(), Json::U64(at.as_ps())),
                ("hold_ps".into(), Json::U64(hold.as_ps())),
            ],
        ),
        FaultEvent::BufShrink { node, at, bufs } => obj(
            "buf_shrink",
            vec![
                ("node".into(), Json::U64(node.0 as u64)),
                ("at_ps".into(), Json::U64(at.as_ps())),
                ("bufs".into(), Json::U64(bufs as u64)),
            ],
        ),
        FaultEvent::Restart { node, at } => obj(
            "restart",
            vec![
                ("node".into(), Json::U64(node.0 as u64)),
                ("at_ps".into(), Json::U64(at.as_ps())),
            ],
        ),
        FaultEvent::Partition { mask, from, until } => obj(
            "partition",
            vec![
                ("mask".into(), Json::U64(mask)),
                ("from_ps".into(), Json::U64(from.as_ps())),
                ("until_ps".into(), Json::U64(until.as_ps())),
            ],
        ),
    }
}

fn event_from_json(v: &Json) -> Result<FaultEvent, String> {
    let num = |key: &str| v.field_as(key, Json::as_u64);
    let node = |key: &str| -> Result<NodeAddr, String> { Ok(NodeAddr(num(key)? as u32)) };
    match v.field_as("kind", Json::as_str)? {
        "drop" => Ok(FaultEvent::Drop {
            index: num("index")?,
        }),
        "corrupt" => Ok(FaultEvent::Corrupt {
            index: num("index")?,
        }),
        "duplicate" => Ok(FaultEvent::Duplicate {
            index: num("index")?,
        }),
        "delay" => Ok(FaultEvent::Delay {
            index: num("index")?,
            by: Dur::from_ps(num("by_ps")?),
        }),
        "link_down" => Ok(FaultEvent::LinkDown {
            node: node("node")?,
            from: Time::from_ps(num("from_ps")?),
            until: Time::from_ps(num("until_ps")?),
        }),
        "degrade" => Ok(FaultEvent::Degrade {
            node: node("node")?,
            window: Degradation {
                from: Time::from_ps(num("from_ps")?),
                until: Time::from_ps(num("until_ps")?),
                loss_ppm: num("loss_ppm")? as u32,
                throttle_gbps_x100: num("throttle_gbps_x100")? as u32,
            },
        }),
        "crash" => Ok(FaultEvent::Crash {
            node: node("node")?,
            at: Time::from_ps(num("at_ps")?),
        }),
        "credit_leak" => Ok(FaultEvent::CreditLeak {
            node: node("node")?,
            at: Time::from_ps(num("at_ps")?),
            credits: num("credits")? as u32,
        }),
        "pause_storm" => Ok(FaultEvent::PauseStorm {
            node: node("node")?,
            at: Time::from_ps(num("at_ps")?),
            hold: Dur::from_ps(num("hold_ps")?),
        }),
        "buf_shrink" => Ok(FaultEvent::BufShrink {
            node: node("node")?,
            at: Time::from_ps(num("at_ps")?),
            bufs: num("bufs")? as u32,
        }),
        "restart" => Ok(FaultEvent::Restart {
            node: node("node")?,
            at: Time::from_ps(num("at_ps")?),
        }),
        "partition" => Ok(FaultEvent::Partition {
            mask: num("mask")?,
            from: Time::from_ps(num("from_ps")?),
            until: Time::from_ps(num("until_ps")?),
        }),
        other => Err(format!("unknown event kind `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_event_kind_round_trips() {
        let repro = Repro {
            seed: 99,
            spec: WorkloadSpec {
                kind: CollKind::Bcast,
                nodes: 4,
                count: 512,
                transport: Transport::Udp,
                verify_fcs: true,
                overload: true,
                seed: 99,
                workers: 2,
                membership: true,
            },
            events: vec![
                FaultEvent::Drop { index: 3 },
                FaultEvent::Corrupt { index: 7 },
                FaultEvent::Duplicate { index: 11 },
                FaultEvent::Delay {
                    index: 13,
                    by: Dur::from_us(40),
                },
                FaultEvent::LinkDown {
                    node: NodeAddr(1),
                    from: Time::from_ps(500),
                    until: Time::from_ps(900),
                },
                FaultEvent::Degrade {
                    node: NodeAddr(2),
                    window: Degradation {
                        from: Time::from_ps(100),
                        until: Time::from_ps(200),
                        loss_ppm: 10_000,
                        throttle_gbps_x100: 2_500,
                    },
                },
                FaultEvent::Crash {
                    node: NodeAddr(3),
                    at: Time::from_ps(1234),
                },
                FaultEvent::CreditLeak {
                    node: NodeAddr(0),
                    at: Time::from_ps(2000),
                    credits: 3,
                },
                FaultEvent::PauseStorm {
                    node: NodeAddr(1),
                    at: Time::from_ps(3000),
                    hold: Dur::from_us(150),
                },
                FaultEvent::BufShrink {
                    node: NodeAddr(2),
                    at: Time::from_ps(4000),
                    bufs: 2,
                },
                FaultEvent::Crash {
                    node: NodeAddr(1),
                    at: Time::from_ps(5000),
                },
                FaultEvent::Restart {
                    node: NodeAddr(1),
                    at: Time::from_ps(6000),
                },
                FaultEvent::Partition {
                    mask: 0b10,
                    from: Time::from_ps(7000),
                    until: Time::from_ps(8000),
                },
            ],
        };
        let text = repro.to_json();
        assert_eq!(Repro::from_json(&text).unwrap(), repro);
        // The plan the events rebuild is itself explicit, so the event
        // decomposition round-trips through FaultPlan too.
        let plan = repro.plan();
        assert!(plan.is_explicit());
        let canonical = plan.to_events();
        assert_eq!(FaultPlan::from_events(&canonical).to_events(), canonical);
    }

    /// Repro files written before the overload flag existed must keep
    /// parsing, defaulting to the unbounded cluster.
    #[test]
    fn missing_overload_field_defaults_to_false() {
        let old = "{\"format\": 1, \"seed\": 5, \"workload\": {\"op\": \"allreduce\", \
                   \"nodes\": 3, \"count\": 64, \"transport\": \"tcp\", \
                   \"verify_fcs\": true}, \"events\": []}";
        let repro = Repro::from_json(old).unwrap();
        assert!(!repro.spec.overload);
        assert_eq!(repro.spec.workers, 1);
        assert!(!repro.spec.membership);
    }

    #[test]
    fn workload_and_each_event_take_one_line() {
        let repro = Repro {
            seed: 3,
            spec: WorkloadSpec {
                kind: CollKind::AllReduce,
                nodes: 3,
                count: 64,
                transport: Transport::Tcp,
                verify_fcs: false,
                overload: false,
                seed: 3,
                workers: 1,
                membership: false,
            },
            events: vec![
                FaultEvent::Corrupt { index: 9 },
                FaultEvent::Delay {
                    index: 12,
                    by: Dur::from_us(3),
                },
            ],
        };
        let text = repro.to_json();
        let lines: Vec<&str> = text.lines().map(str::trim).collect();
        assert_eq!(lines.len(), 9, "{text}");
        assert!(lines[3].starts_with("\"workload\": {\"op\": \"allreduce\""));
        assert_eq!(lines[5], "{\"kind\": \"corrupt\", \"index\": 9},");
        assert_eq!(
            lines[6],
            "{\"kind\": \"delay\", \"index\": 12, \"by_ps\": 3000000}"
        );
    }

    /// The shared codec reads negative integers; the repro schema has
    /// none, so the typed layer must refuse them.
    #[test]
    fn negative_integers_are_rejected() {
        let bad = "{\"format\": 1, \"seed\": 0, \"workload\": {\"op\": \"allreduce\", \
                   \"nodes\": 2, \"count\": 1, \"transport\": \"tcp\", \
                   \"verify_fcs\": true}, \"events\": [{\"kind\": \"drop\", \"index\": -1}]}";
        let err = Repro::from_json(bad).unwrap_err();
        assert!(err.contains("`index`"), "{err}");
        assert!(Repro::from_json(&bad.replace("\"seed\": 0", "\"seed\": -7")).is_err());
    }

    #[test]
    fn rejects_unknown_formats_and_kinds() {
        assert!(Repro::from_json("{\"format\": 2}").is_err());
        let bad = "{\"format\": 1, \"seed\": 0, \"workload\": {\"op\": \"gather\", \
                   \"nodes\": 2, \"count\": 1, \"transport\": \"tcp\", \
                   \"verify_fcs\": true}, \"events\": []}";
        assert!(Repro::from_json(bad).is_err());
    }
}
