//! The `accl-obs-trace-v1` document: the mapping between a
//! [`TraceDoc`] and its JSON form in the workspace codec
//! ([`accl_sim::json`]).
//!
//! The format is integer-only — times are picoseconds, never fractional
//! units — so a document round-trips bit-exactly:
//! `parse(serialize(doc)) == doc` for every capturable trace, which the
//! round-trip tests pin. The codec's layout puts each event without
//! attributes, and each window's counters and gauges, on one line. An
//! event's attributes ride in an optional `"a"` object, written only when
//! there are some, so attribute-free documents keep their bytes.

use accl_sim::json::{self, Json};

use crate::model::{
    HistSummary, ObsEvent, ObsKind, ObsValue, TraceDoc, WindowRow, WindowSeries, SCHEMA,
};

fn obj<'a>(pairs: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn string(s: &str) -> Json {
    Json::Str(s.to_string())
}

/// Serializes a trace document. Key order is fixed, so equal documents
/// serialize to equal bytes (artifacts can be compared with `cmp`).
pub fn serialize(doc: &TraceDoc) -> String {
    let events = doc.events.iter().map(|e| {
        let mut fields = vec![
            ("t", Json::U64(e.time_ps)),
            ("k", string(e.kind.code())),
            ("id", Json::U64(e.id)),
            ("par", Json::U64(e.parent)),
            ("c", Json::U64(u64::from(e.comp))),
            ("n", string(&e.name)),
        ];
        if !e.attrs.is_empty() {
            let attrs = e.attrs.iter().map(|(k, v)| {
                let v = match v {
                    ObsValue::U64(n) => Json::U64(*n),
                    ObsValue::Str(s) => string(s),
                };
                (k.clone(), v)
            });
            fields.push(("a", Json::Obj(attrs.collect())));
        }
        obj(fields)
    });
    let mut root = vec![
        ("schema", string(SCHEMA)),
        ("workload", string(&doc.workload)),
        ("seed", Json::U64(doc.seed)),
        (
            "components",
            Json::Arr(doc.components.iter().map(|c| string(c)).collect()),
        ),
        ("events", Json::Arr(events.collect())),
    ];
    if let Some(w) = &doc.windows {
        let rows = w.rows.iter().map(|row| {
            let counters = row.counters.iter().map(|(k, v)| (k.clone(), Json::U64(*v)));
            let gauges = row.gauges.iter().map(|(k, v)| (k.clone(), Json::int(*v)));
            let hists = row.hists.iter().map(|(k, h)| {
                let summary = obj([
                    ("count", Json::U64(h.count)),
                    ("sum", Json::U64(h.sum)),
                    ("min", Json::U64(h.min)),
                    ("max", Json::U64(h.max)),
                    ("p50", Json::U64(h.p50)),
                    ("p99", Json::U64(h.p99)),
                    ("p999", Json::U64(h.p999)),
                ]);
                (k.clone(), summary)
            });
            obj([
                ("idx", Json::U64(row.idx)),
                ("counters", Json::Obj(counters.collect())),
                ("gauges", Json::Obj(gauges.collect())),
                ("hists", Json::Obj(hists.collect())),
            ])
        });
        root.push((
            "windows",
            obj([
                ("width_ps", Json::U64(w.width_ps)),
                ("rows", Json::Arr(rows.collect())),
            ]),
        ));
    }
    json::write(&obj(root))
}

/// The members of an object-valued field, each converted by `as_t`.
fn members<T>(
    v: &Json,
    key: &str,
    as_t: impl Fn(&Json) -> Option<T>,
) -> Result<Vec<(String, T)>, String> {
    v.field_as(key, Json::as_obj)?
        .iter()
        .map(|(k, m)| {
            as_t(m)
                .map(|t| (k.clone(), t))
                .ok_or_else(|| format!("`{key}` member `{k}` has the wrong type"))
        })
        .collect()
}

/// Parses an `accl-obs-trace-v1` document.
pub fn parse(text: &str) -> Result<TraceDoc, String> {
    let root = json::parse(text)?;
    let schema = root.field_as("schema", Json::as_str)?;
    if schema != SCHEMA {
        return Err(format!(
            "unsupported schema \"{schema}\" (want \"{SCHEMA}\")"
        ));
    }
    let text_of = |v: &Json, key: &str| v.field_as(key, Json::as_str).map(str::to_string);
    let components = root
        .field_as("components", Json::as_arr)?
        .iter()
        .map(|c| {
            c.as_str()
                .map(str::to_string)
                .ok_or("component names must be strings")
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut events = Vec::new();
    for e in root.field_as("events", Json::as_arr)? {
        let code = e.field_as("k", Json::as_str)?;
        let kind =
            ObsKind::from_code(code).ok_or_else(|| format!("unknown event kind \"{code}\""))?;
        events.push(ObsEvent {
            time_ps: e.field_as("t", Json::as_u64)?,
            kind,
            id: e.field_as("id", Json::as_u64)?,
            parent: e.field_as("par", Json::as_u64)?,
            comp: u32::try_from(e.field_as("c", Json::as_u64)?)
                .map_err(|_| "component overflow")?,
            name: text_of(e, "n")?,
            attrs: match e.get("a") {
                None => Vec::new(),
                Some(_) => members(e, "a", |v| match v {
                    Json::U64(n) => Some(ObsValue::U64(*n)),
                    Json::Str(s) => Some(ObsValue::Str(s.clone())),
                    _ => None,
                })?,
            },
        });
    }
    let windows = match root.get("windows") {
        None | Some(Json::Null) => None,
        Some(w) => {
            let hist = |h: &Json| {
                let f = |key| h.get(key).and_then(Json::as_u64);
                Some(HistSummary {
                    count: f("count")?,
                    sum: f("sum")?,
                    min: f("min")?,
                    max: f("max")?,
                    p50: f("p50")?,
                    p99: f("p99")?,
                    p999: f("p999")?,
                })
            };
            let mut rows = Vec::new();
            for r in w.field_as("rows", Json::as_arr)? {
                rows.push(WindowRow {
                    idx: r.field_as("idx", Json::as_u64)?,
                    counters: members(r, "counters", Json::as_u64)?,
                    gauges: members(r, "gauges", Json::as_i64)?,
                    hists: members(r, "hists", hist)?,
                });
            }
            Some(WindowSeries {
                width_ps: w.field_as("width_ps", Json::as_u64)?,
                rows,
            })
        }
    };
    Ok(TraceDoc {
        workload: text_of(&root, "workload")?,
        seed: root.field_as("seed", Json::as_u64)?,
        components,
        events,
        windows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_doc() -> TraceDoc {
        TraceDoc {
            workload: "allreduce8".to_string(),
            seed: 7,
            components: vec!["n0.driver".to_string(), "switch \"x\"".to_string()],
            events: vec![
                ObsEvent {
                    time_ps: 0,
                    kind: ObsKind::Begin,
                    id: 11,
                    parent: 0,
                    comp: 0,
                    name: "driver.coll".to_string(),
                    attrs: vec![],
                },
                ObsEvent {
                    time_ps: 42,
                    kind: ObsKind::FlowBegin,
                    id: 99,
                    parent: 11,
                    comp: 1,
                    name: "poe.flow".to_string(),
                    attrs: vec![],
                },
                ObsEvent {
                    time_ps: 50,
                    kind: ObsKind::End,
                    id: 11,
                    parent: 0,
                    comp: 0,
                    name: String::new(),
                    attrs: vec![],
                },
            ],
            windows: Some(WindowSeries {
                width_ps: 1_000_000,
                rows: vec![WindowRow {
                    idx: 3,
                    counters: vec![("net.frames".to_string(), 12)],
                    gauges: vec![("poe.inflight".to_string(), -2)],
                    hists: vec![(
                        "rbm.meta_wait_ps".to_string(),
                        HistSummary {
                            count: 5,
                            sum: 1000,
                            min: 100,
                            max: 400,
                            p50: 128,
                            p99: 256,
                            p999: 256,
                        },
                    )],
                }],
            }),
        }
    }

    #[test]
    fn round_trips_bit_exactly() {
        let mut attributed = sample_doc();
        attributed.events[0].attrs = vec![
            (
                "op".to_string(),
                ObsValue::Str("allreduce \"x\"".to_string()),
            ),
            ("bytes".to_string(), ObsValue::U64(u64::MAX)),
        ];
        for doc in [sample_doc(), attributed] {
            let text = serialize(&doc);
            let back = parse(&text).unwrap();
            assert_eq!(back, doc);
            // Serialization is canonical: equal docs, equal bytes.
            assert_eq!(serialize(&back), text);
        }
    }

    #[test]
    fn reads_older_dumps_that_name_a_queue() {
        // Dumps written while the simulator had two queue structures carry
        // a top-level "queue" member; the reader ignores it.
        let doc = sample_doc();
        let text = serialize(&doc);
        let seed = "\"seed\": 7,";
        assert!(text.contains(seed), "{text}");
        let older = text.replace(seed, &format!("{seed}\n  \"queue\": \"calendar\","));
        assert_ne!(older, text);
        assert_eq!(parse(&older).unwrap(), doc);
    }

    #[test]
    fn rejects_floats_and_wrong_schema() {
        let text = serialize(&sample_doc()).replace("\"t\": 42", "\"t\": 42.5");
        assert!(parse(&text).unwrap_err().contains("integer-only"));
        assert!(parse("{\"schema\": \"nope\"}")
            .unwrap_err()
            .contains("unsupported schema"));
    }

    #[test]
    fn each_event_takes_one_line() {
        let doc = sample_doc();
        let text = serialize(&doc);
        let event_lines: Vec<&str> = text
            .lines()
            .map(str::trim)
            .filter(|l| l.starts_with("{\"t\": "))
            .collect();
        assert_eq!(event_lines.len(), doc.events.len(), "{text}");
        assert_eq!(
            event_lines[1],
            "{\"t\": 42, \"k\": \"s\", \"id\": 99, \"par\": 11, \"c\": 1, \"n\": \"poe.flow\"},"
        );
    }
}
