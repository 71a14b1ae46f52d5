//! Windowed SLO time-series rendering.
//!
//! Turns a run's [`WindowSeries`] into a per-window text report:
//! counter rates and histogram p50/p99/p999 per fixed-width sim-time
//! window. Because windows are integer-only and deterministic, the
//! report is bit-identical across reruns and hosts — CI can diff
//! it like any other artifact.
//!
//! Every window that completed collectives also gets an **availability**
//! column (integer milli, derived from `driver.calls` vs
//! `driver.calls_failed` — see [`crate::mttr::window_availability_milli`]),
//! so an outage-and-recovery run reads as a dip-and-return directly in
//! the time series. The derived series is addressable as the pseudo
//! metric key `availability_milli`.

use crate::model::{TraceDoc, WindowSeries};
use crate::mttr::window_availability_milli;

/// Pseudo metric key selecting the derived per-window availability.
pub const AVAILABILITY_KEY: &str = "availability_milli";

/// Renders the full series, every populated window in order.
pub fn render(doc: &TraceDoc) -> String {
    let Some(w) = &doc.windows else {
        return "no windowed metrics in this trace (capture with a window width)\n".to_string();
    };
    render_series(w)
}

/// Renders one series.
pub fn render_series(w: &WindowSeries) -> String {
    let mut out = format!(
        "window width: {} ps, {} populated windows\n",
        w.width_ps,
        w.rows.len()
    );
    for row in &w.rows {
        let start = row.idx * w.width_ps;
        out.push_str(&format!("window {} [{} ps ..):\n", row.idx, start));
        if row.counters.iter().any(|(k, _)| k == "driver.calls") {
            out.push_str(&format!(
                "  avail   {:<28} {}\n",
                AVAILABILITY_KEY,
                window_availability_milli(row)
            ));
        }
        for (k, v) in &row.counters {
            out.push_str(&format!("  counter {k:<28} {v}\n"));
        }
        for (k, h) in &row.hists {
            out.push_str(&format!(
                "  hist    {k:<28} n={} p50={} p99={} p999={} max={}\n",
                h.count, h.p50, h.p99, h.p999, h.max
            ));
        }
    }
    out
}

/// Renders one metric's trajectory across windows: `(window start ps,
/// p50, p99, p999)` rows for a histogram, or `(window start ps, value)`
/// for a counter. Returns `None` when the metric never appears.
pub fn metric_series(w: &WindowSeries, key: &str) -> Option<String> {
    let mut out = String::new();
    let mut found = false;
    for row in &w.rows {
        let start = row.idx * w.width_ps;
        if key == AVAILABILITY_KEY {
            out.push_str(&format!("{start} {}\n", window_availability_milli(row)));
            found = true;
        } else if let Some((_, h)) = row.hists.iter().find(|(k, _)| k == key) {
            out.push_str(&format!(
                "{start} p50={} p99={} p999={} n={}\n",
                h.p50, h.p99, h.p999, h.count
            ));
            found = true;
        } else if let Some((_, v)) = row.counters.iter().find(|(k, _)| k == key) {
            out.push_str(&format!("{start} {v}\n"));
            found = true;
        }
    }
    found.then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{HistSummary, WindowRow};

    fn series() -> WindowSeries {
        WindowSeries {
            width_ps: 100,
            rows: vec![
                WindowRow {
                    idx: 0,
                    counters: vec![("net.frames".to_string(), 4)],
                    hists: vec![(
                        "rbm.meta_wait_ps".to_string(),
                        HistSummary {
                            count: 2,
                            sum: 60,
                            min: 20,
                            max: 40,
                            p50: 32,
                            p99: 32,
                            p999: 32,
                        },
                    )],
                },
                WindowRow {
                    idx: 2,
                    counters: vec![("net.frames".to_string(), 1)],
                    hists: vec![],
                },
            ],
        }
    }

    #[test]
    fn metric_series_tracks_windows() {
        let s = series();
        let frames = metric_series(&s, "net.frames").unwrap();
        assert_eq!(frames, "0 4\n200 1\n");
        let waits = metric_series(&s, "rbm.meta_wait_ps").unwrap();
        assert!(waits.starts_with("0 p50=32 p99=32"));
        assert!(metric_series(&s, "absent").is_none());
    }

    #[test]
    fn availability_renders_as_a_window_column_and_a_series() {
        let mut s = series();
        s.rows[0]
            .counters
            .insert(0, ("driver.calls".to_string(), 2));
        s.rows[0]
            .counters
            .insert(1, ("driver.calls_failed".to_string(), 1));
        let text = render_series(&s);
        assert!(text.contains("avail   availability_milli"));
        assert!(text.contains(" 500\n"), "2 calls, 1 failed -> 500 milli");
        // As a pseudo metric the derived series covers every window;
        // idle windows read fully available.
        let series = metric_series(&s, AVAILABILITY_KEY).unwrap();
        assert_eq!(series, "0 500\n200 1000\n");
    }

    #[test]
    fn render_mentions_every_window() {
        let text = render_series(&series());
        assert!(text.contains("window 0 [0 ps ..)"));
        assert!(text.contains("window 2 [200 ps ..)"));
        assert!(text.contains("counter net.frames"));
    }
}
