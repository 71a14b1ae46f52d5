//! Simulated-time attribution: accl-obs critical paths over a finished
//! cluster's span stream, rolled up from component kinds to crate layers.
//! Only the traced build records spans; the default build attributes
//! nothing.

use std::collections::BTreeMap;

use accl_core::AcclCluster;

/// Span-ring capacity for traced runs; the ring grows on demand, and
/// accl-obs refuses a trace that overflowed it.
pub const SPAN_CAPACITY: usize = 1 << 26;

/// The crate layer a component kind (rank prefix stripped) belongs to.
pub fn layer_of(comp_kind: &str) -> &'static str {
    let head = comp_kind.split('.').next().unwrap_or("");
    match head {
        "net" => "net",
        "bus" | "xdma" => "mem",
        "poe" | "rxmux" => "poe",
        "cclo" => "cclo",
        "driver" | "hostproc" | "kernel" => "core",
        _ => "unattributed",
    }
}

/// Enables span recording on a freshly built cluster.
#[cfg(feature = "trace")]
pub fn enable(cluster: &mut AcclCluster) {
    cluster.enable_tracing(SPAN_CAPACITY);
}

/// Enables span recording on a freshly built cluster.
#[cfg(not(feature = "trace"))]
pub fn enable(_cluster: &mut AcclCluster) {
    panic!("span recording needs the benchmark's `trace` build");
}

/// Adds the critical-path time of every collective root on `cluster`
/// (`driver.coll`, or `uc.call` for kernel-driven runs) to `into`, per
/// layer, in picoseconds.
#[cfg(feature = "trace")]
pub fn attribute(cluster: &AcclCluster, seed: u64, into: &mut BTreeMap<String, u64>) {
    use accl_obs::{critical_path, SpanGraph, TraceDoc};
    let doc = TraceDoc::from_cluster(cluster, "perfbench", seed, cluster.config().workers);
    let graph = SpanGraph::build(&doc);
    let mut roots = graph.roots(|name| name == "driver.coll");
    if roots.is_empty() {
        roots = graph.roots(|name| name == "uc.call");
    }
    let paths: Vec<_> = roots
        .iter()
        .filter_map(|&r| critical_path(&graph, r))
        .collect();
    let table = accl_obs::attribute(&doc, &paths);
    assert_eq!(
        table.attributed_ps(),
        table.total_ps,
        "critical-path attribution must tile every root exactly"
    );
    for row in &table.rows {
        *into
            .entry(layer_of(&row.comp_kind).to_string())
            .or_insert(0) += row.ps;
    }
}

/// Adds the critical-path time of every collective root on `cluster`.
#[cfg(not(feature = "trace"))]
pub fn attribute(_cluster: &AcclCluster, _seed: u64, _into: &mut BTreeMap<String, u64>) {}

#[cfg(test)]
mod tests {
    use super::layer_of;

    #[test]
    fn component_kinds_roll_up_to_crates() {
        assert_eq!(layer_of("net.switch"), "net");
        assert_eq!(layer_of("net.port3"), "net");
        assert_eq!(layer_of("bus"), "mem");
        assert_eq!(layer_of("xdma"), "mem");
        assert_eq!(layer_of("poe"), "poe");
        assert_eq!(layer_of("poe.tcp"), "poe");
        assert_eq!(layer_of("rxmux"), "poe");
        assert_eq!(layer_of("cclo.uc"), "cclo");
        assert_eq!(layer_of("driver"), "core");
        assert_eq!(layer_of("hostproc.0"), "core");
        assert_eq!(layer_of("kernel.0"), "core");
        assert_eq!(layer_of("mystery"), "unattributed");
    }
}
