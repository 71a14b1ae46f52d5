//! Platform and transport definitions (paper §4.2–4.3).
//!
//! A platform fixes the memory model and the host-side invocation path; a
//! transport fixes the protocol offload engine. The paper's evaluated
//! combinations are Coyote+RDMA (shared virtual memory, fast MMIO-based
//! invocation) and XRT+TCP/UDP (partitioned memory, staging through XDMA,
//! slow ioctl-based invocation).

use accl_cclo::CcloConfig;
use accl_net::{NetConfig, OverloadPolicy};
use accl_poe::rdma::RdmaConfig;
use accl_poe::tcp::TcpConfig;
use accl_sim::time::Dur;
use serde::{Deserialize, Serialize};

use crate::error::RetryPolicy;

/// The development platform hosting the CCLO.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Platform {
    /// Coyote: shared virtual memory, TLB-fronted unified addressing.
    Coyote,
    /// Vitis/XRT: partitioned memory, explicit staging.
    Xrt,
}

/// The protocol offload engine attached to the CCLO.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Transport {
    /// Unreliable datagrams (VNx UDP).
    Udp,
    /// Reliable hardware TCP.
    Tcp,
    /// Coyote RDMA (enables the rendezvous protocol).
    Rdma,
}

impl Transport {
    /// Whether this transport supports the rendezvous protocol.
    pub fn rendezvous_capable(self) -> bool {
        matches!(self, Transport::Rdma)
    }
}

/// Full cluster configuration.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Number of FPGA-equipped nodes.
    pub nodes: usize,
    /// Development platform.
    pub platform: Platform,
    /// Protocol offload engine.
    pub transport: Transport,
    /// Fabric parameters.
    pub net: NetConfig,
    /// CCLO engine parameters.
    pub cclo: CcloConfig,
    /// RDMA engine tuning (ignored for other transports).
    pub rdma: RdmaConfig,
    /// TCP engine tuning (used by [`Transport::Tcp`] and by the standby
    /// POE when `tcp_fallback` is set; ignored otherwise).
    pub tcp: TcpConfig,
    /// Builds a standby TCP POE next to each RDMA POE and fails
    /// collectives over to it after repeated QP errors (graceful
    /// degradation). Only valid with [`Transport::Rdma`].
    pub tcp_fallback: bool,
    /// Finite per-POE tx credit window: at most this many data frames in
    /// flight toward the NIC before the engine's tx path backpressures.
    /// `None` (the default) leaves the window unbounded.
    pub tx_credit_window: Option<u32>,
    /// Host-driver admission cap: calls queued beyond this are shed
    /// immediately with [`crate::error::CclError::Busy`] instead of
    /// waiting. `None` (the default) queues without bound.
    pub max_queued_calls: Option<u32>,
    /// Busy-retry policy for engine admission rejections: a call the uC
    /// turned away at a full job queue is resubmitted under this backoff
    /// (with deterministic seeded jitter) before failing with `Busy`.
    /// `None` (the default) keeps the driver's built-in budget.
    pub busy_retry: Option<RetryPolicy>,
    /// Simulation seed.
    pub seed: u64,
    /// Ignored: the simulator runs one sequential event loop. Kept only so
    /// the `perfbench` benchmark, which still passes a worker count,
    /// compiles; it never reaches the simulator.
    pub workers: usize,
}

impl ClusterConfig {
    /// The paper's primary configuration: Coyote + RDMA at 100 Gb/s.
    pub fn coyote_rdma(nodes: usize) -> Self {
        ClusterConfig {
            nodes,
            platform: Platform::Coyote,
            transport: Transport::Rdma,
            net: NetConfig::default(),
            cclo: CcloConfig::default(),
            rdma: RdmaConfig::default(),
            tcp: TcpConfig::default(),
            tcp_fallback: false,
            tx_credit_window: None,
            max_queued_calls: None,
            busy_retry: None,
            seed: 1,
            workers: 1,
        }
    }

    /// Sets [`ClusterConfig::workers`], which is ignored: the simulator is
    /// sequential. Kept only for the `perfbench` benchmark.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Caps every elastic resource in the stack at a finite size, turning
    /// silent unbounded queueing into explicit backpressure and typed
    /// `Busy`/`ResourceExhausted` outcomes — the configuration the
    /// overload chaos profile
    /// (`accl_chaos::ChaosProfile::overload_profile`) is meant to be run
    /// against. Layer by layer: the switch holds at most 64 frames per
    /// egress port and PFC-pauses the offending NIC when full; each POE
    /// keeps at most 32 data frames in flight toward its NIC; each uC
    /// admits at most 8 pending collectives (rejecting further ones with
    /// `Busy`, which the driver retries under jittered backoff); the Rx
    /// buffer manager reports pool exhaustion to the uC so starved aborts
    /// surface as `ResourceExhausted`; and each driver sheds calls beyond
    /// a 16-deep submission queue.
    pub fn with_overload_limits(mut self) -> Self {
        self.net.switch_buffer_frames = Some(64);
        self.net.overload_policy = OverloadPolicy::Pause;
        self.cclo.max_pending_calls = Some(8);
        self.cclo.notify_rx_exhaustion = true;
        self.tx_credit_window = Some(32);
        self.max_queued_calls = Some(16);
        self.busy_retry = Some(RetryPolicy {
            max_attempts: 8,
            backoff_base: Dur::from_us(2),
            backoff_max: Dur::from_us(200),
        });
        self
    }

    /// The XRT + TCP configuration of Fig. 13.
    pub fn xrt_tcp(nodes: usize) -> Self {
        ClusterConfig {
            nodes,
            platform: Platform::Xrt,
            transport: Transport::Tcp,
            ..Self::coyote_rdma(nodes)
        }
    }

    /// The XRT + UDP configuration.
    pub fn xrt_udp(nodes: usize) -> Self {
        ClusterConfig {
            nodes,
            platform: Platform::Xrt,
            transport: Transport::Udp,
            ..Self::coyote_rdma(nodes)
        }
    }

    /// Legacy-ACCL baseline on XRT + TCP (Fig. 13's third system).
    pub fn legacy_accl_tcp(nodes: usize) -> Self {
        ClusterConfig {
            cclo: CcloConfig::legacy_accl(),
            ..Self::xrt_tcp(nodes)
        }
    }

    /// Checks platform/transport compatibility.
    pub fn validate(&self) {
        assert!(self.nodes >= 1, "cluster needs at least one node");
        if self.transport == Transport::Rdma {
            assert_eq!(
                self.platform,
                Platform::Coyote,
                "RDMA requires the Coyote platform (paper §4.3)"
            );
        }
        if self.tcp_fallback {
            assert_eq!(
                self.transport,
                Transport::Rdma,
                "the TCP fallback backs an RDMA primary"
            );
        }
    }

    /// Host-side CCLO invocation latency (Fig. 8): a PCIe write + read on
    /// Coyote's thin driver vs. XRT's heavyweight ioctl path.
    pub fn invocation_latency(&self) -> Dur {
        match self.platform {
            Platform::Coyote => Dur::from_us_f64(3.0),
            Platform::Xrt => Dur::from_us_f64(120.0),
        }
    }

    /// XDMA staging setup cost per copy (XRT buffer migration).
    pub fn xdma_setup_us(&self) -> u64 {
        30
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_consistent() {
        ClusterConfig::coyote_rdma(8).validate();
        ClusterConfig::xrt_tcp(8).validate();
        ClusterConfig::xrt_udp(4).validate();
        let legacy = ClusterConfig::legacy_accl_tcp(4);
        legacy.validate();
        assert!(legacy.cclo.legacy_uc.is_some());
    }

    #[test]
    #[should_panic(expected = "RDMA requires the Coyote platform")]
    fn xrt_rdma_is_rejected() {
        let cfg = ClusterConfig {
            platform: Platform::Xrt,
            ..ClusterConfig::coyote_rdma(2)
        };
        cfg.validate();
    }

    #[test]
    fn invocation_latency_ordering_matches_fig8() {
        let coyote = ClusterConfig::coyote_rdma(2).invocation_latency();
        let xrt = ClusterConfig::xrt_tcp(2).invocation_latency();
        assert!(coyote < xrt);
        assert!(coyote.as_us_f64() < 10.0);
        assert!(xrt.as_us_f64() > 50.0);
    }
}
