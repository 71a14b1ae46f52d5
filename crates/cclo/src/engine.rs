//! Per-node assembly of the CCLO engine.
//!
//! Instantiates and wires the control plane (uC) and data plane (DMP, RBM,
//! Tx/Rx systems) of one CCLO, and exposes the endpoints the outside world
//! needs: the command port (host driver or FPGA kernels), the kernel data
//! stream, and the POE-facing upward interface. The platform layer
//! (`accl-core`) builds one engine per FPGA next to its POE and memory bus.

use std::sync::Arc;

use accl_mem::MemAddr;
use accl_poe::iface::PoeUpward;
use accl_sim::prelude::*;

use crate::command::CollOp;
use crate::config::{AlgoConfig, CcloConfig, CommunicatorCfg};
use crate::dmp::{ports as dmp_ports, Dmp};
use crate::firmware::{CollectiveProgram, FirmwareTable};
use crate::rbm::{ports as rbm_ports, Rbm};
use crate::rxsys::{ports as rx_ports, RxSys};
use crate::txsys::{ports as tx_ports, TxFallback, TxSys};
use crate::uc::{ports as uc_ports, TransportFailover, Uc};

/// Construction parameters for one CCLO engine.
pub struct CcloEngineSpec {
    /// Engine configuration.
    pub cfg: CcloConfig,
    /// The node's memory bus.
    pub mem_bus: ComponentId,
    /// The node's POE component (its `TX_CMD`/`TX_DATA` ports are driven).
    pub poe: ComponentId,
    /// Whether that POE supports rendezvous (RDMA).
    pub rendezvous_capable: bool,
    /// Whether the POE is reliable (TCP/RDMA): eager collectives may then
    /// use advanced algorithms; unreliable UDP sticks to simple patterns
    /// that minimize loss exposure (§4.4.4).
    pub reliable: bool,
    /// Base address of the engine's scratch region.
    pub scratch_mem: MemAddr,
}

/// Handles to one assembled CCLO engine.
pub struct CcloEngine {
    /// The embedded controller.
    pub uc: ComponentId,
    /// The data-movement processor.
    pub dmp: ComponentId,
    /// The Rx buffer manager.
    pub rbm: ComponentId,
    /// The Tx system.
    pub txsys: ComponentId,
    /// The Rx system.
    pub rxsys: ComponentId,
}

impl CcloEngine {
    /// Builds and wires the engine into `sim`.
    pub fn build(sim: &mut Simulator, prefix: &str, spec: &CcloEngineSpec) -> CcloEngine {
        let engine = CcloEngine::reserve(sim, prefix);
        engine.install(sim, prefix, spec);
        engine
    }

    /// Reserves the engine's component ids, named under `prefix`.
    pub fn reserve(sim: &mut Simulator, prefix: &str) -> CcloEngine {
        CcloEngine {
            uc: sim.reserve(format!("{prefix}.uc")),
            dmp: sim.reserve(format!("{prefix}.dmp")),
            rbm: sim.reserve(format!("{prefix}.rbm")),
            txsys: sim.reserve(format!("{prefix}.txsys")),
            rxsys: sim.reserve(format!("{prefix}.rxsys")),
        }
    }

    /// Builds the engine's components and installs them under its ids:
    /// at assembly, and again as fresh instances when the node reboots.
    pub fn install(&self, sim: &mut Simulator, prefix: &str, spec: &CcloEngineSpec) {
        let (uc, dmp, rbm, txsys, rxsys) = (self.uc, self.dmp, self.rbm, self.txsys, self.rxsys);
        // Resource labels are scoped by node ("n0.cclo" -> "n0") so stall
        // reports and the deadlock detector name the owning node.
        let scope = prefix.split('.').next().unwrap_or(prefix);
        let mut uc_comp = Uc::new(
            spec.cfg,
            FirmwareTable::stock(),
            dmp,
            txsys,
            spec.rendezvous_capable,
            spec.reliable,
            spec.scratch_mem,
        );
        uc_comp.set_rbm(rbm);
        uc_comp.set_resource_label(format!("cclo.jobq({scope})"));
        sim.install(uc, uc_comp);
        sim.install(
            dmp,
            Dmp::new(
                spec.cfg,
                spec.mem_bus,
                rbm,
                txsys,
                Endpoint::new(uc, uc_ports::DMP_DONE),
            ),
        );
        let mut rbm_comp = Rbm::new(spec.cfg);
        rbm_comp.set_resource_label(format!("cclo.rxbuf({scope})"));
        if spec.cfg.notify_rx_exhaustion {
            rbm_comp.set_exhaustion_notify(Endpoint::new(uc, uc_ports::NOTIF));
        }
        sim.install(rbm, rbm_comp);
        sim.install(
            txsys,
            TxSys::new(
                Endpoint::new(spec.poe, accl_poe::ports::TX_CMD),
                Endpoint::new(spec.poe, accl_poe::ports::TX_DATA),
                Endpoint::new(dmp, dmp_ports::TX_DONE),
                spec.cfg.cycles(4),
            ),
        );
        sim.install(
            rxsys,
            RxSys::new(
                Endpoint::new(rbm, rbm_ports::META),
                Endpoint::new(rbm, rbm_ports::DATA),
                Endpoint::new(uc, uc_ports::NOTIF),
                spec.cfg.cycles(4),
            ),
        );
    }

    /// The endpoint commands are submitted to (host driver or kernels).
    pub fn cmd(&self) -> Endpoint {
        Endpoint::new(self.uc, uc_ports::CMD)
    }

    /// The endpoint kernels push stream data to (Listing 2's `data.push`).
    pub fn stream_in(&self) -> Endpoint {
        Endpoint::new(self.dmp, dmp_ports::STREAM_IN)
    }

    /// The upward interface handed to the POE at its construction.
    pub fn poe_upward(&self) -> PoeUpward {
        PoeUpward {
            rx_meta: Endpoint::new(self.rxsys, rx_ports::POE_META),
            rx_data: Endpoint::new(self.rxsys, rx_ports::POE_DATA),
            tx_done: Endpoint::new(self.txsys, tx_ports::POE_DONE),
        }
    }

    /// Installs a communicator into the engine's configuration memory.
    pub fn set_communicator(&self, sim: &mut Simulator, id: u32, cfg: CommunicatorCfg) {
        sim.component_mut::<Uc>(self.uc).set_communicator(id, cfg);
    }

    /// Loads (or replaces) collective firmware at runtime.
    pub fn load_firmware(
        &self,
        sim: &mut Simulator,
        op: CollOp,
        program: Arc<dyn CollectiveProgram>,
    ) {
        sim.component_mut::<Uc>(self.uc).load_firmware(op, program);
    }

    /// Tunes the algorithm-selection thresholds at runtime (§4.4.4).
    pub fn set_algo_config(&self, sim: &mut Simulator, algo: AlgoConfig) {
        sim.component_mut::<Uc>(self.uc).set_algo_config(algo);
    }

    /// Routes kernel-stream output chunks to `ep` (streaming collectives).
    pub fn set_kernel_out(&self, sim: &mut Simulator, ep: Endpoint) {
        sim.component_mut::<Dmp>(self.dmp).set_kernel_out(ep);
    }

    /// Arms a standby POE for graceful degradation: after `threshold`
    /// session errors on the primary, the Tx system retargets its command
    /// and data streams to `tx_cmd`/`tx_data` and the uC downgrades its
    /// protocol selection to `profile` (e.g. no rendezvous over TCP).
    pub fn set_tx_fallback(
        &self,
        sim: &mut Simulator,
        tx_cmd: Endpoint,
        tx_data: Endpoint,
        profile: TransportFailover,
        threshold: u64,
    ) {
        sim.component_mut::<TxSys>(self.txsys)
            .set_fallback(TxFallback {
                tx_cmd,
                tx_data,
                notify: Endpoint::new(self.uc, uc_ports::FAILOVER),
                profile,
                threshold,
            });
    }
}
