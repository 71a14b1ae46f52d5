//! The software-MPI baseline cluster: CPU nodes + commodity NICs.

use accl_net::{NetConfig, Network, NodeAddr};
use accl_sim::prelude::*;

use crate::nic::{ports as nic_ports, SwNic};
use crate::process::{ports as proc_ports, MpiOp, MpiProcess, MpiRecord};
use crate::tuning::MpiConfig;

/// A cluster of software MPI ranks.
pub struct MpiCluster {
    /// The simulator.
    pub sim: Simulator,
    cfg: MpiConfig,
    net: Network,
    nics: Vec<ComponentId>,
    procs: Vec<Option<ComponentId>>,
}

fn identity_addr(i: u32) -> NodeAddr {
    NodeAddr(i)
}

impl MpiCluster {
    /// Builds an `n`-rank cluster with the given MPI cost model.
    pub fn build(n: usize, cfg: MpiConfig, seed: u64) -> MpiCluster {
        let mut sim = Simulator::new(seed);
        let net = Network::build(&mut sim, NetConfig::default(), n);
        let nics = (0..n)
            .map(|i| sim.reserve(format!("mpi{i}.nic")))
            .collect::<Vec<_>>();
        for (i, &nic) in nics.iter().enumerate() {
            net.attach_rx(&mut sim, i, Endpoint::new(nic, nic_ports::NET_RX));
        }
        MpiCluster {
            sim,
            cfg,
            net,
            nics,
            procs: vec![None; n],
        }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.nics.len()
    }

    /// Whether the cluster is empty.
    pub fn is_empty(&self) -> bool {
        self.nics.is_empty()
    }

    /// Runs one program per rank to completion; returns per-rank records.
    ///
    /// May be called repeatedly; each call installs fresh rank processes.
    pub fn run_programs(&mut self, programs: Vec<Vec<MpiOp>>) -> Vec<Vec<MpiRecord>> {
        assert_eq!(programs.len(), self.len(), "one program per rank");
        let n = self.len();
        let start = self.sim.now();
        let procs: Vec<ComponentId> = programs
            .into_iter()
            .enumerate()
            .map(|(i, prog)| {
                let proc = self.sim.add(
                    format!("mpi{i}.proc.{}", start.as_ps()),
                    MpiProcess::new(
                        self.cfg,
                        i as u32,
                        n as u32,
                        Endpoint::new(self.nics[i], nic_ports::TX),
                        prog,
                    ),
                );
                // (Re)wire the NIC delivery path to the new process.
                let nic = SwNic::new(
                    i as u32,
                    self.net.tx(i),
                    Endpoint::new(proc, proc_ports::NIC_RX),
                    identity_addr,
                    self.cfg.nic_gbps,
                    Dur::from_ns(self.cfg.nic_base_latency_ns),
                    self.cfg.mtu,
                );
                if self.procs[i].is_none() {
                    self.sim.install(self.nics[i], nic);
                } else {
                    *self.sim.component_mut::<SwNic>(self.nics[i]) = nic;
                }
                self.procs[i] = Some(proc);
                self.sim
                    .post(Endpoint::new(proc, proc_ports::START), start, ());
                proc
            })
            .collect();
        let outcome = self.sim.run();
        assert_eq!(outcome, RunOutcome::Drained, "MPI simulation stalled");
        procs
            .iter()
            .map(|&p| {
                let proc = self.sim.component::<MpiProcess>(p);
                assert!(
                    proc.finished_at().is_some(),
                    "an MPI rank did not finish (deadlock?)"
                );
                proc.records().to_vec()
            })
            .collect()
    }

    /// Runs a single collective on every rank; returns per-rank latency.
    pub fn collective(&mut self, calls: Vec<crate::process::MpiCall>) -> Vec<Dur> {
        let programs = calls.into_iter().map(|c| vec![MpiOp::Coll(c)]).collect();
        self.run_programs(programs)
            .into_iter()
            .map(|r| r[0].finished.since(r[0].started))
            .collect()
    }

    /// The output buffer of rank `i` after the last run.
    pub fn dst(&self, i: usize) -> &[u8] {
        let p = self.procs[i].expect("rank has not run yet");
        self.sim.component::<MpiProcess>(p).dst()
    }
}
