//! FPGA kernel processes: streaming collective clients (Listing 2).
//!
//! A [`KernelProc`] models an HLS kernel wired directly to the CCLO: it
//! issues commands over the hardware command interface (no host invocation
//! latency), pushes data into the engine's stream-in port at datapath rate,
//! and consumes stream-out chunks. Ops sequence like the Listing 2 flow:
//! `cclo.send(...)`, `data.push(...)` loop, `cclo.finalize()`.

use std::collections::VecDeque;

use bytes::Bytes;

use accl_cclo::command::{CcloCommand, CcloDone, DataLoc};
use accl_cclo::dmp::KernelPush;
use accl_cclo::rbm::RbmStream;
use accl_sim::prelude::*;

use crate::driver::CollSpec;

/// One step of a kernel program.
#[derive(Debug, Clone)]
pub enum KernelOp {
    /// Issue a collective command to the CCLO without waiting (streaming
    /// calls must push their data afterwards).
    Issue(CollSpec),
    /// Push bytes into the CCLO stream-in interface, paced at the kernel's
    /// production rate.
    Push(Bytes),
    /// Wait until all issued commands have completed (`cclo.finalize()`).
    Finalize,
    /// Wait until at least `len` cumulative bytes have arrived on the
    /// stream-out interface (across all messages so far).
    Expect(u64),
    /// Busy the kernel for a fixed duration (modelled pipeline work).
    Compute(Dur),
}

/// Ports of the [`KernelProc`] component.
pub mod ports {
    use accl_sim::event::PortId;

    /// Program start trigger.
    pub const START: PortId = PortId(0);
    /// CCLO completions.
    pub const CCLO_DONE: PortId = PortId(1);
    /// Stream-out chunks from the CCLO.
    pub const STREAM_RX: PortId = PortId(2);
    /// Compute-delay expiry.
    pub const TIMER: PortId = PortId(3);
}

/// A simulated FPGA application kernel attached to one CCLO.
pub struct KernelProc {
    cclo_cmd: Endpoint,
    cclo_stream_in: Endpoint,
    /// Kernel data production rate (64 B/cycle at the engine clock).
    push_rate: Pipe,
    ops: VecDeque<KernelOp>,
    outstanding: u32,
    /// Per-message receive buffers in ticket (arrival-stream) order.
    received_msgs: Vec<(u64, Vec<u8>)>,
    /// Ticket → index into `received_msgs`.
    received_index: std::collections::BTreeMap<u64, usize>,
    received_bytes: u64,
    expect_target: Option<u64>,
    /// A `Compute` op is in progress; the op stream is blocked until its
    /// timer fires (completions arriving meanwhile must not advance it).
    computing: bool,
    running: bool,
    finished_at: Option<Time>,
    issued_ticket: u64,
    op_times: Vec<(usize, Time)>,
    index: usize,
}

impl KernelProc {
    /// Creates a kernel wired to the given CCLO endpoints.
    pub fn new(
        cclo_cmd: Endpoint,
        cclo_stream_in: Endpoint,
        clock_mhz: f64,
        ops: Vec<KernelOp>,
    ) -> Self {
        KernelProc {
            cclo_cmd,
            cclo_stream_in,
            push_rate: Pipe::bytes_per_sec(64.0 * clock_mhz * 1e6),
            ops: ops.into(),
            outstanding: 0,
            received_msgs: Vec::new(),
            received_index: std::collections::BTreeMap::new(),
            received_bytes: 0,
            expect_target: None,
            computing: false,
            running: false,
            finished_at: None,
            issued_ticket: 0,
            op_times: Vec::new(),
            index: 0,
        }
    }

    /// All received bytes, concatenated in message order.
    pub fn received(&self) -> Vec<u8> {
        self.received_msgs
            .iter()
            .flat_map(|(_, m)| m.iter().copied())
            .collect()
    }

    /// Per-message receive buffers, in arrival-stream order.
    pub fn received_msgs(&self) -> Vec<&[u8]> {
        self.received_msgs
            .iter()
            .map(|(_, m)| m.as_slice())
            .collect()
    }

    /// When the program finished, if it did.
    pub fn finished_at(&self) -> Option<Time> {
        self.finished_at
    }

    /// `(op index, completion time)` pairs.
    pub fn op_times(&self) -> &[(usize, Time)] {
        &self.op_times
    }

    fn advance(&mut self, ctx: &mut Ctx<'_>) {
        if self.computing {
            return; // blocked until the Compute timer fires
        }
        loop {
            let Some(op) = self.ops.front().cloned() else {
                if !self.running {
                    return;
                }
                self.running = false;
                self.finished_at = Some(ctx.now());
                return;
            };
            match op {
                KernelOp::Issue(spec) => {
                    let ticket = self.issued_ticket;
                    self.issued_ticket += 1;
                    self.outstanding += 1;
                    let cmd = CcloCommand {
                        op: spec.op,
                        count: spec.count,
                        dtype: spec.dtype,
                        root: spec.root,
                        tag: spec.tag,
                        comm: spec.comm,
                        func: spec.func,
                        src: spec.src.map_or(DataLoc::Stream, |b| b.data_loc()),
                        dst: spec.dst.map_or(DataLoc::Stream, |b| b.data_loc()),
                        sync: spec.sync,
                        reply_to: Endpoint::new(ctx.self_id(), ports::CCLO_DONE),
                        ticket,
                        // Kernel calls bypass the host driver, so the
                        // engine's `uc.call` span is the trace root.
                        span: accl_sim::trace::SpanId::NONE,
                    };
                    // One engine-interface hop: a couple of cycles.
                    ctx.send(self.cclo_cmd, Dur::from_ns(8), cmd);
                    self.done_op(ctx);
                }
                KernelOp::Push(data) => {
                    // Pace the push at the kernel's production rate.
                    let (_, end) = self.push_rate.reserve(ctx.now(), data.len() as u64);
                    ctx.send_at(self.cclo_stream_in, end, KernelPush { data });
                    self.done_op(ctx);
                }
                KernelOp::Finalize => {
                    if self.outstanding > 0 {
                        return; // resumed by CCLO_DONE
                    }
                    self.done_op(ctx);
                }
                KernelOp::Expect(len) => {
                    if self.received_bytes < len {
                        self.expect_target = Some(len);
                        return; // resumed by STREAM_RX
                    }
                    self.expect_target = None;
                    self.done_op(ctx);
                }
                KernelOp::Compute(d) => {
                    self.ops.pop_front();
                    self.index += 1;
                    self.computing = true;
                    ctx.send_self(ports::TIMER, d, ());
                    return;
                }
            }
        }
    }

    fn done_op(&mut self, ctx: &mut Ctx<'_>) {
        self.ops.pop_front();
        self.op_times.push((self.index, ctx.now()));
        self.index += 1;
    }
}

impl Component for KernelProc {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, port: PortId, payload: Payload) {
        match port {
            ports::START => {
                payload.downcast::<()>();
                assert!(!self.running, "kernel program started twice");
                self.running = true;
                self.advance(ctx);
            }
            ports::CCLO_DONE => {
                payload.downcast::<CcloDone>();
                assert!(self.outstanding > 0, "unexpected CCLO completion");
                self.outstanding -= 1;
                if self.running {
                    self.advance(ctx);
                }
            }
            ports::STREAM_RX => {
                let chunk = payload.downcast::<RbmStream>();
                let idx = *self.received_index.entry(chunk.ticket).or_insert_with(|| {
                    self.received_msgs.push((chunk.ticket, Vec::new()));
                    self.received_msgs.len() - 1
                });
                let msg = &mut self.received_msgs[idx].1;
                let off = chunk.offset as usize;
                let end = off + chunk.data.len();
                if msg.len() < end {
                    msg.resize(end, 0);
                }
                msg[off..end].copy_from_slice(&chunk.data);
                self.received_bytes += chunk.data.len() as u64;
                if let Some(target) = self.expect_target {
                    if self.received_bytes >= target && self.running {
                        self.expect_target = None;
                        self.done_op(ctx);
                        self.advance(ctx);
                    }
                }
            }
            ports::TIMER => {
                payload.downcast::<()>();
                debug_assert!(self.computing, "stray kernel compute timer");
                self.computing = false;
                self.op_times.push((self.index - 1, ctx.now()));
                if self.running {
                    self.advance(ctx);
                }
            }
            other => panic!("kernel has no port {other:?}"),
        }
    }

    fn state_digest(&self) -> Option<u64> {
        // Stream position, op progress, and a content checksum of every
        // received message keyed by ticket (BTreeMap order is canonical).
        let mut h = 0u64;
        let mut fold = |v: u64| accl_sim::digest::fnv_fold(&mut h, &v.to_le_bytes());
        for v in [
            self.index as u64,
            u64::from(self.outstanding),
            self.received_bytes,
            self.issued_ticket,
            u64::from(self.running),
            self.finished_at.map_or(0, |t| t.as_ps()),
        ] {
            fold(v);
        }
        for (ticket, &idx) in &self.received_index {
            let mut m = 0u64;
            accl_sim::digest::fnv_fold(&mut m, &ticket.to_le_bytes());
            accl_sim::digest::fnv_fold(&mut m, &self.received_msgs[idx].1);
            h = h.wrapping_add(m);
        }
        Some(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accl_cclo::command::CmdStatus;

    use crate::{CollOp, DType};

    /// Stands in for the engine's command and stream-in ports: logs each
    /// command's ticket and arrival time.
    #[derive(Default)]
    struct CmdLog(Vec<(u64, Time)>);

    impl Component for CmdLog {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, _port: PortId, payload: Payload) {
            self.0
                .push((payload.downcast::<CcloCommand>().ticket, ctx.now()));
        }
    }

    #[test]
    fn streamed_receives_resume_each_expect_when_its_bytes_arrive() {
        let mut sim = Simulator::new(1);
        let cclo = sim.add("cclo", CmdLog::default());
        let recv = |bytes: u64| {
            KernelOp::Issue(CollSpec::new(CollOp::Recv, bytes / 4, DType::I32).root(1))
        };
        // Three receives issued back to back, then one cumulative Expect
        // per message and a single Finalize at the end.
        let ops = vec![
            recv(100),
            recv(200),
            recv(300),
            KernelOp::Expect(100),
            KernelOp::Expect(300),
            KernelOp::Expect(600),
            KernelOp::Finalize,
        ];
        let kernel = sim.add(
            "kernel",
            KernelProc::new(
                Endpoint::new(cclo, PortId(0)),
                Endpoint::new(cclo, PortId(1)),
                250.0,
                ops,
            ),
        );
        sim.post(Endpoint::new(kernel, ports::START), Time::ZERO, ());
        let msgs: Vec<Vec<u8>> = [100usize, 200, 300]
            .iter()
            .enumerate()
            .map(|(t, &len)| (0..len).map(|i| (i * 7 + t) as u8).collect())
            .collect();
        // (ticket, offset, length, arrival µs): message 2 arrives in two
        // chunks, so its Expect must wait for the second.
        let chunks = [
            (0, 0, 64, 1),
            (0, 64, 36, 2),
            (1, 0, 200, 5),
            (2, 0, 150, 7),
            (2, 150, 150, 9),
        ];
        for (ticket, offset, len, at) in chunks {
            let chunk = RbmStream {
                ticket,
                offset: offset as u64,
                data: Bytes::copy_from_slice(&msgs[ticket as usize][offset..offset + len]),
                last: offset + len == msgs[ticket as usize].len(),
            };
            sim.post(
                Endpoint::new(kernel, ports::STREAM_RX),
                Time::from_us(at),
                chunk,
            );
        }
        for ticket in 0..3 {
            let done = CcloDone {
                ticket,
                op: CollOp::Recv,
                bytes: msgs[ticket as usize].len() as u64,
                status: CmdStatus::Ok,
            };
            sim.post(
                Endpoint::new(kernel, ports::CCLO_DONE),
                Time::from_us(10),
                done,
            );
        }
        sim.run();

        // Every receive reached the engine before any data arrived.
        let issued = &sim.component::<CmdLog>(cclo).0;
        assert_eq!(issued, &[0, 1, 2].map(|t| (t, Time::from_ns(8))));
        let k = sim.component::<KernelProc>(kernel);
        let at = |us| Time::from_us(us);
        assert_eq!(
            k.op_times(),
            &[
                (0, Time::ZERO),
                (1, Time::ZERO),
                (2, Time::ZERO),
                (3, at(2)),
                (4, at(5)),
                (5, at(9)),
                (6, at(10)),
            ]
        );
        assert_eq!(k.finished_at(), Some(at(10)));
        let got = k.received_msgs();
        let want: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
        assert_eq!(got, want, "messages in command order");
    }
}
