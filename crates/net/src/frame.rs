//! Network frames and node addressing.

use core::any::Any;
use core::fmt;

use accl_sim::event::{Endpoint, Payload};
use accl_sim::trace::{FlowId, SpanId};

/// Ethernet + IP + transport header overhead modelled per frame, in bytes.
///
/// 14 B Ethernet + 4 B FCS + 20 B IPv4 + 8–20 B transport, rounded to the
/// value used by the 100 Gb/s hardware stacks ACCL+ builds on.
pub const WIRE_OVERHEAD_BYTES: u32 = 58;

/// Maximum transmission unit for frame payloads, in bytes.
///
/// The hardware POEs in the paper segment messages into network packets;
/// 4096 B matches the RoCE-style MTU used on the 100 Gb/s fabric.
pub const DEFAULT_MTU: u32 = 4096;

/// Identifies an endpoint attached to the switched fabric.
///
/// One address per physical port: each FPGA's 100 Gb/s MAC and each CPU's
/// commodity NIC get their own `NodeAddr`.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeAddr(pub u32);

impl NodeAddr {
    /// Raw port index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A network frame in flight.
///
/// The `body` is a typed protocol PDU (defined by the protocol engines in
/// `accl-poe`); the network only inspects `src`/`dst` for routing and
/// `payload_bytes` for timing. Keeping PDUs typed instead of serialized
/// keeps the simulation honest about timing while making protocol state
/// machines directly testable.
pub struct Frame {
    /// Source port address.
    pub src: NodeAddr,
    /// Destination port address.
    pub dst: NodeAddr,
    /// Payload size used for serialization timing (headers are added via
    /// [`WIRE_OVERHEAD_BYTES`]).
    pub payload_bytes: u32,
    /// The typed protocol PDU.
    pub body: Payload,
    /// Frame check sequence, computed once at TX over the frame's stable
    /// fields. The network never rewrites it (the sender's `src` stamp is
    /// deliberately excluded), so a fault-injected bit flip — modelled as
    /// an XOR of this field — survives to the receiving POE, which
    /// verifies [`Frame::fcs_ok`] and discards mismatches exactly like
    /// hardware MACs drop frames with a bad CRC.
    pub fcs: u32,
    /// Causal parent span: the sender's segment/transfer span, under which
    /// the network records its serialization, queueing and hop spans.
    /// [`SpanId::NONE`] when tracing is off.
    pub span: SpanId,
    /// Explicit cross-rank causal flow edge: the Tx POE emits a flow at
    /// segment creation ([`accl_sim::trace::FlowId`] via `Ctx::flow_begin`)
    /// and the Rx POE joins it into its receive span, making the Tx→Rx
    /// handoff a first-class DAG edge for critical-path analysis (and a
    /// Chrome `s`/`f` arrow in the Perfetto rendering). [`FlowId::NONE`] when
    /// tracing is off. Excluded from the FCS, like `src` and `span`.
    pub flow: FlowId,
    /// Flow-control credit accounting: when set, the sending
    /// [`crate::switch::NetPort`] posts a [`CreditReturn`] to this endpoint
    /// once the frame has fully serialized onto the uplink, returning the
    /// tx-window credit the frame consumed. `None` (the default) means the
    /// frame is not credit-accounted. Excluded from the FCS, like `src`.
    pub credit_return: Option<Endpoint>,
    /// Sender incarnation number, stamped by the NIC alongside `src`: 0
    /// for a node's first life, bumped each time the node reboots. The
    /// receiving POE fences frames whose epoch predates the sender's
    /// announced incarnation, so stale pre-crash traffic from an old
    /// incarnation can never leak into a rejoined session. Excluded from
    /// the FCS, like `src` (the NIC stamps it after the POE computes FCS).
    pub epoch: u32,
}

/// A returned tx-window credit, posted by the NIC to the endpoint a frame
/// carried in [`Frame::credit_return`] once that frame cleared the uplink.
#[derive(Debug, Clone, Copy)]
pub struct CreditReturn {
    /// Number of credits returned (one per credit-accounted frame event).
    pub credits: u32,
}

impl Frame {
    /// Creates a frame carrying `body` with a modelled payload of
    /// `payload_bytes`. PDU bodies must be `Clone` so fault injection can
    /// duplicate frames in flight.
    pub fn new<T: Any + Send + Clone>(
        src: NodeAddr,
        dst: NodeAddr,
        payload_bytes: u32,
        body: T,
    ) -> Self {
        Frame {
            src,
            dst,
            payload_bytes,
            body: Payload::cloneable(body),
            fcs: Frame::compute_fcs(dst, payload_bytes),
            span: SpanId::NONE,
            flow: FlowId::NONE,
            credit_return: None,
            epoch: 0,
        }
    }

    /// The FCS a pristine frame with these stable fields carries. `src` is
    /// excluded: the NIC re-stamps it after the POE builds the frame.
    pub fn compute_fcs(dst: NodeAddr, payload_bytes: u32) -> u32 {
        // FNV-1a over the stable header fields; any deterministic mix
        // works, the only requirement is that an XORed flip is detected.
        let mut h: u32 = 0x811c_9dc5;
        for word in [dst.0, payload_bytes] {
            for b in word.to_le_bytes() {
                h ^= b as u32;
                h = h.wrapping_mul(0x0100_0193);
            }
        }
        h
    }

    /// Whether the frame's FCS matches its contents (no in-flight
    /// corruption). POEs check this at RX before touching the PDU.
    pub fn fcs_ok(&self) -> bool {
        self.fcs == Frame::compute_fcs(self.dst, self.payload_bytes)
    }

    /// Models in-flight corruption: XORs `mask` into the FCS so the
    /// receiver's check fails. `mask` must be nonzero.
    pub fn corrupt(&mut self, mask: u32) {
        assert!(mask != 0, "corrupting with a zero mask is a no-op");
        self.fcs ^= mask;
    }

    /// Deep-copies the frame for fault-injected duplication, preserving
    /// header fields, FCS (a corrupted original duplicates as corrupted)
    /// and causal span.
    pub fn clone_wire(&self) -> Frame {
        Frame {
            src: self.src,
            dst: self.dst,
            payload_bytes: self.payload_bytes,
            body: self
                .body
                .try_clone()
                .expect("frame bodies are always cloneable (Frame::new requires Clone)"),
            fcs: self.fcs,
            span: self.span,
            flow: self.flow,
            credit_return: self.credit_return,
            epoch: self.epoch,
        }
    }

    /// Attaches the sender's causal span, handing causality across the
    /// wire to the network layers and the receiver.
    pub fn with_span(mut self, span: SpanId) -> Self {
        self.span = span;
        self
    }

    /// Attaches the Tx-side causal flow edge the receiving POE must join
    /// with `Ctx::flow_end`. Does not disturb the FCS.
    pub fn with_flow(mut self, flow: FlowId) -> Self {
        self.flow = flow;
        self
    }

    /// Marks the frame as credit-accounted: the NIC returns one credit to
    /// `ep` when the frame finishes serializing. Does not disturb the FCS.
    pub fn with_credit_return(mut self, ep: Endpoint) -> Self {
        self.credit_return = Some(ep);
        self
    }

    /// Total bytes this frame occupies on the wire, headers included.
    pub fn wire_bytes(&self) -> u32 {
        self.payload_bytes + WIRE_OVERHEAD_BYTES
    }
}

impl fmt::Debug for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Frame[{}->{} {}B {}]",
            self.src,
            self.dst,
            self.payload_bytes,
            self.body.type_name()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_bytes_include_overhead() {
        let f = Frame::new(NodeAddr(0), NodeAddr(1), 1000, ());
        assert_eq!(f.wire_bytes(), 1000 + WIRE_OVERHEAD_BYTES);
    }

    #[test]
    fn body_is_typed() {
        let f = Frame::new(NodeAddr(0), NodeAddr(1), 4, 7u32);
        assert_eq!(f.body.downcast::<u32>(), 7);
    }

    #[test]
    fn fcs_fresh_frames_verify_and_survive_restamps() {
        let mut f = Frame::new(NodeAddr(2), NodeAddr(5), 4096, 7u32);
        assert!(f.fcs_ok());
        // The NIC re-stamps src and epoch; FCS must not cover either.
        f.src = NodeAddr(3);
        f.epoch = 2;
        assert!(f.fcs_ok());
        assert_eq!(f.clone_wire().epoch, 2, "epoch survives duplication");
    }

    #[test]
    fn corruption_breaks_fcs_and_sticks_through_restamps() {
        let mut f = Frame::new(NodeAddr(0), NodeAddr(1), 64, 7u32);
        f.corrupt(0xdead_beef);
        assert!(!f.fcs_ok());
        // The NIC's src/epoch stamp must not launder the corruption.
        f.src = NodeAddr(3);
        f.epoch = 1;
        assert!(!f.fcs_ok(), "corruption must survive the src/epoch restamp");
    }

    #[test]
    fn clone_wire_duplicates_body_and_fcs() {
        let mut f = Frame::new(NodeAddr(0), NodeAddr(1), 64, 9u64);
        let dup = f.clone_wire();
        assert!(dup.fcs_ok());
        assert_eq!(dup.body.downcast::<u64>(), 9);
        // A corrupted original duplicates as corrupted.
        f.corrupt(1);
        let dup = f.clone_wire();
        assert!(!dup.fcs_ok());
    }
}
