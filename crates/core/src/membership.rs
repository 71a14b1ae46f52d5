//! Self-healing membership: the event vocabulary and partition resolution.
//!
//! The cluster's failure handling is a pipeline of membership events: the
//! adaptive detector *suspects* a silent peer, silence past the confirm
//! deadline *confirms* the failure, survivors shrink the communicator, a
//! restarted node re-announces itself and is *readmitted* via
//! [`crate::comm::Communicator::expand`]. When a link schedule severs the
//! fabric into two subgraphs, both sides see the other as failed — a
//! symmetric accusation that must NOT be resolved as two independent
//! shrinks, or both halves would keep running "the" communicator
//! (split-brain). [`resolve_partition`] breaks the symmetry: the majority
//! side keeps the communicator (ties go to the side holding the
//! lowest-numbered member), the minority fails fast with
//! [`CclError::Partitioned`] and waits for the partition to heal.
//!
//! Partitions are described by the same 64-bit node mask the network
//! fault layer uses (`accl_net::Partition`): bit `n & 63` gives node `n`'s
//! side, frames crossing the cut are dropped.

use crate::comm::Communicator;
use crate::error::CclError;

/// A membership transition observed by the cluster harness. The variants
/// follow the detect → suspect → confirm → restart → rejoin lifecycle and
/// are matched exhaustively everywhere (the lint's protocol-enum rule
/// forbids catch-all arms), so adding a state forces every consumer to
/// decide how to handle it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MembershipEvent {
    /// The adaptive detector's suspect deadline passed for a peer: soft
    /// suspicion, recoverable, no action beyond bookkeeping.
    Suspected {
        /// The suspected node's index.
        node: usize,
    },
    /// The confirm deadline passed (or the transport declared the session
    /// dead): the peer is treated as failed, its incarnation is fenced at
    /// the nodes that know it, and shrink excludes it.
    Confirmed {
        /// The failed node's index.
        node: usize,
    },
    /// A crashed node's restart instant passed: the fabric carries its
    /// traffic again and survivors fence its old epoch. It stays down,
    /// and out of every communicator, until readmitted (rebooted). A
    /// partition's minority side logs it when it is readmitted, since it
    /// too leaves by that fence and returns rebooted.
    Restarted {
        /// The restarted node's index.
        node: usize,
    },
    /// A restarted node was readmitted into a communicator via expand.
    Rejoined {
        /// The rejoined node's index.
        node: usize,
    },
    /// Symmetric accusations matched a partition cut: the fabric is split
    /// along `mask` (bit `n & 63` = node `n`'s side).
    Partitioned {
        /// The cut's node mask.
        mask: u64,
    },
    /// A previously detected partition healed; minority members may now
    /// rejoin via expand.
    Healed {
        /// The healed cut's node mask.
        mask: u64,
    },
}

impl MembershipEvent {
    /// Stable label for stats/trace keys.
    pub fn label(&self) -> &'static str {
        match self {
            MembershipEvent::Suspected { .. } => "suspected",
            MembershipEvent::Confirmed { .. } => "confirmed",
            MembershipEvent::Restarted { .. } => "restarted",
            MembershipEvent::Rejoined { .. } => "rejoined",
            MembershipEvent::Partitioned { .. } => "partitioned",
            MembershipEvent::Healed { .. } => "healed",
        }
    }

    /// Whether the event is part of the recovery half of the lifecycle
    /// (the cluster is getting healthier, not sicker).
    pub fn is_recovery(&self) -> bool {
        match self {
            MembershipEvent::Suspected { .. }
            | MembershipEvent::Confirmed { .. }
            | MembershipEvent::Partitioned { .. } => false,
            MembershipEvent::Restarted { .. }
            | MembershipEvent::Rejoined { .. }
            | MembershipEvent::Healed { .. } => true,
        }
    }
}

impl core::fmt::Display for MembershipEvent {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MembershipEvent::Suspected { node } => write!(f, "node {node} suspected"),
            MembershipEvent::Confirmed { node } => write!(f, "node {node} confirmed failed"),
            MembershipEvent::Restarted { node } => write!(f, "node {node} restarted"),
            MembershipEvent::Rejoined { node } => write!(f, "node {node} rejoined"),
            MembershipEvent::Partitioned { mask } => {
                write!(f, "network partitioned (mask {mask:#x})")
            }
            MembershipEvent::Healed { mask } => {
                write!(f, "partition healed (mask {mask:#x})")
            }
        }
    }
}

/// Which side of a partition `mask` a node is on (`false`/`true` are the
/// two subgraphs; same convention as `accl_net::Partition::severs`).
pub fn partition_side(mask: u64, node: usize) -> bool {
    (mask >> (node as u64 & 63)) & 1 == 1
}

/// Splits a communicator's members into the two sides of a partition
/// `mask`, preserving rank order within each side.
pub fn partition_sides(comm: &Communicator, mask: u64) -> (Vec<usize>, Vec<usize>) {
    let mut zero = Vec::new();
    let mut one = Vec::new();
    for &m in comm.members() {
        if partition_side(mask, m) {
            one.push(m);
        } else {
            zero.push(m);
        }
    }
    (zero, one)
}

/// Resolves a partition of `comm` consistently on every member: the
/// majority side shrinks to the survivors **keeping the communicator id**
/// (so its collectives continue under the same handle), the minority side
/// gets [`CclError::Partitioned`] and must wait for the heal. A tie is
/// broken deterministically in favour of the side holding the communicator's
/// lowest-numbered member, so every node — computing this locally from the
/// same accusations — reaches the same verdict.
///
/// # Errors
///
/// [`CclError::Partitioned`] when `my_node` is on the losing side;
/// [`CclError::InvalidGroup`] when `my_node` is not a member or the mask
/// does not actually split the communicator.
pub fn resolve_partition(
    comm: &Communicator,
    my_node: usize,
    mask: u64,
) -> Result<Communicator, CclError> {
    if !comm.contains(my_node) {
        return Err(CclError::InvalidGroup);
    }
    let (zero, one) = partition_sides(comm, mask);
    if zero.is_empty() || one.is_empty() {
        // The cut does not sever this communicator: nothing to resolve.
        return Err(CclError::InvalidGroup);
    }
    let lowest = *comm.members().iter().min().expect("non-empty communicator");
    let zero_wins = match zero.len().cmp(&one.len()) {
        core::cmp::Ordering::Greater => true,
        core::cmp::Ordering::Less => false,
        core::cmp::Ordering::Equal => !partition_side(mask, lowest),
    };
    let my_side_wins = zero_wins != partition_side(mask, my_node);
    if !my_side_wins {
        return Err(CclError::Partitioned);
    }
    let losers: Vec<usize> = if zero_wins { one } else { zero };
    comm.shrink(comm.id(), &losers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn majority_side_keeps_the_communicator() {
        let w = Communicator::world(4);
        // Mask 0b0001: node 0 alone vs nodes 1-3.
        let kept = resolve_partition(&w, 2, 0b0001).unwrap();
        assert_eq!(kept.id(), 0, "majority keeps the communicator id");
        assert_eq!(kept.members(), &[1, 2, 3]);
        assert_eq!(resolve_partition(&w, 0, 0b0001), Err(CclError::Partitioned));
    }

    #[test]
    fn ties_break_toward_the_lowest_member() {
        let w = Communicator::world(4);
        // 2 vs 2: the side holding node 0 wins.
        let mask = 0b1100;
        let kept = resolve_partition(&w, 1, mask).unwrap();
        assert_eq!(kept.members(), &[0, 1]);
        assert_eq!(resolve_partition(&w, 2, mask), Err(CclError::Partitioned));
        assert_eq!(resolve_partition(&w, 3, mask), Err(CclError::Partitioned));
    }

    #[test]
    fn every_member_reaches_the_same_verdict() {
        let w = Communicator::world(6);
        // Odd nodes on side one: a 3 vs 3 tie, broken toward the side
        // holding the lowest member (node 0), i.e. the even nodes.
        let mask = 0b101010;
        let mut kept_by: Vec<usize> = Vec::new();
        for &m in w.members() {
            match resolve_partition(&w, m, mask) {
                Ok(c) => {
                    assert_eq!(c.members(), &[0, 2, 4]);
                    kept_by.push(m);
                }
                Err(e) => assert_eq!(e, CclError::Partitioned),
            }
        }
        assert_eq!(kept_by, vec![0, 2, 4]);
    }

    #[test]
    fn non_severing_masks_are_rejected() {
        let w = Communicator::world(3);
        assert_eq!(resolve_partition(&w, 0, 0), Err(CclError::InvalidGroup));
        assert_eq!(resolve_partition(&w, 0, 0b111), Err(CclError::InvalidGroup));
        assert_eq!(resolve_partition(&w, 9, 0b1), Err(CclError::InvalidGroup));
    }

    #[test]
    fn event_labels_and_recovery_split() {
        let down = [
            MembershipEvent::Suspected { node: 1 },
            MembershipEvent::Confirmed { node: 1 },
            MembershipEvent::Partitioned { mask: 2 },
        ];
        let up = [
            MembershipEvent::Restarted { node: 1 },
            MembershipEvent::Rejoined { node: 1 },
            MembershipEvent::Healed { mask: 2 },
        ];
        for e in down {
            assert!(!e.is_recovery(), "{e}");
        }
        for e in up {
            assert!(e.is_recovery(), "{e}");
        }
        assert_eq!(MembershipEvent::Rejoined { node: 3 }.label(), "rejoined");
    }
}
