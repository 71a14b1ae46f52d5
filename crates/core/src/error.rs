//! Typed collective errors and the driver's retry policy.
//!
//! ACCL+'s fail-stop fault model surfaces at the driver API: instead of a
//! silent hang (the classic failure mode of hardware collectives), a call
//! that cannot complete finishes with a [`CclError`] describing *why*. The
//! driver can optionally mask transient faults by retrying eager
//! collectives under an exponential-backoff [`RetryPolicy`]; unrecoverable
//! failures are reported to the application, which can rebuild a smaller
//! communicator with [`crate::comm::Communicator::shrink`] and continue —
//! the ULFM recovery workflow.

use accl_sim::time::Dur;

/// Why a collective call failed.
///
/// Carried in [`crate::driver::DriverDone::result`]; a call either
/// completes with `Ok(())` and a valid phase breakdown, or with one of
/// these. On error the output buffers are undefined and the driver skips
/// the device→host staging phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CclError {
    /// The engine's collective watchdog saw no progress for its window and
    /// aborted the call locally (remote rank slow, crashed, or the link is
    /// out); no transport-level failure was diagnosed.
    Timeout,
    /// The transport declared the session to this peer dead (TCP
    /// retransmission limit, RDMA queue-pair error). The rank is the
    /// peer's node index, i.e. its rank in the world communicator.
    PeerFailed(u32),
    /// The call was aborted after exhausting its retry budget: every
    /// attempt allowed by the [`RetryPolicy`] timed out.
    Aborted,
    /// The call targeted a communicator this node is not a member of.
    InvalidCommunicator(u32),
    /// The call failed with in-flight payload corruption observed at this
    /// node's transport: an unreliable engine discarded corrupted frames
    /// it cannot retransmit, so the message can never complete. Reliable
    /// transports repair corruption silently and never report this.
    DataCorrupted,
    /// The engine (or the driver's own submission queue) was full and the
    /// call was turned away after exhausting its busy-retry budget. No
    /// collective work was started; the call is safe to resubmit later.
    Busy,
    /// The call was aborted while a bounded engine resource (the eager Rx
    /// buffer pool) was exhausted: the cluster is overloaded rather than
    /// partitioned or crashed. Shed load or raise the pool size.
    ResourceExhausted,
    /// This node is on the minority side of a network partition: the
    /// majority side keeps the communicator and continues, the minority
    /// fails fast so split-brain collectives cannot both "succeed". The
    /// node should wait for the partition to heal and rejoin via
    /// [`crate::comm::Communicator::expand`].
    Partitioned,
    /// A membership operation would produce an invalid group: a
    /// [`crate::comm::Communicator::shrink`] leaving no members, or a
    /// [`crate::comm::Communicator::expand`] readmitting a node that is
    /// already a member. Recoverable — re-resolve membership and retry.
    InvalidGroup,
    /// This node crashed (fail-stop) before the call completed. The node
    /// runs nothing until it is readmitted, which reboots it.
    Crashed,
}

impl core::fmt::Display for CclError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CclError::Timeout => write!(f, "collective timed out (no progress)"),
            CclError::PeerFailed(r) => write!(f, "peer rank {r} failed"),
            CclError::Aborted => write!(f, "collective aborted after exhausting retries"),
            CclError::InvalidCommunicator(c) => {
                write!(f, "node is not a member of communicator {c}")
            }
            CclError::DataCorrupted => {
                write!(
                    f,
                    "payload corrupted in flight (unrecoverable on this transport)"
                )
            }
            CclError::Busy => {
                write!(f, "engine busy: admission rejected after busy-retry budget")
            }
            CclError::ResourceExhausted => {
                write!(f, "bounded engine resource exhausted (overload)")
            }
            CclError::Partitioned => {
                write!(f, "node is on the minority side of a network partition")
            }
            CclError::InvalidGroup => {
                write!(f, "membership operation produced an invalid group")
            }
            CclError::Crashed => write!(f, "this node crashed before the call completed"),
        }
    }
}

impl std::error::Error for CclError {}

/// Retry policy for failed collective calls (driver-side fault masking).
///
/// Only *eager* calls are retried: an eager collective holds no
/// distributed rendezvous state, so resubmitting the command is safe —
/// every rank that timed out re-runs the schedule, and leftover messages
/// from the aborted attempt were purged from the Rx buffer pool by the
/// engine's abort path. Rendezvous calls fail immediately.
///
/// The default policy performs no retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first; `1` disables retries.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles on each further retry.
    pub backoff_base: Dur,
    /// Upper bound on the per-retry backoff.
    pub backoff_max: Dur,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff_base: Dur::from_us(50),
            backoff_max: Dur::from_ms(5),
        }
    }
}

impl RetryPolicy {
    /// No retries (the default).
    pub fn none() -> Self {
        Self::default()
    }

    /// Up to `retries` retries with the default backoff parameters.
    pub fn retries(retries: u32) -> Self {
        RetryPolicy {
            max_attempts: retries + 1,
            ..Self::default()
        }
    }

    /// Backoff before retry number `retry` (0-based): exponential,
    /// `base * 2^retry`, capped at [`RetryPolicy::backoff_max`].
    pub fn backoff(&self, retry: u32) -> Dur {
        let base = self.backoff_base.as_ps();
        let ps = base.checked_shl(retry).unwrap_or(u64::MAX).max(base);
        Dur::from_ps(ps).min(self.backoff_max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_attempts: 8,
            backoff_base: Dur::from_us(10),
            backoff_max: Dur::from_us(100),
        };
        assert_eq!(p.backoff(0), Dur::from_us(10));
        assert_eq!(p.backoff(1), Dur::from_us(20));
        assert_eq!(p.backoff(2), Dur::from_us(40));
        assert_eq!(p.backoff(3), Dur::from_us(80));
        assert_eq!(p.backoff(4), Dur::from_us(100));
        // Pathological shift counts saturate instead of wrapping.
        assert_eq!(p.backoff(200), Dur::from_us(100));
    }

    #[test]
    fn default_policy_never_retries() {
        let p = RetryPolicy::default();
        assert_eq!(p.max_attempts, 1);
        assert_eq!(RetryPolicy::retries(3).max_attempts, 4);
    }

    #[test]
    fn errors_display() {
        assert_eq!(CclError::PeerFailed(2).to_string(), "peer rank 2 failed");
        assert!(CclError::InvalidCommunicator(7).to_string().contains('7'));
    }
}
