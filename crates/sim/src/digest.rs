//! State-digest folding for [`crate::sim::Component::state_digest`].
//!
//! Every component that carries externally-meaningful state folds it into
//! a single `u64` with [`fnv_fold`]; the race detector's shadow runs and
//! the queue-kind replay gates compare these digests, so a digest must
//! cover exactly the state that two equivalent runs are required to agree
//! on — final logical totals and canonically-ordered (`BTreeMap`)
//! populations, never tie-order-dependent history.

/// The FNV-1a 64-bit offset basis: the initial state of [`fnv1a`].
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a 64-bit prime.
pub(crate) const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Plain FNV-1a: folds `bytes` into `hash`, which the caller seeds with
/// [`FNV_OFFSET`]. The one FNV implementation behind span ids, timeline
/// and critical-path digests, RNG stream labels and state digests.
#[inline]
pub fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// FNV-1a fold of `bytes` into a running state digest. A zero hash is
/// seeded with the FNV offset basis first, so `0` doubles as the empty
/// initializer.
pub fn fnv_fold(hash: &mut u64, bytes: &[u8]) {
    if *hash == 0 {
        *hash = FNV_OFFSET;
    }
    fnv1a(hash, bytes);
}
