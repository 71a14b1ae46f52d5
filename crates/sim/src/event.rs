//! Events, payloads and component addressing.
//!
//! Every interaction in the simulation is an event: a typed payload
//! delivered to a `(component, port)` pair at a simulated instant. Payloads
//! are type-erased so that crates layered above the kernel (network, memory,
//! protocol engines, ...) can define their own message types without the
//! kernel knowing about them.
//!
//! A payload is one boxed value plus its type name and an optional clone
//! hook, whatever the value's size: each payload allocates once (a
//! zero-sized value does not). A component that forwards a value takes
//! it out in its box ([`Payload::into_box`]) and sends that box on
//! ([`crate::sim::Ctx::send_box_at`]), so a network frame keeps one box
//! from the sending engine through the NIC and the switch to the
//! receiver. There is no inline form for small values: on the perfbench
//! workloads only 1.6–28.9% of deliveries carry a value of three words
//! or less, too few to pay for the `unsafe` code such a form needs
//! (DESIGN.md, "Simulator kernel performance model").

use core::any::Any;
use core::fmt;

/// Identifies a component registered with the simulator.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(pub(crate) u32);

impl ComponentId {
    /// Raw index of this component in the simulator registry.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds an id from a registry index, for exporters that persist
    /// component indices (e.g. trace snapshots) and need to look names
    /// back up. Indices are only meaningful against the same simulator.
    pub const fn from_index(i: usize) -> ComponentId {
        ComponentId(i as u32)
    }
}

impl fmt::Debug for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Identifies one input port of a component.
///
/// Ports let a single component expose several logical interfaces — e.g. the
/// CCLO data-movement processor has separate ports for microcode input and
/// datapath acknowledgements — mirroring how a hardware block has distinct
/// AXI-Stream interfaces.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId(pub u16);

impl PortId {
    /// The default port for components with a single interface.
    pub const DEFAULT: PortId = PortId(0);
}

impl fmt::Debug for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A `(component, port)` destination for events.
#[derive(Copy, Clone, PartialEq, Eq, Hash)]
pub struct Endpoint {
    /// Target component.
    pub comp: ComponentId,
    /// Target port on that component.
    pub port: PortId,
}

impl Endpoint {
    /// Creates an endpoint addressing `port` of `comp`.
    pub const fn new(comp: ComponentId, port: PortId) -> Self {
        Endpoint { comp, port }
    }

    /// Endpoint for the default port of `comp`.
    pub const fn of(comp: ComponentId) -> Self {
        Endpoint {
            comp,
            port: PortId::DEFAULT,
        }
    }
}

impl fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}.{:?}", self.comp, self.port)
    }
}

/// Clone hook of a payload; `None` unless built via [`Payload::cloneable`].
type CloneFn = Option<fn(&(dyn Any + Send)) -> Payload>;

fn clone_erased<T: Any + Send + Clone>(v: &(dyn Any + Send)) -> Payload {
    Payload::cloneable(
        v.downcast_ref::<T>()
            .expect("clone hook called on wrong type")
            .clone(),
    )
}

/// A type-erased event payload.
///
/// Producers construct payloads from any `'static + Send` value; consumers
/// recover the concrete type with [`Payload::downcast`] (consuming) or
/// [`Payload::peek`] (borrowing). Downcasting to the wrong type is a
/// programming error and panics with the expected/actual type names, which
/// in practice pinpoints mis-wired endpoints immediately.
pub struct Payload {
    value: Box<dyn Any + Send>,
    type_name: &'static str,
    clone_fn: CloneFn,
}

impl Payload {
    /// Wraps `value` into a type-erased payload.
    #[inline]
    pub fn new<T: Any + Send>(value: T) -> Self {
        Payload {
            value: Box::new(value),
            type_name: core::any::type_name::<T>(),
            clone_fn: None,
        }
    }

    /// Wraps `value` into a type-erased payload that supports
    /// [`Payload::try_clone`]. Behaves identically to [`Payload::new`]
    /// otherwise; the extra `Clone` bound registers a type-erased clone
    /// hook (used e.g. by fault injection to duplicate frames in flight).
    #[inline]
    pub fn cloneable<T: Any + Send + Clone>(value: T) -> Self {
        Payload {
            clone_fn: Some(clone_erased::<T>),
            ..Payload::new(value)
        }
    }

    /// Wraps a value that is already boxed, keeping its box.
    #[inline]
    pub(crate) fn from_box<T: Any + Send>(value: Box<T>) -> Self {
        Payload {
            value,
            type_name: core::any::type_name::<T>(),
            clone_fn: None,
        }
    }

    /// Deep-clones the payload, if it was built via [`Payload::cloneable`].
    /// Returns `None` for payloads without a registered clone hook.
    pub fn try_clone(&self) -> Option<Payload> {
        self.clone_fn.map(|f| f(&*self.value))
    }

    /// Whether [`Payload::try_clone`] would succeed.
    pub fn is_cloneable(&self) -> bool {
        self.clone_fn.is_some()
    }

    /// The `type_name` of the wrapped value (for diagnostics/tracing).
    pub fn type_name(&self) -> &'static str {
        self.type_name
    }

    /// Recovers the concrete payload value.
    ///
    /// # Panics
    ///
    /// Panics if the payload is not a `T`, naming both types.
    #[inline]
    pub fn downcast<T: Any>(self) -> T {
        *self.into_box()
    }

    /// Recovers the concrete payload value in the box it travelled in,
    /// so a component that forwards it ([`crate::sim::Ctx::send_box_at`])
    /// allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if the payload is not a `T`, naming both types.
    #[inline]
    pub fn into_box<T: Any>(self) -> Box<T> {
        match self.try_into_box::<T>() {
            Ok(v) => v,
            Err(p) => panic!(
                "payload downcast failed: expected {}, got {}",
                core::any::type_name::<T>(),
                p.type_name()
            ),
        }
    }

    /// Attempts to recover the concrete payload value, returning `self` back on mismatch.
    #[inline]
    pub fn try_downcast<T: Any>(self) -> Result<T, Payload> {
        self.try_into_box().map(|v| *v)
    }

    /// [`Payload::try_downcast`], keeping the value's box.
    #[inline]
    pub fn try_into_box<T: Any>(self) -> Result<Box<T>, Payload> {
        match self.value.downcast::<T>() {
            Ok(v) => Ok(v),
            Err(value) => Err(Payload { value, ..self }),
        }
    }

    /// Borrows the payload as a `T` if it is one.
    pub fn peek<T: Any>(&self) -> Option<&T> {
        self.value.downcast_ref::<T>()
    }

    /// Whether the wrapped value is a `T`.
    pub fn is<T: Any>(&self) -> bool {
        self.value.is::<T>()
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Payload<{}>", self.type_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    #[test]
    fn payload_downcast_roundtrip() {
        let p = Payload::new(42u32);
        assert!(p.is::<u32>());
        assert_eq!(p.peek::<u32>(), Some(&42));
        assert_eq!(p.downcast::<u32>(), 42);
    }

    #[test]
    fn payload_try_downcast_returns_self_on_mismatch() {
        let p = Payload::new("hello");
        let p = p.try_downcast::<u64>().unwrap_err();
        assert_eq!(p.downcast::<&'static str>(), "hello");
    }

    #[test]
    #[should_panic(expected = "payload downcast failed")]
    fn payload_downcast_panics_with_types() {
        Payload::new(1u8).downcast::<u16>();
    }

    #[test]
    fn inline_and_boxed_have_identical_api_behaviour() {
        let small = Payload::new(5u16);
        let large = Payload::new([5u64; 8]);
        assert!(small.is::<u16>() && !small.is::<u64>());
        assert!(large.is::<[u64; 8]>());
        assert_eq!(small.peek::<u16>(), Some(&5));
        assert_eq!(large.peek::<[u64; 8]>(), Some(&[5u64; 8]));
        assert!(small.try_downcast::<u64>().is_err());
        assert_eq!(large.downcast::<[u64; 8]>(), [5u64; 8]);
        // Over-aligned and zero-sized values take the same path.
        #[repr(align(32))]
        struct OverAligned(u8);
        assert_eq!(Payload::new(OverAligned(9)).downcast::<OverAligned>().0, 9);
        Payload::new(()).downcast::<()>();
    }

    #[test]
    fn inline_payloads_drop_their_value_exactly_once() {
        // A one-word and a 40-word value: every size takes the one path.
        struct Canary<const N: usize>(Arc<AtomicU32>, [u64; N]);
        impl<const N: usize> Drop for Canary<N> {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        fn check<const N: usize>() {
            let drops = Arc::new(AtomicU32::new(0));
            let canary = || Canary::<N>(Arc::clone(&drops), [7; N]);

            // Dropped without downcast.
            drop(Payload::new(canary()));
            assert_eq!(drops.load(Ordering::SeqCst), 1);

            // Moved out via downcast: dropped once by the caller.
            let c = Payload::new(canary()).downcast::<Canary<N>>();
            assert_eq!(drops.load(Ordering::SeqCst), 1);
            assert_eq!(c.1, [7; N]);
            drop(c);
            assert_eq!(drops.load(Ordering::SeqCst), 2);

            // Failed try_downcast keeps the value alive in the returned payload.
            let p = Payload::new(canary()).try_downcast::<u32>().unwrap_err();
            assert_eq!(drops.load(Ordering::SeqCst), 2);
            assert!(p.is::<Canary<N>>());
            drop(p);
            assert_eq!(drops.load(Ordering::SeqCst), 3);
        }
        check::<0>();
        check::<40>();
    }

    #[test]
    fn cloneable_payloads_clone_inline_and_boxed() {
        // Small.
        let p = Payload::cloneable(31u64);
        assert!(p.is_cloneable());
        let q = p.try_clone().expect("small clone");
        assert_eq!(q.type_name(), p.type_name());
        assert_eq!(p.downcast::<u64>(), 31);
        assert_eq!(q.downcast::<u64>(), 31);
        // Large.
        let p = Payload::cloneable([3u64; 16]);
        assert!(p.is_cloneable());
        let q = p.try_clone().expect("large clone");
        assert!(q.is_cloneable(), "a clone clones again");
        assert_eq!(q.downcast::<[u64; 16]>(), [3u64; 16]);
        assert_eq!(p.downcast::<[u64; 16]>(), [3u64; 16]);
    }

    #[test]
    fn type_name_is_the_values_type_name() {
        // The timeline digest folds this string, so it must not change form.
        assert_eq!(
            Payload::new(1u32).type_name(),
            core::any::type_name::<u32>()
        );
        assert_eq!(
            Payload::cloneable([0u8; 64]).type_name(),
            core::any::type_name::<[u8; 64]>()
        );
        let p = Payload::new(2i64).try_downcast::<u8>().unwrap_err();
        assert_eq!(p.type_name(), core::any::type_name::<i64>());
    }

    #[test]
    fn plain_payloads_are_not_cloneable() {
        assert!(!Payload::new(7u32).is_cloneable());
        assert!(Payload::new(7u32).try_clone().is_none());
        assert!(Payload::new([0u64; 8]).try_clone().is_none());
    }

    #[test]
    fn cloned_payloads_drop_independently() {
        #[derive(Clone)]
        struct Canary(Arc<AtomicU32>);
        impl Drop for Canary {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicU32::new(0));
        let p = Payload::cloneable(Canary(Arc::clone(&drops)));
        let q = p.try_clone().expect("clone");
        drop(p);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        drop(q);
        assert_eq!(drops.load(Ordering::SeqCst), 2);
    }
}
