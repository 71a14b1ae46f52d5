//! Events, payloads and component addressing.
//!
//! Every interaction in the simulation is an event: a typed payload
//! delivered to a `(component, port)` pair at a simulated instant. Payloads
//! are type-erased so that crates layered above the kernel (network, memory,
//! protocol engines, ...) can define their own message types without the
//! kernel knowing about them.
//!
//! Payloads use a small-value optimization: values of at most
//! [`INLINE_PAYLOAD_WORDS`] machine words (and word alignment) are stored
//! inline in the `Payload` itself, so small events such as timer ticks and
//! credits never touch the allocator. Larger or over-aligned values fall
//! back to boxing. At three words (24 bytes on 64-bit targets), every
//! event carrying a refcounted `Bytes` window is boxed: memory chunks
//! (48 bytes), read and write requests (64 and 72 bytes) and network
//! frames (88 bytes). The typed-downcast API is identical for both
//! representations.

use core::any::{Any, TypeId};
use core::fmt;
use core::mem::{align_of, size_of, ManuallyDrop, MaybeUninit};

/// Number of machine words a payload value may occupy and still be stored
/// inline (without boxing).
pub const INLINE_PAYLOAD_WORDS: usize = 3;

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

/// Per-type metadata for inline payloads, promoted to a `'static` constant
/// per monomorphization so an [`InlineValue`] carries a single pointer of
/// runtime type information.
struct PayloadMeta {
    type_id: fn() -> TypeId,
    type_name: fn() -> &'static str,
    drop_fn: unsafe fn(*mut u8),
    /// Clones the stored value from `src` into `dst` (both valid, aligned
    /// `T` slots). Present only for payloads built via
    /// [`Payload::cloneable`]; `Payload::new` cannot observe `T: Clone`.
    clone_fn: Option<unsafe fn(*const u8, *mut u8)>,
}

trait HasPayloadMeta {
    const META: PayloadMeta;
}

impl<T: 'static> HasPayloadMeta for T {
    const META: PayloadMeta = PayloadMeta {
        type_id: TypeId::of::<T>,
        type_name: core::any::type_name::<T>,
        drop_fn: drop_in_place_erased::<T>,
        clone_fn: None,
    };
}

trait HasCloneablePayloadMeta {
    const META: PayloadMeta;
}

impl<T: 'static + Clone> HasCloneablePayloadMeta for T {
    const META: PayloadMeta = PayloadMeta {
        type_id: TypeId::of::<T>,
        type_name: core::any::type_name::<T>,
        drop_fn: drop_in_place_erased::<T>,
        clone_fn: Some(clone_in_place_erased::<T>),
    };
}

/// Inline storage for small payload values: raw word-aligned bytes plus a
/// pointer to just enough runtime type information to check, drop and move
/// out the stored value.
///
/// Invariants (upheld by [`Payload::new`]):
/// - `buf` holds a valid `T` with `meta == &<T as HasPayloadMeta>::META`,
///   `size_of::<T>() <= INLINE_PAYLOAD_WORDS * word` and
///   `align_of::<T>() <= align_of::<usize>()`;
/// - `T: Send`, so the auto-derived `Send` for the raw storage is sound.
struct InlineValue {
    buf: MaybeUninit<[usize; INLINE_PAYLOAD_WORDS]>,
    meta: &'static PayloadMeta,
}

unsafe fn drop_in_place_erased<T>(p: *mut u8) {
    unsafe { core::ptr::drop_in_place(p.cast::<T>()) }
}

unsafe fn clone_in_place_erased<T: Clone>(src: *const u8, dst: *mut u8) {
    unsafe { dst.cast::<T>().write((*src.cast::<T>()).clone()) }
}

fn clone_boxed_erased<T: Any + Send + Clone>(v: &(dyn Any + Send)) -> Payload {
    Payload::cloneable(
        v.downcast_ref::<T>()
            .expect("boxed clone fn called on wrong type")
            .clone(),
    )
}

impl InlineValue {
    /// Whether a `T` qualifies for inline storage.
    const fn fits<T>() -> bool {
        size_of::<T>() <= INLINE_PAYLOAD_WORDS * size_of::<usize>()
            && align_of::<T>() <= align_of::<usize>()
    }

    fn new<T: Any + Send>(value: T) -> InlineValue {
        InlineValue::with_meta(value, &<T as HasPayloadMeta>::META)
    }

    fn new_cloneable<T: Any + Send + Clone>(value: T) -> InlineValue {
        InlineValue::with_meta(value, &<T as HasCloneablePayloadMeta>::META)
    }

    fn with_meta<T: Any + Send>(value: T, meta: &'static PayloadMeta) -> InlineValue {
        debug_assert!(InlineValue::fits::<T>());
        let mut buf = MaybeUninit::<[usize; INLINE_PAYLOAD_WORDS]>::uninit();
        // SAFETY: `fits` guarantees size and alignment; the value is moved
        // into the buffer and ownership is tracked by `InlineValue`'s Drop.
        unsafe { buf.as_mut_ptr().cast::<T>().write(value) };
        InlineValue { buf, meta }
    }

    /// Clones the stored value into a fresh `InlineValue`, if the stored
    /// type registered a clone fn (built via [`Payload::cloneable`]).
    fn try_clone(&self) -> Option<InlineValue> {
        let clone_fn = self.meta.clone_fn?;
        let mut buf = MaybeUninit::<[usize; INLINE_PAYLOAD_WORDS]>::uninit();
        // SAFETY: `clone_fn` matches the stored type per invariants; the
        // destination buffer has the same size/alignment as the source.
        unsafe {
            clone_fn(
                self.buf.as_ptr().cast::<u8>(),
                buf.as_mut_ptr().cast::<u8>(),
            )
        };
        Some(InlineValue {
            buf,
            meta: self.meta,
        })
    }

    fn is<T: Any>(&self) -> bool {
        // Same monomorphization usually means the same promoted META
        // constant; the pointer comparison is the hot-path win and the
        // `TypeId` call covers duplicate instantiations across codegen
        // units.
        core::ptr::eq(self.meta, &<T as HasPayloadMeta>::META)
            || (self.meta.type_id)() == TypeId::of::<T>()
    }

    fn peek<T: Any>(&self) -> Option<&T> {
        // SAFETY: type checked; buffer holds a valid `T` per invariants.
        self.is::<T>()
            .then(|| unsafe { &*self.buf.as_ptr().cast::<T>() })
    }

    /// Moves the stored value out. Caller must have checked `is::<T>()`.
    fn take<T: Any>(self) -> T {
        debug_assert!(self.is::<T>());
        let this = ManuallyDrop::new(self);
        // SAFETY: type checked by the caller; `ManuallyDrop` suppresses the
        // destructor so the value is not dropped after being read out.
        unsafe { this.buf.as_ptr().cast::<T>().read() }
    }
}

impl Drop for InlineValue {
    fn drop(&mut self) {
        // SAFETY: `drop_fn` matches the stored type per invariants.
        unsafe { (self.meta.drop_fn)(self.buf.as_mut_ptr().cast::<u8>()) }
    }
}

enum Repr {
    Inline(InlineValue),
    Boxed(Box<dyn Any + Send>, &'static str, BoxedCloneFn),
}

/// Clone hook for boxed payloads; `None` unless built via
/// [`Payload::cloneable`].
type BoxedCloneFn = Option<fn(&(dyn Any + Send)) -> Payload>;

/// A type-erased event payload.
///
/// Producers construct payloads from any `'static + Send` value; consumers
/// recover the concrete type with [`Payload::downcast`] (consuming) or
/// [`Payload::peek`] (borrowing). Downcasting to the wrong type is a
/// programming error and panics with the expected/actual type names, which
/// in practice pinpoints mis-wired endpoints immediately.
///
/// Values of at most [`INLINE_PAYLOAD_WORDS`] words are stored inline
/// (no allocation); larger values are boxed. The distinction is not
/// observable through the API.
pub struct Payload {
    repr: Repr,
}

impl Payload {
    /// Wraps `value` into a type-erased payload.
    #[inline]
    pub fn new<T: Any + Send>(value: T) -> Self {
        let repr = if InlineValue::fits::<T>() {
            Repr::Inline(InlineValue::new(value))
        } else {
            Repr::Boxed(Box::new(value), core::any::type_name::<T>(), None)
        };
        Payload { repr }
    }

    /// Wraps `value` into a type-erased payload that supports
    /// [`Payload::try_clone`]. Behaves identically to [`Payload::new`]
    /// otherwise; the extra `Clone` bound registers a type-erased clone
    /// hook (used e.g. by fault injection to duplicate frames in flight).
    #[inline]
    pub fn cloneable<T: Any + Send + Clone>(value: T) -> Self {
        let repr = if InlineValue::fits::<T>() {
            Repr::Inline(InlineValue::new_cloneable(value))
        } else {
            Repr::Boxed(
                Box::new(value),
                core::any::type_name::<T>(),
                Some(clone_boxed_erased::<T>),
            )
        };
        Payload { repr }
    }

    /// Deep-clones the payload, if it was built via [`Payload::cloneable`].
    /// Returns `None` for payloads without a registered clone hook.
    pub fn try_clone(&self) -> Option<Payload> {
        match &self.repr {
            Repr::Inline(v) => v.try_clone().map(|v| Payload {
                repr: Repr::Inline(v),
            }),
            Repr::Boxed(b, _, clone_fn) => clone_fn.map(|f| f(&**b)),
        }
    }

    /// Whether [`Payload::try_clone`] would succeed.
    pub fn is_cloneable(&self) -> bool {
        match &self.repr {
            Repr::Inline(v) => v.meta.clone_fn.is_some(),
            Repr::Boxed(_, _, clone_fn) => clone_fn.is_some(),
        }
    }

    /// The `type_name` of the wrapped value (for diagnostics/tracing).
    pub fn type_name(&self) -> &'static str {
        match &self.repr {
            Repr::Inline(v) => (v.meta.type_name)(),
            Repr::Boxed(_, name, _) => name,
        }
    }

    /// Whether the wrapped value is stored inline (no heap allocation).
    pub fn is_inline(&self) -> bool {
        matches!(self.repr, Repr::Inline(_))
    }

    /// Recovers the concrete payload value.
    ///
    /// # Panics
    ///
    /// Panics if the payload is not a `T`, naming both types.
    #[inline]
    pub fn downcast<T: Any>(self) -> T {
        match self.try_downcast::<T>() {
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
        match self.repr {
            Repr::Inline(v) if v.is::<T>() => Ok(v.take()),
            Repr::Boxed(b, name, clone_fn) => match b.downcast::<T>() {
                Ok(b) => Ok(*b),
                Err(inner) => Err(Payload {
                    repr: Repr::Boxed(inner, name, clone_fn),
                }),
            },
            repr => Err(Payload { repr }),
        }
    }

    /// Borrows the payload as a `T` if it is one.
    pub fn peek<T: Any>(&self) -> Option<&T> {
        match &self.repr {
            Repr::Inline(v) => v.peek::<T>(),
            Repr::Boxed(b, _, _) => b.downcast_ref::<T>(),
        }
    }

    /// Whether the wrapped value is a `T`.
    pub fn is<T: Any>(&self) -> bool {
        match &self.repr {
            Repr::Inline(v) => v.is::<T>(),
            Repr::Boxed(b, _, _) => b.is::<T>(),
        }
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
    fn small_values_are_inline_large_are_boxed() {
        assert!(Payload::new(7u64).is_inline());
        assert!(Payload::new(()).is_inline());
        assert!(Payload::new([0usize; INLINE_PAYLOAD_WORDS]).is_inline());
        // One word over the threshold: boxed.
        assert!(!Payload::new([0usize; INLINE_PAYLOAD_WORDS + 1]).is_inline());
        // Over-aligned: boxed even though it fits by size.
        #[repr(align(32))]
        struct OverAligned(#[allow(dead_code)] u8);
        assert!(!Payload::new(OverAligned(1)).is_inline());
        assert_eq!(Payload::new(OverAligned(9)).downcast::<OverAligned>().0, 9);
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
    }

    #[test]
    fn inline_payloads_drop_their_value_exactly_once() {
        struct Canary(Arc<AtomicU32>);
        impl Drop for Canary {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicU32::new(0));

        // Dropped without downcast.
        let p = Payload::new(Canary(Arc::clone(&drops)));
        assert!(p.is_inline(), "Canary should fit inline");
        drop(p);
        assert_eq!(drops.load(Ordering::SeqCst), 1);

        // Moved out via downcast: dropped once by the caller.
        let p = Payload::new(Canary(Arc::clone(&drops)));
        let c = p.downcast::<Canary>();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        drop(c);
        assert_eq!(drops.load(Ordering::SeqCst), 2);

        // Failed try_downcast keeps the value alive in the returned payload.
        let p = Payload::new(Canary(Arc::clone(&drops)));
        let p = p.try_downcast::<u32>().unwrap_err();
        assert_eq!(drops.load(Ordering::SeqCst), 2);
        drop(p);
        assert_eq!(drops.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn cloneable_payloads_clone_inline_and_boxed() {
        // Inline.
        let p = Payload::cloneable(31u64);
        assert!(p.is_inline() && p.is_cloneable());
        let q = p.try_clone().expect("inline clone");
        assert_eq!(p.downcast::<u64>(), 31);
        assert_eq!(q.downcast::<u64>(), 31);
        // Boxed.
        let p = Payload::cloneable([3u64; 16]);
        assert!(!p.is_inline() && p.is_cloneable());
        let q = p.try_clone().expect("boxed clone");
        assert_eq!(q.downcast::<[u64; 16]>(), [3u64; 16]);
        assert_eq!(p.downcast::<[u64; 16]>(), [3u64; 16]);
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
