//! The [`Observer`] trait and the cheap nullable handle instrumented code
//! holds on to.

use std::fmt;
use std::sync::Arc;

use crate::event::Event;

/// A sink for [`Event`]s.
///
/// Implementations must be `Send + Sync`: the network runtime calls
/// `on_event` from each of its shard threads, and the parallel sweep runner may
/// drive several simulators at once. Implementations must also be
/// **side-effect free with respect to the observed system** — an observer
/// never feeds information back into the protocol, consumes protocol RNG,
/// or changes event scheduling, so enabling one cannot change a run's
/// deterministic fingerprints.
pub trait Observer: Send + Sync {
    /// Called once per observed event, in emission order per emitter.
    fn on_event(&self, event: &Event);
}

/// The do-nothing default sink.
///
/// [`ObsHandle::null`] does not even allocate for it: a null handle holds
/// `None` and [`ObsHandle::emit`] skips event construction entirely, so the
/// instrumented hot path pays one branch on a local `Option`.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl Observer for NullObserver {
    fn on_event(&self, _event: &Event) {}
}

/// Broadcasts every event to several observers in order.
///
/// Useful for recording a JSONL trace while also building an in-memory
/// [`crate::TraceTree`] and aggregating a [`crate::Registry`].
#[derive(Default)]
pub struct Fanout {
    sinks: Vec<Arc<dyn Observer>>,
}

impl Fanout {
    /// An empty fanout; add sinks with [`Fanout::push`].
    pub fn new() -> Self {
        Fanout::default()
    }

    /// Adds a sink; events reach sinks in insertion order.
    pub fn push(&mut self, sink: Arc<dyn Observer>) {
        self.sinks.push(sink);
    }
}

impl Observer for Fanout {
    fn on_event(&self, event: &Event) {
        for sink in &self.sinks {
            sink.on_event(event);
        }
    }
}

/// A cheap, cloneable, possibly-null reference to an [`Observer`].
///
/// This is the type instrumented structs store. The default is null;
/// [`ObsHandle::emit`] takes a closure so that when the handle is null the
/// event value is never even built:
///
/// ```
/// use autosel_obs::{Event, ObsHandle};
///
/// let obs = ObsHandle::null();
/// obs.emit(|| Event::NodeCrashed { at: 10, node: 3 }); // closure not called
/// ```
#[derive(Clone, Default)]
pub struct ObsHandle {
    inner: Option<Arc<dyn Observer>>,
}

impl ObsHandle {
    /// The null handle: no sink, zero cost beyond one branch per call site.
    pub const fn null() -> Self {
        ObsHandle { inner: None }
    }

    /// Wraps an already-shared observer.
    pub fn new(observer: Arc<dyn Observer>) -> Self {
        ObsHandle {
            inner: Some(observer),
        }
    }

    /// Convenience: wraps a concrete observer value in an `Arc`.
    pub fn of<O: Observer + 'static>(observer: O) -> Self {
        ObsHandle::new(Arc::new(observer))
    }

    /// True when events will actually reach a sink.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Emits the event produced by `build` — unless the handle is null, in
    /// which case `build` is never called.
    #[inline]
    pub fn emit<F: FnOnce() -> Event>(&self, build: F) {
        if let Some(obs) = &self.inner {
            obs.on_event(&build());
        }
    }
}

impl fmt::Debug for ObsHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.enabled() {
            "ObsHandle(active)"
        } else {
            "ObsHandle(null)"
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct Counting(AtomicU64);
    impl Observer for Counting {
        fn on_event(&self, _: &Event) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn null_handle_never_builds_the_event() {
        let obs = ObsHandle::null();
        assert!(!obs.enabled());
        obs.emit(|| unreachable!("closure must not run on a null handle"));
    }

    #[test]
    fn active_handle_delivers() {
        let sink = Arc::new(Counting(AtomicU64::new(0)));
        let obs = ObsHandle::new(sink.clone());
        assert!(obs.enabled());
        obs.emit(|| Event::NodeCrashed { at: 1, node: 2 });
        obs.emit(|| Event::NodeRestarted { at: 2, node: 2 });
        assert_eq!(sink.0.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn fanout_reaches_every_sink() {
        let a = Arc::new(Counting(AtomicU64::new(0)));
        let b = Arc::new(Counting(AtomicU64::new(0)));
        let mut fan = Fanout::new();
        fan.push(a.clone());
        fan.push(b.clone());
        let obs = ObsHandle::of(fan);
        obs.emit(|| Event::NodeCrashed { at: 1, node: 2 });
        assert_eq!(a.0.load(Ordering::Relaxed), 1);
        assert_eq!(b.0.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn clones_share_the_sink() {
        let sink = Arc::new(Counting(AtomicU64::new(0)));
        let obs = ObsHandle::new(sink.clone());
        let clone = obs.clone();
        obs.emit(|| Event::NodeCrashed { at: 1, node: 2 });
        clone.emit(|| Event::NodeCrashed { at: 2, node: 3 });
        assert_eq!(sink.0.load(Ordering::Relaxed), 2);
    }
}
