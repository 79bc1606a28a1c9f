//! Tracked lock wrappers: a deadlock tripwire for the threaded runtime.
//!
//! The observability layer is shared by every thread that emits into it —
//! the live runtime's shards and TCP threads, parallel simulators — and
//! its locks are plain `std::sync` primitives. This module wraps them with
//! *lock-class* tracking so that every debug/test run doubles as a
//! deadlock audit:
//!
//! * every [`TrackedMutex`] / [`TrackedRwLock`] carries a `&'static str`
//!   **lock class** (e.g. `obs.flight.ring`), the same name the static
//!   `lock-order` pass in `crates/analyze` reasons about;
//! * each thread keeps a **held-set** of the classes it currently holds;
//! * acquiring class *B* while holding *A* records the edge *A → B* in a
//!   global acquisition-order graph, together with a witness (the full
//!   held-chain and the thread name at the time);
//! * an acquisition that would close a **cycle** in that graph — a
//!   lock-order inversion, i.e. a potential deadlock — panics immediately,
//!   naming both offending lock-class chains, instead of deadlocking some
//!   future run with unlucky timing. Recursive acquisition of the same
//!   class panics too (self-deadlock for `Mutex`, writer-starvation
//!   deadlock for read-recursive `RwLock`).
//!
//! Per-class **hold-time histograms** can be published through a
//! [`Registry`](crate::Registry) (see [`set_hold_registry`]): every release
//! records the guard's hold duration in microseconds under
//! `lock.hold_us.<class>`, making contention on a shared observer visible
//! in `netload` output.
//!
//! ## Zero-cost passthrough in release
//!
//! Tracking is compiled in only under `debug_assertions` **or** the
//! `lockcheck` feature. A plain release build gets newtype wrappers whose
//! methods forward straight to `std::sync` — no held-set, no graph, no
//! clock reads, nothing for the optimizer to even inline away. `cargo test`
//! (a debug build) therefore runs every integration test under the
//! tripwire by default, while the pinned `netload` numbers in
//! `BENCH_net.json` are measured against untouched `std::sync`.
//!
//! Poisoning is folded into the wrapper: a poisoned lock panics with the
//! lock class named (a poisoned lock means a thread already panicked while
//! holding it — continuing would act on torn invariants).
//!
// lint:allow-file(wall-clock) — hold-time histograms time *real* lock hold
// durations on the OS-thread runtime; this code is compiled only in
// debug/lockcheck builds and never runs on the simulator's virtual-time
// path.

#[cfg(any(debug_assertions, feature = "lockcheck"))]
pub use tracked::{
    lockcheck_active, set_hold_registry, TrackedCondvar, TrackedMutex, TrackedMutexGuard,
    TrackedReadGuard, TrackedRwLock, TrackedWriteGuard,
};

#[cfg(not(any(debug_assertions, feature = "lockcheck")))]
pub use passthrough::{
    lockcheck_active, set_hold_registry, TrackedCondvar, TrackedMutex, TrackedMutexGuard,
    TrackedReadGuard, TrackedRwLock, TrackedWriteGuard,
};

/// The instrumented implementation (debug builds and `--features lockcheck`).
#[cfg(any(debug_assertions, feature = "lockcheck"))]
mod tracked {
    use std::cell::RefCell;
    use std::collections::HashMap;
    use std::ops::{Deref, DerefMut};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{
        Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, RwLock, RwLockReadGuard,
        RwLockWriteGuard, WaitTimeoutResult,
    };
    use std::time::{Duration, Instant};

    use crate::Registry;

    thread_local! {
        /// Lock classes this thread currently holds, in acquisition order.
        static HELD: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    }

    /// One recorded acquisition-order edge `from → to`: the full held-chain
    /// and thread that first exhibited the order.
    struct EdgeWitness {
        chain: Vec<&'static str>,
        thread: String,
    }

    /// The global acquisition-order graph. Process-wide on purpose: an
    /// inversion between two *different* tests in one binary is still an
    /// inversion in the code under test.
    #[derive(Default)]
    struct LockGraph {
        edges: HashMap<&'static str, HashMap<&'static str, EdgeWitness>>,
    }

    impl LockGraph {
        /// Depth-first path from `from` to any class in `targets`, if one
        /// exists. Returned oldest-first: `[from, …, target]`.
        fn path_to_any(
            &self,
            from: &'static str,
            targets: &[&'static str],
        ) -> Option<Vec<&'static str>> {
            let mut stack = vec![vec![from]];
            let mut visited: Vec<&'static str> = vec![from];
            while let Some(path) = stack.pop() {
                let last = *path.last().expect("paths are non-empty");
                if targets.contains(&last) {
                    return Some(path);
                }
                if let Some(nexts) = self.edges.get(last) {
                    for &next in nexts.keys() {
                        if !visited.contains(&next) {
                            visited.push(next);
                            let mut p = path.clone();
                            p.push(next);
                            stack.push(p);
                        }
                    }
                }
            }
            None
        }
    }

    fn graph() -> &'static Mutex<LockGraph> {
        static GRAPH: OnceLock<Mutex<LockGraph>> = OnceLock::new();
        GRAPH.get_or_init(Mutex::default)
    }

    fn thread_label() -> String {
        let current = std::thread::current();
        current.name().map_or_else(|| format!("{:?}", current.id()), str::to_string)
    }

    /// Checks `class` against this thread's held-set and the global graph;
    /// panics on a same-class re-acquisition or an order inversion,
    /// otherwise records the new edges and pushes `class` onto the held-set.
    fn on_acquire(class: &'static str) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            assert!(
                !held.contains(&class),
                "lockcheck: recursive acquisition of lock class `{class}` \
                 (this thread already holds {held:?})"
            );
            if !held.is_empty() {
                // Internal infrastructure lock: recover from poison rather
                // than cascade (an intentional inversion panic in one test
                // must not wedge the tripwire for the rest of the binary).
                let mut graph = graph().lock().unwrap_or_else(PoisonError::into_inner);
                if let Some(path) = graph.path_to_any(class, &held) {
                    let witness = &graph.edges[path[0]][path[1]];
                    let mut current = held.clone();
                    current.push(class);
                    let msg = format!(
                        "lockcheck: lock-order inversion acquiring `{class}` on thread \
                         \"{me}\": current chain {current:?} conflicts with prior chain \
                         {prior:?} (recorded on thread \"{thr}\"), which already orders \
                         {path:?}",
                        me = thread_label(),
                        prior = witness.chain,
                        thr = witness.thread,
                    );
                    // Release the graph (and the held-set borrow) before
                    // panicking so the unwind path can still do bookkeeping.
                    drop(graph);
                    drop(held);
                    panic!("{msg}");
                }
                let mut chain = held.clone();
                chain.push(class);
                for &earlier in held.iter() {
                    graph.edges.entry(earlier).or_default().entry(class).or_insert_with(|| {
                        EdgeWitness { chain: chain.clone(), thread: thread_label() }
                    });
                }
            }
            held.push(class);
        });
    }

    /// Pops `class` from the held-set (releases need not be LIFO) and
    /// publishes its hold time if a registry is installed.
    fn on_release(class: &'static str, held_since: Option<Instant>) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(at) = held.iter().rposition(|&c| c == class) {
                held.remove(at);
            }
        });
        record_hold(class, held_since);
    }

    static HOLD_ENABLED: AtomicBool = AtomicBool::new(false);
    static HOLD_REGISTRY: Mutex<Option<Arc<Registry>>> = Mutex::new(None);

    /// Publishes per-class hold times to `registry` as `lock.hold_us.<class>`
    /// histograms (microseconds per guard lifetime); `None` turns publishing
    /// back off. Publishing is off by default — without a registry the
    /// tracked wrappers never read the clock.
    pub fn set_hold_registry(registry: Option<Arc<Registry>>) {
        HOLD_ENABLED.store(registry.is_some(), Ordering::Release);
        *HOLD_REGISTRY.lock().unwrap_or_else(PoisonError::into_inner) = registry;
    }

    /// Whether this build tracks lock acquisitions (`true` here; the release
    /// passthrough reports `false`).
    pub fn lockcheck_active() -> bool {
        true
    }

    fn hold_start() -> Option<Instant> {
        HOLD_ENABLED.load(Ordering::Acquire).then(Instant::now)
    }

    /// Unwinds `on_acquire`'s bookkeeping and panics: the acquisition found
    /// the lock poisoned, so no guard will ever exist to release the class.
    fn poisoned(class: &'static str, during: &str) -> ! {
        on_release(class, None);
        panic!("lock class `{class}` poisoned{during}: a thread panicked while holding it")
    }

    fn record_hold(class: &'static str, held_since: Option<Instant>) {
        let Some(start) = held_since else { return };
        let registry =
            HOLD_REGISTRY.lock().unwrap_or_else(PoisonError::into_inner).as_ref().map(Arc::clone);
        if let Some(registry) = registry {
            let us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
            registry.record(&format!("lock.hold_us.{class}"), us);
        }
    }

    /// A `std::sync::Mutex` carrying a lock class, checked against the
    /// global acquisition-order graph on every `lock`.
    #[derive(Debug, Default)]
    pub struct TrackedMutex<T> {
        class: &'static str,
        inner: Mutex<T>,
    }

    impl<T> TrackedMutex<T> {
        /// Wraps `value` under lock class `class`.
        pub fn new(class: &'static str, value: T) -> Self {
            TrackedMutex { class, inner: Mutex::new(value) }
        }

        /// The lock class this mutex was declared with.
        pub fn class(&self) -> &'static str {
            self.class
        }

        /// Acquires the lock, recording the acquisition order.
        ///
        /// # Panics
        ///
        /// Panics if the acquisition closes a cycle in the global
        /// acquisition-order graph (a lock-order inversion), if this thread
        /// already holds this class, or if the lock is poisoned.
        pub fn lock(&self) -> TrackedMutexGuard<'_, T> {
            on_acquire(self.class);
            let inner = self.inner.lock().unwrap_or_else(|_| poisoned(self.class, ""));
            TrackedMutexGuard { lock: self, inner: Some(inner), held_since: hold_start() }
        }
    }

    /// Guard for [`TrackedMutex`]; releases the held-set entry (and records
    /// the hold time) on drop.
    #[derive(Debug)]
    pub struct TrackedMutexGuard<'a, T> {
        lock: &'a TrackedMutex<T>,
        /// `None` only mid-[`TrackedCondvar::wait`], where the std guard
        /// moves into `Condvar::wait` and bookkeeping is handed over.
        inner: Option<MutexGuard<'a, T>>,
        held_since: Option<Instant>,
    }

    impl<T> Deref for TrackedMutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            self.inner.as_ref().expect("guard is only empty mid-wait")
        }
    }

    impl<T> DerefMut for TrackedMutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.inner.as_mut().expect("guard is only empty mid-wait")
        }
    }

    impl<T> Drop for TrackedMutexGuard<'_, T> {
        fn drop(&mut self) {
            if self.inner.is_some() {
                on_release(self.lock.class, self.held_since);
            }
        }
    }

    /// A `std::sync::Condvar` aware of the tracked guards: waiting releases
    /// the class from the held-set and re-records it on wake-up (re-checking
    /// the acquisition order, since the wake-up re-locks).
    #[derive(Debug, Default)]
    pub struct TrackedCondvar {
        inner: Condvar,
    }

    impl TrackedCondvar {
        /// A new condition variable.
        pub fn new() -> Self {
            TrackedCondvar { inner: Condvar::new() }
        }

        fn release_for_wait<'a, T>(
            mut guard: TrackedMutexGuard<'a, T>,
        ) -> (&'a TrackedMutex<T>, MutexGuard<'a, T>) {
            let lock = guard.lock;
            let inner = guard.inner.take().expect("guard is only empty mid-wait");
            on_release(lock.class, guard.held_since);
            (lock, inner)
        }

        fn reacquire<'a, T>(
            lock: &'a TrackedMutex<T>,
            result: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
        ) -> TrackedMutexGuard<'a, T> {
            on_acquire(lock.class);
            let inner = result.unwrap_or_else(|_| poisoned(lock.class, " during condvar wait"));
            TrackedMutexGuard { lock, inner: Some(inner), held_since: hold_start() }
        }

        /// Blocks until notified, releasing `guard`'s mutex while waiting.
        ///
        /// # Panics
        ///
        /// Panics if the mutex is poisoned, or if re-acquisition on wake-up
        /// violates the recorded lock order.
        pub fn wait<'a, T>(&self, guard: TrackedMutexGuard<'a, T>) -> TrackedMutexGuard<'a, T> {
            let (lock, inner) = Self::release_for_wait(guard);
            Self::reacquire(lock, self.inner.wait(inner))
        }

        /// Blocks until notified or `timeout` elapses.
        ///
        /// # Panics
        ///
        /// As for [`wait`](Self::wait).
        pub fn wait_timeout<'a, T>(
            &self,
            guard: TrackedMutexGuard<'a, T>,
            timeout: Duration,
        ) -> (TrackedMutexGuard<'a, T>, WaitTimeoutResult) {
            let (lock, inner) = Self::release_for_wait(guard);
            match self.inner.wait_timeout(inner, timeout) {
                Ok((inner, timed_out)) => (Self::reacquire(lock, Ok(inner)), timed_out),
                Err(poison) => {
                    let (inner, timed_out) = poison.into_inner();
                    // Preserve the poison panic, but only after restoring
                    // bookkeeping so unwinding releases cleanly.
                    let _guard = Self::reacquire(lock, Ok(inner));
                    let _ = timed_out;
                    panic!("lock class `{}` poisoned during condvar wait", lock.class)
                }
            }
        }

        /// Wakes one waiter.
        pub fn notify_one(&self) {
            self.inner.notify_one();
        }

        /// Wakes every waiter.
        pub fn notify_all(&self) {
            self.inner.notify_all();
        }
    }

    /// A `std::sync::RwLock` carrying a lock class. Readers and writers
    /// share the class: the order audit cares about *which* lock, not the
    /// mode — and same-thread read-recursion is flagged like a mutex
    /// re-entry, because a writer queued between the two reads deadlocks.
    #[derive(Debug, Default)]
    pub struct TrackedRwLock<T> {
        class: &'static str,
        inner: RwLock<T>,
    }

    impl<T> TrackedRwLock<T> {
        /// Wraps `value` under lock class `class`.
        pub fn new(class: &'static str, value: T) -> Self {
            TrackedRwLock { class, inner: RwLock::new(value) }
        }

        /// The lock class this lock was declared with.
        pub fn class(&self) -> &'static str {
            self.class
        }

        /// Acquires a shared read guard, recording the acquisition order.
        ///
        /// # Panics
        ///
        /// As for [`TrackedMutex::lock`].
        pub fn read(&self) -> TrackedReadGuard<'_, T> {
            on_acquire(self.class);
            let inner = self.inner.read().unwrap_or_else(|_| poisoned(self.class, ""));
            TrackedReadGuard { class: self.class, inner, held_since: hold_start() }
        }

        /// Acquires the exclusive write guard, recording the acquisition
        /// order.
        ///
        /// # Panics
        ///
        /// As for [`TrackedMutex::lock`].
        pub fn write(&self) -> TrackedWriteGuard<'_, T> {
            on_acquire(self.class);
            let inner = self.inner.write().unwrap_or_else(|_| poisoned(self.class, ""));
            TrackedWriteGuard { class: self.class, inner, held_since: hold_start() }
        }
    }

    /// Shared-read guard for [`TrackedRwLock`].
    #[derive(Debug)]
    pub struct TrackedReadGuard<'a, T> {
        class: &'static str,
        inner: RwLockReadGuard<'a, T>,
        held_since: Option<Instant>,
    }

    impl<T> Deref for TrackedReadGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.inner
        }
    }

    impl<T> Drop for TrackedReadGuard<'_, T> {
        fn drop(&mut self) {
            on_release(self.class, self.held_since);
        }
    }

    /// Exclusive-write guard for [`TrackedRwLock`].
    #[derive(Debug)]
    pub struct TrackedWriteGuard<'a, T> {
        class: &'static str,
        inner: RwLockWriteGuard<'a, T>,
        held_since: Option<Instant>,
    }

    impl<T> Deref for TrackedWriteGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.inner
        }
    }

    impl<T> DerefMut for TrackedWriteGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.inner
        }
    }

    impl<T> Drop for TrackedWriteGuard<'_, T> {
        fn drop(&mut self) {
            on_release(self.class, self.held_since);
        }
    }
}

/// The release implementation: newtypes forwarding straight to `std::sync`,
/// with no held-set, graph, or clock reads — byte-for-byte the locking the
/// pinned `netload` numbers were measured against.
#[cfg(not(any(debug_assertions, feature = "lockcheck")))]
mod passthrough {
    use std::ops::{Deref, DerefMut};
    use std::sync::{
        Arc, Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard,
        WaitTimeoutResult,
    };
    use std::time::Duration;

    use crate::Registry;

    /// No-op in passthrough builds: hold times are only tracked under
    /// `debug_assertions` or `--features lockcheck`.
    pub fn set_hold_registry(registry: Option<Arc<Registry>>) {
        let _ = registry;
    }

    /// Whether this build tracks lock acquisitions (`false` here).
    pub fn lockcheck_active() -> bool {
        false
    }

    /// Passthrough `Mutex`: the class is kept for diagnostics only.
    #[derive(Debug, Default)]
    pub struct TrackedMutex<T> {
        class: &'static str,
        inner: Mutex<T>,
    }

    impl<T> TrackedMutex<T> {
        /// Wraps `value`; `class` is kept for poison diagnostics only.
        pub fn new(class: &'static str, value: T) -> Self {
            TrackedMutex { class, inner: Mutex::new(value) }
        }

        /// The lock class this mutex was declared with.
        pub fn class(&self) -> &'static str {
            self.class
        }

        /// Acquires the lock.
        ///
        /// # Panics
        ///
        /// Panics if the lock is poisoned.
        pub fn lock(&self) -> TrackedMutexGuard<'_, T> {
            TrackedMutexGuard {
                inner: self.inner.lock().unwrap_or_else(|_| {
                    panic!(
                        "lock class `{}` poisoned: a thread panicked while holding it",
                        self.class
                    )
                }),
            }
        }
    }

    /// Guard for the passthrough [`TrackedMutex`].
    #[derive(Debug)]
    pub struct TrackedMutexGuard<'a, T> {
        inner: MutexGuard<'a, T>,
    }

    impl<T> Deref for TrackedMutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.inner
        }
    }

    impl<T> DerefMut for TrackedMutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.inner
        }
    }

    /// Passthrough `Condvar`.
    #[derive(Debug, Default)]
    pub struct TrackedCondvar {
        inner: Condvar,
    }

    impl TrackedCondvar {
        /// A new condition variable.
        pub fn new() -> Self {
            TrackedCondvar { inner: Condvar::new() }
        }

        /// Blocks until notified, releasing `guard`'s mutex while waiting.
        ///
        /// # Panics
        ///
        /// Panics if the mutex is poisoned.
        pub fn wait<'a, T>(&self, guard: TrackedMutexGuard<'a, T>) -> TrackedMutexGuard<'a, T> {
            TrackedMutexGuard {
                inner: self
                    .inner
                    .wait(guard.inner)
                    .unwrap_or_else(|_| panic!("mutex poisoned during condvar wait")),
            }
        }

        /// Blocks until notified or `timeout` elapses.
        ///
        /// # Panics
        ///
        /// Panics if the mutex is poisoned.
        pub fn wait_timeout<'a, T>(
            &self,
            guard: TrackedMutexGuard<'a, T>,
            timeout: Duration,
        ) -> (TrackedMutexGuard<'a, T>, WaitTimeoutResult) {
            let (inner, timed_out) = self
                .inner
                .wait_timeout(guard.inner, timeout)
                .unwrap_or_else(|_| panic!("mutex poisoned during condvar wait"));
            (TrackedMutexGuard { inner }, timed_out)
        }

        /// Wakes one waiter.
        pub fn notify_one(&self) {
            self.inner.notify_one();
        }

        /// Wakes every waiter.
        pub fn notify_all(&self) {
            self.inner.notify_all();
        }
    }

    /// Passthrough `RwLock`: the class is kept for diagnostics only.
    #[derive(Debug, Default)]
    pub struct TrackedRwLock<T> {
        class: &'static str,
        inner: RwLock<T>,
    }

    impl<T> TrackedRwLock<T> {
        /// Wraps `value`; `class` is kept for poison diagnostics only.
        pub fn new(class: &'static str, value: T) -> Self {
            TrackedRwLock { class, inner: RwLock::new(value) }
        }

        /// The lock class this lock was declared with.
        pub fn class(&self) -> &'static str {
            self.class
        }

        /// Acquires a shared read guard.
        ///
        /// # Panics
        ///
        /// Panics if the lock is poisoned.
        pub fn read(&self) -> TrackedReadGuard<'_, T> {
            TrackedReadGuard {
                inner: self.inner.read().unwrap_or_else(|_| {
                    panic!(
                        "lock class `{}` poisoned: a thread panicked while holding it",
                        self.class
                    )
                }),
            }
        }

        /// Acquires the exclusive write guard.
        ///
        /// # Panics
        ///
        /// Panics if the lock is poisoned.
        pub fn write(&self) -> TrackedWriteGuard<'_, T> {
            TrackedWriteGuard {
                inner: self.inner.write().unwrap_or_else(|_| {
                    panic!(
                        "lock class `{}` poisoned: a thread panicked while holding it",
                        self.class
                    )
                }),
            }
        }
    }

    /// Shared-read guard for the passthrough [`TrackedRwLock`].
    #[derive(Debug)]
    pub struct TrackedReadGuard<'a, T> {
        inner: RwLockReadGuard<'a, T>,
    }

    impl<T> Deref for TrackedReadGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.inner
        }
    }

    /// Exclusive-write guard for the passthrough [`TrackedRwLock`].
    #[derive(Debug)]
    pub struct TrackedWriteGuard<'a, T> {
        inner: RwLockWriteGuard<'a, T>,
    }

    impl<T> Deref for TrackedWriteGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.inner
        }
    }

    impl<T> DerefMut for TrackedWriteGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.inner
        }
    }
}

#[cfg(all(test, any(debug_assertions, feature = "lockcheck")))]
mod tests {
    use super::*;
    use crate::Registry;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;
    use std::time::Duration;

    fn panic_message(err: Box<dyn std::any::Any + Send>) -> String {
        err.downcast::<String>().map(|s| *s).unwrap_or_else(|e| {
            e.downcast::<&str>().map(|s| (*s).to_string()).unwrap_or_default()
        })
    }

    /// The runtime negative control: a deliberately inverted two-lock
    /// acquisition must panic, naming both lock-class chains — the
    /// mutation-style proof that the cycle detector can actually fire.
    #[test]
    fn inversion_panics_with_both_chains_named() {
        let a = TrackedMutex::new("test.inv.a", 0u32);
        let b = TrackedMutex::new("test.inv.b", 0u32);
        {
            // Establish the order a → b.
            let _ga = a.lock();
            let _gb = b.lock();
        }
        let err = catch_unwind(AssertUnwindSafe(|| {
            let _gb = b.lock();
            let _ga = a.lock(); // b → a closes the cycle
        }))
        .expect_err("the inverted acquisition must panic");
        let msg = panic_message(err);
        assert!(msg.contains("lock-order inversion"), "verdict named: {msg}");
        assert!(
            msg.contains(r#"["test.inv.b", "test.inv.a"]"#),
            "current (inverted) chain named: {msg}"
        );
        assert!(
            msg.contains(r#"["test.inv.a", "test.inv.b"]"#),
            "prior (witness) chain named: {msg}"
        );
        // The tripwire recovered: `a` (not held at the panic) still locks.
        let _ga = a.lock();
        // `b` *was* held when the inversion panicked, so it is poisoned —
        // and the poison panic must name the lock class.
        drop(_ga);
        let err = catch_unwind(AssertUnwindSafe(|| {
            let _gb = b.lock();
        }))
        .expect_err("a guard dropped during the unwind poisons its mutex");
        assert!(panic_message(err).contains("lock class `test.inv.b` poisoned"));
    }

    #[test]
    fn recursive_acquisition_panics() {
        let a = TrackedMutex::new("test.rec.a", 0u32);
        let err = catch_unwind(AssertUnwindSafe(|| {
            let _g1 = a.lock();
            let _g2 = a.lock();
        }))
        .expect_err("same-thread re-acquisition must panic, not deadlock");
        assert!(panic_message(err).contains("recursive acquisition"));
    }

    #[test]
    fn rwlock_read_recursion_panics() {
        let l = TrackedRwLock::new("test.rec.rw", 0u32);
        let err = catch_unwind(AssertUnwindSafe(|| {
            let _r1 = l.read();
            let _r2 = l.read();
        }))
        .expect_err("read-recursion deadlocks against a queued writer; must panic");
        assert!(panic_message(err).contains("recursive acquisition"));
    }

    #[test]
    fn consistent_nesting_and_parallel_readers_are_fine() {
        let outer = TrackedRwLock::new("test.ok.outer", ());
        let inner = TrackedMutex::new("test.ok.inner", 0u32);
        for _ in 0..3 {
            let _o = outer.read();
            let mut g = inner.lock();
            *g += 1;
        }
        // Two threads reading the same class concurrently is not recursion.
        let shared = Arc::new(TrackedRwLock::new("test.ok.shared", 7u32));
        let other = Arc::clone(&shared);
        let r1 = shared.read();
        let handle = std::thread::spawn(move || *other.read());
        assert_eq!(handle.join().expect("reader thread"), 7);
        assert_eq!(*r1, 7);
    }

    #[test]
    fn condvar_wait_releases_and_restores_bookkeeping() {
        let m = Arc::new(TrackedMutex::new("test.cv.m", false));
        let cv = Arc::new(TrackedCondvar::new());
        // Timeout path: the class must be re-held after the wait (dropping
        // the returned guard must not underflow the held-set).
        let g = m.lock();
        let (g, timed_out) = cv.wait_timeout(g, Duration::from_millis(5));
        assert!(timed_out.timed_out());
        drop(g);
        // Notify path, with the waiter's mutex released while waiting: the
        // notifier can lock the same class without a recursion panic.
        let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
        let waiter = std::thread::spawn(move || {
            let mut g = m2.lock();
            while !*g {
                g = cv2.wait(g);
            }
        });
        loop {
            let mut g = m.lock();
            *g = true;
            cv.notify_all();
            drop(g);
            if waiter.is_finished() {
                break;
            }
            std::thread::yield_now();
        }
        waiter.join().expect("waiter exits after notify");
    }

    #[test]
    fn hold_times_publish_to_installed_registry() {
        let registry = Arc::new(Registry::new());
        set_hold_registry(Some(Arc::clone(&registry)));
        let m = TrackedMutex::new("test.hold.m", 0u32);
        {
            let mut g = m.lock();
            *g += 1;
        }
        set_hold_registry(None);
        let h = registry.histogram("lock.hold_us.test.hold.m").expect("hold histogram published");
        assert_eq!(h.count(), 1, "one guard lifetime recorded");
        // With publishing off again, releases are silent.
        {
            let _g = m.lock();
        }
        let h = registry.histogram("lock.hold_us.test.hold.m").expect("still present");
        assert_eq!(h.count(), 1);
    }
}
