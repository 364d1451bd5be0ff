//! Synchronization shim: every lock, condvar, and guard the runtime's hot
//! path uses comes from this module, never from `parking_lot` directly.
//!
//! Normally the types are re-exports of `parking_lot` (the production
//! path). Under `RUSTFLAGS="--cfg loom"` they are thin parking_lot-shaped
//! wrappers over `loom`'s model-checked primitives instead, so `Channel`,
//! `Queue`, `LfQueue`, and `Shutdown` compile unchanged against the
//! loom scheduler and their lock/condvar protocols can be exhaustively
//! explored by the tests in `loom_tests.rs` (run with
//! `RUSTFLAGS="--cfg loom" cargo test -p stampede --lib loom_`).
//!
//! `aru-metrics` has the mirror shim for the trace recorder
//! (`aru_metrics::sync`). See DESIGN.md §10 for the lane matrix.

#[cfg(not(loom))]
pub use parking_lot::{Condvar, Mutex, MutexGuard, RwLock, WaitTimeoutResult};

#[cfg(loom)]
pub use self::loom_shim::{Condvar, Mutex, MutexGuard, RwLock, WaitTimeoutResult};

/// Atomic types routed through the same cfg switch as the locks, so the
/// lock-free ring and seqlock (DESIGN.md §14) model-check under the same
/// loom lane as the blocking protocols. The vendored loom stand-in
/// executes every ordering as SeqCst; the `Ordering` re-export keeps the
/// production orderings in the source where they are reviewed, while the
/// model checks the SC over-approximation.
///
/// The loom stand-in implements `load`/`store`/`swap`/`compare_exchange`
/// (plus `fetch_add`/`fetch_sub` on the integer types) — richer RMWs
/// (`fetch_max`, `fetch_or`) must be written as `compare_exchange` loops
/// by callers that need to model-check.
pub mod atomic {
    #[cfg(not(loom))]
    pub use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};

    #[cfg(loom)]
    pub use loom::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
}

#[cfg(loom)]
mod loom_shim {
    //! parking_lot-shaped facade over `loom::sync`.
    //!
    //! The API difference being papered over: parking_lot's `lock()`
    //! returns the guard directly (no `Result`), and its `Condvar` waits
    //! on `&mut MutexGuard` instead of consuming and returning the guard.
    //! The guard therefore holds the loom guard in an `Option` that a wait
    //! temporarily takes — the same trick the vendored `parking_lot` shim
    //! plays over `std::sync`.

    use std::fmt;
    use std::ops::{Deref, DerefMut};
    use std::sync::PoisonError;
    use std::time::Duration;

    /// Model-checked mutex with the parking_lot API.
    pub struct Mutex<T> {
        inner: loom::sync::Mutex<T>,
    }

    impl<T> Mutex<T> {
        pub fn new(value: T) -> Self {
            Mutex {
                inner: loom::sync::Mutex::new(value),
            }
        }

        pub fn lock(&self) -> MutexGuard<'_, T> {
            MutexGuard {
                inner: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
            }
        }

        /// `None` when another thread holds the lock; like `lock`, it hands
        /// out a poisoned lock's guard.
        pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
            let g = self.inner.try_lock().ok()?;
            Some(MutexGuard { inner: Some(g) })
        }

        pub fn into_inner(self) -> T {
            self.inner
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)
        }
    }

    impl<T: Default> Default for Mutex<T> {
        fn default() -> Self {
            Mutex::new(T::default())
        }
    }

    impl<T> fmt::Debug for Mutex<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Mutex")
        }
    }

    /// Guard for [`Mutex`]; the `Option` lets [`Condvar`] take it across a
    /// wait.
    pub struct MutexGuard<'a, T> {
        inner: Option<loom::sync::MutexGuard<'a, T>>,
    }

    impl<T> Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            self.inner.as_ref().expect("guard present")
        }
    }

    impl<T> DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.inner.as_mut().expect("guard present")
        }
    }

    /// Result of a timed condition-variable wait.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct WaitTimeoutResult {
        timed_out: bool,
    }

    impl WaitTimeoutResult {
        #[must_use]
        pub fn timed_out(&self) -> bool {
            self.timed_out
        }
    }

    /// Model-checked condvar with the parking_lot API. A modeled timed
    /// wait has no real clock: loom may fire the timeout at any scheduling
    /// point, which explores both the notified and the timed-out path.
    #[derive(Default)]
    pub struct Condvar {
        inner: loom::sync::Condvar,
    }

    impl Condvar {
        pub fn new() -> Self {
            Condvar {
                inner: loom::sync::Condvar::new(),
            }
        }

        pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
            let g = guard.inner.take().expect("guard present");
            let g = self.inner.wait(g).unwrap_or_else(PoisonError::into_inner);
            guard.inner = Some(g);
        }

        pub fn wait_for<T>(
            &self,
            guard: &mut MutexGuard<'_, T>,
            timeout: Duration,
        ) -> WaitTimeoutResult {
            let g = guard.inner.take().expect("guard present");
            let (g, res) = self
                .inner
                .wait_timeout(g, timeout)
                .unwrap_or_else(PoisonError::into_inner);
            guard.inner = Some(g);
            WaitTimeoutResult {
                timed_out: res.timed_out(),
            }
        }

        pub fn notify_one(&self) {
            self.inner.notify_one();
        }

        pub fn notify_all(&self) {
            self.inner.notify_all();
        }
    }

    impl fmt::Debug for Condvar {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Condvar")
        }
    }

    /// Model-checked reader-writer lock (exclusive under loom; see the
    /// loom stand-in's docs).
    pub struct RwLock<T> {
        inner: loom::sync::RwLock<T>,
    }

    impl<T> RwLock<T> {
        pub fn new(value: T) -> Self {
            RwLock {
                inner: loom::sync::RwLock::new(value),
            }
        }

        pub fn read(&self) -> loom::sync::RwLockReadGuard<'_, T> {
            self.inner.read().unwrap_or_else(PoisonError::into_inner)
        }

        pub fn write(&self) -> loom::sync::RwLockWriteGuard<'_, T> {
            self.inner.write().unwrap_or_else(PoisonError::into_inner)
        }
    }

    impl<T: Default> Default for RwLock<T> {
        fn default() -> Self {
            RwLock::new(T::default())
        }
    }

    impl<T> fmt::Debug for RwLock<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("RwLock")
        }
    }
}
