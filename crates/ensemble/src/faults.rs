//! Named fault-injection registry: the serving stack's failpoints.
//!
//! Production fault-tolerance code is exactly the code that never runs in
//! a healthy process, so it rots unless failures can be manufactured on
//! demand. This module gives every interesting failure site a *name* and
//! lets tests (and the chaos suite) arm those names with an action:
//!
//! * [`FaultAction::Panic`] — the site panics (a worker death, at the
//!   worst possible place: [`sites::QUEUE_POP`] fires while the queue
//!   mutex is held, so the panic also poisons the lock);
//! * [`FaultAction::Stall`] — the site sleeps, simulating a wedged
//!   worker, slow disk, or scheduling hiccup;
//! * [`FaultAction::Error`] — the site returns its typed error;
//! * [`FaultAction::Corrupt`] — the site flips bits in the data it just
//!   read (e.g. [`sites::ARTIFACT_READ`] corrupts the artifact bytes so
//!   the CRC check must catch them).
//!
//! Sites call [`trigger`] with their name. Disarmed sites cost one
//! relaxed atomic load; in release builds without the `failpoints`
//! feature the whole registry compiles to a no-op and [`trigger`] is a
//! constant `None`.
//!
//! The registry is process-global (failure sites are reached from worker
//! threads that tests do not own), so tests serialize through
//! [`scope`]: it holds a global lock for the test's duration and disarms
//! everything — including panic-interrupted leftovers — when dropped.
//!
//! ```
//! use mn_ensemble::faults::{self, FaultAction};
//! use std::time::Duration;
//!
//! let scope = faults::scope();
//! scope.enable_times(faults::sites::WORKER_EVAL, FaultAction::Stall(Duration::from_millis(1)), 1);
//! // ... drive a server; the first micro-batch eval stalls 1ms ...
//! assert_eq!(faults::fired(faults::sites::WORKER_EVAL), 0); // not hit yet
//! drop(scope); // everything disarmed
//! ```

use std::time::Duration;

/// The failure sites wired into the serving stack, by name.
pub mod sites {
    /// Fires when a worker dequeues a request, **while the queue mutex is
    /// held** — a panic here is the worst-case worker death (the lock is
    /// left poisoned and the popped request is dropped unanswered).
    pub const QUEUE_POP: &str = "serve.queue.pop";
    /// Fires on a worker after it closed a micro-batch, just before the
    /// engine call — a panic here orphans the whole batch. The worker
    /// already counts as evaluating here, so a stall keeps the other
    /// shards' small batches open, as a slow eval would.
    pub const WORKER_EVAL: &str = "serve.worker.eval";
    /// Fires after an artifact file's bytes are read, before parsing —
    /// `Corrupt` flips a payload byte (the CRC must catch it), `Error`
    /// injects an I/O failure.
    pub const ARTIFACT_READ: &str = "artifact.read";
    /// Fires on a worker after it drained the closed queue, just before
    /// its clean exit — a panic here is a death during graceful shutdown.
    pub const SHUTDOWN_DRAIN: &str = "serve.shutdown.drain";
}

/// What an armed failpoint does when its site is reached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic at the site (in whatever thread reached it).
    Panic,
    /// Sleep this long at the site, then continue normally.
    Stall(Duration),
    /// Make the site return its typed error.
    Error,
    /// Make the site corrupt the data it just produced.
    Corrupt,
}

/// Returned by [`trigger`] for the actions the *site* must apply
/// ([`FaultAction::Panic`] and [`FaultAction::Stall`] are executed by the
/// registry itself).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Injected {
    /// The site should fail with its typed error.
    Error,
    /// The site should corrupt its data.
    Corrupt,
}

#[cfg(any(test, debug_assertions, feature = "failpoints"))]
mod imp {
    use super::{FaultAction, Injected};
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Mutex, MutexGuard, OnceLock};

    struct Armed {
        action: FaultAction,
        /// `None` = fire every time; `Some(n)` = fire `n` more times,
        /// then disarm.
        remaining: Option<u64>,
    }

    #[derive(Default)]
    struct Registry {
        armed: HashMap<String, Armed>,
        fired: HashMap<String, u64>,
    }

    /// Fast path: number of currently armed failpoints. Zero (the
    /// steady state) means [`trigger`] returns without taking any lock.
    static ARMED_COUNT: AtomicUsize = AtomicUsize::new(0);

    fn registry() -> &'static Mutex<Registry> {
        static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
        REGISTRY.get_or_init(Mutex::default)
    }

    /// Locks the registry, recovering from poisoning (an injected panic
    /// unwinding a worker can never be allowed to wedge the registry —
    /// the map is structurally valid at every panic point).
    fn lock() -> MutexGuard<'static, Registry> {
        registry().lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A test's exclusive lease on the process-global registry: arms
    /// faults, and disarms everything when dropped. See [`super::scope`].
    pub struct FaultScope {
        _serial: MutexGuard<'static, ()>,
    }

    pub fn scope() -> FaultScope {
        static SERIAL: Mutex<()> = Mutex::new(());
        // A previous test panicking mid-scope must not wedge the suite.
        let serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        FaultScope { _serial: serial }
    }

    impl FaultScope {
        /// Arms `name` to fire on every hit until disarmed.
        pub fn enable(&self, name: &str, action: FaultAction) {
            arm(name, action, None);
        }

        /// Arms `name` to fire on the next `times` hits, then disarm
        /// itself.
        pub fn enable_times(&self, name: &str, action: FaultAction, times: u64) {
            arm(name, action, Some(times));
        }

        /// Disarms `name` (hits so far stay counted).
        pub fn disable(&self, name: &str) {
            let mut reg = lock();
            if reg.armed.remove(name).is_some() {
                ARMED_COUNT.fetch_sub(1, Ordering::Release);
            }
        }
    }

    impl Drop for FaultScope {
        fn drop(&mut self) {
            reset();
        }
    }

    fn arm(name: &str, action: FaultAction, remaining: Option<u64>) {
        if remaining == Some(0) {
            return;
        }
        let mut reg = lock();
        if reg
            .armed
            .insert(name.to_string(), Armed { action, remaining })
            .is_none()
        {
            ARMED_COUNT.fetch_add(1, Ordering::Release);
        }
    }

    fn reset() {
        let mut reg = lock();
        reg.armed.clear();
        reg.fired.clear();
        ARMED_COUNT.store(0, Ordering::Release);
    }

    pub fn fired(name: &str) -> u64 {
        lock().fired.get(name).copied().unwrap_or(0)
    }

    pub fn trigger(name: &str) -> Option<Injected> {
        if ARMED_COUNT.load(Ordering::Acquire) == 0 {
            return None;
        }
        let action = {
            let mut reg = lock();
            let action = match reg.armed.get_mut(name) {
                Some(armed) => {
                    let action = armed.action;
                    let disarm = match &mut armed.remaining {
                        Some(n) => {
                            *n -= 1;
                            *n == 0
                        }
                        None => false,
                    };
                    if disarm {
                        reg.armed.remove(name);
                        ARMED_COUNT.fetch_sub(1, Ordering::Release);
                    }
                    action
                }
                None => return None,
            };
            *reg.fired.entry(name.to_string()).or_insert(0) += 1;
            action
        };
        match action {
            FaultAction::Panic => panic!("injected fault: {name}"),
            FaultAction::Stall(d) => {
                std::thread::sleep(d);
                None
            }
            FaultAction::Error => Some(Injected::Error),
            FaultAction::Corrupt => Some(Injected::Corrupt),
        }
    }
}

#[cfg(not(any(test, debug_assertions, feature = "failpoints")))]
mod imp {
    use super::{FaultAction, Injected};

    /// No-op stand-in: release builds without the `failpoints` feature
    /// carry no registry at all.
    pub struct FaultScope {}

    pub fn scope() -> FaultScope {
        FaultScope {}
    }

    impl FaultScope {
        pub fn enable(&self, _name: &str, _action: FaultAction) {}
        pub fn enable_times(&self, _name: &str, _action: FaultAction, _times: u64) {}
        pub fn disable(&self, _name: &str) {}
    }

    pub fn fired(_name: &str) -> u64 {
        0
    }

    #[inline(always)]
    pub fn trigger(_name: &str) -> Option<Injected> {
        None
    }
}

pub use imp::FaultScope;

/// Takes the process-global fault lease: arms nothing yet, but
/// serializes fault-using tests against each other and guarantees every
/// failpoint is disarmed when the returned scope drops. All arming goes
/// through the scope ([`FaultScope::enable`] /
/// [`FaultScope::enable_times`] / [`FaultScope::disable`]) so a test
/// cannot leak an armed fault into its neighbors.
pub fn scope() -> FaultScope {
    imp::scope()
}

/// How many times the failpoint `name` has fired under the current
/// [`scope`] (0 when disarmed the whole time, or in no-op builds).
pub fn fired(name: &str) -> u64 {
    imp::fired(name)
}

/// Called by failure sites: executes `name`'s armed action, if any.
/// Panics/stalls happen inside; `Error`/`Corrupt` are returned for the
/// site to apply. Disarmed (the steady state): one atomic load, `None`.
pub fn trigger(name: &str) -> Option<Injected> {
    imp::trigger(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_sites_are_silent() {
        let _scope = scope();
        assert_eq!(trigger("nope"), None);
        assert_eq!(fired("nope"), 0);
    }

    #[test]
    fn counted_faults_fire_then_disarm() {
        let scope = scope();
        scope.enable_times("x", FaultAction::Error, 2);
        assert_eq!(trigger("x"), Some(Injected::Error));
        assert_eq!(trigger("x"), Some(Injected::Error));
        assert_eq!(trigger("x"), None, "fault disarms after its budget");
        assert_eq!(fired("x"), 2);
    }

    #[test]
    fn unlimited_faults_fire_until_disabled() {
        let scope = scope();
        scope.enable("y", FaultAction::Corrupt);
        for _ in 0..5 {
            assert_eq!(trigger("y"), Some(Injected::Corrupt));
        }
        scope.disable("y");
        assert_eq!(trigger("y"), None);
        assert_eq!(fired("y"), 5);
    }

    #[test]
    fn panic_action_panics_with_site_name() {
        let scope = scope();
        scope.enable_times("z", FaultAction::Panic, 1);
        let err = std::panic::catch_unwind(|| trigger("z")).unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .expect("panic carries a message");
        assert!(msg.contains("injected fault: z"), "got: {msg}");
        assert_eq!(trigger("z"), None, "one-shot panic disarmed itself");
    }

    #[test]
    fn stall_action_delays_then_continues() {
        let scope = scope();
        let d = Duration::from_millis(20);
        scope.enable_times("s", FaultAction::Stall(d), 1);
        let t0 = std::time::Instant::now();
        assert_eq!(trigger("s"), None, "stall is executed, not returned");
        assert!(t0.elapsed() >= d);
    }

    #[test]
    fn scope_drop_disarms_everything() {
        {
            let scope = scope();
            scope.enable("leak", FaultAction::Panic);
        }
        let _scope = scope();
        assert_eq!(trigger("leak"), None, "dropped scope disarmed the fault");
    }
}
