//! Minimal async-signal handling without any FFI crate: a `SIGTERM` /
//! `SIGINT` handler that flips one atomic flag.
//!
//! The handler body is restricted to a single relaxed atomic store, which
//! is async-signal-safe; `ServerHandle::run_until_term` polls the flag and
//! starts the graceful drain when it trips.

use std::sync::atomic::{AtomicBool, Ordering};

/// Set once a termination signal arrives (or [`request_term`] is called).
static TERM: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod imp {
    /// `SIGINT` on every Unix the service targets.
    pub const SIGINT: i32 = 2;
    /// `SIGTERM` on every Unix the service targets.
    pub const SIGTERM: i32 = 15;

    extern "C" {
        /// ISO C `signal(2)`; enough for a flag-only handler and avoids a
        /// dependency on a bindings crate.
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_term(_sig: i32) {
        super::TERM.store(true, std::sync::atomic::Ordering::Relaxed);
    }

    pub fn install() {
        unsafe {
            signal(SIGTERM, on_term);
            signal(SIGINT, on_term);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install() {}
}

/// Install the `SIGTERM`/`SIGINT` handler. Idempotent.
pub fn install_term_handler() {
    imp::install();
}

/// True once a termination signal has been received.
pub fn term_requested() -> bool {
    TERM.load(Ordering::Relaxed)
}

/// Programmatic termination request (tests, embedders).
pub fn request_term() {
    TERM.store(true, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn programmatic_request_is_visible() {
        install_term_handler();
        request_term();
        assert!(term_requested());
    }
}
