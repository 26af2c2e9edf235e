//! The two things in the workspace that need `unsafe`: a minimal
//! async-signal-safe SIGINT/SIGTERM latch, and a cache prefetch hint.
//!
//! This is the only crate in the workspace that is not
//! `#![forbid(unsafe_code)]` (CI checks every other library root), and
//! every `unsafe` block in it states why it is sound in a `// SAFETY:`
//! comment (`clippy::undocumented_unsafe_blocks` is denied).
//!
//! # The signal latch
//!
//! The `eproc` CLI wants exactly one thing from POSIX signals: when the
//! user presses Ctrl-C (or the scheduler sends SIGTERM), flip a boolean
//! that the work-stealing executor polls between blocks, so in-flight
//! work drains, a final checkpoint is written, and the process exits
//! cleanly with a "resumable" status instead of dying mid-write.
//! Registering the handler takes two `extern "C"` calls (`signal`, plus
//! `raise` for the self-test). The handler body is async-signal-safe —
//! it performs a single relaxed store into a `static AtomicBool` and
//! nothing else (no allocation, no locks, no formatting).
//!
//! On non-Unix targets [`install`] is a no-op that still hands back the
//! latch, so callers need no platform gates of their own.
//!
//! # The prefetch hint
//!
//! [`prefetch`] asks the CPU to start loading the cache line that holds
//! a value and returns at once. A walk step calls it on the lines its
//! *next* step reads, so their misses are in flight while the rest of
//! the step — and, in lockstep lanes, the other walks' steps — run.
//! Stable Rust exposes the x86_64 instruction only as an `unsafe`
//! intrinsic; elsewhere the hint falls back to a plain load.

#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

use std::sync::atomic::{AtomicBool, Ordering};

/// The process-wide interruption latch. `false` until a handled signal
/// arrives; never reset (a latched interruption stays latched).
static INTERRUPTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod imp {
    use super::{AtomicBool, Ordering, INTERRUPTED};

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    // `signal(2)` and `raise(3)` from libc, which std already links.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
        #[cfg(test)]
        fn raise(sig: i32) -> i32;
    }

    /// The registered handler: one relaxed store, nothing else. Every
    /// operation here must be async-signal-safe.
    extern "C" fn on_signal(_signum: i32) {
        INTERRUPTED.store(true, Ordering::Relaxed);
    }

    pub(super) fn install() -> &'static AtomicBool {
        // Idempotent: re-registering the same handler is harmless, so no
        // once-guard is needed.
        // SAFETY: `signal` is called with valid signal numbers and the
        // address of an `extern "C" fn(i32)` that lives for the whole
        // program and only performs an atomic store, which is
        // async-signal-safe.
        unsafe {
            signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
            signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
        }
        &INTERRUPTED
    }

    #[cfg(test)]
    pub(super) fn raise_sigint() {
        // SAFETY: `raise` takes a plain signal number; the test installs
        // the handler above first, so SIGINT only flips the latch.
        unsafe {
            raise(SIGINT);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    use super::{AtomicBool, INTERRUPTED};

    pub(super) fn install() -> &'static AtomicBool {
        // No signal(2) on this target; the latch simply never fires.
        &INTERRUPTED
    }
}

/// Registers handlers for SIGINT and SIGTERM (on Unix; a no-op
/// elsewhere) and returns the shared latch they flip.
///
/// Safe to call more than once. The returned reference is `'static`, so
/// it can be handed to scoped worker threads without lifetime plumbing.
pub fn install() -> &'static AtomicBool {
    imp::install()
}

/// Reports whether a handled signal has arrived since [`install`].
///
/// Always `false` if [`install`] was never called (or on non-Unix
/// targets, where no handler exists to flip the latch).
pub fn interrupted() -> bool {
    INTERRUPTED.load(Ordering::Relaxed)
}

/// Requests the cache line holding `*value` into every cache level
/// without waiting for it: `prefetcht0` on x86_64, and a load through
/// [`std::hint::black_box`] elsewhere.
///
/// The hint changes no value and cannot fail. Unlike a load, the
/// prefetch instruction retires without its data, so nothing queues
/// behind the miss.
#[inline(always)]
pub fn prefetch<T: Copy>(value: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `prefetcht0` is only a hint: it never faults, not even on
    // an unmapped address, and writes no memory and no register the
    // program can observe. The pointer comes from a live reference, and
    // SSE, which the instruction belongs to, is part of the x86_64
    // baseline.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>((value as *const T).cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    std::hint::black_box(*value);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(unix)]
    fn sigint_flips_the_latch() {
        let latch = install();
        assert!(!latch.load(Ordering::Relaxed));
        imp::raise_sigint();
        assert!(interrupted());
        assert!(latch.load(Ordering::Relaxed));
    }

    #[test]
    #[cfg(not(unix))]
    fn install_is_a_quiet_no_op() {
        let latch = install();
        assert!(!latch.load(Ordering::Relaxed));
        assert!(!interrupted());
    }

    #[test]
    fn prefetch_leaves_every_value_as_it_was() {
        let words: Vec<u32> = (0..1024).collect();
        let rows = [[7u32, 3], [9, 0]];
        for w in &words {
            prefetch(w);
        }
        prefetch(&rows[1]);
        prefetch(&0u16);
        assert!(words.iter().enumerate().all(|(i, &w)| w as usize == i));
        assert_eq!(rows, [[7, 3], [9, 0]]);
    }
}
