//! A counting wrapper around the system allocator.
//!
//! [`CountingAlloc`] forwards every call to [`std::alloc::System`] and,
//! while counting is [`enable`]d, maintains three families of counters:
//!
//! * **per-thread** cumulative allocated bytes and allocation events
//!   (thread-local [`Cell`]s — no synchronization, no contention), read
//!   with [`thread_stats`] and differenced around a span of interest;
//! * **process-wide live bytes** (allocations minus frees), an RSS
//!   *proxy* — it ignores allocator slack, fragmentation, stacks and
//!   code, but tracks heap pressure without any OS dependency;
//! * the **peak** of live bytes since the last [`reset_peak`].
//!
//! Caveats (see DESIGN.md §10): counting is exhaustive, not sampled;
//! frees of memory allocated before counting was enabled can drive the
//! live counter negative (it is signed and the peak is clamped at zero);
//! per-thread counters survive `enable(false)`/`enable(true)` cycles —
//! only *deltas* between two [`thread_stats`] reads are meaningful.
//!
//! The wrapper is deliberately *not* installed by this crate: a library
//! must not impose a global allocator. Binaries opt in with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: obs::CountingAlloc = obs::CountingAlloc::new();
//! ```
//!
//! and counting stays disabled (a single relaxed load per call) until
//! [`enable`]d, so uninstrumented runs pay near-zero overhead.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};

// sync: Relaxed everywhere in this module — the counters are purely
// statistical; nothing reads them to establish happens-before with
// other memory, and deltas are taken on the same thread that wrote them
// (thread-locals) or after a scope join (the global live/peak pair).
static ENABLED: AtomicBool = AtomicBool::new(false);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static PEAK_BYTES: AtomicI64 = AtomicI64::new(0);

thread_local! {
    // const-initialized Cells: no lazy allocation and no destructor, so
    // touching them from inside the allocator cannot recurse and stays
    // safe during thread teardown.
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
    static THREAD_EVENTS: Cell<u64> = const { Cell::new(0) };
}

/// Cumulative per-thread allocation counters at one instant.
///
/// Absolute values are meaningless across enable/disable cycles; take
/// the difference of two reads on the same thread to attribute bytes to
/// a span.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct AllocStats {
    /// Bytes allocated on this thread since it first allocated while
    /// counting was enabled.
    pub bytes: u64,
    /// Allocation events (alloc/realloc calls) on this thread.
    pub events: u64,
}

impl AllocStats {
    /// Counter increase from `earlier` to `self` (same thread).
    /// Saturates at zero if the reads are swapped.
    #[must_use]
    pub fn since(&self, earlier: AllocStats) -> AllocStats {
        AllocStats {
            bytes: self.bytes.saturating_sub(earlier.bytes),
            events: self.events.saturating_sub(earlier.events),
        }
    }
}

/// Turns counting on or off process-wide and returns the previous state.
pub fn enable(on: bool) -> bool {
    // sync: Relaxed — see module header; the flag gates statistics only.
    ENABLED.swap(on, Ordering::Relaxed)
}

/// Whether counting is currently enabled.
#[must_use]
pub fn enabled() -> bool {
    // sync: Relaxed — see module header; the flag gates statistics only.
    ENABLED.load(Ordering::Relaxed)
}

/// RAII guard: enables counting on construction, restores the previous
/// state on drop. Safe to nest.
#[derive(Debug)]
pub struct ScopedEnable {
    prev: bool,
}

impl ScopedEnable {
    /// Enables counting until the guard drops.
    #[must_use]
    pub fn new() -> ScopedEnable {
        ScopedEnable { prev: enable(true) }
    }
}

impl Default for ScopedEnable {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for ScopedEnable {
    fn drop(&mut self) {
        enable(self.prev);
    }
}

/// Reads the calling thread's cumulative counters.
#[must_use]
pub fn thread_stats() -> AllocStats {
    let bytes = THREAD_BYTES.try_with(Cell::get).unwrap_or(0);
    let events = THREAD_EVENTS.try_with(Cell::get).unwrap_or(0);
    AllocStats { bytes, events }
}

/// Process-wide live heap bytes (allocated minus freed while counting
/// was enabled). Negative when counting was enabled after allocations
/// it later saw freed.
#[must_use]
pub fn live_bytes() -> i64 {
    // sync: Relaxed — see module header; statistical read.
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Peak of [`live_bytes`] since the last [`reset_peak`], clamped at 0.
#[must_use]
pub fn peak_bytes() -> u64 {
    // sync: Relaxed — see module header; statistical read.
    PEAK_BYTES.load(Ordering::Relaxed).max(0) as u64
}

/// Resets the peak watermark to the current live level.
pub fn reset_peak() {
    // sync: Relaxed — see module header; statistical counters, and a
    // racing allocation between the two calls only shifts the baseline.
    PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

#[inline]
fn record_alloc(size: usize) {
    if !enabled() || size == 0 {
        return;
    }
    // try_with: never allocates (const-init Cell) and tolerates thread
    // teardown; a missed count there is acceptable noise.
    let _ = THREAD_BYTES.try_with(|c| c.set(c.get().wrapping_add(size as u64)));
    let _ = THREAD_EVENTS.try_with(|c| c.set(c.get().wrapping_add(1)));
    // sync: Relaxed — see module header; statistical counters.
    let live = LIVE_BYTES.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
    // sync: Relaxed — see module header; fetch_max keeps the watermark
    // monotone under concurrent updates, which is all peak needs.
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

#[inline]
fn record_dealloc(size: usize) {
    if !enabled() || size == 0 {
        return;
    }
    // sync: Relaxed — see module header; statistical counters.
    LIVE_BYTES.fetch_sub(size as i64, Ordering::Relaxed);
}

/// Counting global allocator wrapping [`System`]; see the module docs.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingAlloc;

impl CountingAlloc {
    /// A const constructor usable in `#[global_allocator]` statics.
    #[must_use]
    pub const fn new() -> CountingAlloc {
        CountingAlloc
    }
}

// SAFETY: every method forwards verbatim to `System`, which upholds the
// GlobalAlloc contract; the bookkeeping on the side touches only atomics
// and const-initialized thread-local Cells, neither of which allocates,
// so the wrapper cannot recurse or alter allocation behavior.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            record_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            record_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        record_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // Count the grown copy as one event of `new_size` bytes and
            // retire the old block, mirroring a fresh alloc + dealloc.
            record_alloc(new_size);
            record_dealloc(layout.size());
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// Serializes the tests that toggle the global `ENABLED` flag: the
    /// test runner runs them on parallel threads.
    static FLAG: Mutex<()> = Mutex::new(());

    /// Holds the flag for one test; a test that panicked while holding
    /// it left nothing to repair, so poisoning is ignored.
    fn hold_flag() -> MutexGuard<'static, ()> {
        FLAG.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn scoped_enable_restores_previous_state() {
        let _flag = hold_flag();
        let before = enabled();
        {
            let _g = ScopedEnable::new();
            assert!(enabled());
            {
                let _inner = ScopedEnable::new();
                assert!(enabled());
            }
            assert!(enabled());
        }
        assert_eq!(enabled(), before);
    }

    #[test]
    fn stats_since_is_a_saturating_difference() {
        let a = AllocStats {
            bytes: 10,
            events: 2,
        };
        let b = AllocStats {
            bytes: 25,
            events: 5,
        };
        assert_eq!(
            b.since(a),
            AllocStats {
                bytes: 15,
                events: 3
            }
        );
        assert_eq!(a.since(b), AllocStats::default());
    }

    #[test]
    fn counters_are_inert_without_an_installed_allocator() {
        // The unit-test binary does not install CountingAlloc, so even
        // with counting enabled nothing ticks — the API must still be
        // callable and self-consistent.
        let _flag = hold_flag();
        let _g = ScopedEnable::new();
        let t0 = thread_stats();
        let v: Vec<u64> = (0..1024).collect();
        assert_eq!(v.len(), 1024);
        let t1 = thread_stats();
        assert_eq!(t1.since(t0), AllocStats::default());
        reset_peak();
        let _ = (live_bytes(), peak_bytes());
    }
}
