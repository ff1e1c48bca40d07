//! A counting wrapper around the system allocator. Counting is switched on
//! by the traced run only; otherwise an allocation pays one relaxed flag
//! load, the same on every commit.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

pub struct Counting;

// Statistics only: none of these publishes other data.
static ON: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters never influence the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Relaxed) {
            COUNT.fetch_add(1, Relaxed);
            BYTES.fetch_add(layout.size() as u64, Relaxed);
            LIVE.fetch_add(layout.size() as u64, Relaxed);
        }
        // SAFETY: the caller's layout is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as u64, Relaxed);
        }
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Relaxed) {
            COUNT.fetch_add(1, Relaxed);
            BYTES.fetch_add(new_size as u64, Relaxed);
            LIVE.fetch_add(new_size as u64, Relaxed);
            LIVE.fetch_sub(layout.size() as u64, Relaxed);
        }
        // SAFETY: `ptr`/`layout` came from `System`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Start counting. Memory allocated before this point and freed after it
/// would drive `LIVE` below zero, so it wraps; `live_bytes` reads it as a
/// signed delta from this moment.
pub fn enable() {
    ON.store(true, Relaxed);
}

#[derive(Debug, Clone, Copy)]
pub struct Snapshot {
    pub count: u64,
    pub bytes: u64,
    /// Bytes allocated minus bytes freed since counting began.
    pub live: i64,
}

pub fn snapshot() -> Snapshot {
    Snapshot {
        count: COUNT.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        live: LIVE.load(Relaxed) as i64,
    }
}
