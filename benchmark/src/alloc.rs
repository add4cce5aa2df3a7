//! Counting global allocator: allocations, bytes requested and live heap.
//!
//! Always installed, so the traced and untraced passes run the same
//! binary and pay the same three relaxed adds per allocation; the
//! counters are only *read* in the traced pass.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

// Statistics only: nothing is published through these, so Relaxed.
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);

pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state and cannot allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        COUNT.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller guarantees `layout` has non-zero size.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        COUNT.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // Wrapping add of the (possibly negative) size change.
        LIVE.fetch_add(
            (new_size as u64).wrapping_sub(layout.size() as u64),
            Ordering::Relaxed,
        );
        // SAFETY: the caller guarantees `ptr`/`layout` describe a live
        // block of this allocator and that `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// A reading of the three counters.
#[derive(Clone, Copy)]
pub struct AllocSnapshot {
    pub count: u64,
    pub bytes: u64,
    pub live: u64,
}

pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        count: COUNT.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
        live: LIVE.load(Ordering::Relaxed),
    }
}
