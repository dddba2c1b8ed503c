//! Counting global allocator with a live-heap high-water mark.
//!
//! Live bytes and their peak are process-wide and feed `peak_heap_mb`
//! and the `heap.*` figures. Allocation counts and bytes allocated are
//! kept per thread and feed span deltas, so work running at once on
//! other threads does not mix into a span's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Live-heap accounting. Both fields are statistics that publish no
/// other data, hence `Relaxed` throughout.
pub struct Heap {
    live: AtomicU64,
    peak: AtomicU64,
}

impl Heap {
    const fn new() -> Self {
        Heap {
            live: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    fn grow(&self, by: u64) {
        let live = self.live.fetch_add(by, Relaxed) + by;
        self.peak.fetch_max(live, Relaxed);
    }

    fn shrink(&self, by: u64) {
        self.live.fetch_sub(by, Relaxed);
    }

    /// A realloc moves live bytes by the size difference, either way.
    fn resize(&self, old: u64, new: u64) {
        if new >= old {
            self.grow(new - old);
        } else {
            self.shrink(old - new);
        }
    }

    /// Restart the high-water mark from the current live heap.
    pub fn reset_peak(&self) {
        self.peak.store(self.live.load(Relaxed), Relaxed);
    }

    pub fn live(&self) -> u64 {
        self.live.load(Relaxed)
    }

    pub fn peak(&self) -> u64 {
        self.peak.load(Relaxed)
    }
}

pub static HEAP: Heap = Heap::new();

thread_local! {
    // Const-initialised and drop-free, so touching them from inside the
    // allocator never allocates or registers a destructor.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// One allocation of `size` bytes by the calling thread. A realloc
/// counts as one allocation of its new size.
fn count(size: u64) {
    // `try_with` fails only during thread teardown; those allocations
    // belong to no span.
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = THREAD_BYTES.try_with(|c| c.set(c.get() + size));
}

/// `(allocations, bytes allocated)` by the calling thread so far.
pub fn thread_totals() -> (u64, u64) {
    (
        THREAD_ALLOCS.try_with(Cell::get).unwrap_or(0),
        THREAD_BYTES.try_with(Cell::get).unwrap_or(0),
    )
}

pub struct CountingAlloc;

// SAFETY: every operation is delegated unchanged to `System`; the
// bookkeeping is lock-free atomics and const thread-locals, neither of
// which allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds this method's `GlobalAlloc` contract,
        // which is forwarded unchanged.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            HEAP.grow(layout.size() as u64);
            count(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds this method's `GlobalAlloc` contract,
        // which is forwarded unchanged.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            HEAP.grow(layout.size() as u64);
            count(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds this method's `GlobalAlloc` contract,
        // which is forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) };
        HEAP.shrink(layout.size() as u64);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds this method's `GlobalAlloc` contract,
        // which is forwarded unchanged.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        // On failure the old block stays allocated and unchanged.
        if !p.is_null() {
            HEAP.resize(layout.size() as u64, new_size as u64);
            count(new_size as u64);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_bytes_and_peak_follow_grow_shrink_and_realloc() {
        let h = Heap::new();
        h.grow(100);
        h.grow(50);
        assert_eq!((h.live(), h.peak()), (150, 150));
        h.resize(100, 300);
        assert_eq!((h.live(), h.peak()), (350, 350));
        h.resize(300, 10);
        assert_eq!((h.live(), h.peak()), (60, 350), "a shrink keeps the peak");
        h.shrink(50);
        assert_eq!((h.live(), h.peak()), (10, 350));
        h.reset_peak();
        assert_eq!(h.peak(), 10);
        h.grow(5);
        assert_eq!(h.peak(), 15);
    }

    #[test]
    fn thread_totals_count_only_the_calling_thread() {
        let (a0, b0) = thread_totals();
        let v: Vec<u8> = Vec::with_capacity(4096);
        std::hint::black_box(&v);
        let (a1, b1) = thread_totals();
        assert!(a1 > a0 && b1 >= b0 + 4096);
        let before = thread_totals().1;
        std::thread::scope(|s| {
            s.spawn(|| std::hint::black_box(vec![0u8; 1 << 20]));
        });
        assert!(
            thread_totals().1 - before < 1 << 20,
            "another thread's megabyte is not charged here"
        );
    }
}
