//! The traced run's instruments: per-boundary timers, the counting
//! allocator, and a timing [`FaultFs`] wrapper.
//!
//! Every boundary is a call the benchmark makes into a layer's public
//! API, so a boundary's self time is simply the summed duration of its
//! calls: the benchmark never nests one timed call inside another.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::io;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use minim_serve::FaultFs;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

/// A global allocator that counts allocations (including reallocs)
/// while [`set_counting`] is on. Only the `perfbench-traced` binary
/// installs it, so the end-to-end runs use the plain system allocator.
pub struct CountingAlloc;

#[inline]
fn note_alloc() {
    // Relaxed: the count is a statistic and publishes no other data.
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System` upholds the `GlobalAlloc` contract; the
// counter updates touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: forwarded unchanged; the caller's layout obligations
        // are the ones `System.alloc` requires.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: `ptr`/`layout` describe a live `System` block, as the
        // caller guarantees; `new_size` is passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turns allocation counting on or off (a no-op unless
/// [`CountingAlloc`] is the global allocator).
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// The start of one timed call.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    at: Instant,
    allocs: u64,
}

impl Stamp {
    /// Now, with the allocation count so far.
    #[inline]
    pub fn now() -> Stamp {
        Stamp {
            allocs: allocs(),
            at: Instant::now(),
        }
    }
}

/// One boundary's accumulated calls.
#[derive(Debug, Default, Clone)]
pub struct Layer {
    /// Per-call durations, nanoseconds, in call order.
    samples: Vec<u64>,
    /// Allocations made inside the calls.
    pub allocs: u64,
}

impl Layer {
    /// Records one call of `ns` nanoseconds.
    pub fn record(&mut self, ns: u64) {
        self.samples.push(ns);
    }

    /// Times `f` as one call of this boundary, counting its
    /// allocations.
    #[inline]
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Stamp::now();
        let out = f();
        self.finish(start);
        out
    }

    /// Records one call that began at `start` (for calls whose result
    /// borrows, which [`Layer::time`]'s closure cannot return).
    #[inline]
    pub fn finish(&mut self, start: Stamp) {
        let ns = start.at.elapsed().as_nanos() as u64;
        self.allocs += allocs() - start.allocs;
        self.record(ns);
    }

    /// Duration of the latest call, nanoseconds (0 before any call).
    pub fn last_ns(&self) -> u64 {
        self.samples.last().copied().unwrap_or(0)
    }

    /// Number of calls.
    pub fn calls(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Summed call time, nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.samples.iter().sum()
    }

    /// Summed call time, seconds.
    pub fn self_s(&self) -> f64 {
        self.total_ns() as f64 * 1e-9
    }

    /// The `q`-quantile of the call durations, microseconds (0 when
    /// there were no calls).
    pub fn quantile_us(&self, q: f64) -> f64 {
        quantile(&self.samples, q) as f64 * 1e-3
    }

    /// Allocations per call (0 when there were no calls).
    pub fn allocs_per_call(&self) -> f64 {
        ratio(self.allocs as f64, self.calls() as f64)
    }
}

/// `num / den`, or 0 for an empty denominator.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The nearest-rank `q`-quantile of `samples` (0 when empty).
pub fn quantile(samples: &[u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// What [`TimedFs`] saw.
#[derive(Debug, Default)]
pub struct FsStats {
    /// `FaultFs::append` calls.
    pub append: Layer,
    /// `FaultFs::sync` calls.
    pub sync: Layer,
    /// `FaultFs::replace` calls (snapshot writes).
    pub replace: Layer,
    /// `FaultFs::read` calls.
    pub read: Layer,
    /// Bytes handed to `append`.
    pub bytes_appended: u64,
}

/// A [`FaultFs`] that times each journal operation of the wrapped
/// store: the serve layer's own I/O seam.
pub struct TimedFs<F> {
    inner: F,
    stats: Rc<RefCell<FsStats>>,
}

impl<F: FaultFs> TimedFs<F> {
    /// Wraps `inner`; the returned handle reads the statistics while
    /// the engine owns the store.
    pub fn new(inner: F) -> (TimedFs<F>, Rc<RefCell<FsStats>>) {
        let stats = Rc::new(RefCell::new(FsStats::default()));
        (
            TimedFs {
                inner,
                stats: Rc::clone(&stats),
            },
            stats,
        )
    }

    fn timed<T>(&mut self, pick: fn(&mut FsStats) -> &mut Layer, f: impl FnOnce(&mut F) -> T) -> T {
        let t = Instant::now();
        let out = f(&mut self.inner);
        let ns = t.elapsed().as_nanos() as u64;
        pick(&mut self.stats.borrow_mut()).record(ns);
        out
    }
}

impl<F: FaultFs> FaultFs for TimedFs<F> {
    fn read(&mut self, name: &str) -> io::Result<Vec<u8>> {
        self.timed(|s| &mut s.read, |fs| fs.read(name))
    }

    fn exists(&mut self, name: &str) -> bool {
        self.inner.exists(name)
    }

    fn list(&mut self) -> io::Result<Vec<String>> {
        self.inner.list()
    }

    fn append(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
        self.stats.borrow_mut().bytes_appended += data.len() as u64;
        self.timed(|s| &mut s.append, |fs| fs.append(name, data))
    }

    fn sync(&mut self, name: &str) -> io::Result<()> {
        self.timed(|s| &mut s.sync, |fs| fs.sync(name))
    }

    fn truncate(&mut self, name: &str, len: u64) -> io::Result<()> {
        self.inner.truncate(name, len)
    }

    fn replace(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
        self.timed(|s| &mut s.replace, |fs| fs.replace(name, data))
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        self.inner.remove(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&xs, 0.5), 50);
        assert_eq!(quantile(&xs, 0.99), 99);
        assert_eq!(quantile(&xs, 1.0), 100);
        assert_eq!(quantile(&[7], 0.99), 7);
        assert_eq!(quantile(&[], 0.5), 0);
    }
}
