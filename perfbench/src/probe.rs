//! What the traced build adds around each call into a layer: spans kept
//! in memory, a counting allocator and telemetry snapshot deltas. In the
//! untraced build every probe compiles to nothing, so the end-to-end
//! figures are measured without them.

/// Kind of a recorded span.
#[cfg_attr(not(feature = "traced"), allow(dead_code))]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    Insert = 0,
    /// `delete_min` that returned an item.
    DeleteHit = 1,
    /// `delete_min` that returned `None`.
    DeleteEmpty = 2,
    /// One timed pass of a ladder rung.
    Rung = 3,
}

/// One span: a call into a layer. `subject` indexes the queue set (or
/// the ladder's rung list for [`Kind::Rung`]); `round` is the round (or
/// ladder pass) it belongs to.
#[cfg_attr(not(feature = "traced"), allow(dead_code))]
#[derive(Clone, Copy, Debug)]
#[repr(C)]
pub struct Span {
    pub start_ns: u64,
    pub dur_ns: u32,
    pub kind: u8,
    pub subject: u8,
    pub round: u8,
    pub thread: u8,
}

#[cfg(feature = "traced")]
mod imp {
    use super::{Kind, Span};
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Instant;

    /// Heap bytes currently allocated through the global allocator.
    static LIVE: AtomicU64 = AtomicU64::new(0);

    struct Counting;

    // SAFETY: every call is forwarded unchanged to `System`; the counter
    // is a statistic and publishes no other data, so `Relaxed` suffices.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            // SAFETY: same contract as the caller's.
            let p = unsafe { System.alloc(layout) };
            if !p.is_null() {
                LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
            }
            p
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            // SAFETY: same contract as the caller's.
            let p = unsafe { System.alloc_zeroed(layout) };
            if !p.is_null() {
                LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
            }
            p
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: same contract as the caller's.
            unsafe { System.dealloc(ptr, layout) };
            LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            // SAFETY: same contract as the caller's.
            let p = unsafe { System.realloc(ptr, layout, new_size) };
            if !p.is_null() {
                LIVE.fetch_add(new_size as u64, Ordering::Relaxed);
                LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
            }
            p
        }
    }

    #[global_allocator]
    static ALLOC: Counting = Counting;

    pub fn live_bytes() -> u64 {
        LIVE.load(Ordering::Relaxed)
    }

    pub type Stamp = Instant;

    /// One thread's spans. The buffer is allocated up front and never
    /// grows, so recording allocates nothing inside a measured pass;
    /// spans past its capacity are counted as dropped.
    pub struct Spans {
        origin: Instant,
        buf: Vec<Span>,
        dropped: u64,
        subject: u8,
        round: u8,
        thread: u8,
    }

    impl Spans {
        pub fn new(origin: Instant, capacity: usize, thread: u8) -> Self {
            Self {
                origin,
                buf: Vec::with_capacity(capacity),
                dropped: 0,
                subject: 0,
                round: 0,
                thread,
            }
        }

        pub fn label(&mut self, subject: usize, round: usize) {
            self.subject = subject as u8;
            self.round = round.min(u8::MAX as usize) as u8;
        }

        #[inline]
        pub fn start(&self) -> Stamp {
            Instant::now()
        }

        #[inline]
        pub fn end(&mut self, start: Stamp, kind: Kind) {
            let end = Instant::now();
            if self.buf.len() == self.buf.capacity() {
                self.dropped += 1;
                return;
            }
            self.buf.push(Span {
                start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
                dur_ns: end
                    .saturating_duration_since(start)
                    .as_nanos()
                    .min(u32::MAX as u128) as u32,
                kind: kind as u8,
                subject: self.subject,
                round: self.round,
                thread: self.thread,
            });
        }

        pub fn spans(&self) -> &[Span] {
            &self.buf
        }

        pub fn dropped(&self) -> u64 {
            self.dropped
        }
    }
}

#[cfg(not(feature = "traced"))]
mod imp {
    use super::Kind;
    use std::time::Instant;

    pub fn live_bytes() -> u64 {
        0
    }

    /// Untraced build: no clock read.
    #[derive(Clone, Copy)]
    pub struct Stamp;

    /// Untraced build: records nothing.
    pub struct Spans;

    impl Spans {
        pub fn new(_origin: Instant, _capacity: usize, _thread: u8) -> Self {
            Spans
        }

        pub fn label(&mut self, _subject: usize, _round: usize) {}

        #[inline(always)]
        pub fn start(&self) -> Stamp {
            Stamp
        }

        #[inline(always)]
        pub fn end(&mut self, _start: Stamp, _kind: Kind) {}
    }
}

pub use imp::{live_bytes, Spans};

/// Whether this binary is the traced build.
pub const TRACED: bool = cfg!(feature = "traced");
