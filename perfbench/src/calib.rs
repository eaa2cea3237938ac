//! Host-speed calibration.
//!
//! On a shared host the same code runs up to ~20% slower in one minute
//! than in the next, which no amount of repetition inside one run averages
//! out. Each timed phase is therefore bracketed by a fixed reference
//! computation (the benchmark's own code, not the repository's), and the
//! phase's host seconds are rescaled to a nominal host on which the
//! reference takes [`NOMINAL_REF_S`]. Calibrated seconds keep their unit;
//! a change to the measured code moves them as it moves wall-clock time,
//! while a slow host epoch moves the reference with it. The raw wall-clock
//! figures are reported next to them.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// The reference computation's host seconds on the nominal host.
pub const NOMINAL_REF_S: f64 = 0.025;

/// Entries of the reference's event queue and words of its slab: a working
/// set of ~5 MB, beyond the private caches like the simulator's own.
const QUEUE: u64 = 1 << 16;
const SLAB: usize = 1 << 19;

/// Host seconds of the reference computation: a binary-heap event queue
/// popped and refilled with random updates to a large slab, the shape of
/// the simulator's inner loop. The buffers are allocated once per thread,
/// so page faults stay out of every timing after the first.
pub fn reference_secs() -> f64 {
    type Buffers = (BinaryHeap<Reverse<(u64, u64)>>, Vec<u64>);
    thread_local! {
        static BUFFERS: RefCell<Buffers> =
            RefCell::new((BinaryHeap::with_capacity(QUEUE as usize), vec![1; SLAB]));
    }
    BUFFERS.with_borrow_mut(|(heap, slab)| {
        let started = Instant::now();
        heap.clear();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = || {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            x
        };
        for id in 0..QUEUE {
            heap.push(Reverse((next() >> 40, id)));
        }
        for _ in 0..90_000 {
            let Reverse((t, id)) = heap.pop().expect("the heap never drains");
            let r = next();
            let slot = (r >> 45) as usize;
            slab[slot] = slab[slot].wrapping_add(t ^ id);
            heap.push(Reverse((t + (r >> 44), id)));
        }
        black_box(&slab);
        started.elapsed().as_secs_f64()
    })
}

/// Converts host seconds of consecutive phases to calibrated seconds.
pub struct Calib {
    before: f64,
    refs: Vec<f64>,
}

impl Calib {
    /// Starts a calibrated sequence with one reference measurement.
    pub fn start() -> Calib {
        let before = reference_secs();
        Calib {
            before,
            refs: vec![before],
        }
    }

    /// Calibrated seconds of a phase that took `secs` host seconds and
    /// ended just now: rescaled by the mean of the reference measured
    /// before it and one measured now. Returns the scale factor too, for
    /// samples taken inside the phase.
    pub fn phase(&mut self, secs: f64) -> (f64, f64) {
        let after = reference_secs();
        let factor = NOMINAL_REF_S / ((self.before + after) / 2.0);
        self.before = after;
        self.refs.push(after);
        (secs * factor, factor)
    }

    /// Every reference measurement so far, in host seconds.
    pub fn refs(&self) -> &[f64] {
        &self.refs
    }
}
