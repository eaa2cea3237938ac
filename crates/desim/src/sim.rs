//! Event scheduler and simulation driver.
//!
//! A [`Simulation`] owns an arbitrary *world* `W` (the mutable state of the
//! model) and a priority queue of typed events: values of a world-chosen
//! enum `E` implementing [`Fire`]. Events are stored by value in the queue
//! with **zero per-event allocation**, from the request hot path (job
//! advancement, request issue timers, completion notifications) down to
//! rare control events (statistics resets, perturbations).
//!
//! Pending events live in a slab-backed two-tier queue: the binary heap only
//! orders small `(time, seq, slot)` keys for the *near* future, payloads sit
//! in a recycled slab, and far-future timers (session think-time clocks, of
//! which an open workload keeps thousands) wait in an unsorted staging list
//! until the horizon reaches them. See [`SlabStore`] for the exactness
//! argument.
//!
//! Determinism: events fire in `(time, insertion sequence)` order regardless
//! of their physical layout, so two runs with the same seed and the same
//! scheduling order are identical.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::marker::PhantomData;

use crate::time::{SimDuration, SimTime};

/// A typed simulation event: a plain value fired by the scheduler.
///
/// Implementations are usually small enums; firing consumes the value.
pub trait Fire<W>: Sized + 'static {
    /// Applies the event to the world at its scheduled time.
    fn fire(self, world: &mut W, ctx: &mut Context<'_, W, Self>);
}

/// An engine-internal typed event held in the side queue: telemetry rolls,
/// controller ticks — bookkeeping the engine schedules for itself, kept out
/// of the workload store so queue-depth telemetry never observes it (the
/// "observer effect": arming metrics used to shift every `queue.*` gauge by
/// the pending roll event). The `seq` is drawn from the queue's shared
/// counter, so the merged pop order across both stores is exactly the order
/// a single queue would produce.
struct Internal<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Internal<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Internal<E> {}
impl<E> PartialOrd for Internal<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Internal<E> {
    // Reversed so that the BinaryHeap (a max-heap) pops the *earliest* event.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A slab-queue heap key: ordering state only, 24 bytes. The payload lives
/// in the slab at `slot`, so sift operations never move event payloads.
#[derive(Clone, Copy)]
struct Key {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Key {}
impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    // Reversed so that the BinaryHeap (a max-heap) pops the *earliest* event.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// The pending-event store: a near-future heap of small [`Key`]s over a
/// recycled payload slab, plus an unsorted far-future staging list.
///
/// Open workloads keep thousands of session timers pending several simulated
/// seconds out while network events resolve within milliseconds. A single
/// heap makes every hot push/pop sift through all of them; here the heap only
/// holds events below `horizon`, far timers wait unsorted in `far`, and the
/// horizon advances one `epoch` at a time, migrating due events in bulk.
///
/// Exactness: every `far` entry has `time >= horizon` and every `near` entry
/// has `time < horizon` (the horizon only grows), so whenever the near head
/// is below the horizon it is the global `(time, seq)` minimum. Firing order
/// is therefore identical to a single `(time, seq)` heap, event for event.
struct SlabStore<E> {
    near: BinaryHeap<Key>,
    far: Vec<Key>,
    /// Smallest time in `far` (`SimTime::MAX` when empty): lets `settle`
    /// jump the horizon across idle gaps instead of stepping epoch by epoch.
    far_min: SimTime,
    horizon: SimTime,
    epoch: SimDuration,
    slots: Vec<Option<E>>,
    free: Vec<u32>,
}

impl<E> SlabStore<E> {
    fn new() -> Self {
        SlabStore {
            near: BinaryHeap::new(),
            far: Vec::new(),
            far_min: SimTime::MAX,
            horizon: SimTime::ZERO,
            epoch: SimDuration::from_millis(500),
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.near.len() + self.far.len()
    }

    fn push(&mut self, time: SimTime, seq: u64, event: E) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(event);
                slot
            }
            None => {
                self.slots.push(Some(event));
                (self.slots.len() - 1) as u32
            }
        };
        let key = Key { time, seq, slot };
        if time < self.horizon {
            self.near.push(key);
        } else {
            self.far_min = self.far_min.min(time);
            self.far.push(key);
        }
    }

    /// Advances the horizon until the near head (if any) is the global
    /// minimum, migrating due far events into the heap.
    fn settle(&mut self) {
        loop {
            match self.near.peek() {
                Some(head) if head.time < self.horizon => return,
                head => {
                    if self.far.is_empty() {
                        return;
                    }
                    let target = head.map_or(self.far_min, |k| k.time.min(self.far_min));
                    self.horizon = self.horizon.max(target) + self.epoch;
                    let horizon = self.horizon;
                    let mut far_min = SimTime::MAX;
                    let near = &mut self.near;
                    self.far.retain(|&key| {
                        if key.time < horizon {
                            near.push(key);
                            false
                        } else {
                            far_min = far_min.min(key.time);
                            true
                        }
                    });
                    self.far_min = far_min;
                }
            }
        }
    }

    fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        self.settle();
        self.near.peek().map(|k| (k.time, k.seq))
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        self.settle();
        let key = self.near.pop()?;
        let event = self.slots[key.slot as usize]
            .take()
            .expect("slab slot empty");
        self.free.push(key.slot);
        Some((key.time, event))
    }
}

/// Observed occupancy of the pending-event store, for telemetry snapshots:
/// `near`/`far` are the two tiers of the time-split queue and
/// `slab_slots`/`slab_free` describe the payload slab.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueDepths {
    /// Events inside the horizon (heap-ordered tier).
    pub near: usize,
    /// Events beyond the horizon (unsorted tier).
    pub far: usize,
    /// Allocated payload slots (high-water occupancy).
    pub slab_slots: usize,
    /// Recyclable payload slots.
    pub slab_free: usize,
}

/// The event queue shared between the driver and in-flight events.
struct EventQueue<E> {
    store: SlabStore<E>,
    /// Engine-internal events (metrics rolls, controller ticks) in a side
    /// heap: they fire in exact `(time, seq)` order with workload events but
    /// are invisible to [`EventQueue::depths`], so arming them cannot perturb
    /// `queue.*` telemetry.
    internal: BinaryHeap<Internal<E>>,
    seq: u64,
}

impl<E> EventQueue<E> {
    fn new() -> Self {
        EventQueue {
            store: SlabStore::new(),
            internal: BinaryHeap::new(),
            seq: 0,
        }
    }

    fn len(&self) -> usize {
        self.store.len() + self.internal.len()
    }

    /// Occupancy of the *workload* store only: engine-internal side-queue
    /// events are bookkeeping, not model state, and reporting them would
    /// make the act of measuring shift the measurement.
    fn depths(&self) -> QueueDepths {
        QueueDepths {
            near: self.store.near.len(),
            far: self.store.far.len(),
            slab_slots: self.store.slots.len(),
            slab_free: self.store.free.len(),
        }
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        let main = self.store.peek_key();
        let side = self.internal.peek().map(|i| (i.time, i.seq));
        match (main, side) {
            (Some(a), Some(b)) => Some(a.min(b).0),
            (Some(a), None) => Some(a.0),
            (None, Some(b)) => Some(b.0),
            (None, None) => None,
        }
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        // Merge the workload store and the internal side heap by (time, seq):
        // seq values come from one shared counter, so the comparison is total
        // and the merged order is exactly the single-queue order.
        let main = self.store.peek_key();
        let side = self.internal.peek().map(|i| (i.time, i.seq));
        let take_side = match (main, side) {
            (Some(m), Some(s)) => s < m,
            (None, Some(_)) => true,
            _ => false,
        };
        if take_side {
            let i = self.internal.pop().expect("peeked internal event");
            return Some((i.time, i.event));
        }
        self.store.pop()
    }

    fn push(&mut self, time: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.store.push(time, seq, event);
    }

    /// Schedules an engine-internal event on the side heap. Internal events
    /// share the global `(time, seq)` order but stay invisible to
    /// [`EventQueue::depths`].
    fn push_internal(&mut self, time: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.internal.push(Internal { time, seq, event });
    }
}

/// Handle given to a firing event for scheduling follow-up events.
///
/// A `Context` exposes the current clock and the event queue, but not the
/// world itself — the world is passed to the event separately, which lets the
/// borrow checker verify that events cannot re-enter the scheduler recursively.
pub struct Context<'a, W, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
    /// The world type the queued events fire on; the queue itself holds
    /// only events.
    world: PhantomData<fn(&mut W)>,
}

impl<'a, W, E> Context<'a, W, E> {
    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Occupancy of the pending-event store, excluding the event currently
    /// firing. Lets telemetry events observe queue depth mid-run.
    pub fn queue_depths(&self) -> QueueDepths {
        self.queue.depths()
    }

    /// Number of events still pending.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Schedules a typed event at absolute time `at`. Events scheduled in
    /// the past fire "now" (at the current clock value); the kernel never
    /// moves time backwards. Allocation-free: the event value is stored in
    /// the queue's recycled slab.
    pub fn schedule_event_at(&mut self, at: SimTime, event: E) {
        let at = at.max(self.now);
        self.queue.push(at, event);
    }

    /// Schedules a typed event after `delay`. Allocation-free.
    pub fn schedule_event_in(&mut self, delay: SimDuration, event: E) {
        let at = self.now + delay;
        self.queue.push(at, event);
    }

    /// Schedules an *engine-internal* typed event at absolute time `at`
    /// (clamped to now). Internal events fire in the same global
    /// `(time, seq)` order as everything else but are excluded from
    /// [`Context::queue_depths`], so telemetry that samples queue occupancy
    /// never observes the engine's own bookkeeping (metrics rolls, adaptive
    /// controller ticks).
    pub fn schedule_internal_at(&mut self, at: SimTime, event: E) {
        let at = at.max(self.now);
        self.queue.push_internal(at, event);
    }

    /// Schedules an engine-internal typed event after `delay`. See
    /// [`Context::schedule_internal_at`].
    pub fn schedule_internal_in(&mut self, delay: SimDuration, event: E) {
        let at = self.now + delay;
        self.queue.push_internal(at, event);
    }
}

/// A discrete-event simulation over a world `W` with typed events `E`.
///
/// ```
/// use mutsvc_desim::{Context, Fire, SimDuration, Simulation};
///
/// enum Ev {
///     Count,
///     AddTen,
/// }
///
/// impl Fire<u32> for Ev {
///     fn fire(self, count: &mut u32, ctx: &mut Context<'_, u32, Ev>) {
///         match self {
///             Ev::Count => {
///                 *count += 1;
///                 ctx.schedule_event_in(SimDuration::from_millis(5), Ev::AddTen);
///             }
///             Ev::AddTen => *count += 10,
///         }
///     }
/// }
///
/// let mut sim = Simulation::with_events(0u32);
/// sim.schedule_event_in(SimDuration::from_millis(5), Ev::Count);
/// sim.run();
/// assert_eq!(*sim.world(), 11);
/// assert_eq!(sim.now().as_millis_f64(), 10.0);
/// ```
pub struct Simulation<W, E> {
    world: W,
    clock: SimTime,
    queue: EventQueue<E>,
    events_fired: u64,
}

impl<W: std::fmt::Debug, E> std::fmt::Debug for Simulation<W, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("world", &self.world)
            .field("clock", &self.clock)
            .field("pending", &self.queue.len())
            .field("events_fired", &self.events_fired)
            .finish()
    }
}

impl<W, E: Fire<W>> Simulation<W, E> {
    /// Creates a simulation over a world with a typed event enum `E`, its
    /// clock at [`SimTime::ZERO`].
    pub fn with_events(world: W) -> Self {
        Simulation {
            world,
            clock: SimTime::ZERO,
            queue: EventQueue::new(),
            events_fired: 0,
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Total events fired so far.
    pub fn events_fired(&self) -> u64 {
        self.events_fired
    }

    /// Number of events still pending.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Occupancy of the pending-event store (see [`QueueDepths`]).
    pub fn queue_depths(&self) -> QueueDepths {
        self.queue.depths()
    }

    /// Shared access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Exclusive access to the world.
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Consumes the simulation, returning the world.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Schedules a typed event at absolute time `at` (clamped to the clock).
    /// Allocation-free.
    pub fn schedule_event_at(&mut self, at: SimTime, event: E) {
        let at = at.max(self.clock);
        self.queue.push(at, event);
    }

    /// Schedules a typed event `delay` from now. Allocation-free.
    pub fn schedule_event_in(&mut self, delay: SimDuration, event: E) {
        let at = self.clock + delay;
        self.queue.push(at, event);
    }

    /// Schedules an engine-internal typed event at absolute time `at`
    /// (clamped to the clock): same global firing order, invisible to
    /// [`Simulation::queue_depths`]. See [`Context::schedule_internal_at`].
    pub fn schedule_internal_at(&mut self, at: SimTime, event: E) {
        let at = at.max(self.clock);
        self.queue.push_internal(at, event);
    }

    /// Schedules an engine-internal typed event `delay` from now. See
    /// [`Context::schedule_internal_at`].
    pub fn schedule_internal_in(&mut self, delay: SimDuration, event: E) {
        let at = self.clock + delay;
        self.queue.push_internal(at, event);
    }

    /// Fires the single earliest pending event.
    ///
    /// Returns `false` when the queue is empty (the clock does not advance).
    pub fn step(&mut self) -> bool {
        let Some((time, event)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(
            time >= self.clock,
            "event queue produced an event in the past"
        );
        self.clock = time;
        self.events_fired += 1;
        let mut ctx = Context {
            now: self.clock,
            queue: &mut self.queue,
            world: PhantomData,
        };
        event.fire(&mut self.world, &mut ctx);
        true
    }

    /// Runs until the event queue is empty.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Runs until the queue is empty or the next event lies strictly after
    /// `deadline`. Events exactly at `deadline` fire. On return the clock is
    /// `max(clock, deadline)` if any events remain, so repeated calls advance.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(head) = self.queue.peek_time() {
            if head > deadline {
                self.clock = self.clock.max(deadline);
                return;
            }
            self.step();
        }
        self.clock = self.clock.max(deadline);
    }

    /// Runs until the queue is empty or the next event lies at or after
    /// `deadline`: the half-open window `[clock, deadline)`. Events exactly
    /// at `deadline` do *not* fire — they belong to the next window. On
    /// return the clock is `max(clock, deadline)`, so repeated calls advance.
    ///
    /// Conservative parallel windows are built from this: a shard advancing
    /// through `[w·L, (w+1)·L)` must leave events at the window boundary to
    /// the next window, where freshly delivered cross-shard messages with
    /// the same timestamp can still be ordered ahead of them by `seq`.
    pub fn run_before(&mut self, deadline: SimTime) {
        while let Some(head) = self.queue.peek_time() {
            if head >= deadline {
                break;
            }
            self.step();
        }
        self.clock = self.clock.max(deadline);
    }

    /// Sets the far-horizon migration epoch of the two-tier slab store.
    ///
    /// The epoch only affects *when* far-future events migrate into the
    /// near heap, never their firing order (see [`SlabStore`]'s exactness
    /// invariant), so changing it is behaviour-neutral. Deriving it from the
    /// topology's minimum WAN link delay makes the far-queue horizon and the
    /// conservative-parallel lookahead share one source of truth.
    pub fn set_far_epoch(&mut self, epoch: SimDuration) {
        self.queue.store.epoch = epoch.max(SimDuration::from_micros(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;

    /// Appends its payload to the world's log when it fires.
    #[derive(Debug)]
    struct Push(u64);
    impl Fire<Vec<u64>> for Push {
        fn fire(self, world: &mut Vec<u64>, _: &mut Context<'_, Vec<u64>, Self>) {
            world.push(self.0);
        }
    }

    /// Counts its firings in the world.
    #[derive(Debug)]
    struct Tick;
    impl Fire<u32> for Tick {
        fn fire(self, world: &mut u32, _: &mut Context<'_, u32, Self>) {
            *world += 1;
        }
    }

    /// Records `(firing time in µs, id)`; ids below 400 that are multiples
    /// of 5 schedule one near (sub-epoch) and one far (multi-epoch)
    /// follow-up. The guard keeps follow-ups from cascading forever.
    #[derive(Debug)]
    struct Mark(u64);
    impl Mark {
        fn follow_ups(&self) -> Vec<(SimDuration, u64)> {
            if self.0 < 400 && self.0.is_multiple_of(5) {
                vec![
                    (SimDuration::from_millis(3), self.0 + 1_000),
                    (SimDuration::from_secs(7), self.0 + 2_000),
                ]
            } else {
                Vec::new()
            }
        }
    }
    impl Fire<Vec<(u64, u64)>> for Mark {
        fn fire(self, world: &mut Vec<(u64, u64)>, ctx: &mut Context<'_, Vec<(u64, u64)>, Self>) {
            world.push((ctx.now().as_micros(), self.0));
            for (delay, id) in self.follow_ups() {
                ctx.schedule_event_in(delay, Mark(id));
            }
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Simulation::with_events(Vec::new());
        for &t in &[30u64, 10, 20] {
            sim.schedule_event_at(SimTime::from_millis(t), Push(t));
        }
        sim.run();
        assert_eq!(sim.world(), &vec![10, 20, 30]);
        assert_eq!(sim.events_fired(), 3);
    }

    #[test]
    fn ties_fire_in_insertion_order() {
        let mut sim = Simulation::with_events(Vec::new());
        for i in 0..5 {
            sim.schedule_event_at(SimTime::from_millis(7), Push(i));
        }
        sim.run();
        assert_eq!(sim.world(), &vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn events_can_schedule_events() {
        enum Ev {
            First,
            Second,
        }
        impl Fire<Vec<u64>> for Ev {
            fn fire(self, w: &mut Vec<u64>, ctx: &mut Context<'_, Vec<u64>, Self>) {
                w.push(ctx.now().as_micros());
                if let Ev::First = self {
                    ctx.schedule_event_in(SimDuration::from_millis(2), Ev::Second);
                }
            }
        }
        let mut sim = Simulation::with_events(Vec::new());
        sim.schedule_event_at(SimTime::from_millis(1), Ev::First);
        sim.run();
        assert_eq!(sim.world(), &vec![1_000, 3_000]);
        assert_eq!(sim.now(), SimTime::from_millis(3));
    }

    #[test]
    fn scheduling_in_the_past_fires_now() {
        enum Ev {
            Late,
            Record,
        }
        impl Fire<Vec<u64>> for Ev {
            fn fire(self, w: &mut Vec<u64>, ctx: &mut Context<'_, Vec<u64>, Self>) {
                match self {
                    // Deliberately "in the past": fires at the current clock.
                    Ev::Late => ctx.schedule_event_at(SimTime::from_millis(1), Ev::Record),
                    Ev::Record => w.push(ctx.now().as_micros()),
                }
            }
        }
        let mut sim = Simulation::with_events(Vec::new());
        sim.schedule_event_at(SimTime::from_millis(10), Ev::Late);
        sim.run();
        assert_eq!(sim.world(), &vec![10_000]);
    }

    #[test]
    fn run_until_stops_and_resumes() {
        let mut sim = Simulation::with_events(0u32);
        for t in 1..=10u64 {
            sim.schedule_event_at(SimTime::from_secs(t), Tick);
        }
        sim.run_until(SimTime::from_secs(4));
        assert_eq!(*sim.world(), 4);
        assert_eq!(sim.now(), SimTime::from_secs(4));
        sim.run_until(SimTime::from_secs(7));
        assert_eq!(*sim.world(), 7);
        sim.run();
        assert_eq!(*sim.world(), 10);
    }

    #[test]
    fn run_before_excludes_the_deadline() {
        let mut sim = Simulation::with_events(0u32);
        for t in 1..=10u64 {
            sim.schedule_event_at(SimTime::from_secs(t), Tick);
        }
        sim.run_before(SimTime::from_secs(4));
        // Events strictly before 4 s fire; the 4 s event waits.
        assert_eq!(*sim.world(), 3);
        assert_eq!(sim.now(), SimTime::from_secs(4));
        sim.run_before(SimTime::from_secs(4));
        assert_eq!(*sim.world(), 3, "repeat call at same deadline is a no-op");
        sim.run_until(SimTime::from_secs(4));
        assert_eq!(*sim.world(), 4, "run_until picks up the boundary event");
        sim.run();
        assert_eq!(*sim.world(), 10);
    }

    /// Windowed execution (run_before at every boundary, run_until at the
    /// end) fires the exact same sequence as one run_until, for any epoch.
    #[test]
    fn windowed_execution_matches_run_until() {
        fn run(windows: Option<u64>, epoch_us: Option<u64>) -> Vec<(u64, u64)> {
            let mut sim = Simulation::with_events(Vec::new());
            if let Some(us) = epoch_us {
                sim.set_far_epoch(SimDuration::from_micros(us));
            }
            let mut x = 42u64;
            for i in 0..300u64 {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let at = SimTime::ZERO + SimDuration::from_micros(x % 5_000_000);
                // Ids of 400 and up schedule no follow-ups.
                sim.schedule_event_at(at, Mark(400 + i));
            }
            let horizon = SimTime::from_secs(5);
            match windows {
                Some(n) => {
                    for k in 1..n {
                        sim.run_before(SimTime::from_micros(5_000_000 * k / n));
                    }
                    sim.run_until(horizon);
                }
                None => sim.run_until(horizon),
            }
            sim.into_world()
        }
        let reference = run(None, None);
        assert_eq!(reference.len(), 300);
        assert_eq!(reference, run(Some(7), None));
        assert_eq!(reference, run(Some(50), Some(100_000)));
        assert_eq!(reference, run(Some(3), Some(4_000_000)));
    }

    #[test]
    fn run_until_advances_clock_when_queue_drains() {
        let mut sim = Simulation::<u32, Tick>::with_events(0);
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.now(), SimTime::from_secs(5));
    }

    #[test]
    fn step_on_empty_queue_returns_false() {
        let mut sim = Simulation::<u32, Tick>::with_events(0);
        assert!(!sim.step());
    }

    #[test]
    fn deterministic_under_repetition() {
        fn run_once() -> Vec<u64> {
            let mut sim = Simulation::with_events(Vec::new());
            for i in 0..100u64 {
                // Interleave identical timestamps to stress tie-breaking.
                sim.schedule_event_at(SimTime::from_micros(i % 7), Push(i));
            }
            sim.run();
            sim.into_world()
        }
        assert_eq!(run_once(), run_once());
    }

    /// Typed events of different variants, scheduled from outside and from
    /// inside firing events, interleave in strict (time, seq) order.
    #[test]
    fn typed_events_fire_in_order_without_boxing() {
        #[derive(Debug)]
        enum Ev {
            Mark(u64),
            Late(u64),
        }
        impl Fire<Vec<u64>> for Ev {
            fn fire(self, world: &mut Vec<u64>, ctx: &mut Context<'_, Vec<u64>, Self>) {
                match self {
                    Ev::Mark(v) => {
                        world.push(v);
                        if v == 2 {
                            // Events can schedule follow-ups of any variant.
                            ctx.schedule_event_in(SimDuration::from_millis(1), Ev::Mark(99));
                            ctx.schedule_event_in(SimDuration::from_millis(2), Ev::Late(1000));
                        }
                    }
                    Ev::Late(v) => world.push(v),
                }
            }
        }
        let mut sim = Simulation::<Vec<u64>, Ev>::with_events(Vec::new());
        sim.schedule_event_at(SimTime::from_millis(5), Ev::Mark(2));
        sim.schedule_event_at(SimTime::from_millis(3), Ev::Mark(1));
        sim.schedule_event_at(SimTime::from_millis(4), Ev::Late(500));
        sim.run();
        assert_eq!(sim.world(), &vec![1, 500, 2, 99, 1000]);
        assert_eq!(sim.events_fired(), 5);
    }

    /// The slab two-tier layout fires the exact same order as a single
    /// `(time, seq)` reference heap, including events far beyond the horizon
    /// epoch, re-scheduling from inside events, and (time) ties broken by
    /// seq.
    #[test]
    fn slab_and_inline_layouts_fire_identically() {
        // A deterministic scramble of times spanning many 500 ms epochs,
        // with deliberate exact-time collisions to stress seq ordering.
        let mut initial = Vec::new();
        let mut x = 9_876_543_210u64;
        for i in 0..400u64 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let at = SimTime::ZERO + SimDuration::from_micros(x % 20_000_000);
            initial.push((at, i));
            if i % 7 == 0 {
                initial.push((at, i + 500));
            }
        }

        let mut sim = Simulation::with_events(Vec::new());
        for &(at, id) in &initial {
            sim.schedule_event_at(at, Mark(id));
        }
        sim.run();
        let slab = sim.into_world();

        // Reference: every pending event inline in one min-heap.
        let mut heap: BinaryHeap<Reverse<(SimTime, u64, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        for &(at, id) in &initial {
            heap.push(Reverse((at, seq, id)));
            seq += 1;
        }
        let mut inline = Vec::new();
        while let Some(Reverse((now, _, id))) = heap.pop() {
            inline.push((now.as_micros(), id));
            for (delay, next) in Mark(id).follow_ups() {
                heap.push(Reverse((now + delay, seq, next)));
                seq += 1;
            }
        }

        assert_eq!(slab.len(), inline.len());
        assert_eq!(slab, inline, "layouts must fire in identical order");
    }

    /// Internal side-queue events interleave with workload events in exact
    /// insertion order at equal times, but never appear in the telemetry
    /// depth snapshot — scheduling one cannot shift a `queue.*` gauge.
    #[test]
    fn internal_events_order_globally_but_hide_from_depths() {
        #[derive(Debug)]
        struct Push(u64);
        impl Fire<Vec<u64>> for Push {
            fn fire(self, world: &mut Vec<u64>, ctx: &mut Context<'_, Vec<u64>, Self>) {
                world.push(self.0);
                if self.0 == 10 {
                    // Internal events can re-arm themselves from a firing.
                    ctx.schedule_internal_in(SimDuration::from_millis(1), Push(11));
                }
            }
        }
        let mut sim = Simulation::<Vec<u64>, Push>::with_events(Vec::new());
        let t = SimTime::from_millis(5);
        sim.schedule_event_at(t, Push(0));
        sim.schedule_internal_at(t, Push(10));
        sim.schedule_event_at(t, Push(1));
        let bare = sim.queue_depths();
        assert_eq!(bare.near + bare.far, 2, "internal event hidden from depths");
        assert_eq!(sim.pending_events(), 3, "but counted as pending");
        sim.run();
        assert_eq!(sim.world(), &vec![0, 10, 1, 11]);
        assert_eq!(sim.events_fired(), 4);
    }

    /// Queue-depth telemetry reads identically whether or not an internal
    /// event is pending.
    #[test]
    fn arming_an_internal_event_does_not_perturb_depths_or_boxing() {
        let run = |armed: bool| {
            let mut sim = Simulation::<u32, Tick>::with_events(0);
            for t in 1..=20u64 {
                sim.schedule_event_at(SimTime::from_millis(t), Tick);
            }
            if armed {
                sim.schedule_internal_at(SimTime::from_millis(7), Tick);
            }
            let depths = sim.queue_depths();
            sim.run_until(SimTime::from_millis(3));
            let mid = sim.queue_depths();
            (depths, mid)
        };
        let (d_off, m_off) = run(false);
        let (d_on, m_on) = run(true);
        assert_eq!(d_off, d_on, "pre-run depths must not see the arm");
        assert_eq!(m_off, m_on, "mid-run depths must not see the arm");
    }
}
