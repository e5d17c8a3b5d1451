//! The executor's timer order against a reference model: a binary heap of
//! `(deadline, seq)` with lazily cancelled entries, the queue the executor
//! used before its radix queue. Replay rests on this order — equal
//! deadlines fire in registration order — so firing order and virtual
//! times must match the model exactly under any interleaving of
//! registrations, drops, re-polls with a changed waker and run horizons.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use music_simnet::executor::{Sim, Sleep};
use music_simnet::time::{SimDuration, SimTime};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    /// `sleep(dur)`, polled once.
    Sleep(u64),
    /// `sleep_until(now + offset)`, polled once; offset 0 is `now` itself.
    SleepUntil(u64),
    /// Drops the sleep at this index (modulo the number held).
    Drop(usize),
    /// Polls the sleep at this index again, with its other waker.
    Repoll(usize),
    /// `run_until(now + span)`.
    RunUntil(u64),
    /// `run()` to quiescence.
    Run,
}

fn op() -> impl Strategy<Value = Op> {
    // Deadlines on a 10 µs grid, so equal deadlines are common.
    prop_oneof![
        (0u64..40).prop_map(|d| Op::Sleep(d * 10)),
        (0u64..40).prop_map(|d| Op::Sleep(d * 10)),
        (0u64..40).prop_map(|d| Op::SleepUntil(d * 10)),
        (0usize..64).prop_map(Op::Drop),
        (0usize..64).prop_map(Op::Repoll),
        (0u64..50).prop_map(|h| Op::RunUntil(h * 10)),
        Just(Op::Run),
    ]
}

type FireLog = Rc<RefCell<Vec<(usize, u64)>>>;

/// A task that does nothing but log `(id, now)` each time it is woken; its
/// waker is what the sleeps under test register. Returns its waker slot.
fn spawn_logger(sim: &Sim, id: usize, log: &FireLog) -> Rc<RefCell<Option<Waker>>> {
    let waker = Rc::new(RefCell::new(None::<Waker>));
    let (slot, log, clock) = (Rc::clone(&waker), Rc::clone(log), sim.clone());
    sim.spawn(std::future::poll_fn(move |cx| {
        let mut slot = slot.borrow_mut();
        if slot.is_some() {
            log.borrow_mut().push((id, clock.true_now().as_micros()));
        } else {
            *slot = Some(cx.waker().clone());
        }
        Poll::<()>::Pending
    }));
    waker
}

/// The reference: the old executor's binary heap, cancelled entries left
/// in place and skipped when they reach the top.
#[derive(Default)]
struct Model {
    now: u64,
    next_seq: u64,
    heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
    live: HashSet<u64>,
    fired: Vec<(usize, u64)>,
    cancelled: u64,
}

impl Model {
    /// Polls a sleep: `reg` is its pending registration, if any. Returns
    /// whether it is ready. A changed waker re-registers.
    fn poll(&mut self, id: usize, deadline: u64, reg: &mut Option<u64>) -> bool {
        if self.now >= deadline {
            // Ready; a pending registration still fires.
            *reg = None;
            return true;
        }
        self.cancel(reg);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((deadline, seq, id)));
        self.live.insert(seq);
        *reg = Some(seq);
        false
    }

    fn cancel(&mut self, reg: &mut Option<u64>) {
        if let Some(seq) = reg.take() {
            if self.live.remove(&seq) {
                self.cancelled += 1;
            }
        }
    }

    /// One step of the old run loop: fire the earliest live timer due by
    /// `horizon`.
    fn fire_due(&mut self, horizon: u64) -> bool {
        while let Some(&Reverse((deadline, seq, id))) = self.heap.peek() {
            if !self.live.contains(&seq) {
                self.heap.pop();
                continue;
            }
            if deadline > horizon {
                return false;
            }
            self.heap.pop();
            self.live.remove(&seq);
            self.now = deadline;
            self.fired.push((id, deadline));
            return true;
        }
        false
    }

    fn run_until(&mut self, target: u64) {
        while self.now < target && self.fire_due(target) {}
        self.now = self.now.max(target);
    }

    fn run(&mut self) {
        while self.fire_due(u64::MAX) {}
    }
}

struct Held {
    id: usize,
    sleep: Sleep,
    deadline: u64,
    reg: Option<u64>,
    /// Which of the id's two loggers the last poll used.
    other: bool,
}

fn check(ops: Vec<Op>) -> Result<(), String> {
    let sim = Sim::new();
    let log: FireLog = Rc::default();
    // Two loggers per possible sleep; one run() captures their wakers.
    let loggers: Vec<[Rc<RefCell<Option<Waker>>>; 2]> = (0..ops.len())
        .map(|id| [spawn_logger(&sim, id, &log), spawn_logger(&sim, id, &log)])
        .collect();
    sim.run();
    let waker = |id: usize, other: bool| loggers[id][other as usize].borrow().clone().unwrap();

    let mut model = Model::default();
    let mut held: Vec<Held> = Vec::new();
    for (id, op) in ops.iter().enumerate() {
        match *op {
            Op::Sleep(_) | Op::SleepUntil(_) => {
                let (mut sleep, deadline) = match *op {
                    Op::Sleep(d) => (sim.sleep(SimDuration::from_micros(d)), model.now + d),
                    Op::SleepUntil(o) => {
                        let at = model.now + o;
                        (sim.sleep_until(SimTime::from_micros(at)), at)
                    }
                    _ => unreachable!(),
                };
                let w = waker(id, false);
                let ready = Pin::new(&mut sleep).poll(&mut Context::from_waker(&w));
                let mut reg = None;
                prop_assert_eq!(ready.is_ready(), model.poll(id, deadline, &mut reg));
                held.push(Held {
                    id,
                    sleep,
                    deadline,
                    reg,
                    other: false,
                });
            }
            Op::Drop(i) if !held.is_empty() => {
                let mut h = held.remove(i % held.len());
                model.cancel(&mut h.reg);
                drop(h.sleep);
            }
            Op::Repoll(i) if !held.is_empty() => {
                let n = held.len();
                let h = &mut held[i % n];
                h.other = !h.other;
                let w = waker(h.id, h.other);
                let ready = Pin::new(&mut h.sleep).poll(&mut Context::from_waker(&w));
                prop_assert_eq!(ready.is_ready(), model.poll(h.id, h.deadline, &mut h.reg));
            }
            Op::RunUntil(span) => {
                let target = model.now + span;
                sim.run_until(SimTime::from_micros(target));
                model.run_until(target);
            }
            Op::Run => {
                sim.run();
                model.run();
            }
            Op::Drop(_) | Op::Repoll(_) => {}
        }
        prop_assert_eq!(sim.now().as_micros(), model.now, "clock after {:?}", op);
        let p = sim.profile();
        prop_assert_eq!(p.timers_set, model.next_seq);
        prop_assert_eq!(p.timers_cancelled, model.cancelled);
        prop_assert_eq!(
            p.timers_set,
            p.timers_fired + p.timers_cancelled + sim.pending_timers() as u64
        );
    }
    sim.run();
    model.run();
    prop_assert_eq!(&*log.borrow(), &model.fired);
    prop_assert_eq!(sim.profile().timers_fired, model.fired.len() as u64);
    prop_assert_eq!(sim.pending_timers(), 0);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn timers_fire_in_the_reference_heaps_order(ops in proptest::collection::vec(op(), 1..80)) {
        check(ops)?;
    }
}

/// A cancelled entry discarded ahead of the clock must not raise the
/// queue's floor: with the floor left at 100, a 70 µs timer would be filed
/// ahead of a 50 µs one.
#[test]
fn a_cancelled_timer_ahead_of_the_clock_leaves_the_floor_alone() {
    let sim = Sim::new();
    let mut dropped = sim.sleep(SimDuration::from_micros(100));
    let pending = Pin::new(&mut dropped).poll(&mut Context::from_waker(Waker::noop()));
    assert!(pending.is_pending());
    drop(dropped);
    sim.run();
    assert_eq!(
        sim.now(),
        SimTime::ZERO,
        "a cancelled timer never moves the clock"
    );
    let fired = Rc::new(RefCell::new(Vec::new()));
    for us in [50u64, 70] {
        let (s, fired) = (sim.clone(), Rc::clone(&fired));
        sim.spawn(async move {
            s.sleep(SimDuration::from_micros(us)).await;
            fired.borrow_mut().push((us, s.now().as_micros()));
        });
    }
    sim.run();
    assert_eq!(*fired.borrow(), vec![(50, 50), (70, 70)]);
}

#[test]
fn a_fixed_sequence_matches_the_model() {
    // Equal deadlines, a deadline at `now`, a re-registration, a horizon
    // that splits an instant (id 0's re-registered timer stays due at 30),
    // and a stale handle: id 1 fired and id 6 took its slot, so dropping
    // id 1 must leave id 6's timer alone.
    check(vec![
        Op::Sleep(30),
        Op::Sleep(30),
        Op::SleepUntil(0),
        Op::Repoll(0),
        Op::Sleep(20),
        Op::RunUntil(30),
        Op::Sleep(10),
        Op::Drop(0),
        Op::Drop(0),
        Op::Run,
    ])
    .unwrap();
}
