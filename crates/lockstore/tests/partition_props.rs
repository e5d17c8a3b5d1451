//! Property tests on the lock partition algebra: order-independent
//! convergence to one canonical form, reconcile laws, queue-head
//! monotonicity under dequeues, and agreement with a reference model that
//! keeps every tombstone forever.
//!
//! Histories are *protocol-valid*: they come from a serial run of lock-table
//! LWTs, so each reference has at most one presence-true write, stamped
//! below every presence-false write of it. The collected watermark relies
//! on exactly that invariant; an arbitrary mutation soup (a reference
//! re-enqueued above its own dequeue) is a history the protocol never
//! produces.

use std::collections::{BTreeMap, BTreeSet};

use music_lockstore::{LockEntry, LockMutation, LockPartition, LockRef};
use music_quorumstore::{Partition, WriteStamp};
use music_simnet::time::SimTime;
use proptest::prelude::*;

/// One step of a serial lock history, resolved against the queue the
/// history has built so far.
#[derive(Copy, Clone, Debug)]
enum Step {
    /// `createLockRef`: mint and enqueue the next reference.
    Enqueue,
    /// A combining round of `1 + n % 3` references; collects an unclaimed
    /// leased head first when the flag is set.
    Batch(u8, bool),
    /// Dequeue the `i`-th queued reference (any position: a waiter behind
    /// the head may remove itself).
    Dequeue(u8),
    /// Release the head; with nothing behind it, retain a lease.
    Release(u16),
    /// Break an unclaimed leased head and enqueue behind it.
    Break,
    /// Record a start time for the `i`-th minted reference.
    Start(u8, u16),
    /// Raise the guard, possibly past the last minted reference (a gap).
    RaiseGuard(u8),
    /// Raise the watermark to at most the collected prefix.
    RaiseCollected(u8),
    /// Re-deliver an earlier cell write with its original stamp, as a
    /// retransmission or read repair does.
    Reemit(u8),
}

fn arb_step() -> impl Strategy<Value = Step> {
    let byte = || 0u8..=u8::MAX;
    // Enqueues and dequeues appear twice: the arms are drawn uniformly.
    prop_oneof![
        Just(Step::Enqueue),
        Just(Step::Enqueue),
        (byte(), 0u8..2).prop_map(|(n, b)| Step::Batch(n, b == 1)),
        byte().prop_map(Step::Dequeue),
        byte().prop_map(Step::Dequeue),
        (1u16..1000).prop_map(Step::Release),
        Just(Step::Break),
        (byte(), 0u16..=u16::MAX).prop_map(|(i, t)| Step::Start(i, t)),
        byte().prop_map(Step::RaiseGuard),
        byte().prop_map(Step::RaiseCollected),
        byte().prop_map(Step::Reemit),
    ]
}

/// A queued reference in the serial history.
#[derive(Copy, Clone)]
struct Queued {
    lease_until: Option<SimTime>,
    claimed: bool,
}

/// The serial run's own view of the queue while it resolves steps.
#[derive(Default)]
struct Serial {
    guard: u64,
    queue: BTreeMap<u64, Queued>,
    dequeued: BTreeSet<u64>,
    /// Single-cell writes, as a retransmission or repair re-emits them.
    cells: Vec<(LockMutation, WriteStamp)>,
}

impl Serial {
    fn collect(&mut self, r: u64, stamp: WriteStamp) {
        self.queue.remove(&r);
        self.dequeued.insert(r);
        let m = LockMutation::Dequeue {
            lock_ref: LockRef::new(r),
        };
        self.cells.push((m, stamp));
    }

    /// Mints the next reference.
    fn mint(&mut self, token: u64, lease_until: Option<SimTime>, stamp: WriteStamp) -> LockRef {
        self.guard += 1;
        let r = self.guard;
        self.queue.insert(
            r,
            Queued {
                lease_until,
                claimed: false,
            },
        );
        let m = LockMutation::Enqueue {
            lock_ref: LockRef::new(r),
            token,
            lease_until,
        };
        self.cells.push((m, stamp));
        LockRef::new(r)
    }

    fn lease_head(&self) -> Option<u64> {
        let (r, q) = self.queue.iter().next()?;
        (q.lease_until.is_some() && !q.claimed).then_some(*r)
    }

    /// The mutation `step` commits under `stamp`, if it commits one.
    fn commit(&mut self, step: Step, stamp: WriteStamp) -> Option<LockMutation> {
        let token = stamp.value() * 10;
        Some(match step {
            Step::Enqueue => LockMutation::Enqueue {
                lock_ref: self.mint(token, None, stamp),
                token,
                lease_until: None,
            },
            Step::Batch(n, brk) => {
                let count = 1 + u32::from(n % 3);
                let broken = match self.lease_head() {
                    Some(r) if brk => {
                        self.collect(r, stamp);
                        LockRef::new(r)
                    }
                    _ => LockRef::NONE,
                };
                let first = LockRef::new(self.guard + 1);
                for i in 0..u64::from(count) {
                    self.mint(token + i, None, stamp);
                }
                LockMutation::EnqueueBatch {
                    broken,
                    first,
                    count,
                    token,
                }
            }
            Step::Dequeue(i) => {
                let r = *self
                    .queue
                    .keys()
                    .nth(usize::from(i) % self.queue.len().max(1))?;
                self.collect(r, stamp);
                LockMutation::Dequeue {
                    lock_ref: LockRef::new(r),
                }
            }
            Step::Release(until) => {
                let head = *self.queue.keys().next()?;
                let alone = self.queue.len() == 1;
                self.collect(head, stamp);
                if !alone {
                    return Some(LockMutation::Dequeue {
                        lock_ref: LockRef::new(head),
                    });
                }
                let until = SimTime::from_micros(u64::from(until));
                LockMutation::ReleaseWithLease {
                    released: LockRef::new(head),
                    next_ref: self.mint(token, Some(until), stamp),
                    token,
                    until,
                }
            }
            Step::Break => {
                let leased = self.lease_head()?;
                self.collect(leased, stamp);
                LockMutation::BreakEnqueue {
                    broken: LockRef::new(leased),
                    lock_ref: self.mint(token, None, stamp),
                    token,
                }
            }
            Step::Start(i, at) => {
                let r = 1 + u64::from(i) % self.guard.max(1);
                if r > self.guard {
                    return None;
                }
                if let Some(q) = self.queue.get_mut(&r) {
                    q.claimed = true;
                }
                let m = LockMutation::SetStartTime {
                    lock_ref: LockRef::new(r),
                    at: SimTime::from_micros(u64::from(at)),
                };
                self.cells.push((m, stamp));
                m
            }
            Step::RaiseGuard(k) => {
                let to = u64::from(k) % (self.guard + 3);
                self.guard = self.guard.max(to);
                LockMutation::RaiseGuard { to }
            }
            Step::RaiseCollected(k) => {
                // Only what a replica's watermark could have crossed: a
                // contiguous run of dequeued references from 1.
                let prefix = (1..).take_while(|r| self.dequeued.contains(r)).count() as u64;
                LockMutation::RaiseCollected {
                    to: u64::from(k) % (prefix + 1),
                }
            }
            Step::Reemit(_) => return None,
        })
    }
}

/// Resolves `steps` into the stamped mutations a serial run commits, in
/// commit order. Stamps increase with the step (later ballots); a
/// re-emitted write keeps its original stamp.
fn history(steps: &[Step]) -> Vec<(LockMutation, WriteStamp)> {
    let mut serial = Serial::default();
    let mut out = Vec::new();
    for (step, s) in steps.iter().zip(1u64..) {
        if let Step::Reemit(k) = *step {
            if !serial.cells.is_empty() {
                out.push(serial.cells[usize::from(k) % serial.cells.len()]);
            }
        } else if let Some(m) = serial.commit(*step, WriteStamp::new(s)) {
            out.push((m, WriteStamp::new(s)));
        }
    }
    out
}

fn arb_history() -> impl Strategy<Value = Vec<(LockMutation, WriteStamp)>> {
    proptest::collection::vec(arb_step(), 1..24).prop_map(|steps| history(&steps))
}

/// Deterministic Fisher–Yates shuffle: a delivery order.
fn shuffled<T: Clone>(xs: &[T], seed: u64) -> Vec<T> {
    let mut out = xs.to_vec();
    let mut state = seed
        .wrapping_mul(2862933555777941757)
        .wrapping_add(3037000493);
    for i in (1..out.len()).rev() {
        state = state
            .wrapping_mul(2862933555777941757)
            .wrapping_add(3037000493);
        let j = (state >> 33) as usize % (i + 1);
        out.swap(i, j);
    }
    out
}

fn applied<'a>(muts: impl IntoIterator<Item = &'a (LockMutation, WriteStamp)>) -> LockPartition {
    let mut p = LockPartition::default();
    for (m, ts) in muts {
        p.apply(m, *ts);
    }
    p
}

/// Splits a delivery between two replicas: bit pairs of `mask` send each
/// write to the left, the right, or both.
fn split(muts: &[(LockMutation, WriteStamp)], mask: u64) -> (LockPartition, LockPartition) {
    let (mut l, mut r) = (LockPartition::default(), LockPartition::default());
    for (i, (m, ts)) in muts.iter().enumerate() {
        let side = (mask >> ((2 * i) % 64)) & 3;
        if side != 1 {
            l.apply(m, *ts);
        }
        if side != 2 {
            r.apply(m, *ts);
        }
    }
    (l, r)
}

/// The reference model: the same LWW cells, but every tombstone is kept
/// forever and there is no watermark.
#[derive(Clone, Default, Debug)]
struct Model {
    guard: u64,
    rows: BTreeMap<u64, Cell>,
}

/// The public face of a row plus its two stamps.
#[derive(Copy, Clone, Default, Debug)]
struct Cell {
    present: bool,
    stamp: WriteStamp,
    token: u64,
    lease_until: Option<SimTime>,
    start_time: Option<SimTime>,
    start_stamp: WriteStamp,
}

impl Cell {
    fn public(&self) -> (bool, u64, Option<SimTime>, Option<SimTime>) {
        (self.present, self.token, self.lease_until, self.start_time)
    }
}

fn public(e: &LockEntry) -> (bool, u64, Option<SimTime>, Option<SimTime>) {
    (e.present, e.token, e.lease_until, e.start_time)
}

impl Model {
    fn presence(
        &mut self,
        r: LockRef,
        s: WriteStamp,
        present: bool,
        token: u64,
        lease: Option<SimTime>,
    ) {
        let c = self.rows.entry(r.value()).or_default();
        if s > c.stamp {
            (c.present, c.stamp, c.token, c.lease_until) = (present, s, token, lease);
        }
    }

    fn apply(&mut self, m: &LockMutation, s: WriteStamp) {
        match *m {
            LockMutation::Enqueue {
                lock_ref,
                token,
                lease_until,
            } => {
                self.guard = self.guard.max(lock_ref.value());
                self.presence(lock_ref, s, true, token, lease_until);
            }
            LockMutation::Dequeue { lock_ref } => self.presence(lock_ref, s, false, 0, None),
            LockMutation::ReleaseWithLease {
                released,
                next_ref,
                token,
                until,
            } => {
                self.guard = self.guard.max(next_ref.value());
                self.presence(released, s, false, 0, None);
                self.presence(next_ref, s, true, token, Some(until));
            }
            LockMutation::BreakEnqueue {
                broken,
                lock_ref,
                token,
            } => {
                self.guard = self.guard.max(lock_ref.value());
                self.presence(broken, s, false, 0, None);
                self.presence(lock_ref, s, true, token, None);
            }
            LockMutation::EnqueueBatch {
                broken,
                first,
                count,
                token,
            } => {
                let count = u64::from(count.max(1));
                self.guard = self.guard.max(first.value() + count - 1);
                if broken != LockRef::NONE {
                    self.presence(broken, s, false, 0, None);
                }
                for i in 0..count {
                    self.presence(LockRef::new(first.value() + i), s, true, token + i, None);
                }
            }
            LockMutation::SetStartTime { lock_ref, at } => {
                let c = self.rows.entry(lock_ref.value()).or_default();
                if s > c.start_stamp {
                    (c.start_time, c.start_stamp) = (Some(at), s);
                }
            }
            LockMutation::RaiseGuard { to } => self.guard = self.guard.max(to),
            // Every reference it covers has its tombstone in the history.
            LockMutation::RaiseCollected { .. } => {}
        }
    }

    fn queue(&self) -> Vec<LockRef> {
        self.rows
            .iter()
            .filter(|(_, c)| c.present)
            .map(|(r, _)| LockRef::new(*r))
            .collect()
    }

    fn head(&self) -> Option<(LockRef, Cell)> {
        self.rows
            .iter()
            .find(|(_, c)| c.present)
            .map(|(r, c)| (LockRef::new(*r), *c))
    }

    fn lease_head(&self) -> Option<(LockRef, SimTime)> {
        self.head()
            .and_then(|(r, c)| match (c.lease_until, c.start_time) {
                (Some(until), None) => Some((r, until)),
                _ => None,
            })
    }

    fn find_token(&self, token: u64) -> Option<LockRef> {
        self.rows
            .iter()
            .find(|(_, c)| c.present && c.token == token)
            .map(|(r, _)| LockRef::new(*r))
    }
}

/// Everything a caller can observe of a partition agrees with the model.
fn agrees(p: &LockPartition, m: &Model, muts: &[(LockMutation, WriteStamp)]) -> Result<(), String> {
    prop_assert_eq!(p.queue(), m.queue());
    prop_assert_eq!(p.guard(), m.guard);
    prop_assert_eq!(
        p.head().map(|(r, e)| (r, public(&e))),
        m.head().map(|(r, c)| (r, c.public()))
    );
    prop_assert_eq!(p.lease_head(), m.lease_head());
    for (mutation, _) in muts {
        let token = match *mutation {
            LockMutation::Enqueue { token, .. }
            | LockMutation::ReleaseWithLease { token, .. }
            | LockMutation::BreakEnqueue { token, .. }
            | LockMutation::EnqueueBatch { token, .. } => token,
            _ => continue,
        };
        // A combining round's waiter i holds token + i, and rounds mint at most 3.
        for t in token..token + 3 {
            prop_assert_eq!(p.find_token(t), m.find_token(t), "token {}", t);
        }
    }
    for r in m.queue() {
        let live = p.entry(r).map(|e| public(&e));
        prop_assert_eq!(live, Some(m.rows[&r.value()].public()), "cells of {}", r);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Cell-wise LWW plus compaction: applying a history in any delivery
    /// order converges to the *same* partition, private stamps and
    /// watermark included — the canonical form read repair's digest
    /// comparison relies on.
    #[test]
    fn apply_is_order_independent(muts in arb_history(), seed in 0u64..1000) {
        let a = applied(&muts);
        let b = applied(&shuffled(&muts, seed));
        prop_assert_eq!(a, b);
    }

    /// Reconcile of two divergent replicas is commutative and lands on
    /// the state of a replica that saw both sides' writes.
    #[test]
    fn reconcile_is_commutative(muts in arb_history(), seed in 0u64..1000, mask in 0u64..=u64::MAX) {
        let order = shuffled(&muts, seed);
        let (l, r) = split(&order, mask);
        let lr = LockPartition::reconcile(l.clone(), r.clone());
        let rl = LockPartition::reconcile(r, l);
        prop_assert_eq!(&lr, &rl);
        prop_assert_eq!(lr, applied(&muts));
    }

    /// Differential: in any delivery order, and across a reconcile split,
    /// the watermark partition answers every query exactly like a model
    /// that never forgets a tombstone.
    #[test]
    fn watermark_agrees_with_a_model_that_keeps_every_tombstone(
        muts in arb_history(),
        seed in 0u64..1000,
        mask in 0u64..=u64::MAX,
    ) {
        let order = shuffled(&muts, seed);
        let mut model = Model::default();
        for (m, ts) in &order {
            model.apply(m, *ts);
        }
        agrees(&applied(&order), &model, &muts)?;
        let (l, r) = split(&order, mask);
        agrees(&LockPartition::reconcile(l, r), &model, &muts)?;
    }

    /// In a single totally ordered history (as the LWT path guarantees),
    /// the queue head only ever moves to *larger* lock references: grants
    /// are fair and never regress.
    #[test]
    fn head_is_monotone_in_ordered_histories(ops in proptest::collection::vec(0u8..2, 1..30)) {
        let mut p = LockPartition::default();
        let mut last_head = 0u64;
        for (op, stamp) in ops.into_iter().zip(1u64..) {
            match op {
                0 => {
                    let next = LockRef::new(p.guard() + 1);
                    p.apply(
                        &LockMutation::Enqueue { lock_ref: next, token: 0, lease_until: None },
                        WriteStamp::new(stamp),
                    );
                }
                _ => {
                    if let Some((head, _)) = p.head() {
                        p.apply(&LockMutation::Dequeue { lock_ref: head }, WriteStamp::new(stamp));
                    }
                }
            }
            if let Some((head, _)) = p.head() {
                prop_assert!(head.value() >= last_head, "head regressed");
                last_head = head.value();
            }
        }
    }
}
