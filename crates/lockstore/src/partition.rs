//! The lock table's replica-side state: one [`LockPartition`] per key.
//!
//! # Collected references are a watermark
//!
//! Lock references are minted in increasing order and a dequeued reference
//! never comes back, so the collected references are, but for a few
//! stragglers, a prefix of the reference numbers. A partition keeps that
//! prefix as one counter, the *collected watermark*: every reference at or
//! below it has been dequeued and has no row. Rows remain only for live
//! references and for tombstones *above* the watermark, left by
//! out-of-order collection (a waiter behind the head removing itself).
//!
//! After every `apply` and `reconcile` the partition drops its rows at or
//! below the watermark, then advances the watermark across contiguous
//! tombstones. It never advances across a missing row, because that
//! reference may still be queued at another replica, and never across a
//! row that holds only a start time. The compacted form is canonical:
//! replicas that applied the same writes are equal, so read repair's
//! digest comparison stays exact. This is the causal-context compaction of
//! *Approaches to Conflict-free Replicated Data Types*: contiguous dots
//! compress to a single version counter, merged by `max`.
//!
//! # Why merging watermarks by `max` is safe
//!
//! A reference is enqueued by exactly one committed LWT. Any dequeue of it
//! commits under a later ballot, so with a higher stamp. A tombstone is
//! therefore final: no write that can still arrive makes a dequeued
//! reference present again. A straggler enqueue at or below the watermark
//! loses exactly as it would have lost to the tombstone, however old the
//! reference is. Replicas can thus merge watermarks by `max`
//! ([`LockMutation::RaiseCollected`]), as they merge the mint counter.
//!
//! # What keeps a partition small
//!
//! A replica that missed both the enqueue and the dequeue of a reference
//! has no row for it, so its watermark stops there and it keeps every
//! later tombstone until it learns a higher watermark. Read repair teaches
//! it when a quorum read includes it; a replica that no quorum read
//! reaches needs a repair sweep (`Table::repair_key`, run periodically by
//! the `RepairDaemon`) to shrink back to its live queue.

use std::collections::BTreeMap;

use music_quorumstore::{Partition, WriteStamp, HEADER_BYTES};
use music_simnet::time::SimTime;

/// A per-key lock reference: unique, increasing, good for one critical
/// section (§III-A).
///
/// References start at 1; [`LockRef::NONE`] (0) is never enqueued.
///
/// # Examples
///
/// ```
/// use music_lockstore::LockRef;
///
/// let first = LockRef::new(1);
/// let second = LockRef::new(2);
/// assert!(second > first);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct LockRef(u64);

impl LockRef {
    /// The null reference (never granted).
    pub const NONE: LockRef = LockRef(0);

    /// Creates a reference from its counter value.
    pub const fn new(v: u64) -> Self {
        LockRef(v)
    }

    /// The raw counter value.
    pub const fn value(self) -> u64 {
        self.0
    }

    /// The next reference after this one.
    pub const fn next(self) -> LockRef {
        LockRef(self.0 + 1)
    }
}

impl std::fmt::Display for LockRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lr:{}", self.0)
    }
}

/// One lock-queue row: presence (tombstoned on dequeue, then dropped once
/// the collected watermark passes it) and the critical-section start time,
/// each an independently stamped LWW cell.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct LockEntry {
    /// Whether the reference is still queued.
    pub present: bool,
    stamp: WriteStamp,
    /// When the holder's critical section began (set on lock grant; used to
    /// enforce the maximum critical-section duration `T`).
    pub start_time: Option<SimTime>,
    start_stamp: WriteStamp,
    /// The creating client's idempotency token: a `createLockRef` retried
    /// after its first attempt actually committed finds its own enqueue
    /// instead of minting an orphan reference.
    pub token: u64,
    /// When set, this reference is a *lease*: pre-minted for the departing
    /// holder at release time, valid until the recorded deadline. Travels
    /// with the presence cell (it is written by the same LWT that inserts
    /// the row and never changes afterwards).
    pub lease_until: Option<SimTime>,
}

/// Mutations of a lock partition — each corresponds to one lock-table CQL
/// statement in §X-A4.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum LockMutation {
    /// `createLockRef`'s batch: set `guard = lock_ref` and insert the
    /// `(key, lock_ref)` row.
    Enqueue {
        /// The freshly minted reference.
        lock_ref: LockRef,
        /// The creating client's idempotency token.
        token: u64,
        /// Lease deadline when this row is a pre-minted lease (repair
        /// re-emission; normal `createLockRef` enqueues pass `None`).
        lease_until: Option<SimTime>,
    },
    /// `lsDequeue`: delete the `(key, lock_ref)` row.
    Dequeue {
        /// The reference to remove.
        lock_ref: LockRef,
    },
    /// `releaseLock` with nothing queued behind the holder: tombstone the
    /// released reference and pre-mint the next one as a *lease* for the
    /// same client, in one LWT (the fast-path grant of the lease design).
    ReleaseWithLease {
        /// The reference being released.
        released: LockRef,
        /// The pre-minted successor (becomes the new queue head).
        next_ref: LockRef,
        /// Idempotency token of the minting call.
        token: u64,
        /// Lease expiry deadline.
        until: SimTime,
    },
    /// A competing `createLockRef` that found an unclaimed lease at the
    /// head: atomically collect the lease row and enqueue the competitor's
    /// fresh reference (break-on-enqueue).
    BreakEnqueue {
        /// The leased reference being broken.
        broken: LockRef,
        /// The competitor's freshly minted reference.
        lock_ref: LockRef,
        /// Idempotency token of the minting call.
        token: u64,
    },
    /// Combined enqueue (waiter batching): mint `count` consecutive
    /// references in one LWT round, optionally collecting an unclaimed
    /// lease at the head in the same round (the batched twin of
    /// [`LockMutation::BreakEnqueue`]). Reference `first + i` carries
    /// idempotency token `token + i`, so the whole batch keeps queue
    /// (ascending-reference) order — waiter `i` of the round is strictly
    /// behind waiter `i − 1`, which keeps the FIFO-with-preemption
    /// refinement clean.
    EnqueueBatch {
        /// An unclaimed leased head collected by this round, or
        /// [`LockRef::NONE`] when the batch queues without breaking.
        broken: LockRef,
        /// The first freshly minted reference; the batch occupies
        /// `first .. first + count`.
        first: LockRef,
        /// How many references the batch mints (≥ 1).
        count: u32,
        /// Idempotency token of the round's first waiter; waiter `i` gets
        /// `token + i`.
        token: u64,
    },
    /// Record the critical-section start time for a granted reference.
    SetStartTime {
        /// The granted reference.
        lock_ref: LockRef,
        /// Grant instant.
        at: SimTime,
    },
    /// Raise the guard counter without touching any row (used by read
    /// repair; merges by `max`).
    RaiseGuard {
        /// Floor for the counter.
        to: u64,
    },
    /// Raise the collected watermark without touching any row (used by
    /// read repair; merges by `max`). Collects every reference `≤ to`.
    RaiseCollected {
        /// Floor for the watermark.
        to: u64,
    },
}

/// Replica-side state of one key's lock queue.
///
/// Holds the mint counter, the collected watermark and one row per
/// reference that is live or collected out of order above the watermark
/// (see the [module docs](self) for the invariant that makes the
/// watermark safe to merge by `max`). Its size depends on the queue, not
/// on how many references the key has ever minted.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct LockPartition {
    /// The mint counter. Merges by `max` (it only ever grows), which makes
    /// its convergence order-independent without a stamp.
    guard: u64,
    /// The collected watermark: every reference `≤ collected` has been
    /// dequeued and has no row. Merges by `max`, like `guard`.
    collected: u64,
    /// Rows above the watermark only.
    entries: BTreeMap<LockRef, LockEntry>,
}

impl LockPartition {
    /// Current guard value (the last minted reference counter).
    pub fn guard(&self) -> u64 {
        self.guard
    }

    /// First (smallest) queued reference and its entry, if any — the
    /// `lsPeek` result.
    pub fn head(&self) -> Option<(LockRef, LockEntry)> {
        self.entries
            .iter()
            .find(|(_, e)| e.present)
            .map(|(r, e)| (*r, *e))
    }

    /// All queued references in queue (ascending) order.
    pub fn queue(&self) -> Vec<LockRef> {
        self.entries
            .iter()
            .filter(|(_, e)| e.present)
            .map(|(r, _)| *r)
            .collect()
    }

    /// Whether `lock_ref` is still queued.
    pub fn contains(&self, lock_ref: LockRef) -> bool {
        self.entries.get(&lock_ref).is_some_and(|e| e.present)
    }

    /// The queue head when it is an *unclaimed* lease: a pre-minted
    /// reference whose owner has not re-entered yet (no start time).
    /// Returns the reference and its expiry deadline.
    pub fn lease_head(&self) -> Option<(LockRef, SimTime)> {
        self.head()
            .and_then(|(r, e)| match (e.lease_until, e.start_time) {
                (Some(until), None) => Some((r, until)),
                _ => None,
            })
    }

    /// The row for `lock_ref`: a live reference, or one collected out of
    /// order above the watermark. `None` once the reference is collected
    /// (at or below the collected watermark) or before this replica
    /// has seen any write for it.
    pub fn entry(&self, lock_ref: LockRef) -> Option<LockEntry> {
        self.entries.get(&lock_ref).copied()
    }

    /// The queued reference created under `token`, if any (idempotent
    /// `createLockRef` lookup). Tombstoned entries do not count — if the
    /// earlier enqueue was already collected, a retry mints a fresh one.
    pub fn find_token(&self, token: u64) -> Option<LockRef> {
        self.entries
            .iter()
            .find(|(_, e)| e.present && e.token == token)
            .map(|(r, _)| *r)
    }

    /// The row a write to `lock_ref` lands in, created on first use;
    /// `None` for a collected reference, whose writes are all stale.
    fn cell(&mut self, lock_ref: LockRef) -> Option<&mut LockEntry> {
        (lock_ref.value() > self.collected).then(|| self.entries.entry(lock_ref).or_default())
    }

    /// Restores the canonical form: drops the rows at or below the
    /// watermark, then advances it across contiguous tombstones. A missing
    /// row or one holding only a start time stops the advance.
    fn compact(&mut self) {
        if self
            .entries
            .first_key_value()
            .is_some_and(|(r, _)| r.value() <= self.collected)
        {
            let collected = self.collected;
            self.entries.retain(|r, _| r.value() > collected);
        }
        while let Some(row) = self.entries.first_entry() {
            if !folds(self.collected, *row.key(), row.get()) {
                break;
            }
            row.remove();
            self.collected += 1;
        }
    }

    /// Whether [`LockPartition::compact`] would leave this partition as it
    /// is: no row at or below the watermark, none the watermark folds.
    fn is_compact(&self) -> bool {
        self.entries
            .first_key_value()
            .is_none_or(|(r, e)| r.value() > self.collected && !folds(self.collected, *r, e))
    }

    fn merge_cell(&mut self, lock_ref: LockRef, other: &LockEntry) {
        let Some(e) = self.cell(lock_ref) else {
            return;
        };
        if other.stamp > e.stamp {
            e.present = other.present;
            e.stamp = other.stamp;
            e.token = other.token;
            e.lease_until = other.lease_until;
        }
        if other.start_stamp > e.start_stamp {
            e.start_time = other.start_time;
            e.start_stamp = other.start_stamp;
        }
    }

    /// LWW update of one presence cell (shared by every mutation arm).
    fn set_presence(
        &mut self,
        lock_ref: LockRef,
        stamp: WriteStamp,
        present: bool,
        token: u64,
        lease_until: Option<SimTime>,
    ) {
        let Some(e) = self.cell(lock_ref) else {
            return;
        };
        if stamp > e.stamp {
            e.present = present;
            e.stamp = stamp;
            e.token = token;
            e.lease_until = lease_until;
        }
    }
}

/// Whether a watermark at `collected` advances across `lock_ref`'s row: the
/// row sits right above it and is a tombstone.
fn folds(collected: u64, lock_ref: LockRef, e: &LockEntry) -> bool {
    lock_ref.value() == collected + 1 && !e.present && e.stamp > WriteStamp::ZERO
}

impl Partition for LockPartition {
    type Mutation = LockMutation;
    /// Snapshots are whole partitions; reconciliation merges cell-wise.
    type Snapshot = LockPartition;

    fn snapshot(&self) -> LockPartition {
        self.clone()
    }

    fn apply(&mut self, mutation: &LockMutation, stamp: WriteStamp) {
        match *mutation {
            LockMutation::Enqueue {
                lock_ref,
                token,
                lease_until,
            } => {
                self.guard = self.guard.max(lock_ref.value());
                self.set_presence(lock_ref, stamp, true, token, lease_until);
            }
            LockMutation::Dequeue { lock_ref } => {
                self.set_presence(lock_ref, stamp, false, 0, None);
            }
            LockMutation::ReleaseWithLease {
                released,
                next_ref,
                token,
                until,
            } => {
                self.guard = self.guard.max(next_ref.value());
                self.set_presence(released, stamp, false, 0, None);
                self.set_presence(next_ref, stamp, true, token, Some(until));
            }
            LockMutation::BreakEnqueue {
                broken,
                lock_ref,
                token,
            } => {
                self.guard = self.guard.max(lock_ref.value());
                self.set_presence(broken, stamp, false, 0, None);
                self.set_presence(lock_ref, stamp, true, token, None);
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
                    self.set_presence(broken, stamp, false, 0, None);
                }
                for i in 0..count {
                    self.set_presence(
                        LockRef::new(first.value() + i),
                        stamp,
                        true,
                        token + i,
                        None,
                    );
                }
            }
            LockMutation::SetStartTime { lock_ref, at } => {
                if let Some(e) = self.cell(lock_ref) {
                    if stamp > e.start_stamp {
                        e.start_time = Some(at);
                        e.start_stamp = stamp;
                    }
                }
            }
            LockMutation::RaiseGuard { to } => {
                self.guard = self.guard.max(to);
            }
            LockMutation::RaiseCollected { to } => {
                self.collected = self.collected.max(to);
            }
        }
        self.compact();
    }

    fn reconcile(mut a: LockPartition, b: LockPartition) -> LockPartition {
        a.guard = a.guard.max(b.guard);
        a.collected = a.collected.max(b.collected);
        for (r, e) in &b.entries {
            a.merge_cell(*r, e);
        }
        a.compact();
        a
    }

    fn snapshot_bytes(s: &LockPartition) -> usize {
        HEADER_BYTES + 16 + 24 * s.entries.len()
    }

    fn mutation_bytes(m: &LockMutation) -> usize {
        match m {
            // Composite mutations carry two presence cells.
            LockMutation::ReleaseWithLease { .. } | LockMutation::BreakEnqueue { .. } => 48,
            // One cell per minted reference plus the (possible) break cell.
            LockMutation::EnqueueBatch { count, .. } => 24 + 24 * (*count).max(1) as usize,
            _ => 24,
        }
    }

    fn exists(&self) -> bool {
        self.guard > 0 || self.collected > 0 || !self.entries.is_empty()
    }

    fn repair(newest: &LockPartition) -> Vec<(LockMutation, WriteStamp)> {
        let mut out = Vec::with_capacity(newest.entries.len() * 2 + 2);
        // Any stamp works for the two counters: both merge by max.
        if newest.guard > 0 {
            out.push((
                LockMutation::RaiseGuard { to: newest.guard },
                WriteStamp::new(1),
            ));
        }
        if newest.collected > 0 {
            out.push((
                LockMutation::RaiseCollected {
                    to: newest.collected,
                },
                WriteStamp::new(1),
            ));
        }
        for (r, e) in &newest.entries {
            if e.stamp > WriteStamp::ZERO {
                let m = if e.present {
                    LockMutation::Enqueue {
                        lock_ref: *r,
                        token: e.token,
                        lease_until: e.lease_until,
                    }
                } else {
                    LockMutation::Dequeue { lock_ref: *r }
                };
                out.push((m, e.stamp));
            }
            if let Some(at) = e.start_time {
                out.push((
                    LockMutation::SetStartTime { lock_ref: *r, at },
                    e.start_stamp,
                ));
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Wire codecs: lock state crosses sockets in remote deployments
// (`music-node` hosts the lock table; `RemoteTable<LockPartition, _>` is
// the coordinator). Implemented here because the entries' private LWW
// stamps must survive the trip bit-for-bit — replica convergence and
// read-repair divergence detection both compare full cell state.
// ---------------------------------------------------------------------------

use music_runtime::{Wire, WireError, WireReader};

impl Wire for LockRef {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(LockRef(u64::decode(r)?))
    }
}

impl Wire for LockEntry {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.present.encode(buf);
        self.stamp.encode(buf);
        self.start_time.encode(buf);
        self.start_stamp.encode(buf);
        self.token.encode(buf);
        self.lease_until.encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(LockEntry {
            present: bool::decode(r)?,
            stamp: Wire::decode(r)?,
            start_time: Wire::decode(r)?,
            start_stamp: Wire::decode(r)?,
            token: u64::decode(r)?,
            lease_until: Wire::decode(r)?,
        })
    }
}

impl Wire for LockMutation {
    fn encode(&self, buf: &mut Vec<u8>) {
        match *self {
            LockMutation::Enqueue {
                lock_ref,
                token,
                lease_until,
            } => {
                buf.push(0);
                lock_ref.encode(buf);
                token.encode(buf);
                lease_until.encode(buf);
            }
            LockMutation::Dequeue { lock_ref } => {
                buf.push(1);
                lock_ref.encode(buf);
            }
            LockMutation::ReleaseWithLease {
                released,
                next_ref,
                token,
                until,
            } => {
                buf.push(2);
                released.encode(buf);
                next_ref.encode(buf);
                token.encode(buf);
                until.encode(buf);
            }
            LockMutation::BreakEnqueue {
                broken,
                lock_ref,
                token,
            } => {
                buf.push(3);
                broken.encode(buf);
                lock_ref.encode(buf);
                token.encode(buf);
            }
            LockMutation::SetStartTime { lock_ref, at } => {
                buf.push(4);
                lock_ref.encode(buf);
                at.encode(buf);
            }
            LockMutation::RaiseGuard { to } => {
                buf.push(5);
                to.encode(buf);
            }
            LockMutation::EnqueueBatch {
                broken,
                first,
                count,
                token,
            } => {
                buf.push(6);
                broken.encode(buf);
                first.encode(buf);
                count.encode(buf);
                token.encode(buf);
            }
            LockMutation::RaiseCollected { to } => {
                buf.push(7);
                to.encode(buf);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => LockMutation::Enqueue {
                lock_ref: Wire::decode(r)?,
                token: u64::decode(r)?,
                lease_until: Wire::decode(r)?,
            },
            1 => LockMutation::Dequeue {
                lock_ref: Wire::decode(r)?,
            },
            2 => LockMutation::ReleaseWithLease {
                released: Wire::decode(r)?,
                next_ref: Wire::decode(r)?,
                token: u64::decode(r)?,
                until: Wire::decode(r)?,
            },
            3 => LockMutation::BreakEnqueue {
                broken: Wire::decode(r)?,
                lock_ref: Wire::decode(r)?,
                token: u64::decode(r)?,
            },
            4 => LockMutation::SetStartTime {
                lock_ref: Wire::decode(r)?,
                at: Wire::decode(r)?,
            },
            5 => LockMutation::RaiseGuard {
                to: u64::decode(r)?,
            },
            6 => LockMutation::EnqueueBatch {
                broken: Wire::decode(r)?,
                first: Wire::decode(r)?,
                count: u32::decode(r)?,
                token: u64::decode(r)?,
            },
            7 => LockMutation::RaiseCollected {
                to: u64::decode(r)?,
            },
            _ => return Err(WireError("invalid lock mutation tag")),
        })
    }
}

impl Wire for LockPartition {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.guard.encode(buf);
        self.collected.encode(buf);
        (self.entries.len() as u32).encode(buf);
        for (r, e) in &self.entries {
            r.encode(buf);
            e.encode(buf);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let guard = u64::decode(r)?;
        let collected = u64::decode(r)?;
        let n = r.u32()? as usize;
        let mut entries = BTreeMap::new();
        for _ in 0..n {
            let lr = LockRef::decode(r)?;
            let e = LockEntry::decode(r)?;
            entries.insert(lr, e);
        }
        let p = LockPartition {
            guard,
            collected,
            entries,
        };
        // Snapshots are used as decoded (a CL=ONE peek is not reconciled),
        // so a row the watermark has collected must not reach `head()`.
        if !p.is_compact() {
            return Err(WireError("lock partition not compacted"));
        }
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(v: u64) -> WriteStamp {
        WriteStamp::new(v)
    }

    #[test]
    fn enqueue_orders_queue_by_lock_ref() {
        let mut p = LockPartition::default();
        p.apply(
            &LockMutation::Enqueue {
                lock_ref: LockRef::new(2),
                token: 0,
                lease_until: None,
            },
            ts(2),
        );
        p.apply(
            &LockMutation::Enqueue {
                lock_ref: LockRef::new(1),
                token: 0,
                lease_until: None,
            },
            ts(1),
        );
        p.apply(
            &LockMutation::Enqueue {
                lock_ref: LockRef::new(3),
                token: 0,
                lease_until: None,
            },
            ts(3),
        );
        assert_eq!(
            p.queue(),
            vec![LockRef::new(1), LockRef::new(2), LockRef::new(3)]
        );
        assert_eq!(p.head().unwrap().0, LockRef::new(1));
        assert_eq!(p.guard(), 3);
    }

    #[test]
    fn dequeue_tombstones_and_head_advances() {
        let mut p = LockPartition::default();
        for i in 1..=3 {
            p.apply(
                &LockMutation::Enqueue {
                    lock_ref: LockRef::new(i),
                    token: 0,
                    lease_until: None,
                },
                ts(i),
            );
        }
        p.apply(
            &LockMutation::Dequeue {
                lock_ref: LockRef::new(1),
            },
            ts(4),
        );
        assert_eq!(p.head().unwrap().0, LockRef::new(2));
        assert!(!p.contains(LockRef::new(1)));
        // A stale (re-ordered) enqueue of 1 must not resurrect it.
        p.apply(
            &LockMutation::Enqueue {
                lock_ref: LockRef::new(1),
                token: 0,
                lease_until: None,
            },
            ts(1),
        );
        assert!(!p.contains(LockRef::new(1)));
    }

    #[test]
    fn dequeue_of_middle_entry_is_fine() {
        // Workers that lose the acquire race evict their own (non-head)
        // reference (`removeLockReference`, §VII-a).
        let mut p = LockPartition::default();
        for i in 1..=3 {
            p.apply(
                &LockMutation::Enqueue {
                    lock_ref: LockRef::new(i),
                    token: 0,
                    lease_until: None,
                },
                ts(i),
            );
        }
        p.apply(
            &LockMutation::Dequeue {
                lock_ref: LockRef::new(2),
            },
            ts(4),
        );
        assert_eq!(p.queue(), vec![LockRef::new(1), LockRef::new(3)]);
    }

    #[test]
    fn start_time_is_an_independent_cell() {
        let mut p = LockPartition::default();
        // The start time reaches this replica before the enqueue: a row
        // that holds only a start time is not queued and not collected.
        p.apply(
            &LockMutation::SetStartTime {
                lock_ref: LockRef::new(1),
                at: SimTime::from_micros(500),
            },
            ts(2),
        );
        assert!(p.head().is_none());
        assert_eq!(p.collected, 0, "a start-time row stops the watermark");
        // The older presence write still lands, and leaves the newer
        // start-time cell alone.
        p.apply(
            &LockMutation::Enqueue {
                lock_ref: LockRef::new(1),
                token: 0,
                lease_until: None,
            },
            ts(1),
        );
        let (head, e) = p.head().unwrap();
        assert_eq!(head, LockRef::new(1));
        assert_eq!(e.start_time, Some(SimTime::from_micros(500)));
        // Once collected, the reference has no row at all.
        p.apply(
            &LockMutation::Dequeue {
                lock_ref: LockRef::new(1),
            },
            ts(3),
        );
        assert_eq!(p.entry(LockRef::new(1)), None);
        assert_eq!(p.collected, 1);
    }

    #[test]
    fn out_of_order_collection_waits_for_the_head() {
        let mut p = LockPartition::default();
        for i in 1..=3 {
            p.apply(
                &LockMutation::Enqueue {
                    lock_ref: LockRef::new(i),
                    token: i,
                    lease_until: None,
                },
                ts(i),
            );
        }
        // A waiter behind the head removes itself: its tombstone stays as
        // a row above the watermark.
        p.apply(
            &LockMutation::Dequeue {
                lock_ref: LockRef::new(2),
            },
            ts(4),
        );
        assert_eq!(p.collected, 0);
        assert!(p.entry(LockRef::new(2)).is_some_and(|e| !e.present));
        // Collecting the head closes the gap: the watermark crosses both.
        p.apply(
            &LockMutation::Dequeue {
                lock_ref: LockRef::new(1),
            },
            ts(5),
        );
        assert_eq!(p.collected, 2);
        assert_eq!(p.entry(LockRef::new(2)), None);
        assert_eq!(p.queue(), vec![LockRef::new(3)]);
    }

    #[test]
    fn watermark_never_crosses_a_missing_row() {
        let mut p = LockPartition::default();
        // This replica has not seen reference 1 at all (it may still be
        // queued elsewhere) but has seen 2 collected.
        p.apply(
            &LockMutation::Enqueue {
                lock_ref: LockRef::new(2),
                token: 2,
                lease_until: None,
            },
            ts(2),
        );
        p.apply(
            &LockMutation::Dequeue {
                lock_ref: LockRef::new(2),
            },
            ts(3),
        );
        assert_eq!(p.collected, 0);
        p.apply(
            &LockMutation::Enqueue {
                lock_ref: LockRef::new(1),
                token: 1,
                lease_until: None,
            },
            ts(1),
        );
        assert_eq!(p.queue(), vec![LockRef::new(1)], "reference 1 still queued");
    }

    #[test]
    fn reconcile_takes_the_higher_watermark() {
        let mut behind = LockPartition::default();
        let mut ahead = LockPartition::default();
        for i in 1..=3 {
            let enq = LockMutation::Enqueue {
                lock_ref: LockRef::new(i),
                token: i,
                lease_until: None,
            };
            behind.apply(&enq, ts(i));
            ahead.apply(&enq, ts(i));
        }
        for i in 1..=2 {
            ahead.apply(
                &LockMutation::Dequeue {
                    lock_ref: LockRef::new(i),
                },
                ts(10 + i),
            );
        }
        assert_eq!(ahead.collected, 2);
        // The lagging side's live rows 1 and 2 are at or below the other
        // side's watermark: they lose, whichever way round the merge goes.
        let m = LockPartition::reconcile(behind.clone(), ahead.clone());
        assert_eq!(m, LockPartition::reconcile(ahead.clone(), behind.clone()));
        assert_eq!(m.queue(), vec![LockRef::new(3)]);
        assert_eq!((m.collected, m.guard), (2, 3));
        // Read repair brings the lagging replica to the same state with one
        // watermark write, not one write per tombstone.
        let writes = LockPartition::repair(&ahead);
        assert_eq!(writes.len(), 3, "guard + watermark + the live row");
        assert!(writes.contains(&(LockMutation::RaiseCollected { to: 2 }, ts(1))));
        for (w, s) in &writes {
            behind.apply(w, *s);
        }
        assert_eq!(behind, ahead);
    }

    #[test]
    fn reconcile_merges_cellwise() {
        let mut a = LockPartition::default();
        let mut b = LockPartition::default();
        a.apply(
            &LockMutation::Enqueue {
                lock_ref: LockRef::new(1),
                token: 0,
                lease_until: None,
            },
            ts(1),
        );
        b.apply(
            &LockMutation::Enqueue {
                lock_ref: LockRef::new(1),
                token: 0,
                lease_until: None,
            },
            ts(1),
        );
        b.apply(
            &LockMutation::Dequeue {
                lock_ref: LockRef::new(1),
            },
            ts(2),
        );
        b.apply(
            &LockMutation::Enqueue {
                lock_ref: LockRef::new(2),
                token: 0,
                lease_until: None,
            },
            ts(3),
        );
        let m = LockPartition::reconcile(a, b.clone());
        assert_eq!(m.queue(), vec![LockRef::new(2)]);
        assert_eq!(m.guard(), 2);
        // Reconcile is commutative for these states.
        let mut a2 = LockPartition::default();
        a2.apply(
            &LockMutation::Enqueue {
                lock_ref: LockRef::new(1),
                token: 0,
                lease_until: None,
            },
            ts(1),
        );
        let m2 = LockPartition::reconcile(b, a2);
        assert_eq!(m2.queue(), vec![LockRef::new(2)]);
    }

    #[test]
    fn apply_permutations_converge() {
        let muts = [
            (
                LockMutation::Enqueue {
                    lock_ref: LockRef::new(1),
                    token: 0,
                    lease_until: None,
                },
                ts(1),
            ),
            (
                LockMutation::Enqueue {
                    lock_ref: LockRef::new(2),
                    token: 0,
                    lease_until: None,
                },
                ts(2),
            ),
            (
                LockMutation::Dequeue {
                    lock_ref: LockRef::new(1),
                },
                ts(3),
            ),
        ];
        let orders = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        let mut results = Vec::new();
        for order in orders {
            let mut p = LockPartition::default();
            for i in order {
                let (m, s) = muts[i];
                p.apply(&m, s);
            }
            results.push((p.queue(), p.guard()));
        }
        for r in &results {
            assert_eq!(r, &results[0]);
        }
        assert_eq!(results[0].0, vec![LockRef::new(2)]);
    }

    #[test]
    fn lock_ref_display_and_next() {
        assert_eq!(LockRef::new(7).to_string(), "lr:7");
        assert_eq!(LockRef::NONE.next(), LockRef::new(1));
    }

    #[test]
    fn find_token_locates_live_enqueues_only() {
        let mut p = LockPartition::default();
        p.apply(
            &LockMutation::Enqueue {
                lock_ref: LockRef::new(1),
                token: 77,
                lease_until: None,
            },
            ts(1),
        );
        p.apply(
            &LockMutation::Enqueue {
                lock_ref: LockRef::new(2),
                token: 88,
                lease_until: None,
            },
            ts(2),
        );
        assert_eq!(p.find_token(77), Some(LockRef::new(1)));
        assert_eq!(p.find_token(88), Some(LockRef::new(2)));
        assert_eq!(p.find_token(99), None);
        // A collected (dequeued) reference no longer answers for its token:
        // the retrying client must mint a fresh one.
        p.apply(
            &LockMutation::Dequeue {
                lock_ref: LockRef::new(1),
            },
            ts(3),
        );
        assert_eq!(p.find_token(77), None);
    }

    #[test]
    fn collected_references_stay_collected_however_old() {
        let mut p = LockPartition::default();
        // One hot key mints and collects 1 224 references — a few seconds'
        // work over loopback sockets, well inside the retransmission window.
        let minted = 1_224;
        for i in 1..=minted {
            p.apply(
                &LockMutation::Enqueue {
                    lock_ref: LockRef::new(i),
                    token: i,
                    lease_until: None,
                },
                ts(2 * i),
            );
            p.apply(
                &LockMutation::Dequeue {
                    lock_ref: LockRef::new(i),
                },
                ts(2 * i + 1),
            );
        }
        assert_eq!(p.collected, minted);
        assert_eq!(
            LockPartition::snapshot_bytes(&p),
            HEADER_BYTES + 16,
            "no row outlives its reference"
        );
        // A late retransmission of reference 1's enqueue, with its original
        // stamp, must not bring it back as this replica's queue head.
        p.apply(
            &LockMutation::Enqueue {
                lock_ref: LockRef::new(1),
                token: 1,
                lease_until: None,
            },
            ts(2),
        );
        assert!(!p.contains(LockRef::new(1)));
        assert!(p.head().is_none());
        assert_eq!(p.entry(LockRef::new(1)), None);
        assert_eq!(p.guard(), minted);
    }

    #[test]
    fn wire_roundtrip_preserves_full_cell_state() {
        let mut p = LockPartition::default();
        p.apply(&LockMutation::RaiseCollected { to: 4 }, ts(1));
        p.apply(
            &LockMutation::Enqueue {
                lock_ref: LockRef::new(5),
                token: 42,
                lease_until: Some(SimTime::from_micros(9_000)),
            },
            ts(5),
        );
        p.apply(
            &LockMutation::SetStartTime {
                lock_ref: LockRef::new(5),
                at: SimTime::from_micros(500),
            },
            ts(6),
        );
        p.apply(
            &LockMutation::Enqueue {
                lock_ref: LockRef::new(6),
                token: 43,
                lease_until: None,
            },
            ts(7),
        );
        p.apply(
            &LockMutation::Dequeue {
                lock_ref: LockRef::new(6),
            },
            ts(8),
        );
        assert_eq!(p.collected, 4);
        let back = LockPartition::from_slice(&p.to_vec()).unwrap();
        assert_eq!(back, p, "codec must be lossless (stamps included)");
        let muts = [
            LockMutation::Enqueue {
                lock_ref: LockRef::new(3),
                token: 9,
                lease_until: None,
            },
            LockMutation::Dequeue {
                lock_ref: LockRef::new(3),
            },
            LockMutation::ReleaseWithLease {
                released: LockRef::new(3),
                next_ref: LockRef::new(4),
                token: 10,
                until: SimTime::from_micros(77),
            },
            LockMutation::BreakEnqueue {
                broken: LockRef::new(4),
                lock_ref: LockRef::new(5),
                token: 11,
            },
            LockMutation::SetStartTime {
                lock_ref: LockRef::new(5),
                at: SimTime::from_micros(88),
            },
            LockMutation::RaiseGuard { to: 99 },
            LockMutation::EnqueueBatch {
                broken: LockRef::new(5),
                first: LockRef::new(6),
                count: 3,
                token: 12,
            },
            LockMutation::RaiseCollected { to: 98 },
        ];
        for m in muts {
            assert_eq!(LockMutation::from_slice(&m.to_vec()).unwrap(), m);
        }
    }

    #[test]
    fn enqueue_batch_mints_consecutive_refs_in_queue_order() {
        let mut p = LockPartition::default();
        p.apply(
            &LockMutation::EnqueueBatch {
                broken: LockRef::NONE,
                first: LockRef::new(1),
                count: 3,
                token: 100,
            },
            ts(1),
        );
        assert_eq!(
            p.queue(),
            vec![LockRef::new(1), LockRef::new(2), LockRef::new(3)]
        );
        assert_eq!(p.guard(), 3);
        // Waiter i's token is token + i: each waiter adopts its own ref on
        // an idempotent retry.
        assert_eq!(p.find_token(100), Some(LockRef::new(1)));
        assert_eq!(p.find_token(102), Some(LockRef::new(3)));
        // None of the batch rows is a lease.
        for r in p.queue() {
            assert_eq!(p.entry(r).unwrap().lease_until, None);
        }
    }

    #[test]
    fn enqueue_batch_collects_a_leased_head_in_the_same_round() {
        let mut p = LockPartition::default();
        p.apply(
            &LockMutation::ReleaseWithLease {
                released: LockRef::new(1),
                next_ref: LockRef::new(2),
                token: 7,
                until: SimTime::from_micros(5_000),
            },
            ts(1),
        );
        assert!(p.lease_head().is_some());
        p.apply(
            &LockMutation::EnqueueBatch {
                broken: LockRef::new(2),
                first: LockRef::new(3),
                count: 2,
                token: 50,
            },
            ts(2),
        );
        assert!(!p.contains(LockRef::new(2)), "lease collected");
        assert_eq!(p.queue(), vec![LockRef::new(3), LockRef::new(4)]);
        assert_eq!(p.guard(), 4);
    }

    #[test]
    fn enqueue_batch_converges_under_permutations() {
        let muts = [
            (
                LockMutation::EnqueueBatch {
                    broken: LockRef::NONE,
                    first: LockRef::new(1),
                    count: 2,
                    token: 10,
                },
                ts(1),
            ),
            (
                LockMutation::Dequeue {
                    lock_ref: LockRef::new(1),
                },
                ts(2),
            ),
            (
                LockMutation::EnqueueBatch {
                    broken: LockRef::NONE,
                    first: LockRef::new(3),
                    count: 2,
                    token: 20,
                },
                ts(3),
            ),
        ];
        let orders = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        let mut results = Vec::new();
        for order in orders {
            let mut p = LockPartition::default();
            for i in order {
                let (m, s) = muts[i];
                p.apply(&m, s);
            }
            results.push((p.queue(), p.guard()));
        }
        for r in &results {
            assert_eq!(r, &results[0]);
        }
        assert_eq!(
            results[0].0,
            vec![LockRef::new(2), LockRef::new(3), LockRef::new(4)]
        );
    }

    #[test]
    fn reconcile_carries_tokens() {
        let mut a = LockPartition::default();
        let mut b = LockPartition::default();
        b.apply(
            &LockMutation::Enqueue {
                lock_ref: LockRef::new(1),
                token: 42,
                lease_until: None,
            },
            ts(5),
        );
        a = LockPartition::reconcile(a, b);
        assert_eq!(a.find_token(42), Some(LockRef::new(1)));
    }
}
