//! Property tests on the lock table's wire codec. The interesting invariant
//! is *private-stamp fidelity*: a [`LockPartition`] carries per-cell LWW
//! stamps that no public accessor exposes, yet replica convergence and
//! read-repair divergence detection both compare full cell state — so the
//! codec must preserve them bit-for-bit, not just the observable queue.

use music_lockstore::{LockEntry, LockMutation, LockPartition, LockRef};
use music_quorumstore::{Partition, WriteStamp};
use music_runtime::Wire;
use music_simnet::time::SimTime;
use proptest::prelude::*;

fn arb_mutation() -> impl Strategy<Value = LockMutation> {
    prop_oneof![
        (1u64..8, 0u64..=u64::MAX, 0u64..1000).prop_map(|(r, token, lease)| {
            LockMutation::Enqueue {
                lock_ref: LockRef::new(r),
                token,
                lease_until: (lease > 0).then(|| SimTime::from_micros(lease)),
            }
        }),
        (1u64..8).prop_map(|r| LockMutation::Dequeue {
            lock_ref: LockRef::new(r)
        }),
        (1u64..8, 1u64..8, 0u64..=u64::MAX, 1u64..1000).prop_map(|(a, b, token, u)| {
            LockMutation::ReleaseWithLease {
                released: LockRef::new(a),
                next_ref: LockRef::new(b),
                token,
                until: SimTime::from_micros(u),
            }
        }),
        (1u64..8, 1u64..8, 0u64..=u64::MAX).prop_map(|(a, b, token)| LockMutation::BreakEnqueue {
            broken: LockRef::new(a),
            lock_ref: LockRef::new(b),
            token,
        }),
        (1u64..8, 0u64..1000).prop_map(|(r, t)| LockMutation::SetStartTime {
            lock_ref: LockRef::new(r),
            at: SimTime::from_micros(t),
        }),
        (0u64..=u64::MAX).prop_map(|to| LockMutation::RaiseGuard { to }),
        // Waiter i's token is token + i: keep the sum in range.
        (0u64..8, 1u64..8, 1u32..4, 0u64..1 << 62).prop_map(|(broken, first, count, token)| {
            LockMutation::EnqueueBatch {
                broken: LockRef::new(broken),
                first: LockRef::new(first),
                count,
                token,
            }
        }),
        (0u64..8).prop_map(|to| LockMutation::RaiseCollected { to }),
    ]
}

/// A partition built from an arbitrary stamped history — entries end up
/// with distinct, non-trivial presence and start-time stamps.
fn build(muts: &[LockMutation]) -> LockPartition {
    let mut p = LockPartition::default();
    for (i, m) in muts.iter().enumerate() {
        // Spread the stamps out so "stamp - 1" below is never a collision.
        p.apply(m, WriteStamp::new((i as u64 + 1) * 10));
    }
    p
}

proptest! {
    /// `LockRef` and every `LockMutation` variant round-trip exactly.
    #[test]
    fn refs_and_mutations_roundtrip(r in 0u64..=u64::MAX, m in arb_mutation()) {
        let lr = LockRef::new(r);
        prop_assert_eq!(LockRef::from_slice(&lr.to_vec()).unwrap(), lr);
        prop_assert_eq!(LockMutation::from_slice(&m.to_vec()).unwrap(), m);
    }

    /// A partition round-trips to an *equal* partition — `PartialEq` on
    /// `LockPartition` compares the private per-cell stamps, so this is
    /// the bit-for-bit fidelity check.
    #[test]
    fn partitions_roundtrip_with_private_stamps(
        muts in proptest::collection::vec(arb_mutation(), 0..12),
    ) {
        let p = build(&muts);
        let back = LockPartition::from_slice(&p.to_vec()).unwrap();
        prop_assert_eq!(&back, &p);
        // Behavioural fidelity: a stale write (below every cell stamp) is
        // ignored identically by the original and the decoded copy, and a
        // fresh write lands identically — the decoded replica reconciles
        // exactly like the one that never crossed the wire.
        let stale = LockMutation::Enqueue {
            lock_ref: LockRef::new(1),
            token: 99,
            lease_until: None,
        };
        let mut a = p.clone();
        let mut b = back;
        a.apply(&stale, WriteStamp::new(1));
        b.apply(&stale, WriteStamp::new(1));
        prop_assert_eq!(&a, &b);
        let fresh = WriteStamp::new(muts.len() as u64 * 10 + 1);
        a.apply(&stale, fresh);
        b.apply(&stale, fresh);
        prop_assert_eq!(a, b);
    }

    /// Reconciling a replica with its own wire image is the identity, and
    /// reconciling two divergent replicas gives the same answer whether or
    /// not one side went through the codec first.
    #[test]
    fn reconcile_commutes_with_the_codec(
        left in proptest::collection::vec(arb_mutation(), 0..8),
        right in proptest::collection::vec(arb_mutation(), 0..8),
    ) {
        let l = build(&left);
        let mut r = LockPartition::default();
        for (i, m) in right.iter().enumerate() {
            r.apply(m, WriteStamp::new((i as u64 + 1) * 10 + 5));
        }
        let self_merge = LockPartition::reconcile(
            l.clone(),
            LockPartition::from_slice(&l.to_vec()).unwrap(),
        );
        prop_assert_eq!(&self_merge, &l);
        let direct = LockPartition::reconcile(l.clone(), r.clone());
        let via_wire = LockPartition::reconcile(
            LockPartition::from_slice(&l.to_vec()).unwrap(),
            LockPartition::from_slice(&r.to_vec()).unwrap(),
        );
        prop_assert_eq!(direct, via_wire);
    }

    /// Truncations and trailing bytes are rejected — a misframed lock
    /// partition must never decode to a plausible (smaller) queue.
    #[test]
    fn corrupt_framings_are_rejected(
        muts in proptest::collection::vec(arb_mutation(), 1..8),
        junk in 0u8..=255,
    ) {
        let buf = build(&muts).to_vec();
        for cut in 0..buf.len() {
            prop_assert!(
                LockPartition::from_slice(&buf[..cut]).is_err(),
                "prefix of length {cut} decoded"
            );
        }
        let mut long = buf;
        long.push(junk);
        prop_assert!(LockPartition::from_slice(&long).is_err(), "trailing byte accepted");
    }

    /// A frame a compaction would change is rejected: CL=ONE snapshots are
    /// used as decoded, so a row at or below the collected watermark (or a
    /// tombstone the watermark should have crossed) must not reach
    /// `head()` from outside the process.
    #[test]
    fn uncompacted_frames_are_rejected(collected in 1u64..1000, below in 0u64..1000) {
        let (live, tombstone) = row_kinds();
        let at_or_below = LockRef::new(collected - below.min(collected - 1));
        let above = LockRef::new(collected + 1);
        for rows in [vec![(at_or_below, live)], vec![(above, tombstone)]] {
            let buf = frame(collected, &rows);
            prop_assert!(LockPartition::from_slice(&buf).is_err(), "{rows:?} accepted");
        }
        let ok = LockPartition::from_slice(&frame(collected, &[(above, live)])).unwrap();
        prop_assert_eq!(ok.head().map(|(r, _)| r), Some(above));
    }
}

/// A live row and a tombstone, each with a non-zero presence stamp.
fn row_kinds() -> (LockEntry, LockEntry) {
    let p = build(&[
        LockMutation::Enqueue {
            lock_ref: LockRef::new(1),
            token: 1,
            lease_until: None,
        },
        LockMutation::Enqueue {
            lock_ref: LockRef::new(2),
            token: 2,
            lease_until: None,
        },
        LockMutation::Dequeue {
            lock_ref: LockRef::new(2),
        },
    ]);
    (
        p.entry(LockRef::new(1)).unwrap(),
        p.entry(LockRef::new(2)).unwrap(),
    )
}

/// The wire image of a partition with the given watermark and rows, built
/// field by field as an encoder outside this process could.
fn frame(collected: u64, rows: &[(LockRef, LockEntry)]) -> Vec<u8> {
    let mut buf = Vec::new();
    (collected + 1).encode(&mut buf);
    collected.encode(&mut buf);
    (rows.len() as u32).encode(&mut buf);
    for (r, e) in rows {
        r.encode(&mut buf);
        e.encode(&mut buf);
    }
    buf
}
