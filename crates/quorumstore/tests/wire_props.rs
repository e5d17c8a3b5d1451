//! Property tests on the store's wire codec: every payload type that
//! crosses a socket round-trips bit-for-bit, and corrupted payloads
//! (truncations, trailing bytes) are rejected instead of misdecoded.

use bytes::Bytes;
use music_paxos::{AcceptReply, Ballot, PrepareReply};
use music_quorumstore::{
    DataRow, Partition, Proposal, Put, RowSnapshot, StoreReq, StoreResp, WriteStamp,
};
use music_runtime::Wire;
use proptest::prelude::*;

// Key pattern for request strategies (the `&str` strategy yields Strings).
const KEY: &str = "[a-z]{0,12}";

fn arb_value() -> impl Strategy<Value = Option<Bytes>> {
    (0u8..3, proptest::collection::vec(0u8..=255, 0..64))
        .prop_map(|(tag, v)| (tag > 0).then(|| Bytes::from(v)))
}

fn arb_put() -> impl Strategy<Value = Put> {
    arb_value().prop_map(|value| Put { value })
}

fn arb_snapshot() -> impl Strategy<Value = RowSnapshot> {
    (arb_value(), 0u64..=u64::MAX).prop_map(|(value, s)| RowSnapshot {
        value,
        stamp: WriteStamp::new(s),
    })
}

fn arb_ballot() -> impl Strategy<Value = Ballot> {
    (0u64..=u64::MAX, 0u32..=u32::MAX).prop_map(|(round, proposer)| Ballot::new(round, proposer))
}

fn arb_req() -> impl Strategy<Value = StoreReq<DataRow>> {
    prop_oneof![
        KEY.prop_map(|key| StoreReq::Snapshot { key }),
        (KEY, arb_put(), 0u64..=u64::MAX).prop_map(|(key, mutation, s)| StoreReq::Apply {
            key,
            mutation,
            stamp: WriteStamp::new(s),
        }),
        (KEY, arb_ballot()).prop_map(|(key, ballot)| StoreReq::Prepare { key, ballot }),
        (KEY, arb_ballot(), arb_put(), 0u64..=u64::MAX).prop_map(|(key, ballot, mutation, s)| {
            StoreReq::Accept {
                key,
                ballot,
                mutation,
                stamp: WriteStamp::new(s),
            }
        }),
        (KEY, arb_ballot(), arb_put(), 0u64..=u64::MAX).prop_map(|(key, ballot, mutation, s)| {
            StoreReq::Commit {
                key,
                ballot,
                mutation,
                stamp: WriteStamp::new(s),
            }
        }),
        Just(StoreReq::ListKeys),
        Just(StoreReq::Scan),
    ]
}

fn arb_row() -> impl Strategy<Value = (String, DataRow)> {
    (KEY, arb_value(), 1u64..=u64::MAX).prop_map(|(key, value, s)| {
        let mut row = DataRow::default();
        row.apply(&Put { value }, WriteStamp::new(s));
        (key, row)
    })
}

fn arb_resp() -> impl Strategy<Value = StoreResp<DataRow>> {
    let in_progress = (arb_ballot(), arb_put(), 0u64..=u64::MAX).prop_map(|(b, mutation, s)| {
        let stamp = WriteStamp::new(s);
        (b, Proposal { mutation, stamp })
    });
    prop_oneof![
        arb_snapshot().prop_map(StoreResp::Snapshot),
        (0u8..1).prop_map(|_| StoreResp::Ack),
        (
            proptest::bool::weighted(0.5),
            arb_ballot(),
            proptest::bool::weighted(0.5),
            in_progress
        )
            .prop_map(|(promised, current_promise, some, in_progress)| {
                StoreResp::Promise(PrepareReply {
                    promised,
                    current_promise,
                    in_progress: some.then_some(in_progress),
                })
            }),
        (proptest::bool::weighted(0.5), arb_ballot()).prop_map(|(accepted, current_promise)| {
            StoreResp::Accepted(AcceptReply {
                accepted,
                current_promise,
            })
        }),
        proptest::collection::vec(KEY, 0..4).prop_map(StoreResp::Keys),
        proptest::collection::vec(arb_row(), 0..4).prop_map(StoreResp::Rows),
    ]
}

proptest! {
    /// `WriteStamp` survives the wire exactly — the LWW ordering domain
    /// must not be perturbed by transport.
    #[test]
    fn write_stamp_roundtrips(s in 0u64..=u64::MAX) {
        let stamp = WriteStamp::new(s);
        prop_assert_eq!(WriteStamp::from_slice(&stamp.to_vec()).unwrap(), stamp);
    }

    /// `Put` and `RowSnapshot` round-trip, including tombstones (`None`)
    /// and empty values — which are distinct states and must stay so.
    #[test]
    fn put_and_snapshot_roundtrip(put in arb_put(), snap in arb_snapshot()) {
        prop_assert_eq!(Put::from_slice(&put.to_vec()).unwrap(), put);
        prop_assert_eq!(RowSnapshot::from_slice(&snap.to_vec()).unwrap(), snap);
    }

    /// A `DataRow` decodes to a replica cell with the identical snapshot
    /// *and* the identical LWW behaviour: a write older than the private
    /// stamp is ignored on both sides of the trip.
    #[test]
    fn data_row_roundtrips_with_stamp_fidelity(
        value in arb_value(),
        stamp in 2u64..=u64::MAX,
    ) {
        let mut row = DataRow::default();
        row.apply(&Put { value }, WriteStamp::new(stamp));
        let back = DataRow::from_slice(&row.to_vec()).unwrap();
        prop_assert_eq!(back.snapshot(), row.snapshot());
        // The decoded row must still reject writes below its stamp.
        let mut a = row.clone();
        let mut b = back;
        let stale = Put::value(Bytes::from_static(b"stale"));
        a.apply(&stale, WriteStamp::new(stamp - 1));
        b.apply(&stale, WriteStamp::new(stamp - 1));
        prop_assert_eq!(a.snapshot(), b.snapshot());
        prop_assert_eq!(a.snapshot(), row.snapshot());
    }

    /// Every request variant re-encodes to the same bytes after a decode
    /// (encodings are canonical, so byte equality is value equality).
    #[test]
    fn store_requests_roundtrip(req in arb_req()) {
        let buf = req.to_vec();
        let back = StoreReq::<DataRow>::from_slice(&buf).unwrap();
        prop_assert_eq!(back.to_vec(), buf);
    }

    /// Every reply variant — snapshots, the bare ack, Paxos replies with
    /// their in-progress proposal, key lists and scanned rows — re-encodes
    /// to the same bytes after a decode.
    #[test]
    fn store_replies_roundtrip(resp in arb_resp()) {
        let buf = resp.to_vec();
        let back = StoreResp::<DataRow>::from_slice(&buf).unwrap();
        prop_assert_eq!(back.to_vec(), buf);
    }

    /// No prefix of a valid encoding decodes, and no valid encoding with
    /// junk appended decodes: a misframed payload can never silently
    /// produce a plausible request.
    #[test]
    fn corrupt_framings_are_rejected(req in arb_req(), junk in 0u8..=255) {
        let buf = req.to_vec();
        for cut in 0..buf.len() {
            prop_assert!(
                StoreReq::<DataRow>::from_slice(&buf[..cut]).is_err(),
                "prefix of length {} decoded",
                cut
            );
        }
        let mut long = buf;
        long.push(junk);
        prop_assert!(StoreReq::<DataRow>::from_slice(&long).is_err(), "trailing byte accepted");
    }

    /// The same for replies. The empty slice is the zero-length prefix of
    /// every encoding (no reply, the ack included, encodes to nothing), so
    /// a replica that answers an undecodable frame with an empty response
    /// is never mistaken for one that acknowledged.
    #[test]
    fn corrupt_reply_framings_are_rejected(resp in arb_resp(), junk in 0u8..=255) {
        let buf = resp.to_vec();
        prop_assert!(!buf.is_empty());
        for cut in 0..buf.len() {
            prop_assert!(
                StoreResp::<DataRow>::from_slice(&buf[..cut]).is_err(),
                "prefix of length {} decoded",
                cut
            );
        }
        let mut long = buf;
        long.push(junk);
        prop_assert!(StoreResp::<DataRow>::from_slice(&long).is_err(), "trailing byte accepted");
    }
}
