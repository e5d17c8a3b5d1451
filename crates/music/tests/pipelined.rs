//! Pipelined critical-section writes: window bounding, the flush barriers,
//! the failure path (flush failure marks the `synchFlag` and fails the
//! release), and ECF under a pipelined lockholder crash.

use bytes::Bytes;
use music::{
    MusicConfig, MusicError, MusicSystemBuilder, V2s, VectorTimestamp, Watchdog, WriteMode,
};
use music_quorumstore::StoreError;
use music_simnet::prelude::*;
use music_telemetry::{check, EventKind, Recorder};

fn b(s: &'static str) -> Bytes {
    Bytes::from_static(s.as_bytes())
}

fn quiet() -> NetConfig {
    NetConfig {
        service_fixed: SimDuration::ZERO,
        bandwidth_bytes_per_sec: u64::MAX / 2,
        loss: 0.0,
        jitter_frac: 0.0,
    }
}

/// The window bounds in-flight puts, `put` pipelines in `Pipelined` mode,
/// flush barriers drain, and a burst of pipelined puts beats the same
/// burst of synchronous puts by a wide margin.
#[test]
fn pipelined_puts_overlap_and_respect_the_window() {
    let sys = MusicSystemBuilder::new()
        .profile(LatencyProfile::one_us())
        .net_config(quiet())
        .seed(31)
        .build();
    let sim = sys.sim().clone();
    let sys2 = sys.clone();
    sim.block_on(async move {
        // Synchronous burst for comparison.
        let sync_client = sys2.client_at_site(0);
        assert_eq!(sync_client.write_mode(), WriteMode::Sync);
        let cs = sync_client.enter("k").await.unwrap();
        let t0 = sys2.sim().now();
        for i in 0..16 {
            cs.put(Bytes::from(format!("s{i}").into_bytes()))
                .await
                .unwrap();
            assert_eq!(cs.in_flight(), 0, "sync puts never queue");
        }
        let sync_elapsed = sys2.sim().now() - t0;
        cs.release().await.unwrap();

        // The same burst, pipelined with a window of 8.
        let piped = sys2
            .client_at_site(0)
            .with_write_mode(WriteMode::Pipelined { window: 8 });
        let cs = piped.enter("k").await.unwrap();
        assert_eq!(cs.write_mode(), WriteMode::Pipelined { window: 8 });
        let t0 = sys2.sim().now();
        let mut peak = 0;
        for i in 0..16 {
            // In Pipelined mode the plain `put` pipelines too.
            cs.put(Bytes::from(format!("p{i}").into_bytes()))
                .await
                .unwrap();
            peak = peak.max(cs.in_flight());
            assert!(cs.in_flight() <= 8, "window exceeded");
        }
        cs.flush().await.unwrap();
        let piped_elapsed = sys2.sim().now() - t0;
        assert_eq!(cs.in_flight(), 0, "flush drains everything");
        assert!(peak > 1, "puts actually overlapped (peak {peak})");
        // criticalGet is a flush barrier and reads its own last write.
        assert_eq!(cs.get().await.unwrap(), Some(b("p15")));
        cs.release().await.unwrap();

        assert!(
            piped_elapsed * 3 < sync_elapsed,
            "pipelining should beat sync by >3x: {piped_elapsed:?} vs {sync_elapsed:?}"
        );
    });
}

/// A flush that cannot acknowledge its writes marks the `synchFlag`,
/// poisons the section, and fails the release — the lock is left queued
/// for the failure detector, and the next holder resynchronizes.
#[test]
fn failed_flush_marks_synch_flag_and_fails_the_release() {
    let sys = MusicSystemBuilder::new()
        .profile(LatencyProfile::one_us())
        .net_config(quiet())
        .music_config(MusicConfig {
            client_retries: 1,
            failure_timeout: SimDuration::from_secs(2),
            ..MusicConfig::default()
        })
        .seed(32)
        .build();
    let sim = sys.sim().clone();
    let sys2 = sys.clone();
    sim.block_on(async move {
        let piped = sys2
            .client_at_site(0)
            .with_write_mode(WriteMode::Pipelined { window: 4 });
        let cs = piped.enter("k").await.unwrap();
        let lock_ref = cs.lock_ref();
        cs.put(b("v1")).await.unwrap();
        cs.flush().await.unwrap();

        // Two of three store nodes go dark: issued writes can no longer
        // reach a quorum (the local peek still answers, so issuing works).
        let nodes = sys2.store_nodes().to_vec();
        sys2.net().set_node_up(nodes[1], false);
        sys2.net().set_node_up(nodes[2], false);
        cs.put(b("v2")).await.unwrap();
        assert_eq!(cs.in_flight(), 1);

        // Heal while the failed flush is marking the synchFlag, so the
        // mark's retransmits can land.
        let healer = sys2.clone();
        sys2.sim().spawn(async move {
            healer.sim().sleep(SimDuration::from_secs(9)).await;
            healer.net().set_node_up(nodes[1], true);
            healer.net().set_node_up(nodes[2], true);
        });

        let err = cs.flush().await.unwrap_err();
        assert_eq!(err.store_cause(), Some(StoreError::Unavailable));

        // The section is poisoned: every further operation fails the same
        // way, including the release.
        assert_eq!(cs.get().await.unwrap_err(), err);
        assert_eq!(cs.put(b("v3")).await.unwrap_err(), err);
        assert_eq!(cs.release().await.unwrap_err(), err);

        // The synchFlag reached a quorum, and the holder is still queued —
        // the lock was *not* handed off.
        let marked = sys2
            .synch_flags("k")
            .into_iter()
            .filter(|f| f.as_deref() == Some(b"1".as_ref()))
            .count();
        assert!(marked >= 2, "synchFlag not at a quorum ({marked}/3)");
        let queue = sys2
            .locks()
            .queue_local(sys2.replica(0).node(), "k")
            .await
            .unwrap();
        assert!(queue.contains(&lock_ref), "failed release must not dequeue");

        // The failure detector collects the poisoned holder and the next
        // holder resynchronizes to a defined value.
        let dog = Watchdog::new(sys2.replica(1).clone(), SimDuration::from_millis(400));
        dog.watch("k");
        dog.spawn();
        let takeover = sys2.client_at_site(1);
        let cs = takeover.enter("k").await.unwrap();
        let v = cs.get().await.unwrap().expect("defined value");
        assert!(
            v == b("v1") || v == b("v2"),
            "resynchronized value must be an issued write, got {v:?}"
        );
        cs.release().await.unwrap();
        dog.stop();
        assert!(dog.preemptions() >= 1);
    });
}

/// A pipelined holder crashing with unacknowledged writes in flight: the
/// watchdog's resynchronizing preemption keeps the trace ECF-clean even
/// though the writes keep propagating after the crash.
#[test]
fn pipelined_crash_with_writes_in_flight_is_ecf_clean() {
    let rec = Recorder::tracing();
    let sys = MusicSystemBuilder::new()
        .profile(LatencyProfile::one_us())
        .net_config(quiet())
        .music_config(MusicConfig {
            failure_timeout: SimDuration::from_secs(2),
            ..MusicConfig::default()
        })
        .telemetry(rec.clone())
        .seed(33)
        .build();
    let sim = sys.sim().clone();
    let sys2 = sys.clone();
    sim.block_on(async move {
        let dog = Watchdog::new(sys2.replica(0).clone(), SimDuration::from_millis(500));
        dog.watch("k");
        dog.spawn();

        let piped = sys2
            .client_at_site(2)
            .with_write_mode(WriteMode::Pipelined { window: 4 });
        let cs = piped.enter("k").await.unwrap();
        cs.put(b("stable")).await.unwrap();
        cs.flush().await.unwrap();
        // Cut the holder's site off and crash it with two writes in
        // flight; heal so the orphans can still trickle in.
        sys2.net().partition_site(SiteId(2), true);
        cs.put(b("inflight-1")).await.unwrap();
        cs.put(b("inflight-2")).await.unwrap();
        assert_eq!(cs.in_flight(), 2);
        drop(cs);
        sys2.net().partition_site(SiteId(2), false);

        let takeover = sys2.client_at_site(0);
        let cs = takeover.enter("k").await.unwrap();
        let v = cs.get().await.unwrap().expect("defined value");
        assert!(
            v == b("stable") || v == b("inflight-1") || v == b("inflight-2"),
            "takeover must read an issued write, got {v:?}"
        );
        cs.put(b("recovered")).await.unwrap();
        cs.release().await.unwrap();
        dog.stop();
        assert!(dog.preemptions() >= 1, "watchdog never preempted");
    });

    let report = check(&rec.events());
    assert!(report.ok(), "ECF violated: {:?}", report.violations);
    assert!(report.forced_releases >= 1);
}

/// After an `Unavailable` failure the error carries the last store-level
/// cause, and failover telemetry names it.
#[test]
fn unavailable_names_its_store_cause() {
    let rec = Recorder::tracing();
    let sys = MusicSystemBuilder::new()
        .profile(LatencyProfile::one_us())
        .net_config(quiet())
        .music_config(MusicConfig {
            client_retries: 2,
            ..MusicConfig::default()
        })
        .telemetry(rec.clone())
        .seed(34)
        .build();
    let sim = sys.sim().clone();
    let sys2 = sys.clone();
    sim.block_on(async move {
        let nodes = sys2.store_nodes().to_vec();
        sys2.net().set_node_up(nodes[1], false);
        sys2.net().set_node_up(nodes[2], false);
        let client = sys2.client_at_site(0);
        // The lock store needs a quorum even to create a reference.
        let err = client.enter("k").await.unwrap_err();
        assert!(matches!(err, MusicError::Unavailable { .. }), "{err:?}");
        assert_eq!(err.store_cause(), Some(StoreError::Unavailable));
        let trail = err.attempt_trail().expect("per-attempt causes");
        assert!(trail.attempts() >= 1);
        assert!(trail
            .causes()
            .iter()
            .all(|c| *c == Some(StoreError::Unavailable)));
    });
    let named = rec.events().iter().any(|e| {
        matches!(
            &e.kind,
            music_telemetry::EventKind::ClientFailover { cause, .. } if *cause == "unavailable"
        )
    });
    assert!(named, "clientFailover events must carry the cause");
}

/// A pipelined put whose quorum write fails is re-driven with its
/// *original* stamp: the re-driven row carries `v2s(lock_ref, elapsed at
/// issue)` rather than a fresh (higher) stamp that could clobber later
/// writes of the section, a later put still wins last-write-wins, and the
/// trace shows one logical write — one `critPutStart` for the value.
#[test]
fn redriven_put_replays_its_original_stamp() {
    let rec = Recorder::tracing();
    let sys = MusicSystemBuilder::new()
        .profile(LatencyProfile::one_us())
        .net_config(quiet())
        .telemetry(rec.clone())
        .seed(35)
        .build();
    let sim = sys.sim().clone();
    let sys2 = sys.clone();
    sim.block_on(async move {
        let piped = sys2
            .client_at_site(0)
            .with_write_mode(WriteMode::Pipelined { window: 4 });
        let cs = piped.enter("k").await.unwrap();
        let lock_ref = cs.lock_ref();
        let (_, start) = piped.primary().peek_holder("k").await.unwrap().unwrap();
        let start = start.expect("granted sections carry a start time");

        // Two of three data replicas go dark: the write is issued (the
        // local peek still answers) but cannot reach a quorum.
        let nodes = sys2.store_nodes().to_vec();
        sys2.net().set_node_up(nodes[1], false);
        sys2.net().set_node_up(nodes[2], false);
        cs.put(b("v1")).await.unwrap();
        // Issuing awaits nothing after stamping: this is the stamp instant.
        let elapsed_at_issue = sys2.sim().now() - start;
        sys2.sim().sleep(SimDuration::from_secs(30)).await;
        sys2.net().set_node_up(nodes[1], true);
        sys2.net().set_node_up(nodes[2], true);

        // The flush finds the failed write and re-drives it.
        cs.flush().await.unwrap();
        let me = sys2.replica(0).node();
        let original = V2s::new(MusicConfig::default().t_max)
            .scalar(VectorTimestamp::new(lock_ref, elapsed_at_issue));
        let redriven = sys2.data().read_quorum(me, "k").await.unwrap();
        assert_eq!(redriven.value, Some(b("v1")));
        assert_eq!(
            redriven.stamp, original,
            "re-driven under its original stamp"
        );

        cs.put(b("v2")).await.unwrap();
        cs.flush().await.unwrap();
        let latest = sys2.data().read_quorum(me, "k").await.unwrap();
        assert_eq!(latest.value, Some(b("v2")), "the later put wins");
        assert!(latest.stamp > original);
        cs.release().await.unwrap();
    });
    let v1 = music_telemetry::digest(b"v1");
    let starts = rec
        .events()
        .iter()
        .filter(|e| matches!(&e.kind, EventKind::CritPutStart { digest, .. } if *digest == v1))
        .count();
    assert_eq!(starts, 1, "a re-drive is the same logical write");
}
