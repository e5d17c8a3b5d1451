//! Edge-of-the-envelope ECF scenarios: store loss during the acquire
//! synchronization, forced release racing voluntary release, daemon
//! interplay, and multi-replica-per-site deployments.

use bytes::Bytes;
use music::{AcquireOutcome, MusicConfig, MusicError, MusicSystemBuilder, RepairDaemon, Watchdog};
use music_simnet::prelude::*;

fn quiet() -> NetConfig {
    NetConfig {
        service_fixed: SimDuration::ZERO,
        bandwidth_bytes_per_sec: u64::MAX / 2,
        loss: 0.0,
        jitter_frac: 0.0,
    }
}

fn b(s: &'static str) -> Bytes {
    Bytes::from_static(s.as_bytes())
}

/// The grant path's synchronization hits an unavailable data store: the
/// acquire nacks, the client retries, and once the store heals the next
/// acquire completes the synchronization — the flag is only reset after a
/// successful rewrite.
#[test]
fn acquire_synchronization_survives_store_outage() {
    let sys = MusicSystemBuilder::new()
        .profile(LatencyProfile::one_us())
        .net_config(quiet())
        .seed(21)
        .build();
    let sim = sys.sim().clone();
    let sys2 = sys.clone();
    sim.block_on(async move {
        let a = sys2.replica(0).clone();
        // Seed a value, then preempt the holder so the synchFlag is set.
        let r1 = a.create_lock_ref("k").await.unwrap();
        while a.acquire_lock("k", r1).await.unwrap() != AcquireOutcome::Acquired {}
        a.critical_put("k", r1, b("seeded")).await.unwrap();
        a.forced_release("k", r1).await.unwrap();

        // Next acquire must synchronize — but two store nodes are down.
        let nodes = sys2.store_nodes().to_vec();
        sys2.net().set_node_up(nodes[1], false);
        sys2.net().set_node_up(nodes[2], false);
        let r2 = a.create_lock_ref("k").await; // lock store also needs quorum
        assert!(r2.is_err(), "no quorum: createLockRef nacks");

        // Heal; everything proceeds and the flag was never half-reset.
        sys2.net().set_node_up(nodes[1], true);
        sys2.net().set_node_up(nodes[2], true);
        let r2 = a.create_lock_ref("k").await.unwrap();
        loop {
            match a.acquire_lock("k", r2).await {
                Ok(AcquireOutcome::Acquired) => break,
                _ => sys2.sim().sleep(SimDuration::from_millis(10)).await,
            }
        }
        assert_eq!(a.critical_get("k", r2).await.unwrap(), Some(b("seeded")));
        a.release_lock("k", r2).await.unwrap();
    });
}

/// A forced release firing on a reference the holder is releasing
/// voluntarily at the same time: the paper's analysis says the only
/// consequence is an unnecessary synchronization — never a safety issue.
#[test]
fn forced_release_racing_voluntary_release_is_harmless() {
    let sys = MusicSystemBuilder::new()
        .profile(LatencyProfile::one_us())
        .net_config(quiet())
        .seed(22)
        .build();
    let sim = sys.sim().clone();
    let a = sys.replica(0).clone();
    let far = sys.replica(2).clone();
    let sys2 = sys.clone();

    let setup = sim.spawn({
        let a = a.clone();
        async move {
            let r = a.create_lock_ref("k").await.unwrap();
            while a.acquire_lock("k", r).await.unwrap() != AcquireOutcome::Acquired {}
            a.critical_put("k", r, b("mine")).await.unwrap();
            r
        }
    });
    let r = sim.run_until_complete(setup);

    // Fire both releases concurrently.
    let h1 = sim.spawn({
        let a = a.clone();
        async move { a.release_lock("k", r).await }
    });
    let h2 = sim.spawn({
        let far = far.clone();
        async move { far.forced_release("k", r).await }
    });
    sim.run_until_complete(h1).unwrap();
    sim.run_until_complete(h2).unwrap();

    // The next critical section enters cleanly and reads the true value
    // (possibly after one spurious synchronization).
    let h = sim.spawn({
        let sys2 = sys2.clone();
        let a = a.clone();
        async move {
            let r2 = a.create_lock_ref("k").await.unwrap();
            loop {
                match a.acquire_lock("k", r2).await.unwrap() {
                    AcquireOutcome::Acquired => break,
                    _ => sys2.sim().sleep(SimDuration::from_millis(5)).await,
                }
            }
            let v = a.critical_get("k", r2).await.unwrap();
            a.release_lock("k", r2).await.unwrap();
            v
        }
    });
    assert_eq!(sim.run_until_complete(h), Some(b("mine")));
}

/// Watchdog and repair daemon running together on a failing system: the
/// watchdog clears a dead holder while the daemon heals the partitioned
/// replica, and the two never interfere.
#[test]
fn watchdog_and_repair_daemon_coexist() {
    let sys = MusicSystemBuilder::new()
        .profile(LatencyProfile::one_us())
        .net_config(quiet())
        .music_config(MusicConfig {
            failure_timeout: SimDuration::from_secs(2),
            ..MusicConfig::default()
        })
        .seed(23)
        .build();
    let sim = sys.sim().clone();
    let dog = Watchdog::new(sys.replica(1).clone(), SimDuration::from_millis(400));
    dog.watch("svc");
    let daemon = RepairDaemon::new(sys.replica(1).clone(), SimDuration::from_secs(3));

    let sys2 = sys.clone();
    sim.block_on({
        let sys = sys2.clone();
        async move {
            let a = sys.replica(0).clone();
            let r = a.create_lock_ref("svc").await.unwrap();
            while a.acquire_lock("svc", r).await.unwrap() != AcquireOutcome::Acquired {}
            a.critical_put("svc", r, b("checkpoint")).await.unwrap();
            // Holder dies; site 2 is partitioned for a while.
            sys.net().partition_site(SiteId(2), true);
        }
    });
    dog.spawn();
    daemon.spawn();
    sim.run_until(sim.now() + SimDuration::from_secs(8));
    sys.net().partition_site(SiteId(2), false);
    sim.run_until(sim.now() + SimDuration::from_secs(8));

    // Dead holder was collected; a new client proceeds with the latest
    // state; and the healed site serves it locally after repair.
    let h = sim.spawn({
        let sys = sys2.clone();
        async move {
            let c = sys.replica(2).clone();
            let r = c.create_lock_ref("svc").await.unwrap();
            loop {
                match c.acquire_lock("svc", r).await.unwrap() {
                    AcquireOutcome::Acquired => break,
                    _ => sys.sim().sleep(SimDuration::from_millis(50)).await,
                }
            }
            let v = c.critical_get("svc", r).await.unwrap();
            c.release_lock("svc", r).await.unwrap();
            v
        }
    });
    let v = sim.run_until_complete(h);
    assert_eq!(v, Some(b("checkpoint")));
    assert!(dog.preemptions() >= 1);
    dog.stop();
    daemon.stop();
    sim.run();
    // Local read at the once-partitioned site is fresh after repairs.
    let local = sim.block_on({
        let c = sys.replica(2).clone();
        async move { c.get("svc").await.unwrap() }
    });
    assert_eq!(local, Some(b("checkpoint")));
}

/// A 9-replica deployment (3 per site): clients spread over all replicas
/// of their site, and critical sections from different replicas of the
/// same site still respect ECF.
#[test]
fn multi_replica_per_site_deployment_works() {
    let sys = MusicSystemBuilder::new()
        .profile(LatencyProfile::one_us())
        .net_config(quiet())
        .replicas_per_site(3)
        .store_nodes_per_site(3)
        .seed(24)
        .build();
    let sim = sys.sim().clone();
    assert_eq!(sys.replicas().len(), 9);
    let sys2 = sys.clone();
    sim.block_on(async move {
        let mut expected = None;
        // Walk a key through every one of the nine replicas.
        for (i, replica) in sys2.replicas().iter().enumerate() {
            let r = replica.create_lock_ref("ring").await.unwrap();
            loop {
                match replica.acquire_lock("ring", r).await.unwrap() {
                    AcquireOutcome::Acquired => break,
                    _ => sys2.sim().sleep(SimDuration::from_millis(5)).await,
                }
            }
            assert_eq!(
                replica.critical_get("ring", r).await.unwrap(),
                expected,
                "replica {i} must see the latest state"
            );
            let val = Bytes::from(format!("step-{i}").into_bytes());
            replica.critical_put("ring", r, val.clone()).await.unwrap();
            expected = Some(val);
            replica.release_lock("ring", r).await.unwrap();
        }
    });
}

/// A combining-round leader whose future is dropped — here by a short
/// timeout, as a per-operation deadline around `enter` does — must not
/// leave its round behind. Cancelled mid-gather, the round must close so
/// the next combined enqueue on the key starts a fresh one; cancelled
/// mid-LWT, the members parked on the round must fall back to the single
/// path instead of polling a settlement that never comes.
#[test]
fn cancelled_combining_leader_strands_no_enqueue() {
    let sys = MusicSystemBuilder::new()
        .profile(LatencyProfile::one_us())
        .net_config(quiet())
        .seed(23)
        .build();
    let sim = sys.sim().clone();
    let sys2 = sys.clone();
    sim.block_on(async move {
        let sim = sys2.sim().clone();
        let r = sys2.replica(0).clone();
        let patience = SimDuration::from_secs(20);

        let cut = timeout(
            &sim,
            SimDuration::from_micros(100),
            r.create_lock_ref_combined("k"),
        )
        .await;
        assert!(cut.is_err(), "the leader is cut off mid-gather");
        let next = timeout(&sim, patience, r.create_lock_ref_combined("k")).await;
        assert!(
            matches!(next, Ok(Ok(_))),
            "a combined enqueue on the key must not wait on the dead round"
        );

        // A member joins while the leader gathers; the leader is then cut
        // off inside its batch LWT (4 WAN round trips ≈ 215 ms on 1Us).
        let member = {
            let r = r.clone();
            sim.spawn(async move { r.create_lock_ref_combined("j").await })
        };
        let cut = timeout(
            &sim,
            SimDuration::from_millis(50),
            r.create_lock_ref_combined("j"),
        )
        .await;
        assert!(cut.is_err(), "the leader is cut off mid-LWT");
        let joined = timeout(&sim, patience, member).await;
        assert!(
            matches!(joined, Ok(Ok(_))),
            "the parked member must fall back to the single path"
        );
    });
}

/// The admission guard covers a client that holds a lease: the lease fast
/// path consumes no queue slot and skips the guard, but once the lease
/// turns out broken the enter falls through to the slow path, and there
/// a full local queue must fast-reject it exactly like a fresh client —
/// not enqueue a reference past the bound.
#[test]
fn lease_holder_is_admission_checked_on_the_slow_path() {
    let sys = MusicSystemBuilder::new()
        .profile(LatencyProfile::one_us())
        .net_config(quiet())
        .music_config(MusicConfig {
            adaptive: true,
            lease_window: Some(SimDuration::from_secs(60)),
            ..MusicConfig::default()
        })
        .seed(25)
        .build();
    let sim = sys.sim().clone();
    let sys2 = sys.clone();
    sim.block_on(async move {
        let sim = sys2.sim().clone();
        let holder = sys2.client_at_site(0);
        holder.enter("k").await.unwrap().release().await.unwrap();
        // The first enqueue breaks the holder's lease; the queue then
        // fills to the admission bound.
        let other = sys2.replica(1).clone();
        for _ in 0..music::contention::MAX_QUEUE_DEPTH {
            other.create_lock_ref("k").await.unwrap();
        }
        // Let the last enqueue reach site 0's lock-store replica.
        sim.sleep(SimDuration::from_secs(1)).await;
        let patience = SimDuration::from_secs(5);
        let fresh = timeout(&sim, patience, sys2.client_at_site(0).enter("k")).await;
        assert!(
            matches!(fresh, Ok(Err(MusicError::Overloaded { .. }))),
            "a fresh client sees the full queue"
        );
        let entered = timeout(&sim, patience, holder.enter("k")).await;
        assert!(
            matches!(entered, Ok(Err(MusicError::Overloaded { .. }))),
            "the lease holder must be fast-rejected, not enqueued past the bound"
        );
    });
}

/// A leased release whose LWT returns after the lease's deadline still
/// mints the row (the grant is returned and counted), but nobody can claim
/// it any more and a competitor may already have broken it and enqueued
/// past it: the trace must not announce it as a fresh `leaseGrant`.
#[test]
fn a_lease_that_lapsed_before_its_release_returned_is_not_announced() {
    use music_telemetry::{EventKind, Recorder};
    // The release LWT takes several WAN round trips: 1 ms has lapsed by
    // the time it returns, 60 s has not.
    for (window, announced) in [
        (SimDuration::from_millis(1), 0),
        (SimDuration::from_secs(60), 1),
    ] {
        let rec = Recorder::tracing();
        let sys = MusicSystemBuilder::new()
            .profile(LatencyProfile::one_us())
            .net_config(quiet())
            .telemetry(rec.clone())
            .seed(8)
            .build();
        let sim = sys.sim().clone();
        let sys2 = sys.clone();
        sim.block_on(async move {
            let r = sys2.replica(0).clone();
            let lr = r.create_lock_ref("k").await.unwrap();
            while r.acquire_lock("k", lr).await.unwrap() != AcquireOutcome::Acquired {}
            let grant = r
                .release_lock_leased("k", lr, window)
                .await
                .unwrap()
                .expect("the lease row is minted either way");
            assert_eq!(sys2.sim().now() >= grant.until, announced == 0);
        });
        let mints = rec
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::LeaseGrant { .. }))
            .count();
        assert_eq!(mints, announced, "window {window}");
        assert_eq!(rec.metrics().total("lease_grants"), 1, "window {window}");
    }
}
