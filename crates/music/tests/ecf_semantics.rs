//! End-to-end verification of MUSIC's ECF semantics (§III) on the
//! simulated WAN: exclusivity, latest-state, failure handling, false
//! failure detection, orphan collection, and the duration bound.

use bytes::Bytes;
use music::{
    AcquireOutcome, CriticalError, MusicConfig, MusicSystem, MusicSystemBuilder, PutMode, PutReq,
    Watchdog,
};
use music_quorumstore::Put;
use music_simnet::prelude::*;

fn quiet_net() -> NetConfig {
    NetConfig {
        service_fixed: SimDuration::ZERO,
        bandwidth_bytes_per_sec: u64::MAX / 2,
        loss: 0.0,
        jitter_frac: 0.0,
    }
}

fn system() -> MusicSystem {
    MusicSystemBuilder::new()
        .profile(LatencyProfile::one_us())
        .net_config(quiet_net())
        .seed(5)
        .build()
}

fn b(s: &'static str) -> Bytes {
    Bytes::from_static(s.as_bytes())
}

#[test]
fn listing_1_basic_critical_section() {
    let sys = system();
    let client = sys.client_at_site(0);
    sys.sim().clone().block_on(async move {
        let cs = client.enter("k").await.unwrap();
        assert_eq!(cs.get().await.unwrap(), None);
        cs.put(b("v1")).await.unwrap();
        assert_eq!(cs.get().await.unwrap(), Some(b("v1")));
        cs.put(b("v2")).await.unwrap();
        cs.release().await.unwrap();

        // The next critical section (from another site) reads the true value.
        let cs = client.enter("k").await.unwrap();
        assert_eq!(cs.get().await.unwrap(), Some(b("v2")));
        cs.release().await.unwrap();
    });
}

#[test]
fn latest_state_across_sites_and_holders() {
    let sys = system();
    let sim = sys.sim().clone();
    let clients: Vec<_> = (0..3).map(|s| sys.client_at_site(s)).collect();
    sim.block_on(async move {
        let mut expected = None;
        for round in 0..6 {
            let client = &clients[round % 3];
            let cs = client.enter("shared").await.unwrap();
            assert_eq!(
                cs.get().await.unwrap(),
                expected,
                "round {round}: lockholder must see the true value"
            );
            let val = Bytes::from(format!("round-{round}").into_bytes());
            cs.put(val.clone()).await.unwrap();
            expected = Some(val);
            cs.release().await.unwrap();
        }
    });
}

#[test]
fn locks_are_granted_in_request_order() {
    let sys = system();
    let sim = sys.sim().clone();
    let order = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    // Three clients race for the same key; lockRefs are minted in some
    // order, and grants must follow that order exactly (fairness, §III-A).
    let mut expected = Vec::new();
    for site in 0..3 {
        let client = sys.client_at_site(site);
        let order = std::rc::Rc::clone(&order);
        let replica = sys.replica(site).clone();
        let lr = sim.block_on({
            let replica = replica.clone();
            async move { replica.create_lock_ref("fair").await.unwrap() }
        });
        expected.push(lr);
        let _ = client;
        sim.spawn(async move {
            loop {
                match replica.acquire_lock("fair", lr).await.unwrap() {
                    AcquireOutcome::Acquired => break,
                    AcquireOutcome::NotYet => {
                        // poll again shortly
                    }
                    AcquireOutcome::NoLongerHolder => panic!("preempted in failure-free run"),
                }
            }
            order.borrow_mut().push(lr);
            replica.release_lock("fair", lr).await.unwrap();
        });
    }
    sim.run();
    expected.sort_unstable();
    assert_eq!(*order.borrow(), expected, "grant order = lockRef order");
}

#[test]
fn false_failure_detection_preserves_exclusivity() {
    // §IV-B: a preempted-but-alive client keeps issuing criticalPuts; they
    // must have no effect on the true value, and once its local lock store
    // catches up it is told "youAreNoLongerLockHolder".
    let sys = system();
    let sim = sys.sim().clone();
    let sys2 = sys.clone();
    sim.block_on(async move {
        let a = sys2.replica(0).clone(); // Ohio
        let far = sys2.replica(2).clone(); // Oregon

        let a_ref = a.create_lock_ref("job").await.unwrap();
        while a.acquire_lock("job", a_ref).await.unwrap() != AcquireOutcome::Acquired {}
        a.critical_put("job", a_ref, b("a1")).await.unwrap();

        // A network partition delays A's view; a far replica presumes A
        // failed and preempts it.
        far.forced_release("job", a_ref).await.unwrap();

        // The next client (at the far site) takes over.
        let b_ref = far.create_lock_ref("job").await.unwrap();
        loop {
            match far.acquire_lock("job", b_ref).await.unwrap() {
                AcquireOutcome::Acquired => break,
                _ => sys2.sim().sleep(SimDuration::from_millis(1)).await,
            }
        }
        // acquireLock synchronized the data store: B sees A's last
        // acknowledged put.
        assert_eq!(far.critical_get("job", b_ref).await.unwrap(), Some(b("a1")));
        far.critical_put("job", b_ref, b("b1")).await.unwrap();

        // A — alive, with a possibly stale local lock store — keeps writing.
        // Its puts either get rejected (NoLongerHolder) or are silently
        // ineffective (stale window); the true value must stay B's.
        for i in 0..5 {
            let res = a
                .critical_put(
                    "job",
                    a_ref,
                    Bytes::from(format!("intruder-{i}").into_bytes()),
                )
                .await;
            match res {
                Ok(()) | Err(CriticalError::NotYetHolder) => {}
                Err(CriticalError::NoLongerHolder) => break,
                other => panic!("unexpected: {other:?}"),
            }
            sys2.sim().sleep(SimDuration::from_millis(20)).await;
        }

        // Exclusivity: the lockholder B still reads its own write.
        assert_eq!(far.critical_get("job", b_ref).await.unwrap(), Some(b("b1")));

        // Once A's local store catches up it is told explicitly.
        sys2.sim().sleep(SimDuration::from_millis(200)).await;
        let res = a.critical_put("job", a_ref, b("late")).await;
        assert_eq!(res.unwrap_err(), CriticalError::NoLongerHolder);
        assert_eq!(far.critical_get("job", b_ref).await.unwrap(), Some(b("b1")));
    });
}

#[test]
fn holder_failure_mid_put_synchronizes_next_holder() {
    // A's criticalPut reaches only its own site (no quorum, never
    // acknowledged), A dies, and the next holder must enter a critical
    // section on a *defined* data store — §III-A's refined true value.
    let sys = system();
    let sim = sys.sim().clone();
    let sys2 = sys.clone();
    sim.block_on(async move {
        let a = sys2.replica(0).clone(); // Ohio
        let takeover = sys2.replica(1).clone(); // N. California

        // Seed an acknowledged value first.
        let r0 = a.create_lock_ref("state").await.unwrap();
        while a.acquire_lock("state", r0).await.unwrap() != AcquireOutcome::Acquired {}
        a.critical_put("state", r0, b("stable")).await.unwrap();
        a.release_lock("state", r0).await.unwrap();

        // A acquires again, then its site is partitioned away mid-write.
        let a_ref = a.create_lock_ref("state").await.unwrap();
        while a.acquire_lock("state", a_ref).await.unwrap() != AcquireOutcome::Acquired {}
        sys2.net().partition_site(SiteId(0), true);
        let res = a.critical_put("state", a_ref, b("half-written")).await;
        assert!(
            matches!(res, Err(CriticalError::Store(_))),
            "write must be unacknowledged: {res:?}"
        );
        // A crashes (we simply stop driving it).

        // A surviving replica preempts the dead holder and the next client
        // takes over from the latest *acknowledged* state.
        takeover.forced_release("state", a_ref).await.unwrap();
        let b_ref = takeover.create_lock_ref("state").await.unwrap();
        loop {
            match takeover.acquire_lock("state", b_ref).await.unwrap() {
                AcquireOutcome::Acquired => break,
                _ => sys2.sim().sleep(SimDuration::from_millis(1)).await,
            }
        }
        // The half-written value never reached a quorum, so the committed
        // choice is the stable value.
        assert_eq!(
            takeover.critical_get("state", b_ref).await.unwrap(),
            Some(b("stable"))
        );
        // Critical-Section Invariant: with the holder in Critical state the
        // data store is defined as the true value.
        assert_eq!(sys2.data_store_defined("state"), Some(Some(b("stable"))));
        takeover
            .critical_put("state", b_ref, b("recovered"))
            .await
            .unwrap();
        takeover.release_lock("state", b_ref).await.unwrap();
    });
}

#[test]
fn watchdog_collects_dead_holder_and_orphans() {
    let cfg = MusicConfig {
        failure_timeout: SimDuration::from_secs(2),
        ..MusicConfig::default()
    };
    let sys = MusicSystemBuilder::new()
        .profile(LatencyProfile::one_us())
        .net_config(quiet_net())
        .music_config(cfg)
        .seed(9)
        .build();
    let sim = sys.sim().clone();
    let sys2 = sys.clone();
    sim.block_on(async move {
        let a = sys2.replica(0).clone();
        let dog = Watchdog::new(sys2.replica(1).clone(), SimDuration::from_millis(500));
        dog.watch("task");
        dog.spawn();

        // A dead holder: acquires, writes, never releases.
        let a_ref = a.create_lock_ref("task").await.unwrap();
        while a.acquire_lock("task", a_ref).await.unwrap() != AcquireOutcome::Acquired {}
        a.critical_put("task", a_ref, b("progress")).await.unwrap();
        // ... A crashes here ...

        // An orphan reference: its client dies before ever acquiring.
        let _orphan = a.create_lock_ref("task").await.unwrap();

        // A healthy client eventually gets the lock despite both.
        sys2.sim().sleep(SimDuration::from_secs(3)).await;
        let c = sys2.replica(2).clone();
        let c_ref = c.create_lock_ref("task").await.unwrap();
        let deadline = sys2.sim().now() + SimDuration::from_secs(20);
        loop {
            match c.acquire_lock("task", c_ref).await.unwrap() {
                AcquireOutcome::Acquired => break,
                _ => {
                    assert!(
                        sys2.sim().now() < deadline,
                        "watchdog failed to clear queue"
                    );
                    sys2.sim().sleep(SimDuration::from_millis(100)).await;
                }
            }
        }
        // Latest state survives the takeover.
        assert_eq!(
            c.critical_get("task", c_ref).await.unwrap(),
            Some(b("progress"))
        );
        assert!(dog.preemptions() >= 2, "dead holder + orphan preempted");
        dog.stop();
        c.release_lock("task", c_ref).await.unwrap();
    });
}

#[test]
fn critical_section_duration_bound_is_enforced() {
    let cfg = MusicConfig {
        t_max: SimDuration::from_secs(5),
        ..MusicConfig::default()
    };
    let sys = MusicSystemBuilder::new()
        .profile(LatencyProfile::one_us())
        .net_config(quiet_net())
        .music_config(cfg)
        .seed(3)
        .build();
    let sim = sys.sim().clone();
    let sys2 = sys.clone();
    sim.block_on(async move {
        let r = sys2.replica(0).clone();
        let lr = r.create_lock_ref("k").await.unwrap();
        while r.acquire_lock("k", lr).await.unwrap() != AcquireOutcome::Acquired {}
        r.critical_put("k", lr, b("in-time")).await.unwrap();
        sys2.sim().sleep(SimDuration::from_secs(6)).await;
        let res = r.critical_put("k", lr, b("too-late")).await;
        assert_eq!(res.unwrap_err(), CriticalError::Expired);
        // v2s stays sound: the in-time value is still the true value for
        // the next holder.
        r.forced_release("k", lr).await.unwrap();
        let lr2 = r.create_lock_ref("k").await.unwrap();
        while r.acquire_lock("k", lr2).await.unwrap() != AcquireOutcome::Acquired {}
        assert_eq!(r.critical_get("k", lr2).await.unwrap(), Some(b("in-time")));
        r.release_lock("k", lr2).await.unwrap();
    });
}

#[test]
fn client_failover_survives_replica_site_partition() {
    let sys = system();
    let sim = sys.sim().clone();
    let sys2 = sys.clone();
    sim.block_on(async move {
        let client = sys2.client_at_site(0);
        // Warm up: a successful critical section.
        let cs = client.enter("ha").await.unwrap();
        cs.put(b("v")).await.unwrap();
        cs.release().await.unwrap();

        // Partition the client's home site: its own MUSIC replica and the
        // local store node are unreachable from the rest of the world, but
        // the client (modeled at the replica node) can still reach remote
        // replicas? No — same site. Instead: partition site 2 (a remote
        // minority) and verify everything still works.
        sys2.net().partition_site(SiteId(2), true);
        let cs = client.enter("ha").await.unwrap();
        assert_eq!(cs.get().await.unwrap(), Some(b("v")));
        cs.put(b("v2")).await.unwrap();
        cs.release().await.unwrap();
        sys2.net().partition_site(SiteId(2), false);
    });
}

#[test]
fn lock_free_put_get_and_get_all_keys() {
    let sys = system();
    let sim = sys.sim().clone();
    let sys2 = sys.clone();
    sim.block_on(async move {
        let r = sys2.replica(0).clone();
        r.put("jobs/1", b("desc1")).await.unwrap();
        r.put("jobs/2", b("desc2")).await.unwrap();
        assert_eq!(r.get("jobs/1").await.unwrap(), Some(b("desc1")));
        // Also write a critical key, whose synchFlag must not leak into
        // the key scan.
        let lr = r.create_lock_ref("jobs/1").await.unwrap();
        while r.acquire_lock("jobs/1", lr).await.unwrap() != AcquireOutcome::Acquired {}
        r.critical_put("jobs/1", lr, b("claimed")).await.unwrap();
        r.release_lock("jobs/1", lr).await.unwrap();
        let keys = r.get_all_keys().await.unwrap();
        assert_eq!(keys, vec!["jobs/1".to_string(), "jobs/2".to_string()]);
    });
}

#[test]
fn critical_delete_removes_the_true_value() {
    let sys = system();
    let sim = sys.sim().clone();
    let sys2 = sys.clone();
    sim.block_on(async move {
        let r = sys2.replica(0).clone();
        let lr = r.create_lock_ref("doomed").await.unwrap();
        while r.acquire_lock("doomed", lr).await.unwrap() != AcquireOutcome::Acquired {}
        r.critical_put("doomed", lr, b("alive")).await.unwrap();
        r.critical_put_req("doomed", lr, PutReq::new(Put::delete()))
            .await
            .unwrap();
        assert_eq!(r.critical_get("doomed", lr).await.unwrap(), None);
        r.release_lock("doomed", lr).await.unwrap();

        // The tombstone is the true value for the next holder, and the key
        // no longer shows up in scans.
        let lr2 = r.create_lock_ref("doomed").await.unwrap();
        while r.acquire_lock("doomed", lr2).await.unwrap() != AcquireOutcome::Acquired {}
        assert_eq!(r.critical_get("doomed", lr2).await.unwrap(), None);
        r.release_lock("doomed", lr2).await.unwrap();
        assert!(!r
            .get_all_keys()
            .await
            .unwrap()
            .contains(&"doomed".to_string()));
    });
}

#[test]
fn mscp_mode_critical_puts_use_lwt() {
    let sys = MusicSystemBuilder::new()
        .profile(LatencyProfile::one_us())
        .net_config(quiet_net())
        .music_config(MusicConfig {
            put_mode: PutMode::Lwt,
            ..MusicConfig::default()
        })
        .seed(4)
        .build();
    let sim = sys.sim().clone();
    let sys2 = sys.clone();
    sim.block_on(async move {
        let r = sys2.replica(0).clone();
        let lr = r.create_lock_ref("k").await.unwrap();
        while r.acquire_lock("k", lr).await.unwrap() != AcquireOutcome::Acquired {}
        let t0 = sys2.sim().now();
        r.critical_put("k", lr, b("v")).await.unwrap();
        let put_latency = sys2.sim().now() - t0;
        // LWT put = 4 RTT ≈ 215ms on 1Us, vs ~54ms for a quorum put: the
        // entire MUSIC-vs-MSCP gap of Fig. 5(b).
        assert!(put_latency.as_millis() >= 200, "LWT put took {put_latency}");
        assert_eq!(r.critical_get("k", lr).await.unwrap(), Some(b("v")));
        r.release_lock("k", lr).await.unwrap();
        assert_eq!(sys2.stats().count(music::OpKind::MscpPut), 1);
    });
}
