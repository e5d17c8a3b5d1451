//! Coverage audit for [`OpStats`]: one scripted run drives every
//! [`OpKind`] at least once, so a newly added operation that forgets to
//! record its latency fails here rather than silently reporting `-` in
//! the benchmark tables.

use bytes::Bytes;
use music::{
    AcquireOutcome, MusicConfig, MusicReplica, MusicSystem, MusicSystemBuilder, OpKind, PutMode,
};
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
        .seed(11)
        .build()
}

fn b(s: &'static str) -> Bytes {
    Bytes::from_static(s.as_bytes())
}

#[test]
fn every_op_kind_is_recorded() {
    let sys = system();
    let sim = sys.sim().clone();
    let sys2 = sys.clone();
    sim.block_on(async move {
        let r = sys2.replica(0).clone();

        // createLockRef / acquireLock(peek+grant) / criticalPut /
        // criticalGet / releaseLock.
        let r0 = r.create_lock_ref("k").await.unwrap();
        while r.acquire_lock("k", r0).await.unwrap() != AcquireOutcome::Acquired {
            sys2.sim().sleep(SimDuration::from_millis(10)).await;
        }
        r.critical_put("k", r0, b("v1")).await.unwrap();
        // The LWT flavour of criticalPut (the MSCP baseline): the same
        // node and stores, configured for it.
        let mscp = MusicReplica::new(
            r.node(),
            sys2.net().clone(),
            sys2.locks().clone(),
            sys2.data().clone(),
            MusicConfig {
                put_mode: PutMode::Lwt,
                ..MusicConfig::default()
            },
            sys2.stats().clone(),
        );
        mscp.critical_put("k", r0, b("v2")).await.unwrap();
        assert_eq!(r.critical_get("k", r0).await.unwrap(), Some(b("v2")));
        r.release_lock("k", r0).await.unwrap();

        // forcedRelease: enqueue a second ref, let it become holder, then
        // have the watchdog's primitive evict it directly.
        let r1 = r.create_lock_ref("k").await.unwrap();
        while r.acquire_lock("k", r1).await.unwrap() != AcquireOutcome::Acquired {
            sys2.sim().sleep(SimDuration::from_millis(10)).await;
        }
        r.forced_release("k", r1).await.unwrap();

        // Eventual (lock-free) path.
        r.put("notes", b("e1")).await.unwrap();
        assert_eq!(r.get("notes").await.unwrap(), Some(b("e1")));

        // criticalSection is recorded by the client wrapper on release.
        let client = sys2.client_at_site(1);
        let cs = client.enter("k2").await.unwrap();
        cs.put(b("w")).await.unwrap();
        cs.release().await.unwrap();

        // leaseReenter: a clean release under a lease window retains a
        // grant, and the next enter on the same key claims it locally.
        let leased = sys2
            .client_at_site(1)
            .with_lease_window(SimDuration::from_secs(60));
        let cs = leased.enter("k3").await.unwrap();
        cs.release().await.unwrap();
        assert!(leased.lease("k3").is_some(), "clean release retains lease");
        let cs = leased.enter("k3").await.unwrap();
        cs.release().await.unwrap();
        leased.relinquish("k3").await.unwrap();
        assert!(leased.lease("k3").is_none());
    });

    let stats = sys.stats();
    for kind in OpKind::ALL {
        assert!(
            stats.count(kind) > 0,
            "OpKind::{kind:?} ({kind}) was never recorded"
        );
    }
}
