//! Health-aware client failover: the per-replica circuit breaker must
//! (a) let a client complete critical sections while its primary replica
//! is crashed, without burning the whole retry budget re-discovering the
//! dead node, and (b) re-admit the replica after recovery via a half-open
//! probe — with the quarantine visible in the recovery-time histogram.

use bytes::Bytes;
use music::{MusicConfig, MusicSystemBuilder};
use music_quorumstore::TableConfig;
use music_simnet::prelude::*;
use music_telemetry::Scope;

fn quiet_net() -> NetConfig {
    NetConfig {
        service_fixed: SimDuration::ZERO,
        bandwidth_bytes_per_sec: u64::MAX / 2,
        loss: 0.0,
        jitter_frac: 0.0,
    }
}

#[test]
fn crashed_primary_is_quarantined_and_sections_still_succeed() {
    let cooldown = SimDuration::from_secs(120);
    let sys = MusicSystemBuilder::new()
        .profile(LatencyProfile::one_us())
        .net_config(quiet_net())
        .table_config(TableConfig {
            op_timeout: SimDuration::from_millis(500),
            ..TableConfig::default()
        })
        .music_config(MusicConfig {
            breaker_cooldown: cooldown,
            ..MusicConfig::default()
        })
        .seed(11)
        .telemetry(music_telemetry::Recorder::metrics_only())
        .build();
    let sim = sys.sim().clone();
    let client = sys.client_at_site(0);
    let primary = client.primary().node();
    let rec = sys.recorder();

    sys.net().set_node_up(primary, false);
    sim.block_on({
        let client = client.clone();
        async move {
            let cs = client
                .enter("acct")
                .await
                .expect("enter via healthy replica");
            cs.put(Bytes::from_static(b"v1"))
                .await
                .expect("criticalPut");
            cs.release().await.expect("release");
        }
    });
    sim.run();

    let m = rec.metrics();
    assert!(
        m.get(Scope::Node(primary.0), "breaker_trips") >= 1,
        "dead primary must trip its breaker"
    );
    let failovers_after_first = m.get(Scope::Global, "client_failovers");
    assert!(
        failovers_after_first >= 2,
        "threshold failures were counted"
    );

    // With the breaker open the primary is skipped outright: a second
    // section must not pay the discovery cost again.
    sim.block_on({
        let client = client.clone();
        async move {
            let cs = client
                .enter("acct")
                .await
                .expect("enter while breaker open");
            cs.put(Bytes::from_static(b"v2"))
                .await
                .expect("criticalPut");
            cs.release().await.expect("release");
        }
    });
    sim.run();
    let m = rec.metrics();
    assert_eq!(
        m.get(Scope::Global, "client_failovers"),
        failovers_after_first,
        "open breaker skips the dead primary without new failed attempts"
    );

    // Recovery: bring the node back, let the cooldown elapse, and the next
    // operation admits exactly one half-open probe which closes the
    // breaker and records the quarantine duration.
    sys.net().set_node_up(primary, true);
    sim.block_on({
        let sim = sim.clone();
        async move { sim.sleep(cooldown + SimDuration::from_secs(1)).await }
    });
    sim.block_on({
        let client = client.clone();
        async move {
            let cs = client.enter("acct").await.expect("enter after recovery");
            let v = cs.get().await.expect("criticalGet");
            assert_eq!(v, Some(Bytes::from_static(b"v2")));
            cs.release().await.expect("release");
        }
    });
    sim.run();

    let m = rec.metrics();
    assert!(
        m.get(Scope::Node(primary.0), "breaker_probes") >= 1,
        "recovery goes through a half-open probe"
    );
    assert!(
        m.get(Scope::Node(primary.0), "breaker_closes") >= 1,
        "successful probe closes the breaker"
    );
    let hist = m
        .histogram(Scope::Node(primary.0), "replica_recovery_us")
        .expect("recovery-time histogram is populated");
    assert_eq!(hist.samples.len(), 1, "one quarantine, one sample");
    assert!(
        hist.samples[0] >= cooldown.as_micros(),
        "recovery time {}us spans at least the cooldown",
        hist.samples[0]
    );
}
