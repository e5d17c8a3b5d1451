//! The `music-sim trace` scenario: a short, seeded chaos run that
//! exercises every instrumented code path — clean critical sections, a
//! lockholder crash mid-`criticalPut` (the §IV-B case), watchdog
//! preemption, a site partition with client fail-over, an anti-entropy
//! sweep, and the full lease lifecycle (grant, warm re-entry, a
//! competitor's break, and a watchdog revocation of an abandoned lease)
//! — while a [`Recorder`] captures the causal event log and per-node
//! counters.
//!
//! The scenario is *deterministic*: a given `(seed, profile)` pair always
//! produces the identical virtual-time schedule, and — because recording
//! is pure bookkeeping — the schedule is byte-for-byte the same whether
//! the recorder is off, counting, or tracing.

use bytes::Bytes;
use music::{
    AcquireOutcome, CriticalSection, MusicConfig, MusicSystemBuilder, RepairDaemon, Watchdog,
    WriteMode,
};
use music_simnet::prelude::*;
use music_telemetry::span::check as check_spans;
use music_telemetry::{
    Event, MetricsSnapshot, OnlineConfig, OnlineReport, Recorder, Span, SpanReport, TraceId,
};

/// `criticalGet` with retries: under the run's 1% loss a quorum read can
/// transiently exhaust its retransmits on an unlucky seed; a scripted
/// scenario retries exactly like a real client and only then gives up.
async fn get_retrying(sim: &Sim, cs: &CriticalSection, what: &str) -> Option<Bytes> {
    for _ in 0..10 {
        if let Ok(v) = cs.get().await {
            return v;
        }
        sim.sleep(SimDuration::from_millis(50)).await;
    }
    cs.get().await.unwrap_or_else(|e| panic!("{what}: {e:?}"))
}

/// `criticalPut` with retries (see [`get_retrying`]); MUSIC puts are
/// idempotent per stamp, so retrying an acknowledged-but-lost put is safe.
async fn put_retrying(sim: &Sim, cs: &CriticalSection, value: Bytes, what: &str) {
    for _ in 0..10 {
        if cs.put(value.clone()).await.is_ok() {
            return;
        }
        sim.sleep(SimDuration::from_millis(50)).await;
    }
    cs.put(value)
        .await
        .unwrap_or_else(|e| panic!("{what}: {e:?}"));
}

/// Everything a chaos run produces: the op-outcome log (for determinism
/// comparisons), the recorded telemetry, and the checker's verdict.
#[derive(Debug)]
pub struct TraceRun {
    /// Human-readable outcome of every scripted operation, in order.
    pub outcomes: Vec<String>,
    /// Final virtual time, in microseconds.
    pub final_time_us: u64,
    /// The recorded event log (empty unless the recorder was tracing).
    pub events: Vec<Event>,
    /// Counter snapshot (empty if the recorder was off).
    pub metrics: MetricsSnapshot,
    /// The verdict — ECF plus the lock-queue refinement — computed by the
    /// checker *during* the run (empty unless the recorder was tracing).
    pub report: OnlineReport,
    /// The recorded span log (empty unless the recorder was tracing).
    pub spans: Vec<Span>,
    /// Span-tree well-formedness verdict over `spans`.
    pub span_report: SpanReport,
    /// Site of each node, indexed by node id (for `--site` filtering).
    pub node_sites: Vec<u32>,
}

/// Events surviving the `music-sim trace` output filters. `node_sites`
/// maps node id → site (see [`TraceRun::node_sites`]); `None` filters
/// pass everything. Filtering applies to the *printed* lines only — the
/// checker always sees the full log.
pub fn filter_events(
    events: &[Event],
    node_sites: &[u32],
    node: Option<u32>,
    site: Option<u32>,
    trace: Option<TraceId>,
) -> Vec<Event> {
    events
        .iter()
        .filter(|e| node.is_none_or(|n| e.node == n))
        .filter(|e| site.is_none_or(|s| node_sites.get(e.node as usize).copied() == Some(s)))
        .filter(|e| trace.is_none_or(|t| e.trace == t))
        .cloned()
        .collect()
}

/// Spans surviving the same filters (spans carry their site directly).
pub fn filter_spans(
    spans: &[Span],
    node: Option<u32>,
    site: Option<u32>,
    trace: Option<TraceId>,
) -> Vec<Span> {
    spans
        .iter()
        .filter(|s| node.is_none_or(|n| s.node == n))
        .filter(|s| site.is_none_or(|x| s.site == x))
        .filter(|s| trace.is_none_or(|t| s.trace == t))
        .cloned()
        .collect()
}

/// Runs the seeded chaos scenario with `recorder` installed and returns
/// the recorded telemetry plus the checker's verdict.
pub fn run_chaos(profile: LatencyProfile, seed: u64, recorder: Recorder) -> TraceRun {
    // Check the run as it executes: attach the streaming checker unless
    // the caller already configured one (e.g. a sampling window).
    if recorder.is_tracing() && recorder.online_report().is_none() {
        recorder.attach_online(OnlineConfig::unbounded());
    }
    let net_cfg = NetConfig {
        loss: 0.01,
        jitter_frac: 0.05,
        ..NetConfig::default()
    };
    let music_cfg = MusicConfig {
        failure_timeout: SimDuration::from_secs(10),
        ..MusicConfig::default()
    };
    let sys = MusicSystemBuilder::new()
        .profile(profile)
        .net_config(net_cfg)
        .music_config(music_cfg)
        .seed(seed)
        .telemetry(recorder.clone())
        .build();
    let sim = sys.sim().clone();
    let sys2 = sys.clone();
    let outcomes = sim.block_on(async move {
        let mut log: Vec<String> = Vec::new();
        let b = |s: &str| Bytes::from(s.as_bytes().to_vec());

        // Phase 1 — a clean critical section from site 0.
        let client = sys2.client_at_site(0);
        let cs = client.enter("alpha").await.expect("enter alpha");
        log.push(format!("alpha: entered with {}", cs.lock_ref()));
        log.push(format!(
            "alpha: get -> {:?}",
            get_retrying(sys2.sim(), &cs, "alpha get").await
        ));
        put_retrying(sys2.sim(), &cs, b("alpha-v1"), "alpha put").await;
        log.push("alpha: put acknowledged".into());
        let v = get_retrying(sys2.sim(), &cs, "alpha get").await;
        log.push(format!("alpha: get -> {:?}", v.map(|v| v.len())));
        cs.release().await.expect("release");
        log.push("alpha: released".into());

        // Phase 2 — lockholder crash mid-criticalPut (§IV-B). Seed an
        // acknowledged value, re-acquire, partition the holder's site so
        // its next put cannot reach a quorum, and abandon it (crash).
        let dog = Watchdog::new(sys2.replica(1).clone(), SimDuration::from_millis(500));
        dog.watch("beta");
        dog.spawn();
        let holder = sys2.replica(0).clone();
        let r0 = holder.create_lock_ref("beta").await.expect("lockref");
        while holder.acquire_lock("beta", r0).await.expect("acquire") != AcquireOutcome::Acquired {
            sys2.sim().sleep(SimDuration::from_millis(10)).await;
        }
        holder
            .critical_put("beta", r0, b("beta-stable"))
            .await
            .expect("put");
        log.push("beta: stable value acknowledged".into());
        sys2.net().partition_site(SiteId(0), true);
        let res = holder.critical_put("beta", r0, b("beta-halfway")).await;
        log.push(format!(
            "beta: mid-put under partition -> ok={}",
            res.is_ok()
        ));
        // The holder crashes here: nobody releases r0. Heal the site so
        // the in-flight write may still trickle in (the interesting case).
        sys2.net().partition_site(SiteId(0), false);

        // The watchdog preempts the dead holder; a new client takes over.
        let takeover = sys2.replica(2).clone();
        let r1 = takeover.create_lock_ref("beta").await.expect("lockref");
        let deadline = sys2.sim().now() + SimDuration::from_secs(30);
        loop {
            // Transient `Err` polls are expected under 1% loss: retry
            // within the deadline like any real waiter would.
            match takeover.acquire_lock("beta", r1).await {
                Ok(AcquireOutcome::Acquired) => break,
                Ok(_) | Err(_) => {
                    assert!(sys2.sim().now() < deadline, "watchdog never cleared beta");
                    sys2.sim().sleep(SimDuration::from_millis(100)).await;
                }
            }
        }
        let mut read = None;
        for attempt in 0.. {
            match takeover.critical_get("beta", r1).await {
                Ok(v) => {
                    read = v;
                    break;
                }
                Err(e) => {
                    assert!(attempt < 10, "beta takeover get: {e:?}");
                    sys2.sim().sleep(SimDuration::from_millis(50)).await;
                }
            }
        }
        log.push(format!(
            "beta: takeover read -> {:?}",
            read.map(|v| String::from_utf8_lossy(&v).into_owned())
        ));
        for attempt in 0.. {
            match takeover.critical_put("beta", r1, b("beta-recovered")).await {
                Ok(()) => break,
                Err(e) => {
                    assert!(attempt < 10, "beta takeover put: {e:?}");
                    sys2.sim().sleep(SimDuration::from_millis(50)).await;
                }
            }
        }
        for attempt in 0.. {
            // Idempotent: a nacked release retries harmlessly.
            match takeover.release_lock("beta", r1).await {
                Ok(()) => break,
                Err(e) => {
                    assert!(attempt < 10, "beta release: {e:?}");
                    sys2.sim().sleep(SimDuration::from_millis(50)).await;
                }
            }
        }
        log.push(format!(
            "beta: recovered ({} preemptions)",
            dog.preemptions()
        ));
        dog.stop();

        // Phase 3 — a remote-site flap while a critical section runs, then
        // an anti-entropy sweep to heal whatever the flap left behind.
        sys2.net().partition_site(SiteId(2), true);
        let cs = client.enter("gamma").await.expect("enter gamma");
        put_retrying(sys2.sim(), &cs, b("gamma-v1"), "gamma put").await;
        cs.release().await.expect("release");
        log.push("gamma: critical section under site-2 partition".into());
        sys2.net().partition_site(SiteId(2), false);
        let fixer = RepairDaemon::new(sys2.replica(1).clone(), SimDuration::from_secs(60));
        fixer.sweep_once().await;
        log.push(format!("repair: {} keys healed", fixer.repaired()));

        // Phase 4 — lock-free traffic for the eventual paths. Retried like
        // every other quorum op here: under the run's 1% loss an unlucky
        // seed can transiently exhaust a single op's retransmits.
        let r = sys2.replica(1).clone();
        for attempt in 0.. {
            match r.put("notes", b("eventual")).await {
                Ok(()) => break,
                Err(e) => {
                    assert!(attempt < 10, "notes put: {e:?}");
                    sys2.sim().sleep(SimDuration::from_millis(50)).await;
                }
            }
        }
        let mut notes = None;
        for attempt in 0.. {
            match r.get("notes").await {
                Ok(v) => {
                    notes = v;
                    break;
                }
                Err(e) => {
                    assert!(attempt < 10, "notes get: {e:?}");
                    sys2.sim().sleep(SimDuration::from_millis(50)).await;
                }
            }
        }
        log.push(format!("notes: get -> {:?}", notes.map(|v| v.len())));

        // Phase 5 — a clean *pipelined* critical section: puts are issued
        // with a bounded in-flight window; the criticalGet and the release
        // act as flush barriers.
        let piped = sys2
            .client_at_site(1)
            .with_write_mode(WriteMode::Pipelined { window: 4 });
        let cs = piped.enter("delta").await.expect("enter delta");
        let mut peak = 0usize;
        for i in 0..8 {
            cs.put_async(Bytes::from(format!("delta-v{i}").into_bytes()))
                .await
                .expect("put_async");
            peak = peak.max(cs.in_flight());
        }
        log.push(format!("delta: 8 pipelined puts, peak in-flight {peak}"));
        cs.flush().await.expect("flush");
        log.push(format!("delta: flushed, in-flight {}", cs.in_flight()));
        let v = get_retrying(sys2.sim(), &cs, "delta get").await;
        log.push(format!(
            "delta: get -> {:?}",
            v.map(|v| String::from_utf8_lossy(&v).into_owned())
        ));
        cs.release().await.expect("release");

        // Phase 6 — a pipelined lockholder crashing with writes still in
        // flight: the unacknowledged quorum writes keep propagating like a
        // crashed holder's (§IV-B), the watchdog preempts with a
        // resynchronizing forcedRelease, and the takeover reads cleanly.
        let dog = Watchdog::new(sys2.replica(0).clone(), SimDuration::from_millis(500));
        dog.watch("delta");
        dog.spawn();
        let piped2 = sys2
            .client_at_site(2)
            .with_write_mode(WriteMode::Pipelined { window: 4 });
        let cs = piped2.enter("delta").await.expect("re-enter delta");
        // Cut site 2 off *after* entering: issuing only needs the local
        // lock-store peek, so the puts launch but their quorum writes hang.
        sys2.net().partition_site(SiteId(2), true);
        // Issuing may already surface an `Err` from a timed-out in-flight
        // write on some seeds; either way the holder dies with whatever
        // made it out, which is the case under test.
        let _ = cs.put_async(b("delta-inflight-1")).await;
        let _ = cs.put_async(b("delta-inflight-2")).await;
        log.push(format!(
            "delta: crashed with {} writes in flight",
            cs.in_flight()
        ));
        drop(cs); // the holder dies; nobody flushes or releases
        sys2.net().partition_site(SiteId(2), false);
        let takeover = sys2.client_at_site(0);
        let cs = takeover.enter("delta").await.expect("takeover enter");
        let v = get_retrying(sys2.sim(), &cs, "delta takeover get").await;
        log.push(format!(
            "delta: takeover read {:?} ({} preemptions)",
            v.map(|v| String::from_utf8_lossy(&v).into_owned()),
            dog.preemptions()
        ));
        cs.release().await.expect("takeover release");
        dog.stop();

        // Phase 7 — the lease lifecycle: a clean release retains a lease,
        // the next section re-enters warm, a competitor breaks the
        // standing lease, the broken owner's cached grant fails
        // revalidation and falls back to the slow path, and finally the
        // owner vanishes holding a fresh lease — which the watchdog
        // revokes exactly like a preempted dead holder.
        let dog = Watchdog::new(sys2.replica(1).clone(), SimDuration::from_millis(500));
        dog.watch("epsilon");
        dog.spawn();
        let leaser = sys2
            .client_at_site(1)
            .with_lease_window(SimDuration::from_secs(5));
        let cs = leaser.enter("epsilon").await.expect("enter epsilon");
        put_retrying(sys2.sim(), &cs, b("epsilon-v1"), "epsilon put").await;
        cs.release().await.expect("release");
        let cs = leaser.enter("epsilon").await.expect("lease re-enter");
        log.push(format!(
            "epsilon: warm re-entry with {} under the lease",
            cs.lock_ref()
        ));
        put_retrying(sys2.sim(), &cs, b("epsilon-v2"), "epsilon put").await;
        cs.release().await.expect("release");
        let breaker = sys2.client_at_site(0);
        let cs = breaker.enter("epsilon").await.expect("break enter");
        put_retrying(sys2.sim(), &cs, b("epsilon-v3"), "epsilon put").await;
        cs.release().await.expect("release");
        log.push("epsilon: competitor broke the lease and ran its section".into());
        let cs = leaser.enter("epsilon").await.expect("post-break enter");
        let v = get_retrying(sys2.sim(), &cs, "epsilon get").await;
        log.push(format!(
            "epsilon: broken owner re-entered slow, read {:?}",
            v.map(|v| String::from_utf8_lossy(&v).into_owned())
        ));
        put_retrying(sys2.sim(), &cs, b("epsilon-v4"), "epsilon put").await;
        cs.release().await.expect("release");
        drop(leaser); // vanishes without relinquishing its fresh lease
        let deadline = sys2.sim().now() + SimDuration::from_secs(30);
        while dog.lease_revocations() == 0 {
            assert!(
                sys2.sim().now() < deadline,
                "watchdog never revoked epsilon"
            );
            sys2.sim().sleep(SimDuration::from_millis(200)).await;
        }
        let cs = breaker.enter("epsilon").await.expect("post-revoke enter");
        let v = get_retrying(sys2.sim(), &cs, "epsilon takeover get").await;
        log.push(format!(
            "epsilon: lease revoked ({}), takeover read {:?}",
            dog.lease_revocations(),
            v.map(|v| String::from_utf8_lossy(&v).into_owned())
        ));
        cs.release().await.expect("release");
        dog.stop();
        log
    });

    let final_time_us = sys.sim().now().as_micros();
    let events = recorder.events();
    let metrics = recorder.metrics();
    let report = recorder.online_report().unwrap_or_default();
    let spans = recorder.spans();
    let span_report = check_spans(&spans);
    let node_sites = (0..sys.net().node_count() as u32)
        .map(|n| sys.net().site_of(NodeId(n)).0)
        .collect();
    TraceRun {
        outcomes,
        final_time_us,
        events,
        metrics,
        report,
        spans,
        span_report,
        node_sites,
    }
}
