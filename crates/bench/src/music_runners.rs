//! MUSIC / MSCP / CassaEV experiment runners.

use std::cell::Cell;
use std::collections::VecDeque;
use std::rc::Rc;

use bytes::Bytes;

use music::{
    AcquireOutcome, MusicReplica, MusicSystem, OpKind, OpStats, PendingPut, PutIssued, PutReq,
};
use music_quorumstore::Put;
use music_simnet::metrics::Histogram;
use music_simnet::time::{SimDuration, SimTime};
use music_simnet::topology::LatencyProfile;
use music_workload::sweep::payload;

use crate::setup::{music_system, Mode};

/// Parameters of one saturating throughput run.
#[derive(Clone, Debug)]
pub struct ThroughputRun {
    /// WAN profile.
    pub profile: LatencyProfile,
    /// MUSIC or MSCP.
    pub mode: Mode,
    /// Store nodes per site (1 = the 3-node cluster, 3 = the 9-node one).
    pub nodes_per_site: usize,
    /// Closed-loop client tasks (spread round-robin over sites).
    pub threads: usize,
    /// criticalPuts per critical section.
    pub batch: usize,
    /// Value payload bytes.
    pub value_size: usize,
    /// Warm-up before counting.
    pub warmup: SimDuration,
    /// Measurement window.
    pub window: SimDuration,
    /// Determinism seed.
    pub seed: u64,
}

impl ThroughputRun {
    /// Defaults mirroring Fig. 4(a): batch 1, 10-byte values.
    pub fn new(profile: LatencyProfile, mode: Mode) -> Self {
        ThroughputRun {
            profile,
            mode,
            nodes_per_site: 1,
            threads: 384,
            batch: 1,
            value_size: 10,
            warmup: SimDuration::from_secs(2),
            window: SimDuration::from_secs(8),
            seed: 7,
        }
    }
}

fn count_if_in_window(counter: &Rc<Cell<u64>>, now: SimTime, lo: SimTime, hi: SimTime) {
    if now >= lo && now < hi {
        counter.set(counter.get() + 1);
    }
}

/// Issues one pipelined criticalPut at the replica level, retrying the
/// stale-local-view nack like the synchronous runners do. Returns `None`
/// on a terminal error (the thread should stop, like the sync path).
async fn issue_pipelined(
    sim: &music_simnet::executor::Sim,
    replica: &MusicReplica,
    key: &str,
    lock_ref: music::LockRef,
    value: Bytes,
) -> Option<PendingPut> {
    loop {
        let req = PutReq {
            pipelined: true,
            ..PutReq::new(Put::value(value.clone()))
        };
        match replica.critical_put_req(key, lock_ref, req).await {
            Ok(PutIssued::Pending(pp)) => return Some(pp),
            Err(music::CriticalError::NotYetHolder) => {
                sim.sleep(SimDuration::from_millis(1)).await;
            }
            _ => return None,
        }
    }
}

/// Peak write throughput (completed criticalPuts per second) of a MUSIC /
/// MSCP deployment under `run`'s saturating closed loop. Each thread works
/// a private key (non-overlapping ranges, §VIII-a).
pub fn music_write_throughput(run: &ThroughputRun) -> f64 {
    let sys = music_system(run.profile.clone(), run.mode, run.nodes_per_site, run.seed);
    let sim = sys.sim().clone();
    let replica_count = sys.replicas().len();
    let counter = Rc::new(Cell::new(0u64));
    let t_lo = SimTime::ZERO + run.warmup;
    let t_hi = t_lo + run.window;
    let value = Bytes::from(payload(run.value_size));

    if matches!(run.mode, Mode::MusicLeased(_)) {
        // The leased series goes through the client API (the lease cache
        // lives there): each thread re-enters its private key, so every
        // section after the first skips the lock protocol.
        for t in 0..run.threads {
            let client = sys.client_at_site(t % replica_count);
            let key = format!("bench-{t}");
            let counter = Rc::clone(&counter);
            let sim2 = sim.clone();
            let value = value.clone();
            let batch = run.batch;
            let stagger = SimDuration::from_micros((t as u64 * 7919) % 200_000);
            sim.spawn(async move {
                sim2.sleep(stagger).await;
                loop {
                    let Ok(cs) = client.enter(&key).await else {
                        sim2.sleep(SimDuration::from_millis(5)).await;
                        continue;
                    };
                    for _ in 0..batch {
                        match cs.put(value.clone()).await {
                            Ok(()) => count_if_in_window(&counter, sim2.now(), t_lo, t_hi),
                            Err(_) => return,
                        }
                    }
                    // A failed release abandons the ref to the failure
                    // detector; re-entry then takes the slow path.
                    let _ = cs.release().await;
                }
            });
        }
        sim.run_until(t_hi);
        return counter.get() as f64 / run.window.as_secs_f64();
    }

    for t in 0..run.threads {
        // Spread threads over every MUSIC replica (replicas scale with the
        // store cluster, as in Fig. 1's production deployment).
        let replica = sys.replicas()[t % replica_count].clone();
        let key = format!("bench-{t}");
        let counter = Rc::clone(&counter);
        let sim2 = sim.clone();
        let value = value.clone();
        let batch = run.batch;
        let window = run.mode.window();
        let stagger = SimDuration::from_micros((t as u64 * 7919) % 200_000);
        sim.spawn(async move {
            sim2.sleep(stagger).await;
            loop {
                let Ok(lock_ref) = replica.create_lock_ref(&key).await else {
                    continue;
                };
                loop {
                    match replica.acquire_lock(&key, lock_ref).await {
                        Ok(AcquireOutcome::Acquired) => break,
                        Ok(AcquireOutcome::NoLongerHolder) => return,
                        _ => sim2.sleep(SimDuration::from_millis(2)).await,
                    }
                }
                if window > 1 {
                    // Pipelined: keep up to `window` quorum writes in
                    // flight; each ack counts when it completes.
                    let mut pending: VecDeque<PendingPut> = VecDeque::new();
                    for _ in 0..batch {
                        let Some(pp) =
                            issue_pipelined(&sim2, &replica, &key, lock_ref, value.clone()).await
                        else {
                            return;
                        };
                        pending.push_back(pp);
                        if pending.len() >= window {
                            let oldest = pending.pop_front().expect("window is non-empty");
                            match oldest.wait().await {
                                Ok(()) => count_if_in_window(&counter, sim2.now(), t_lo, t_hi),
                                Err(_) => return,
                            }
                        }
                    }
                    // Flush before handing the lock off.
                    while let Some(pp) = pending.pop_front() {
                        match pp.wait().await {
                            Ok(()) => count_if_in_window(&counter, sim2.now(), t_lo, t_hi),
                            Err(_) => return,
                        }
                    }
                } else {
                    for _ in 0..batch {
                        loop {
                            match replica.critical_put(&key, lock_ref, value.clone()).await {
                                Ok(()) => {
                                    count_if_in_window(&counter, sim2.now(), t_lo, t_hi);
                                    break;
                                }
                                Err(music::CriticalError::NotYetHolder) => {
                                    sim2.sleep(SimDuration::from_millis(1)).await;
                                }
                                Err(_) => return,
                            }
                        }
                    }
                }
                // Retry the release until it sticks: an abandoned lock
                // reference would wedge this thread's key forever.
                while replica.release_lock(&key, lock_ref).await.is_err() {
                    sim2.sleep(SimDuration::from_millis(5)).await;
                }
            }
        });
    }
    sim.run_until(t_hi);
    counter.get() as f64 / run.window.as_secs_f64()
}

/// Peak eventual-write throughput (the `CassaEV` upper bound): closed-loop
/// lock-free `put`s.
pub fn cassa_ev_throughput(
    profile: LatencyProfile,
    threads: usize,
    value_size: usize,
    warmup: SimDuration,
    window: SimDuration,
    seed: u64,
) -> f64 {
    let sys = music_system(profile.clone(), Mode::Music, 1, seed);
    let sim = sys.sim().clone();
    let sites = profile.site_count();
    let counter = Rc::new(Cell::new(0u64));
    let t_lo = SimTime::ZERO + warmup;
    let t_hi = t_lo + window;
    let value = Bytes::from(payload(value_size));

    for t in 0..threads {
        let replica = sys.replica(t % sites).clone();
        let key = format!("ev-{t}");
        let counter = Rc::clone(&counter);
        let sim2 = sim.clone();
        let value = value.clone();
        let stagger = SimDuration::from_micros((t as u64 * 104729) % 5_000);
        sim.spawn(async move {
            sim2.sleep(stagger).await;
            loop {
                if replica.put(&key, value.clone()).await.is_ok() {
                    count_if_in_window(&counter, sim2.now(), t_lo, t_hi);
                }
            }
        });
    }
    sim.run_until(t_hi);
    counter.get() as f64 / window.as_secs_f64()
}

/// Result of a single-threaded latency run.
#[derive(Clone, Debug)]
pub struct LatencyResult {
    /// Latency of whole critical sections (enter → released).
    pub section: Histogram,
    /// Per-operation breakdown sink.
    pub ops: OpStats,
    /// Protocol counter snapshot for the run (messages, retries, grants…).
    pub counters: music_telemetry::MetricsSnapshot,
}

/// Mean-latency run: one client thread at site 0 executing `sections`
/// critical sections of `batch` puts each (§VIII-a "mean latency using a
/// single thread of operation").
pub fn music_cs_latency(
    profile: LatencyProfile,
    mode: Mode,
    batch: usize,
    value_size: usize,
    sections: usize,
    seed: u64,
) -> LatencyResult {
    let sys = music_system(profile, mode, 1, seed);
    let sim = sys.sim().clone();
    let replica = sys.replica(0).clone();
    let value = Bytes::from(payload(value_size));
    let window = mode.window();
    let section_hist = Rc::new(std::cell::RefCell::new(Histogram::new()));
    let hist2 = Rc::clone(&section_hist);
    let sim2 = sim.clone();
    let handle = sim.spawn(async move {
        for s in 0..sections {
            let key = format!("lat-{s}");
            let t0 = sim2.now();
            let lock_ref = loop {
                if let Ok(r) = replica.create_lock_ref(&key).await {
                    break r;
                }
            };
            loop {
                match replica.acquire_lock(&key, lock_ref).await {
                    Ok(AcquireOutcome::Acquired) => break,
                    _ => sim2.sleep(SimDuration::from_millis(2)).await,
                }
            }
            if window > 1 {
                let mut pending: VecDeque<PendingPut> = VecDeque::new();
                for _ in 0..batch {
                    let pp = issue_pipelined(&sim2, &replica, &key, lock_ref, value.clone())
                        .await
                        .expect("latency runs are loss-free");
                    pending.push_back(pp);
                    if pending.len() >= window {
                        let oldest = pending.pop_front().expect("window is non-empty");
                        oldest.wait().await.expect("latency runs are loss-free");
                    }
                }
                // Flush: the section is only done once every put is acked.
                while let Some(pp) = pending.pop_front() {
                    pp.wait().await.expect("latency runs are loss-free");
                }
            } else {
                for _ in 0..batch {
                    while replica
                        .critical_put(&key, lock_ref, value.clone())
                        .await
                        .is_err()
                    {
                        sim2.sleep(SimDuration::from_millis(1)).await;
                    }
                }
            }
            while replica.release_lock(&key, lock_ref).await.is_err() {}
            hist2.borrow_mut().record(sim2.now() - t0);
        }
    });
    sys.stats().reset();
    sim.run_until_complete(handle);
    let section = section_hist.borrow().clone();
    LatencyResult {
        section,
        ops: sys.stats().clone(),
        counters: sys.recorder().metrics(),
    }
}

/// Mean-latency run over *repeated* critical sections on one key by one
/// client — the lease fast path's target workload (a client re-entering
/// the section it just left). Goes through the client API because the
/// lease cache lives there; under a lease-less mode every re-entry pays
/// the full lock protocol, making this the control series.
///
/// The first section (always a cold, full-protocol entry) is excluded
/// from the histogram as warm-up.
pub fn music_reentry_latency(
    profile: LatencyProfile,
    mode: Mode,
    batch: usize,
    value_size: usize,
    sections: usize,
    seed: u64,
) -> LatencyResult {
    let sys = music_system(profile, mode, 1, seed);
    let sim = sys.sim().clone();
    let client = sys.client_at_site(0);
    let value = Bytes::from(payload(value_size));
    let section_hist = Rc::new(std::cell::RefCell::new(Histogram::new()));
    let hist2 = Rc::clone(&section_hist);
    let sim2 = sim.clone();
    let handle = sim.spawn(async move {
        for s in 0..sections {
            let t0 = sim2.now();
            let cs = client
                .enter("reentry")
                .await
                .expect("quiet benches never nack");
            for _ in 0..batch {
                cs.put(value.clone())
                    .await
                    .expect("quiet benches never nack");
            }
            cs.release().await.expect("quiet benches never nack");
            if s > 0 {
                hist2.borrow_mut().record(sim2.now() - t0);
            }
        }
        // Surrender any standing lease so the queue drains.
        let _ = client.relinquish("reentry").await;
    });
    sys.stats().reset();
    sim.run_until_complete(handle);
    let section = section_hist.borrow().clone();
    LatencyResult {
        section,
        ops: sys.stats().clone(),
        counters: sys.recorder().metrics(),
    }
}

/// Mean latency of the lock-free eventual put (CassaEV), single thread.
pub fn cassa_ev_latency(
    profile: LatencyProfile,
    value_size: usize,
    iterations: usize,
    seed: u64,
) -> Histogram {
    let sys = music_system(profile, Mode::Music, 1, seed);
    let sim = sys.sim().clone();
    let replica = sys.replica(0).clone();
    let value = Bytes::from(payload(value_size));
    let handle = sim.spawn(async move {
        for i in 0..iterations {
            let key = format!("evlat-{i}");
            while replica.put(&key, value.clone()).await.is_err() {}
        }
    });
    sys.stats().reset();
    sim.run_until_complete(handle);
    sys.stats().histogram(OpKind::EventualPut)
}

/// Convenience: a system + replica pair for ad-hoc measurement code.
pub fn single_replica(
    profile: LatencyProfile,
    mode: Mode,
    seed: u64,
) -> (MusicSystem, MusicReplica) {
    let sys = music_system(profile, mode, 1, seed);
    let replica = sys.replica(0).clone();
    (sys, replica)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_runner_matches_protocol_costs() {
        // 1Us, one section, one put: create(4 RTT) + grant(1 RTT) + put
        // (1 RTT) + release(4 RTT) ≈ 540ms, far below MSCP's put.
        let music = music_cs_latency(LatencyProfile::one_us(), Mode::Music, 1, 10, 3, 1);
        let mscp = music_cs_latency(LatencyProfile::one_us(), Mode::Mscp, 1, 10, 3, 1);
        let m = music.section.mean().as_millis_f64();
        let s = mscp.section.mean().as_millis_f64();
        assert!(m > 400.0 && m < 800.0, "MUSIC CS mean {m}ms");
        assert!(
            s > m + 100.0,
            "MSCP {s}ms must exceed MUSIC {m}ms by ~3 RTT"
        );
        assert_eq!(music.ops.count(OpKind::CriticalPut), 3);
        assert_eq!(mscp.ops.count(OpKind::MscpPut), 3);
    }

    #[test]
    fn pipelining_speeds_up_write_heavy_sections_by_3x() {
        // The ISSUE's acceptance bar: batch 100 on 1Us, Pipelined{16}
        // improves mean CS latency over Sync by at least 3x. Sync pays
        // ~100 sequential quorum RTTs; pipelined pays ~ceil(100/16).
        let sync = music_cs_latency(LatencyProfile::one_us(), Mode::Music, 100, 10, 1, 5);
        let piped = music_cs_latency(
            LatencyProfile::one_us(),
            Mode::MusicPipelined(16),
            100,
            10,
            1,
            5,
        );
        let s = sync.section.mean().as_millis_f64();
        let p = piped.section.mean().as_millis_f64();
        assert!(
            p * 3.0 < s,
            "pipelined {p}ms must be >=3x faster than sync {s}ms"
        );
        // Same number of acknowledged puts either way.
        assert_eq!(piped.ops.count(OpKind::CriticalPut), 100);
    }

    #[test]
    fn lease_fast_path_reenters_at_least_2x_faster() {
        // The ISSUE's acceptance bar: uncontended re-entry of an empty
        // critical section at 1Us under the lease fast path is >=2x
        // faster than WriteMode::Sync full entry. Sync re-entry pays
        // create(4 RTT) + grant(1 RTT) + release(4 RTT); the leased one
        // pays only the release LWT (4 RTT) — entry itself is local.
        let sync = music_reentry_latency(LatencyProfile::one_us(), Mode::Music, 0, 10, 4, 9);
        let leased = music_reentry_latency(
            LatencyProfile::one_us(),
            Mode::MusicLeased(60_000_000),
            0,
            10,
            4,
            9,
        );
        let s = sync.section.mean().as_millis_f64();
        let l = leased.section.mean().as_millis_f64();
        assert!(
            l * 2.0 <= s,
            "leased re-entry {l}ms must be >=2x faster than sync {s}ms"
        );
        // Every warm section took the fast path: exactly one cold
        // createLockRef, three leased re-entries.
        assert_eq!(leased.ops.count(OpKind::CreateLockRef), 1);
        assert_eq!(leased.ops.count(OpKind::LeaseReenter), 3);
        assert_eq!(sync.ops.count(OpKind::LeaseReenter), 0);
    }

    #[test]
    fn throughput_runner_produces_positive_rates() {
        let mut run = ThroughputRun::new(LatencyProfile::one_us(), Mode::Music);
        run.threads = 12;
        run.warmup = SimDuration::from_millis(500);
        run.window = SimDuration::from_secs(2);
        let tput = music_write_throughput(&run);
        assert!(tput > 0.0, "got {tput}");
    }
}
