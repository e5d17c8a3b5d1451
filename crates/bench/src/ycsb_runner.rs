//! YCSB runner (Fig. 9): R / UR / U workloads with Zipfian key choice and
//! genuine lock collisions, comparing MUSIC and MSCP.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use bytes::Bytes;

use music::{AcquireOutcome, CriticalError};
use music_simnet::metrics::Histogram;
use music_simnet::time::SimDuration;
use music_simnet::topology::LatencyProfile;
use music_workload::sweep::payload;
use music_workload::{Op, WorkloadKind, WorkloadSpec};

use crate::setup::Mode;

/// Results of one YCSB run.
#[derive(Clone, Debug)]
pub struct YcsbResult {
    /// Operations per second over the makespan.
    pub throughput: f64,
    /// Read-operation latencies.
    pub read_latency: Histogram,
    /// Update-operation latencies.
    pub update_latency: Histogram,
    /// Fraction of operations that contended for a lock (the paper reports
    /// ~5.5%).
    pub collision_rate: f64,
    /// Total operations executed.
    pub ops: u64,
}

/// Runs a Fig. 9 workload: `threads` workers share the operation stream;
/// every operation runs as its own critical section on the chosen key
/// (create → acquire → get/put → release), so Zipfian-hot keys produce
/// lock collisions among workers.
pub fn run_ycsb(
    profile: LatencyProfile,
    mode: Mode,
    kind: WorkloadKind,
    threads: usize,
    op_count: u64,
    seed: u64,
) -> YcsbResult {
    // Aggressive failure detection: with many workers LWT-racing the hot
    // Zipfian keys, *orphan* lock references occur (a createLockRef whose
    // first ballot attempt committed but was retried — §IV-B); a watchdog
    // must collect them or the hot key wedges, exactly as in production.
    let mut cfg = crate::setup::bench_music_config(mode);
    cfg.failure_timeout = SimDuration::from_secs(5);
    let sys = crate::setup::music_system_with(profile.clone(), cfg, 1, seed);
    let sim = sys.sim().clone();
    let sites = profile.site_count();

    let spec = WorkloadSpec {
        op_count,
        ..WorkloadSpec::fig9(kind, seed)
    };

    // Load phase: seed every record with an eventual put, then settle.
    {
        let replica = sys.replica(0).clone();
        let keys: Vec<String> = spec.all_keys().collect();
        let h = sim.spawn(async move {
            for k in keys {
                let _ = replica.put(&k, Bytes::from_static(b"init")).await;
            }
        });
        sim.run_until_complete(h);
        sim.run(); // drain propagation so reads find data everywhere
    }

    // Started only after the load settles: the watchdog's periodic timer
    // would otherwise keep `sim.run()` from ever quiescing.
    let watchdog = music::Watchdog::new(sys.replica(0).clone(), SimDuration::from_millis(500));
    for k in spec.all_keys() {
        watchdog.watch(&k);
    }
    watchdog.spawn();

    // Deal the operation stream round-robin to the workers.
    let mut per_thread: Vec<Vec<Op>> = vec![Vec::new(); threads];
    for (i, op) in spec.generator().enumerate() {
        per_thread[i % threads].push(op);
    }

    let read_hist = Rc::new(RefCell::new(Histogram::new()));
    let update_hist = Rc::new(RefCell::new(Histogram::new()));
    let collisions = Rc::new(Cell::new(0u64));
    let done_ops = Rc::new(Cell::new(0u64));
    let start = sim.now();
    let value = Bytes::from(payload(spec.value_size));

    let mut handles = Vec::new();
    for (t, ops) in per_thread.into_iter().enumerate() {
        let replica = sys.replica(t % sites).clone();
        let sim2 = sim.clone();
        let read_hist = Rc::clone(&read_hist);
        let update_hist = Rc::clone(&update_hist);
        let collisions = Rc::clone(&collisions);
        let done_ops = Rc::clone(&done_ops);
        let value = value.clone();
        handles.push(sim.spawn(async move {
            for op in ops {
                let key = op.key().to_string();
                let t0 = sim2.now();
                // One critical section per operation.
                let Ok(lock_ref) = retry_create(&replica, &key, &sim2).await else {
                    continue;
                };
                let mut contended = false;
                let mut last_report = sim2.now();
                // Standard exponential back-off on the acquire poll
                // (§III-A: "Standard back-off mechanisms can be used to
                // alleviate the cost of polling").
                let mut poll = SimDuration::from_millis(2);
                let poll_cap = SimDuration::from_millis(128);
                let granted = loop {
                    match replica.acquire_lock(&key, lock_ref).await {
                        Ok(AcquireOutcome::Acquired) => break true,
                        Ok(AcquireOutcome::NotYet) => {
                            contended = true;
                            sim2.sleep(poll).await;
                            poll = (poll * 2).min(poll_cap);
                        }
                        Ok(AcquireOutcome::NoLongerHolder) => break false,
                        Err(_) => sim2.sleep(poll).await,
                    }
                    if std::env::var("MUSIC_YCSB_TRACE").is_ok()
                        && sim2.now() - last_report > SimDuration::from_secs(10)
                    {
                        last_report = sim2.now();
                        let head = replica.peek_holder(&key).await;
                        eprintln!(
                            "[ycsb] t={} worker={t} STUCK on {key} mine={lock_ref} head={head:?}",
                            sim2.now()
                        );
                    }
                };
                if contended {
                    collisions.set(collisions.get() + 1);
                }
                if !granted {
                    continue;
                }
                let ok = match &op {
                    Op::Read(_) => run_read(&replica, &key, lock_ref, &sim2).await,
                    Op::Update(_) => run_update(&replica, &key, lock_ref, &value, &sim2).await,
                };
                // Retry the release until it sticks: an abandoned lock
                // reference would wedge this hot key for every worker.
                while replica.release_lock(&key, lock_ref).await.is_err() {
                    sim2.sleep(SimDuration::from_millis(5)).await;
                }
                if ok {
                    let elapsed = sim2.now() - t0;
                    match &op {
                        Op::Read(_) => read_hist.borrow_mut().record(elapsed),
                        Op::Update(_) => update_hist.borrow_mut().record(elapsed),
                    }
                    done_ops.set(done_ops.get() + 1);
                    if std::env::var("MUSIC_YCSB_TRACE").is_ok() {
                        eprintln!(
                            "[ycsb] t={} worker={t} done={} key={}",
                            sim2.now(),
                            done_ops.get(),
                            op.key()
                        );
                    }
                }
            }
        }));
    }
    for h in handles {
        sim.run_until_complete(h);
    }
    watchdog.stop();
    let makespan = (sim.now() - start).as_secs_f64();
    let read_latency = read_hist.borrow().clone();
    let update_latency = update_hist.borrow().clone();
    YcsbResult {
        throughput: done_ops.get() as f64 / makespan.max(1e-9),
        read_latency,
        update_latency,
        collision_rate: collisions.get() as f64 / op_count as f64,
        ops: done_ops.get(),
    }
}

async fn retry_create(
    replica: &music::MusicReplica,
    key: &str,
    sim: &music_simnet::executor::Sim,
) -> Result<music::LockRef, ()> {
    for _ in 0..16 {
        if let Ok(r) = replica.create_lock_ref(key).await {
            return Ok(r);
        }
        sim.sleep(SimDuration::from_millis(5)).await;
    }
    Err(())
}

async fn run_read(
    replica: &music::MusicReplica,
    key: &str,
    lock_ref: music::LockRef,
    sim: &music_simnet::executor::Sim,
) -> bool {
    for _ in 0..16 {
        match replica.critical_get(key, lock_ref).await {
            Ok(_) => return true,
            Err(CriticalError::NotYetHolder) => sim.sleep(SimDuration::from_millis(1)).await,
            Err(_) => return false,
        }
    }
    false
}

async fn run_update(
    replica: &music::MusicReplica,
    key: &str,
    lock_ref: music::LockRef,
    value: &Bytes,
    sim: &music_simnet::executor::Sim,
) -> bool {
    for _ in 0..16 {
        match replica.critical_put(key, lock_ref, value.clone()).await {
            Ok(()) => return true,
            Err(CriticalError::NotYetHolder) => sim.sleep(SimDuration::from_millis(1)).await,
            Err(_) => return false,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_ycsb_run_completes_with_collisions() {
        let res = run_ycsb(
            LatencyProfile::one_us(),
            Mode::Music,
            WorkloadKind::Ur,
            8,
            200,
            5,
        );
        assert!(res.ops >= 195, "nearly all ops complete, got {}", res.ops);
        assert!(res.throughput > 0.0);
        assert!(res.read_latency.count() > 0);
        assert!(res.update_latency.count() > 0);
        assert!(
            res.collision_rate > 0.0,
            "zipfian contention must produce some collisions"
        );
    }
}
