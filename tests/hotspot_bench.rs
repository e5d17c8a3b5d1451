//! Contention-adaptive locking, proven end-to-end: the flash-crowd
//! before/after bench (adaptive must at least double the fixed config's
//! crowd-window sections on a θ = 1.2 hot-key crowd), byte-identical
//! replay of an adaptive run, and the starvation regression (a near
//! client must not monopolize a hot key via 0-RTT lease re-entries while
//! a far site pays the break path forever).
//!
//! The throughput duel runs for a **fixed virtual horizon** and counts
//! completed sections, so livelock is measurable: a configuration that
//! collapses under the crowd finishes *fewer sections* instead of
//! hanging the test. Sections are counted separately inside the crowd
//! window — outside it both configurations run the same low-contention
//! Zipfian workload, which would dilute the ratio.

use bytes::Bytes;
use music_repro::music::{MusicConfig, MusicError, MusicSystemBuilder, Watchdog};
use music_repro::simnet::prelude::*;
use music_repro::telemetry::{Recorder, Scope};
use music_repro::workload::Zipfian;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const SEED: u64 = 42;
const KEYS: u64 = 8;

struct CrowdRun {
    total: u64,
    crowd: u64,
    virtual_us: u64,
    recorder: Recorder,
}

/// One fixed-horizon flash-crowd run: `clients` clients spread over the
/// 1Us sites loop critical sections until the virtual horizon. Key
/// choice is Zipfian θ = 1.2 over a small keyspace, except inside the
/// crowd window ([20%, 85%) of the horizon) where every client converges
/// on the hot key `k0`. Clients honor the admission guard's
/// `Overloaded { retry_after }` hint; a watchdog collects the parked
/// references that client failovers can orphan mid-enqueue (without it
/// a wedged queue head would stall the drain in *both* configurations).
fn run_flash_crowd(adaptive: bool, clients: usize, horizon_s: u64) -> CrowdRun {
    let recorder = Recorder::metrics_only();
    let cfg = MusicConfig {
        lease_window: Some(SimDuration::from_secs(2)),
        adaptive,
        ..MusicConfig::default()
    };
    let sys = MusicSystemBuilder::new()
        .profile(LatencyProfile::one_us())
        .music_config(cfg)
        .seed(SEED)
        .telemetry(recorder.clone())
        .build();
    let sim = sys.sim().clone();
    let sites = sys.replicas().len();
    let dog = Watchdog::new(sys.replica(1).clone(), SimDuration::from_secs(2));
    for k in 0..KEYS {
        dog.watch(&format!("k{k}"));
    }
    dog.spawn();
    let sys2 = sys.clone();
    let (total, crowd) = sim.block_on(async move {
        let sim = sys2.sim().clone();
        let deadline = SimTime::from_micros(horizon_s * 1_000_000);
        let crowd_from = SimTime::from_micros(horizon_s * 200_000);
        let crowd_to = SimTime::from_micros(horizon_s * 850_000);
        let mut handles = Vec::new();
        for c in 0..clients {
            let client = sys2.client_at_site(c % sites);
            let sim2 = sim.clone();
            handles.push(sim.spawn(async move {
                let zipf = Zipfian::with_theta(KEYS, 1.2);
                let mut rng = SmallRng::seed_from_u64(SEED ^ (c as u64) << 17);
                let mut done = 0u64;
                let mut crowd_done = 0u64;
                while sim2.now() < deadline {
                    let now = sim2.now();
                    let key = if now >= crowd_from && now < crowd_to {
                        "k0".to_string()
                    } else {
                        format!("k{}", zipf.sample(&mut rng))
                    };
                    match client.enter(&key).await {
                        Ok(cs) => {
                            cs.put(Bytes::from_static(b"v")).await.expect("put");
                            cs.release().await.expect("release");
                            done += 1;
                            let now = sim2.now();
                            if now >= crowd_from && now < crowd_to {
                                crowd_done += 1;
                            }
                        }
                        Err(MusicError::Overloaded { retry_after }) => {
                            sim2.sleep(retry_after).await;
                        }
                        Err(_) => sim2.sleep(SimDuration::from_millis(5)).await,
                    }
                    // A short think time: long enough that leasing is
                    // *plausible*, short enough that the crowd stays hot.
                    sim2.sleep(SimDuration::from_millis(1)).await;
                }
                (done, crowd_done)
            }));
        }
        let mut total = 0u64;
        let mut crowd = 0u64;
        for h in handles {
            let (d, cd) = h.await;
            total += d;
            crowd += cd;
        }
        (total, crowd)
    });
    dog.stop();
    CrowdRun {
        total,
        crowd,
        virtual_us: sys.sim().now().as_micros(),
        recorder,
    }
}

/// The ISSUE acceptance bar: at Zipfian θ = 1.2 with a flash crowd,
/// adaptive sustains ≥ 2× the fixed configuration's sections/sec. Both
/// configurations get the same clients, horizon, and seed; the ratio is
/// taken over the crowd window where the contention actually is. Heavy
/// (two 30-client WAN runs): run with `--include-ignored` in release —
/// the CI hotspot-bench job does.
#[test]
#[ignore = "heavy: two 30-client fixed-horizon runs; CI runs with --include-ignored in release"]
fn adaptive_doubles_fixed_throughput_on_the_flash_crowd() {
    let clients = 30;
    let horizon_s = 40;
    let fixed = run_flash_crowd(false, clients, horizon_s);
    let adaptive = run_flash_crowd(true, clients, horizon_s);
    assert!(
        fixed.crowd >= 1 && adaptive.crowd >= 1,
        "both configs must make progress in the crowd: \
         fixed {} adaptive {}",
        fixed.crowd,
        adaptive.crowd
    );
    assert!(
        adaptive.crowd as f64 >= 2.0 * fixed.crowd as f64,
        "adaptive must at least double flash-crowd throughput: \
         fixed {}/{} sections (crowd/total) in {}us, \
         adaptive {}/{} in {}us (crowd ratio {:.2})",
        fixed.crowd,
        fixed.total,
        fixed.virtual_us,
        adaptive.crowd,
        adaptive.total,
        adaptive.virtual_us,
        adaptive.crowd as f64 / fixed.crowd as f64
    );
    // Adaptivity must not cost the quiet parts of the run either.
    assert!(
        adaptive.total >= fixed.total,
        "adaptive must not regress overall: fixed {} vs adaptive {}",
        fixed.total,
        adaptive.total
    );
    // The speedup must come from the controller actually engaging:
    // mode switches, combined enqueue rounds, and admission rejects
    // are the three mechanisms under test.
    let metrics = adaptive.recorder.metrics();
    assert!(
        metrics.total("strategy_switches") >= 1,
        "the crowd must drive at least one key Hot"
    );
    assert!(
        metrics.total("enqueue_combines") >= 1,
        "same-site waiters must have batched at least one enqueue round"
    );
    assert!(
        metrics.total("admission_rejects") >= 1,
        "the bounded queue must have fast-rejected part of the crowd"
    );
}

#[test]
fn flash_crowd_runs_replay_byte_identically() {
    let a = run_flash_crowd(true, 8, 12);
    let b = run_flash_crowd(true, 8, 12);
    assert_eq!(a.total, b.total, "sections must replay identically");
    assert_eq!(
        a.virtual_us, b.virtual_us,
        "virtual elapsed must replay identically"
    );
    assert_eq!(
        a.recorder.metrics().to_json(),
        b.recorder.metrics().to_json(),
        "metrics must replay byte-identically"
    );
}

/// Two-site asymmetric-RTT hotspot: a near client (site 0, co-located
/// with the quorum majority on the 1UsEu profile) and a far client (site
/// 2, across the Atlantic) both hammer one key for a fixed virtual
/// horizon. Returns per-site `sections_entered`.
fn run_hotspot_duel(adaptive: bool) -> (u64, u64) {
    let recorder = Recorder::metrics_only();
    let cfg = MusicConfig {
        lease_window: Some(SimDuration::from_secs(2)),
        adaptive,
        ..MusicConfig::default()
    };
    let sys = MusicSystemBuilder::new()
        .profile(LatencyProfile::one_us_eu())
        .music_config(cfg)
        .seed(SEED)
        .telemetry(recorder.clone())
        .build();
    let sim = sys.sim().clone();
    let near_site = 0usize;
    let far_site = 2usize;
    let sys2 = sys.clone();
    sim.block_on(async move {
        let sim = sys2.sim().clone();
        let deadline = SimTime::from_micros(20_000_000);
        let mut handles = Vec::new();
        for (site, stagger_us) in [(near_site, 0u64), (far_site, 500)] {
            let client = sys2.client_at_site(site);
            let sim2 = sim.clone();
            handles.push(sim.spawn(async move {
                sim2.sleep(SimDuration::from_micros(stagger_us)).await;
                while sim2.now() < deadline {
                    let Ok(cs) = client.enter("hot").await else {
                        sim2.sleep(SimDuration::from_millis(5)).await;
                        continue;
                    };
                    let _ = cs.put(Bytes::from_static(b"v")).await;
                    let _ = cs.release().await;
                    // Near-zero think time: the regime where a cached
                    // lease lets the holder monopolize the key.
                    sim2.sleep(SimDuration::from_micros(200)).await;
                }
            }));
        }
        for h in handles {
            h.await;
        }
    });
    let metrics = recorder.metrics();
    let near = metrics.get(Scope::Site(near_site as u32), "sections_entered");
    let far = metrics.get(Scope::Site(far_site as u32), "sections_entered");
    (near, far)
}

#[test]
fn adaptive_bounds_per_site_starvation_on_the_hotspot() {
    let (fixed_near, fixed_far) = run_hotspot_duel(false);
    let (adaptive_near, adaptive_far) = run_hotspot_duel(true);
    assert!(
        fixed_near >= 1 && fixed_far >= 1 && adaptive_near >= 1 && adaptive_far >= 1,
        "both sites must make progress in both configs: \
         fixed ({fixed_near}, {fixed_far}), adaptive ({adaptive_near}, {adaptive_far})"
    );
    let ratio = |a: u64, b: u64| a.max(b) as f64 / a.min(b) as f64;
    let adaptive_ratio = ratio(adaptive_near, adaptive_far);
    // The adaptive controller strictly bounds the per-site imbalance: the
    // fast-side/slow-side sections ratio stays under 3 even though the
    // near client *could* re-enter over its lease at 0 WAN RTTs, and the
    // fairness-triggered lease suspension + empty-queue yield are what
    // keep the far site fed.
    assert!(
        adaptive_ratio <= 3.0,
        "adaptive per-site ratio must stay bounded, got {adaptive_ratio:.2} \
         ({adaptive_near} vs {adaptive_far})"
    );
    // Fairness must not be bought with throughput: the fixed config is
    // "fair" here only because its LWT races collapse *both* sites to a
    // crawl. Adaptive must be fair while completing at least twice the
    // fixed config's total sections.
    let fixed_total = fixed_near + fixed_far;
    let adaptive_total = adaptive_near + adaptive_far;
    assert!(
        adaptive_total >= 2 * fixed_total,
        "adaptive must stay fast while fair: fixed total {fixed_total} \
         ({fixed_near} vs {fixed_far}), adaptive total {adaptive_total} \
         ({adaptive_near} vs {adaptive_far})"
    );
}
