//! `music-load`: drives critical sections through a running `music-node`
//! cluster over real sockets, then verifies the results.
//!
//! Workload: `--clients` concurrent clients each loop over `--keys`
//! counter keys; every iteration is one full critical section —
//! `enter → criticalGet → parse → criticalPut(n+1) → release`. Because
//! every increment is a read-modify-write under the key's lock, the final
//! counter values must sum to exactly the number of sections completed:
//! any lost update, phantom grant, or stale read shows up as a mismatch.
//!
//! The flags are [`music::node::LOAD_USAGE`]; each one's effect is the
//! matching [`LoadConfig`] field's doc (key skew, flash crowd, online
//! checking, retries of the idempotent-safe steps, peek mode). A command
//! line it cannot read exits 2 with the usage.
//!
//! Exits 0 only if every requested section completed, zero protocol
//! errors were observed, the final counters verify, and (when sampling)
//! the online checker reports no violation.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;

use bytes::Bytes;
use music::node::{remote_client, LoadConfig, RemoteMusicClient, CLIENT_ID_BASE, LOAD_USAGE};
use music::{MusicConfig, MusicError, PeekMode};
use music_runtime::prelude::SimDuration;
use music_runtime::NativeRuntime;
use music_telemetry::{OnlineConfig, Recorder};
use music_workload::Zipfian;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn counter_key(prefix: &str, k: u64) -> String {
    format!("{prefix}-{k}")
}

fn decode_counter(raw: Option<Bytes>) -> Result<u64, String> {
    match raw {
        None => Ok(0),
        Some(b) => b
            .as_ref()
            .try_into()
            .map(u64::from_be_bytes)
            .map_err(|_| format!("counter value has width {} (want 8)", b.len())),
    }
}

/// One critical section: increment `key`'s counter read-modify-write.
///
/// `retries` bounds re-attempts of the safe steps only. A failed `enter`
/// left nothing held (an orphaned queue ref is the watchdog's job); a
/// failed `get` holds the lock and rereads; a failed `release` retries
/// the idempotent release op itself. A failed `put` aborts the section:
/// the ack may have been lost after the write landed, so any redo would
/// not be a read-modify-write anymore.
async fn increment(
    rt: &NativeRuntime,
    client: &RemoteMusicClient,
    key: &str,
    retries: u32,
) -> Result<(), String> {
    let mut budget = retries;
    let backoff = async |budget: &mut u32, e: MusicError| -> Result<(), String> {
        if *budget == 0 {
            return Err(e.to_string());
        }
        *budget -= 1;
        // The admission guard's fast-reject names its own comeback time;
        // everything else gets the flat transient-failure pause.
        let pause = match e {
            MusicError::Overloaded { retry_after } => retry_after,
            _ => SimDuration::from_millis(100),
        };
        rt.sleep(pause).await;
        Ok(())
    };
    let cs = loop {
        match client.enter(key).await {
            Ok(cs) => break cs,
            Err(e) => backoff(&mut budget, e).await?,
        }
    };
    let prev = loop {
        match cs.get().await {
            Ok(v) => break v,
            Err(e) => backoff(&mut budget, e).await?,
        }
    };
    // A malformed counter is a protocol error, not a client bug: abandon
    // the section so the run fails loudly.
    let next = decode_counter(prev)? + 1;
    cs.put(Bytes::copy_from_slice(&next.to_be_bytes()))
        .await
        .map_err(|e| e.to_string())?;
    // `release` consumes the section; on failure, retry the underlying
    // idempotent release op directly with the captured reference.
    let lock_ref = cs.lock_ref();
    let mut last = match cs.release().await {
        Ok(()) => return Ok(()),
        Err(e) => e,
    };
    loop {
        backoff(&mut budget, last).await?;
        match client.release_lock(key, lock_ref).await {
            Ok(()) => return Ok(()),
            Err(e) => last = e,
        }
    }
}

fn main() {
    let cfg = match LoadConfig::from_args(std::env::args().skip(1)) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("music-load: {e}");
            eprintln!("{LOAD_USAGE}");
            std::process::exit(2);
        }
    };

    let rt = NativeRuntime::new();
    // Quorum peeks survive any single node's death; local peeks are the
    // paper's default and pin each key's grant polling to its primary.
    // Flash crowds run with the contention-adaptive controller on: the
    // whole point of that pass is the hot-key convergence the controller
    // exists to absorb.
    let music_cfg = MusicConfig {
        peek_mode: if cfg.peek_quorum {
            PeekMode::Quorum
        } else {
            PeekMode::Local
        },
        adaptive: cfg.flash_crowd,
        ..MusicConfig::default()
    };
    // With sampling on, the recorder feeds the streaming checker and
    // stores nothing; otherwise it is fully off.
    let recorder = if cfg.online_sample > 0 {
        Recorder::online(OnlineConfig::unbounded().with_sampling(cfg.online_sample))
    } else {
        Recorder::off()
    };
    let completed: Rc<RefCell<HashMap<String, u64>>> = Rc::new(RefCell::new(HashMap::new()));
    let errors: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
    let started = Instant::now();

    let mut handles = Vec::new();
    for c in 0..cfg.clients {
        // Spread sections round-robin so any client count divides the work.
        let quota = cfg.sections / u64::from(cfg.clients)
            + u64::from(u64::from(c) < cfg.sections % u64::from(cfg.clients));
        if quota == 0 {
            continue;
        }
        let client = match remote_client(
            &rt,
            CLIENT_ID_BASE + c,
            &cfg.peers,
            cfg.rf,
            music_cfg.clone(),
            recorder.clone(),
        ) {
            Ok(client) => client,
            Err(e) => {
                eprintln!("music-load: client {c} setup failed: {e}");
                std::process::exit(1);
            }
        };
        let completed = Rc::clone(&completed);
        let errors = Rc::clone(&errors);
        let keys = u64::from(cfg.keys);
        let prefix = cfg.key_prefix.clone();
        let retries = cfg.retries;
        let zipf_theta = cfg.zipf_theta;
        let flash_crowd = cfg.flash_crowd;
        let rt2 = rt.clone();
        handles.push(rt.spawn(async move {
            let zipf = (zipf_theta > 0.0).then(|| Zipfian::with_theta(keys, zipf_theta));
            let mut rng = SmallRng::seed_from_u64(0x6d75_7369_635f_6c64 ^ u64::from(c));
            for i in 0..quota {
                // Flash crowd: the middle half of the quota converges on
                // key 0; the edges keep the configured key distribution.
                let k = if flash_crowd && i >= quota / 4 && i < quota - quota / 4 {
                    0
                } else if let Some(zipf) = &zipf {
                    zipf.sample(&mut rng)
                } else {
                    (u64::from(c) + i) % keys
                };
                let key = counter_key(&prefix, k);
                match increment(&rt2, &client, &key, retries).await {
                    Ok(()) => *completed.borrow_mut().entry(key).or_insert(0) += 1,
                    Err(e) => errors
                        .borrow_mut()
                        .push(format!("client {c} section on {key}: {e}")),
                }
            }
        }));
    }
    rt.block_on(async move {
        for h in handles {
            h.await;
        }
    });

    let done: u64 = completed.borrow().values().sum();
    let errs = errors.borrow().clone();
    let secs = started.elapsed().as_secs_f64();
    // Machine-readable throughput line: `local_cluster.sh` extracts it
    // into the `BENCH_load.json` artifact (the socket-cluster point of
    // the BENCH trajectory, alongside the simulator's `BENCH_*.json`).
    println!(
        "{{\"kind\":\"benchLoad\",\"sections\":{},\"completed\":{done},\"errors\":{},\
         \"clients\":{},\"keys\":{},\"onlineSample\":{},\"elapsedSecs\":{secs:.3},\
         \"sectionsPerSec\":{:.1}}}",
        cfg.sections,
        errs.len(),
        cfg.clients,
        cfg.keys,
        cfg.online_sample,
        done as f64 / secs.max(1e-9),
    );
    println!(
        "music-load: {done}/{} sections completed, {} errors in {secs:.2}s ({:.1} sections/s)",
        cfg.sections,
        errs.len(),
        done as f64 / secs.max(1e-9),
    );
    for e in &errs {
        eprintln!("music-load: error: {e}");
    }

    // Verify: read every counter under its lock; the values must sum to
    // exactly the sections completed, key by key.
    let verifier = match remote_client(
        &rt,
        CLIENT_ID_BASE + cfg.clients,
        &cfg.peers,
        cfg.rf,
        music_cfg,
        recorder.clone(),
    ) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("music-load: verifier setup failed: {e}");
            std::process::exit(1);
        }
    };
    let keys = u64::from(cfg.keys);
    let expected = completed.borrow().clone();
    let prefix = cfg.key_prefix.clone();
    let retries = cfg.retries;
    let rt2 = rt.clone();
    let mismatches = rt.block_on(async move {
        let mut mismatches = Vec::new();
        for k in 0..keys {
            let key = counter_key(&prefix, k);
            let want = expected.get(&key).copied().unwrap_or(0);
            let read = async {
                let mut budget = retries;
                loop {
                    let attempt = async {
                        let cs = verifier.enter(&key).await?;
                        let v = cs.get().await?;
                        cs.release().await?;
                        Ok::<_, MusicError>(v)
                    }
                    .await;
                    match attempt {
                        Ok(v) => return Ok(v),
                        Err(e) if budget == 0 => return Err(e),
                        Err(_) => {
                            budget -= 1;
                            rt2.sleep(SimDuration::from_millis(100)).await;
                        }
                    }
                }
            }
            .await;
            match read.map(decode_counter) {
                Ok(Ok(got)) if got == want => {}
                Ok(Ok(got)) => mismatches.push(format!("{key}: counter {got}, want {want}")),
                Ok(Err(e)) => mismatches.push(format!("{key}: {e}")),
                Err(e) => mismatches.push(format!("{key}: verify read failed: {e}")),
            }
        }
        mismatches
    });
    for m in &mismatches {
        eprintln!("music-load: verify: {m}");
    }

    // With sampling on, the streaming checker saw every event the clients
    // and verifier emitted: report its verdict and fail on violations.
    let mut online_clean = true;
    if let Some(rep) = recorder.online_report() {
        println!("music-load: {rep}");
        if !rep.ok() {
            online_clean = false;
            for v in rep.ecf.violations.iter().chain(&rep.queue_violations) {
                eprintln!("music-load: online: {v}");
            }
        }
    }

    if done == cfg.sections && errs.is_empty() && mismatches.is_empty() && online_clean {
        println!(
            "music-load: counter check OK ({} keys, total {done})",
            cfg.keys
        );
    } else {
        eprintln!("music-load: FAILED");
        std::process::exit(1);
    }
}
