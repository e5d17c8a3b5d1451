//! The one critical section every workload runs — `enter → get → put(s) →
//! release` on a counter key — generic over the client stack so the same
//! code drives the simulator, the socket stack, and the traced socket
//! stack.

use bytes::Bytes;
use music::{MusicClient, MusicError};
use music_lockstore::LockPartition;
use music_quorumstore::{DataRow, TableApi};
use music_runtime::{timeout, Runtime};
use music_simnet::time::SimDuration;

use crate::trace::{self, ClientTrace};

/// What one section writes, and how long the client waits for each step.
#[derive(Copy, Clone, Debug)]
pub struct Shape {
    /// `criticalPut`s per section (one `criticalGet` rides along).
    pub puts: usize,
    /// Bytes per value: an 8-byte big-endian counter, then seeded filler.
    pub value_len: usize,
    /// The application's deadline for each operation, in the workload's
    /// clock. `enter` has no bound of its own — a reference the failure
    /// detector collected off an otherwise empty queue polls `NotYet`
    /// forever — so, like the repo's nemesis clients, the load gives up on
    /// an operation after this long and counts the attempt as failed.
    pub op_deadline: SimDuration,
}

/// What the section expects to read and what it writes.
#[derive(Copy, Clone, Debug)]
pub enum Target {
    /// The key belongs to this client alone, which has completed `done`
    /// sections on it: the read must return `done` — or `done + 1` when an
    /// earlier attempt's put may have landed before failing (`ambiguous`) —
    /// and the section writes `done + 1`, so a retried attempt is
    /// idempotent.
    Private { done: u64, ambiguous: bool },
    /// The key is shared: the read must not go below `floor` (the last
    /// value this client wrote) and the section writes `read + 1`.
    Shared { floor: u64 },
}

/// Why an attempt did not complete.
#[derive(Debug)]
pub enum AttemptError {
    /// The system refused or failed an operation, or it outlived the
    /// client's deadline. `put_issued` tells whether a put may have landed.
    Op { err: String, put_issued: bool },
    /// A read returned a value the workload cannot have written: an ECF
    /// violation as far as the harness can see. Fails the run's check.
    Wrong(String),
}

pub fn encode(counter: u64, put_index: usize, body: &[u8]) -> Bytes {
    let mut v = body.to_vec();
    v[..8].copy_from_slice(&counter.to_be_bytes());
    if v.len() > 8 {
        v[8] = put_index as u8;
    }
    Bytes::from(v)
}

pub fn decode(raw: Option<&Bytes>) -> Result<u64, String> {
    match raw {
        None => Ok(0),
        Some(b) if b.len() >= 8 => Ok(u64::from_be_bytes(b[..8].try_into().expect("8 bytes"))),
        Some(b) => Err(format!("counter value has width {} (want >= 8)", b.len())),
    }
}

/// Runs one operation under the client's deadline.
async fn bounded<RT: Runtime, T>(
    rt: &RT,
    shape: Shape,
    op: impl std::future::Future<Output = Result<T, MusicError>>,
) -> Result<T, String> {
    match timeout(rt, shape.op_deadline, op).await {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(e.to_string()),
        Err(_) => Err(format!("no answer within {:?}", shape.op_deadline)),
    }
}

/// One attempt at a section. On an error after entry the lock is handed
/// back best-effort, as an application would; if that fails too the
/// reference is left to the failure detector.
pub async fn attempt<RT, D, L>(
    client: &MusicClient<RT, D, L>,
    key: &str,
    target: Target,
    shape: Shape,
    body: &[u8],
    tr: Option<&ClientTrace>,
) -> Result<u64, AttemptError>
where
    RT: Runtime,
    D: TableApi<DataRow, Rt = RT>,
    L: TableApi<LockPartition, Rt = RT>,
{
    let op_err = |err, put_issued| AttemptError::Op { err, put_issued };
    let rt = client.primary().runtime();
    let cs = bounded(rt, shape, trace::op(tr, trace::ENTER, client.enter(key)))
        .await
        .map_err(|e| op_err(e, false))?;
    let lock_ref = cs.lock_ref();
    let body_result = async {
        let raw = bounded(rt, shape, trace::op(tr, trace::GET, cs.get()))
            .await
            .map_err(|e| op_err(e, false))?;
        let read = decode(raw.as_ref()).map_err(AttemptError::Wrong)?;
        let next = match target {
            Target::Private { done, ambiguous } => {
                if read != done && !(ambiguous && read == done + 1) {
                    return Err(AttemptError::Wrong(format!(
                        "{key}: read {read}, completed {done} sections on it"
                    )));
                }
                done + 1
            }
            Target::Shared { floor } => {
                if read < floor {
                    return Err(AttemptError::Wrong(format!(
                        "{key}: read {read} after writing {floor}"
                    )));
                }
                read + 1
            }
        };
        for i in 0..shape.puts {
            bounded(
                rt,
                shape,
                trace::op(tr, trace::PUT, cs.put(encode(next, i, body))),
            )
            .await
            .map_err(|e| op_err(e, true))?;
        }
        Ok(next)
    }
    .await;
    match body_result {
        Ok(next) => match bounded(rt, shape, trace::op(tr, trace::RELEASE, cs.release())).await {
            Ok(()) => Ok(next),
            // `release` consumed the section; retry the idempotent release
            // op once with the captured reference.
            Err(_) => match bounded(rt, shape, client.release_lock(key, lock_ref)).await {
                Ok(()) => Ok(next),
                Err(e) => Err(op_err(e, true)),
            },
        },
        Err(e) => {
            drop(cs);
            let _ = bounded(rt, shape, client.release_lock(key, lock_ref)).await;
            Err(e)
        }
    }
}

/// Reads `key`'s counter under its lock (the run's final check).
pub async fn read_counter<RT, D, L>(
    client: &MusicClient<RT, D, L>,
    key: &str,
    shape: Shape,
) -> Result<u64, String>
where
    RT: Runtime,
    D: TableApi<DataRow, Rt = RT>,
    L: TableApi<LockPartition, Rt = RT>,
{
    let rt = client.primary().runtime();
    let at = |e| format!("{key}: {e}");
    let cs = bounded(rt, shape, client.enter(key)).await.map_err(at)?;
    let raw = bounded(rt, shape, cs.get()).await.map_err(at);
    let released = bounded(rt, shape, cs.release()).await.map_err(at);
    let value = decode(raw?.as_ref())?;
    released?;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_round_trips_through_a_padded_value() {
        let body = vec![0xAB; 64];
        let v = encode(41, 3, &body);
        assert_eq!(v.len(), 64);
        assert_eq!(v[8], 3);
        assert_eq!(decode(Some(&v)), Ok(41));
        assert_eq!(decode(None), Ok(0));
        assert!(decode(Some(&Bytes::from_static(b"abc"))).is_err());
    }
}
