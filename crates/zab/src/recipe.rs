//! The standard ZooKeeper lock recipe (Curator's `InterProcessMutex`),
//! built on ephemeral-sequential children.
//!
//! Acquire: create an ephemeral-sequential node under the lock path; you
//! hold the lock when your node has the smallest sequence among the
//! children. This implementation polls `getChildren` (the simulator has no
//! watch machinery; polling at the connected server is an intra-site
//! round trip, analogous in cost to MUSIC's local `lsPeek`).
//!
//! Safety under local (stale) reads: a server that has applied your create
//! has — by zxid order — applied every earlier create too, so you can never
//! falsely conclude you are the lowest; stale *deletes* only make you wait
//! longer.

use bytes::Bytes;

use music_simnet::time::SimDuration;

use crate::ensemble::{ZkError, ZkSession};
use crate::znode::CreateMode;

/// A distributed lock over a znode directory.
#[derive(Debug)]
pub struct ZkLock<'s> {
    session: &'s ZkSession,
    base: String,
    my_path: Option<String>,
    poll: SimDuration,
}

impl<'s> ZkLock<'s> {
    /// Creates a lock handle over directory `base` (created on first
    /// acquire if missing).
    pub fn new(session: &'s ZkSession, base: impl Into<String>) -> Self {
        ZkLock {
            session,
            base: base.into(),
            my_path: None,
            poll: SimDuration::from_millis(2),
        }
    }

    /// Whether this handle currently holds the lock.
    pub fn is_held(&self) -> bool {
        self.my_path.is_some()
    }

    /// The name of this handle's queue node, if enqueued.
    fn my_name(&self) -> Option<&str> {
        self.my_path.as_deref().and_then(|p| p.rsplit('/').next())
    }

    /// Blocks (polling) until the lock is held.
    ///
    /// # Errors
    ///
    /// [`ZkError::ConnectionLoss`] if the ensemble cannot commit the queue
    /// node.
    pub async fn acquire(&mut self) -> Result<(), ZkError> {
        if self.is_held() {
            return Ok(());
        }
        // Ensure the lock directory exists.
        match self
            .session
            .create(&self.base, Bytes::new(), CreateMode::Persistent)
            .await
        {
            Ok(_) | Err(ZkError::NodeExists) => {}
            Err(e) => return Err(e),
        }
        let path = self
            .session
            .create(
                &format!("{}/lock-", self.base),
                Bytes::new(),
                CreateMode::EphemeralSequential,
            )
            .await?;
        self.my_path = Some(path);
        let me = self.my_name().expect("just created").to_string();
        let sim = self.session.ens_sim();
        loop {
            // Read the queue and register a one-shot child watch in the
            // same round trip (the standard recipe).
            let (children, watch) = self.session.get_children_watch(&self.base).await;
            // Children are sorted; we hold the lock when we are first.
            match children.first() {
                Some(first) if *first == me => return Ok(()),
                Some(_) | None => {
                    // Someone is ahead, or our own create has not reached
                    // this server yet: sleep until the child set changes.
                    // The poll interval only bounds the (rare) case of a
                    // watch registered against an already-stale view.
                    let _ = music_simnet::combinators::timeout(&sim, self.poll * 50, watch).await;
                }
            }
        }
    }

    /// Releases the lock by deleting the queue node.
    ///
    /// # Errors
    ///
    /// [`ZkError::ConnectionLoss`]; a missing node (session expired) is
    /// treated as released.
    pub async fn release(&mut self) -> Result<(), ZkError> {
        if let Some(path) = self.my_path.take() {
            match self.session.delete(&path).await {
                Ok(()) | Err(ZkError::NoNode) => Ok(()),
                Err(e) => {
                    // Keep the handle held so the caller can retry the
                    // release (otherwise the queue node leaks and blocks
                    // every later contender).
                    self.my_path = Some(path);
                    Err(e)
                }
            }
        } else {
            Ok(())
        }
    }
}
