//! [`TcpTransport`]: request/response messaging over real TCP sockets.
//!
//! Frames are length-prefixed little-endian: `[u32 len][u64 corr][payload]`
//! where `len` counts the correlation id plus payload. Each peer pair uses
//! one outbound connection per direction — requests flow out on the
//! initiator's connection and responses return on the same socket, matched
//! by correlation id.
//!
//! Threading model: the protocol state machines run single-threaded on a
//! [`NativeRuntime`], and the executor thread writes every frame itself —
//! requests from [`TcpTransport`], responses from [`TcpServer`]'s drain
//! task. The OS threads this module adds only read: one reader per
//! established connection, plus an accept loop per server. A client-side
//! reader completes the waiting request directly; a server-side reader
//! queues inbound requests to the executor thread, where the drain task
//! serves them, so replica state needs no locks.
//!
//! Writes are bounded so that a peer which stops reading cannot wedge the
//! executor. One frame gets `WRITE_TIMEOUT` (1 s) plus its length at
//! `MIN_WRITE_RATE` (8 MiB/s) in total across its partial writes, and a
//! blocking write is cut off at whichever comes first: that deadline or
//! `WRITE_TIMEOUT` of socket timeout, even when the write moved a few
//! bytes before its timeout expired. So a small frame gives up within
//! about a second, and a 64 MiB frame still reaches a live peer over a
//! link of at least 8 MiB/s. A failed or timed-out write shuts its socket
//! down. The connection's reader then fails every request still
//! outstanding on it with [`TransportError::Closed`]; the request whose
//! write failed resolves `Closed` at once and is not resent.
//!
//! Each peer has a [`Breaker`] that one write or connect timeout opens for
//! `DOWN_FOR` (2 s), also the probe's deadline: refused requests fail
//! `Closed` at once, and the probe goes alone, on a new connection. A
//! stopped process's kernel still accepts connections and buffers a few
//! MiB on each before a write blocks, so without the probe every reconnect
//! would fill those buffers and stall the executor again; with it, a hung
//! peer costs each transport one stall. Each timeout is reported on stderr.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

use music_simnet::net::NodeId;
use music_simnet::time::{SimDuration, SimTime};

use crate::breaker::{Admit, Breaker};
use crate::native::NativeRuntime;
use crate::rt::Runtime;
use crate::transport::{RequestFuture, Transport, TransportError};

/// Largest accepted frame (a snapshot of a huge partition still fits).
const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// How long an outbound connection attempt may take.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// How long the executor may wait on a write that makes no progress, and
/// the fixed part of a frame's total write budget.
///
/// A live peer never makes a write wait this long: its reader thread
/// drains the socket without waiting on its executor. So a write that has
/// not moved within a second means the peer process is stopped or its
/// host is gone. One second is half the store's 2 s retransmit interval
/// and a quarter of its 4 s operation timeout, so the stall a hung peer
/// costs every other task stays well inside both.
const WRITE_TIMEOUT: Duration = Duration::from_secs(1);

/// The slowest drain, in bytes per second, a live peer is assumed to
/// sustain: a frame's budget grows by its length at this rate, so only
/// frames far above the protocol's usual few hundred bytes get longer than
/// [`WRITE_TIMEOUT`].
const MIN_WRITE_RATE: u64 = 8 << 20;

/// How long a peer that timed out gets no new connection, and how long a
/// probe to it may then go unanswered: the store's 2 s retransmit
/// interval, so a recovered peer is back by the next retransmit round.
const DOWN_FOR: SimDuration = SimDuration::from_secs(2);

/// The total time one frame of `len` bytes may take to write.
fn write_budget(len: usize) -> Duration {
    WRITE_TIMEOUT + Duration::from_micros(len as u64 * 1_000_000 / MIN_WRITE_RATE)
}

fn read_frame(reader: &mut impl Read) -> std::io::Result<Option<(u64, Vec<u8>)>> {
    let mut len_buf = [0u8; 4];
    match reader.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_buf);
    if !(8..=MAX_FRAME).contains(&len) {
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            "bad frame length",
        ));
    }
    let mut corr_buf = [0u8; 8];
    reader.read_exact(&mut corr_buf)?;
    let mut payload = vec![0u8; len as usize - 8];
    reader.read_exact(&mut payload)?;
    Ok(Some((u64::from_le_bytes(corr_buf), payload)))
}

fn frame(corr: u64, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(12 + payload.len());
    buf.extend_from_slice(&((payload.len() as u32 + 8).to_le_bytes()));
    buf.extend_from_slice(&corr.to_le_bytes());
    buf.extend_from_slice(payload);
    buf
}

/// Writes one framed message within [`write_budget`]; on failure shuts
/// the socket down so its reader fails whatever is still outstanding. A
/// timeout is reported as [`ErrorKind::TimedOut`].
///
/// The stream must carry `set_write_timeout(Some(WRITE_TIMEOUT))`. Once
/// less than that is left of the budget, the socket timeout is lowered to
/// what is left for the remaining writes, and restored afterwards.
fn write_frame(stream: &TcpStream, buf: &[u8]) -> std::io::Result<()> {
    let mut since = Instant::now();
    let deadline = since + write_budget(buf.len());
    let mut out = stream;
    let mut rest = buf;
    let mut cut_short = false;
    let result = loop {
        let n = match out.write(rest) {
            Ok(n) if n == rest.len() => break Ok(()),
            Ok(0) => break Err(ErrorKind::WriteZero.into()),
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::Interrupted => 0,
            // Unix reports an expired socket timeout as `WouldBlock`.
            Err(e) if e.kind() == ErrorKind::WouldBlock => break Err(ErrorKind::TimedOut.into()),
            Err(e) => break Err(e),
        };
        rest = &rest[n..];
        // A write whose socket timeout expired after it copied some bytes
        // returns those rather than `WouldBlock`. If it waited out
        // `WRITE_TIMEOUT` and moved less than a live peer drains in that
        // time, that is a timeout too: otherwise a peer that frees a little
        // space now and then holds the executor about a second per frame.
        let now = Instant::now();
        let took = now - std::mem::replace(&mut since, now);
        if took >= WRITE_TIMEOUT
            && (n as u128) * 1_000_000 < took.as_micros() * u128::from(MIN_WRITE_RATE)
        {
            break Err(ErrorKind::TimedOut.into());
        }
        let left = deadline.saturating_duration_since(now);
        if left.is_zero() {
            break Err(ErrorKind::TimedOut.into());
        }
        if left < WRITE_TIMEOUT {
            if let Err(e) = stream.set_write_timeout(Some(left)) {
                break Err(e);
            }
            cut_short = true;
        }
    };
    let result = match result {
        Ok(()) if cut_short => stream.set_write_timeout(Some(WRITE_TIMEOUT)),
        other => other,
    };
    if result.is_err() {
        let _ = stream.shutdown(Shutdown::Both);
    }
    result
}

/// One in-flight outbound request.
#[derive(Default)]
struct Pending {
    result: Option<Result<Vec<u8>, TransportError>>,
    waker: Option<Waker>,
}

/// The requests outstanding on one connection, shared with its reader.
#[derive(Default)]
struct Slots {
    slots: HashMap<u64, Pending>,
    /// Set by the reader's final sweep. Kept under the same lock as
    /// `slots`, so a request either gets a slot the sweep will fail or
    /// learns that the connection is gone — never a slot nobody completes.
    closed: bool,
    /// Set once any response has arrived on the connection.
    answered: bool,
}

impl Slots {
    /// Registers `corr`; false if the connection has already closed.
    fn open(&mut self, corr: u64) -> bool {
        if !self.closed {
            self.slots.insert(corr, Pending::default());
        }
        !self.closed
    }

    fn complete(&mut self, corr: u64, payload: Vec<u8>) {
        self.answered = true;
        if let Some(slot) = self.slots.get_mut(&corr) {
            slot.result = Some(Ok(payload));
            if let Some(w) = slot.waker.take() {
                w.wake();
            }
        }
    }

    /// The reader's final sweep: fail every outstanding request and refuse
    /// new ones.
    fn close(&mut self) {
        self.closed = true;
        for slot in self.slots.values_mut() {
            if slot.result.is_none() {
                slot.result = Some(Err(TransportError::Closed));
                if let Some(w) = slot.waker.take() {
                    w.wake();
                }
            }
        }
    }
}

type PendingMap = Arc<Mutex<Slots>>;

/// An established outbound connection: the executor's write handle and
/// the requests its reader thread completes.
struct Conn {
    stream: TcpStream,
    pending: PendingMap,
}

impl Drop for Conn {
    fn drop(&mut self) {
        // The reader thread holds another handle to the socket: shut it
        // down so that thread sees EOF and exits.
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

/// Future resolving to a response payload (or transport failure).
struct ResponseFuture {
    pending: PendingMap,
    corr: u64,
}

impl std::future::Future for ResponseFuture {
    type Output = Result<Vec<u8>, TransportError>;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut map = self.pending.lock().expect("pending map poisoned");
        match map.slots.get_mut(&self.corr) {
            None => Poll::Ready(Err(TransportError::Closed)),
            Some(slot) => match slot.result.take() {
                Some(res) => {
                    map.slots.remove(&self.corr);
                    Poll::Ready(res)
                }
                None => {
                    slot.waker = Some(cx.waker().clone());
                    Poll::Pending
                }
            },
        }
    }
}

impl Drop for ResponseFuture {
    fn drop(&mut self) {
        // Abandoned (timed out) request: forget the correlation slot.
        if let Ok(mut map) = self.pending.lock() {
            map.slots.remove(&self.corr);
        }
    }
}

/// One peer's pooled connection and its breaker.
struct Peer {
    conn: Option<Conn>,
    breaker: Breaker,
}

/// A peer not connected to yet, its breaker closed.
const NEW_PEER: Peer = Peer {
    conn: None,
    breaker: Breaker::new(1, DOWN_FOR, Some(DOWN_FOR)),
};

struct TcpInner {
    rt: NativeRuntime,
    addrs: HashMap<u32, SocketAddr>,
    peers: RefCell<HashMap<u32, Peer>>,
    next_corr: Cell<u64>,
}

/// The socket-backed [`Transport`]. Clones share one connection pool.
///
/// Lives on the executor thread only (like the protocol state it serves);
/// the reader threads it spawns share the per-connection pending maps, not
/// this handle.
#[derive(Clone)]
pub struct TcpTransport {
    inner: Rc<TcpInner>,
}

impl TcpTransport {
    /// Creates a transport over `rt` that reaches each node id at the given
    /// socket address.
    pub fn new(rt: NativeRuntime, addrs: HashMap<u32, SocketAddr>) -> Self {
        let peers = addrs.keys().map(|&to| (to, NEW_PEER));
        TcpTransport {
            inner: Rc::new(TcpInner {
                rt,
                peers: RefCell::new(peers.collect()),
                addrs,
                next_corr: Cell::new(1),
            }),
        }
    }

    /// The addresses this transport routes to.
    pub fn addrs(&self) -> &HashMap<u32, SocketAddr> {
        &self.inner.addrs
    }

    /// Drops every pooled connection (used at shutdown; reader threads
    /// exit as their sockets close).
    pub fn disconnect_all(&self) {
        for peer in self.inner.peers.borrow_mut().values_mut() {
            peer.conn = None;
            peer.breaker.cancel_probe();
        }
    }

    /// Feeds `to`'s breaker a failed `what` ("write" or "connect"): a timeout
    /// opens it, and is said on stderr; any other error calls off a probe.
    fn failed(&self, to: u32, breaker: &mut Breaker, what: &str, e: &std::io::Error) {
        if e.kind() == ErrorKind::TimedOut {
            breaker.on_failure(self.inner.rt.now());
            let down = Duration::from_micros(DOWN_FOR.as_micros());
            eprintln!("tcp: node {to}: {what} timed out; no new connection to it for {down:?}");
        } else {
            breaker.cancel_probe();
        }
    }

    /// Opens a connection to `to` if its breaker admits a request.
    fn connect(&self, to: u32, breaker: &mut Breaker) -> Result<Conn, TransportError> {
        if breaker.admit(self.inner.rt.now()) == Admit::Refuse {
            return Err(TransportError::Closed);
        }
        let addr = self.inner.addrs[&to];
        let (reader, stream) = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)
            .and_then(|reader| {
                reader.set_nodelay(true).ok();
                reader.set_write_timeout(Some(WRITE_TIMEOUT))?;
                let stream = reader.try_clone()?;
                Ok((reader, stream))
            })
            .map_err(|e| {
                self.failed(to, breaker, "connect", &e);
                TransportError::Connect(format!("{addr}: {e}"))
            })?;
        let pending = PendingMap::default();
        // Reader: complete pending requests as responses arrive; on EOF or
        // error, fail everything still outstanding.
        {
            let pending = Arc::clone(&pending);
            std::thread::Builder::new()
                .name(format!("tcp-reader-to-{to}"))
                .spawn(move || {
                    let mut reader = BufReader::new(reader);
                    while let Ok(Some((corr, payload))) = read_frame(&mut reader) {
                        pending
                            .lock()
                            .expect("pending map poisoned")
                            .complete(corr, payload);
                    }
                    pending.lock().expect("pending map poisoned").close();
                })
                .expect("spawn reader thread");
        }
        Ok(Conn { stream, pending })
    }

    fn send_request(&self, to: u32, payload: &[u8]) -> Result<ResponseFuture, TransportError> {
        let corr = self.inner.next_corr.get();
        self.inner.next_corr.set(corr + 1);
        let buf = frame(corr, payload);
        let mut peers = self.inner.peers.borrow_mut();
        let peer = peers.get_mut(&to).ok_or(TransportError::UnknownNode(to))?;
        // Reconnect once if the pooled connection is missing or closed.
        for _ in 0..2 {
            let conn = match peer.conn.take() {
                Some(conn) if peer.breaker.is_closed() => conn,
                // Nothing else goes out until the probe is answered; `admit`
                // re-opens the breaker once the probe is `DOWN_FOR` old.
                Some(conn) => {
                    let now = self.inner.rt.now();
                    if !conn.pending.lock().expect("pending map poisoned").answered {
                        peer.breaker.admit(now);
                        peer.conn = (!peer.breaker.is_open(now)).then_some(conn);
                        return Err(TransportError::Closed);
                    }
                    peer.breaker.on_success(now);
                    conn
                }
                None => self.connect(to, &mut peer.breaker)?,
            };
            let pending = Arc::clone(&conn.pending);
            let fut = ResponseFuture { pending, corr };
            if !fut.pending.lock().expect("pending map poisoned").open(corr) {
                peer.breaker.cancel_probe();
                continue;
            }
            if let Err(e) = write_frame(&conn.stream, &buf) {
                // The socket is shut down; its reader fails the other
                // outstanding requests. This one fails now (dropping `fut`
                // forgets its slot) and is not resent: the next request
                // reconnects, after a timeout once the peer's breaker lets it.
                self.failed(to, &mut peer.breaker, "write", &e);
                return Err(TransportError::Closed);
            }
            peer.conn = Some(conn);
            return Ok(fut);
        }
        Err(TransportError::Closed)
    }
}

impl Runtime for TcpTransport {
    type Sleep = <NativeRuntime as Runtime>::Sleep;
    type JoinHandle<T: 'static> = <NativeRuntime as Runtime>::JoinHandle<T>;

    fn now(&self) -> SimTime {
        self.inner.rt.now()
    }
    fn sleep(&self, dur: SimDuration) -> Self::Sleep {
        self.inner.rt.sleep(dur)
    }
    fn sleep_until(&self, deadline: SimTime) -> Self::Sleep {
        self.inner.rt.sleep_until(deadline)
    }
    fn spawn<F>(&self, future: F) -> Self::JoinHandle<F::Output>
    where
        F: std::future::Future + 'static,
        F::Output: 'static,
    {
        self.inner.rt.spawn(future)
    }
    fn trace(&self) -> u64 {
        self.inner.rt.trace()
    }
    fn set_trace(&self, tag: u64) {
        self.inner.rt.set_trace(tag)
    }
    fn span(&self) -> u64 {
        self.inner.rt.span()
    }
    fn set_span(&self, tag: u64) {
        self.inner.rt.set_span(tag)
    }
}

impl Transport for TcpTransport {
    fn request(&self, _from: NodeId, to: NodeId, payload: Vec<u8>) -> RequestFuture {
        match self.send_request(to.0, &payload) {
            Ok(fut) => Box::pin(fut),
            Err(e) => Box::pin(std::future::ready(Err(e))),
        }
    }
}

/// An inbound request waiting to be served on the executor thread.
struct InboundReq {
    corr: u64,
    payload: Vec<u8>,
    /// The connection it arrived on; the response is written back to it.
    conn: Arc<TcpStream>,
}

struct ServerShared {
    inbox: Mutex<VecDeque<InboundReq>>,
    waker: Mutex<Option<Waker>>,
    shutdown: AtomicBool,
}

impl ServerShared {
    fn wake(&self) {
        if let Some(w) = self.waker.lock().expect("server waker poisoned").take() {
            w.wake();
        }
    }
}

/// Completes when the inbox is non-empty or shutdown was requested.
struct InboxWait {
    shared: Arc<ServerShared>,
}

impl std::future::Future for InboxWait {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.shared.shutdown.load(Ordering::Acquire)
            || !self.shared.inbox.lock().expect("inbox poisoned").is_empty()
        {
            return Poll::Ready(());
        }
        *self.shared.waker.lock().expect("server waker poisoned") = Some(cx.waker().clone());
        // Re-check after registering: an IO thread may have pushed between
        // the emptiness check and the waker store.
        if self.shared.shutdown.load(Ordering::Acquire)
            || !self.shared.inbox.lock().expect("inbox poisoned").is_empty()
        {
            return Poll::Ready(());
        }
        Poll::Pending
    }
}

/// A listening server: accepts connections and serves each inbound request
/// on the executor thread through the registered handler.
///
/// `bind` is runtime-free (and the result is `Send`), so a caller can bind
/// ports on a coordinating thread and hand each server to the thread that
/// owns its [`NativeRuntime`].
pub struct TcpServer {
    shared: Arc<ServerShared>,
    local_addr: SocketAddr,
}

impl TcpServer {
    /// Binds `addr` (port 0 picks a free port) and starts the accept loop.
    /// Requests are queued until [`TcpServer::serve`] installs a handler.
    pub fn bind(addr: SocketAddr) -> std::io::Result<TcpServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(ServerShared {
            inbox: Mutex::new(VecDeque::new()),
            waker: Mutex::new(None),
            shutdown: AtomicBool::new(false),
        });
        {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("tcp-accept-{local_addr}"))
                .spawn(move || {
                    for conn in listener.incoming() {
                        if shared.shutdown.load(Ordering::Acquire) {
                            break;
                        }
                        let Ok(stream) = conn else { continue };
                        stream.set_nodelay(true).ok();
                        if stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_err() {
                            continue;
                        }
                        let peer = stream
                            .peer_addr()
                            .map(|a| a.to_string())
                            .unwrap_or_else(|_| "?".into());
                        let stream = Arc::new(stream);
                        let shared = Arc::clone(&shared);
                        std::thread::Builder::new()
                            .name(format!("tcp-serve-{peer}"))
                            .spawn(move || {
                                let mut reader = BufReader::new(&*stream);
                                while let Ok(Some((corr, payload))) = read_frame(&mut reader) {
                                    shared.inbox.lock().expect("inbox poisoned").push_back(
                                        InboundReq {
                                            corr,
                                            payload,
                                            conn: Arc::clone(&stream),
                                        },
                                    );
                                    shared.wake();
                                }
                            })
                            .expect("spawn serve thread");
                    }
                })
                .expect("spawn accept thread");
        }
        Ok(TcpServer { shared, local_addr })
    }

    /// The bound address (with the OS-assigned port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A flag shared with the drain task; setting it (via
    /// [`TcpServerHandle::shutdown`]) stops serving.
    pub fn shutdown_handle(&self) -> TcpServerHandle {
        TcpServerHandle {
            shared: Arc::clone(&self.shared),
            addr: self.local_addr,
        }
    }

    /// Spawns the drain task on `rt`: every inbound request is passed to
    /// `handler` (synchronously, on the executor thread) and its return
    /// payload written back. Returns a handle resolving at shutdown.
    pub fn serve(
        self,
        rt: &NativeRuntime,
        mut handler: impl FnMut(&[u8]) -> Vec<u8> + 'static,
    ) -> <NativeRuntime as Runtime>::JoinHandle<()> {
        let shared = Arc::clone(&self.shared);
        rt.spawn(async move {
            loop {
                loop {
                    let req = shared.inbox.lock().expect("inbox poisoned").pop_front();
                    match req {
                        Some(req) => {
                            let resp = handler(&req.payload);
                            // A failed write means the requester hung up or
                            // stopped reading; `write_frame` has shut the
                            // connection down, so drop the response.
                            let _ = write_frame(&req.conn, &frame(req.corr, &resp));
                        }
                        None => break,
                    }
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    break;
                }
                InboxWait {
                    shared: Arc::clone(&shared),
                }
                .await;
            }
        })
    }
}

/// Cross-thread shutdown handle for a [`TcpServer`].
#[derive(Clone)]
pub struct TcpServerHandle {
    shared: Arc<ServerShared>,
    addr: SocketAddr,
}

impl TcpServerHandle {
    /// Stops the accept loop and the drain task. Idempotent.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.wake();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::future::Future;

    /// Feeds peer 1's breaker an event `ago` before now: the tests move its
    /// clock rather than sleep through a window.
    fn backdate<R>(
        t: &TcpTransport,
        ago: SimDuration,
        event: impl FnOnce(&mut Breaker, SimTime) -> R,
    ) -> R {
        let at = SimTime::from_micros(t.now().as_micros() - ago.as_micros());
        event(
            &mut t.inner.peers.borrow_mut().get_mut(&1).unwrap().breaker,
            at,
        )
    }

    /// A connected loopback socket pair: write raw bytes on one end, run
    /// the framing decoder on the other.
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn frames_roundtrip_including_the_empty_payload() {
        let (mut client, server) = socket_pair();
        let mut server = BufReader::new(server);
        client.write_all(&frame(7, b"payload")).unwrap();
        // Larger than the reader's buffer: read past it, not truncated.
        let big = vec![0x5A; 20_000];
        client.write_all(&frame(8, &big)).unwrap();
        // len == 8 (bare correlation id, empty payload) is the floor and
        // must be accepted.
        client.write_all(&frame(u64::MAX, b"")).unwrap();
        assert_eq!(
            read_frame(&mut server).unwrap(),
            Some((7, b"payload".to_vec()))
        );
        assert_eq!(read_frame(&mut server).unwrap(), Some((8, big)));
        assert_eq!(read_frame(&mut server).unwrap(), Some((u64::MAX, vec![])));
        // A clean hang-up between frames is EOF, not an error.
        drop(client);
        assert_eq!(read_frame(&mut server).unwrap(), None);
    }

    #[test]
    fn undersized_frame_length_is_rejected() {
        let (mut client, mut server) = socket_pair();
        // len < 8 cannot even hold the correlation id.
        client.write_all(&7u32.to_le_bytes()).unwrap();
        client.write_all(&[0u8; 7]).unwrap();
        let err = read_frame(&mut server).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn oversized_frame_length_is_rejected_before_allocating() {
        let (mut client, mut server) = socket_pair();
        // A corrupt length prefix just past the cap must be refused up
        // front — not trusted as a 4 GiB allocation size.
        client.write_all(&(MAX_FRAME + 1).to_le_bytes()).unwrap();
        let err = read_frame(&mut server).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_payload_is_an_error_not_a_short_frame() {
        let (mut client, mut server) = socket_pair();
        // Header promises 92 payload bytes; the peer dies after 3.
        client.write_all(&100u32.to_le_bytes()).unwrap();
        client.write_all(&1u64.to_le_bytes()).unwrap();
        client.write_all(&[0xAB; 3]).unwrap();
        drop(client);
        let err = read_frame(&mut server).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn request_response_over_loopback() {
        let server = TcpServer::bind("127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = server.local_addr();
        let handle = server.shutdown_handle();
        let server_thread = std::thread::spawn(move || {
            let server_rt = NativeRuntime::new();
            let done = server.serve(&server_rt, |req| {
                let s = String::from_utf8(req.to_vec()).unwrap();
                format!("ack:{s}").into_bytes()
            });
            server_rt.block_on(done);
        });

        let rt = NativeRuntime::new();
        let t = TcpTransport::new(rt.clone(), HashMap::from([(1u32, addr)]));
        let t2 = t.clone();
        let out = rt.block_on(async move {
            let raw = t2.request(NodeId(0), NodeId(1), b"ping".to_vec()).await?;
            Ok::<_, TransportError>(String::from_utf8(raw).unwrap())
        });
        assert_eq!(out.unwrap(), "ack:ping");

        handle.shutdown();
        t.disconnect_all();
        server_thread.join().unwrap();
    }

    #[test]
    fn unknown_peer_errors_fast() {
        let rt = NativeRuntime::new();
        let t = TcpTransport::new(rt.clone(), HashMap::new());
        let t2 = t.clone();
        let out = rt.block_on(async move { t2.request(NodeId(0), NodeId(9), vec![0]).await });
        assert_eq!(out, Err(TransportError::UnknownNode(9)));
    }

    #[test]
    fn concurrent_requests_are_correlated() {
        let server = TcpServer::bind("127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = server.local_addr();
        let handle = server.shutdown_handle();
        let server_thread = std::thread::spawn(move || {
            let server_rt = NativeRuntime::new();
            let done = server.serve(&server_rt, |req| req.to_vec()); // echo
            server_rt.block_on(done);
        });

        let rt = NativeRuntime::new();
        let t = TcpTransport::new(rt.clone(), HashMap::from([(1u32, addr)]));
        let t2 = t.clone();
        let outs = rt.block_on(async move {
            let handles: Vec<_> = (0..16u8)
                .map(|i| {
                    let t3 = t2.clone();
                    t2.spawn(async move { t3.request(NodeId(0), NodeId(1), vec![i; 3]).await })
                })
                .collect();
            let mut outs = Vec::new();
            for h in handles {
                outs.push(h.await.unwrap());
            }
            outs
        });
        for (i, out) in outs.iter().enumerate() {
            assert_eq!(out, &vec![i as u8; 3]);
        }
        handle.shutdown();
        t.disconnect_all();
        server_thread.join().unwrap();
    }

    #[test]
    fn a_closed_connection_accepts_no_new_request() {
        let pending = PendingMap::default();
        assert!(pending.lock().unwrap().open(1));
        let outstanding = ResponseFuture {
            pending: Arc::clone(&pending),
            corr: 1,
        };
        // The reader's final sweep.
        pending.lock().unwrap().close();
        // A request that arrives after the sweep gets no slot, so nothing
        // can leave it pending; both resolve `Closed` without a wake.
        assert!(!pending.lock().unwrap().open(2));
        let late = ResponseFuture {
            pending: Arc::clone(&pending),
            corr: 2,
        };
        let mut cx = Context::from_waker(Waker::noop());
        for mut fut in [outstanding, late] {
            assert_eq!(
                Pin::new(&mut fut).poll(&mut cx),
                Poll::Ready(Err(TransportError::Closed))
            );
        }
        assert!(pending.lock().unwrap().slots.is_empty());
    }

    #[test]
    fn a_dead_peer_fails_its_request_and_the_next_one_reconnects() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            // First connection: take one request, then die without a reply.
            let (mut s, _) = listener.accept().unwrap();
            assert!(read_frame(&mut s).unwrap().is_some());
            drop(s);
            // Second connection: echo until the client hangs up.
            let (s, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(&s);
            while let Ok(Some((corr, payload))) = read_frame(&mut reader) {
                (&s).write_all(&frame(corr, &payload)).unwrap();
            }
        });

        let rt = NativeRuntime::new();
        let t = TcpTransport::new(rt.clone(), HashMap::from([(1u32, addr)]));
        let t2 = t.clone();
        let (lost, served) = rt.block_on(async move {
            let lost = t2.request(NodeId(0), NodeId(1), b"lost".to_vec()).await;
            let served = t2.request(NodeId(0), NodeId(1), b"again".to_vec()).await;
            (lost, served)
        });
        assert_eq!(lost, Err(TransportError::Closed));
        assert_eq!(served, Ok(b"again".to_vec()));
        t.disconnect_all();
        peer.join().unwrap();
    }

    #[test]
    fn a_peer_that_never_reads_cannot_wedge_the_executor() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Accepts and holds the stream (in the join result) unread.
        let holder = std::thread::spawn(move || listener.accept().unwrap().0);

        let rt = NativeRuntime::new();
        let t = TcpTransport::new(rt.clone(), HashMap::from([(1u32, addr)]));
        let t2 = t.clone();
        let rt2 = rt.clone();
        rt.block_on(async move {
            let fired_at = Rc::new(Cell::new(None));
            let timer = {
                let fired_at = Rc::clone(&fired_at);
                let rt3 = rt2.clone();
                rt2.spawn(async move {
                    rt3.sleep(SimDuration::from_millis(1)).await;
                    fired_at.set(Some(Instant::now()));
                })
            };
            // Loopback buffers hold a few MiB at most; the cap only stops
            // a transport that never fails.
            let mut outstanding = Vec::new();
            let mut failed = None;
            for _ in 0..256 {
                let started = Instant::now();
                let mut fut = t2.request(NodeId(0), NodeId(1), vec![0xC3; 64 * 1024]);
                let took = started.elapsed();
                assert!(took < 2 * WRITE_TIMEOUT, "request blocked for {took:?}");
                let mut cx = Context::from_waker(Waker::noop());
                match fut.as_mut().poll(&mut cx) {
                    Poll::Ready(res) => {
                        failed = Some((res, Instant::now()));
                        break;
                    }
                    Poll::Pending => outstanding.push(fut),
                }
            }
            let (res, gave_up) = failed.expect("no request ever failed");
            assert_eq!(res, Err(TransportError::Closed));
            // The write gave up: the executor runs the overdue timer as
            // soon as this task yields, and the requests already written
            // fail with the connection.
            timer.await;
            let late = fired_at.get().unwrap().duration_since(gave_up);
            assert!(
                late < Duration::from_millis(200),
                "timer fired {late:?} late"
            );
            for fut in outstanding {
                assert_eq!(fut.await, Err(TransportError::Closed));
            }
        });
        t.disconnect_all();
        drop(holder.join().unwrap());
    }

    #[test]
    fn a_hung_peer_stalls_the_executor_once_then_gets_only_probes() {
        // Bound but not accepting: the kernel still completes handshakes
        // and buffers what each connection is sent, and nothing reads it.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let rt = NativeRuntime::new();
        let t = TcpTransport::new(rt.clone(), HashMap::from([(1u32, addr)]));
        let mut cx = Context::from_waker(Waker::noop());
        let big = || vec![0xC3; 64 * 1024];
        // Window passed: a timeout `DOWN_FOR` ago.
        let expire_window = || backdate(&t, DOWN_FOR, Breaker::on_failure);
        let mut blocked = Duration::ZERO;
        let mut failed = 0;
        // 32 MiB: several times what one connection's buffers hold, so
        // reconnecting at once would stall again for every few MiB.
        for _ in 0..512 {
            let started = Instant::now();
            let mut fut = t.request(NodeId(0), NodeId(1), big());
            blocked += started.elapsed();
            if let Poll::Ready(res) = fut.as_mut().poll(&mut cx) {
                assert_eq!(res, Err(TransportError::Closed));
                failed += 1;
            }
        }
        assert!(failed > 0, "no write to the hung peer ever timed out");
        assert!(
            blocked < 2 * WRITE_TIMEOUT,
            "the executor was blocked {blocked:?} in total"
        );

        // After the window one probe goes out on a new connection; the
        // rest fail at once rather than fill that connection's buffers.
        expire_window();
        let mut probe = t.request(NodeId(0), NodeId(1), b"probe".to_vec());
        assert!(probe.as_mut().poll(&mut cx).is_pending());
        for _ in 0..512 {
            let started = Instant::now();
            let mut fut = t.request(NodeId(0), NodeId(1), big());
            assert!(started.elapsed() < Duration::from_millis(100));
            assert_eq!(
                fut.as_mut().poll(&mut cx),
                Poll::Ready(Err(TransportError::Closed))
            );
        }
        // A probe unanswered for DOWN_FOR drops its connection and starts
        // the window again. (The probe on this connection is moved to have
        // gone out `DOWN_FOR` ago, after a window that started before it.)
        backdate(&t, DOWN_FOR * 2, Breaker::on_failure);
        let admit = backdate(&t, DOWN_FOR, Breaker::admit);
        assert_eq!(admit, Admit::Probe);
        let mut fut = t.request(NodeId(0), NodeId(1), b"x".to_vec());
        assert_eq!(
            fut.as_mut().poll(&mut cx),
            Poll::Ready(Err(TransportError::Closed))
        );
        assert!(t.inner.peers.borrow()[&1].conn.is_none());
        assert_eq!(rt.block_on(probe), Err(TransportError::Closed));

        // The peer wakes up and serves every connection it queued: the
        // next probe is answered and the connection carries traffic again.
        expire_window();
        let probe = t.request(NodeId(0), NodeId(1), b"probe".to_vec());
        let peer = std::thread::spawn(move || {
            let echoes: Vec<_> = (0..3)
                .map(|_| {
                    let (s, _) = listener.accept().unwrap();
                    std::thread::spawn(move || {
                        let mut reader = BufReader::new(&s);
                        while let Ok(Some((corr, payload))) = read_frame(&mut reader) {
                            if (&s).write_all(&frame(corr, &payload)).is_err() {
                                break;
                            }
                        }
                    })
                })
                .collect();
            for echo in echoes {
                echo.join().unwrap();
            }
        });
        assert_eq!(rt.block_on(probe), Ok(b"probe".to_vec()));
        let after = t.request(NodeId(0), NodeId(1), b"after".to_vec());
        assert_eq!(rt.block_on(after), Ok(b"after".to_vec()));
        assert!(t.inner.peers.borrow()[&1].breaker.is_closed());
        t.disconnect_all();
        peer.join().unwrap();
    }

    #[test]
    fn a_probe_whose_connect_is_refused_leaves_the_peer_probeable() {
        // A free port: nothing listens there, so a connect is refused.
        let addr = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let rt = NativeRuntime::new();
        let t = TcpTransport::new(rt.clone(), HashMap::from([(1u32, addr)]));
        backdate(&t, DOWN_FOR, Breaker::on_failure);
        let refused = rt.block_on(t.request(NodeId(0), NodeId(1), b"probe".to_vec()));
        assert!(
            matches!(refused, Err(TransportError::Connect(_))),
            "{refused:?}"
        );
        // The peer listens again: the next request is a probe that reaches
        // it, and its answer closes the breaker.
        let listener = TcpListener::bind(addr).unwrap();
        let peer = std::thread::spawn(move || {
            let (s, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(&s);
            while let Ok(Some((corr, payload))) = read_frame(&mut reader) {
                (&s).write_all(&frame(corr, &payload)).unwrap();
            }
        });
        let again = t.request(NodeId(0), NodeId(1), b"again".to_vec());
        assert_eq!(rt.block_on(again), Ok(b"again".to_vec()));
        let after = t.request(NodeId(0), NodeId(1), b"after".to_vec());
        assert_eq!(rt.block_on(after), Ok(b"after".to_vec()));
        assert!(t.inner.peers.borrow()[&1].breaker.is_closed());
        t.disconnect_all();
        peer.join().unwrap();
    }

    #[test]
    fn a_large_frame_reaches_a_slow_live_reader() {
        let (client, mut server) = socket_pair();
        client.set_write_timeout(Some(WRITE_TIMEOUT)).unwrap();
        // Twice the slowest rate a frame's budget allows for.
        let rate = 2 * MIN_WRITE_RATE;
        let reader = std::thread::spawn(move || {
            let started = Instant::now();
            let mut buf = vec![0u8; 64 * 1024];
            let mut total = 0u64;
            loop {
                let n = server.read(&mut buf).unwrap();
                if n == 0 {
                    return total;
                }
                total += n as u64;
                let due = Duration::from_micros(total * 1_000_000 / rate);
                std::thread::sleep(due.saturating_sub(started.elapsed()));
            }
        });
        // Larger than the socket buffers plus a WRITE_TIMEOUT's worth at
        // the reader's rate, so the write outlasts WRITE_TIMEOUT.
        let big = vec![0x5A; 48 << 20];
        let started = Instant::now();
        write_frame(&client, &big).unwrap();
        let took = started.elapsed();
        drop(client);
        assert_eq!(reader.join().unwrap(), big.len() as u64);
        assert!(took > WRITE_TIMEOUT, "took only {took:?}");
        assert!(took < write_budget(big.len()));
    }
}
