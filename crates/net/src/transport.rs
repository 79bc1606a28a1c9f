use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use attrspace::Space;
use autosel_core::NetMessage;
use epigossip::NodeId;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::peer::{PeerEvent, PeerSlot, Wire};

/// Frames whose length prefix (`from` + `to` + payload) reaches this many
/// bytes are rejected. Enforced at *send* time — an oversize message is
/// dropped and counted (`tx_oversize_drops`) instead of silently vanishing
/// at the receiver while the sender believes it succeeded — and kept as a
/// receiver-side guard against garbage from untrusted sockets.
pub(crate) const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Frame header: `[u32 len][u64 from][u64 to]`, `len` covering everything
/// after itself.
const HEADER_LEN: usize = 20;

/// Bound on the frames waiting on each TCP link for its next flush.
/// Frames beyond it are dropped (and counted in `tx_queue_full_drops`),
/// like network loss — the same load-survival discipline as the bounded
/// peer inboxes.
const LINK_QUEUE_CAP: usize = 1_024;

/// First reconnect delay after a failed flush.
const CONNECT_BACKOFF: Duration = Duration::from_millis(10);

/// Reconnect delays double per consecutive failure up to this cap.
const CONNECT_BACKOFF_CAP: Duration = Duration::from_millis(320);

/// How long a link waits for a connect before failing its batch.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// How long one write on a link may block before the connection counts as
/// broken.
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// One event addressed to a peer, on its way to the peer's shard.
pub(crate) type Envelope = (NodeId, PeerEvent);

/// The cluster's routing table, fixed at spawn and shared by the shards,
/// the TCP threads and the cluster handle: one slot per peer id `0..n`
/// (liveness and counters) and one inbox per shard. Every event queued for
/// a peer first takes one of its `capacity` places, which is what bounds
/// the shard inboxes.
#[derive(Debug)]
pub(crate) struct Fabric {
    peers: Box<[PeerSlot]>,
    inboxes: Vec<mpsc::Sender<Envelope>>,
    capacity: u64,
}

impl Fabric {
    /// A table for peers `0..n` spread over `shards` shards, each peer's
    /// inbox bounded at `capacity` events; returns the shards' inbox
    /// receivers alongside.
    pub(crate) fn new(
        n: usize,
        shards: usize,
        capacity: usize,
    ) -> (Arc<Self>, Vec<mpsc::Receiver<Envelope>>) {
        // Bounded by construction: every event takes a place in its peer's
        // slot first (`try_reserve`), so a shard inbox holds at most
        // capacity × its peers.
        #[allow(clippy::disallowed_methods)] // unbounded-channel: bounded by per-peer admission
        let (inboxes, receivers) = (0..shards).map(|_| mpsc::channel()).unzip();
        let peers = (0..n).map(|_| PeerSlot::default()).collect();
        (
            Arc::new(Fabric {
                peers,
                inboxes,
                capacity: capacity as u64,
            }),
            receivers,
        )
    }

    /// The shard owning `id`: peers are pinned by id.
    pub(crate) fn shard_of(&self, id: NodeId) -> usize {
        (id % self.inboxes.len() as u64) as usize
    }

    /// The slot of `id`, which must be one of the cluster's ids.
    pub(crate) fn peer(&self, id: NodeId) -> &PeerSlot {
        &self.peers[id as usize]
    }

    /// The slot of `id` if it names a peer of this cluster.
    fn slot(&self, id: NodeId) -> Option<&PeerSlot> {
        usize::try_from(id).ok().and_then(|i| self.peers.get(i))
    }

    /// The slot of `id` if it names a live peer of this cluster.
    pub(crate) fn live(&self, id: NodeId) -> Option<&PeerSlot> {
        self.slot(id).filter(|s| !s.dead.load(Ordering::Relaxed))
    }

    /// Takes a place in `to`'s inbox for peer traffic: `None` if `to` is
    /// dead or no peer of this cluster, `Some(false)` if its inbox is full
    /// (counted in `inbox_dropped`: the event is dropped, like network loss,
    /// which the protocol absorbs through timeouts).
    pub(crate) fn admit(&self, to: NodeId) -> Option<bool> {
        let slot = self.live(to)?;
        let room = slot.try_reserve(self.capacity);
        if !room {
            slot.inbox_dropped.fetch_add(1, Ordering::Relaxed);
        }
        Some(room)
    }

    /// Peer traffic for `to` through its shard's inbox. Never blocks:
    /// backpressure between shards would propagate into distributed
    /// deadlock. `Err` means `to` is unknown or dead.
    pub(crate) fn try_deliver(&self, to: NodeId, event: PeerEvent) -> Result<(), ()> {
        if self.admit(to).ok_or(())? {
            self.inboxes[self.shard_of(to)]
                .send((to, event))
                .map_err(drop)?;
        }
        Ok(())
    }

    /// A control command from the cluster handle: never lost, so it waits
    /// for room in `to`'s inbox instead of dropping. These come from
    /// outside the peer mesh at a low rate, so waiting is safe. `Err` means
    /// `to` is dead or its shard has stopped.
    pub(crate) fn send_blocking(&self, to: NodeId, event: PeerEvent) -> Result<(), ()> {
        let slot = self.slot(to).ok_or(())?;
        while !slot.try_reserve(self.capacity) {
            if slot.dead.load(Ordering::Relaxed) {
                return Err(());
            }
            #[allow(clippy::disallowed_methods)] // thread-sleep: rare control path, not a test
            std::thread::sleep(Duration::from_micros(100));
        }
        self.inboxes[self.shard_of(to)]
            .send((to, event))
            .map_err(drop)
    }
}

/// Aggregated counters of the persistent TCP data plane.
///
/// `conn_established` counts *connects*, not live sockets: a link that
/// never loses its peer connects exactly once no matter how many frames it
/// carries — the invariant `netload --check` gates on for TCP rows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpStatsSnapshot {
    /// Successful outbound connects (one per link unless reconnecting).
    pub conn_established: u64,
    /// Failed outbound connects (dead or unreachable endpoints).
    pub conn_failed: u64,
    /// Link flushes that wrote at least one frame — one coalesced
    /// `write_all` each.
    pub tx_batches: u64,
    /// Frames written; `tx_frames / tx_batches` is the mean batch size.
    pub tx_frames: u64,
    /// Frames dropped because a link already held its bound of frames
    /// waiting for the next flush.
    pub tx_queue_full_drops: u64,
    /// Messages rejected at send time for exceeding the frame-size cap.
    pub tx_oversize_drops: u64,
    /// Inbound frames a reader discarded: a length outside the cap, a
    /// truncated frame, an undecodable payload, or a destination the
    /// receiving shard does not own.
    pub rx_dropped: u64,
}

/// The counter cells behind [`TcpStatsSnapshot`], shared by every link and
/// reader of a transport.
#[derive(Debug, Default)]
struct TcpCounters {
    conn_established: AtomicU64,
    conn_failed: AtomicU64,
    tx_batches: AtomicU64,
    tx_frames: AtomicU64,
    tx_queue_full_drops: AtomicU64,
    tx_oversize_drops: AtomicU64,
    rx_dropped: AtomicU64,
}

impl TcpCounters {
    fn bump(cell: &AtomicU64, by: u64) {
        cell.fetch_add(by, Ordering::Relaxed);
    }

    fn snapshot(&self) -> TcpStatsSnapshot {
        let read = |cell: &AtomicU64| cell.load(Ordering::Relaxed);
        TcpStatsSnapshot {
            conn_established: read(&self.conn_established),
            conn_failed: read(&self.conn_failed),
            tx_batches: read(&self.tx_batches),
            tx_frames: read(&self.tx_frames),
            tx_queue_full_drops: read(&self.tx_queue_full_drops),
            tx_oversize_drops: read(&self.tx_oversize_drops),
            rx_dropped: read(&self.rx_dropped),
        }
    }
}

/// How peers exchange messages: chosen before
/// [`NetCluster::spawn`](crate::NetCluster::spawn), which builds the
/// runtime behind it.
///
/// Cloneable; clones share the TCP counters, so the handle the caller
/// keeps reads what the cluster's links did.
#[derive(Debug, Clone)]
pub struct Transport {
    inner: Inner,
}

#[derive(Debug, Clone)]
enum Inner {
    /// In-process queues, optionally with injected uniform latency — the
    /// DAS-emulation transport.
    Mem { latency_ms: Option<(u64, u64)> },
    /// Real TCP sockets with the [`wire`](crate::wire) codec — the
    /// PlanetLab transport.
    Tcp {
        space: Space,
        stats: Arc<TcpCounters>,
    },
}

impl Transport {
    /// The in-memory transport; `latency_ms` is a uniform per-message delay
    /// range in milliseconds (`None` = deliver at once).
    pub fn mem(latency_ms: Option<(u64, u64)>) -> Self {
        Transport {
            inner: Inner::Mem { latency_ms },
        }
    }

    /// The TCP transport decoding against `space`: every shard keeps one
    /// link to every shard's listener, which it writes itself, with a
    /// bounded batch of pending frames and a capped reconnect backoff.
    pub fn tcp(space: Space) -> Self {
        Transport {
            inner: Inner::Tcp {
                space,
                stats: Arc::default(),
            },
        }
    }

    /// Counters of the persistent TCP data plane, aggregated across links
    /// and readers; `None` on the in-memory transport.
    pub fn tcp_stats(&self) -> Option<TcpStatsSnapshot> {
        match &self.inner {
            Inner::Mem { .. } => None,
            Inner::Tcp { stats, .. } => Some(stats.snapshot()),
        }
    }

    /// Wires a cluster on `fabric`: one [`Wire`] per shard, plus on TCP one
    /// listener per shard, every shard holding a link to each of them.
    ///
    /// # Errors
    ///
    /// I/O errors from binding a listener or starting its thread.
    pub(crate) fn start(&self, fabric: &Arc<Fabric>) -> io::Result<(Vec<Wire>, Vec<Listener>)> {
        let shards = fabric.inboxes.len();
        let (space, stats) = match &self.inner {
            Inner::Mem { latency_ms } => {
                let wire = |k: usize| Wire::Mem {
                    latency_ms: *latency_ms,
                    rng: SmallRng::seed_from_u64(0x7A51_A7E4 ^ k as u64),
                    delayed: BTreeMap::new(),
                    seq: 0,
                };
                return Ok(((0..shards).map(wire).collect(), Vec::new()));
            }
            Inner::Tcp { space, stats } => (space, stats),
        };
        let listeners = (0..shards)
            .map(|j| Listener::bind(j, space.clone(), Arc::clone(fabric), Arc::clone(stats)))
            .collect::<io::Result<Vec<_>>>()?;
        let wires = (0..shards)
            .map(|_| Wire::Tcp(TcpOut::new(listeners.iter().map(|l| l.addr), stats)))
            .collect();
        Ok((wires, listeners))
    }
}

/// One shard's outbound TCP links, one per destination shard (its own
/// included), written by the shard itself: [`send`](Self::send) frames a
/// message into its link's batch buffer, and [`flush`](Self::flush) writes
/// every link's batch with one `write_all` on its persistent connection.
#[derive(Debug)]
pub(crate) struct TcpOut {
    links: Vec<Link>,
    stats: Arc<TcpCounters>,
}

/// One link: a persistent connection to one shard's listener, opened on
/// demand, and the frames waiting for the next flush.
///
/// A flush blocks the shard only while the kernel's socket buffer is full,
/// and between the cluster's own shards it always drains: the reader on the
/// other end never blocks on a shard, because
/// [`Fabric::try_deliver`] drops an event that meets a full inbox. The
/// connect and write timeouts bound the wait on an endpoint that does not
/// drain.
#[derive(Debug)]
struct Link {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    /// The pending frames' bytes, header then body each, back to back.
    batch: Vec<u8>,
    /// `(from, to)` of each pending frame, in batch order.
    pending: Vec<(NodeId, NodeId)>,
    /// The next reconnect delay after a failed flush.
    backoff: Duration,
    /// No connect before this instant: a failed flush backs off.
    retry_at: Option<Instant>,
}

impl TcpOut {
    /// Links to `addrs`, one per destination shard; none connects before
    /// its first flush.
    fn new(addrs: impl IntoIterator<Item = SocketAddr>, stats: &Arc<TcpCounters>) -> Self {
        let link = |addr| Link {
            addr,
            stream: None,
            batch: Vec::new(),
            pending: Vec::new(),
            backoff: CONNECT_BACKOFF,
            retry_at: None,
        };
        TcpOut {
            links: addrs.into_iter().map(link).collect(),
            stats: Arc::clone(stats),
        }
    }

    /// Frames `msg` into the batch of the link to `shard`. A message over
    /// the frame cap is dropped and counted, as is a frame meeting a link
    /// that already holds [`LINK_QUEUE_CAP`] pending frames: a slow or
    /// backing-off link never grows without bound.
    pub(crate) fn send(&mut self, shard: usize, from: NodeId, to: NodeId, msg: &NetMessage) {
        let link = &mut self.links[shard];
        if link.pending.len() >= LINK_QUEUE_CAP {
            return TcpCounters::bump(&self.stats.tx_queue_full_drops, 1);
        }
        let mark = link.batch.len();
        if put_frame(&mut link.batch, from, to, msg) >= MAX_FRAME_LEN {
            link.batch.truncate(mark);
            return TcpCounters::bump(&self.stats.tx_oversize_drops, 1);
        }
        link.pending.push((from, to));
    }

    /// Writes every link's pending frames as one batch, (re)connecting on
    /// demand; a link still backing off at `now` keeps its frames for a
    /// later flush. Returns `(from, to)` of every frame that could not be
    /// written, for the shard to bounce `Failed(to)` to its sender.
    ///
    /// A batch fails when the connect is refused or times out, or when a
    /// write error (a timeout included) survives one reconnect. The failed
    /// link backs off, doubling from [`CONNECT_BACKOFF`] to
    /// [`CONNECT_BACKOFF_CAP`]. A write that breaks mid-batch resends the
    /// whole batch on the fresh connection, so frames received before the
    /// break may arrive twice; the protocol's attempt-tagged replies absorb
    /// duplicates by design.
    pub(crate) fn flush(&mut self, now: Instant) -> Vec<(NodeId, NodeId)> {
        let mut failed = Vec::new();
        for link in &mut self.links {
            if link.pending.is_empty() || link.retry_at.is_some_and(|at| now < at) {
                continue;
            }
            if link.write(&self.stats) {
                TcpCounters::bump(&self.stats.tx_batches, 1);
                TcpCounters::bump(&self.stats.tx_frames, link.pending.len() as u64);
                link.pending.clear();
            } else {
                failed.append(&mut link.pending);
                link.retry_at = Some(now + link.backoff);
                link.backoff = (link.backoff * 2).min(CONNECT_BACKOFF_CAP);
            }
            link.batch.clear();
        }
        failed
    }

    /// The instant a backing-off link with pending frames may retry, if
    /// any: the shard wakes for it.
    pub(crate) fn next_retry(&self) -> Option<Instant> {
        self.links
            .iter()
            .filter(|l| !l.pending.is_empty())
            .filter_map(|l| l.retry_at)
            .min()
    }
}

impl Link {
    /// Writes the batch on the link's connection, trying one fresh
    /// connection if the first write fails; false if it could not.
    fn write(&mut self, stats: &TcpCounters) -> bool {
        for _attempt in 0..2 {
            if self.stream.is_none() {
                let Ok(s) = connect(self.addr) else {
                    TcpCounters::bump(&stats.conn_failed, 1);
                    return false;
                };
                TcpCounters::bump(&stats.conn_established, 1);
                self.backoff = CONNECT_BACKOFF;
                self.retry_at = None;
                self.stream = Some(s);
            }
            let s = self.stream.as_mut().expect("connected above");
            if s.write_all(&self.batch).is_ok() {
                return true;
            }
            self.stream = None;
        }
        false
    }
}

/// A connection to `addr` for a link: bounded connect, bounded writes, and
/// no Nagle delay (the batch already coalesces).
fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let s = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)?;
    s.set_write_timeout(Some(WRITE_TIMEOUT))?;
    s.set_nodelay(true)?;
    Ok(s)
}

/// Appends one frame, header then `msg`'s encoding, to `buf`, and returns
/// its length prefix (`from` + `to` + payload), which a caller must check
/// against [`MAX_FRAME_LEN`].
fn put_frame(buf: &mut Vec<u8>, from: NodeId, to: NodeId, msg: &NetMessage) -> usize {
    let mark = buf.len();
    buf.extend_from_slice(&[0; 4]);
    buf.extend_from_slice(&from.to_le_bytes());
    buf.extend_from_slice(&to.to_le_bytes());
    crate::wire::encode_into(msg, buf);
    let len = buf.len() - mark - 4;
    buf[mark..mark + 4].copy_from_slice(&(len as u32).to_le_bytes());
    len
}

/// One shard's listener: an accept thread that starts a reader per inbound
/// connection (one per sending shard). Dropping it stops the accept thread,
/// shuts its connections down, joins the readers and releases the port.
#[derive(Debug)]
pub(crate) struct Listener {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl Listener {
    fn bind(
        shard: usize,
        space: Space,
        fabric: Arc<Fabric>,
        stats: Arc<TcpCounters>,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let accept = std::thread::Builder::new()
            .name(format!("autosel-net-accept-{shard}"))
            .spawn(move || {
                let mut conns: Vec<(TcpStream, JoinHandle<()>)> = Vec::new();
                for stream in listener.incoming() {
                    // `drop` wakes us with a throwaway connect.
                    if stopped.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = stream else { break };
                    let Ok(handle) = stream.try_clone() else {
                        continue;
                    };
                    let (space, fabric, stats) =
                        (space.clone(), Arc::clone(&fabric), Arc::clone(&stats));
                    let reader = std::thread::Builder::new()
                        .name(format!("autosel-net-read-{shard}"))
                        .spawn(move || {
                            let serves =
                                |to| fabric.shard_of(to) == shard && fabric.slot(to).is_some();
                            let deliver = |from, to, msg| {
                                if fabric
                                    .try_deliver(to, PeerEvent::Deliver(from, msg))
                                    .is_err()
                                {
                                    let _ = fabric.try_deliver(from, PeerEvent::Failed(to));
                                }
                            };
                            let conn = BufReader::with_capacity(64 * 1024, stream);
                            read_frames(conn, &space, serves, deliver, &stats.rx_dropped);
                        });
                    let Ok(reader) = reader else { break };
                    conns.retain(|(_, r)| !r.is_finished());
                    conns.push((handle, reader));
                }
                for (stream, reader) in conns {
                    let _ = stream.shutdown(Shutdown::Both);
                    let _ = reader.join();
                }
            })?;
        Ok(Listener {
            addr,
            stop,
            accept: Some(accept),
        })
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

/// Reads frames off one connection until it ends, handing every decodable
/// frame addressed to a peer `serves` accepts to `deliver(from, to, msg)`.
///
/// A frame whose body is already buffered is decoded where it lies; one
/// that straddles the end of the buffer is read into a buffer of its own,
/// freed with the frame.
///
/// Input is untrusted. Every frame not delivered counts in `dropped`: an
/// undecodable payload or an unknown destination (the stream stays in
/// step and reading goes on), and a length prefix outside
/// `16..MAX_FRAME_LEN` or a frame cut short (the stream is out of step,
/// so the connection ends). No allocation exceeds one frame's declared
/// length, and that only once the length has passed the cap check.
fn read_frames(
    mut r: impl BufRead,
    space: &Space,
    serves: impl Fn(NodeId) -> bool,
    mut deliver: impl FnMut(NodeId, NodeId, NetMessage),
    dropped: &AtomicU64,
) {
    let mut head = [0u8; HEADER_LEN];
    // The stream may end (or break) between frames; anywhere else it cut
    // a frame short.
    while r.fill_buf().is_ok_and(|b| !b.is_empty()) {
        if r.read_exact(&mut head).is_err() {
            return TcpCounters::bump(dropped, 1);
        }
        let word = |at: usize| u64::from_le_bytes(head[at..at + 8].try_into().expect("8 bytes"));
        let (from, to) = (word(4), word(12));
        let len = u32::from_le_bytes(head[..4].try_into().expect("4 bytes")) as usize;
        if !(16..MAX_FRAME_LEN).contains(&len) {
            return TcpCounters::bump(dropped, 1);
        }
        let body = len - 16;
        let decoded = match r.fill_buf() {
            Ok(buffered) if buffered.len() >= body => {
                let msg = crate::wire::decode_slice(space, &buffered[..body]);
                r.consume(body);
                msg
            }
            _ => {
                let mut own = vec![0u8; body];
                if r.read_exact(&mut own).is_err() {
                    return TcpCounters::bump(dropped, 1);
                }
                crate::wire::decode_slice(space, &own)
            }
        };
        match decoded {
            Ok(msg) if serves(to) => deliver(from, to, msg),
            _ => TcpCounters::bump(dropped, 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attrspace::Query;
    use autosel_core::{Match, Message, QueryId, QueryMsg, ReplyMsg};
    use proptest::prelude::*;
    use std::io::{Cursor, Read};
    use std::sync::atomic::Ordering::Relaxed;

    fn space() -> Space {
        Space::uniform(2, 80, 3).unwrap()
    }

    fn sample_msg(space: &Space) -> NetMessage {
        NetMessage::Protocol(Message::Query(QueryMsg {
            id: QueryId { origin: 1, seq: 2 },
            query: Query::builder(space).build().unwrap().into(),
            sigma: None,
            level: 3,
            dims: 0b11,
            dynamic: Vec::new(),
            count_only: false,
            attempt: 1,
        }))
    }

    /// A REPLY whose frame *length prefix* is as close under `target_len`
    /// as the width of one encoded match allows, and that width.
    fn msg_with_frame_len_near(space: &Space, target_len: usize) -> (NetMessage, usize) {
        let values = space.point(&[1, 2]).unwrap();
        let reply = |n: u64| {
            let matching: Vec<Match> = (0..n)
                .map(|node| Match {
                    node,
                    values: values.clone(),
                })
                .collect();
            NetMessage::Protocol(Message::Reply(ReplyMsg {
                id: QueryId { origin: 1, seq: 2 },
                matching: matching.into(),
                count: n,
                attempt: 1,
            }))
        };
        let base = frame_len(&reply(0));
        let width = frame_len(&reply(1)) - base;
        (reply(((target_len - base) / width) as u64), width)
    }

    /// The length prefix of a frame carrying `msg`.
    fn frame_len(msg: &NetMessage) -> usize {
        16 + crate::wire::encode(msg).len()
    }

    fn frame_bytes(from: NodeId, to: NodeId, msg: &NetMessage) -> Vec<u8> {
        let mut buf = Vec::new();
        put_frame(&mut buf, from, to, msg);
        buf
    }

    /// Flushes `out` now, expecting every pending frame to be written.
    fn flush(out: &mut TcpOut) {
        let failed = out.flush(Instant::now());
        assert!(failed.is_empty(), "frames failed: {failed:?}");
    }

    /// The next event queued for a shard: `(to, event)`.
    fn next(inbox: &mpsc::Receiver<Envelope>) -> Envelope {
        inbox
            .recv_timeout(Duration::from_secs(60))
            .expect("an event arrives")
    }

    /// The TCP plane of `n` peers on `k` shards; the shards' inboxes are
    /// left to the test.
    #[allow(clippy::type_complexity)]
    fn plane(
        n: usize,
        k: usize,
    ) -> (
        Arc<Fabric>,
        Vec<mpsc::Receiver<Envelope>>,
        Vec<Listener>,
        Vec<TcpOut>,
        Transport,
    ) {
        let (fabric, inboxes) = Fabric::new(n, k, 64);
        let transport = Transport::tcp(space());
        let (wires, listeners) = transport.start(&fabric).unwrap();
        let outs = wires
            .into_iter()
            .map(|w| match w {
                Wire::Tcp(out) => out,
                Wire::Mem { .. } => unreachable!("a tcp transport"),
            })
            .collect();
        (fabric, inboxes, listeners, outs, transport)
    }

    #[test]
    fn each_peer_inbox_is_bounded_inside_a_shared_shard_inbox() {
        for k in [1, 2, 3] {
            let (fabric, inboxes) = Fabric::new(6, k, 4);
            for _ in 0..6 {
                fabric
                    .try_deliver(1, PeerEvent::Failed(9))
                    .expect("peer 1 is alive");
            }
            fabric
                .try_deliver(4, PeerEvent::Failed(9))
                .expect("peer 4 is alive");
            assert_eq!(fabric.peer(1).inbox_depth.load(Relaxed), 4, "K={k}");
            assert_eq!(fabric.peer(1).inbox_dropped.load(Relaxed), 2, "K={k}");
            assert_eq!(fabric.peer(4).inbox_dropped.load(Relaxed), 0, "K={k}");
            let queued = |id: NodeId| {
                inboxes[fabric.shard_of(id)]
                    .try_iter()
                    .filter(|e| e.0 == id)
                    .count()
            };
            assert_eq!(queued(1), 4, "K={k}");
            // Dead and unknown peers refuse at once, so senders fail fast.
            fabric.peer(3).dead.store(true, Relaxed);
            assert!(fabric.try_deliver(3, PeerEvent::Failed(9)).is_err());
            assert!(fabric.try_deliver(99, PeerEvent::Failed(9)).is_err());
        }
    }

    /// Frames reach the owning shard's listener, same-shard ones included,
    /// and every link keeps one connection however many frames it carries.
    #[test]
    fn tcp_frames_cross_one_persistent_link_per_shard_pair() {
        const N: usize = 50;
        let space = space();
        let (fabric, inboxes, _listeners, mut outs, transport) = plane(4, 2);
        for i in 0..N {
            outs[0].send(fabric.shard_of(1), 0, 1, &sample_msg(&space));
            if i % 10 == 9 {
                flush(&mut outs[0]);
            }
        }
        outs[1].send(fabric.shard_of(3), 3, 3, &sample_msg(&space));
        flush(&mut outs[1]);
        for _ in 0..=N {
            let (to, event) = next(&inboxes[1]);
            let PeerEvent::Deliver(from, msg) = event else {
                panic!("unexpected {event:?}")
            };
            assert!((to, from) == (1, 0) || (to, from) == (3, 3));
            assert_eq!(msg, sample_msg(&space));
        }
        let stats = transport.tcp_stats().expect("tcp stats");
        assert_eq!(
            stats.conn_established, 2,
            "one connection per used link: {stats:?}"
        );
        assert_eq!(stats.tx_frames, N as u64 + 1);
        assert_eq!(stats.tx_batches, N as u64 / 10 + 1, "one batch per flush");
        assert_eq!((stats.tx_queue_full_drops, stats.rx_dropped), (0, 0));
    }

    /// One flush writes every pending frame as one batch, and a link
    /// holding its bound of frames drops and counts instead of growing.
    #[test]
    fn link_batches_whole_queue_and_bounds_it() {
        let space = space();
        let sink = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let stats = Arc::new(TcpCounters::default());
        let mut out = TcpOut::new([sink.local_addr().unwrap()], &stats);
        for _ in 0..=LINK_QUEUE_CAP {
            out.send(0, 0, 1, &sample_msg(&space));
        }
        assert_eq!(stats.tx_queue_full_drops.load(Relaxed), 1);
        let got = std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let (conn, _) = sink.accept().unwrap();
                let mut got = 0;
                let count = |_, _, _| got += 1;
                read_frames(
                    BufReader::new(conn),
                    &space,
                    |_| true,
                    count,
                    &stats.rx_dropped,
                );
                got
            });
            flush(&mut out);
            assert_eq!(stats.tx_batches.load(Relaxed), 1, "one write took them all");
            assert_eq!(stats.tx_frames.load(Relaxed), LINK_QUEUE_CAP as u64);
            drop(out);
            reader.join().unwrap()
        });
        assert_eq!((got, stats.rx_dropped.load(Relaxed)), (LINK_QUEUE_CAP, 0));
    }

    /// What a link writes for a frame is its header, then exactly the
    /// public codec's encoding of the message.
    #[test]
    fn a_link_writes_each_frame_as_its_header_then_its_encoding() {
        let space = space();
        let sink = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let stats = Arc::new(TcpCounters::default());
        let mut out = TcpOut::new([sink.local_addr().unwrap()], &stats);
        let (reply, _) = msg_with_frame_len_near(&space, 200);
        let frames: [(NodeId, NodeId, NetMessage); 2] =
            [(3, 9, sample_msg(&space)), (u64::MAX, 0, reply)];
        let mut want = Vec::new();
        for (from, to, msg) in &frames {
            let body = crate::wire::encode(msg);
            want.extend_from_slice(&(16 + body.len() as u32).to_le_bytes());
            want.extend_from_slice(&from.to_le_bytes());
            want.extend_from_slice(&to.to_le_bytes());
            want.extend_from_slice(&body);
            out.send(0, *from, *to, msg);
        }
        flush(&mut out);
        drop(out);
        let (mut conn, _) = sink.accept().unwrap();
        let mut wrote = Vec::new();
        conn.read_to_end(&mut wrote).unwrap();
        assert_eq!(wrote, want);
    }

    /// A flush to a port nobody listens on fails every pending frame back
    /// to the shard at once and counts the refused connect. The link then
    /// backs off: frames sent meanwhile wait for the retry.
    #[test]
    fn link_flush_fails_fast_on_dead_endpoint() {
        // Bind-then-drop: a loopback port with nothing listening.
        let addr = TcpListener::bind(("127.0.0.1", 0))
            .unwrap()
            .local_addr()
            .unwrap();
        let stats = Arc::new(TcpCounters::default());
        let mut out = TcpOut::new([addr], &stats);
        let msg = sample_msg(&space());
        for to in 1..=3 {
            out.send(0, 0, to, &msg);
        }
        let at = Instant::now();
        assert_eq!(out.flush(at), vec![(0, 1), (0, 2), (0, 3)]);
        assert!(
            at.elapsed() < CONNECT_TIMEOUT,
            "waited out the connect bound"
        );
        assert_eq!(stats.conn_failed.load(Relaxed), 1);
        assert_eq!(stats.tx_frames.load(Relaxed), 0);

        out.send(0, 0, 4, &msg);
        assert!(out.flush(at).is_empty(), "backing off: the frame waits");
        assert_eq!(stats.conn_failed.load(Relaxed), 1);
        assert_eq!(out.next_retry(), Some(at + CONNECT_BACKOFF));
        let retry = at + CONNECT_BACKOFF;
        assert_eq!(out.flush(retry), vec![(0, 4)]);
        assert_eq!(stats.conn_failed.load(Relaxed), 2);
        out.send(0, 0, 5, &msg);
        assert_eq!(out.next_retry(), Some(retry + 2 * CONNECT_BACKOFF));
    }

    /// A peer's death leaves its shard's listener serving the others: an
    /// in-flight frame to the dead peer bounces `Failed` to its sender, a
    /// frame to a live peer of the same shard still arrives, and dropping
    /// the plane stops every thread and releases the port.
    #[test]
    fn tcp_kill_keeps_the_shard_listener_and_shutdown_closes_it() {
        let space = space();
        let (fabric, inboxes, listeners, mut outs, transport) = plane(3, 1);
        fabric.peer(2).dead.store(true, Relaxed);
        outs[0].send(0, 0, 2, &sample_msg(&space));
        flush(&mut outs[0]);
        let (to, event) = next(&inboxes[0]);
        assert!(matches!((to, event), (0, PeerEvent::Failed(2))));
        outs[0].send(0, 0, 1, &sample_msg(&space));
        flush(&mut outs[0]);
        let (to, event) = next(&inboxes[0]);
        assert!(matches!((to, event), (1, PeerEvent::Deliver(0, _))));
        assert_eq!(transport.tcp_stats().unwrap().rx_dropped, 0);

        let addr = listeners[0].addr();
        drop(outs);
        drop(listeners);
        assert_eq!(
            Arc::strong_count(&fabric),
            1,
            "a reader or accept thread is left"
        );
        assert!(
            TcpStream::connect(addr).is_err(),
            "listener still accepting"
        );
    }

    /// The frame-size cap is enforced at send time, at the exact boundary:
    /// the largest legal frame round-trips over a real socket, the first
    /// oversize one is dropped *and counted* — never silently swallowed by
    /// the receiver while the sender believes it succeeded.
    #[test]
    fn oversize_frames_rejected_at_send_boundary() {
        let space = space();
        let (_fabric, inboxes, _listeners, mut outs, transport) = plane(2, 1);

        // Largest legal: len within one match's width under the cap.
        let (legal, width) = msg_with_frame_len_near(&space, MAX_FRAME_LEN - 1);
        assert!((MAX_FRAME_LEN - width..MAX_FRAME_LEN).contains(&frame_len(&legal)));
        outs[0].send(0, 0, 1, &legal);
        flush(&mut outs[0]);
        let (_, event) = next(&inboxes[0]);
        let round_tripped = matches!(event, PeerEvent::Deliver(0, ref m) if *m == legal);
        assert!(round_tripped, "boundary frame round-trips");

        // One match more crosses the cap: dropped at send, counted, and
        // cut back out of the link's batch.
        let (oversize, _) = msg_with_frame_len_near(&space, MAX_FRAME_LEN - 1 + width);
        assert!(frame_len(&oversize) >= MAX_FRAME_LEN);
        outs[0].send(0, 0, 1, &sample_msg(&space));
        outs[0].send(0, 0, 1, &oversize);
        assert_eq!(transport.tcp_stats().unwrap().tx_oversize_drops, 1);
        assert_eq!(
            outs[0].links[0].batch,
            frame_bytes(0, 1, &sample_msg(&space))
        );
        // The link is still healthy: the small frame arrives, and nothing
        // else ever does (the oversize frame was not sent).
        flush(&mut outs[0]);
        let (_, event) = next(&inboxes[0]);
        assert!(matches!(event, PeerEvent::Deliver(0, ref m) if *m == sample_msg(&space)));
        assert!(inboxes[0].try_recv().is_err());
    }

    impl Listener {
        pub(crate) fn addr(&self) -> SocketAddr {
            self.addr
        }
    }

    /// A reader that remembers the largest buffer it was asked to fill.
    /// Behind a header-sized `BufReader`, that is the frame reader's one
    /// allocation per frame: a body read bypasses the buffer.
    struct Probe<R> {
        inner: R,
        largest: usize,
    }

    impl<R: Read> Read for Probe<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.largest = self.largest.max(buf.len());
            self.inner.read(buf)
        }
    }

    /// What [`read_frames`] made of a byte stream: frames delivered as
    /// `(from, to)`, frames dropped, the largest read it asked for and
    /// the bytes it consumed.
    fn read_all(bytes: &[u8]) -> (Vec<(NodeId, NodeId)>, u64, usize, u64) {
        let mut probe = Probe {
            inner: Cursor::new(bytes),
            largest: 0,
        };
        let (mut delivered, dropped) = (Vec::new(), AtomicU64::new(0));
        let deliver = |from, to, _| delivered.push((from, to));
        let conn = BufReader::with_capacity(HEADER_LEN, &mut probe);
        read_frames(conn, &space(), |to| to < 4, deliver, &dropped);
        (
            delivered,
            dropped.into_inner(),
            probe.largest,
            probe.inner.position(),
        )
    }

    #[test]
    fn a_length_past_the_cap_ends_the_stream_before_any_body_read() {
        let msg = sample_msg(&space());
        let good = frame_bytes(7, 1, &msg);
        for len in [MAX_FRAME_LEN as u32, u32::MAX, 15] {
            let mut stream = good.clone();
            stream.extend_from_slice(&len.to_le_bytes());
            stream.extend_from_slice(&[0xAB; 16 + 4096]);
            let (delivered, dropped, largest, consumed) = read_all(&stream);
            assert_eq!(delivered, vec![(7, 1)]);
            assert_eq!(dropped, 1, "len {len}");
            assert_eq!(
                consumed as usize,
                good.len() + HEADER_LEN,
                "len {len}: read the body"
            );
            assert!(largest < good.len());
        }
        // The largest legal length, cut short: one cap-bounded read, dropped.
        let mut cut = (MAX_FRAME_LEN as u32 - 1).to_le_bytes().to_vec();
        cut.extend_from_slice(&[0; 16 + 100]);
        let (delivered, dropped, largest, _) = read_all(&cut);
        assert_eq!((delivered.len(), dropped), (0, 1));
        assert!(largest < MAX_FRAME_LEN);
    }

    /// One piece of a generated byte stream.
    #[derive(Debug, Clone)]
    enum Piece {
        /// A well-formed frame to a peer the reader serves (`to` < 4).
        Valid(NodeId, NodeId),
        /// A well-formed frame to a peer it does not serve.
        UnknownTo(NodeId, NodeId),
        /// A valid frame with one bit flipped (at `bit` modulo its length).
        Flipped(usize),
        /// Two valid frames' bytes interleaved in chunks of this many.
        Interleaved(usize),
        /// A length prefix at or past the cap, then junk.
        Oversized(u32),
        /// A valid frame cut short after this many bytes.
        Truncated(usize),
    }

    impl Piece {
        fn intact(&self) -> bool {
            matches!(self, Piece::Valid(..) | Piece::UnknownTo(..))
        }

        fn bytes(&self, msg: &NetMessage) -> Vec<u8> {
            let good = frame_bytes(5, 2, msg);
            match *self {
                Piece::Valid(from, to) | Piece::UnknownTo(from, to) => frame_bytes(from, to, msg),
                Piece::Flipped(bit) => {
                    let mut f = good;
                    let at = bit % (f.len() * 8);
                    f[at / 8] ^= 1 << (at % 8);
                    f
                }
                Piece::Interleaved(chunk) => {
                    let other = frame_bytes(6, 3, msg);
                    let (a, b) = (good.chunks(chunk), other.chunks(chunk));
                    a.zip(b).flat_map(|(x, y)| [x, y].concat()).collect()
                }
                Piece::Oversized(over) => {
                    let mut f = (MAX_FRAME_LEN as u32)
                        .saturating_add(over)
                        .to_le_bytes()
                        .to_vec();
                    f.extend_from_slice(&[0x5A; 40]);
                    f
                }
                Piece::Truncated(keep) => good[..keep % good.len()].to_vec(),
            }
        }
    }

    fn piece() -> impl Strategy<Value = Piece> {
        prop_oneof![
            (any::<u64>(), 0u64..4).prop_map(|(f, t)| Piece::Valid(f, t)),
            (any::<u64>(), 4u64..u64::MAX).prop_map(|(f, t)| Piece::UnknownTo(f, t)),
            any::<usize>().prop_map(Piece::Flipped),
            (1usize..40).prop_map(Piece::Interleaved),
            any::<u32>().prop_map(Piece::Oversized),
            any::<usize>().prop_map(Piece::Truncated),
        ]
    }

    proptest! {
        /// Hostile bytes never panic the reader, never make it ask for a
        /// buffer at or past the cap, and every frame it does not deliver is
        /// counted. Up to the first damaged piece the stream is in step, so
        /// exactly the valid frames before it arrive, in order; past it,
        /// every delivery is still to a served peer and each frame accounted
        /// for consumed at least a header.
        #[test]
        fn hostile_frames_are_survived_and_counted(
            pieces in prop::collection::vec(piece(), 1..12),
        ) {
            let msg = sample_msg(&space());
            let stream: Vec<u8> = pieces.iter().flat_map(|p| p.bytes(&msg)).collect();
            let (delivered, dropped, largest, _) = read_all(&stream);
            prop_assert!(largest < MAX_FRAME_LEN);
            prop_assert!(delivered.iter().all(|&(_, to)| to < 4));
            let accounted = delivered.len() as u64 + dropped;
            prop_assert!(accounted <= (stream.len() / HEADER_LEN) as u64 + 1);
            let clean = pieces.iter().take_while(|p| p.intact()).collect::<Vec<_>>();
            let valid: Vec<(NodeId, NodeId)> = clean
                .iter()
                .filter_map(|p| match **p { Piece::Valid(f, t) => Some((f, t)), _ => None })
                .collect();
            prop_assert_eq!(&delivered[..valid.len().min(delivered.len())], &valid[..]);
            prop_assert!(delivered.len() >= valid.len());
            if clean.len() == pieces.len() {
                prop_assert_eq!(delivered.len(), valid.len());
                prop_assert_eq!(dropped as usize, pieces.len() - valid.len());
            } else {
                prop_assert!(dropped as usize >= clean.len() - valid.len());
            }
        }

        /// However the socket splits the stream, the reader sees the same
        /// frames: reads of 1…k bytes (most bodies straddle the buffer's
        /// end and take their own buffer, some lie whole in it) deliver
        /// the same messages and drop the same frames as a stream that is
        /// buffered whole (every body decoded in place).
        #[test]
        fn frames_split_across_reads_decode_as_whole_ones(
            pieces in prop::collection::vec(piece(), 1..12),
            k in 1usize..200,
        ) {
            let msg = sample_msg(&space());
            let stream: Vec<u8> = pieces.iter().flat_map(|p| p.bytes(&msg)).collect();
            let trickle = Trickle { bytes: &stream, k, reads: 0 };
            let split = read_messages(BufReader::with_capacity(64 * 1024, trickle));
            prop_assert_eq!(split, read_messages(&stream[..]));
        }
    }

    /// A source that returns 1, 2, …, k, 1, 2, … bytes per `read`.
    struct Trickle<'a> {
        bytes: &'a [u8],
        k: usize,
        reads: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = (self.reads % self.k + 1).min(buf.len());
            self.reads += 1;
            self.bytes.read(&mut buf[..n])
        }
    }

    /// The messages [`read_frames`] delivered from `conn`, with their ends,
    /// and the count of frames it dropped.
    fn read_messages(conn: impl BufRead) -> (Vec<(NodeId, NodeId, NetMessage)>, u64) {
        let (mut delivered, dropped) = (Vec::new(), AtomicU64::new(0));
        let deliver = |from, to, msg| delivered.push((from, to, msg));
        read_frames(conn, &space(), |to| to < 4, deliver, &dropped);
        (delivered, dropped.into_inner())
    }
}
