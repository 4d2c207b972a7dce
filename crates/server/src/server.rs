//! The service tier: a TCP acceptor, one thread per connection, and the
//! request coalescer.
//!
//! The coalescer mirrors the WAL's group-commit shape on the read path.
//! One *batch slot* admits one running batch at a time. A connection's
//! thread that decodes a point-read request queues it; if no batch is
//! running, the thread claims the slot and runs the oldest queued
//! requests, up to `max_batch` (its own is among them unless more than
//! that were queued ahead of it), merging requests with the same
//! `(table, columns, as_of)` signature into one [`Table::read_batch`]
//! call, which sorts, deduplicates, and fans out across the engine's
//! unified task pool. While a batch runs, other connections' requests (and
//! this connection's pipelined ones) queue and their threads go back to
//! their sockets; when the slot frees with work queued, the coalescer
//! thread wakes and runs that work as the next batch. No request waits on
//! a timer: a lone request runs at once on its own connection's thread,
//! and under N closed-loop connections the requests that arrive during
//! one batch become the next one, so shared keys resolve once and
//! per-dispatch overhead amortizes exactly when there is contention to
//! amortize. A connection with more than a batch of requests outstanding
//! stops reading ahead: its thread waits for the slot and runs a batch
//! itself, so one deep pipeline cannot fill the in-flight budget all
//! connections share.
//!
//! Replies go straight to the requesting connection's socket from
//! whichever thread ran the batch, after the slot is released. No thread
//! waits on another's write, and a thread that ran a batch waits at most
//! one short write timeout (`WRITE_SLICE`) on a connection whose peer has
//! fallen behind; the rest of that connection's replies is left to its
//! own thread, which reads no further requests until they are written and
//! closes the connection if they are still unsent 250 ms (`WRITE_STALL`)
//! after the first write fell short. So a peer that stops reading, or
//! reads too slowly, delays only its own connection.
//!
//! Backpressure is a bounded in-flight budget: a request admitted past
//! `max_inflight` outstanding ones is answered immediately with
//! [`Error::Overloaded`] instead of queueing unboundedly, and a request
//! that sits queued past `request_timeout` is dropped with
//! [`Error::RequestTimeout`] when its batch runs — the client hears "shed,
//! retry elsewhere/later", never silence.
//!
//! [`Table::read_batch`]: lstore::Table::read_batch

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lstore::{Database, Error, ReadResponse};
use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::protocol::{self, Request, Response, HEADER_LEN, MAX_FRAME_LEN};

/// Read-side coalescing policy, the read-path analogue of
/// `Durability::WalGroupCommit`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coalesce {
    /// No coalescing: each request executes immediately on its
    /// connection's thread (the per-request baseline the bench driver
    /// compares against).
    Off,
    /// Requests queued across all connections while a batch runs form the
    /// next engine batch.
    Window {
        /// Cap on the requests one batch takes from the queue.
        max_batch: usize,
    },
}

impl Coalesce {
    /// Default coalescing variant: batches of up to 256 requests — the
    /// read-path twin of `Durability::group_commit()`.
    pub const fn group_read() -> Coalesce {
        Coalesce::Window { max_batch: 256 }
    }
}

/// Service-tier configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Read-side coalescing policy.
    pub coalesce: Coalesce,
    /// Bounded in-flight request budget: admissions beyond this many
    /// outstanding requests shed with [`Error::Overloaded`].
    pub max_inflight: usize,
    /// Per-request queue deadline: a request still unexecuted this long
    /// after arrival is answered with [`Error::RequestTimeout`]. `None`
    /// disables the deadline.
    pub request_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            coalesce: Coalesce::group_read(),
            max_inflight: 4096,
            request_timeout: Some(Duration::from_secs(1)),
        }
    }
}

/// Monotonic service-tier counters (snapshot via [`Server::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Read/multi-read requests admitted past the budget.
    pub admitted: u64,
    /// Requests shed with `Overloaded`.
    pub shed: u64,
    /// Requests dropped with `RequestTimeout`.
    pub timed_out: u64,
    /// Coalesced engine batches executed (window mode only).
    pub batches: u64,
    /// Requests served through those batches.
    pub batched_requests: u64,
}

#[derive(Default)]
struct Counters {
    admitted: AtomicU64,
    shed: AtomicU64,
    timed_out: AtomicU64,
    batches: AtomicU64,
    batched_requests: AtomicU64,
}

/// One admitted request waiting for (or undergoing) execution.
struct Pending {
    conn: Arc<Conn>,
    request_id: u64,
    table: String,
    keys: Vec<u64>,
    columns: Option<Vec<u32>>,
    as_of: Option<u64>,
    arrived: Instant,
}

/// The write side of one connection. Any thread that finishes one of the
/// connection's requests sends the reply here; request ids do the
/// matching, so reply order is completion order.
///
/// No thread ever waits on another's socket write: one thread at a time
/// is the connection's writer (`Outgoing::writing`), and others append to
/// its queue and go on. A thread that sends to an idle connection writes
/// at once, but never waits on the peer for more than one [`WRITE_SLICE`];
/// what the socket does not take stays queued for the connection's own
/// thread, which stops reading requests until the queue drains
/// ([`Conn::flush`]) and closes the connection if it has not drained
/// [`WRITE_STALL`] after the first write that fell short.
struct Conn {
    /// Written only by the thread that set `Outgoing::writing`.
    stream: TcpStream,
    out: Mutex<Outgoing>,
    dead: AtomicBool,
    /// Admitted requests not yet answered.
    outstanding: AtomicUsize,
}

/// Encoded reply frames not yet on the wire.
#[derive(Default)]
struct Outgoing {
    /// Bytes in send order.
    queued: Vec<u8>,
    /// Some thread is writing `queued`; others only append to it.
    writing: bool,
    /// When a write first fell short since `queued` last drained.
    stalled_since: Option<Instant>,
}

impl Conn {
    /// Send encoded frames: write them now if no thread is writing and
    /// the peer has kept up, else queue them behind what is unsent.
    fn send(&self, frames: Vec<u8>) {
        let mut out = self.out.lock();
        if self.dead.load(Ordering::Acquire) {
            return;
        }
        let idle = !out.writing && out.queued.is_empty();
        if out.queued.is_empty() {
            out.queued = frames;
        } else {
            out.queued.extend_from_slice(&frames);
        }
        if idle {
            self.write(out, None);
        }
    }

    /// Write what earlier sends left queued, waiting on the peer until
    /// [`WRITE_STALL`] after the first write that fell short (or until
    /// `stop`); then close the connection. Run by the connection's own
    /// thread before each request it reads and on every poll tick.
    /// Returns false once the connection is closed.
    fn flush(&self, stop: &AtomicBool) -> bool {
        let out = self.out.lock();
        if !out.writing && !out.queued.is_empty() {
            let deadline = out.stalled_since.unwrap_or_else(Instant::now) + WRITE_STALL;
            self.write(out, Some((deadline, stop)));
        }
        !self.dead.load(Ordering::Acquire)
    }

    /// Become the writer and write `queued`, including what other threads
    /// append meanwhile, until it drains. Without `patience`, stop at the
    /// first write that falls short and leave the rest queued; with it,
    /// keep writing until the deadline passes or `stop` is set, then
    /// close. A failed write may leave half a frame on the wire, so it
    /// closes the connection too: later sends are dropped and the
    /// connection's reader sees EOF.
    fn write<'a>(
        &'a self,
        mut out: MutexGuard<'a, Outgoing>,
        patience: Option<(Instant, &AtomicBool)>,
    ) {
        out.writing = true;
        while !out.queued.is_empty() {
            let mut bytes = std::mem::take(&mut out.queued);
            drop(out);
            let written = loop {
                match (&self.stream).write(&bytes) {
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    result => break result,
                }
            };
            out = self.out.lock();
            let n = match written {
                Ok(n) if n > 0 => n,
                Err(e) if is_poll_timeout(&e) => 0,
                _ => return self.close(&mut out),
            };
            if n < bytes.len() {
                bytes.drain(..n);
                bytes.extend_from_slice(&out.queued);
                out.queued = bytes;
                out.stalled_since.get_or_insert_with(Instant::now);
                let Some((deadline, stop)) = patience else {
                    break;
                };
                if Instant::now() >= deadline || stop.load(Ordering::Acquire) {
                    return self.close(&mut out);
                }
            }
        }
        if out.queued.is_empty() {
            out.stalled_since = None;
        }
        out.writing = false;
    }

    fn close(&self, out: &mut Outgoing) {
        self.dead.store(true, Ordering::Release);
        *out = Outgoing::default();
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

/// Encoded replies of one batch, concatenated per connection so a
/// pipelining connection gets one write rather than one per request.
#[derive(Default)]
struct Outbox(Vec<(Arc<Conn>, Vec<u8>)>);

impl Outbox {
    /// Encode a reply and release the request's budget slot.
    fn push(&mut self, shared: &Shared, pending: &Pending, response: &Response) {
        let frame = protocol::encode_response(pending.request_id, response);
        shared.inflight.fetch_sub(1, Ordering::AcqRel);
        pending.conn.outstanding.fetch_sub(1, Ordering::Relaxed);
        match self
            .0
            .iter_mut()
            .find(|(c, _)| Arc::ptr_eq(c, &pending.conn))
        {
            Some((_, bytes)) => bytes.extend_from_slice(&frame),
            None => self.0.push((Arc::clone(&pending.conn), frame)),
        }
    }

    fn send(self) {
        for (conn, bytes) in self.0 {
            conn.send(bytes);
        }
    }
}

/// The coalescing queue and the batch slot it feeds.
#[derive(Default)]
struct Batcher {
    queue: VecDeque<Pending>,
    /// True while some thread runs a batch.
    running: bool,
    /// Connection threads waiting for the slot (see [`submit`]).
    throttled: usize,
}

impl Batcher {
    /// Claim the batch slot and take up to `max_batch` queued requests.
    fn claim(&mut self, max_batch: usize) -> Vec<Pending> {
        self.running = true;
        let n = self.queue.len().min(max_batch);
        self.queue.drain(..n).collect()
    }
}

struct Shared {
    db: Arc<Database>,
    config: ServerConfig,
    stop: AtomicBool,
    inflight: AtomicUsize,
    batcher: Mutex<Batcher>,
    /// Signalled when the slot frees with requests still queued or
    /// throttled threads waiting, and on shutdown.
    slot_freed: Condvar,
    counters: Counters,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
}

/// A running service tier. Dropping (or [`Server::shutdown`]) stops the
/// acceptor and coalescer and joins every connection thread.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    core_threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port; see
    /// [`Server::local_addr`]) and start serving `db`.
    pub fn start(
        db: Arc<Database>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            db,
            config,
            stop: AtomicBool::new(false),
            inflight: AtomicUsize::new(0),
            batcher: Mutex::new(Batcher::default()),
            slot_freed: Condvar::new(),
            counters: Counters::default(),
            conn_threads: Mutex::new(Vec::new()),
        });
        let mut core = Vec::new();
        if let Coalesce::Window { max_batch } = shared.config.coalesce {
            let s = Arc::clone(&shared);
            core.push(
                std::thread::Builder::new()
                    .name("lstore-coalescer".into())
                    .spawn(move || coalescer_loop(&s, max_batch.max(1)))?,
            );
        }
        let s = Arc::clone(&shared);
        core.push(
            std::thread::Builder::new()
                .name("lstore-acceptor".into())
                .spawn(move || acceptor_loop(&s, listener))?,
        );
        Ok(Server {
            shared,
            addr,
            core_threads: Mutex::new(core),
        })
    }

    /// The bound address (resolves port-0 binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot the service-tier counters.
    pub fn stats(&self) -> ServerStats {
        let c = &self.shared.counters;
        ServerStats {
            admitted: c.admitted.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            timed_out: c.timed_out.load(Ordering::Relaxed),
            batches: c.batches.load(Ordering::Relaxed),
            batched_requests: c.batched_requests.load(Ordering::Relaxed),
        }
    }

    /// Stop accepting, wake the coalescer, and join every thread.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::Release);
        {
            // Under the lock, so a coalescer between its stop check and
            // its wait cannot miss the wake-up.
            let _batcher = self.shared.batcher.lock();
            self.shared.slot_freed.notify_all();
        }
        for handle in self.core_threads.lock().drain(..) {
            let _ = handle.join();
        }
        for handle in self.shared.conn_threads.lock().drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---------------------------------------------------------------------
// Acceptor + per-connection threads
// ---------------------------------------------------------------------

/// How long blocked reads (and the accept poll) sleep before re-checking
/// the stop flag.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// The socket write timeout: the longest one write waits for a peer whose
/// buffers are full (the kernel rounds it up to its timer tick). A thread
/// that ran a batch gives each connection that falls behind at most this
/// long, once, and leaves the rest to the connection's own thread.
const WRITE_SLICE: Duration = Duration::from_millis(1);

/// How long a connection's unsent replies may stay unsent, counted from
/// the first write that fell short, before the connection is closed as
/// stalled (a peer that pipelines requests but does not read its
/// replies, or reads them too slowly). Only that connection's own thread
/// waits this long.
const WRITE_STALL: Duration = Duration::from_millis(250);

fn acceptor_loop(shared: &Arc<Shared>, listener: TcpListener) {
    while !shared.stop.load(Ordering::Acquire) {
        // Reap: a closed connection's thread has finished, so joining it
        // returns at once, and retained handles track live connections.
        for finished in shared
            .conn_threads
            .lock()
            .extract_if(.., |h| h.is_finished())
        {
            let _ = finished.join();
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                if let Err(e) = spawn_connection(shared, stream) {
                    // Socket setup failed (peer already gone, fd limits);
                    // drop the connection, keep serving.
                    let _ = e;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}

fn spawn_connection(shared: &Arc<Shared>, stream: TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    stream.set_write_timeout(Some(WRITE_SLICE))?;
    let conn = Arc::new(Conn {
        stream: stream.try_clone()?,
        out: Mutex::new(Outgoing::default()),
        dead: AtomicBool::new(false),
        outstanding: AtomicUsize::new(0),
    });
    let s = Arc::clone(shared);
    let handle = std::thread::Builder::new()
        .name("lstore-conn".into())
        .spawn(move || {
            reader_loop(&s, stream, &conn);
            // Replies the peer has not taken yet (it may have closed only
            // its write half) get the usual grace.
            conn.flush(&s.stop);
        })?;
    shared.conn_threads.lock().push(handle);
    Ok(())
}

fn reader_loop(shared: &Arc<Shared>, mut stream: TcpStream, conn: &Arc<Conn>) {
    // Between requests and on every poll tick: unsent replies go out
    // before another request is read, so a peer that falls behind stops
    // being read and its unsent replies stay bounded.
    let alive = || !shared.stop.load(Ordering::Acquire) && conn.flush(&shared.stop);
    loop {
        if !alive() {
            return;
        }
        let payload = match read_frame_interruptible(&mut stream, &alive) {
            Ok(Some(payload)) => payload,
            Ok(None) | Err(_) => return,
        };
        match protocol::decode_request(&payload) {
            Ok((id, Request::Ping)) => {
                conn.send(protocol::encode_response(id, &Response::Pong));
            }
            Ok((id, Request::Read { table, request })) => {
                let columns = request.columns;
                submit(
                    shared,
                    conn,
                    id,
                    table,
                    vec![request.key],
                    columns,
                    request.as_of,
                );
            }
            Ok((
                id,
                Request::MultiRead {
                    table,
                    keys,
                    columns,
                    as_of,
                },
            )) => {
                submit(shared, conn, id, table, keys, columns, as_of);
            }
            Err(e) => {
                // The frame was well-delimited but unspeakable. Framing is
                // still sound, yet the peer is confused (or hostile):
                // answer with the protocol error and drop the connection.
                conn.send(protocol::encode_response(0, &Response::Rejected(e)));
                return;
            }
        }
    }
}

/// Admit one read request past the in-flight budget, then execute it
/// inline (per-request mode) or queue it for the batch slot, running the
/// batch on this thread if the slot is free (window mode).
#[allow(clippy::too_many_arguments)]
fn submit(
    shared: &Arc<Shared>,
    conn: &Arc<Conn>,
    request_id: u64,
    table: String,
    keys: Vec<u64>,
    columns: Option<Vec<u32>>,
    as_of: Option<u64>,
) {
    let prev = shared.inflight.fetch_add(1, Ordering::AcqRel);
    if prev >= shared.config.max_inflight {
        shared.inflight.fetch_sub(1, Ordering::AcqRel);
        shared.counters.shed.fetch_add(1, Ordering::Relaxed);
        conn.send(protocol::encode_response(
            request_id,
            &Response::Rejected(Error::Overloaded),
        ));
        return;
    }
    shared.counters.admitted.fetch_add(1, Ordering::Relaxed);
    conn.outstanding.fetch_add(1, Ordering::Relaxed);
    let pending = Pending {
        conn: Arc::clone(conn),
        request_id,
        table,
        keys,
        columns,
        as_of,
        arrived: Instant::now(),
    };
    match shared.config.coalesce {
        Coalesce::Off => {
            let results = table_results(
                shared,
                &pending.table,
                &pending.keys,
                pending.columns.as_deref(),
                pending.as_of,
            );
            let mut outbox = Outbox::default();
            outbox.push(shared, &pending, &Response::Results(results));
            outbox.send();
        }
        Coalesce::Window { max_batch } => {
            let max_batch = max_batch.max(1);
            let batch = {
                let mut batcher = shared.batcher.lock();
                batcher.queue.push_back(pending);
                if batcher.running {
                    if conn.outstanding.load(Ordering::Relaxed) <= max_batch {
                        // The running batch's release hands this request
                        // to the coalescer.
                        return;
                    }
                    // A connection with more than a batch outstanding stops
                    // reading ahead and waits to run a batch itself, so a
                    // deep pipeline is held back by TCP flow control, not
                    // by the in-flight budget every connection shares.
                    batcher.throttled += 1;
                    while batcher.running {
                        shared.slot_freed.wait(&mut batcher);
                    }
                    batcher.throttled -= 1;
                    if batcher.queue.is_empty() {
                        return;
                    }
                }
                batcher.claim(max_batch)
            };
            run_batch(shared, batch);
        }
    }
}

fn table_results(
    shared: &Shared,
    table: &str,
    keys: &[u64],
    columns: Option<&[u32]>,
    as_of: Option<u64>,
) -> Vec<lstore::Result<ReadResponse>> {
    match shared.db.table_or_err(table) {
        Ok(t) => t.read_batch(keys, columns, as_of),
        Err(_) => keys
            .iter()
            .map(|_| Err(Error::TableNotFound(table.to_string())))
            .collect(),
    }
}

// ---------------------------------------------------------------------
// The coalescer
// ---------------------------------------------------------------------

/// Run requests that queued while the batch slot was taken: sleep until
/// the slot frees with work queued, claim it, run the batch. No timed
/// wait — a batch is whatever arrived during the previous one.
fn coalescer_loop(shared: &Shared, max_batch: usize) {
    loop {
        let batch = {
            let mut batcher = shared.batcher.lock();
            while batcher.running || batcher.queue.is_empty() {
                if batcher.queue.is_empty() && shared.stop.load(Ordering::Acquire) {
                    return;
                }
                shared.slot_freed.wait(&mut batcher);
            }
            batcher.claim(max_batch)
        };
        run_batch(shared, batch);
    }
}

/// Execute a batch claimed with the slot, release the slot (waking the
/// coalescer if requests queued meanwhile, and any throttled thread), then
/// write the replies.
fn run_batch(shared: &Shared, batch: Vec<Pending>) {
    let outbox = execute_batch(shared, batch);
    let wake = {
        let mut batcher = shared.batcher.lock();
        batcher.running = false;
        !batcher.queue.is_empty() || batcher.throttled > 0
    };
    if wake {
        shared.slot_freed.notify_all();
    }
    outbox.send();
}

/// Execute one coalesced batch: drop timed-out requests, merge the rest
/// by `(table, columns, as_of)` signature into one engine batch each, and
/// encode the results back per request.
fn execute_batch(shared: &Shared, batch: Vec<Pending>) -> Outbox {
    let mut outbox = Outbox::default();
    let mut live: Vec<Pending> = Vec::with_capacity(batch.len());
    for pending in batch {
        match shared.config.request_timeout {
            Some(deadline) if pending.arrived.elapsed() > deadline => {
                shared.counters.timed_out.fetch_add(1, Ordering::Relaxed);
                outbox.push(shared, &pending, &Response::Rejected(Error::RequestTimeout));
            }
            _ => live.push(pending),
        }
    }
    if live.is_empty() {
        return outbox;
    }
    shared.counters.batches.fetch_add(1, Ordering::Relaxed);
    shared
        .counters
        .batched_requests
        .fetch_add(live.len() as u64, Ordering::Relaxed);

    // Group member indices by execution signature.
    type Signature<'a> = (&'a str, Option<&'a [u32]>, Option<u64>);
    let mut index: HashMap<Signature<'_>, usize> = HashMap::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, p) in live.iter().enumerate() {
        let sig = (p.table.as_str(), p.columns.as_deref(), p.as_of);
        let g = *index.entry(sig).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[g].push(i);
    }

    // One engine batch per signature; results split back per member.
    let mut results: Vec<Option<Vec<lstore::Result<ReadResponse>>>> =
        live.iter().map(|_| None).collect();
    for members in &groups {
        let first = &live[members[0]];
        let keys: Vec<u64> = members
            .iter()
            .flat_map(|&i| live[i].keys.iter().copied())
            .collect();
        let outs = table_results(
            shared,
            &first.table,
            &keys,
            first.columns.as_deref(),
            first.as_of,
        );
        let mut iter = outs.into_iter();
        for &i in members {
            let n = live[i].keys.len();
            results[i] = Some(iter.by_ref().take(n).collect());
        }
    }
    for (pending, result) in live.iter().zip(results) {
        outbox.push(
            shared,
            pending,
            &Response::Results(result.expect("every member resolved")),
        );
    }
    outbox
}

// ---------------------------------------------------------------------
// Interruptible frame reads
// ---------------------------------------------------------------------

fn is_poll_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// [`protocol::read_frame`] with polling: the socket has a read timeout,
/// and on each timeout tick `alive` runs and returning false ends the
/// read. Partial reads accumulate in our buffer across ticks — a poll tick
/// can never lose frame sync.
fn read_frame_interruptible(
    stream: &mut TcpStream,
    alive: &dyn Fn() -> bool,
) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match stream.read(&mut len_bytes[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(None)
                } else {
                    Err(io::ErrorKind::UnexpectedEof.into())
                }
            }
            Ok(n) => filled += n,
            Err(e) if is_poll_timeout(&e) => {
                if !alive() {
                    return Ok(None);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if !(HEADER_LEN..=MAX_FRAME_LEN).contains(&len) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} outside [{HEADER_LEN}, {MAX_FRAME_LEN}]"),
        ));
    }
    let mut payload = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        match stream.read(&mut payload[filled..]) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => filled += n,
            Err(e) if is_poll_timeout(&e) => {
                if !alive() {
                    return Ok(None);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lstore::{DbConfig, TableConfig};

    #[test]
    fn finished_connection_threads_are_reaped() {
        let db = Database::new(DbConfig::new());
        db.create_table("kv", &["v"], TableConfig::small()).unwrap();
        let server = Server::start(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
        for _ in 0..50 {
            let mut client = crate::Client::connect(server.local_addr()).unwrap();
            client.ping().unwrap();
        }
        // Every client is closed: no live connection remains, so the
        // acceptor's reaping must bring the retained handles to zero.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let retained = server.shared.conn_threads.lock().len();
            if retained == 0 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "{retained} connection handles retained with no live connection"
            );
            std::thread::sleep(POLL_INTERVAL);
        }
    }
}
