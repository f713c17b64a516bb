//! The network ingest front door.
//!
//! Thread-per-connection over std TCP — no async runtime. An accept
//! thread admits up to `max_sessions` concurrent sessions (each on a
//! small-stack thread); one *committer* thread turns the cluster's WAL
//! group commit into the ack clock for every session at once:
//!
//! 1. a session ingests a `BATCH` frame straight into the owning
//!    server's ingest buffers (via [`OdhWriter`]), records the per-server
//!    WAL high-water marks it observed, and nudges the committer;
//! 2. the committer runs one [`Cluster::sync`] — a single fsync per
//!    server covering every session's appends since the last round —
//!    then walks the sessions and acks each one whose marks the durable
//!    LSNs now cover. Acks therefore ride commit boundaries exactly like
//!    the WAL's own group-commit stripes, and an acked frame is a
//!    durable frame.
//!
//! Backpressure is credit-based: `HELLO_OK` grants an initial window of
//! unacked frames; every `ACK` carries a further grant chosen so the
//! client's window stays at `window` normally and collapses to
//! `min_credit` while the seal queue or WAL lag is above its high-water
//! mark (the grant also carries both gauges so clients can see *why*).
//! The window never drops below `min_credit`, so a throttled client
//! always retains enough credit to make progress and earn the next ack.

use crate::frame::{self, ColScratch, Frame, ReadStatus, WIRE_VERSION};
use odh_core::cluster::Cluster;
use odh_core::writer::OdhWriter;
use odh_obs::{Counter, Gauge, Histogram, Registry};
use odh_types::{OdhError, Result, SourceClass};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Tuning for [`NetServer`]. The defaults suit a loopback bench; real
/// deployments mostly raise `max_sessions`.
#[derive(Clone, Debug)]
pub struct NetServerConfig {
    /// Bind address, e.g. `127.0.0.1:0` (port 0 = ephemeral).
    pub addr: String,
    /// Hard cap on concurrent sessions; excess connections are refused
    /// with a `Full` error frame.
    pub max_sessions: usize,
    /// Normal per-session window: unacked frames a client may have in
    /// flight.
    pub window: u32,
    /// Window floor while backpressured. Must be >= 1 or throttled
    /// clients deadlock (no frames -> no commits -> no grants).
    pub min_credit: u32,
    /// Seal-queue depth (max over servers) above which credit collapses.
    pub seal_depth_hi: usize,
    /// WAL lag (appended-but-not-durable LSNs, summed over servers)
    /// above which credit collapses.
    pub wal_lag_hi: u64,
    /// Register unknown sources on first write (as irregular
    /// high-frequency) instead of failing the session.
    pub auto_register: bool,
    /// Per-session thread stack. Thousands of sessions at the default
    /// 8 MiB would be wasteful; ingest needs very little stack.
    pub session_stack: usize,
}

impl Default for NetServerConfig {
    fn default() -> NetServerConfig {
        NetServerConfig {
            addr: "127.0.0.1:0".into(),
            max_sessions: 4096,
            window: 64,
            min_credit: 8,
            seal_depth_hi: 64,
            wal_lag_hi: 64 * 1024,
            auto_register: true,
            session_stack: 256 * 1024,
        }
    }
}

/// `odh_net_*` metrics, registered in the cluster meter's registry so
/// they render alongside the storage and SQL catalogs.
pub(crate) struct NetObs {
    pub sessions: Arc<Counter>,
    pub sessions_active: Arc<Gauge>,
    pub sessions_rejected: Arc<Counter>,
    pub frames: Arc<Counter>,
    pub rows: Arc<Counter>,
    pub bytes_read: Arc<Counter>,
    pub bytes_written: Arc<Counter>,
    pub acks: Arc<Counter>,
    pub commits: Arc<Counter>,
    /// Committer rounds re-run because the previous round left a session
    /// uncovered (a subset of `commits`).
    pub commit_retries: Arc<Counter>,
    pub backpressure: Arc<Counter>,
    pub errors: Arc<Counter>,
    pub decode_us: Arc<Histogram>,
}

impl NetObs {
    fn new(reg: &Registry) -> NetObs {
        NetObs {
            sessions: reg.counter("odh_net_sessions_total", &[]),
            sessions_active: reg.gauge("odh_net_sessions_active", &[]),
            sessions_rejected: reg.counter("odh_net_sessions_rejected_total", &[]),
            frames: reg.counter("odh_net_frames_total", &[]),
            rows: reg.counter("odh_net_rows_total", &[]),
            bytes_read: reg.counter("odh_net_bytes_read_total", &[]),
            bytes_written: reg.counter("odh_net_bytes_written_total", &[]),
            acks: reg.counter("odh_net_acks_total", &[]),
            commits: reg.counter("odh_net_commits_total", &[]),
            commit_retries: reg.counter("odh_net_commit_retry_rounds_total", &[]),
            backpressure: reg.counter("odh_net_backpressure_events_total", &[]),
            errors: reg.counter("odh_net_errors_total", &[]),
            decode_us: reg.histogram("odh_net_frame_decode_us", &[]),
        }
    }
}

/// State one session shares with the committer thread.
struct SessionShared {
    /// Write half (a `TcpStream` clone). The committer writes acks here;
    /// the session thread writes handshake/error/`BYE_OK` frames.
    out: Mutex<TcpStream>,
    /// Newest batch seq ingested by the session thread.
    last_seq: AtomicU64,
    /// Newest seq the committer has acked.
    acked_seq: AtomicU64,
    /// Total credit granted (hello window + all ack grants), in frames.
    granted: AtomicU64,
    /// Per-server WAL high-water LSN observed right after this session's
    /// latest appends: once every server's durable LSN reaches its mark,
    /// everything this session ingested is on stable storage.
    marks: Mutex<Vec<u64>>,
    dead: AtomicBool,
    /// Wakes the session thread when `acked_seq` advances or the session
    /// dies — the BYE teardown waits here instead of poll-sleeping.
    ack_mu: Mutex<()>,
    ack_cv: Condvar,
}

impl SessionShared {
    fn mark_dead(&self) {
        if !self.dead.swap(true, Ordering::SeqCst) {
            if let Ok(s) = self.out.lock() {
                let _ = s.shutdown(Shutdown::Both);
            }
            self.notify_ack();
        }
    }

    fn notify_ack(&self) {
        let _g = self.ack_mu.lock().unwrap();
        self.ack_cv.notify_all();
    }
}

struct Inner {
    cluster: Arc<Cluster>,
    cfg: NetServerConfig,
    obs: NetObs,
    shutdown: AtomicBool,
    active: AtomicUsize,
    sessions: Mutex<Vec<Arc<SessionShared>>>,
    /// Committer doorbell: set after every ingested frame.
    dirty: Mutex<bool>,
    doorbell: Condvar,
    /// Serializes [`commit_round`]. The committer thread holds it for
    /// every round; a session waiting at BYE `try_lock`s it to run the
    /// round itself (leader-based group commit) — under heavy session
    /// fan-in the dedicated committer can be scheduling-starved, and the
    /// waiter doing the work beats queueing behind it.
    commit_mu: Mutex<()>,
    local_addr: SocketAddr,
}

impl Inner {
    /// Mark commit work pending and wake the committer — but only on the
    /// false→true transition. While a round is already pending, further
    /// frames need no futex wake (the committer re-checks `dirty` before
    /// every wait), and skipping it keeps a busy ingest fan-in from
    /// turning into a per-frame syscall storm.
    fn ring_committer(&self) {
        let mut d = self.dirty.lock().unwrap();
        let was = *d;
        *d = true;
        drop(d);
        if !was {
            self.doorbell.notify_one();
        }
    }

    /// Record commit work pending without waking the committer: its idle
    /// poll (or the next explicit ring / BYE assist) will pick it up.
    /// The steady-state streaming path uses this — a session with plenty
    /// of credit left has no latency stake in the next round, and not
    /// every frame needs to cost a futex wake plus a committer schedule.
    fn mark_dirty(&self) {
        *self.dirty.lock().unwrap() = true;
    }
}

/// A running wire-protocol server. Dropping it (or calling
/// [`NetServer::shutdown`]) stops the accept loop, drains the committer,
/// and disconnects every session.
pub struct NetServer {
    inner: Arc<Inner>,
    accept: Option<std::thread::JoinHandle<()>>,
    committer: Option<std::thread::JoinHandle<()>>,
}

impl NetServer {
    /// Bind `cfg.addr` and serve `cluster` until shutdown.
    pub fn serve(cluster: Arc<Cluster>, cfg: NetServerConfig) -> Result<NetServer> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let obs = NetObs::new(cluster.meter().registry());
        let inner = Arc::new(Inner {
            cluster,
            cfg,
            obs,
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            sessions: Mutex::new(Vec::new()),
            dirty: Mutex::new(false),
            doorbell: Condvar::new(),
            commit_mu: Mutex::new(()),
            local_addr,
        });
        let accept = {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name("odh-net-accept".into())
                .spawn(move || accept_loop(inner, listener))
                .map_err(|e| OdhError::Io(format!("spawn accept thread: {e}")))?
        };
        let committer = {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name("odh-net-commit".into())
                .spawn(move || committer_loop(inner))
                .map_err(|e| OdhError::Io(format!("spawn committer thread: {e}")))?
        };
        Ok(NetServer { inner, accept: Some(accept), committer: Some(committer) })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr
    }

    /// Stop accepting, disconnect sessions, drain the committer, join
    /// the service threads. Idempotent.
    pub fn shutdown(&mut self) {
        if self.inner.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.inner.local_addr);
        self.inner.doorbell.notify_all();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.committer.take() {
            let _ = h.join();
        }
        // Sessions poll the flag at their read timeout; give them a
        // bounded window to drain before returning.
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.inner.active.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(inner: Arc<Inner>, listener: TcpListener) {
    loop {
        let (stream, _) = match listener.accept() {
            Ok(x) => x,
            Err(_) => {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if inner.active.load(Ordering::SeqCst) >= inner.cfg.max_sessions {
            inner.obs.sessions_rejected.inc();
            let mut buf = Vec::new();
            frame::encode_error(
                &mut buf,
                frame::error_code(&OdhError::Full(String::new())),
                "session limit reached",
            );
            let _ = std::io::Write::write_all(&mut &stream, &buf);
            continue;
        }
        inner.active.fetch_add(1, Ordering::SeqCst);
        inner.obs.sessions.inc();
        inner.obs.sessions_active.add(1);
        let inner2 = inner.clone();
        let spawned = std::thread::Builder::new()
            .name("odh-net-session".into())
            .stack_size(inner.cfg.session_stack)
            .spawn(move || {
                session_loop(&inner2, stream);
                inner2.active.fetch_sub(1, Ordering::SeqCst);
                inner2.obs.sessions_active.add(-1);
            });
        if spawned.is_err() {
            inner.active.fetch_sub(1, Ordering::SeqCst);
            inner.obs.sessions_active.add(-1);
            inner.obs.sessions_rejected.inc();
        }
    }
}

/// Write one pre-encoded frame buffer, counting bytes.
fn write_frames(inner: &Inner, out: &Mutex<TcpStream>, buf: &[u8]) -> std::io::Result<()> {
    let mut s = out.lock().unwrap();
    std::io::Write::write_all(&mut *s, buf)?;
    inner.obs.bytes_written.add(buf.len() as u64);
    Ok(())
}

/// Send an `ERROR` frame (best effort) and count it.
fn send_error(inner: &Inner, out: &Mutex<TcpStream>, e: &OdhError) {
    inner.obs.errors.inc();
    let mut buf = Vec::new();
    frame::encode_error(&mut buf, frame::error_code(e), e.message());
    let _ = write_frames(inner, out, &buf);
}

fn session_loop(inner: &Inner, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let Ok(write_half) = stream.try_clone() else { return };
    let shared = Arc::new(SessionShared {
        out: Mutex::new(write_half),
        last_seq: AtomicU64::new(0),
        acked_seq: AtomicU64::new(0),
        granted: AtomicU64::new(inner.cfg.window as u64),
        marks: Mutex::new(vec![0; inner.cluster.servers().len()]),
        dead: AtomicBool::new(false),
        ack_mu: Mutex::new(()),
        ack_cv: Condvar::new(),
    });
    match session_run(inner, stream, &shared) {
        Ok(()) => {}
        Err(e) => send_error(inner, &shared.out, &e),
    }
    shared.mark_dead();
}

/// Read the handshake, then ingest until BYE / EOF / shutdown / error.
fn session_run(inner: &Inner, stream: TcpStream, shared: &Arc<SessionShared>) -> Result<()> {
    let mut scratch = ColScratch::new();
    // Buffered reads: one kernel read pulls in as many back-to-back
    // frames as the client has in flight, so a streaming session costs
    // ~one syscall per read burst instead of two per frame (header +
    // body). The write half is a separate clone (`shared.out`), so
    // buffering the read side never delays an ack.
    let mut stream = std::io::BufReader::with_capacity(64 << 10, stream);
    // The one contiguous per-session read buffer: grown to the largest
    // frame seen, then reused for every subsequent read.
    let mut rd_buf: Vec<u8> = Vec::new();
    // ~30 s of 50 ms read timeouts: a peer stalled mid-frame that long is gone.
    const IDLE_BUDGET: u32 = 600;

    // Handshake: the first frame must be HELLO.
    let (schema, ntags) = loop {
        match frame::read_frame(&mut stream, &mut rd_buf, IDLE_BUDGET)? {
            ReadStatus::Eof => return Ok(()),
            ReadStatus::Idle => {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return Ok(());
                }
                continue;
            }
            ReadStatus::Frame(len) => match frame::decode_frame(&rd_buf[..len])? {
                Frame::Hello { version, ntags, schema } => {
                    if version != WIRE_VERSION {
                        return Err(OdhError::Unsupported(format!(
                            "wire version {version} (server speaks {WIRE_VERSION})"
                        )));
                    }
                    break (schema.to_string(), ntags as usize);
                }
                _ => return Err(OdhError::Corrupt("wire: expected HELLO".into())),
            },
        }
    };
    let cfg = inner
        .cluster
        .type_config(&schema)
        .ok_or_else(|| OdhError::NotFound(format!("schema type '{schema}'")))?;
    if cfg.schema.tag_count() != ntags {
        return Err(OdhError::Schema(format!(
            "schema '{schema}' has {} tags, client declared {ntags}",
            cfg.schema.tag_count()
        )));
    }
    let writer = OdhWriter::new(inner.cluster.clone(), &schema)?;
    let mut buf = Vec::new();
    frame::encode_hello_ok(&mut buf, inner.cfg.window);
    write_frames(inner, &shared.out, &buf).map_err(OdhError::from)?;
    inner.sessions.lock().unwrap().push(shared.clone());

    let mut expected_seq: u64 = 1;
    loop {
        if shared.dead.load(Ordering::SeqCst) {
            return Ok(());
        }
        match frame::read_frame(&mut stream, &mut rd_buf, IDLE_BUDGET)? {
            ReadStatus::Eof => return Ok(()),
            ReadStatus::Idle => {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return Ok(());
                }
            }
            ReadStatus::Frame(len) => {
                let t0 = Instant::now();
                let decoded = frame::decode_frame(&rd_buf[..len])?;
                match decoded {
                    Frame::Batch(view) => {
                        if view.seq != expected_seq {
                            return Err(OdhError::Corrupt(format!(
                                "wire: batch seq {} (expected {expected_seq})",
                                view.seq
                            )));
                        }
                        if view.ntags != ntags {
                            return Err(OdhError::Schema(format!(
                                "batch has {} tags, session declared {ntags}",
                                view.ntags
                            )));
                        }
                        expected_seq += 1;
                        let nrows = view.nrows as u64;
                        ingest_batch(inner, &writer, &schema, &view, &mut scratch)?;
                        inner.obs.decode_us.record(t0.elapsed().as_micros() as u64);
                        inner.obs.frames.inc();
                        inner.obs.rows.add(nrows);
                        inner.obs.bytes_read.add((frame::FRAME_HDR + len) as u64);
                        // Record the durability marks *after* the appends,
                        // then publish the seq and ring the committer.
                        {
                            let mut marks = shared.marks.lock().unwrap();
                            for (i, s) in inner.cluster.servers().iter().enumerate() {
                                if let Some(w) = s.wal() {
                                    marks[i] = w.max_lsn();
                                }
                            }
                        }
                        shared.last_seq.store(view.seq, Ordering::SeqCst);
                        // Wake the committer only when this client is
                        // close to exhausting its credit window (it will
                        // soon block on a grant); otherwise just note the
                        // pending work for the committer's own cadence.
                        let granted = shared.granted.load(Ordering::SeqCst);
                        if granted.saturating_sub(view.seq) <= inner.cfg.min_credit as u64 {
                            inner.ring_committer();
                        } else {
                            inner.mark_dirty();
                        }
                    }
                    Frame::Bye => {
                        // Wait (bounded) for the committer to ack what we
                        // ingested, then confirm the clean close.
                        let want = shared.last_seq.load(Ordering::SeqCst);
                        let deadline = Instant::now() + Duration::from_secs(30);
                        let mut assist_buf = Vec::new();
                        while shared.acked_seq.load(Ordering::SeqCst) < want
                            && !shared.dead.load(Ordering::SeqCst)
                            && !inner.shutdown.load(Ordering::SeqCst)
                            && Instant::now() < deadline
                        {
                            // Become the commit leader if no round is in
                            // flight; our own appends are then covered by
                            // the sync we just ran, so the loop exits on
                            // the re-check.
                            if let Ok(_lead) = inner.commit_mu.try_lock() {
                                commit_round(inner, &mut assist_buf);
                                continue;
                            }
                            // A round is running on another thread; sleep
                            // until it acks us. Re-check under `ack_mu`
                            // (notify_ack takes it) so the wakeup between
                            // the try_lock and the wait is not lost.
                            let g = shared.ack_mu.lock().unwrap();
                            if shared.acked_seq.load(Ordering::SeqCst) >= want {
                                break;
                            }
                            inner.ring_committer();
                            drop(shared.ack_cv.wait_timeout(g, Duration::from_millis(2)).unwrap());
                        }
                        if shared.acked_seq.load(Ordering::SeqCst) < want {
                            return Err(OdhError::Io("wire: shutdown before final commit".into()));
                        }
                        let mut buf = Vec::new();
                        frame::encode_bye_ok(&mut buf);
                        write_frames(inner, &shared.out, &buf).map_err(OdhError::from)?;
                        return Ok(());
                    }
                    Frame::Hello { .. } => {
                        return Err(OdhError::Corrupt("wire: duplicate HELLO".into()))
                    }
                    // Server-to-client frames arriving at the server are
                    // a protocol violation.
                    Frame::HelloOk { .. }
                    | Frame::Ack { .. }
                    | Frame::ByeOk
                    | Frame::Error { .. } => {
                        return Err(OdhError::Corrupt("wire: client sent a server frame".into()))
                    }
                }
            }
        }
    }
}

/// Pivot a batch view into per-source runs and bulk-ingest each run
/// through [`OdhWriter::write_cols`], auto-registering unknown sources
/// when configured (as irregular/high-frequency — pre-register sources
/// that need a different Table 1 class). The run shape is what makes the
/// wire path keep up with in-process ingest: source lookup, shard lock,
/// and WAL stripe lock are paid per run, not per row.
fn ingest_batch(
    inner: &Inner,
    writer: &OdhWriter,
    schema: &str,
    view: &frame::BatchView<'_>,
    scratch: &mut ColScratch,
) -> Result<()> {
    let auto = inner.cfg.auto_register;
    view.for_each_run(scratch, |source, ts, cols| match writer.write_cols(source, ts, cols) {
        Ok(_) => Ok(()),
        Err(OdhError::NotFound(_)) if auto => {
            match inner.cluster.register_source(schema, source, SourceClass::irregular_high()) {
                Ok(()) | Err(OdhError::Config(_)) => {}
                Err(e) => return Err(e),
            }
            writer.write_cols(source, ts, cols).map(|_| ())
        }
        Err(e) => Err(e),
    })
}

/// One committer round: group-commit the cluster, then ack every session
/// whose recorded WAL marks are now durable. Returns whether any session
/// is still waiting on coverage (frames appended mid-sync).
fn commit_round(inner: &Inner, ack_buf: &mut Vec<u8>) -> bool {
    let sync_ok = inner.cluster.sync().is_ok();
    inner.obs.commits.inc();
    let servers = inner.cluster.servers();
    let durable: Vec<u64> =
        servers.iter().map(|s| s.wal().map(|w| w.durable_lsn()).unwrap_or(u64::MAX)).collect();
    if !sync_ok {
        // The log is gone; no further frame can ever become durable.
        // Fail every session rather than letting clients wait forever.
        let sessions = inner.sessions.lock().unwrap().clone();
        for sess in &sessions {
            send_error(inner, &sess.out, &OdhError::Io("wire: group commit failed".into()));
            sess.mark_dead();
        }
        inner.sessions.lock().unwrap().retain(|s| !s.dead.load(Ordering::SeqCst));
        return false;
    }
    // Backpressure gauges for the credit computation.
    let mut seal_depth = 0usize;
    let mut wal_lag = 0u64;
    for s in servers {
        if let Some(w) = s.wal() {
            wal_lag += w.max_lsn().saturating_sub(w.durable_lsn());
        }
        for t in s.tables() {
            seal_depth = seal_depth.max(t.seal_queue_depth());
        }
    }
    let pressured = seal_depth > inner.cfg.seal_depth_hi || wal_lag > inner.cfg.wal_lag_hi;
    let target = if pressured { inner.cfg.min_credit } else { inner.cfg.window } as u64;

    let sessions = inner.sessions.lock().unwrap().clone();
    let mut leftover = false;
    for sess in &sessions {
        if sess.dead.load(Ordering::SeqCst) {
            continue;
        }
        let last = sess.last_seq.load(Ordering::SeqCst);
        let acked = sess.acked_seq.load(Ordering::SeqCst);
        if last == acked {
            continue;
        }
        let covered = {
            let marks = sess.marks.lock().unwrap();
            marks.iter().zip(&durable).all(|(m, d)| m <= d)
        };
        if !covered {
            leftover = true;
            continue;
        }
        // Slide the credit window: keep granted - acked at the target,
        // never granting so little that the client stalls below
        // min_credit of headroom.
        let granted = sess.granted.load(Ordering::SeqCst);
        let floor = last + inner.cfg.min_credit as u64;
        let desired = (last + target).max(floor);
        let grant = desired.saturating_sub(granted);
        if pressured && grant == 0 {
            inner.obs.backpressure.inc();
        }
        ack_buf.clear();
        frame::encode_ack(ack_buf, last, grant as u32, seal_depth as u32, wal_lag);
        if write_frames(inner, &sess.out, ack_buf).is_err() {
            sess.mark_dead();
            continue;
        }
        sess.granted.store(granted + grant, Ordering::SeqCst);
        sess.acked_seq.store(last, Ordering::SeqCst);
        sess.notify_ack();
        inner.obs.acks.inc();
    }
    inner.sessions.lock().unwrap().retain(|s| !s.dead.load(Ordering::SeqCst));
    leftover
}

fn committer_loop(inner: Arc<Inner>) {
    let mut ack_buf = Vec::new();
    let mut retry = false;
    loop {
        let shutting_down;
        {
            let mut dirty = inner.dirty.lock().unwrap();
            if retry {
                // Coverage pending from the last round: wait briefly for
                // the in-flight appends to land, then re-commit.
                if !*dirty {
                    let (d, _) =
                        inner.doorbell.wait_timeout(dirty, Duration::from_millis(2)).unwrap();
                    dirty = d;
                }
            } else {
                while !*dirty && !inner.shutdown.load(Ordering::SeqCst) {
                    let (d, _) =
                        inner.doorbell.wait_timeout(dirty, Duration::from_millis(20)).unwrap();
                    dirty = d;
                }
            }
            shutting_down = inner.shutdown.load(Ordering::SeqCst);
            if shutting_down && !*dirty && !retry {
                return;
            }
            *dirty = false;
        }
        if retry {
            inner.obs.commit_retries.inc();
        }
        retry = {
            let _lead = inner.commit_mu.lock().unwrap();
            commit_round(&inner, &mut ack_buf)
        };
        if shutting_down && !retry {
            return;
        }
        if !retry {
            // Pace the background cadence. Measured on a 2-core host
            // (perfbench `wire_ingest`), dropping this pause cuts wire
            // ingest from 9.3 M to 6.9 M points/s: back-to-back rounds
            // re-flush the same stripes and take the cores and stripe
            // locks the sessions need to decode and append. A session at
            // BYE does not pay it; it grabs `commit_mu` and runs the
            // round itself.
            std::thread::sleep(Duration::from_millis(4));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::NetClient;
    use odh_sim::ResourceMeter;
    use odh_storage::TableConfig;
    use odh_types::{Record, SchemaType, SourceClass, SourceId, Timestamp};

    fn cluster(durable: bool) -> Arc<Cluster> {
        let meter = ResourceMeter::unmetered();
        let c = if durable {
            Cluster::in_memory_durable(2, meter).unwrap()
        } else {
            Cluster::in_memory(2, meter)
        };
        c.define_schema_type(TableConfig::new(SchemaType::new("m", ["a", "b"]))).unwrap();
        for id in 0..8 {
            c.register_source("m", SourceId(id), SourceClass::irregular_high()).unwrap();
        }
        c
    }

    fn records(n: usize) -> Vec<Record> {
        (0..n)
            .map(|i| {
                Record::new(
                    SourceId((i % 8) as u64),
                    Timestamp::from_micros(1_000_000 + i as i64 * 1000),
                    vec![Some(i as f64), if i % 3 == 0 { None } else { Some(-(i as f64)) }],
                )
            })
            .collect()
    }

    #[test]
    fn loopback_roundtrip_durable() {
        let c = cluster(true);
        let mut server = NetServer::serve(c.clone(), NetServerConfig::default()).unwrap();
        let mut client = NetClient::connect(server.local_addr(), "m", 2).unwrap();
        let recs = records(256);
        for chunk in recs.chunks(64) {
            client.send_batch(chunk).unwrap();
        }
        let report = client.finish().unwrap();
        assert_eq!(report.acked_seq, 4);
        assert_eq!(report.stats.rows_sent, 256);
        assert!(report.stats.acks_received >= 1);
        server.shutdown();
        c.flush().unwrap();
        // Every row landed: count points per source via a scan.
        let mut rows = 0usize;
        for id in 0..8u64 {
            let t = c.server_for("m", SourceId(id)).table("m").unwrap();
            rows += t
                .historical_scan(SourceId(id), Timestamp(0), Timestamp(i64::MAX), &[0])
                .unwrap()
                .len();
        }
        assert_eq!(rows, 256);
    }

    #[test]
    fn hello_schema_mismatch_is_typed() {
        let c = cluster(false);
        let mut server = NetServer::serve(c, NetServerConfig::default()).unwrap();
        let err = NetClient::connect(server.local_addr(), "nope", 2).err().unwrap();
        assert_eq!(err.kind(), "not_found");
        let err = NetClient::connect(server.local_addr(), "m", 3).err().unwrap();
        assert_eq!(err.kind(), "schema");
        server.shutdown();
    }

    #[test]
    fn garbage_frame_closes_session_with_error() {
        let c = cluster(false);
        let mut server = NetServer::serve(c, NetServerConfig::default()).unwrap();
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        // A valid envelope around a nonsense payload.
        let payload = [0xEEu8; 16];
        let mut buf = Vec::new();
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&odh_storage::wal::crc32(&payload).to_le_bytes());
        buf.extend_from_slice(&payload);
        std::io::Write::write_all(&mut raw, &buf).unwrap();
        let mut rd = Vec::new();
        let st = frame::read_frame(&mut raw, &mut rd, 1000).unwrap();
        let ReadStatus::Frame(len) = st else { panic!("expected an error frame, got {st:?}") };
        match frame::decode_frame(&rd[..len]).unwrap() {
            Frame::Error { .. } => {}
            f => panic!("expected ERROR, got {f:?}"),
        }
        server.shutdown();
    }
}
