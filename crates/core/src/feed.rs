//! The streaming feed plane: session FSM ingest with hold timers,
//! graceful restart, and resume-exact reconnect (DESIGN.md §14).
//!
//! The paper's monitoring framework tails live BGP feeds; this module
//! is the workspace's receiving end. A [`FeedServer`] listens for
//! framed TCP sessions speaking the [`quicksand_bgp::feed`] protocol
//! and ingests events into per-peer [`FeedSlot`]s; a replay cell
//! consumes a slot through [`FeedSlot::churn_iter`], driving the exact
//! replay loop the batch path uses ([`Scenario::run_month_streamed`]).
//! A [`FeedClient`] streams a churn schedule into a server, surviving
//! disconnects with seeded decorrelated-jitter backoff and resuming
//! exactly from the server's acknowledged cursor.
//!
//! Session FSM (per peer):
//!
//! ```text
//!            accept          Open valid, Resume sent
//!   Idle ──────────▶ Connect ───────────────────────▶ Established
//!    ▲                  │ bad handshake                    │
//!    │                  ▼ (dead-letter)                    │ hold timer
//!    └──────────────────┴───────◀──────────────────────────┘ expired,
//!        disconnect / reap / eof                             reap
//! ```
//!
//! Robustness discipline:
//!
//! * **Hold timers.** A session that stops producing frames for the
//!   negotiated hold time is *reaped* — closed at a deterministic
//!   cursor (the count of events fully accepted), never mid-event.
//! * **Graceful restart.** The slot retains all accepted state across
//!   disconnects; a consumer keeps draining what arrived and only
//!   gives up ([`QuicksandError::FeedRestartExpired`]) when no session
//!   re-establishes within the restart window.
//! * **Resume-exact reconnect.** The handshake tells the client the
//!   accepted count; the client restarts streaming from that sequence
//!   number. Duplicates are re-acked, gaps are fatal, and the EOF
//!   digest plus a batch re-run ([`month_fnv`]) prove the streamed
//!   month is bitwise identical to the locally generated one.
//! * **Dead letters.** Malformed frames and protocol violations never
//!   poison a slot: the offending session is counted, reported, and
//!   closed; the slot stays valid for the next connection.
//!
//! [`Scenario::run_month_streamed`]: crate::scenario::Scenario::run_month_streamed

use crate::scenario::MonthResult;
use crate::telemetry::{FeedSessionTelemetry, SessionState};
use quicksand_bgp::feed::{self, FeedMsg, FnvHasher};
use quicksand_bgp::{ChurnEvent, ConnChaosPlan, ConnFaultKind};
use quicksand_net::{
    decorrelated_jitter, read_frame, splitmix64, FrameDecoder, FrameError, QsResult, QuicksandError,
};
use quicksand_obs as obs;
use quicksand_obs::Key;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Stage label for feed metrics and events.
pub const STAGE: &str = "feed";

/// How many events the client streams between ack drains.
const ACK_DRAIN_EVERY: u64 = 16;

/// Tuning knobs for the ingest side of the feed plane.
#[derive(Clone, Debug, PartialEq)]
pub struct FeedConfig {
    /// Server-side hold time in wall ms: a session silent longer is
    /// reaped. The effective per-session hold is the minimum of this
    /// and the client's advertised hold.
    pub hold_ms: u64,
    /// Graceful-restart window in wall ms: how long a consumer waits
    /// for a session to (re-)establish before abandoning the feed.
    pub restart_ms: u64,
    /// Send a cumulative ack every this many accepted events (the
    /// final EOF ack is always sent).
    pub ack_every: u64,
    /// Backpressure bound: accepted-but-unconsumed events per slot.
    pub queue_cap: usize,
    /// Poll interval for hold timers, condvar waits, and stop checks.
    pub poll_ms: u64,
}

impl Default for FeedConfig {
    fn default() -> Self {
        FeedConfig {
            hold_ms: 2000,
            restart_ms: 10_000,
            ack_every: 32,
            queue_cap: 1024,
            poll_ms: 25,
        }
    }
}

/// What happened to a pushed event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushOutcome {
    /// The event was new and accepted; the cursor is now this.
    Accepted(u64),
    /// The event was already accepted (a resume overlap); the cursor
    /// is unchanged and should be re-acked.
    Duplicate(u64),
}

#[derive(Debug)]
struct SlotInner {
    /// Every accepted event, in sequence order. Retaining the full
    /// prefix is what makes graceful restart, client resume, and
    /// supervised cell restart all trivially consistent: the slot *is*
    /// the authoritative stream prefix.
    events: Vec<ChurnEvent>,
    /// FNV-1a folded over every accepted event's encoding, matched
    /// against the client's EOF digest.
    digest: FnvHasher,
    /// Events handed to the consumer so far (backpressure watermark).
    consumed: u64,
    /// Total event count once EOF was accepted.
    eof: Option<u64>,
    /// True while a session is in the Established state.
    established: bool,
    /// Last accept/establishment change — the graceful-restart clock.
    last_change: Instant,
    /// Set once the slot is abandoned; every later call errors typed.
    failed: Option<String>,
    /// Times a producer blocked on the queue bound.
    backpressure_waits: u64,
}

/// Per-peer ingest state shared between the feed server's session
/// threads (producers) and a replay cell (consumer).
#[derive(Debug)]
pub struct FeedSlot {
    cfg: FeedConfig,
    inner: Mutex<SlotInner>,
    cond: Condvar,
}

impl FeedSlot {
    /// An empty slot with the given tuning.
    pub fn new(cfg: FeedConfig) -> FeedSlot {
        FeedSlot {
            cfg,
            inner: Mutex::new(SlotInner {
                events: Vec::new(),
                digest: FnvHasher::new(),
                consumed: 0,
                eof: None,
                established: false,
                last_change: Instant::now(),
                failed: None,
                backpressure_waits: 0,
            }),
            cond: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, SlotInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn failed_err(failed: &str) -> QuicksandError {
        QuicksandError::FeedProtocol {
            what: "slot",
            detail: failed.to_string(),
        }
    }

    /// Events accepted so far — the cursor a reconnecting client
    /// resumes from.
    pub fn accepted(&self) -> u64 {
        self.lock().events.len() as u64
    }

    /// Events handed to the consumer so far.
    pub fn consumed(&self) -> u64 {
        self.lock().consumed
    }

    /// The total event count, once EOF was accepted.
    pub fn eof_total(&self) -> Option<u64> {
        self.lock().eof
    }

    /// Times a producer blocked on the queue bound.
    pub fn backpressure_waits(&self) -> u64 {
        self.lock().backpressure_waits
    }

    /// Marks a session established (or torn down) and restarts the
    /// graceful-restart clock.
    pub fn set_established(&self, up: bool) {
        let mut g = self.lock();
        g.established = up;
        g.last_change = Instant::now();
        self.cond.notify_all();
    }

    /// Abandons the slot: every later push or consume errors typed.
    pub fn fail(&self, why: String) {
        let mut g = self.lock();
        if g.failed.is_none() {
            g.failed = Some(why);
        }
        self.cond.notify_all();
    }

    /// Offers the event at `seq`. Accepts exactly in-order events,
    /// re-acks duplicates from a resume overlap, and rejects gaps and
    /// post-EOF events typed. Blocks (bounded by `cancel`) while the
    /// consumer is more than `queue_cap` events behind.
    pub fn push_event(&self, seq: u64, event: ChurnEvent) -> QsResult<PushOutcome> {
        self.push_event_cancel(seq, event, None)
    }

    pub(crate) fn push_event_cancel(
        &self,
        seq: u64,
        event: ChurnEvent,
        cancel: Option<&AtomicBool>,
    ) -> QsResult<PushOutcome> {
        let mut g = self.lock();
        loop {
            if let Some(why) = &g.failed {
                return Err(Self::failed_err(why));
            }
            if let Some(c) = cancel {
                if c.load(Ordering::Relaxed) {
                    return Err(QuicksandError::FeedProtocol {
                        what: "shutdown",
                        detail: "server stopping".into(),
                    });
                }
            }
            let len = g.events.len() as u64;
            if seq < len {
                g.last_change = Instant::now();
                self.cond.notify_all();
                return Ok(PushOutcome::Duplicate(len));
            }
            if seq > len {
                return Err(QuicksandError::FeedProtocol {
                    what: "cursor_gap",
                    detail: format!("event seq {seq}, expected {len}"),
                });
            }
            if g.eof.is_some() {
                return Err(QuicksandError::FeedProtocol {
                    what: "event_after_eof",
                    detail: format!("event seq {seq} after eof"),
                });
            }
            if len - g.consumed >= self.cfg.queue_cap as u64 {
                g.backpressure_waits += 1;
                let (g2, _) = self
                    .cond
                    .wait_timeout(g, Duration::from_millis(self.cfg.poll_ms.max(1)))
                    .unwrap_or_else(|e| e.into_inner());
                g = g2;
                continue;
            }
            g.digest.update(&feed::encode_event(&event));
            g.events.push(event);
            g.last_change = Instant::now();
            self.cond.notify_all();
            return Ok(PushOutcome::Accepted(len + 1));
        }
    }

    /// Accepts end-of-feed: `total` must equal the accepted count and
    /// `fnv` the folded digest, proving the transport delivered the
    /// identical stream. Idempotent, so a client that reconnects after
    /// streaming everything can resend its EOF. Returns the cursor.
    pub fn set_eof(&self, total: u64, fnv: u64) -> QsResult<u64> {
        let mut g = self.lock();
        if let Some(why) = &g.failed {
            return Err(Self::failed_err(why));
        }
        let len = g.events.len() as u64;
        if total != len {
            return Err(QuicksandError::FeedProtocol {
                what: "eof_total",
                detail: format!("eof claims {total} events, accepted {len}"),
            });
        }
        let ours = g.digest.finish();
        if ours != fnv {
            return Err(QuicksandError::FeedProtocol {
                what: "eof_digest",
                detail: format!("digest {ours:#018x}, eof claims {fnv:#018x}"),
            });
        }
        g.eof = Some(total);
        g.last_change = Instant::now();
        self.cond.notify_all();
        Ok(len)
    }

    /// The consumer side: the churn event at `idx`, blocking until it
    /// arrives. `beat` is invoked once per poll tick while waiting, so
    /// a supervised cell can feed its watchdog. Returns `Ok(None)` at
    /// end of feed, and [`QuicksandError::FeedRestartExpired`] when no
    /// session is established and the restart window has elapsed.
    pub fn next_churn(
        &self,
        idx: u64,
        beat: &mut dyn FnMut(),
    ) -> QsResult<Option<ChurnEvent>> {
        let mut g = self.lock();
        loop {
            if let Some(why) = &g.failed {
                return Err(Self::failed_err(why));
            }
            let len = g.events.len() as u64;
            if idx < len {
                let ev = g.events[idx as usize];
                g.consumed = g.consumed.max(idx + 1);
                self.cond.notify_all();
                return Ok(Some(ev));
            }
            if let Some(total) = g.eof {
                if idx >= total {
                    return Ok(None);
                }
            }
            if !g.established {
                let silent_ms = g.last_change.elapsed().as_millis() as u64;
                if silent_ms > self.cfg.restart_ms {
                    return Err(QuicksandError::FeedRestartExpired {
                        cursor: len,
                        silent_ms,
                    });
                }
            }
            let (g2, _) = self
                .cond
                .wait_timeout(g, Duration::from_millis(self.cfg.poll_ms.max(1)))
                .unwrap_or_else(|e| e.into_inner());
            g = g2;
            beat();
        }
    }

    /// An iterator over the slot's churn events, in the shape
    /// [`Scenario::run_month_streamed`] consumes. `beat` fires once
    /// per poll tick while the iterator is waiting for the feed.
    ///
    /// [`Scenario::run_month_streamed`]: crate::scenario::Scenario::run_month_streamed
    pub fn churn_iter<F: FnMut()>(&self, beat: F) -> ChurnFeedIter<'_, F> {
        ChurnFeedIter {
            slot: self,
            idx: 0,
            beat,
            done: false,
        }
    }
}

/// Blocking iterator over a [`FeedSlot`]'s churn events; see
/// [`FeedSlot::churn_iter`].
pub struct ChurnFeedIter<'a, F: FnMut()> {
    slot: &'a FeedSlot,
    idx: u64,
    beat: F,
    done: bool,
}

impl<F: FnMut()> Iterator for ChurnFeedIter<'_, F> {
    type Item = QsResult<ChurnEvent>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        match self.slot.next_churn(self.idx, &mut self.beat) {
            Ok(Some(ev)) => {
                self.idx += 1;
                Some(Ok(ev))
            }
            Ok(None) => {
                self.done = true;
                None
            }
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
    }
}

/// One peer the server will accept: the session handshake must match
/// the label and scenario fingerprint, and accepted events land in the
/// bound slot.
#[derive(Clone)]
pub struct FeedBinding {
    /// Peer label the client's `Open` must carry.
    pub peer: String,
    /// Scenario `config_hash` the client must match.
    pub config_hash: u64,
    /// Where accepted events go.
    pub slot: Arc<FeedSlot>,
    /// Session telemetry surfaced on `/metrics`, `/healthz`, `/cells`.
    pub telem: Arc<FeedSessionTelemetry>,
}

impl FeedBinding {
    /// Binds a peer label to a slot and its telemetry.
    pub fn new(
        peer: impl Into<String>,
        config_hash: u64,
        slot: Arc<FeedSlot>,
        telem: Arc<FeedSessionTelemetry>,
    ) -> FeedBinding {
        FeedBinding {
            peer: peer.into(),
            config_hash,
            slot,
            telem,
        }
    }
}

struct ServerCtx {
    cfg: FeedConfig,
    bindings: Vec<FeedBinding>,
    /// The registry active where [`FeedServer::start`] was called —
    /// session threads record into it explicitly, because thread-local
    /// overrides don't cross thread spawns.
    registry: Arc<obs::Registry>,
    stop: Arc<AtomicBool>,
}

/// A TCP listener ingesting framed feed sessions into bound slots.
/// Each accepted connection runs the session FSM on its own thread;
/// `stop()` (or drop) reaps the accept loop and every session.
pub struct FeedServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    sessions: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl FeedServer {
    /// Binds `addr` (use port 0 for an OS-assigned port) and starts
    /// accepting sessions against `bindings`.
    pub fn start(
        addr: impl ToSocketAddrs,
        cfg: FeedConfig,
        bindings: Vec<FeedBinding>,
    ) -> io::Result<FeedServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let ctx = Arc::new(ServerCtx {
            cfg,
            bindings,
            registry: obs::metrics(),
            stop: stop.clone(),
        });
        let sessions: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let sessions = sessions.clone();
            thread::Builder::new()
                .name("feed-accept".into())
                .spawn(move || accept_loop(&listener, &ctx, &sessions))?
        };
        Ok(FeedServer {
            addr: local,
            stop,
            accept: Some(accept),
            sessions,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, reaps every session thread, and returns once
    /// all of them exited. Idempotent.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let handles: Vec<JoinHandle<()>> = std::mem::take(
            &mut *self.sessions.lock().unwrap_or_else(|e| e.into_inner()),
        );
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for FeedServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(
    listener: &TcpListener,
    ctx: &Arc<ServerCtx>,
    sessions: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    let mut n = 0usize;
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if ctx.stop.load(Ordering::Relaxed) {
                    return;
                }
                continue;
            }
        };
        if ctx.stop.load(Ordering::Relaxed) {
            return;
        }
        let session_ctx = ctx.clone();
        let spawned = thread::Builder::new()
            .name(format!("feed-session-{n}"))
            .spawn(move || run_session(stream, &session_ctx));
        n += 1;
        if let Ok(h) = spawned {
            sessions
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(h);
        }
    }
}

fn would_block(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

fn send_msg(stream: &mut TcpStream, msg: &FeedMsg) -> Result<(), ()> {
    let frame = msg.to_frame().map_err(|_| ())?;
    frame.write_to(stream).map_err(|_| ())
}

/// Counts and reports a malformed or protocol-violating session
/// without poisoning the bound slot.
fn dead_letter(
    ctx: &ServerCtx,
    telem: Option<&FeedSessionTelemetry>,
    peer: &str,
    detail: String,
) {
    ctx.registry.incr(Key::stage(STAGE, "dead_letters"), 1);
    if let Some(t) = telem {
        t.on_dead_letter();
    }
    if obs::enabled(obs::Level::Warn) {
        obs::emit(obs::Event::new(
            obs::Level::Warn,
            STAGE,
            "dead-letter",
            format!("peer {peer}: {detail}"),
        ));
    }
}

enum Close {
    Stop,
    Reap,
    Disconnect,
    DeadLetter,
    Eof,
}

fn run_session(mut stream: TcpStream, ctx: &ServerCtx) {
    let poll = Duration::from_millis(ctx.cfg.poll_ms.max(1));
    stream.set_nodelay(true).ok();
    if stream.set_read_timeout(Some(poll)).is_err() {
        return;
    }
    let mut dec = FrameDecoder::new();

    // Idle → Connect: the Open frame must arrive within the server's
    // own hold time.
    let deadline = Instant::now() + Duration::from_millis(ctx.cfg.hold_ms.max(1));
    let open = loop {
        match read_frame(&mut stream, &mut dec) {
            Ok(f) => break f,
            Err(FrameError::Io(e)) if would_block(&e) => {
                if ctx.stop.load(Ordering::Relaxed) {
                    return;
                }
                if Instant::now() >= deadline {
                    ctx.registry.incr(Key::stage(STAGE, "handshake_timeouts"), 1);
                    return;
                }
            }
            Err(e) => {
                dead_letter(ctx, None, "?", format!("handshake frame: {e}"));
                return;
            }
        }
    };
    let (peer, config_hash, client_hold) = match FeedMsg::from_frame(&open) {
        Ok(FeedMsg::Open {
            peer,
            config_hash,
            hold_ms,
        }) => (peer, config_hash, hold_ms),
        Ok(other) => {
            dead_letter(ctx, None, "?", format!("expected open, got {other:?}"));
            return;
        }
        Err(e) => {
            dead_letter(ctx, None, "?", format!("handshake: {e}"));
            return;
        }
    };
    let Some(binding) = ctx.bindings.iter().find(|b| b.peer == peer) else {
        dead_letter(ctx, None, &peer, format!("unknown peer {peer:?}"));
        return;
    };
    let telem = &binding.telem;
    if binding.config_hash != config_hash {
        dead_letter(
            ctx,
            Some(telem),
            &peer,
            format!(
                "config_hash {config_hash:#018x}, bound {:#018x}",
                binding.config_hash
            ),
        );
        return;
    }

    // Connect → Established: negotiate the hold timer and tell the
    // client where to resume.
    let hold_ms = if client_hold == 0 {
        ctx.cfg.hold_ms
    } else {
        ctx.cfg.hold_ms.min(client_hold)
    }
    .max(1);
    let hold = Duration::from_millis(hold_ms);
    let slot = &binding.slot;
    telem.set_hold_ms(hold_ms);
    telem.on_connect();
    telem.set_state(SessionState::Connect);
    ctx.registry.incr(Key::stage(STAGE, "connects"), 1);

    let mut acked = slot.accepted();
    if send_msg(&mut stream, &FeedMsg::Resume { cursor: acked }).is_err() {
        telem.set_state(SessionState::Idle);
        return;
    }
    telem.set_state(SessionState::Established);
    telem.set_acked(acked);
    slot.set_established(true);
    if obs::enabled(obs::Level::Info) {
        obs::emit(
            obs::Event::new(
                obs::Level::Info,
                STAGE,
                "session-open",
                format!("peer {peer} established, resuming at {acked}"),
            )
            .with("cursor", acked),
        );
    }

    let mut last_frame = Instant::now();
    let reason = loop {
        if ctx.stop.load(Ordering::Relaxed) {
            break Close::Stop;
        }
        let frame = match read_frame(&mut stream, &mut dec) {
            Ok(f) => f,
            Err(FrameError::Io(e)) if would_block(&e) => {
                if last_frame.elapsed() >= hold {
                    // Reap at a deterministic cursor: the count of
                    // events fully accepted, never mid-event.
                    let cursor = slot.accepted();
                    telem.on_reap(cursor);
                    ctx.registry.incr(Key::stage(STAGE, "reaps"), 1);
                    if obs::enabled(obs::Level::Warn) {
                        obs::emit(
                            obs::Event::new(
                                obs::Level::Warn,
                                STAGE,
                                "session-reap",
                                format!(
                                    "peer {peer} silent past {hold_ms}ms hold, \
                                     reaped at cursor {cursor}"
                                ),
                            )
                            .with("cursor", cursor),
                        );
                    }
                    break Close::Reap;
                }
                continue;
            }
            Err(FrameError::Io(_)) => break Close::Disconnect,
            Err(FrameError::Truncated("eof before frame")) => {
                // Clean close between frames: an orderly disconnect,
                // not a malformed stream.
                break Close::Disconnect;
            }
            Err(e) => {
                dead_letter(ctx, Some(telem), &peer, format!("frame: {e}"));
                break Close::DeadLetter;
            }
        };
        last_frame = Instant::now();
        telem.touch();
        let msg = match FeedMsg::from_frame(&frame) {
            Ok(m) => m,
            Err(e) => {
                dead_letter(ctx, Some(telem), &peer, e.to_string());
                break Close::DeadLetter;
            }
        };
        match msg {
            FeedMsg::Event { seq, event } => {
                match slot.push_event_cancel(seq, event, Some(&ctx.stop)) {
                    Ok(PushOutcome::Accepted(cursor)) => {
                        ctx.registry.incr(Key::stage(STAGE, "events"), 1);
                        telem.set_acked(cursor);
                        if cursor - acked >= ctx.cfg.ack_every.max(1) {
                            if send_msg(&mut stream, &FeedMsg::Ack { cursor }).is_err() {
                                break Close::Disconnect;
                            }
                            acked = cursor;
                        }
                    }
                    Ok(PushOutcome::Duplicate(cursor)) => {
                        // Resume overlap: harmless, re-ack so the
                        // client's cursor catches up immediately.
                        ctx.registry.incr(Key::stage(STAGE, "duplicates"), 1);
                        if send_msg(&mut stream, &FeedMsg::Ack { cursor }).is_err() {
                            break Close::Disconnect;
                        }
                        acked = cursor;
                    }
                    Err(e) => {
                        dead_letter(ctx, Some(telem), &peer, e.to_string());
                        break Close::DeadLetter;
                    }
                }
            }
            FeedMsg::Keepalive { .. } => {
                ctx.registry.incr(Key::stage(STAGE, "keepalives"), 1);
            }
            FeedMsg::Eof { total, fnv } => match slot.set_eof(total, fnv) {
                Ok(cursor) => {
                    telem.set_acked(cursor);
                    let _ = send_msg(&mut stream, &FeedMsg::Ack { cursor });
                    telem.set_eof();
                    ctx.registry.incr(Key::stage(STAGE, "eof_ok"), 1);
                    if obs::enabled(obs::Level::Info) {
                        obs::emit(
                            obs::Event::new(
                                obs::Level::Info,
                                STAGE,
                                "session-eof",
                                format!("peer {peer} eof at {cursor}, digest verified"),
                            )
                            .with("cursor", cursor),
                        );
                    }
                    break Close::Eof;
                }
                Err(e) => {
                    ctx.registry.incr(Key::stage(STAGE, "eof_mismatch"), 1);
                    dead_letter(ctx, Some(telem), &peer, e.to_string());
                    break Close::DeadLetter;
                }
            },
            FeedMsg::Open { .. } | FeedMsg::Resume { .. } | FeedMsg::Ack { .. } => {
                dead_letter(
                    ctx,
                    Some(telem),
                    &peer,
                    "client sent a server-side message".into(),
                );
                break Close::DeadLetter;
            }
        }
    };
    // Established → Idle. Accepted state stays in the slot — graceful
    // restart means a reconnect resumes exactly where this left off.
    slot.set_established(false);
    telem.set_state(SessionState::Idle);
    if matches!(reason, Close::Disconnect) {
        ctx.registry.incr(Key::stage(STAGE, "disconnects"), 1);
    }
}

/// Seeded decorrelated-jitter reconnect backoff: deterministic per
/// seed (so reconnect timelines replay), spread per attempt (so a
/// fleet of clients doesn't thunder back in lockstep).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReconnectPolicy {
    /// Minimum backoff, wall ms.
    pub base_ms: u64,
    /// Maximum backoff, wall ms.
    pub cap_ms: u64,
    /// Connection attempts before the client gives up with
    /// [`QuicksandError::FeedLost`].
    pub max_attempts: u32,
    /// Jitter seed.
    pub seed: u64,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        ReconnectPolicy {
            base_ms: 25,
            cap_ms: 400,
            max_attempts: 8,
            seed: 0xFEED_BACC,
        }
    }
}

impl ReconnectPolicy {
    /// The backoff before retry number `attempt` (0-based), in wall
    /// ms. Decorrelated jitter: each delay is drawn from
    /// `[base, min(cap, 3 · previous)]`, chained from the seed so the
    /// whole timeline is a pure function of `(seed, attempt)`.
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        let base = self.base_ms.max(1);
        let cap = self.cap_ms.max(base);
        (0..=attempt).fold(base, |prev, k| {
            let h = splitmix64(self.seed ^ splitmix64(u64::from(k) ^ 0xFEED));
            decorrelated_jitter(prev, base, cap, h)
        })
    }
}

/// What a [`FeedClient::stream`] call did, across every attempt.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamReport {
    /// Event frames sent (resume overlaps counted again).
    pub sent: u64,
    /// Highest cumulative ack observed.
    pub acked: u64,
    /// Sessions successfully connected.
    pub connects: u32,
    /// Scripted connection faults fired.
    pub faults_fired: u64,
}

enum AttemptError {
    /// Transport-level: back off and reconnect.
    Retry(String),
    /// Protocol-level: no reconnect can fix this.
    Fatal(QuicksandError),
}

/// Streams a churn schedule into a [`FeedServer`], resuming exactly
/// from the server's cursor after every disconnect — including
/// scripted ones from a [`ConnChaosPlan`].
#[derive(Clone, Debug)]
pub struct FeedClient {
    /// Server address.
    pub addr: SocketAddr,
    /// Peer label to open as (must match a server binding).
    pub peer: String,
    /// Scenario fingerprint to open with.
    pub config_hash: u64,
    /// Hold time advertised in the handshake, wall ms.
    pub hold_ms: u64,
    /// Reconnect backoff and budget.
    pub reconnect: ReconnectPolicy,
    /// Scripted connection faults (empty for a clean stream).
    pub chaos: ConnChaosPlan,
}

impl FeedClient {
    /// A client with default hold, backoff, and no scripted faults.
    pub fn new(addr: SocketAddr, peer: impl Into<String>, config_hash: u64) -> FeedClient {
        FeedClient {
            addr,
            peer: peer.into(),
            config_hash,
            hold_ms: FeedConfig::default().hold_ms,
            reconnect: ReconnectPolicy::default(),
            chaos: ConnChaosPlan::none(),
        }
    }

    /// Streams the whole schedule, reconnecting through transport
    /// faults, until the server acknowledges the EOF digest. Errors
    /// typed: [`QuicksandError::FeedLost`] when the reconnect budget
    /// runs out, [`QuicksandError::FeedProtocol`] when the server's
    /// answers violate the protocol.
    pub fn stream(&self, events: &[ChurnEvent]) -> QsResult<StreamReport> {
        let fnv = feed::digest(events);
        let mut report = StreamReport::default();
        let mut fired = 0usize;
        let mut attempts: u32 = 0;
        let mut last_err = String::from("no attempt made");
        loop {
            if attempts >= self.reconnect.max_attempts.max(1) {
                return Err(QuicksandError::FeedLost {
                    attempts,
                    detail: last_err,
                });
            }
            if attempts > 0 {
                obs::incr(STAGE, "client_reconnects", 1);
                thread::sleep(Duration::from_millis(
                    self.reconnect.backoff_ms(attempts - 1),
                ));
            }
            attempts += 1;
            match self.attempt(events, fnv, &mut report, &mut fired) {
                Ok(()) => return Ok(report),
                Err(AttemptError::Fatal(e)) => return Err(e),
                Err(AttemptError::Retry(detail)) => last_err = detail,
            }
        }
    }

    fn attempt(
        &self,
        events: &[ChurnEvent],
        fnv: u64,
        report: &mut StreamReport,
        fired: &mut usize,
    ) -> Result<(), AttemptError> {
        let retry = AttemptError::Retry;
        let total = events.len() as u64;
        let mut stream = TcpStream::connect_timeout(&self.addr, Duration::from_secs(2))
            .map_err(|e| retry(format!("connect: {e}")))?;
        stream.set_nodelay(true).ok();
        report.connects += 1;
        let mut dec = FrameDecoder::new();

        // Handshake: Open, then block (bounded by our hold) on Resume.
        stream
            .set_read_timeout(Some(Duration::from_millis(self.hold_ms.max(1))))
            .ok();
        send_client(
            &mut stream,
            &FeedMsg::Open {
                peer: self.peer.clone(),
                config_hash: self.config_hash,
                hold_ms: self.hold_ms,
            },
        )?;
        let cursor = match read_frame(&mut stream, &mut dec) {
            Ok(f) => match FeedMsg::from_frame(&f) {
                Ok(FeedMsg::Resume { cursor }) => cursor,
                Ok(other) => {
                    return Err(AttemptError::Fatal(QuicksandError::FeedProtocol {
                        what: "handshake",
                        detail: format!("expected resume, got {other:?}"),
                    }))
                }
                Err(e) => return Err(AttemptError::Fatal(e)),
            },
            Err(e) => return Err(retry(format!("awaiting resume: {e}"))),
        };
        if cursor > total {
            return Err(AttemptError::Fatal(QuicksandError::FeedProtocol {
                what: "resume",
                detail: format!("server cursor {cursor} beyond feed of {total}"),
            }));
        }

        // Stream from the server's cursor. Reads only drain acks now,
        // so a short timeout keeps the send path busy. (Keeping the
        // socket blocking for writes matters: a non-blocking write
        // could tear a frame in half.)
        stream
            .set_read_timeout(Some(Duration::from_millis(1)))
            .ok();
        for seq in cursor..total {
            let event = events[seq as usize];
            if let Some(fault) = self.chaos.fire(*fired, seq) {
                *fired += 1;
                report.faults_fired += 1;
                match fault.kind {
                    ConnFaultKind::Disconnect => {
                        return Err(retry(format!("chaos disconnect at seq {seq}")));
                    }
                    ConnFaultKind::TruncateFrame => {
                        let frame = FeedMsg::Event { seq, event }
                            .to_frame()
                            .map_err(AttemptError::Fatal)?;
                        let bytes = frame
                            .encode()
                            .map_err(|e| retry(format!("encode: {e}")))?;
                        let cut = (bytes.len() / 2).max(1);
                        let _ = stream.write_all(&bytes[..cut]);
                        let _ = stream.flush();
                        return Err(retry(format!("chaos truncated frame at seq {seq}")));
                    }
                    ConnFaultKind::Stall { ms } => {
                        thread::sleep(Duration::from_millis(ms));
                    }
                }
            }
            send_client(&mut stream, &FeedMsg::Event { seq, event })?;
            report.sent += 1;
            if (seq - cursor + 1) % ACK_DRAIN_EVERY == 0 {
                drain_acks(&mut stream, &mut dec, report);
            }
        }

        // EOF, then wait for the cumulative ack to reach the total,
        // keeping the session alive with keepalives.
        send_client(&mut stream, &FeedMsg::Eof { total, fnv })?;
        stream
            .set_read_timeout(Some(Duration::from_millis((self.hold_ms / 4).max(1))))
            .ok();
        let deadline = Instant::now()
            + Duration::from_millis(self.hold_ms.saturating_mul(2).max(1));
        loop {
            match read_frame(&mut stream, &mut dec) {
                Ok(f) => match FeedMsg::from_frame(&f) {
                    Ok(FeedMsg::Ack { cursor }) => {
                        report.acked = report.acked.max(cursor);
                        if cursor >= total {
                            return Ok(());
                        }
                    }
                    Ok(other) => {
                        return Err(retry(format!(
                            "awaiting final ack, got {other:?}"
                        )))
                    }
                    Err(e) => return Err(retry(format!("awaiting final ack: {e}"))),
                },
                Err(FrameError::Io(e)) if would_block(&e) => {
                    if Instant::now() >= deadline {
                        return Err(retry("final ack timeout".into()));
                    }
                    send_client(&mut stream, &FeedMsg::Keepalive { at: total })?;
                }
                Err(e) => return Err(retry(format!("awaiting final ack: {e}"))),
            }
        }
    }
}

fn send_client(stream: &mut TcpStream, msg: &FeedMsg) -> Result<(), AttemptError> {
    let frame = msg.to_frame().map_err(AttemptError::Fatal)?;
    frame
        .write_to(stream)
        .map_err(|e| AttemptError::Retry(format!("send: {e}")))
}

/// Opportunistically drains pending acks (the socket's read timeout
/// is ~1ms here, so an empty pipe costs one tick).
fn drain_acks(stream: &mut TcpStream, dec: &mut FrameDecoder, report: &mut StreamReport) {
    loop {
        match read_frame(stream, dec) {
            Ok(f) => {
                if let Ok(FeedMsg::Ack { cursor }) = FeedMsg::from_frame(&f) {
                    report.acked = report.acked.max(cursor);
                }
            }
            Err(_) => return,
        }
    }
}

/// The workspace's month-identity fingerprint: FNV-1a over the raw
/// update log's QSMRT001 encoding. Two [`MonthResult`]s with equal
/// fingerprints replayed the same churn against the same collectors —
/// the bit `repro` reports to prove a streamed run equals its batch
/// twin.
pub fn month_fnv(month: &MonthResult) -> u64 {
    month.raw.fingerprint()
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicksand_bgp::LinkChange;
    use quicksand_net::{Asn, SimTime};
    use quicksand_obs::Registry;

    fn link(at_s: u64, a: u32, b: u32, up: bool) -> ChurnEvent {
        ChurnEvent {
            at: SimTime::from_secs(at_s),
            change: LinkChange {
                a: Asn(a),
                b: Asn(b),
                up,
            },
        }
    }

    fn events(n: u64) -> Vec<ChurnEvent> {
        (0..n).map(|i| link(i, 1, 2, i % 2 == 0)).collect()
    }

    fn quick_cfg() -> FeedConfig {
        FeedConfig {
            hold_ms: 500,
            restart_ms: 2000,
            ack_every: 8,
            queue_cap: 1024,
            poll_ms: 2,
        }
    }

    fn telem(peer: &str) -> Arc<FeedSessionTelemetry> {
        Arc::new(FeedSessionTelemetry::new(None, peer.to_string(), 500))
    }

    /// Spawns a consumer draining the slot's churn iterator to
    /// completion (or error).
    fn spawn_consumer(
        slot: Arc<FeedSlot>,
    ) -> thread::JoinHandle<QsResult<Vec<ChurnEvent>>> {
        thread::spawn(move || {
            let mut got = Vec::new();
            for r in slot.churn_iter(|| {}) {
                got.push(r?);
            }
            Ok(got)
        })
    }

    #[test]
    fn slot_orders_duplicates_and_gaps() {
        let slot = FeedSlot::new(quick_cfg());
        let ev = |i| link(i, 1, 2, true);
        assert_eq!(slot.push_event(0, ev(0)).unwrap(), PushOutcome::Accepted(1));
        assert_eq!(
            slot.push_event(0, ev(0)).unwrap(),
            PushOutcome::Duplicate(1),
            "resume overlap is re-acked, not an error"
        );
        match slot.push_event(2, ev(2)) {
            Err(QuicksandError::FeedProtocol { what, .. }) => assert_eq!(what, "cursor_gap"),
            other => panic!("expected cursor_gap, got {other:?}"),
        }
        assert_eq!(slot.push_event(1, ev(1)).unwrap(), PushOutcome::Accepted(2));
        assert_eq!(slot.accepted(), 2);
    }

    #[test]
    fn slot_eof_validates_total_and_digest() {
        let evs = events(2);
        let slot = FeedSlot::new(quick_cfg());
        for (i, ev) in evs.iter().enumerate() {
            slot.push_event(i as u64, *ev).unwrap();
        }
        let good = feed::digest(&evs);
        assert!(matches!(
            slot.set_eof(3, good),
            Err(QuicksandError::FeedProtocol { what: "eof_total", .. })
        ));
        assert!(matches!(
            slot.set_eof(2, good ^ 1),
            Err(QuicksandError::FeedProtocol { what: "eof_digest", .. })
        ));
        assert_eq!(slot.set_eof(2, good).unwrap(), 2);
        // A reconnecting client may resend its EOF: idempotent.
        assert_eq!(slot.set_eof(2, good).unwrap(), 2);
        assert!(matches!(
            slot.push_event(2, link(9, 1, 2, true)),
            Err(QuicksandError::FeedProtocol { what: "event_after_eof", .. })
        ));
        assert_eq!(slot.eof_total(), Some(2));
    }

    #[test]
    fn slot_backpressure_blocks_and_counts() {
        let evs = events(5);
        let slot = Arc::new(FeedSlot::new(FeedConfig {
            queue_cap: 2,
            ..quick_cfg()
        }));
        let consumer = {
            let slot = slot.clone();
            thread::spawn(move || {
                // Let the producer hit the bound before draining.
                thread::sleep(Duration::from_millis(30));
                let mut got = Vec::new();
                for r in slot.churn_iter(|| {}) {
                    got.push(r.unwrap());
                }
                got
            })
        };
        for (i, ev) in evs.iter().enumerate() {
            slot.push_event(i as u64, *ev).unwrap();
        }
        slot.set_eof(5, feed::digest(&evs)).unwrap();
        let got = consumer.join().unwrap();
        assert_eq!(got, evs);
        assert!(
            slot.backpressure_waits() > 0,
            "producer should have blocked on the 2-deep queue"
        );
    }

    #[test]
    fn churn_iter_streams_in_order_with_beats() {
        let evs = events(3);
        let slot = Arc::new(FeedSlot::new(quick_cfg()));
        let producer = {
            let slot = slot.clone();
            let evs = evs.clone();
            thread::spawn(move || {
                thread::sleep(Duration::from_millis(15));
                for (i, ev) in evs.iter().enumerate() {
                    slot.push_event(i as u64, *ev).unwrap();
                }
                slot.set_eof(3, feed::digest(&evs)).unwrap();
            })
        };
        let mut beats = 0u64;
        let got: Vec<ChurnEvent> = slot
            .churn_iter(|| beats += 1)
            .map(|r| r.unwrap())
            .collect();
        producer.join().unwrap();
        assert_eq!(got, evs);
        assert!(beats > 0, "waiting ticks should have fed the watchdog beat");
        assert_eq!(slot.consumed(), 3);
    }

    #[test]
    fn graceful_restart_expiry_is_typed() {
        let slot = FeedSlot::new(FeedConfig {
            restart_ms: 10,
            poll_ms: 1,
            ..quick_cfg()
        });
        // Never established, nothing arriving: the consumer gives up
        // once the restart window elapses.
        match slot.next_churn(0, &mut || {}) {
            Err(QuicksandError::FeedRestartExpired { cursor, silent_ms }) => {
                assert_eq!(cursor, 0);
                assert!(silent_ms > 10);
            }
            other => panic!("expected FeedRestartExpired, got {other:?}"),
        }
        // An empty feed with a verified EOF ends cleanly instead.
        let slot = FeedSlot::new(quick_cfg());
        slot.set_eof(0, FnvHasher::new().finish()).unwrap();
        assert!(slot.next_churn(0, &mut || {}).unwrap().is_none());
    }

    #[test]
    fn reconnect_backoff_is_deterministic_and_bounded() {
        let p = ReconnectPolicy::default();
        let timeline: Vec<u64> = (0..6).map(|a| p.backoff_ms(a)).collect();
        assert_eq!(
            timeline,
            (0..6).map(|a| p.backoff_ms(a)).collect::<Vec<u64>>(),
            "backoff is a pure function of (seed, attempt)"
        );
        for &ms in &timeline {
            assert!(ms >= p.base_ms && ms <= p.cap_ms, "{ms} out of bounds");
        }
        assert_eq!(
            (0..8).map(|a| p.backoff_ms(a)).collect::<Vec<u64>>(),
            [57, 25, 48, 32, 66, 54, 36, 73],
            "the default reconnect timeline is pinned"
        );
        let other = ReconnectPolicy {
            seed: 7,
            ..ReconnectPolicy::default()
        };
        assert_ne!(
            timeline,
            (0..6).map(|a| other.backoff_ms(a)).collect::<Vec<u64>>(),
            "different seeds should jitter differently"
        );
    }

    struct World {
        reg: Arc<Registry>,
        server: FeedServer,
        slot: Arc<FeedSlot>,
        telem: Arc<FeedSessionTelemetry>,
    }

    fn loopback(cfg: FeedConfig, config_hash: u64) -> World {
        let reg = Arc::new(Registry::new());
        let slot = Arc::new(FeedSlot::new(cfg.clone()));
        let t = telem("cell-0");
        let binding = FeedBinding::new("cell-0", config_hash, slot.clone(), t.clone());
        let server = obs::with_metrics(reg.clone(), || {
            FeedServer::start("127.0.0.1:0", cfg, vec![binding]).unwrap()
        });
        World {
            reg,
            server,
            slot,
            telem: t,
        }
    }

    fn quick_client(w: &World, config_hash: u64) -> FeedClient {
        FeedClient {
            addr: w.server.local_addr(),
            peer: "cell-0".into(),
            config_hash,
            hold_ms: 500,
            reconnect: ReconnectPolicy {
                base_ms: 1,
                cap_ms: 4,
                max_attempts: 8,
                seed: 0xFEED,
            },
            chaos: ConnChaosPlan::none(),
        }
    }

    #[test]
    fn loopback_happy_path_streams_and_acks() {
        let evs = events(40);
        let mut w = loopback(quick_cfg(), 0xC0FFEE);
        let consumer = spawn_consumer(w.slot.clone());
        let report = quick_client(&w, 0xC0FFEE)
            .stream(&evs)
            .unwrap();
        assert_eq!(consumer.join().unwrap().unwrap(), evs);
        w.server.stop();
        assert_eq!(report.sent, 40);
        assert_eq!(report.acked, 40);
        assert_eq!(report.connects, 1);
        assert_eq!(report.faults_fired, 0);
        assert!(w.telem.eof());
        assert_eq!(w.telem.acked(), 40);
        assert_eq!(w.reg.counter_value(Key::stage(STAGE, "eof_ok")), 1);
        assert_eq!(w.reg.counter_value(Key::stage(STAGE, "dead_letters")), 0);
    }

    #[test]
    fn loopback_disconnect_resumes_exactly_at_the_acked_cursor() {
        let evs = events(40);
        let mut w = loopback(quick_cfg(), 7);
        let consumer = spawn_consumer(w.slot.clone());
        let mut client = quick_client(&w, 7);
        client.chaos = ConnChaosPlan::single(13, ConnFaultKind::Disconnect);
        let report = client.stream(&evs).unwrap();
        assert_eq!(consumer.join().unwrap().unwrap(), evs, "resume is exact");
        w.server.stop();
        assert_eq!(report.connects, 2, "one disconnect, one reconnect");
        assert_eq!(report.faults_fired, 1);
        assert_eq!(w.telem.connects(), 2);
        assert!(w.telem.eof());
        assert_eq!(w.reg.counter_value(Key::stage(STAGE, "eof_ok")), 1);
        assert_eq!(w.reg.counter_value(Key::stage(STAGE, "disconnects")), 1);
    }

    #[test]
    fn loopback_truncated_frame_dead_letters_then_resumes() {
        let evs = events(24);
        let mut w = loopback(quick_cfg(), 7);
        let consumer = spawn_consumer(w.slot.clone());
        let mut client = quick_client(&w, 7);
        client.chaos = ConnChaosPlan::single(7, ConnFaultKind::TruncateFrame);
        let report = client.stream(&evs).unwrap();
        assert_eq!(consumer.join().unwrap().unwrap(), evs);
        w.server.stop();
        assert_eq!(report.connects, 2);
        assert!(
            w.reg.counter_value(Key::stage(STAGE, "dead_letters")) >= 1,
            "the half-frame must be dead-lettered"
        );
        assert!(w.telem.dead_letters() >= 1);
        assert!(w.telem.eof());
    }

    #[test]
    fn loopback_stalled_peer_is_reaped_at_a_deterministic_cursor() {
        let w = loopback(
            FeedConfig {
                hold_ms: 1000,
                poll_ms: 2,
                ..quick_cfg()
            },
            7,
        );
        // A raw client that opens with a 40ms hold, streams 3 events,
        // then goes silent: the negotiated hold is min(1000, 40).
        let mut stream = TcpStream::connect(w.server.local_addr()).unwrap();
        FeedMsg::Open {
            peer: "cell-0".into(),
            config_hash: 7,
            hold_ms: 40,
        }
        .to_frame()
        .unwrap()
        .write_to(&mut stream)
        .unwrap();
        for (i, ev) in events(3).iter().enumerate() {
            FeedMsg::Event {
                seq: i as u64,
                event: *ev,
            }
            .to_frame()
            .unwrap()
            .write_to(&mut stream)
            .unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while w.telem.reaps() == 0 {
            assert!(Instant::now() < deadline, "peer was never reaped");
            thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(w.telem.reaps(), 1);
        assert_eq!(
            w.telem.last_reap_cursor(),
            3,
            "reaped exactly at the accepted-event cursor"
        );
        assert_eq!(w.telem.state(), SessionState::Idle);
        assert_eq!(w.reg.counter_value(Key::stage(STAGE, "reaps")), 1);
        assert_eq!(w.slot.accepted(), 3, "accepted state is retained after a reap");
    }

    #[test]
    fn unknown_peer_and_config_mismatch_exhaust_the_client() {
        let evs = events(4);
        let w = loopback(quick_cfg(), 7);
        let mut client = quick_client(&w, 7);
        client.peer = "nobody".into();
        client.reconnect.max_attempts = 2;
        match client.stream(&evs) {
            Err(QuicksandError::FeedLost { attempts, .. }) => assert_eq!(attempts, 2),
            other => panic!("expected FeedLost, got {other:?}"),
        }
        let mut client = quick_client(&w, 999);
        client.reconnect.max_attempts = 1;
        assert!(matches!(
            client.stream(&evs),
            Err(QuicksandError::FeedLost { attempts: 1, .. })
        ));
        assert!(w.reg.counter_value(Key::stage(STAGE, "dead_letters")) >= 3);
        assert_eq!(w.slot.accepted(), 0);
    }

    #[test]
    fn open_with_a_non_churn_mode_byte_is_dead_lettered() {
        let mut w = loopback(quick_cfg(), 7);
        let mut open = FeedMsg::Open {
            peer: "cell-0".into(),
            config_hash: 7,
            hold_ms: 500,
        }
        .to_frame()
        .unwrap();
        // Mode byte 2 was the retired MRT payload.
        open.payload[0] = 2;
        let mut stream = TcpStream::connect(w.server.local_addr()).unwrap();
        open.write_to(&mut stream).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while w.reg.counter_value(Key::stage(STAGE, "dead_letters")) == 0 {
            assert!(Instant::now() < deadline, "bad handshake was never dead-lettered");
            thread::sleep(Duration::from_millis(2));
        }
        w.server.stop();
        assert_eq!(w.reg.counter_value(Key::stage(STAGE, "dead_letters")), 1);
        assert_eq!(w.reg.counter_value(Key::stage(STAGE, "connects")), 0);
        assert_eq!(w.slot.accepted(), 0);
    }

    #[test]
    fn chaos_stall_fires_without_breaking_identity() {
        let evs = events(20);
        let mut w = loopback(quick_cfg(), 7);
        let consumer = spawn_consumer(w.slot.clone());
        let mut client = quick_client(&w, 7);
        client.chaos = ConnChaosPlan::single(5, ConnFaultKind::Stall { ms: 10 });
        let report = client.stream(&evs).unwrap();
        assert_eq!(consumer.join().unwrap().unwrap(), evs);
        w.server.stop();
        assert_eq!(report.faults_fired, 1);
        assert_eq!(report.connects, 1, "a sub-hold stall must not drop the session");
    }

    #[test]
    fn month_fnv_is_stable_and_content_sensitive() {
        let (_, month) = crate::testworld::get();
        assert_eq!(month_fnv(month), month_fnv(month));
        let mut bytes = Vec::new();
        quicksand_bgp::mrt::write_log(&month.raw, &mut bytes).unwrap();
        assert_eq!(
            month_fnv(month),
            quicksand_bgp::feed::fnv64(&bytes),
            "the fingerprint is the raw log's QSMRT001 digest"
        );
        let truncated = quicksand_bgp::UpdateLog {
            records: month.raw.records[..month.raw.records.len() - 1].to_vec(),
        };
        let mut short_bytes = Vec::new();
        quicksand_bgp::mrt::write_log(&truncated, &mut short_bytes).unwrap();
        assert_ne!(month_fnv(month), quicksand_bgp::feed::fnv64(&short_bytes));
    }
}
