//! The sweep-results **service**: a long-lived server over a
//! [`SweepStore`], and the client tier that lets any cached sweep resolve
//! grid points *local store → service → simulate*.
//!
//! PR 1–6 made sweep results content-addressed (keyed by
//! [`ScenarioSpec::content_hash`] + algorithm + [`ENGINE_VERSION`]),
//! equality-confirmed on every hit, and durable in a byte-pinned store
//! with O(batch) appending checkpoints. Every process still owned its own
//! store, though. This module turns the stack outward into **one hot
//! shared store serving many clients**:
//!
//! * [`serve`] — the server core. It stores; it never simulates. It owns
//!   a [`SweepStore`], answers lookups at memory speed from the in-RAM
//!   record index (a point the index lacks is an unresolved slot the
//!   client simulates and puts back), and flushes every put batch of new
//!   records with [`SweepStore::checkpoint`] **before** answering. A
//!   `kill -9` at any instant therefore leaves a loadable store — the
//!   same crash contract the driver pins for workers — and a graceful
//!   [shutdown](Request::Shutdown) rewrites the store canonically, so it
//!   compares byte-identical to a 1-process local-store run over the same
//!   grid.
//! * [`ServiceClient`] — the blocking wire client (TCP or unix socket).
//! * [`ServiceSweepCache`] — the cache tier cached
//!   [`SweepRequest`](crate::SweepRequest) runs and
//!   [`run_worker_frontier`] consult when `WL_SWEEP_SERVICE` is set:
//!   before a sweep it batch-resolves every point its local cache lacks,
//!   and after the sweep it puts back (one put-batch) every point the
//!   service could not supply. The tier is strictly additive — losing
//!   the server mid run degrades to local simulation, never to an error.
//!
//! # Wire protocol
//!
//! Requests and responses travel in one framing (see `docs/service.md`
//! for the byte-level layout): a `u32` little-endian body length, then
//! the body — one opcode byte, the operation payload, and a trailing
//! FNV-1a 64-bit checksum over everything before it. Record payloads are
//! the *canonical* [`EncodedRecord`] bytes from `docs/store-format.md`,
//! so the wire format inherits the store's byte-level spec (and its
//! tamper tests: flip any byte of a frame and it is rejected, never
//! misread). Grid points inside a batch-get carry the full
//! [`ScenarioSpec`] in a fixed binary encoding; the server recomputes the
//! content hash from the decoded spec and leaves the point unresolved on
//! mismatch, so a codec drift degrades to a local simulation, never a
//! wrong result.
//!
//! [`run_worker_frontier`]: crate::frontier::run_worker_frontier
//! [`ScenarioSpec::content_hash`]: ScenarioSpec::content_hash

use crate::algo::SyncAlgorithm;
use crate::cache::segment::{close_frame, EncodedRecord, Take};
use crate::cache::{
    canon_string, fnv64, fnv64_seeded, Admitted, Record, SweepStore, ENGINE_VERSION, FNV_OFFSET,
};
use crate::spec::{AdversarySpec, AdversaryStrategy, DelayKind, FaultKind, ScenarioSpec};
use crate::sweep::{Capture, SweepCache};
use std::collections::HashSet;
use std::io::{self, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use wl_clock::drift::DriftModel;
use wl_core::{AveragingFn, Params};
use wl_sim::ProcessId;
use wl_time::RealTime;

// ---------------------------------------------------------------------------
// Addresses.
// ---------------------------------------------------------------------------

/// Where a sweep service listens: TCP or a unix-domain socket.
///
/// Parses from the `WL_SWEEP_SERVICE` convention: `unix:<path>` for a
/// unix socket, `tcp:<addr>` (or a bare `host:port`) for TCP.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceAddr {
    /// A TCP address in `std::net` accepted syntax, e.g. `127.0.0.1:7171`.
    Tcp(String),
    /// A unix-domain socket path.
    #[cfg(unix)]
    Unix(PathBuf),
}

impl ServiceAddr {
    /// Parses an address spec. Empty, `"0"`, and `"off"` mean *no
    /// service* (so the env knob can be cancelled per invocation).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        let s = s.trim();
        if s.is_empty() || s == "0" || s == "off" {
            return None;
        }
        if let Some(path) = s.strip_prefix("unix:") {
            #[cfg(unix)]
            return Some(Self::Unix(PathBuf::from(path)));
            #[cfg(not(unix))]
            {
                let _ = path;
                return None;
            }
        }
        Some(Self::Tcp(s.strip_prefix("tcp:").unwrap_or(s).to_string()))
    }
}

impl std::fmt::Display for ServiceAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Tcp(addr) => write!(f, "tcp:{addr}"),
            #[cfg(unix)]
            Self::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// The service address configured in the environment, if any: reads
/// `WL_SWEEP_SERVICE` and parses it with [`ServiceAddr::parse`].
#[must_use]
pub fn service_from_env() -> Option<ServiceAddr> {
    std::env::var("WL_SWEEP_SERVICE")
        .ok()
        .and_then(|v| ServiceAddr::parse(&v))
}

// ---------------------------------------------------------------------------
// Frame I/O (shared by client and server).
// ---------------------------------------------------------------------------

/// Hard ceiling on one frame's body, against nonsense length prefixes.
/// Generous: a 48-point batch of series-bearing records is a few MiB.
const MAX_FRAME: u32 = 256 * 1024 * 1024;

/// A frame body is at least an opcode byte plus the 8-byte checksum.
const MIN_FRAME: u32 = 9;

fn bad_data(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Writes one frame: `u32` LE length, the body, its FNV-1a checksum —
/// built in one buffer and handed to the stream in one write, so a
/// frame is one syscall and never a small write for Nagle's algorithm
/// to hold back behind a delayed ACK.
fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    let mut frame = Vec::with_capacity(4 + body.len() + 8);
    frame.extend_from_slice(&[0; 4]);
    frame.extend_from_slice(body);
    close_frame(&mut frame, 0);
    send_frame(w, &frame)
}

/// Hands a whole frame, length prefix and checksum included, to the
/// stream in one write — [`write_frame`]'s last step, and all a `Get`
/// hit does with its record's kept [`Record::found_frame`]. A frame
/// over [`MAX_FRAME`] is refused, not sent for the peer to refuse.
fn send_frame(w: &mut impl Write, frame: &[u8]) -> io::Result<()> {
    if frame.len() > 4 + MAX_FRAME as usize {
        return Err(bad_data("frame too large"));
    }
    w.write_all(frame)?;
    w.flush()
}

/// Validates a fully-read frame body (checksum trailer) and strips the
/// checksum in place. `None` = corrupt.
fn check_frame(mut buf: Vec<u8>) -> Option<Vec<u8>> {
    if buf.len() < MIN_FRAME as usize {
        return None;
    }
    let body_len = buf.len() - 8;
    if fnv64(&buf[..body_len]).to_le_bytes() != buf[body_len..] {
        return None;
    }
    buf.truncate(body_len);
    Some(buf)
}

/// Body-buffer reservation made before any body byte has arrived. The
/// length prefix is the peer's claim, not a fact: the buffer grows with
/// the bytes actually received, so four hostile bytes cost at most this
/// much memory, never [`MAX_FRAME`].
const FRAME_RESERVE: usize = 64 * 1024;

/// What [`read_frame`] found on the stream.
enum Inbound {
    /// The body from [`read_frame`]; body and checksum from
    /// [`read_unchecked`].
    Frame(Vec<u8>),
    /// Clean EOF *between* frames.
    Eof,
    /// The stream's read timeout expired between frames.
    Idle,
}

impl Inbound {
    /// The frame, if one arrived.
    fn frame(self) -> Option<Vec<u8>> {
        match self {
            Self::Frame(body) => Some(body),
            Self::Eof | Self::Idle => None,
        }
    }
}

/// Each connection's read buffer, one per end (see [`buffered`]): a
/// frame up to this size that has arrived whole is taken off the socket
/// in one `read`. No larger than [`FRAME_RESERVE`], so a hostile length
/// prefix still costs no more than that.
const READ_BUF: usize = FRAME_RESERVE;

/// The read side of a connection, client or server: the stream behind
/// one [`READ_BUF`] buffer. Dropped with its stream, so a connection
/// that failed never leaves bytes behind for the next.
fn buffered<R: Read>(stream: R) -> BufReader<R> {
    BufReader::with_capacity(READ_BUF, stream)
}

/// Reads one frame and checks its checksum — the server's reader. EOF
/// or a checksum failure inside a frame is an error.
fn read_frame(r: &mut impl Read, shutdown: Option<&AtomicBool>) -> io::Result<Inbound> {
    match read_unchecked(r, shutdown)? {
        Inbound::Frame(frame) => check_frame(frame)
            .map(Inbound::Frame)
            .ok_or_else(|| bad_data("frame checksum mismatch")),
        between => Ok(between),
    }
}

/// Reads one frame, checksum trailer included and not yet checked — the
/// one reader under both the client and the server. EOF inside a frame
/// is an error. When the stream has a read timeout set (the server's
/// connections do), a timeout **between** frames reports
/// [`Inbound::Idle`] so the handler can re-check the shutdown flag; a
/// timeout *inside* a frame keeps waiting for the rest, unless
/// `shutdown` is set — then the peer that went quiet mid-frame is
/// dropped rather than holding the server open.
fn read_unchecked(r: &mut impl Read, shutdown: Option<&AtomicBool>) -> io::Result<Inbound> {
    let timed_out = |e: &io::Error| {
        matches!(
            e.kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        )
    };
    let wait_on = || match shutdown {
        Some(flag) if flag.load(Ordering::SeqCst) => Err(io::Error::new(
            io::ErrorKind::TimedOut,
            "peer went quiet mid-frame during shutdown",
        )),
        _ => Ok(()),
    };
    let mut len = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        match r.read(&mut len[got..]) {
            Ok(0) if got == 0 => return Ok(Inbound::Eof),
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if timed_out(&e) && got == 0 => return Ok(Inbound::Idle),
            Err(e) if timed_out(&e) => wait_on()?,
            Err(e) => return Err(e),
        }
    }
    let total = u32::from_le_bytes(len);
    if !(MIN_FRAME..=MAX_FRAME).contains(&total) {
        return Err(bad_data("frame length out of range"));
    }
    let total = total as usize;
    let mut buf = Vec::with_capacity(total.min(FRAME_RESERVE));
    while buf.len() < total {
        // `read_to_end` retries `Interrupted` itself, keeps what arrived
        // before any other error, and grows `buf` only as bytes land.
        let rest = (total - buf.len()) as u64;
        match r.by_ref().take(rest).read_to_end(&mut buf) {
            Ok(_) if buf.len() < total => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(_) => {}
            Err(e) if timed_out(&e) => wait_on()?,
            Err(e) => return Err(e),
        }
    }
    Ok(Inbound::Frame(buf))
}

// ---------------------------------------------------------------------------
// Wire-codec readers over the crate's byte cursor.
// ---------------------------------------------------------------------------

fn str16(t: &mut Take<'_>) -> Option<String> {
    let n = t.u16()? as usize;
    String::from_utf8(t.bytes(n)?.to_vec()).ok()
}

fn blob32(t: &mut Take<'_>) -> Option<Vec<u8>> {
    let n = t.u32()? as usize;
    Some(t.bytes(n)?.to_vec())
}

fn record(t: &mut Take<'_>) -> Option<EncodedRecord> {
    let (record, used) = EncodedRecord::decode(t.0)?;
    t.bytes(used)?;
    Some(record)
}

fn push_str16(out: &mut Vec<u8>, s: &str) {
    let len = u16::try_from(s.len()).expect("short string");
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn push_blob32(out: &mut Vec<u8>, b: &[u8]) {
    let len = u32::try_from(b.len()).expect("blob < 4 GiB");
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(b);
}

// ---------------------------------------------------------------------------
// The ScenarioSpec wire codec.
// ---------------------------------------------------------------------------

/// Encodes a [`ScenarioSpec`] into the fixed little-endian wire layout
/// (see `docs/service.md`). Floats travel as raw IEEE-754 bits, so the
/// roundtrip is exact — the server recomputes
/// [`ScenarioSpec::content_hash`] from the decoded spec and must get the
/// client's value back.
#[must_use]
pub fn encode_spec(spec: &ScenarioSpec) -> Vec<u8> {
    let mut out = Vec::with_capacity(160 + spec.faults.len() * 18);
    let f = |out: &mut Vec<u8>, v: f64| out.extend_from_slice(&v.to_bits().to_le_bytes());
    let u = |out: &mut Vec<u8>, v: u64| out.extend_from_slice(&v.to_le_bytes());
    let p = &spec.params;
    u(&mut out, p.n as u64);
    u(&mut out, p.f as u64);
    f(&mut out, p.rho);
    f(&mut out, p.delta);
    f(&mut out, p.eps);
    f(&mut out, p.beta);
    f(&mut out, p.p_round);
    f(&mut out, p.t0);
    out.push(match p.avg {
        AveragingFn::Midpoint => 0,
        AveragingFn::Mean => 1,
    });
    f(&mut out, p.sigma);
    u(&mut out, p.exchanges as u64);
    match &spec.drift {
        None => out.push(0),
        Some(DriftModel::Ideal) => out.push(1),
        Some(DriftModel::EvenSpread { rho }) => {
            out.push(2);
            f(&mut out, *rho);
        }
        Some(DriftModel::Split { rho }) => {
            out.push(3);
            f(&mut out, *rho);
        }
        Some(DriftModel::RandomConstant { rho }) => {
            out.push(4);
            f(&mut out, *rho);
        }
        Some(DriftModel::RandomPiecewise {
            rho,
            segment_secs,
            horizon_secs,
        }) => {
            out.push(5);
            f(&mut out, *rho);
            f(&mut out, *segment_secs);
            f(&mut out, *horizon_secs);
        }
    }
    out.push(match spec.delay {
        DelayKind::Constant => 0,
        DelayKind::Uniform => 1,
        DelayKind::AdversarialSplit => 2,
        DelayKind::SharedMedium => 3,
    });
    u(&mut out, spec.seed);
    f(&mut out, spec.t_end.as_secs());
    f(&mut out, spec.spread_frac);
    let count = u32::try_from(spec.faults.len()).expect("fault plan < 4G entries");
    out.extend_from_slice(&count.to_le_bytes());
    for &(id, kind) in &spec.faults {
        u(&mut out, id.index() as u64);
        match kind {
            FaultKind::CrashAt(t) => {
                out.push(0);
                f(&mut out, t);
            }
            FaultKind::Silent => out.push(1),
            FaultKind::RoundSpam => out.push(2),
            FaultKind::PullApart(a) => {
                out.push(3);
                f(&mut out, a);
            }
            FaultKind::PullApartHigh(a) => {
                out.push(4);
                f(&mut out, a);
            }
            FaultKind::TwoFaced(a) => {
                out.push(5);
                f(&mut out, a);
            }
        }
    }
    match spec.rejoiner {
        None => out.push(0),
        Some((id, at)) => {
            out.push(1);
            u(&mut out, id.index() as u64);
            f(&mut out, at.as_secs());
        }
    }
    u(&mut out, spec.trace_capacity as u64);
    u(&mut out, spec.max_events);
    f(&mut out, spec.initial_spread);
    match &spec.adversary {
        None => out.push(0),
        Some(adv) => {
            out.push(1);
            let members = u32::try_from(adv.members.len()).expect("member set < 4G entries");
            out.extend_from_slice(&members.to_le_bytes());
            for m in &adv.members {
                u(&mut out, m.index() as u64);
            }
            match adv.strategy {
                AdversaryStrategy::Crash { at } => {
                    out.push(0);
                    f(&mut out, at);
                }
                AdversaryStrategy::Mute => out.push(1),
                AdversaryStrategy::Spam => out.push(2),
                AdversaryStrategy::PullApart { amplitude, high } => {
                    out.push(3);
                    f(&mut out, amplitude);
                    out.push(u8::from(high));
                }
                AdversaryStrategy::TwoFacedValue { amplitude } => {
                    out.push(4);
                    f(&mut out, amplitude);
                }
                AdversaryStrategy::Collude { amplitude } => {
                    out.push(5);
                    f(&mut out, amplitude);
                }
                AdversaryStrategy::Churn { up, down } => {
                    out.push(6);
                    f(&mut out, up);
                    f(&mut out, down);
                }
                AdversaryStrategy::TargetedDelay { victim } => {
                    out.push(7);
                    u(&mut out, victim as u64);
                }
                AdversaryStrategy::Partition => out.push(8),
            }
            u(&mut out, adv.seed);
        }
    }
    out
}

/// The inverse of [`encode_spec`]. `None` = malformed (wrong length,
/// unknown variant byte, trailing bytes).
#[must_use]
pub fn decode_spec(bytes: &[u8]) -> Option<ScenarioSpec> {
    let mut t = Take(bytes);
    let params = Params {
        n: usize::try_from(t.u64()?).ok()?,
        f: usize::try_from(t.u64()?).ok()?,
        rho: t.f64()?,
        delta: t.f64()?,
        eps: t.f64()?,
        beta: t.f64()?,
        p_round: t.f64()?,
        t0: t.f64()?,
        avg: match t.u8()? {
            0 => AveragingFn::Midpoint,
            1 => AveragingFn::Mean,
            _ => return None,
        },
        sigma: t.f64()?,
        exchanges: usize::try_from(t.u64()?).ok()?,
    };
    let drift = match t.u8()? {
        0 => None,
        1 => Some(DriftModel::Ideal),
        2 => Some(DriftModel::EvenSpread { rho: t.f64()? }),
        3 => Some(DriftModel::Split { rho: t.f64()? }),
        4 => Some(DriftModel::RandomConstant { rho: t.f64()? }),
        5 => Some(DriftModel::RandomPiecewise {
            rho: t.f64()?,
            segment_secs: t.f64()?,
            horizon_secs: t.f64()?,
        }),
        _ => return None,
    };
    let delay = match t.u8()? {
        0 => DelayKind::Constant,
        1 => DelayKind::Uniform,
        2 => DelayKind::AdversarialSplit,
        3 => DelayKind::SharedMedium,
        _ => return None,
    };
    let seed = t.u64()?;
    let t_end = RealTime::from_secs(t.f64()?);
    let spread_frac = t.f64()?;
    let fault_count = t.u32()? as usize;
    let mut faults = Vec::with_capacity(fault_count.min(1024));
    for _ in 0..fault_count {
        let id = ProcessId(usize::try_from(t.u64()?).ok()?);
        let kind = match t.u8()? {
            0 => FaultKind::CrashAt(t.f64()?),
            1 => FaultKind::Silent,
            2 => FaultKind::RoundSpam,
            3 => FaultKind::PullApart(t.f64()?),
            4 => FaultKind::PullApartHigh(t.f64()?),
            5 => FaultKind::TwoFaced(t.f64()?),
            _ => return None,
        };
        faults.push((id, kind));
    }
    let rejoiner = match t.u8()? {
        0 => None,
        1 => Some((
            ProcessId(usize::try_from(t.u64()?).ok()?),
            RealTime::from_secs(t.f64()?),
        )),
        _ => return None,
    };
    let trace_capacity = usize::try_from(t.u64()?).ok()?;
    let max_events = t.u64()?;
    let initial_spread = t.f64()?;
    let adversary = match t.u8()? {
        0 => None,
        1 => {
            let member_count = t.u32()? as usize;
            let mut members = Vec::with_capacity(member_count.min(1024));
            for _ in 0..member_count {
                members.push(ProcessId(usize::try_from(t.u64()?).ok()?));
            }
            let strategy = match t.u8()? {
                0 => AdversaryStrategy::Crash { at: t.f64()? },
                1 => AdversaryStrategy::Mute,
                2 => AdversaryStrategy::Spam,
                3 => AdversaryStrategy::PullApart {
                    amplitude: t.f64()?,
                    high: match t.u8()? {
                        0 => false,
                        1 => true,
                        _ => return None,
                    },
                },
                4 => AdversaryStrategy::TwoFacedValue {
                    amplitude: t.f64()?,
                },
                5 => AdversaryStrategy::Collude {
                    amplitude: t.f64()?,
                },
                6 => AdversaryStrategy::Churn {
                    up: t.f64()?,
                    down: t.f64()?,
                },
                7 => AdversaryStrategy::TargetedDelay {
                    victim: usize::try_from(t.u64()?).ok()?,
                },
                8 => AdversaryStrategy::Partition,
                _ => return None,
            };
            let seed = t.u64()?;
            Some(AdversarySpec {
                members,
                strategy,
                seed,
            })
        }
        _ => return None,
    };
    let spec = ScenarioSpec {
        params,
        drift,
        delay,
        seed,
        t_end,
        spread_frac,
        faults,
        rejoiner,
        adversary,
        trace_capacity,
        max_events,
        initial_spread,
    };
    t.done().then_some(spec)
}

// ---------------------------------------------------------------------------
// Requests and responses.
// ---------------------------------------------------------------------------

const OP_GET: u8 = 0x01;
// 0x02 was the single-record put; retired, never reused — a one-element
// put-batch is the single put.
const OP_BATCH_GET: u8 = 0x03;
const OP_STATS: u8 = 0x04;
const OP_SHUTDOWN: u8 = 0x05;
const OP_PUT_BATCH: u8 = 0x06;

const RE_FOUND: u8 = 0x81;
const RE_MISS: u8 = 0x82;
const RE_OK: u8 = 0x83;
const RE_BATCH: u8 = 0x84;
const RE_STATS: u8 = 0x85;
const RE_ERR: u8 = 0x86;

/// One grid point of a [`Request::BatchGet`]: the content hash the
/// client derived, plus the full spec ([`encode_spec`] bytes). The
/// server decodes the spec and recomputes its hash as an input check;
/// the spec also stays on the wire because older servers simulate a
/// miss from it.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchItem {
    /// The client's [`ScenarioSpec::content_hash`] for this point.
    pub content_hash: u64,
    /// The [`encode_spec`] encoding of the point's spec.
    pub spec: Vec<u8>,
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Look up one record by key; never simulates.
    Get {
        /// The spec's content hash.
        content_hash: u64,
        /// The client's [`ENGINE_VERSION`] — a mismatch is a miss.
        engine_version: u32,
        /// Required payload richness (a record below it is a miss; a
        /// series record satisfies a sketch need).
        need: Capture,
        /// The algorithm name ([`crate::SyncAlgorithm::NAME`]).
        algo: String,
    },
    /// Resolve a batch of grid points from the index. A point the index
    /// lacks is an unresolved slot, which the client simulates and
    /// returns with a [`Request::PutBatch`].
    BatchGet {
        /// The client's [`ENGINE_VERSION`]; a mismatch refuses the batch.
        engine_version: u32,
        /// The payload richness every returned record must satisfy.
        need: Capture,
        /// The algorithm name ([`crate::SyncAlgorithm::NAME`]).
        algo: String,
        /// The grid points, in client order.
        items: Vec<BatchItem>,
    },
    /// Contribute canonical records (equality-confirmed inserts) in one
    /// frame: one lock acquisition and one checkpoint for the whole
    /// batch. This is how a sweep, or a frontier worker per chunk,
    /// returns the points it simulated.
    PutBatch {
        /// The records, exactly as a store would hold them.
        records: Vec<EncodedRecord>,
    },
    /// Ask for the server's counters.
    Stats,
    /// Ask the server to checkpoint, rewrite its store canonically, and
    /// exit.
    Shutdown,
}

/// Server counters, as returned by [`Request::Stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Live records in the served store.
    pub records: u64,
    /// Grid points answered from the in-RAM index.
    pub warm_hits: u64,
    /// Always 0: the server never simulates. Kept so the stats reply's
    /// wire layout, which older peers read, does not move.
    pub simulated: u64,
    /// Records accepted via [`Request::PutBatch`].
    pub puts: u64,
    /// Requests handled (all opcodes).
    pub requests: u64,
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The record for a [`Request::Get`] hit.
    Found {
        /// The canonical record.
        record: EncodedRecord,
    },
    /// A [`Request::Get`] miss.
    Miss,
    /// Acknowledges a [`Request::PutBatch`] or [`Request::Shutdown`].
    Ok,
    /// Per-point results of a [`Request::BatchGet`], in request order.
    /// `None` = the server could not resolve the point (not stored,
    /// undecodable spec, hash mismatch); the client simulates it locally
    /// and puts it back.
    Batch {
        /// One slot per requested item.
        items: Vec<Option<EncodedRecord>>,
    },
    /// The counters for a [`Request::Stats`].
    Stats {
        /// Current server counters.
        stats: ServiceStats,
    },
    /// The request was understood but refused.
    Err {
        /// Human-readable reason.
        message: String,
    },
}

/// The wire byte of a [`Capture`] need — `0`/`1` match what the v4
/// protocol sent for its scalar/series boolean, so `2` (sketch) is a
/// pure extension of the codec.
fn capture_byte(need: Capture) -> u8 {
    match need {
        Capture::Scalar => 0,
        Capture::Series => 1,
        Capture::Sketch => 2,
    }
}

/// The strict inverse of [`capture_byte`]. `None` = malformed.
fn capture_from_byte(byte: u8) -> Option<Capture> {
    match byte {
        0 => Some(Capture::Scalar),
        1 => Some(Capture::Series),
        2 => Some(Capture::Sketch),
        _ => None,
    }
}

/// Encodes a request into a frame body (opcode + payload, no checksum —
/// the framing layer adds it).
#[must_use]
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    match req {
        Request::Get {
            content_hash,
            engine_version,
            need,
            algo,
        } => {
            out.push(OP_GET);
            out.extend_from_slice(&content_hash.to_le_bytes());
            out.extend_from_slice(&engine_version.to_le_bytes());
            out.push(capture_byte(*need));
            push_str16(&mut out, algo);
        }
        Request::BatchGet {
            engine_version,
            need,
            algo,
            items,
        } => {
            out.push(OP_BATCH_GET);
            out.extend_from_slice(&engine_version.to_le_bytes());
            out.push(capture_byte(*need));
            push_str16(&mut out, algo);
            let count = u32::try_from(items.len()).expect("batch < 4G items");
            out.extend_from_slice(&count.to_le_bytes());
            for item in items {
                out.extend_from_slice(&item.content_hash.to_le_bytes());
                push_blob32(&mut out, &item.spec);
            }
        }
        Request::PutBatch { records } => out = put_batch_body(records.iter()),
        Request::Stats => out.push(OP_STATS),
        Request::Shutdown => out.push(OP_SHUTDOWN),
    }
    out
}

/// The frame body of a [`Request::PutBatch`], over records the caller
/// keeps — the client tier sends the cache's own records, uncopied.
/// Each record's payloads travel framed raw: the server decodes every
/// encoding, and re-encodes what it stores when it writes it, so
/// compressing here would be work the server throws away.
fn put_batch_body<'a>(records: impl ExactSizeIterator<Item = &'a EncodedRecord>) -> Vec<u8> {
    let mut out = vec![OP_PUT_BATCH];
    let count = u32::try_from(records.len()).expect("batch < 4G records");
    out.extend_from_slice(&count.to_le_bytes());
    for record in records {
        record.encode_raw_into(&mut out);
    }
    out
}

/// Decodes a frame body into a request. `None` = malformed.
#[must_use]
pub fn decode_request(body: &[u8]) -> Option<Request> {
    let mut t = Take(body);
    let req = match t.u8()? {
        OP_GET => Request::Get {
            content_hash: t.u64()?,
            engine_version: t.u32()?,
            need: capture_from_byte(t.u8()?)?,
            algo: str16(&mut t)?,
        },
        OP_BATCH_GET => {
            let engine_version = t.u32()?;
            let need = capture_from_byte(t.u8()?)?;
            let algo = str16(&mut t)?;
            let count = t.u32()? as usize;
            let mut items = Vec::with_capacity(count.min(4096));
            for _ in 0..count {
                items.push(BatchItem {
                    content_hash: t.u64()?,
                    spec: blob32(&mut t)?,
                });
            }
            Request::BatchGet {
                engine_version,
                need,
                algo,
                items,
            }
        }
        OP_PUT_BATCH => {
            let count = t.u32()? as usize;
            let mut records = Vec::with_capacity(count.min(4096));
            for _ in 0..count {
                records.push(record(&mut t)?);
            }
            Request::PutBatch { records }
        }
        OP_STATS => Request::Stats,
        OP_SHUTDOWN => Request::Shutdown,
        _ => return None,
    };
    t.done().then_some(req)
}

/// The whole frame of a [`Response::Found`] for `record`, built in one
/// buffer: the bytes [`write_frame`] sends for [`encode_response`]'s
/// body. The server keeps it beside the record
/// ([`Record::found_frame`]), so a hit is one write of kept bytes.
pub(crate) fn found_frame(record: &EncodedRecord) -> Box<[u8]> {
    let mut frame = vec![0; 4];
    frame.push(RE_FOUND);
    record.encode_into(&mut frame);
    close_frame(&mut frame, 0);
    frame.into_boxed_slice()
}

/// The record's [`EncodedRecord::encode`] bytes inside a
/// [`found_frame`]: after the length prefix and the opcode, before the
/// checksum.
pub(crate) fn found_record(frame: &[u8]) -> &[u8] {
    &frame[4 + 1..frame.len() - 8]
}

/// The body of a [`Response::Batch`] over each slot's
/// [`EncodedRecord::encode`] bytes (`1` + bytes, or `0` for an
/// unresolved slot) — the one layout both [`encode_response`] and the
/// server's batch path write.
fn batch_body<B: AsRef<[u8]>>(slots: &[Option<B>]) -> Vec<u8> {
    let bytes: usize = slots.iter().flatten().map(|b| b.as_ref().len()).sum();
    let mut out = Vec::with_capacity(5 + slots.len() + bytes);
    out.push(RE_BATCH);
    let count = u32::try_from(slots.len()).expect("batch < 4G items");
    out.extend_from_slice(&count.to_le_bytes());
    for slot in slots {
        match slot {
            Some(record) => {
                out.push(1);
                out.extend_from_slice(record.as_ref());
            }
            None => out.push(0),
        }
    }
    out
}

/// Encodes a response into a frame body.
#[must_use]
pub fn encode_response(resp: &Response) -> Vec<u8> {
    match resp {
        Response::Found { record } => {
            let mut out = vec![RE_FOUND];
            record.encode_into(&mut out);
            out
        }
        Response::Miss => vec![RE_MISS],
        Response::Ok => vec![RE_OK],
        Response::Batch { items } => {
            let slots: Vec<Option<Vec<u8>>> = items
                .iter()
                .map(|item| item.as_ref().map(EncodedRecord::encode))
                .collect();
            batch_body(&slots)
        }
        Response::Stats { stats } => {
            let mut out = vec![RE_STATS];
            for v in [
                stats.records,
                stats.warm_hits,
                stats.simulated,
                stats.puts,
                stats.requests,
            ] {
                out.extend_from_slice(&v.to_le_bytes());
            }
            out
        }
        Response::Err { message } => {
            let mut out = vec![RE_ERR];
            push_str16(&mut out, message);
            out
        }
    }
}

/// Decodes a frame body into a response. `None` = malformed.
#[must_use]
pub fn decode_response(body: &[u8]) -> Option<Response> {
    decode_response_with(body, record)
}

/// [`decode_response`]'s grammar, each record read through `record`.
fn decode_response_with(
    body: &[u8],
    mut record: impl FnMut(&mut Take<'_>) -> Option<EncodedRecord>,
) -> Option<Response> {
    let mut t = Take(body);
    let resp = match t.u8()? {
        RE_FOUND => Response::Found {
            record: record(&mut t)?,
        },
        RE_MISS => Response::Miss,
        RE_OK => Response::Ok,
        RE_BATCH => {
            let count = t.u32()? as usize;
            let mut items = Vec::with_capacity(count.min(4096));
            for _ in 0..count {
                items.push(match t.u8()? {
                    0 => None,
                    1 => Some(record(&mut t)?),
                    _ => return None,
                });
            }
            Response::Batch { items }
        }
        RE_STATS => Response::Stats {
            stats: ServiceStats {
                records: t.u64()?,
                warm_hits: t.u64()?,
                simulated: t.u64()?,
                puts: t.u64()?,
                requests: t.u64()?,
            },
        },
        RE_ERR => Response::Err {
            message: str16(&mut t)?,
        },
        _ => return None,
    };
    t.done().then_some(resp)
}

/// Checks and decodes a reply frame (`frame` = body, then checksum) —
/// the client's read path. It accepts and returns exactly what
/// [`check_frame`] then [`decode_response`] do, but reads each byte
/// once: a record is hashed for its own checksum and the frame's in one
/// pass ([`EncodedRecord::decode_within`]), the bytes between records
/// for the frame's alone, and nothing is hashed again to decode.
fn decode_reply(frame: &[u8]) -> Option<Response> {
    let body_len = frame.len().checked_sub(8)?;
    let (body, crc) = frame.split_at(body_len);
    let (mut chain, mut hashed) = (FNV_OFFSET, 0);
    let response = decode_response_with(body, |t| {
        let at = body_len - t.0.len();
        chain = fnv64_seeded(chain, &body[hashed..at]);
        let (record, used) = EncodedRecord::decode_within(t.0, &mut chain)?;
        hashed = at + t.bytes(used)?.len();
        Some(record)
    })?;
    let chain = fnv64_seeded(chain, &body[hashed..]);
    (chain.to_le_bytes()[..] == *crc).then_some(response)
}

/// Reads one reply frame and decodes it through [`decode_reply`].
fn read_reply(r: &mut impl Read) -> io::Result<Response> {
    let frame = read_unchecked(r, None)?
        .frame()
        .ok_or_else(|| io::Error::from(io::ErrorKind::UnexpectedEof))?;
    decode_reply(&frame).ok_or_else(|| bad_data("corrupt or malformed response"))
}

// ---------------------------------------------------------------------------
// Streams (one enum over both transports).
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    /// A TCP stream with `TCP_NODELAY` set: a request and its reply are
    /// one frame each, so there is never a later write to coalesce with.
    /// Best effort — a stream that refuses the option is slower, not
    /// wrong, and must not take the accept loop down.
    fn tcp(stream: TcpStream) -> Self {
        let _ = stream.set_nodelay(true);
        Self::Tcp(stream)
    }

    fn connect(addr: &ServiceAddr) -> io::Result<Self> {
        match addr {
            ServiceAddr::Tcp(a) => TcpStream::connect(a.as_str()).map(Self::tcp),
            #[cfg(unix)]
            ServiceAddr::Unix(p) => UnixStream::connect(p).map(Self::Unix),
        }
    }

    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            Self::Tcp(s) => s.set_read_timeout(dur),
            #[cfg(unix)]
            Self::Unix(s) => s.set_read_timeout(dur),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Self::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Self::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Self::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Self::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Self::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Self::Unix(s) => s.flush(),
        }
    }
}

// ---------------------------------------------------------------------------
// Client.
// ---------------------------------------------------------------------------

/// A blocking sweep-service client over one (lazily established,
/// transparently re-established) connection.
#[derive(Debug)]
pub struct ServiceClient {
    addr: ServiceAddr,
    /// The connection behind its read buffer; `None` until the first
    /// request, and again after any failure.
    conn: Option<BufReader<Stream>>,
}

impl ServiceClient {
    /// A client for `addr`; connects on first use.
    #[must_use]
    pub fn new(addr: ServiceAddr) -> Self {
        Self { addr, conn: None }
    }

    /// The address this client talks to.
    #[must_use]
    pub fn addr(&self) -> &ServiceAddr {
        &self.addr
    }

    /// Sends one request and reads its response.
    ///
    /// A transport failure on a *reused* connection is retried once on a
    /// fresh connection (the server may simply have restarted); failures
    /// on a fresh connection propagate.
    ///
    /// # Errors
    ///
    /// Connect/write/read failures, and [`io::ErrorKind::InvalidData`]
    /// for frames that fail their checksum or decode.
    pub fn request(&mut self, req: &Request) -> io::Result<Response> {
        self.send(&encode_request(req))
    }

    /// [`request`](ServiceClient::request) for an already-encoded body.
    fn send(&mut self, body: &[u8]) -> io::Result<Response> {
        let reused = self.conn.is_some();
        match self.roundtrip(body) {
            // The pooled connection may have died with the previous
            // server process; one fresh connection decides it.
            Err(_) if reused => self.roundtrip(body),
            result => result,
        }
    }

    /// One request and its reply on the pooled connection. Any failure
    /// drops the connection and its read buffer, so bytes left over from
    /// a bad reply are never read as the next one.
    fn roundtrip(&mut self, body: &[u8]) -> io::Result<Response> {
        if self.conn.is_none() {
            self.conn = Some(buffered(Stream::connect(&self.addr)?));
        }
        let conn = self.conn.as_mut().expect("just connected");
        let result = write_frame(conn.get_mut(), body).and_then(|()| read_reply(conn));
        if result.is_err() {
            self.conn = None;
        }
        result
    }

    /// Looks up one record by key. `Ok(None)` = the server has no
    /// matching record.
    ///
    /// # Errors
    ///
    /// Transport failures; [`io::ErrorKind::InvalidData`] on a server
    /// refusal or a malformed response.
    pub fn get(
        &mut self,
        content_hash: u64,
        algo: &str,
        need: Capture,
    ) -> io::Result<Option<EncodedRecord>> {
        match self.request(&Request::Get {
            content_hash,
            engine_version: ENGINE_VERSION,
            need,
            algo: algo.to_string(),
        })? {
            Response::Found { record } => Ok(Some(record)),
            Response::Miss => Ok(None),
            Response::Err { message } => Err(bad_data(&message)),
            _ => Err(bad_data("unexpected response to get")),
        }
    }

    /// Contributes many canonical records in one frame (one server-side
    /// lock acquisition and one checkpoint for all of them).
    ///
    /// # Errors
    ///
    /// Transport failures; [`io::ErrorKind::InvalidData`] if the server
    /// refuses any record (engine mismatch, corrupt payload, conflict) —
    /// records ahead of the refused one are still accepted and durable.
    pub fn put_batch(&mut self, records: &[EncodedRecord]) -> io::Result<()> {
        self.put_records(records.iter())
    }

    fn put_records<'a>(
        &mut self,
        records: impl ExactSizeIterator<Item = &'a EncodedRecord>,
    ) -> io::Result<()> {
        if records.len() == 0 {
            return Ok(());
        }
        match self.send(&put_batch_body(records))? {
            Response::Ok => Ok(()),
            Response::Err { message } => Err(bad_data(&message)),
            _ => Err(bad_data("unexpected response to put-batch")),
        }
    }

    /// Resolves a batch of `(content_hash, spec)` points under `algo`,
    /// returning one slot per point in order (`None` = unresolved;
    /// simulate locally).
    ///
    /// # Errors
    ///
    /// Transport failures; [`io::ErrorKind::InvalidData`] on a server
    /// refusal (e.g. an [`ENGINE_VERSION`] mismatch) or a malformed or
    /// mis-sized response.
    pub fn batch_get(
        &mut self,
        algo: &str,
        need: Capture,
        points: &[(u64, &ScenarioSpec)],
    ) -> io::Result<Vec<Option<EncodedRecord>>> {
        let items = points
            .iter()
            .map(|(hash, spec)| BatchItem {
                content_hash: *hash,
                spec: encode_spec(spec),
            })
            .collect();
        match self.request(&Request::BatchGet {
            engine_version: ENGINE_VERSION,
            need,
            algo: algo.to_string(),
            items,
        })? {
            Response::Batch { items } if items.len() == points.len() => Ok(items),
            Response::Batch { .. } => Err(bad_data("batch response size mismatch")),
            Response::Err { message } => Err(bad_data(&message)),
            _ => Err(bad_data("unexpected response to batch-get")),
        }
    }

    /// Fetches the server's counters.
    ///
    /// # Errors
    ///
    /// Transport failures or a malformed response.
    pub fn stats(&mut self) -> io::Result<ServiceStats> {
        match self.request(&Request::Stats)? {
            Response::Stats { stats } => Ok(stats),
            Response::Err { message } => Err(bad_data(&message)),
            _ => Err(bad_data("unexpected response to stats")),
        }
    }

    /// Asks the server to save its store canonically and exit.
    ///
    /// # Errors
    ///
    /// Transport failures or a refusal.
    pub fn shutdown(&mut self) -> io::Result<()> {
        match self.request(&Request::Shutdown)? {
            Response::Ok => Ok(()),
            Response::Err { message } => Err(bad_data(&message)),
            _ => Err(bad_data("unexpected response to shutdown")),
        }
    }
}

// ---------------------------------------------------------------------------
// The client-side cache tier.
// ---------------------------------------------------------------------------

/// The service tier of the sweep cache stack: resolves grid points a
/// local [`SweepCache`] lacks against a running sweep service, and
/// offers back what the service could not supply.
///
/// Constructed per sweep from the `WL_SWEEP_SERVICE` environment knob
/// ([`ServiceSweepCache::from_env`]); when the knob is unset, cached
/// sweeps behave exactly as before. The tier is **fail-soft**: any
/// transport error downgrades it to a no-op for the rest of the sweep
/// (with one stderr warning), and the sweep falls back to simulating
/// locally — a dead server can slow a run down, never break it or
/// change its results.
#[derive(Debug)]
pub struct ServiceSweepCache {
    addr: ServiceAddr,
    client: Mutex<ServiceClient>,
    degraded: AtomicBool,
    served: AtomicU64,
    pushed: AtomicU64,
    /// Points the service could not supply, remembered by key so the
    /// post-sweep [`push_back`](Self::push_back) can offer the locally
    /// simulated results.
    pending: Mutex<Vec<(u64, String)>>,
}

impl ServiceSweepCache {
    /// A tier talking to `addr`.
    #[must_use]
    pub fn new(addr: ServiceAddr) -> Self {
        Self {
            client: Mutex::new(ServiceClient::new(addr.clone())),
            addr,
            degraded: AtomicBool::new(false),
            served: AtomicU64::new(0),
            pushed: AtomicU64::new(0),
            pending: Mutex::new(Vec::new()),
        }
    }

    /// The tier configured in the environment (`WL_SWEEP_SERVICE`), if
    /// any.
    #[must_use]
    pub fn from_env() -> Option<Self> {
        service_from_env().map(Self::new)
    }

    /// Points this tier served into local caches so far.
    #[must_use]
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Points this tier pushed back to the service so far.
    #[must_use]
    pub fn pushed(&self) -> u64 {
        self.pushed.load(Ordering::Relaxed)
    }

    /// Batch-resolves every point of `specs` that `cache` cannot serve
    /// (honoring the `need` payload level) and seeds the answers into
    /// `cache`, so the sweep loop that follows sees them as plain hits.
    /// Returns how many points the service supplied.
    pub fn prefetch<A: SyncAlgorithm>(
        &self,
        specs: &[ScenarioSpec],
        need: Capture,
        cache: &SweepCache,
    ) -> usize {
        if self.degraded.load(Ordering::Relaxed) {
            return 0;
        }
        let mut wanted: Vec<(u64, String, &ScenarioSpec)> = Vec::new();
        let mut seen = HashSet::new();
        for spec in specs {
            let canon = canon_string(&spec.canonical());
            let hash = spec.content_hash();
            if cache.peek(hash, A::NAME, &canon, need).is_some() {
                continue;
            }
            if seen.insert((hash, canon.clone())) {
                wanted.push((hash, canon, spec));
            }
        }
        if wanted.is_empty() {
            return 0;
        }
        let points: Vec<(u64, &ScenarioSpec)> = wanted.iter().map(|(h, _, s)| (*h, *s)).collect();
        let records = {
            let mut client = self.client.lock().expect("service client poisoned");
            match client.batch_get(A::NAME, need, &points) {
                Ok(records) => records,
                Err(e) => {
                    self.degrade(&e);
                    return 0;
                }
            }
        };
        let mut served = 0usize;
        let mut pending = self.pending.lock().expect("service pending poisoned");
        for ((hash, canon, _spec), record) in wanted.into_iter().zip(records) {
            // Admitted like any stored record, and it must be the answer
            // to the question asked; anything else stays unresolved.
            match record.map(Record::admit) {
                Some(Admitted::Live(record)) if record.answers(hash, A::NAME, &canon, need) => {
                    cache.store(record);
                    served += 1;
                }
                _ => pending.push((hash, canon)),
            }
        }
        self.served.fetch_add(served as u64, Ordering::Relaxed);
        served
    }

    /// Offers the locally simulated results of every pending point back
    /// to the service, as **one** [`Request::PutBatch`] frame (one
    /// server-side lock acquisition and one checkpoint, however many
    /// points the sweep — or the frontier chunk — simulated).
    pub fn push_back<A: SyncAlgorithm>(&self, cache: &SweepCache) {
        if self.degraded.load(Ordering::Relaxed) {
            return;
        }
        let pending = std::mem::take(&mut *self.pending.lock().expect("service pending poisoned"));
        let records: Vec<Arc<Record>> = pending
            .into_iter()
            .filter_map(|(hash, canon)| cache.peek(hash, A::NAME, &canon, Capture::Scalar))
            .collect();
        if records.is_empty() {
            return;
        }
        let mut client = self.client.lock().expect("service client poisoned");
        match client.put_records(records.iter().map(|record| record.encoded())) {
            Ok(()) => {
                self.pushed
                    .fetch_add(records.len() as u64, Ordering::Relaxed);
            }
            // An InvalidData refusal (engine mismatch, conflict) and a
            // transport failure both mean the rest of this sweep should
            // stop offering.
            Err(e) => self.degrade(&e),
        }
    }

    /// Marks the tier dead for the rest of the sweep. Must not touch
    /// `self.client` — callers invoke this while holding that lock.
    fn degrade(&self, e: &io::Error) {
        if !self.degraded.swap(true, Ordering::Relaxed) {
            eprintln!(
                "warning: sweep service {} unavailable ({e}); \
                 falling back to local simulation",
                self.addr
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Server.
// ---------------------------------------------------------------------------

/// Configuration of a [`serve`] run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Where to listen. `tcp:127.0.0.1:0` binds an ephemeral port (the
    /// resolved address is reported through [`serve`]'s `on_ready`).
    pub addr: ServiceAddr,
    /// The served store (created if missing, hydrated if present — a
    /// restarted server resumes from whatever its checkpoints left).
    pub store: PathBuf,
    /// Unused: the server runs no simulations, so it has no pool to
    /// size. Kept only because the benchmark's service workload still
    /// sets it.
    pub threads: usize,
    /// Fault injection: abort the process (as `kill -9` would) right
    /// after this many put-batch checkpoints, *before* the response is
    /// sent. `None` in production; tests and the CI kill-smoke use it to
    /// crash the server mid-load deterministically.
    pub crash_after_batches: Option<usize>,
}

impl ServeConfig {
    /// A server on `addr` over the store at `store`, with no fault
    /// injection.
    #[must_use]
    pub fn new(addr: ServiceAddr, store: impl Into<PathBuf>) -> Self {
        Self {
            addr,
            store: store.into(),
            threads: 0,
            crash_after_batches: None,
        }
    }
}

/// What a graceful [`serve`] run did.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// The resolved listen address (ephemeral TCP ports filled in).
    pub addr: ServiceAddr,
    /// Final counters.
    pub stats: ServiceStats,
}

#[derive(Debug)]
struct Core {
    store: SweepStore,
    warm_hits: u64,
    puts: u64,
    requests: u64,
    /// Put batches checkpointed, for [`ServeConfig::crash_after_batches`].
    batches: usize,
}

impl Core {
    fn new(store: SweepStore) -> Self {
        Self {
            store,
            warm_hits: 0,
            puts: 0,
            requests: 0,
            batches: 0,
        }
    }

    /// The store's record for a key, if it is rich enough for `need` —
    /// the one lookup of both get arms.
    fn warm(&self, content_hash: u64, algo: &str, need: Capture) -> Option<&Arc<Record>> {
        let held = self.store.record(content_hash, algo);
        held.filter(|record| need.kind() <= record.kind())
    }

    fn stats(&self) -> ServiceStats {
        ServiceStats {
            records: self.store.len() as u64,
            warm_hits: self.warm_hits,
            simulated: 0,
            puts: self.puts,
            requests: self.requests,
        }
    }
}

#[derive(Debug)]
enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

impl Listener {
    fn bind(addr: &ServiceAddr) -> io::Result<(Self, ServiceAddr)> {
        match addr {
            ServiceAddr::Tcp(a) => {
                let listener = TcpListener::bind(a.as_str())?;
                let resolved = ServiceAddr::Tcp(listener.local_addr()?.to_string());
                Ok((Self::Tcp(listener), resolved))
            }
            #[cfg(unix)]
            ServiceAddr::Unix(path) => {
                // A stale socket from a killed predecessor must not block
                // the restart; anything else at the path (a store, say)
                // is refused and left untouched.
                use std::os::unix::fs::FileTypeExt as _;
                match std::fs::symlink_metadata(path) {
                    Ok(meta) if meta.file_type().is_socket() => std::fs::remove_file(path)?,
                    Ok(_) => {
                        return Err(io::Error::new(
                            io::ErrorKind::AlreadyExists,
                            format!("{} exists and is not a socket", path.display()),
                        ))
                    }
                    Err(_) => {}
                }
                let listener = UnixListener::bind(path)?;
                Ok((Self::Unix(listener), ServiceAddr::Unix(path.clone())))
            }
        }
    }

    fn accept(&self) -> io::Result<Stream> {
        match self {
            Self::Tcp(l) => l.accept().map(|(s, _)| Stream::tcp(s)),
            #[cfg(unix)]
            Self::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
        }
    }
}

/// Wakes a listener blocked in `accept` by connecting and hanging up —
/// how the shutdown handler unblocks the accept loop.
fn wake(addr: &ServiceAddr) {
    let _ = Stream::connect(addr);
}

/// Runs a sweep service until a [`Request::Shutdown`] arrives, then
/// rewrites the store canonically and returns.
///
/// `on_ready` fires once, after the listener is bound, with the resolved
/// address — print it, or hand it to an in-process client.
///
/// Per connection the server handles any number of requests. It stores;
/// it never simulates: a batch-get answers from the in-RAM index, and a
/// point the index lacks comes back unresolved for the client to
/// simulate and put back. Every put batch of fresh records is
/// checkpointed **before** its response goes out: what a client has
/// seen acknowledged, a `kill -9` cannot lose.
///
/// # Errors
///
/// Binding, accepting, and final-save I/O failures. Per-connection I/O
/// errors only drop that connection.
pub fn serve(cfg: &ServeConfig, on_ready: impl FnOnce(&ServiceAddr)) -> io::Result<ServeReport> {
    let store = SweepStore::open(&cfg.store)?;
    let (listener, resolved) = Listener::bind(&cfg.addr)?;
    on_ready(&resolved);
    let core = Mutex::new(Core::new(store));
    let shutdown = AtomicBool::new(false);

    std::thread::scope(|scope| -> io::Result<()> {
        loop {
            let stream = match listener.accept() {
                Ok(stream) => stream,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    return Err(e);
                }
            };
            if shutdown.load(Ordering::SeqCst) {
                break;
            }
            let core = &core;
            let shutdown = &shutdown;
            let resolved = &resolved;
            scope.spawn(move || {
                if let Err(e) = handle(stream, core, shutdown, resolved, cfg) {
                    if !matches!(
                        e.kind(),
                        io::ErrorKind::UnexpectedEof | io::ErrorKind::BrokenPipe
                    ) {
                        eprintln!("sweep service: connection error: {e}");
                    }
                }
            });
        }
        Ok(())
    })?;

    #[cfg(unix)]
    if let ServiceAddr::Unix(path) = &resolved {
        let _ = std::fs::remove_file(path);
    }
    let mut core = core.into_inner().expect("server core poisoned");
    // The canonical rewrite: appended checkpoint segments collapse into
    // sorted-order segments, so the store byte-compares against any
    // other canonical store over the same records.
    core.store.save()?;
    Ok(ServeReport {
        addr: resolved,
        stats: core.stats(),
    })
}

/// How long an idle connection blocks before re-checking the shutdown
/// flag.
const IDLE_POLL: Duration = Duration::from_millis(200);

fn handle(
    stream: Stream,
    core: &Mutex<Core>,
    shutdown: &AtomicBool,
    addr: &ServiceAddr,
    cfg: &ServeConfig,
) -> io::Result<()> {
    stream.set_read_timeout(Some(IDLE_POLL))?;
    let mut conn = buffered(stream);
    loop {
        let body = match read_frame(&mut conn, Some(shutdown))? {
            Inbound::Frame(body) => body,
            Inbound::Eof => return Ok(()),
            Inbound::Idle => {
                if shutdown.load(Ordering::SeqCst) {
                    return Ok(());
                }
                continue;
            }
        };
        let Some(request) = decode_request(&body) else {
            let resp = Response::Err {
                message: "malformed request".to_string(),
            };
            write_frame(conn.get_mut(), &encode_response(&resp))?;
            continue;
        };
        let is_shutdown = matches!(request, Request::Shutdown);
        dispatch(request, core, cfg)?.write_to(conn.get_mut())?;
        if is_shutdown {
            shutdown.store(true, Ordering::SeqCst);
            wake(addr);
            return Ok(());
        }
    }
}

fn lock_core(core: &Mutex<Core>) -> std::sync::MutexGuard<'_, Core> {
    core.lock().expect("server core poisoned")
}

/// What the server sends back for one request.
#[derive(Debug)]
enum Reply {
    /// A `Get` hit: the record's kept [`Record::found_frame`], sent as is.
    Found(Arc<Record>),
    /// Any other reply: a body, framed on the way out.
    Body(Vec<u8>),
}

impl Reply {
    fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        match self {
            Self::Found(record) => send_frame(w, record.found_frame()),
            Self::Body(body) => write_frame(w, body),
        }
    }
}

/// Answers one request. A hit is the record's kept
/// [`Record::found_frame`], a batch is written from the records' kept
/// bytes through the layout helper [`encode_response`] uses, and every
/// other reply is a [`Response`] encoded by it.
fn dispatch(request: Request, core: &Mutex<Core>, cfg: &ServeConfig) -> io::Result<Reply> {
    let mut c = lock_core(core);
    c.requests += 1;
    let response = match request {
        Request::Get {
            content_hash,
            engine_version,
            need,
            algo,
        } => {
            if engine_version != ENGINE_VERSION {
                return Ok(Reply::Body(encode_response(&Response::Miss)));
            }
            let held = c.warm(content_hash, &algo, need).cloned();
            c.warm_hits += u64::from(held.is_some());
            // The lock covers the lookup and the pointer clone only; the
            // record's frame is built (once) and written after it is
            // released.
            drop(c);
            match held {
                Some(record) => return Ok(Reply::Found(record)),
                None => Response::Miss,
            }
        }
        Request::BatchGet {
            engine_version,
            need,
            algo,
            items,
        } => {
            if engine_version != ENGINE_VERSION {
                Response::Err {
                    message: format!(
                        "client engine v{engine_version} != server engine v{ENGINE_VERSION}"
                    ),
                }
            } else {
                return Ok(Reply::Body(batch_get(&mut c, &algo, need, &items)));
            }
        }
        Request::PutBatch { records } => {
            if let Some(bad) = records.iter().find(|r| r.engine_version != ENGINE_VERSION) {
                Response::Err {
                    message: format!(
                        "record engine v{} != server engine v{ENGINE_VERSION}",
                        bad.engine_version
                    ),
                }
            } else {
                let mut changed = 0u64;
                let mut refused = None;
                for record in records {
                    match c.store.insert_encoded(record) {
                        Ok(true) => changed += 1,
                        Ok(false) => {}
                        Err(conflict) => {
                            refused = Some(conflict);
                            break;
                        }
                    }
                }
                // One checkpoint for the whole batch — and even a
                // refused batch keeps the records accepted before the
                // conflict durable.
                if changed > 0 {
                    c.puts += changed;
                    c.store.checkpoint()?;
                    c.batches += 1;
                    if cfg.crash_after_batches == Some(c.batches) {
                        // Simulated crash: no unwinding, no destructors,
                        // no response — the closest safe stand-in for
                        // `kill -9`. The checkpoint just appended is what
                        // a restart serves.
                        std::process::abort();
                    }
                }
                match refused {
                    None => Response::Ok,
                    Some(conflict) => Response::Err {
                        message: format!("record refused: {conflict}"),
                    },
                }
            }
        }
        Request::Stats => Response::Stats { stats: c.stats() },
        Request::Shutdown => Response::Ok,
    };
    Ok(Reply::Body(encode_response(&response)))
}

/// Answers a batch-get from the index and returns its reply body, every
/// resolved slot written from its record's kept [`Record::encoded_bytes`].
/// A miss is an unresolved slot: the client simulates the point and puts
/// it back.
fn batch_get(c: &mut Core, algo: &str, need: Capture, items: &[BatchItem]) -> Vec<u8> {
    let slots: Vec<Option<&[u8]>> = items
        .iter()
        .map(|item| {
            // The hash recomputation is the codec's integrity check: a
            // drifting spec encoding degrades to "unresolved", and the
            // client simulates locally — never a wrong record.
            decode_spec(&item.spec).filter(|s| s.content_hash() == item.content_hash)?;
            c.warm(item.content_hash, algo, need)
                .map(|record| record.encoded_bytes())
        })
        .collect();
    let hits = slots.iter().flatten().count();
    let body = batch_body(&slots);
    c.warm_hits += hits as u64;
    body
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::segment::{TAG_ADV_SKETCH, TAG_SCALAR, TAG_SERIES, TAG_SKETCH};
    use crate::sweep::{derive_seed, run_point_as, SweepOutcome, SweepSeries};
    use crate::Maintenance;
    use rand::{Rng, SeedableRng};

    impl Reply {
        /// The frame body this reply sends.
        fn body(&self) -> &[u8] {
            match self {
                Self::Found(record) => {
                    let frame = record.found_frame();
                    &frame[4..frame.len() - 8]
                }
                Self::Body(body) => body,
            }
        }
    }

    /// A reply equals a frame body when it sends that body.
    impl PartialEq<Vec<u8>> for Reply {
        fn eq(&self, body: &Vec<u8>) -> bool {
            self.body() == &body[..]
        }
    }

    fn grid(count: usize) -> Vec<ScenarioSpec> {
        let params = Params::auto(4, 1, 1e-6, 0.010, 0.001).unwrap();
        (0..count)
            .map(|i| {
                ScenarioSpec::new(params.clone())
                    .seed(derive_seed(0x5E12_71CE, i as u64))
                    .t_end(RealTime::from_secs(2.0))
            })
            .collect()
    }

    fn tmp_store(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("wl-service-{}-{name}.wls", std::process::id()))
    }

    /// A random capture need — all three wire values.
    fn arb_need(rng: &mut rand::rngs::StdRng) -> Capture {
        match rng.gen::<u64>() % 3 {
            0 => Capture::Scalar,
            1 => Capture::Sketch,
            _ => Capture::Series,
        }
    }

    /// A random record through arbitrary bit patterns — the same
    /// "seeded arbitrary" style the segment and migration proptests use.
    fn arb_record(rng: &mut rand::rngs::StdRng) -> EncodedRecord {
        let nasty = ["algo a", "q\"uote", "tab\there", "wl-maintenance", "∆-sync"];
        EncodedRecord {
            tag: match rng.gen::<u64>() % 3 {
                0 => TAG_SCALAR,
                1 => TAG_SERIES,
                _ => TAG_SKETCH,
            },
            content_hash: rng.gen(),
            engine_version: ENGINE_VERSION,
            algo: nasty[(rng.gen::<u64>() % 5) as usize].to_string(),
            spec_canon: format!(
                "Spec{{n:{},rho:x{:016x}}}",
                rng.gen::<u32>(),
                rng.gen::<u64>()
            )
            .repeat(1 + (rng.gen::<u64>() % 3) as usize),
            outcome_canon: format!("Outcome{{v:x{:016x}}}", rng.gen::<u64>())
                .repeat(1 + (rng.gen::<u64>() % 4) as usize),
        }
    }

    /// A random outcome at grid index `index` through arbitrary bit
    /// patterns, on any payload rung: scalar, sketch or series.
    fn arb_outcome(rng: &mut rand::rngs::StdRng, index: usize) -> SweepOutcome {
        let f = |rng: &mut rand::rngs::StdRng| f64::from_bits(rng.gen::<u64>());
        let fv = |rng: &mut rand::rngs::StdRng, n: u64| (0..n).map(|_| f(rng)).collect::<Vec<_>>();
        let series = (rng.gen::<u64>() % 3 == 0).then(|| {
            let n = rng.gen::<u64>() % 24;
            SweepSeries {
                round_times: fv(rng, n),
                round_skews: fv(rng, n),
                skew_times: fv(rng, n / 2),
                skew_values: fv(rng, n / 2),
                corr_procs: (0..n / 3).map(|_| rng.gen::<u32>()).collect(),
                corr_times: fv(rng, n / 3),
                corr_values: fv(rng, n / 3),
            }
        });
        let sketch = (series.is_none() && rng.gen::<u64>() % 2 == 0).then(|| {
            let mut sketch = crate::SkewSketch::new();
            let samples = rng.gen::<u64>() % 30;
            fv(rng, samples).into_iter().for_each(|v| sketch.observe(v));
            sketch
        });
        SweepOutcome {
            index,
            seed: rng.gen(),
            steady_skew: f(rng),
            max_skew: f(rng),
            agreement_holds: rng.gen::<u64>() % 2 == 0,
            max_abs_adjustment: f(rng),
            mean_abs_adjustment: f(rng),
            adjustment_holds: rng.gen::<u64>() % 2 == 0,
            stats: wl_sim::SimStats {
                events_delivered: rng.gen(),
                messages_sent: rng.gen(),
                timers_set: rng.gen(),
                timers_suppressed: rng.gen(),
            },
            sketch,
            series,
        }
    }

    /// One outcome per payload rung — scalar, sketch, series — over one
    /// scalar half, the sketch derived from the series.
    fn payload_outcomes() -> [SweepOutcome; 3] {
        let scalar = SweepOutcome {
            index: 4,
            seed: 1,
            steady_skew: 2.0,
            max_skew: 3.0,
            agreement_holds: true,
            max_abs_adjustment: 0.5,
            mean_abs_adjustment: 0.25,
            adjustment_holds: true,
            stats: wl_sim::SimStats::default(),
            sketch: None,
            series: None,
        };
        let mut series = scalar.clone();
        series.series = Some(SweepSeries {
            round_times: vec![1.0],
            round_skews: vec![0.5],
            skew_times: vec![0.0, 1.0],
            skew_values: vec![0.25, f64::NAN],
            corr_procs: vec![2],
            corr_times: vec![1.0],
            corr_values: vec![-0.125],
        });
        let mut sketch = scalar.clone();
        sketch.sketch = series.series.as_ref().map(crate::SkewSketch::of_series);
        [scalar, sketch, series]
    }

    /// The record the wire fixtures pin: the sketch outcome of
    /// [`payload_outcomes`] under the first grid point's spec.
    fn fixed_record() -> (ScenarioSpec, Arc<Record>) {
        let [_, sketch, _] = payload_outcomes();
        let spec = grid(1).remove(0);
        let canon = canon_string(&spec.canonical());
        let record = Record::of_outcome(Maintenance::NAME, spec.content_hash(), canon, &sketch);
        (spec, record)
    }

    /// A framed reply, length prefix and checksum included.
    fn framed(reply: &Response) -> Vec<u8> {
        let mut wire = Vec::new();
        write_frame(&mut wire, &encode_response(reply)).unwrap();
        wire
    }

    fn arb_spec(rng: &mut rand::rngs::StdRng) -> ScenarioSpec {
        let f = |rng: &mut rand::rngs::StdRng| f64::from_bits(rng.gen::<u64>());
        let params = Params {
            n: (rng.gen::<u64>() % (1 << 16)) as usize,
            f: (rng.gen::<u64>() % (1 << 16)) as usize,
            rho: f(rng),
            delta: f(rng),
            eps: f(rng),
            beta: f(rng),
            p_round: f(rng),
            t0: f(rng),
            avg: if rng.gen::<u64>() % 2 == 0 {
                AveragingFn::Midpoint
            } else {
                AveragingFn::Mean
            },
            sigma: f(rng),
            exchanges: (rng.gen::<u64>() % (1 << 16)) as usize,
        };
        let drift = match rng.gen::<u64>() % 6 {
            0 => None,
            1 => Some(DriftModel::Ideal),
            2 => Some(DriftModel::EvenSpread { rho: f(rng) }),
            3 => Some(DriftModel::Split { rho: f(rng) }),
            4 => Some(DriftModel::RandomConstant { rho: f(rng) }),
            _ => Some(DriftModel::RandomPiecewise {
                rho: f(rng),
                segment_secs: f(rng),
                horizon_secs: f(rng),
            }),
        };
        let faults = (0..rng.gen::<u64>() % 4)
            .map(|_| {
                let kind = match rng.gen::<u64>() % 6 {
                    0 => FaultKind::CrashAt(f(rng)),
                    1 => FaultKind::Silent,
                    2 => FaultKind::RoundSpam,
                    3 => FaultKind::PullApart(f(rng)),
                    4 => FaultKind::PullApartHigh(f(rng)),
                    _ => FaultKind::TwoFaced(f(rng)),
                };
                (ProcessId((rng.gen::<u64>() % 256) as usize), kind)
            })
            .collect();
        ScenarioSpec {
            params,
            drift,
            delay: match rng.gen::<u64>() % 4 {
                0 => DelayKind::Constant,
                1 => DelayKind::Uniform,
                2 => DelayKind::AdversarialSplit,
                _ => DelayKind::SharedMedium,
            },
            seed: rng.gen(),
            t_end: RealTime::from_secs(f(rng)),
            spread_frac: f(rng),
            faults,
            rejoiner: if rng.gen::<u64>() % 2 == 0 {
                None
            } else {
                Some((
                    ProcessId((rng.gen::<u64>() % 256) as usize),
                    RealTime::from_secs(f(rng)),
                ))
            },
            adversary: if rng.gen::<u64>() % 2 == 0 {
                None
            } else {
                let strategy = match rng.gen::<u64>() % 9 {
                    0 => AdversaryStrategy::Crash { at: f(rng) },
                    1 => AdversaryStrategy::Mute,
                    2 => AdversaryStrategy::Spam,
                    3 => AdversaryStrategy::PullApart {
                        amplitude: f(rng),
                        high: rng.gen::<u64>() % 2 == 0,
                    },
                    4 => AdversaryStrategy::TwoFacedValue { amplitude: f(rng) },
                    5 => AdversaryStrategy::Collude { amplitude: f(rng) },
                    6 => AdversaryStrategy::Churn {
                        up: f(rng),
                        down: f(rng),
                    },
                    7 => AdversaryStrategy::TargetedDelay {
                        victim: (rng.gen::<u64>() % 256) as usize,
                    },
                    _ => AdversaryStrategy::Partition,
                };
                Some(AdversarySpec {
                    members: (0..rng.gen::<u64>() % 4)
                        .map(|_| ProcessId((rng.gen::<u64>() % 256) as usize))
                        .collect(),
                    strategy,
                    seed: rng.gen(),
                })
            },
            trace_capacity: (rng.gen::<u64>() % (1 << 16)) as usize,
            max_events: rng.gen(),
            initial_spread: f(rng),
        }
    }

    #[test]
    fn addr_parse_forms() {
        assert_eq!(ServiceAddr::parse(""), None);
        assert_eq!(ServiceAddr::parse("  "), None);
        assert_eq!(ServiceAddr::parse("0"), None);
        assert_eq!(ServiceAddr::parse("off"), None);
        assert_eq!(
            ServiceAddr::parse("tcp:127.0.0.1:7171"),
            Some(ServiceAddr::Tcp("127.0.0.1:7171".into()))
        );
        assert_eq!(
            ServiceAddr::parse("localhost:9"),
            Some(ServiceAddr::Tcp("localhost:9".into()))
        );
        #[cfg(unix)]
        assert_eq!(
            ServiceAddr::parse("unix:/tmp/x.sock"),
            Some(ServiceAddr::Unix(PathBuf::from("/tmp/x.sock")))
        );
        // Round-trips through Display.
        let addr = ServiceAddr::parse("tcp:[::1]:4000").unwrap();
        assert_eq!(ServiceAddr::parse(&addr.to_string()), Some(addr));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 32,
            .. proptest::prelude::ProptestConfig::default()
        })]

        /// The spec wire codec is exact over arbitrary bit patterns
        /// (NaN payloads, -0.0, subnormals): decode(encode(s)) re-encodes
        /// to the same bytes and hashes to the same content hash.
        #[test]
        fn prop_spec_codec_roundtrip(seed in 0u64..u64::MAX) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            for _ in 0..8 {
                let spec = arb_spec(&mut rng);
                let bytes = encode_spec(&spec);
                let back = decode_spec(&bytes).expect("codec must accept its own output");
                proptest::prop_assert_eq!(&encode_spec(&back), &bytes);
                proptest::prop_assert_eq!(back.content_hash(), spec.content_hash());
            }
        }

        /// Frame + request/response codecs round-trip arbitrary records
        /// and batches through an in-memory pipe.
        #[test]
        fn prop_frame_roundtrip(seed in 0u64..u64::MAX) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let record = arb_record(&mut rng);
            let spec = arb_spec(&mut rng);
            let requests = vec![
                Request::Get {
                    content_hash: rng.gen(),
                    engine_version: ENGINE_VERSION,
                    need: arb_need(&mut rng),
                    algo: record.algo.clone(),
                },
                Request::PutBatch { records: vec![record.clone()] },
                Request::PutBatch {
                    records: vec![record.clone(), arb_record(&mut rng)],
                },
                Request::PutBatch { records: vec![] },
                Request::BatchGet {
                    engine_version: ENGINE_VERSION,
                    need: arb_need(&mut rng),
                    algo: record.algo.clone(),
                    items: vec![
                        BatchItem { content_hash: rng.gen(), spec: encode_spec(&spec) },
                        BatchItem { content_hash: rng.gen(), spec: vec![] },
                    ],
                },
                Request::Stats,
                Request::Shutdown,
            ];
            let responses = vec![
                Response::Found { record: record.clone() },
                Response::Miss,
                Response::Ok,
                Response::Batch { items: vec![Some(record.clone()), None] },
                Response::Stats {
                    stats: ServiceStats {
                        records: rng.gen(),
                        warm_hits: rng.gen(),
                        simulated: rng.gen(),
                        puts: rng.gen(),
                        requests: rng.gen(),
                    },
                },
                Response::Err { message: "refused ∆".into() },
            ];
            let mut wire = Vec::new();
            for req in &requests {
                write_frame(&mut wire, &encode_request(req)).unwrap();
            }
            for resp in &responses {
                write_frame(&mut wire, &encode_response(resp)).unwrap();
            }
            let mut reader: &[u8] = &wire;
            for req in &requests {
                let body = read_frame(&mut reader, None).unwrap().frame().expect("frame");
                proptest::prop_assert_eq!(decode_request(&body).as_ref(), Some(req));
            }
            for resp in &responses {
                let body = read_frame(&mut reader, None).unwrap().frame().expect("frame");
                proptest::prop_assert_eq!(decode_response(&body).as_ref(), Some(resp));
            }
            proptest::prop_assert!(matches!(read_frame(&mut reader, None), Ok(Inbound::Eof)), "clean EOF");
        }

        /// The client's one-pass reply check accepts and returns exactly
        /// what the two-pass oracle — `check_frame`, then
        /// `decode_response` — does, on random replies: intact, with a
        /// flipped bit, and with a flipped bit under a resealed frame
        /// checksum, which only a record's own checksum can catch.
        #[test]
        fn prop_fused_reply_check_equals_two_pass(seed in 0u64..u64::MAX) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let record = arb_record(&mut rng);
            let replies = [
                Response::Found { record: record.clone() },
                Response::Miss,
                Response::Ok,
                Response::Batch { items: vec![Some(record), None, Some(arb_record(&mut rng))] },
                Response::Batch { items: vec![] },
                Response::Stats {
                    stats: ServiceStats {
                        records: rng.gen(),
                        warm_hits: rng.gen(),
                        simulated: rng.gen(),
                        puts: rng.gen(),
                        requests: rng.gen(),
                    },
                },
                Response::Err { message: "refused ∆".into() },
            ];
            for reply in &replies {
                let wire = framed(reply);
                for mutation in ["intact", "flipped", "resealed"] {
                    let mut frame = wire.clone();
                    if mutation != "intact" {
                        let i = 4 + (rng.gen::<u64>() % (wire.len() - 12) as u64) as usize;
                        frame[i] ^= 1 << (rng.gen::<u64>() % 8);
                    }
                    if mutation == "resealed" {
                        frame.truncate(frame.len() - 8);
                        close_frame(&mut frame, 0);
                    }
                    let oracle = check_frame(frame[4..].to_vec()).and_then(|body| decode_response(&body));
                    proptest::prop_assert_eq!(&decode_reply(&frame[4..]), &oracle, "{}", mutation);
                    if mutation == "intact" {
                        proptest::prop_assert_eq!(oracle.as_ref(), Some(reply));
                    }
                }
            }
        }

        /// A live record's kept bytes are `encoded().encode()`, and its
        /// kept `Found` frame is `encode_response`'s body framed, for a record
        /// admitted at a non-zero grid index (which `admit`
        /// re-canonicalizes) and for the same record made by `of_outcome`.
        #[test]
        fn prop_kept_bytes_are_the_encoding(seed in 0u64..u64::MAX) {
            use crate::cache::segment::record_tag;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut arriving = arb_record(&mut rng);
            if rng.gen::<u64>() % 2 == 0 {
                arriving.spec_canon.push_str(",adversary:+Mute");
            }
            let index = 1 + (rng.gen::<u64>() % 4096) as usize;
            let outcome = arb_outcome(&mut rng, index);
            arriving.outcome_canon = canon_string(&outcome);
            arriving.tag = record_tag(outcome.kind(), crate::cache::spec_is_adversarial(&arriving.spec_canon));
            let Admitted::Live(admitted) = Record::admit(arriving.clone()) else {
                panic!("seed {seed}: a canonical outcome under its own tag is live");
            };
            proptest::prop_assert_ne!(&admitted.encoded().outcome_canon, &arriving.outcome_canon);
            let made = Record::of_outcome(
                &arriving.algo,
                arriving.content_hash,
                arriving.spec_canon.clone(),
                &outcome,
            );
            proptest::prop_assert_eq!(made.encoded(), admitted.encoded());
            for record in [&admitted, &made] {
                let want = record.encoded().encode();
                proptest::prop_assert_eq!(record.encoded_bytes(), &want[..]);
                let mut framed = Vec::new();
                let body = encode_response(&Response::Found { record: record.encoded().clone() });
                write_frame(&mut framed, &body).unwrap();
                proptest::prop_assert_eq!(record.found_frame(), &framed[..]);
            }
        }
    }

    /// Mirror of the segment suite's tamper test at the frame layer:
    /// flip any single byte of a framed request and the reader must
    /// reject or differ — never silently yield the original.
    #[test]
    fn frame_tamper_rejection() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let original = Request::PutBatch {
            records: vec![arb_record(&mut rng), fixed_record().1.encoded().clone()],
        };
        let Request::PutBatch { records } = &original else {
            unreachable!()
        };
        // The put as clients send it, its payloads raw, and as older
        // clients sent it, each payload in its smallest encoding.
        let raw = encode_request(&original);
        let canonical = canonical_put_body(records);
        assert_ne!(raw, canonical);
        for body in [raw, canonical] {
            let mut wire = Vec::new();
            write_frame(&mut wire, &body).unwrap();
            for i in 0..wire.len() {
                let mut bad = wire.clone();
                bad[i] ^= 0x40;
                let mut reader: &[u8] = &bad;
                match read_frame(&mut reader, None).map(Inbound::frame) {
                    Err(_) => {}
                    Ok(None) => {}
                    Ok(Some(read_body)) => {
                        // A length-prefix flip can reframe the stream; the
                        // checksum must still keep the *content* honest.
                        assert_ne!(
                            decode_request(&read_body).as_ref(),
                            Some(&original),
                            "flip at byte {i} went unnoticed"
                        );
                    }
                }
            }
            // Truncation inside a frame is an error, not a short read.
            let mut truncated: &[u8] = &wire[..wire.len() - 1];
            assert!(read_frame(&mut truncated, None).is_err());
        }
        // A `Found` and a `Batch` reply through the client's read path,
        // whose one pass checks the frame's and each record's checksum:
        // every single-byte flip is refused.
        let record = fixed_record().1.encoded().clone();
        for reply in [
            Response::Found {
                record: record.clone(),
            },
            Response::Batch {
                items: vec![Some(record.clone()), None, Some(record.clone())],
            },
        ] {
            let wire = framed(&reply);
            assert_eq!(read_reply(&mut buffered(&wire[..])).unwrap(), reply);
            for i in 0..wire.len() {
                let mut bad = wire.clone();
                bad[i] ^= 0x40;
                assert!(
                    read_reply(&mut buffered(&bad[..])).is_err(),
                    "flip at byte {i} of a {:#x} reply went unnoticed",
                    wire[4]
                );
            }
        }
        // Opcode 0x02 (the retired single-record put) is not a request:
        // the server answers such a frame "malformed request".
        let mut retired = vec![0x02];
        retired.extend_from_slice(&records[0].encode());
        assert_eq!(decode_request(&retired), None);
        // Delay tag 4 is not a delay model: the tag byte is the one that
        // tells the last two kinds apart, and one past the last is refused.
        let spec = grid(1).remove(0);
        let split = encode_spec(&spec.clone().delay(DelayKind::AdversarialSplit));
        let mut medium = encode_spec(&spec.delay(DelayKind::SharedMedium));
        let tag = (0..medium.len())
            .find(|&i| split[i] != medium[i])
            .expect("tag byte");
        assert_eq!((split[tag], medium[tag]), (2, 3));
        assert!(decode_spec(&medium).is_some());
        medium[tag] = 4;
        assert_eq!(decode_spec(&medium), None);
    }

    #[test]
    fn oversized_and_undersized_frames_are_rejected() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        wire.extend_from_slice(&[0u8; 16]);
        assert!(read_frame(&mut &wire[..], None).is_err());
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MIN_FRAME - 1).to_le_bytes());
        wire.extend_from_slice(&[0u8; 16]);
        assert!(read_frame(&mut &wire[..], None).is_err());
    }

    /// A hostile peer: the largest legal length prefix, then nothing.
    /// The reader must report the truncation having never offered the
    /// stream more than the bounded reservation to fill.
    #[test]
    fn hostile_length_prefix_allocates_only_what_arrives() {
        struct PrefixThenEof {
            prefix: Vec<u8>,
            largest_offer: usize,
        }
        impl Read for PrefixThenEof {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                let n = self.prefix.len().min(buf.len());
                if n == 0 {
                    self.largest_offer = self.largest_offer.max(buf.len());
                }
                buf[..n].copy_from_slice(&self.prefix[..n]);
                self.prefix.drain(..n);
                Ok(n)
            }
        }
        let mut peer = PrefixThenEof {
            prefix: MAX_FRAME.to_le_bytes().to_vec(),
            largest_offer: 0,
        };
        let err = read_frame(&mut peer, None).map(Inbound::frame).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(
            (1..=FRAME_RESERVE).contains(&peer.largest_offer),
            "body buffer offered {} bytes on a 4-byte stream",
            peer.largest_offer
        );
    }

    /// A frame is one `write` call — length, body and checksum together —
    /// so no small write is left for Nagle's algorithm to hold back.
    #[test]
    fn a_frame_is_one_write_call() {
        #[derive(Default)]
        struct CountingWriter {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for CountingWriter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        for len in [0, 1, FRAME_RESERVE + 1] {
            let body: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let mut w = CountingWriter::default();
            write_frame(&mut w, &body).unwrap();
            assert_eq!(w.writes, 1, "a {len}-byte body");
            let mut frame = u32::try_from(len + 8).unwrap().to_le_bytes().to_vec();
            frame.extend_from_slice(&body);
            frame.extend_from_slice(&fnv64(&body).to_le_bytes());
            assert_eq!(w.bytes, frame, "a {len}-byte body");
        }
    }

    /// A reply whose frame checksum holds around a record whose own
    /// checksum does not is refused as `InvalidData`: flip any byte of a
    /// `Found` or `Batch` body, reseal the frame, and the client's one
    /// pass still catches it — as the two-pass oracle does.
    #[test]
    fn a_record_failing_its_own_checksum_is_refused_inside_a_sound_frame() {
        let record = fixed_record().1.encoded().clone();
        for reply in [
            Response::Found {
                record: record.clone(),
            },
            Response::Batch {
                items: vec![None, Some(record.clone())],
            },
        ] {
            let wire = framed(&reply);
            for i in 4..wire.len() - 8 {
                let mut bad = wire[..wire.len() - 8].to_vec();
                bad[i] ^= 0x01;
                close_frame(&mut bad, 0);
                let body = check_frame(bad[4..].to_vec()).expect("the frame checksum holds");
                assert_eq!(decode_response(&body), None, "oracle, flip at byte {i}");
                let err = read_reply(&mut buffered(&bad[..])).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "flip at byte {i}");
            }
        }
    }

    /// A stream that hands out its bytes in chunks of the given sizes,
    /// cycling through them, and counts its `read` calls.
    struct Chunked {
        bytes: Vec<u8>,
        at: usize,
        sizes: Vec<usize>,
        reads: usize,
    }

    impl Read for Chunked {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let size = self.sizes[self.reads % self.sizes.len()];
            self.reads += 1;
            let n = size.min(buf.len()).min(self.bytes.len() - self.at);
            buf[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    /// Frames decode through a connection's read buffer however the
    /// stream splits them — one byte per read, two frames in one read, a
    /// length prefix split across reads — and two frames that arrived
    /// whole cost one `read`.
    #[test]
    fn buffered_frames_decode_however_the_stream_splits_them() {
        let replies = [
            Response::Found {
                record: fixed_record().1.encoded().clone(),
            },
            Response::Miss,
        ];
        let wire: Vec<u8> = replies.iter().flat_map(framed).collect();
        let first = framed(&replies[0]).len();
        let cases = [
            ("one byte per read", vec![1], wire.len()),
            ("two frames in one read", vec![usize::MAX], 1),
            (
                "length prefixes split across reads",
                vec![2, first - 2, 3, usize::MAX],
                4,
            ),
        ];
        for (case, sizes, reads) in cases {
            let mut conn = buffered(Chunked {
                bytes: wire.clone(),
                at: 0,
                sizes,
                reads: 0,
            });
            for reply in &replies {
                assert_eq!(&read_reply(&mut conn).unwrap(), reply, "{case}");
            }
            assert_eq!(conn.get_ref().reads, reads, "{case}");
            let end = read_unchecked(&mut conn, None).unwrap();
            assert!(matches!(end, Inbound::Eof), "{case}");
        }
    }

    /// A client whose reply failed its checksum drops the connection and
    /// the bytes buffered behind that reply, then reconnects: a well-formed
    /// frame sent right after the bad one is never read as a reply —
    /// neither on a pooled connection (retried once, transparently) nor
    /// on a fresh one (the error surfaces).
    #[test]
    fn a_client_drops_a_failed_connection_with_its_buffered_bytes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = ServiceAddr::Tcp(listener.local_addr().unwrap().to_string());
        let stats = |records| {
            framed(&Response::Stats {
                stats: ServiceStats {
                    records,
                    ..ServiceStats::default()
                },
            })
        };
        let bad_then_leftover = || {
            let mut bytes = stats(0);
            let last = bytes.len() - 1;
            bytes[last] ^= 0x01;
            bytes.extend_from_slice(&stats(99));
            bytes
        };
        // Per connection, the bytes sent after each request read.
        let script = [
            vec![stats(1), bad_then_leftover()],
            vec![stats(2), bad_then_leftover()],
            vec![bad_then_leftover()],
            vec![stats(3)],
        ];
        let server = std::thread::spawn(move || {
            let mut held = Vec::new();
            for replies in script {
                let (mut stream, _) = listener.accept().unwrap();
                for reply in replies {
                    read_frame(&mut stream, None).unwrap();
                    stream.write_all(&reply).unwrap();
                }
                held.push(stream);
            }
        });
        let mut client = ServiceClient::new(addr);
        assert_eq!(client.stats().unwrap().records, 1);
        // Pooled: the bad reply drops the first connection, the retry
        // reads the second's answer.
        assert_eq!(client.stats().unwrap().records, 2);
        // A bad reply on the pooled connection and on the fresh one its
        // retry opens: the caller's error, and nothing of either
        // survives into the next request's connection.
        let err = client.stats().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(client.conn.is_none(), "the failed connection is dropped");
        assert_eq!(client.stats().unwrap().records, 3);
        server.join().unwrap();
    }

    /// Both ends of a service TCP connection — the client's connect and
    /// the server's accept — switch Nagle's algorithm off.
    #[test]
    fn tcp_streams_set_nodelay_on_both_ends() {
        let (listener, addr) = Listener::bind(&ServiceAddr::Tcp("127.0.0.1:0".into())).unwrap();
        let client = Stream::connect(&addr).unwrap();
        let server = listener.accept().unwrap();
        for (end, stream) in [("client", client), ("server", server)] {
            let Stream::Tcp(stream) = stream else {
                panic!("{end}: a TCP address gives a TCP stream");
            };
            assert!(stream.nodelay().unwrap(), "{end} end");
        }
    }

    /// The server's reply bodies are the public codec's bytes: a `Get`
    /// hit, and a `BatchGet` mixing hits with an unresolved slot, over
    /// scalar, sketch, series and adversarial records — on the first
    /// reply, which fills each record's kept bytes, and on a repeat,
    /// which reuses them. Each order runs on fresh records, so both
    /// opcodes are checked filling the bytes.
    #[test]
    fn served_replies_equal_encode_response() {
        let [scalar, sketch, series] = payload_outcomes();
        let specs = grid(3);
        let adversarial = specs[0].clone().adversary(AdversarySpec::new(
            vec![ProcessId(0)],
            AdversaryStrategy::Mute,
        ));
        let points = [
            (&specs[0], &scalar),
            (&specs[1], &sketch),
            (&specs[2], &series),
            (&adversarial, &sketch),
        ];
        let cfg = ServeConfig::new(ServiceAddr::Tcp("127.0.0.1:0".into()), tmp_store("replies"));
        let get = |spec: &ScenarioSpec| Request::Get {
            content_hash: spec.content_hash(),
            engine_version: ENGINE_VERSION,
            need: Capture::Scalar,
            algo: Maintenance::NAME.into(),
        };
        // Every point, with an undecodable spec in the middle.
        let mut items: Vec<BatchItem> = points
            .iter()
            .map(|(spec, _)| BatchItem {
                content_hash: spec.content_hash(),
                spec: encode_spec(spec),
            })
            .collect();
        items.insert(
            2,
            BatchItem {
                content_hash: 7,
                spec: vec![],
            },
        );
        let batch = Request::BatchGet {
            engine_version: ENGINE_VERSION,
            need: Capture::Scalar,
            algo: Maintenance::NAME.into(),
            items,
        };
        for batch_first in [true, false] {
            let mut store = SweepStore::new();
            let mut held = Vec::new();
            for (spec, outcome) in points {
                let canon = canon_string(&spec.canonical());
                let record =
                    Record::of_outcome(Maintenance::NAME, spec.content_hash(), canon, outcome);
                assert!(store.insert(Arc::clone(&record)).unwrap());
                held.push(record.encoded().clone());
            }
            let tags: Vec<u8> = held.iter().map(|r| r.tag).collect();
            assert_eq!(tags, [TAG_SCALAR, TAG_SKETCH, TAG_SERIES, TAG_ADV_SKETCH]);
            let core = Mutex::new(Core::new(store));
            let reply = |request: &Request| dispatch(request.clone(), &core, &cfg);
            let mut slots: Vec<Option<EncodedRecord>> = held.iter().cloned().map(Some).collect();
            slots.insert(2, None);
            let want_batch = encode_response(&Response::Batch { items: slots });
            for pass in ["first", "repeat"] {
                if batch_first {
                    assert_eq!(reply(&batch).unwrap(), want_batch, "{pass} batch");
                }
                for ((spec, _), record) in points.iter().zip(&held) {
                    let want = encode_response(&Response::Found {
                        record: record.clone(),
                    });
                    assert_eq!(
                        reply(&get(spec)).unwrap(),
                        want,
                        "{pass} get, tag {}",
                        record.tag
                    );
                }
                if !batch_first {
                    assert_eq!(reply(&batch).unwrap(), want_batch, "{pass} batch");
                }
            }
            let stats = core.into_inner().unwrap().stats();
            assert_eq!((stats.warm_hits, stats.simulated), (16, 0));
        }
    }

    /// The wire, pinned: the exact bytes of a `Found` frame and of a
    /// two-slot `Batch` frame (the record, then an unresolved slot) for
    /// one fixed sketch record are checked in under `tests/fixtures/`.
    /// Regenerate only after an intended protocol change, with
    /// `WL_UPDATE_GOLDEN=1 cargo test -p wl-harness --lib wire_frames`.
    #[test]
    fn wire_frames_match_golden_fixtures() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
        let (spec, record) = fixed_record();
        let encoded = record.encoded().clone();
        let found = framed(&Response::Found {
            record: encoded.clone(),
        });
        let batch_frame = framed(&Response::Batch {
            items: vec![Some(encoded), None],
        });
        let fixtures = [
            ("wire-found.frame", &found),
            ("wire-batch.frame", &batch_frame),
        ];
        if std::env::var("WL_UPDATE_GOLDEN").is_ok() {
            for (name, bytes) in fixtures {
                std::fs::write(dir.join(name), bytes).unwrap();
            }
        }
        for (name, bytes) in fixtures {
            let frozen = std::fs::read(dir.join(name)).expect("checked-in wire fixture");
            assert_eq!(&frozen, bytes, "{name} drifted from the golden fixture");
        }
        // The server sends the same bytes: a hit writes the record's kept
        // frame, and a batch resolves the record beside an undecodable
        // spec — on the first reply, which builds the frame, and on a
        // repeat, which reuses it.
        let mut store = SweepStore::new();
        assert!(store.insert(record).unwrap());
        let core = Mutex::new(Core::new(store));
        let cfg = ServeConfig::new(ServiceAddr::Tcp("127.0.0.1:0".into()), tmp_store("wire"));
        let get = Request::Get {
            content_hash: spec.content_hash(),
            engine_version: ENGINE_VERSION,
            need: Capture::Sketch,
            algo: Maintenance::NAME.into(),
        };
        let batch = Request::BatchGet {
            engine_version: ENGINE_VERSION,
            need: Capture::Sketch,
            algo: Maintenance::NAME.into(),
            items: vec![
                BatchItem {
                    content_hash: spec.content_hash(),
                    spec: encode_spec(&spec),
                },
                BatchItem {
                    content_hash: 7,
                    spec: vec![],
                },
            ],
        };
        for request in [&batch, &get, &get, &batch] {
            let mut sent = Vec::new();
            let reply = dispatch(request.clone(), &core, &cfg).unwrap();
            reply.write_to(&mut sent).unwrap();
            let want = if matches!(request, Request::Get { .. }) {
                &found
            } else {
                &batch_frame
            };
            assert_eq!(&sent, want, "served {:?}", reply.body()[0]);
        }
    }

    /// The records a local run of `specs` writes, in grid order — what a
    /// client puts back for the points a server left unresolved.
    fn simulated_records(specs: &[ScenarioSpec], need: Capture) -> Vec<EncodedRecord> {
        specs
            .iter()
            .map(|spec| {
                let canon = canon_string(&spec.canonical());
                let outcome = run_point_as::<Maintenance>(need, 0, spec, None);
                let record =
                    Record::of_outcome(Maintenance::NAME, spec.content_hash(), canon, &outcome);
                record.encoded().clone()
            })
            .collect()
    }

    /// End-to-end over TCP on an ephemeral port: a cold batch-get leaves
    /// every slot unresolved and simulates nothing, a put-batch of the
    /// client's own runs resolves them, warm get hits, stats count,
    /// shutdown saves canonically.
    #[test]
    fn tcp_end_to_end() {
        let store_path = tmp_store("tcp-e2e");
        let _ = std::fs::remove_file(&store_path);
        let cfg = ServeConfig::new(ServiceAddr::Tcp("127.0.0.1:0".into()), &store_path);
        let (tx, rx) = std::sync::mpsc::channel();
        let server =
            std::thread::spawn(move || serve(&cfg, move |addr| tx.send(addr.clone()).unwrap()));
        let addr = rx.recv().expect("server ready");
        let mut client = ServiceClient::new(addr);

        let specs = grid(3);
        let points: Vec<(u64, &ScenarioSpec)> =
            specs.iter().map(|s| (s.content_hash(), s)).collect();
        // Cold: the server stores, it never simulates — every slot comes
        // back unresolved and nothing is inserted.
        let cold = client
            .batch_get(Maintenance::NAME, Capture::Scalar, &points)
            .unwrap();
        assert_eq!(cold, vec![None; 3]);
        assert_eq!(client.stats().unwrap().records, 0);
        // The client runs the points and puts them back; the same
        // batch-get now resolves every slot to the record put.
        let records = simulated_records(&specs, Capture::Scalar);
        client.put_batch(&records).unwrap();
        let got = client
            .batch_get(Maintenance::NAME, Capture::Scalar, &points)
            .unwrap();
        assert_eq!(got, records.iter().cloned().map(Some).collect::<Vec<_>>());
        for ((hash, spec), record) in points.iter().zip(&got) {
            let record = record.as_ref().unwrap();
            assert_eq!(record.content_hash, *hash);
            assert_eq!(record.spec_canon, canon_string(&spec.canonical()));
            let Admitted::Live(admitted) = Record::admit(record.clone()) else {
                panic!("served records are live records");
            };
            assert_eq!(
                admitted.outcome().index,
                0,
                "stored outcomes are index-normalized"
            );
        }
        // Warm: a single get hits the same record.
        let warm = client
            .get(points[0].0, Maintenance::NAME, Capture::Scalar)
            .unwrap()
            .expect("warm hit");
        assert_eq!(&warm, got[0].as_ref().unwrap());
        // A series-requiring get over a scalar record is a miss.
        assert!(client
            .get(points[0].0, Maintenance::NAME, Capture::Series)
            .unwrap()
            .is_none());
        // A sketch-requiring get over a scalar record is also a miss.
        assert!(client
            .get(points[0].0, Maintenance::NAME, Capture::Sketch)
            .unwrap()
            .is_none());
        // Unknown algorithm: unresolved slots, not an error.
        let unknown = client
            .batch_get("no-such-algo", Capture::Scalar, &points[..1])
            .unwrap();
        assert_eq!(unknown, vec![None]);
        // A horizon too short for the agreement window is a point no run
        // fills: its slot is unresolved (the client's own run names the
        // minimum), the point beside it resolves, and the server goes on
        // answering below.
        let short = specs[0].clone().t_end(RealTime::from_secs(0.5));
        let mixed = client
            .batch_get(
                Maintenance::NAME,
                Capture::Scalar,
                &[(short.content_hash(), &short), points[1]],
            )
            .unwrap();
        assert_eq!(mixed, vec![None, got[1].clone()]);
        // Put a foreign record and read it back.
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut foreign = arb_record(&mut rng);
        foreign.tag = TAG_SCALAR;
        foreign.outcome_canon = {
            let outcome = SweepOutcome {
                index: 0,
                seed: 1,
                steady_skew: 2.0,
                max_skew: 3.0,
                agreement_holds: true,
                max_abs_adjustment: 0.5,
                mean_abs_adjustment: 0.25,
                adjustment_holds: true,
                stats: wl_sim::SimStats::default(),
                sketch: None,
                series: None,
            };
            canon_string(&outcome)
        };
        client.put_batch(std::slice::from_ref(&foreign)).unwrap();
        let back = client
            .get(foreign.content_hash, &foreign.algo, Capture::Scalar)
            .unwrap()
            .expect("put record readable");
        assert_eq!(back, foreign);
        // A conflicting put (same key, different outcome) is refused.
        let mut conflicting = foreign.clone();
        conflicting.outcome_canon = conflicting.outcome_canon.replace("seed:1", "seed:9");
        assert!(client.put_batch(&[conflicting]).is_err());

        let stats = client.stats().unwrap();
        assert_eq!(stats.records, 4);
        assert_eq!(stats.simulated, 0, "the server never simulates");
        assert!(stats.warm_hits >= 2);
        assert_eq!(stats.puts, 4);

        client.shutdown().unwrap();
        let report = server.join().unwrap().unwrap();
        assert_eq!(report.stats.records, 4);

        // The shut-down store is canonical and fully loadable.
        let store = SweepStore::open(&store_path).unwrap();
        assert_eq!(store.len(), 4);
        assert_eq!(store.skipped_lines(), 0);
        let _ = std::fs::remove_file(&store_path);
    }

    /// Specs that decode and hash but that `assemble` refuses — a fault
    /// id ≥ n, a non-positive churn phase, an out-of-range victim — come
    /// back unresolved beside a point a client put back, the server runs
    /// none of them, and it still shuts down through its canonical save:
    /// its store file is the one a local sweep of the good point writes.
    #[test]
    fn a_point_the_server_cannot_assemble_is_unresolved_and_shutdown_still_saves() {
        let store_path = tmp_store("refused-point");
        let _ = std::fs::remove_file(&store_path);
        let cfg = ServeConfig::new(ServiceAddr::Tcp("127.0.0.1:0".into()), &store_path);
        let (tx, rx) = std::sync::mpsc::channel();
        let server =
            std::thread::spawn(move || serve(&cfg, move |addr| tx.send(addr.clone()).unwrap()));
        let mut client = ServiceClient::new(rx.recv().expect("server ready"));

        let good = grid(1).pop().unwrap();
        let adversary = |strategy| {
            good.clone()
                .adversary(AdversarySpec::new(vec![ProcessId(0)], strategy))
        };
        let refused = [
            good.clone().fault(ProcessId(99), FaultKind::Silent),
            adversary(AdversaryStrategy::Churn { up: 1.0, down: 0.0 }),
            adversary(AdversaryStrategy::TargetedDelay { victim: 9 }),
        ];
        let mut points: Vec<(u64, &ScenarioSpec)> =
            refused.iter().map(|s| (s.content_hash(), s)).collect();
        points.push((good.content_hash(), &good));
        // The good point, run here and put back as a client tier would.
        let good_record = simulated_records(std::slice::from_ref(&good), Capture::Scalar);
        client.put_batch(&good_record).unwrap();
        let got = client
            .batch_get(Maintenance::NAME, Capture::Scalar, &points)
            .unwrap();
        assert_eq!(
            got.iter().map(Option::is_some).collect::<Vec<_>>(),
            [false, false, false, true]
        );
        let stats = client.stats().unwrap();
        assert_eq!((stats.simulated, stats.records), (0, 1));

        client.shutdown().unwrap();
        let report = server.join().expect("serve did not panic");
        assert_eq!(report.expect("serve returned Ok").stats.records, 1);

        let cache = SweepCache::new();
        let _ = run_point_as::<Maintenance>(Capture::Scalar, 0, &good, Some(&cache));
        let mut local = SweepStore::new();
        local.absorb(&cache);
        let local_path = tmp_store("refused-point-local");
        local.save_to(&local_path).unwrap();
        assert_eq!(
            std::fs::read(&store_path).unwrap(),
            std::fs::read(&local_path).unwrap(),
            "the shut-down store is canonical"
        );
        let _ = std::fs::remove_file(&store_path);
        let _ = std::fs::remove_file(&local_path);
    }

    /// Batched puts: one frame inserts many records under one lock and
    /// one checkpoint; an engine mismatch refuses the whole batch; a
    /// conflicting record keeps the records ahead of it durable.
    #[test]
    fn tcp_put_batch() {
        let store_path = tmp_store("put-batch");
        let _ = std::fs::remove_file(&store_path);
        let cfg = ServeConfig::new(ServiceAddr::Tcp("127.0.0.1:0".into()), &store_path);
        let (tx, rx) = std::sync::mpsc::channel();
        let server =
            std::thread::spawn(move || serve(&cfg, move |addr| tx.send(addr.clone()).unwrap()));
        let addr = rx.recv().expect("server ready");
        let mut client = ServiceClient::new(addr);

        // Simulate locally, then contribute the whole grid as one frame.
        let specs = grid(3);
        let records = simulated_records(&specs, Capture::Scalar);
        client.put_batch(&records).unwrap();
        let stats = client.stats().unwrap();
        assert_eq!(stats.puts, 3);
        assert_eq!(stats.records, 3);
        assert_eq!(stats.simulated, 0, "the server never simulated");
        // Re-putting the same batch changes nothing.
        client.put_batch(&records).unwrap();
        assert_eq!(client.stats().unwrap().puts, 3);
        // Every record is now a warm hit.
        let warm = client
            .get(specs[1].content_hash(), Maintenance::NAME, Capture::Scalar)
            .unwrap()
            .expect("warm hit");
        assert_eq!(warm, records[1]);

        // A batch holding a stale-engine record is refused whole.
        let mut stale = records[0].clone();
        stale.engine_version = ENGINE_VERSION + 1;
        assert!(client.put_batch(&[stale]).is_err());
        // A batch with a conflict mid-way keeps the good prefix: the
        // fresh record before the conflicting one lands durably.
        let fresh = simulated_records(&grid(5)[4..], Capture::Scalar).remove(0);
        let mut conflicting = records[2].clone();
        conflicting.outcome_canon = conflicting.outcome_canon.replace(':', ";");
        assert!(client.put_batch(&[fresh.clone(), conflicting]).is_err());
        let stats = client.stats().unwrap();
        assert_eq!(stats.puts, 4, "prefix of a refused batch still lands");
        assert_eq!(stats.records, 4);
        client.shutdown().unwrap();
        let report = server.join().unwrap().unwrap();
        assert_eq!(report.stats.records, 4);
        let _ = std::fs::remove_file(&store_path);
    }

    /// A `PutBatch` body with every payload in its smallest encoding —
    /// the bytes a client sent before puts travelled raw.
    fn canonical_put_body(records: &[EncodedRecord]) -> Vec<u8> {
        let mut body = vec![OP_PUT_BATCH];
        body.extend_from_slice(&u32::try_from(records.len()).unwrap().to_le_bytes());
        for record in records {
            record.encode_into(&mut body);
        }
        body
    }

    /// A put framed as older clients framed it and one framed raw, each
    /// to its own server: the same records decode from both, both
    /// servers write the same store bytes, at the checkpoint and at
    /// shutdown, and serve the same canonical `Found` frames.
    #[test]
    fn canonical_and_raw_puts_store_and_serve_the_same_bytes() {
        let specs = grid(3);
        let records = simulated_records(&specs, Capture::Sketch);
        let raw = encode_request(&Request::PutBatch {
            records: records.clone(),
        });
        let canonical = canonical_put_body(&records);
        assert!(raw.len() > canonical.len(), "a raw put is not compressed");
        for body in [&raw, &canonical] {
            assert_eq!(
                decode_request(body),
                Some(Request::PutBatch {
                    records: records.clone()
                })
            );
        }
        let served = |name: &str, body: &[u8]| {
            let store_path = tmp_store(name);
            let _ = std::fs::remove_file(&store_path);
            let cfg = ServeConfig::new(ServiceAddr::Tcp("127.0.0.1:0".into()), &store_path);
            let (tx, rx) = std::sync::mpsc::channel();
            let server =
                std::thread::spawn(move || serve(&cfg, move |addr| tx.send(addr.clone()).unwrap()));
            let addr = rx.recv().expect("server ready");
            let mut client = ServiceClient::new(addr.clone());
            assert_eq!(client.send(body).unwrap(), Response::Ok);
            let checkpointed = std::fs::read(&store_path).unwrap();
            let found: Vec<Vec<u8>> = specs
                .iter()
                .map(|spec| {
                    let get = Request::Get {
                        content_hash: spec.content_hash(),
                        engine_version: ENGINE_VERSION,
                        need: Capture::Sketch,
                        algo: Maintenance::NAME.into(),
                    };
                    let mut stream = Stream::connect(&addr).unwrap();
                    write_frame(&mut stream, &encode_request(&get)).unwrap();
                    read_unchecked(&mut stream, None)
                        .unwrap()
                        .frame()
                        .expect("a reply")
                })
                .collect();
            client.shutdown().unwrap();
            server.join().unwrap().unwrap();
            let saved = std::fs::read(&store_path).unwrap();
            let _ = std::fs::remove_file(&store_path);
            (checkpointed, saved, found)
        };
        let (checkpointed, saved, found) = served("put-canonical", &canonical);
        assert_eq!(
            (checkpointed, saved, found.clone()),
            served("put-raw", &raw)
        );
        for (frame, record) in found.iter().zip(&records) {
            let reply = framed(&Response::Found {
                record: record.clone(),
            });
            assert_eq!(frame[..], reply[4..], "a canonical Found frame");
        }
    }

    /// One admission table: every way an arriving record can be wrong,
    /// through every carrier a record can arrive on. `Record::admit` is
    /// the one judge, so each carrier must classify each case the same
    /// way — a store load skips the corrupt and retains the stale, the
    /// wire insert refuses both, the client tier leaves both unresolved.
    #[test]
    fn admission_table_across_carriers() {
        use crate::cache::segment::{
            write_file, DEFAULT_SEGMENT_CAPACITY, TAG_ADV_SCALAR, TAG_ADV_SERIES,
        };
        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Class {
            Live,
            Stale,
            Corrupt,
        }
        use Class::{Corrupt, Live, Stale};

        let plain = grid(1).remove(0);
        let adversarial = plain.clone().adversary(AdversarySpec::new(
            vec![ProcessId(0)],
            AdversaryStrategy::Mute,
        ));
        let [scalar, sketch, series] = payload_outcomes();
        let record = |spec: &ScenarioSpec, outcome: &SweepOutcome| {
            let canon = canon_string(&spec.canonical());
            let record = Record::of_outcome(Maintenance::NAME, spec.content_hash(), canon, outcome);
            record.encoded().clone()
        };
        // What `of_outcome` stamps: one tag per (payload, adversary) pair.
        let tags = [
            (&plain, [TAG_SCALAR, TAG_SKETCH, TAG_SERIES]),
            (
                &adversarial,
                [TAG_ADV_SCALAR, TAG_ADV_SKETCH, TAG_ADV_SERIES],
            ),
        ];
        for (spec, want) in tags {
            let got = [&scalar, &sketch, &series].map(|outcome| record(spec, outcome).tag);
            assert_eq!(got, want);
        }

        let retag = |mut encoded: EncodedRecord, tag: u8| {
            encoded.tag = tag;
            encoded
        };
        let cases: Vec<(&str, &ScenarioSpec, EncodedRecord, Class)> = vec![
            ("plain scalar", &plain, record(&plain, &scalar), Live),
            (
                "adversarial series",
                &adversarial,
                record(&adversarial, &series),
                Live,
            ),
            (
                "tag says richer than payload",
                &plain,
                retag(record(&plain, &scalar), TAG_SERIES),
                Corrupt,
            ),
            (
                "tag says poorer than payload",
                &plain,
                retag(record(&plain, &series), TAG_SCALAR),
                Corrupt,
            ),
            (
                "adversarial tag on a plain spec",
                &plain,
                retag(record(&plain, &scalar), TAG_ADV_SCALAR),
                Corrupt,
            ),
            (
                "plain tag on an adversarial spec",
                &adversarial,
                retag(record(&adversarial, &scalar), TAG_SCALAR),
                Corrupt,
            ),
            (
                "unparseable outcome",
                &plain,
                EncodedRecord {
                    outcome_canon: "SweepOutcome{index:zero}".into(),
                    ..record(&plain, &scalar)
                },
                Corrupt,
            ),
            (
                "other engine version",
                &plain,
                EncodedRecord {
                    engine_version: ENGINE_VERSION - 1,
                    ..record(&plain, &scalar)
                },
                Stale,
            ),
        ];
        let path = tmp_store("admission");
        for (name, spec, encoded, want) in cases {
            // Text line and binary record, via `SweepStore::open`: the
            // corrupt are skipped, the stale retained, the live loaded.
            let prefix = format!(
                "{} {:016x} {} {} {} {}",
                encoded.tag as char,
                encoded.content_hash,
                encoded.engine_version,
                canon_string(&encoded.algo),
                encoded.spec_canon,
                encoded.outcome_canon,
            );
            let line = format!("wlsweep 1\n{prefix} {:016x}\n", fnv64(prefix.as_bytes()));
            let binary = write_file([&encoded], DEFAULT_SEGMENT_CAPACITY);
            for (carrier, bytes) in [("text", line.into_bytes()), ("binary", binary)] {
                std::fs::write(&path, bytes).unwrap();
                let store = SweepStore::open(&path).unwrap();
                let got = (store.len(), store.stale_records(), store.skipped_lines());
                let expect = match want {
                    Live => (1, 0, 0),
                    Stale => (0, 1, 0),
                    Corrupt => (0, 0, 1),
                };
                assert_eq!(got, expect, "{name} via a {carrier} store");
                let adversarial_len = usize::from(want == Live && spec.adversary.is_some());
                assert_eq!(store.adversarial_len(), adversarial_len, "{name}");
            }
            // Wire record, via `insert_encoded`: all but the live refused.
            let mut store = SweepStore::new();
            let accepted = store.insert_encoded(encoded.clone()).is_ok();
            assert_eq!(accepted, want == Live, "{name} via the wire");
            assert_eq!(store.len(), usize::from(want == Live), "{name}");
            // Client tier, via a `Response::Batch` item from a server
            // that answers anything: all but the live stay unresolved.
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = ServiceAddr::Tcp(listener.local_addr().unwrap().to_string());
            let items = vec![Some(encoded)];
            let server = std::thread::spawn(move || {
                let (mut stream, _) = listener.accept().unwrap();
                let _request = read_frame(&mut stream, None).unwrap();
                write_frame(&mut stream, &encode_response(&Response::Batch { items })).unwrap();
            });
            let cache = SweepCache::new();
            let served = ServiceSweepCache::new(addr).prefetch::<Maintenance>(
                std::slice::from_ref(spec),
                Capture::Scalar,
                &cache,
            );
            server.join().unwrap();
            let resolved = usize::from(want == Live);
            assert_eq!(
                (served, cache.len()),
                (resolved, resolved),
                "{name} via the client tier"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    /// The cache tier end-to-end over a unix socket: a cold prefetch
    /// seeds nothing, the sweep runs locally and the tier puts every
    /// point back; a later tier's prefetch then seeds the local cache so
    /// the sweep loop sees pure hits; and a dead server degrades to a
    /// no-op instead of failing the sweep.
    #[cfg(unix)]
    #[test]
    fn service_tier_prefetch_and_degrade() {
        let store_path = tmp_store("tier");
        let sock =
            std::env::temp_dir().join(format!("wl-service-{}-tier.sock", std::process::id()));
        let _ = std::fs::remove_file(&store_path);
        let cfg = ServeConfig::new(ServiceAddr::Unix(sock), &store_path);
        let (tx, rx) = std::sync::mpsc::channel();
        let server =
            std::thread::spawn(move || serve(&cfg, move |addr| tx.send(addr.clone()).unwrap()));
        let addr = rx.recv().expect("server ready");

        let specs = grid(4);
        let runner = crate::sweep::SweepRunner::serial();
        let sweep = |cache: &SweepCache| {
            runner.run(specs.clone(), |i, s| {
                run_point_as::<Maintenance>(Capture::Scalar, i, s, Some(cache))
            })
        };
        // Cold: nothing to seed, so the sweep runs every point and the
        // tier puts all of them back in one batch.
        let cold_tier = ServiceSweepCache::new(addr.clone());
        let cold = SweepCache::new();
        assert_eq!(
            cold_tier.prefetch::<Maintenance>(&specs, Capture::Scalar, &cold),
            0
        );
        assert_eq!(sweep(&cold).len(), 4);
        assert_eq!(cold.misses(), 4);
        cold_tier.push_back::<Maintenance>(&cold);
        assert_eq!(cold_tier.pushed(), 4);

        // Warm: a fresh tier's prefetch seeds every point.
        let tier = ServiceSweepCache::new(addr.clone());
        let cache = SweepCache::new();
        assert_eq!(
            tier.prefetch::<Maintenance>(&specs, Capture::Scalar, &cache),
            4
        );
        assert_eq!(tier.served(), 4);
        // The sweep loop now sees pure hits — zero local simulations.
        let out = sweep(&cache);
        assert_eq!(out.len(), 4);
        assert_eq!(cache.misses(), 0);
        assert_eq!(cache.hits(), 4);
        // Outcomes match a direct simulation (index restored per grid).
        let direct = run_point_as::<Maintenance>(Capture::Scalar, 2, &specs[2], None);
        assert_eq!(canon_string(&out[2]), canon_string(&direct));
        // A second prefetch has nothing left to ask for.
        assert_eq!(
            tier.prefetch::<Maintenance>(&specs, Capture::Scalar, &cache),
            0
        );
        let mut client = ServiceClient::new(addr);
        assert_eq!(client.stats().unwrap().simulated, 0);
        client.shutdown().unwrap();
        server.join().unwrap().unwrap();

        // Dead server: the tier degrades quietly and the sweep works.
        let dead = ServiceSweepCache::new(ServiceAddr::Unix(
            std::env::temp_dir().join("wl-service-no-such.sock"),
        ));
        let local = SweepCache::new();
        assert_eq!(
            dead.prefetch::<Maintenance>(&specs, Capture::Scalar, &local),
            0
        );
        assert_eq!(sweep(&local).len(), 4);
        assert_eq!(local.misses(), 4, "degraded tier leaves the sweep local");
        dead.push_back::<Maintenance>(&local); // must be a no-op, not a hang
        let _ = std::fs::remove_file(&store_path);
    }

    /// Series-requiring prefetch: a tier puts back the series records
    /// its sweep captured, a later tier seeds them where series are
    /// needed, and the scalar-side view of those records hits too.
    #[cfg(unix)]
    #[test]
    fn service_tier_series_prefetch() {
        let store_path = tmp_store("series");
        let sock =
            std::env::temp_dir().join(format!("wl-service-{}-series.sock", std::process::id()));
        let _ = std::fs::remove_file(&store_path);
        let cfg = ServeConfig::new(ServiceAddr::Unix(sock), &store_path);
        let (tx, rx) = std::sync::mpsc::channel();
        let server =
            std::thread::spawn(move || serve(&cfg, move |addr| tx.send(addr.clone()).unwrap()));
        let addr = rx.recv().expect("server ready");

        let specs = grid(2);
        let cold_tier = ServiceSweepCache::new(addr.clone());
        let captured = SweepCache::new();
        assert_eq!(
            cold_tier.prefetch::<Maintenance>(&specs, Capture::Series, &captured),
            0
        );
        for (i, spec) in specs.iter().enumerate() {
            let _ = run_point_as::<Maintenance>(Capture::Series, i, spec, Some(&captured));
        }
        cold_tier.push_back::<Maintenance>(&captured);
        assert_eq!(cold_tier.pushed(), 2);

        let tier = ServiceSweepCache::new(addr.clone());
        let cache = SweepCache::new();
        assert_eq!(
            tier.prefetch::<Maintenance>(&specs, Capture::Series, &cache),
            2
        );
        for spec in &specs {
            let canon = canon_string(&spec.canonical());
            let hit = cache
                .peek(
                    spec.content_hash(),
                    Maintenance::NAME,
                    &canon,
                    Capture::Series,
                )
                .expect("series-bearing hit");
            assert!(hit.outcome().series.is_some());
        }
        // The scalar-side view of those records also hits.
        assert_eq!(
            tier.prefetch::<Maintenance>(&specs, Capture::Scalar, &cache),
            0
        );
        ServiceClient::new(addr).shutdown().unwrap();
        server.join().unwrap().unwrap();
        let _ = std::fs::remove_file(&store_path);
    }

    /// A unix address pointing at something that is not a socket — a
    /// store, say — is refused, and the file survives untouched.
    #[cfg(unix)]
    #[test]
    fn unix_bind_refuses_a_regular_file() {
        let path = tmp_store("precious");
        std::fs::write(&path, b"precious").unwrap();
        let err = Listener::bind(&ServiceAddr::Unix(path.clone())).expect_err("not a socket");
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
        assert!(
            err.to_string().contains(&path.display().to_string()),
            "{err}"
        );
        assert_eq!(std::fs::read(&path).unwrap(), b"precious");
        std::fs::remove_file(&path).unwrap();
    }

    /// A listener dropped without cleanup (a killed server) leaves its
    /// socket file behind; the next bind replaces it and listens.
    #[cfg(unix)]
    #[test]
    fn unix_bind_replaces_a_stale_socket() {
        let path =
            std::env::temp_dir().join(format!("wl-service-{}-stale.sock", std::process::id()));
        let addr = ServiceAddr::Unix(path.clone());
        let _ = std::fs::remove_file(&path);
        drop(Listener::bind(&addr).expect("first bind"));
        assert!(path.exists(), "a dropped listener leaves its socket file");
        let (listener, _) = Listener::bind(&addr).expect("stale socket replaced");
        assert!(UnixStream::connect(&path).is_ok(), "the new socket listens");
        drop(listener);
        std::fs::remove_file(&path).unwrap();
    }

    /// A peer that sends half a length prefix and goes quiet must not
    /// hold `serve` open past a shutdown: its connection is dropped at
    /// the next read timeout, and the canonical rewrite happens.
    #[test]
    fn a_peer_quiet_mid_frame_does_not_hold_shutdown_open() {
        let store_path = tmp_store("half-frame");
        let _ = std::fs::remove_file(&store_path);
        let cfg = ServeConfig::new(ServiceAddr::Tcp("127.0.0.1:0".into()), &store_path);
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let server = std::thread::spawn(move || {
            let _ = done_tx.send(serve(&cfg, move |addr| {
                ready_tx.send(addr.clone()).unwrap()
            }));
        });
        let addr = ready_rx.recv().expect("server ready");
        let ServiceAddr::Tcp(tcp) = &addr else {
            unreachable!("bound over TCP")
        };
        // Accepted first (the accept queue is FIFO): 2 of 4 length bytes.
        let mut quiet = TcpStream::connect(tcp.as_str()).unwrap();
        quiet.write_all(&[16, 0]).unwrap();
        ServiceClient::new(addr).shutdown().unwrap();
        let served = done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("serve still running 10 s after shutdown");
        served.unwrap();
        server.join().unwrap();
        assert!(store_path.exists(), "the canonical rewrite happened");
        drop(quiet);
        let _ = std::fs::remove_file(&store_path);
    }
}
