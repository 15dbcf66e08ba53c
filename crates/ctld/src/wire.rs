//! The controller's wire protocol: length-prefixed JSON frames.
//!
//! Every message is a 4-byte little-endian length followed by exactly
//! that many bytes of UTF-8 JSON, parsed with the strict
//! [`lmpr_codec::json`] reader — duplicate keys, non-UTF-8 bytes,
//! truncations and depth bombs all come back as typed errors, never
//! panics, because the daemon feeds untrusted socket bytes straight in.
//!
//! Requests name an `op`; replies are `{"ok": true, ...}` on success
//! and `{"ok": false, "error": <code>, ...}` on a typed rejection.
//! Every successful reply carries the server's current `epoch` and
//! `mode` so clients can fence their next batch without an extra round
//! trip; write acks and errors additionally carry the primary's
//! `gen`eration lease so clients can detect a failover (and a deposed
//! primary) without an extra status round trip.
//!
//! Replication rides the same protocol: a standby sends `subscribe`
//! and the primary answers with a stream of `replicate` frames — a
//! full checkpoint snapshot first, then one frame per committed epoch
//! carrying the checkpoint envelope plus the fault batch that produced
//! it.

use crate::store::Checkpoint;
use lmpr_codec::json::{self, document, FieldError, Int, ParseError, Value, Writer};
use std::fmt;
use std::io::{Read, Write};
use xgft::{DirectedLinkId, FaultChange, NodeId};

/// Upper bound on one frame's payload; anything larger is rejected
/// before allocation.
pub const MAX_FRAME: u32 = 1 << 20;

/// Why a frame could not be read, written, or understood.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket failed (includes EOF mid-frame).
    Io(std::io::Error),
    /// The peer announced a frame larger than [`MAX_FRAME`].
    FrameTooLarge(u32),
    /// The payload was not a valid JSON document.
    Parse(ParseError),
    /// The document parsed but is not a well-formed message: what is
    /// wrong, or the key of the member that is missing or mistyped.
    Malformed(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "socket error: {e}"),
            WireError::FrameTooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME}-byte bound")
            }
            WireError::Parse(e) => write!(f, "payload is not valid json: {e}"),
            WireError::Malformed(m) => write!(f, "malformed message: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<ParseError> for WireError {
    fn from(e: ParseError) -> Self {
        WireError::Parse(e)
    }
}

impl From<FieldError> for WireError {
    fn from(e: FieldError) -> Self {
        WireError::Malformed(e.0)
    }
}

/// Read one length-prefixed frame.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, WireError> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME {
        return Err(WireError::FrameTooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// The length prefix of a `len`-byte payload, or the typed refusal. A
/// length past `u32` is reported saturated, not wrapped.
fn frame_len(len: usize) -> Result<u32, WireError> {
    match u32::try_from(len) {
        Ok(n) if n <= MAX_FRAME => Ok(n),
        over => Err(WireError::FrameTooLarge(over.unwrap_or(u32::MAX))),
    }
}

/// Write one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), WireError> {
    w.write_all(&frame_len(payload.len())?.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// `[a, b, …]`, the encoding [`uints`] reads back.
fn write_uints<T: Int>(w: &mut Writer, items: &[T]) {
    w.arr_line(|w| {
        for &x in items {
            w.int(x);
        }
    });
}

/// `[[a, b], …]`, the encoding [`uint_pairs`] reads back.
fn write_pairs<A: Int, B: Int>(w: &mut Writer, pairs: &[(A, B)]) {
    w.arr_line(|w| {
        for &(a, b) in pairs {
            w.arr_line(|w| {
                w.int(a);
                w.int(b);
            });
        }
    });
}

/// `items`, the elements of array member `key`, as unsigned integers
/// that fit `T`.
fn uints<T: TryFrom<u64>>(items: &[Value], key: &'static str) -> Result<Vec<T>, FieldError> {
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        out.push(item.as_uint().ok_or(FieldError(key))?);
    }
    Ok(out)
}

/// Array member `key` as `[a, b]` pairs of unsigned integers.
fn uint_pairs<A, B>(v: &Value, key: &'static str) -> Result<Vec<(A, B)>, FieldError>
where
    A: TryFrom<u64>,
    B: TryFrom<u64>,
{
    let items = v.req_arr(key)?;
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        let pair = match item.as_arr() {
            Some([a, b]) => a.as_uint().zip(b.as_uint()),
            _ => None,
        };
        out.push(pair.ok_or(FieldError(key))?);
    }
    Ok(out)
}

/// One fault change as it appears on the wire. The split from
/// [`FaultChange`] keeps the protocol self-describing (`level`/`rank`
/// for switches, a directed link id for links).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChangeSpec {
    /// Directed link goes down.
    LinkDown(u32),
    /// Directed link comes back up.
    LinkUp(u32),
    /// Switch `(level, rank)` goes down.
    SwitchDown(u8, u32),
    /// Switch `(level, rank)` comes back up.
    SwitchUp(u8, u32),
}

impl ChangeSpec {
    /// The core-library change this spec describes.
    pub fn to_change(self) -> FaultChange {
        match self {
            ChangeSpec::LinkDown(l) => FaultChange::LinkDown(DirectedLinkId(l)),
            ChangeSpec::LinkUp(l) => FaultChange::LinkUp(DirectedLinkId(l)),
            ChangeSpec::SwitchDown(level, rank) => FaultChange::SwitchDown(NodeId { level, rank }),
            ChangeSpec::SwitchUp(level, rank) => FaultChange::SwitchUp(NodeId { level, rank }),
        }
    }

    /// The wire spec of a core-library change.
    pub fn from_change(c: FaultChange) -> Self {
        match c {
            FaultChange::LinkDown(l) => ChangeSpec::LinkDown(l.0),
            FaultChange::LinkUp(l) => ChangeSpec::LinkUp(l.0),
            FaultChange::SwitchDown(n) => ChangeSpec::SwitchDown(n.level, n.rank),
            FaultChange::SwitchUp(n) => ChangeSpec::SwitchUp(n.level, n.rank),
        }
    }

    /// The wire tag of the change: its `kind` member.
    fn kind(self) -> &'static str {
        match self {
            ChangeSpec::LinkDown(_) => "link-down",
            ChangeSpec::LinkUp(_) => "link-up",
            ChangeSpec::SwitchDown(..) => "switch-down",
            ChangeSpec::SwitchUp(..) => "switch-up",
        }
    }

    /// The `changes` member's value: one one-line object per change.
    fn write_list(w: &mut Writer, changes: &[Self]) {
        w.arr_line(|w| {
            for &c in changes {
                w.obj_line(|w| {
                    w.key("kind").str(c.kind());
                    match c {
                        ChangeSpec::LinkDown(l) | ChangeSpec::LinkUp(l) => w.key("link").int(l),
                        ChangeSpec::SwitchDown(level, rank) | ChangeSpec::SwitchUp(level, rank) => {
                            w.key("level").int(level);
                            w.key("rank").int(rank);
                        }
                    }
                });
            }
        });
    }

    fn from_json(v: &Value) -> Result<Self, WireError> {
        Ok(match v.req_str("kind")? {
            "link-down" => ChangeSpec::LinkDown(v.req_uint("link")?),
            "link-up" => ChangeSpec::LinkUp(v.req_uint("link")?),
            "switch-down" => ChangeSpec::SwitchDown(v.req_uint("level")?, v.req_uint("rank")?),
            "switch-up" => ChangeSpec::SwitchUp(v.req_uint("level")?, v.req_uint("rank")?),
            _ => return Err(WireError::Malformed("unknown change kind")),
        })
    }

    /// The `changes` member of a fault request or a replication frame.
    fn list_from_json(v: &Value) -> Result<Vec<Self>, WireError> {
        let items = v.req_arr("changes")?;
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            out.push(ChangeSpec::from_json(item)?);
        }
        Ok(out)
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Handshake / liveness probe; replied to with [`Response::Status`].
    Hello,
    /// Controller state summary.
    Status,
    /// Semantic digest of the full routing state at the current epoch.
    Digest,
    /// Epoch-fenced batch of path queries: `pairs` are `(src, dst)`
    /// processing-node ids; the batch is answered only if `epoch`
    /// matches the server's current epoch.
    Paths {
        /// The epoch the client believes is current.
        epoch: u64,
        /// Accepted for compatibility and ignored: reads are answered
        /// from the published snapshot on arrival and never queue, so
        /// there is no wait for a budget to bound.
        deadline_ms: Option<u64>,
        /// The `(src, dst)` pairs to answer, in order.
        pairs: Vec<(u32, u32)>,
    },
    /// A fault event batch from the live feed. Delivery is
    /// at-least-once: `batch_id` must increase by exactly 1 per new
    /// batch and duplicates are acknowledged without reapplying.
    Fault {
        /// Monotonic feed sequence number.
        batch_id: u64,
        /// Generation fence: when set, the write is applied only if it
        /// equals the primary's current generation lease — a client
        /// that has seen a promotion cannot feed a deposed primary, and
        /// a client holding a stale lease is told to refresh. `None`
        /// writes unfenced (pre-HA clients).
        gen: Option<u64>,
        /// The state changes, applied in order.
        changes: Vec<ChangeSpec>,
    },
    /// A standby's request to stream certified epochs. Answered with a
    /// `replicate` snapshot frame, then one `replicate` frame per
    /// committed epoch for as long as the connection lasts.
    Subscribe {
        /// Newest epoch already durable on the standby (advisory; the
        /// primary always opens with a full snapshot, which the standby
        /// dedups by `(generation, epoch)`).
        from_epoch: u64,
        /// The standby's own generation fence: a primary whose lease is
        /// *older* refuses with `gen-fenced` — a deposed primary must
        /// never feed a standby that already followed a promotion.
        gen: u64,
    },
    /// Advance the controller's logical clock to `to`, draining any
    /// replayed schedule events up to it and retrying a degraded
    /// reconvergence whose backoff has elapsed.
    Tick {
        /// Target logical time.
        to: u64,
    },
    /// Fault-injection toggle: while set, every certificate is failed.
    Chaos {
        /// Inject certificate failures when true.
        fail_certs: bool,
    },
    /// Orderly shutdown.
    Shutdown,
}

impl Request {
    /// The wire tag of the request: its `op` member.
    fn op(&self) -> &'static str {
        match self {
            Request::Hello => "hello",
            Request::Status => "status",
            Request::Digest => "digest",
            Request::Paths { .. } => "paths",
            Request::Fault { .. } => "fault",
            Request::Subscribe { .. } => "subscribe",
            Request::Tick { .. } => "tick",
            Request::Chaos { .. } => "chaos",
            Request::Shutdown => "shutdown",
        }
    }

    /// Serialize to the wire JSON.
    pub fn to_json(&self) -> String {
        document(|w| {
            w.obj_line(|w| {
                w.key("op").str(self.op());
                match self {
                    Request::Hello | Request::Status | Request::Digest | Request::Shutdown => {}
                    Request::Paths {
                        epoch,
                        deadline_ms,
                        pairs,
                    } => {
                        w.key("epoch").int(*epoch);
                        if let Some(ms) = deadline_ms {
                            w.key("deadline_ms").int(*ms);
                        }
                        w.key("pairs");
                        write_pairs(w, pairs);
                    }
                    Request::Fault {
                        batch_id,
                        gen,
                        changes,
                    } => {
                        w.key("batch_id").int(*batch_id);
                        if let Some(g) = gen {
                            w.key("gen").int(*g);
                        }
                        w.key("changes");
                        ChangeSpec::write_list(w, changes);
                    }
                    Request::Subscribe { from_epoch, gen } => {
                        w.key("from_epoch").int(*from_epoch);
                        w.key("gen").int(*gen);
                    }
                    Request::Tick { to } => w.key("to").int(*to),
                    Request::Chaos { fail_certs } => w.key("fail_certs").bool(*fail_certs),
                }
            })
        })
    }

    /// Parse a request frame.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let v = json::parse_bytes(payload)?;
        Ok(match v.req_str("op")? {
            "hello" => Request::Hello,
            "status" => Request::Status,
            "digest" => Request::Digest,
            "paths" => Request::Paths {
                epoch: v.req_uint("epoch")?,
                deadline_ms: v.opt_u64("deadline_ms")?,
                pairs: uint_pairs(&v, "pairs")?,
            },
            "fault" => Request::Fault {
                batch_id: v.req_uint("batch_id")?,
                gen: v.opt_u64("gen")?,
                changes: ChangeSpec::list_from_json(&v)?,
            },
            "subscribe" => Request::Subscribe {
                from_epoch: v.req_uint("from_epoch")?,
                gen: v.req_uint("gen")?,
            },
            "tick" => Request::Tick {
                to: v.req_uint("to")?,
            },
            "chaos" => Request::Chaos {
                fail_certs: v.req_bool("fail_certs")?,
            },
            "shutdown" => Request::Shutdown,
            _ => return Err(WireError::Malformed("unknown op")),
        })
    }
}

/// Typed rejection codes. Every error a client can provoke has one —
/// the daemon never closes a connection as its answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The bounded write queue is full, or the server is shutting
    /// down; retry later (a shutting-down server also closes the
    /// connection, so the retry redials).
    Overload,
    /// The batch's epoch is not the server's current epoch.
    EpochFenced,
    /// The request's generation fence does not match the primary's
    /// lease: either the client is stale (a promotion happened — adopt
    /// the reported `gen` and retry) or the *server* is a deposed
    /// primary (its reported `gen` is older than the client's — fail
    /// over to the next endpoint).
    GenFenced,
    /// The request was malformed or violated feed sequencing.
    BadRequest,
}

impl ErrorCode {
    /// Stable wire tag.
    pub fn tag(self) -> &'static str {
        match self {
            ErrorCode::Overload => "overload",
            ErrorCode::EpochFenced => "epoch-fenced",
            ErrorCode::GenFenced => "gen-fenced",
            ErrorCode::BadRequest => "bad-request",
        }
    }

    fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "overload" => Some(ErrorCode::Overload),
            "epoch-fenced" => Some(ErrorCode::EpochFenced),
            "gen-fenced" => Some(ErrorCode::GenFenced),
            "bad-request" => Some(ErrorCode::BadRequest),
            _ => None,
        }
    }
}

/// A server reply. Successful replies carry the server's `epoch` and
/// `mode` tag (`"serving"` or `"degraded"`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Controller state summary.
    Status {
        /// Current epoch.
        epoch: u64,
        /// `"serving"` or `"degraded"`.
        mode: String,
        /// The primary's generation lease.
        gen: u64,
        /// Logical clock.
        now: u64,
        /// Uncommitted fault changes awaiting a passing certificate.
        pending: u64,
        /// Highest committed fault-feed batch id.
        committed_batch_id: u64,
        /// Reconvergences committed since start.
        reconv_count: u64,
        /// Total reconvergence latency in microseconds.
        reconv_total_us: u64,
        /// Worst single reconvergence latency in microseconds.
        reconv_max_us: u64,
        /// Degraded-mode retry attempts so far (0 while serving).
        degraded_attempts: u64,
    },
    /// Semantic digest of the routing state, as 16 hex digits.
    Digest {
        /// Current epoch.
        epoch: u64,
        /// Mode tag.
        mode: String,
        /// FNV-1a digest over every pair's selection.
        digest: String,
    },
    /// Answers to a [`Request::Paths`] batch, in request order; a
    /// disconnected pair yields an empty path list.
    Paths {
        /// Current epoch.
        epoch: u64,
        /// Mode tag.
        mode: String,
        /// Selected path ids per queried pair.
        paths: Vec<Vec<u64>>,
    },
    /// Acknowledgement of a fault batch.
    Fault {
        /// Current epoch (after any reconvergence the batch caused).
        epoch: u64,
        /// Mode tag.
        mode: String,
        /// The generation lease under which the ack was issued.
        gen: u64,
        /// Echoed batch id.
        batch_id: u64,
        /// False when the batch was a duplicate of an already-ingested
        /// id (at-least-once delivery).
        applied: bool,
    },
    /// One replication frame: the committed checkpoint (carrying its
    /// own `generation` and `epoch`) plus the fault batch that produced
    /// it (empty for the snapshot frame that opens a subscription).
    Replicate {
        /// Mode tag at send time.
        mode: String,
        /// The committed root state, exactly as checkpointed.
        cp: Checkpoint,
        /// The change batch whose certification committed this epoch.
        changes: Vec<ChangeSpec>,
    },
    /// Acknowledgement of a clock advance.
    Tick {
        /// Current epoch.
        epoch: u64,
        /// Mode tag.
        mode: String,
        /// The clock after the advance.
        now: u64,
    },
    /// Acknowledgement of a chaos toggle.
    Chaos {
        /// Current epoch.
        epoch: u64,
        /// Mode tag.
        mode: String,
        /// The toggle state now in force.
        fail_certs: bool,
    },
    /// Acknowledgement of an orderly shutdown.
    Shutdown {
        /// Final epoch.
        epoch: u64,
        /// Mode tag.
        mode: String,
    },
    /// A typed rejection.
    Error {
        /// Rejection code.
        code: ErrorCode,
        /// Server epoch when known (0 before the controller answered).
        epoch: u64,
        /// Server generation when known (0 before the controller
        /// answered); a `gen-fenced` rejection always reports it so the
        /// client can adopt the lease — or recognize a deposed primary.
        gen: u64,
        /// Mode tag (`"unknown"` when the controller was not consulted).
        mode: String,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// The `(epoch, mode)` stamp every reply variant carries — used by
    /// the server to build a substitute error that still reports the
    /// routing generation when the original reply cannot be sent.
    pub fn epoch_mode(&self) -> (u64, &str) {
        match self {
            Response::Status { epoch, mode, .. }
            | Response::Digest { epoch, mode, .. }
            | Response::Paths { epoch, mode, .. }
            | Response::Fault { epoch, mode, .. }
            | Response::Tick { epoch, mode, .. }
            | Response::Chaos { epoch, mode, .. }
            | Response::Shutdown { epoch, mode }
            | Response::Error { epoch, mode, .. } => (*epoch, mode),
            Response::Replicate { mode, cp, .. } => (cp.epoch, mode),
        }
    }

    /// The generation lease this reply reports, if the variant carries
    /// one (status, fault acks, replication frames and typed errors
    /// do; pure read replies do not).
    pub fn gen(&self) -> Option<u64> {
        match self {
            Response::Status { gen, .. }
            | Response::Fault { gen, .. }
            | Response::Error { gen, .. } => Some(*gen),
            Response::Replicate { cp, .. } => Some(cp.generation),
            _ => None,
        }
    }

    /// Every successful reply opens `"ok": true, "reply": <tag>,
    /// "epoch": E[, "gen": G], "mode": M`; the variant's own members
    /// follow.
    fn write_ok(&self, w: &mut Writer, reply: &str) {
        let (epoch, mode) = self.epoch_mode();
        w.key("ok").bool(true);
        w.key("reply").str(reply);
        w.key("epoch").int(epoch);
        if let Some(gen) = self.gen() {
            w.key("gen").int(gen);
        }
        w.key("mode").str(mode);
    }

    /// Serialize to the wire JSON.
    pub fn to_json(&self) -> String {
        document(|w| {
            w.obj_line(|w| match self {
                Response::Status {
                    now,
                    pending,
                    committed_batch_id,
                    reconv_count,
                    reconv_total_us,
                    reconv_max_us,
                    degraded_attempts,
                    ..
                } => {
                    self.write_ok(w, "status");
                    w.key("now").int(*now);
                    w.key("pending").int(*pending);
                    w.key("committed_batch_id").int(*committed_batch_id);
                    w.key("reconv_count").int(*reconv_count);
                    w.key("reconv_total_us").int(*reconv_total_us);
                    w.key("reconv_max_us").int(*reconv_max_us);
                    w.key("degraded_attempts").int(*degraded_attempts);
                }
                Response::Digest { digest, .. } => {
                    self.write_ok(w, "digest");
                    w.key("digest").str(digest);
                }
                Response::Paths { paths, .. } => {
                    self.write_ok(w, "paths");
                    w.key("paths")
                        .arr_line(|w| paths.iter().for_each(|ids| write_uints(w, ids)));
                }
                Response::Fault {
                    batch_id, applied, ..
                } => {
                    self.write_ok(w, "fault");
                    w.key("batch_id").int(*batch_id);
                    w.key("applied").bool(*applied);
                }
                Response::Replicate { cp, changes, .. } => {
                    self.write_ok(w, "replicate");
                    w.key("now").int(cp.now);
                    w.key("drained_through").int(cp.drained_through);
                    w.key("committed_batch_id").int(cp.committed_batch_id);
                    w.key("failed_links");
                    write_uints(w, &cp.failed_links);
                    w.key("failed_switches");
                    write_pairs(w, &cp.failed_switches);
                    w.key("changes");
                    ChangeSpec::write_list(w, changes);
                }
                Response::Tick { now, .. } => {
                    self.write_ok(w, "tick");
                    w.key("now").int(*now);
                }
                Response::Chaos { fail_certs, .. } => {
                    self.write_ok(w, "chaos");
                    w.key("fail_certs").bool(*fail_certs);
                }
                Response::Shutdown { .. } => self.write_ok(w, "shutdown"),
                Response::Error {
                    code,
                    epoch,
                    gen,
                    mode,
                    message,
                } => {
                    w.key("ok").bool(false);
                    w.key("error").str(code.tag());
                    w.key("epoch").int(*epoch);
                    w.key("gen").int(*gen);
                    w.key("mode").str(mode);
                    w.key("message").str(message);
                }
            })
        })
    }

    /// Parse a reply frame.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let v = json::parse_bytes(payload)?;
        let ok = v.req_bool("ok")?;
        let epoch = v.req_uint("epoch").unwrap_or(0);
        let gen = v.req_uint("gen").unwrap_or(0);
        let mode = v.req_str("mode").unwrap_or("unknown").to_owned();
        if !ok {
            let code = v
                .req_str("error")
                .ok()
                .and_then(ErrorCode::from_tag)
                .ok_or(WireError::Malformed("error reply without a known code"))?;
            return Ok(Response::Error {
                code,
                epoch,
                gen,
                mode,
                message: v.req_str("message").unwrap_or_default().to_owned(),
            });
        }
        Ok(match v.req_str("reply")? {
            "status" => Response::Status {
                epoch,
                mode,
                gen,
                now: v.req_uint("now")?,
                pending: v.req_uint("pending")?,
                committed_batch_id: v.req_uint("committed_batch_id")?,
                reconv_count: v.req_uint("reconv_count")?,
                reconv_total_us: v.req_uint("reconv_total_us")?,
                reconv_max_us: v.req_uint("reconv_max_us")?,
                degraded_attempts: v.req_uint("degraded_attempts")?,
            },
            "digest" => Response::Digest {
                epoch,
                mode,
                digest: v.req_str("digest")?.to_owned(),
            },
            "paths" => {
                let lists = v.req_arr("paths")?;
                let mut paths = Vec::with_capacity(lists.len());
                for list in lists {
                    let ids = list.as_arr().ok_or(FieldError("paths"))?;
                    paths.push(uints(ids, "paths")?);
                }
                Response::Paths { epoch, mode, paths }
            }
            "fault" => Response::Fault {
                epoch,
                mode,
                gen,
                batch_id: v.req_uint("batch_id")?,
                applied: v.req_bool("applied")?,
            },
            "replicate" => Response::Replicate {
                mode,
                cp: Checkpoint {
                    generation: gen,
                    epoch,
                    now: v.req_uint("now")?,
                    drained_through: v.req_uint("drained_through")?,
                    committed_batch_id: v.req_uint("committed_batch_id")?,
                    failed_links: uints(v.req_arr("failed_links")?, "failed_links")?,
                    failed_switches: uint_pairs(&v, "failed_switches")?,
                },
                changes: ChangeSpec::list_from_json(&v)?,
            },
            "tick" => Response::Tick {
                epoch,
                mode,
                now: v.req_uint("now")?,
            },
            "chaos" => Response::Chaos {
                epoch,
                mode,
                fail_certs: v.req_bool("fail_certs")?,
            },
            "shutdown" => Response::Shutdown { epoch, mode },
            _ => return Err(WireError::Malformed("unknown reply tag")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every request variant with its exact frame text: the bytes
    /// `ctlc`, a standby and the benchmark client put on the socket.
    #[test]
    fn requests_round_trip() {
        let reqs = [
            (Request::Hello, r#"{"op": "hello"}"#),
            (Request::Status, r#"{"op": "status"}"#),
            (Request::Digest, r#"{"op": "digest"}"#),
            (
                Request::Paths {
                    epoch: 7,
                    deadline_ms: Some(250),
                    pairs: vec![(0, 63), (12, 3)],
                },
                r#"{"op": "paths", "epoch": 7, "deadline_ms": 250, "pairs": [[0, 63], [12, 3]]}"#,
            ),
            (
                Request::Paths {
                    epoch: 0,
                    deadline_ms: None,
                    pairs: vec![],
                },
                r#"{"op": "paths", "epoch": 0, "pairs": []}"#,
            ),
            (
                Request::Fault {
                    batch_id: 9,
                    gen: None,
                    changes: vec![
                        ChangeSpec::LinkDown(5),
                        ChangeSpec::LinkUp(5),
                        ChangeSpec::SwitchDown(2, 1),
                        ChangeSpec::SwitchUp(2, 1),
                    ],
                },
                concat!(
                    r#"{"op": "fault", "batch_id": 9, "changes": ["#,
                    r#"{"kind": "link-down", "link": 5}, {"kind": "link-up", "link": 5}, "#,
                    r#"{"kind": "switch-down", "level": 2, "rank": 1}, "#,
                    r#"{"kind": "switch-up", "level": 2, "rank": 1}]}"#
                ),
            ),
            (
                Request::Fault {
                    batch_id: 10,
                    gen: Some(3),
                    changes: vec![ChangeSpec::LinkDown(7)],
                },
                r#"{"op": "fault", "batch_id": 10, "gen": 3, "changes": [{"kind": "link-down", "link": 7}]}"#,
            ),
            (
                Request::Subscribe {
                    from_epoch: 41,
                    gen: 2,
                },
                r#"{"op": "subscribe", "from_epoch": 41, "gen": 2}"#,
            ),
            (
                Request::Tick { to: 12345 },
                r#"{"op": "tick", "to": 12345}"#,
            ),
            (
                Request::Chaos { fail_certs: true },
                r#"{"op": "chaos", "fail_certs": true}"#,
            ),
            (Request::Shutdown, r#"{"op": "shutdown"}"#),
        ];
        for (req, frame) in reqs {
            let json = req.to_json();
            assert_eq!(json, frame, "frame text of {req:?}");
            let back = Request::decode(json.as_bytes()).expect("round trip");
            assert_eq!(back, req, "for {json}");
        }
    }

    /// Every reply variant with its exact frame text.
    #[test]
    fn responses_round_trip() {
        let resps = [
            (
                Response::Status {
                    epoch: 3,
                    mode: "serving".into(),
                    gen: 2,
                    now: 500,
                    pending: 0,
                    committed_batch_id: 2,
                    reconv_count: 3,
                    reconv_total_us: 1500,
                    reconv_max_us: 900,
                    degraded_attempts: 0,
                },
                concat!(
                    r#"{"ok": true, "reply": "status", "epoch": 3, "gen": 2, "mode": "serving", "#,
                    r#""now": 500, "pending": 0, "committed_batch_id": 2, "reconv_count": 3, "#,
                    r#""reconv_total_us": 1500, "reconv_max_us": 900, "degraded_attempts": 0}"#
                ),
            ),
            (
                Response::Digest {
                    epoch: 3,
                    mode: "degraded".into(),
                    digest: "00ff00ff00ff00ff".into(),
                },
                concat!(
                    r#"{"ok": true, "reply": "digest", "epoch": 3, "mode": "degraded", "#,
                    r#""digest": "00ff00ff00ff00ff"}"#
                ),
            ),
            (
                Response::Paths {
                    epoch: 1,
                    mode: "serving".into(),
                    paths: vec![vec![0, 4, 9], vec![], vec![2]],
                },
                concat!(
                    r#"{"ok": true, "reply": "paths", "epoch": 1, "mode": "serving", "#,
                    r#""paths": [[0, 4, 9], [], [2]]}"#
                ),
            ),
            (
                Response::Fault {
                    epoch: 2,
                    mode: "serving".into(),
                    gen: 1,
                    batch_id: 4,
                    applied: false,
                },
                concat!(
                    r#"{"ok": true, "reply": "fault", "epoch": 2, "gen": 1, "mode": "serving", "#,
                    r#""batch_id": 4, "applied": false}"#
                ),
            ),
            (
                Response::Replicate {
                    mode: "serving".into(),
                    cp: Checkpoint {
                        generation: 2,
                        epoch: 6,
                        now: 880,
                        drained_through: 850,
                        committed_batch_id: 6,
                        failed_links: vec![3, 17],
                        failed_switches: vec![(1, 0), (2, 3)],
                    },
                    changes: vec![ChangeSpec::LinkDown(17), ChangeSpec::SwitchDown(2, 3)],
                },
                concat!(
                    r#"{"ok": true, "reply": "replicate", "epoch": 6, "gen": 2, "mode": "serving", "#,
                    r#""now": 880, "drained_through": 850, "committed_batch_id": 6, "#,
                    r#""failed_links": [3, 17], "failed_switches": [[1, 0], [2, 3]], "#,
                    r#""changes": [{"kind": "link-down", "link": 17}, "#,
                    r#"{"kind": "switch-down", "level": 2, "rank": 3}]}"#
                ),
            ),
            (
                Response::Replicate {
                    mode: "serving".into(),
                    cp: Checkpoint {
                        generation: 1,
                        epoch: 0,
                        now: 0,
                        drained_through: 0,
                        committed_batch_id: 0,
                        failed_links: vec![],
                        failed_switches: vec![],
                    },
                    changes: vec![],
                },
                concat!(
                    r#"{"ok": true, "reply": "replicate", "epoch": 0, "gen": 1, "mode": "serving", "#,
                    r#""now": 0, "drained_through": 0, "committed_batch_id": 0, "#,
                    r#""failed_links": [], "failed_switches": [], "changes": []}"#
                ),
            ),
            (
                Response::Tick {
                    epoch: 2,
                    mode: "serving".into(),
                    now: 777,
                },
                r#"{"ok": true, "reply": "tick", "epoch": 2, "mode": "serving", "now": 777}"#,
            ),
            (
                Response::Chaos {
                    epoch: 2,
                    mode: "degraded".into(),
                    fail_certs: true,
                },
                concat!(
                    r#"{"ok": true, "reply": "chaos", "epoch": 2, "mode": "degraded", "#,
                    r#""fail_certs": true}"#
                ),
            ),
            (
                Response::Shutdown {
                    epoch: 5,
                    mode: "serving".into(),
                },
                r#"{"ok": true, "reply": "shutdown", "epoch": 5, "mode": "serving"}"#,
            ),
            (
                Response::Error {
                    code: ErrorCode::EpochFenced,
                    epoch: 6,
                    gen: 0,
                    mode: "serving".into(),
                    message: "batch fenced at epoch 5".into(),
                },
                concat!(
                    r#"{"ok": false, "error": "epoch-fenced", "epoch": 6, "gen": 0, "#,
                    r#""mode": "serving", "message": "batch fenced at epoch 5"}"#
                ),
            ),
            (
                Response::Error {
                    code: ErrorCode::GenFenced,
                    epoch: 6,
                    gen: 3,
                    mode: "serving".into(),
                    message: "write fenced at generation 2".into(),
                },
                concat!(
                    r#"{"ok": false, "error": "gen-fenced", "epoch": 6, "gen": 3, "#,
                    r#""mode": "serving", "message": "write fenced at generation 2"}"#
                ),
            ),
            (
                Response::Error {
                    code: ErrorCode::BadRequest,
                    epoch: 0,
                    gen: 0,
                    mode: "unknown".into(),
                    message: "op \"warp\"\tis\nnot — known".into(),
                },
                concat!(
                    r#"{"ok": false, "error": "bad-request", "epoch": 0, "gen": 0, "#,
                    r#""mode": "unknown", "message": "op \"warp\"\tis\nnot — known"}"#
                ),
            ),
        ];
        for (resp, frame) in resps {
            let json = resp.to_json();
            assert_eq!(json, frame, "frame text of {resp:?}");
            let back = Response::decode(json.as_bytes()).expect("round trip");
            assert_eq!(back, resp, "for {json}");
        }
    }

    #[test]
    fn frames_round_trip_and_bound_length() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"op\": \"hello\"}").expect("write");
        let mut cursor = &buf[..];
        let payload = read_frame(&mut cursor).expect("read");
        assert_eq!(payload, b"{\"op\": \"hello\"}");

        // An announced length over the bound is rejected before allocation.
        let huge = (MAX_FRAME + 1).to_le_bytes();
        let mut cursor = &huge[..];
        assert!(matches!(
            read_frame(&mut cursor),
            Err(WireError::FrameTooLarge(_))
        ));

        // A payload length past u32 is reported saturated, not wrapped
        // to its low 32 bits.
        let over_4g = usize::try_from((1u64 << 32) + 7).expect("64-bit target");
        assert!(matches!(
            frame_len(over_4g),
            Err(WireError::FrameTooLarge(u32::MAX))
        ));
        assert!(matches!(frame_len(MAX_FRAME as usize), Ok(MAX_FRAME)));

        // Truncated payloads surface as io errors, not panics.
        let mut truncated = 100u32.to_le_bytes().to_vec();
        truncated.extend_from_slice(b"short");
        let mut cursor = &truncated[..];
        assert!(matches!(read_frame(&mut cursor), Err(WireError::Io(_))));
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        for bad in [
            &b"not json"[..],
            b"{}",
            b"{\"op\": \"warp\"}",
            b"{\"op\": \"paths\"}",
            b"{\"op\": \"paths\", \"epoch\": 1, \"pairs\": [[1]]}",
            b"{\"op\": \"paths\", \"epoch\": 1, \"pairs\": [[1, -2]]}",
            b"{\"op\": \"fault\", \"batch_id\": 1, \"changes\": [{\"kind\": \"nope\"}]}",
            b"{\"op\": \"fault\", \"batch_id\": 1, \"gen\": -4, \"changes\": []}",
            b"{\"op\": \"subscribe\"}",
            b"{\"op\": \"subscribe\", \"from_epoch\": 1}",
            b"{\"op\": \"tick\"}",
            b"\xff\xfe",
        ] {
            assert!(Request::decode(bad).is_err(), "accepted {bad:?}");
        }
    }
}
