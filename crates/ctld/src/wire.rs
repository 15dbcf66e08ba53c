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
use lmpr_codec::json::{self, json_string, FieldError, ParseError, Value};
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

/// `[a, b, …]`, each item rendered by `each`.
fn json_list<T>(items: &[T], each: impl Fn(&T) -> String) -> String {
    let items: Vec<String> = items.iter().map(each).collect();
    format!("[{}]", items.join(", "))
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

    fn to_json(self) -> String {
        match self {
            ChangeSpec::LinkDown(l) => format!("{{\"kind\": \"link-down\", \"link\": {l}}}"),
            ChangeSpec::LinkUp(l) => format!("{{\"kind\": \"link-up\", \"link\": {l}}}"),
            ChangeSpec::SwitchDown(level, rank) => {
                format!("{{\"kind\": \"switch-down\", \"level\": {level}, \"rank\": {rank}}}")
            }
            ChangeSpec::SwitchUp(level, rank) => {
                format!("{{\"kind\": \"switch-up\", \"level\": {level}, \"rank\": {rank}}}")
            }
        }
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
    /// Serialize to the wire JSON.
    pub fn to_json(&self) -> String {
        match self {
            Request::Hello => "{\"op\": \"hello\"}".to_owned(),
            Request::Status => "{\"op\": \"status\"}".to_owned(),
            Request::Digest => "{\"op\": \"digest\"}".to_owned(),
            Request::Paths {
                epoch,
                deadline_ms,
                pairs,
            } => {
                let deadline = match deadline_ms {
                    Some(ms) => format!(", \"deadline_ms\": {ms}"),
                    None => String::new(),
                };
                format!(
                    "{{\"op\": \"paths\", \"epoch\": {epoch}{deadline}, \"pairs\": {}}}",
                    json_list(pairs, |(s, d)| format!("[{s}, {d}]"))
                )
            }
            Request::Fault {
                batch_id,
                gen,
                changes,
            } => {
                let gen = match gen {
                    Some(g) => format!(", \"gen\": {g}"),
                    None => String::new(),
                };
                format!(
                    "{{\"op\": \"fault\", \"batch_id\": {batch_id}{gen}, \"changes\": {}}}",
                    json_list(changes, |c| c.to_json())
                )
            }
            Request::Subscribe { from_epoch, gen } => {
                format!("{{\"op\": \"subscribe\", \"from_epoch\": {from_epoch}, \"gen\": {gen}}}")
            }
            Request::Tick { to } => format!("{{\"op\": \"tick\", \"to\": {to}}}"),
            Request::Chaos { fail_certs } => {
                format!("{{\"op\": \"chaos\", \"fail_certs\": {fail_certs}}}")
            }
            Request::Shutdown => "{\"op\": \"shutdown\"}".to_owned(),
        }
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

    /// Serialize to the wire JSON.
    pub fn to_json(&self) -> String {
        // Every successful reply opens `{"ok": true, "reply": <tag>,
        // "epoch": E[, "gen": G], "mode": M`; the variant appends its
        // own members and the closing brace.
        let ok = |reply: &str, epoch: u64, gen: Option<u64>, mode: &str| {
            let gen = gen.map_or(String::new(), |g| format!(" \"gen\": {g},"));
            format!(
                "{{\"ok\": true, \"reply\": \"{reply}\", \"epoch\": {epoch},{gen} \"mode\": {}",
                json_string(mode)
            )
        };
        match self {
            Response::Status {
                epoch,
                mode,
                gen,
                now,
                pending,
                committed_batch_id,
                reconv_count,
                reconv_total_us,
                reconv_max_us,
                degraded_attempts,
            } => format!(
                "{}, \"now\": {now}, \"pending\": {pending}, \
                 \"committed_batch_id\": {committed_batch_id}, \
                 \"reconv_count\": {reconv_count}, \
                 \"reconv_total_us\": {reconv_total_us}, \
                 \"reconv_max_us\": {reconv_max_us}, \
                 \"degraded_attempts\": {degraded_attempts}}}",
                ok("status", *epoch, Some(*gen), mode)
            ),
            Response::Digest {
                epoch,
                mode,
                digest,
            } => format!(
                "{}, \"digest\": {}}}",
                ok("digest", *epoch, None, mode),
                json_string(digest)
            ),
            Response::Paths { epoch, mode, paths } => format!(
                "{}, \"paths\": {}}}",
                ok("paths", *epoch, None, mode),
                json_list(paths, |ps| json_list(ps, u64::to_string))
            ),
            Response::Fault {
                epoch,
                mode,
                gen,
                batch_id,
                applied,
            } => format!(
                "{}, \"batch_id\": {batch_id}, \"applied\": {applied}}}",
                ok("fault", *epoch, Some(*gen), mode)
            ),
            Response::Replicate { mode, cp, changes } => format!(
                "{}, \"now\": {}, \"drained_through\": {}, \"committed_batch_id\": {}, \
                 \"failed_links\": {}, \"failed_switches\": {}, \"changes\": {}}}",
                ok("replicate", cp.epoch, Some(cp.generation), mode),
                cp.now,
                cp.drained_through,
                cp.committed_batch_id,
                json_list(&cp.failed_links, u32::to_string),
                json_list(&cp.failed_switches, |(l, r)| format!("[{l}, {r}]")),
                json_list(changes, |c| c.to_json())
            ),
            Response::Tick { epoch, mode, now } => {
                format!("{}, \"now\": {now}}}", ok("tick", *epoch, None, mode))
            }
            Response::Chaos {
                epoch,
                mode,
                fail_certs,
            } => format!(
                "{}, \"fail_certs\": {fail_certs}}}",
                ok("chaos", *epoch, None, mode)
            ),
            Response::Shutdown { epoch, mode } => {
                format!("{}}}", ok("shutdown", *epoch, None, mode))
            }
            Response::Error {
                code,
                epoch,
                gen,
                mode,
                message,
            } => format!(
                "{{\"ok\": false, \"error\": {}, \"epoch\": {epoch}, \
                 \"gen\": {gen}, \"mode\": {}, \"message\": {}}}",
                json_string(code.tag()),
                json_string(mode),
                json_string(message)
            ),
        }
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

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Hello,
            Request::Status,
            Request::Digest,
            Request::Paths {
                epoch: 7,
                deadline_ms: Some(250),
                pairs: vec![(0, 63), (12, 3)],
            },
            Request::Paths {
                epoch: 0,
                deadline_ms: None,
                pairs: vec![],
            },
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
            Request::Fault {
                batch_id: 10,
                gen: Some(3),
                changes: vec![ChangeSpec::LinkDown(7)],
            },
            Request::Subscribe {
                from_epoch: 41,
                gen: 2,
            },
            Request::Tick { to: 12345 },
            Request::Chaos { fail_certs: true },
            Request::Shutdown,
        ];
        for req in reqs {
            let json = req.to_json();
            let back = Request::decode(json.as_bytes()).expect("round trip");
            assert_eq!(back, req, "for {json}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let resps = [
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
            Response::Digest {
                epoch: 3,
                mode: "degraded".into(),
                digest: "00ff00ff00ff00ff".into(),
            },
            Response::Paths {
                epoch: 1,
                mode: "serving".into(),
                paths: vec![vec![0, 4, 9], vec![], vec![2]],
            },
            Response::Fault {
                epoch: 2,
                mode: "serving".into(),
                gen: 1,
                batch_id: 4,
                applied: false,
            },
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
            Response::Tick {
                epoch: 2,
                mode: "serving".into(),
                now: 777,
            },
            Response::Chaos {
                epoch: 2,
                mode: "degraded".into(),
                fail_certs: true,
            },
            Response::Shutdown {
                epoch: 5,
                mode: "serving".into(),
            },
            Response::Error {
                code: ErrorCode::EpochFenced,
                epoch: 6,
                gen: 0,
                mode: "serving".into(),
                message: "batch fenced at epoch 5".into(),
            },
            Response::Error {
                code: ErrorCode::GenFenced,
                epoch: 6,
                gen: 3,
                mode: "serving".into(),
                message: "write fenced at generation 2".into(),
            },
        ];
        for resp in resps {
            let json = resp.to_json();
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
