//! Reusable client for the routing-controller daemon.
//!
//! [`Client`] owns the connection lifecycle that every embedder of the
//! wire protocol otherwise reimplements:
//!
//! * **automatic reconnect** — any transport or framing failure drops
//!   the connection and redials under capped exponential backoff, so a
//!   daemon restart (or an injected wire fault) costs the caller one
//!   retried request, not an error;
//! * **fence retry** — a `paths` batch rejected with `epoch-fenced`
//!   is re-issued at the epoch the rejection itself reported (every
//!   typed error carries the server's current epoch, so no extra
//!   status round trip is needed);
//! * **overload backoff** — a typed `overload` rejection (a full write
//!   queue, or a server shutting down) is retried after a capped
//!   exponential delay, because the server sheds load by design and
//!   the client is expected to pace itself;
//! * **idempotent fault submission** — [`Client::submit_fault`] keeps
//!   resubmitting the same `batch_id` across reconnects until the
//!   daemon acknowledges it; the controller's at-least-once dedup
//!   turns a duplicate into a harmless `applied: false` ack, so a
//!   reply lost to a crash can never double-apply a batch;
//! * **endpoint failover** — the config holds an ordered list of
//!   daemon sockets; when a dial fails the client walks the list and
//!   sticks with the first endpoint that answers, so a primary crash
//!   with a promoted standby behind it costs one retried request;
//! * **generation-fence retry** — every reply carries the server's
//!   generation lease and the client tracks the newest it has seen;
//!   a `gen-fenced` rejection from a *newer* generation is adopted
//!   and the batch resubmitted (promotion happened mid-flight), while
//!   one from an *older* generation marks a deposed primary and the
//!   client fails over instead of letting it double-apply.
//!
//! Backoff is paced by [`std::thread::sleep`] on attempt counters
//! alone — the client never reads a clock, keeping it usable from
//! deterministic harnesses (DET-TIME).

use crate::failpoint::{dialed, Duplex, FailPlan, FaultCounters};
use crate::wire::{read_frame, write_frame, ErrorCode, Request, Response, WireError};
use std::fmt;
use std::io;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::Duration;

/// Retry pacing: capped exponential backoff on attempt counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Delay before the second attempt, in milliseconds.
    pub base_ms: u64,
    /// Upper bound on any single delay, in milliseconds.
    pub cap_ms: u64,
    /// Attempts per request (connects, transport retries, overload and
    /// fence retries all draw from the same budget).
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base_ms: 10,
            cap_ms: 1000,
            max_attempts: 8,
        }
    }
}

impl RetryPolicy {
    /// The delay before attempt `attempt` (1-based; attempt 1 is
    /// immediate). Saturates at `cap_ms` for any attempt count: the
    /// exponent is capped before shifting and the scale before
    /// multiplying, so no attempt value can overflow the arithmetic.
    pub fn delay_ms(&self, attempt: u32) -> u64 {
        if attempt <= 1 {
            return 0;
        }
        let shift = u32::min(attempt - 2, 63);
        let factor = 1u64.checked_shl(shift).unwrap_or(u64::MAX);
        self.base_ms.saturating_mul(factor).min(self.cap_ms)
    }
}

/// Client configuration.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Ordered daemon sockets; the client prefers the earliest that
    /// answers and fails over down (and around) the list when the
    /// current endpoint stops answering.
    pub endpoints: Vec<PathBuf>,
    /// Retry pacing.
    pub retry: RetryPolicy,
    /// Optional per-connection read timeout in milliseconds — the only
    /// way a fully dropped reply frame is ever detected.
    pub read_timeout_ms: Option<u64>,
    /// When set, every dialed connection is wrapped in a
    /// [`crate::failpoint::FaultyStream`] driven by
    /// `plan.derive(connection_index)`:
    /// client-side wire-fault injection for the soak harness and tests.
    pub wire_faults: Option<FailPlan>,
}

impl ClientConfig {
    /// Defaults: one endpoint, [`RetryPolicy::default`], no timeout,
    /// no faults.
    pub fn new(socket_path: impl Into<PathBuf>) -> Self {
        Self::with_endpoints(vec![socket_path.into()])
    }

    /// A config over an ordered endpoint list (primary first).
    pub fn with_endpoints(endpoints: Vec<PathBuf>) -> Self {
        ClientConfig {
            endpoints,
            retry: RetryPolicy::default(),
            read_timeout_ms: None,
            wire_faults: None,
        }
    }
}

/// Why a client call failed for good (retries exhausted or the server
/// rejected the request in a way retrying cannot fix).
#[derive(Debug)]
pub enum ClientError {
    /// The retry budget ran out; the payload is the last failure.
    RetriesExhausted {
        /// Attempts made.
        attempts: u32,
        /// The final attempt's failure, stringified.
        last: String,
    },
    /// A typed server rejection that retrying cannot fix
    /// (`bad-request`).
    Rejected {
        /// The typed error code.
        code: ErrorCode,
        /// The server's epoch at rejection.
        epoch: u64,
        /// The server's mode tag.
        mode: String,
        /// Human-readable detail.
        message: String,
    },
    /// The server answered with a structurally valid but unexpected
    /// response kind.
    UnexpectedResponse(&'static str),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts: {last}")
            }
            ClientError::Rejected { code, message, .. } => {
                write!(f, "server rejected request ({}): {message}", code.tag())
            }
            ClientError::UnexpectedResponse(what) => {
                write!(f, "unexpected response kind: {what}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// Counters for the client's recovery actions, for harness accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Connections dialed (including the first).
    pub connects: u64,
    /// Reconnects forced by transport or framing failures.
    pub reconnects: u64,
    /// `epoch-fenced` rejections retried at the reported epoch.
    pub fenced_retries: u64,
    /// `overload` rejections retried after backoff.
    pub overload_retries: u64,
    /// Fault batches resubmitted after a lost or failed exchange.
    pub resubmissions: u64,
    /// Successful dials that landed on a different endpoint than the
    /// previous connection used.
    pub failovers: u64,
    /// `gen-fenced` rejections recovered from — by adopting a newer
    /// generation or failing away from a deposed one.
    pub gen_retries: u64,
}

/// A reconnecting, retrying connection to an ordered list of daemon
/// endpoints (one socket is the degenerate single-endpoint case).
pub struct Client {
    cfg: ClientConfig,
    conn: Option<Box<dyn Duplex>>,
    /// Connections dialed so far; feeds [`FailPlan::derive`] so each
    /// connection's injected fault sequence is reproducible.
    conn_index: u64,
    /// Index into `cfg.endpoints` the current/most recent connection
    /// used; dials start here and walk the list on failure.
    endpoint_ix: usize,
    counters: FaultCounters,
    stats: ClientStats,
    /// The server epoch most recently seen in any reply that carried
    /// one (`None` until then).
    last_epoch: Option<u64>,
    /// The newest generation lease seen in any reply (0 = none yet).
    last_gen: u64,
}

impl fmt::Debug for Client {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Client")
            .field("cfg", &self.cfg)
            .field("connected", &self.conn.is_some())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Client {
    /// A client for the daemon at `socket_path` with default retries.
    pub fn new(socket_path: impl Into<PathBuf>) -> Self {
        Self::with_config(ClientConfig::new(socket_path))
    }

    /// A client with explicit configuration.
    pub fn with_config(cfg: ClientConfig) -> Self {
        Client {
            cfg,
            conn: None,
            conn_index: 0,
            endpoint_ix: 0,
            counters: FaultCounters::new(),
            stats: ClientStats::default(),
            last_epoch: None,
            last_gen: 0,
        }
    }

    /// Recovery-action counters so far.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Counters for faults injected by this client's own
    /// `wire_faults` plan (zero without one).
    pub fn fault_counters(&self) -> FaultCounters {
        self.counters.clone()
    }

    /// The server epoch most recently seen in any reply that carried
    /// one; `None` before the first such reply. Epoch 0 is a real epoch
    /// (genesis), not "never seen".
    pub fn last_epoch(&self) -> Option<u64> {
        self.last_epoch
    }

    /// The newest generation lease seen in any reply (0 = none yet).
    pub fn last_gen(&self) -> u64 {
        self.last_gen
    }

    fn backoff(&self, attempt: u32) {
        let ms = self.cfg.retry.delay_ms(attempt);
        if ms > 0 {
            std::thread::sleep(Duration::from_millis(ms));
        }
    }

    /// Dial the current endpoint, walking the rest of the list (with
    /// wraparound) when it refuses. A successful dial that landed on a
    /// different endpoint than the previous connection is a failover.
    fn dial(&mut self) -> io::Result<()> {
        let n = self.cfg.endpoints.len();
        if n == 0 {
            return Err(io::Error::other("client has no endpoints configured"));
        }
        let mut last_err = None;
        for step in 0..n {
            let ix = (self.endpoint_ix + step) % n;
            let stream = match UnixStream::connect(&self.cfg.endpoints[ix]) {
                Ok(s) => s,
                Err(e) => {
                    last_err = Some(e);
                    continue;
                }
            };
            if let Some(ms) = self.cfg.read_timeout_ms {
                stream.set_read_timeout(Some(Duration::from_millis(ms.max(1))))?;
            }
            if ix != self.endpoint_ix {
                self.stats.failovers += 1;
                self.endpoint_ix = ix;
            }
            let index = self.conn_index;
            self.conn_index += 1;
            self.stats.connects += 1;
            self.conn = Some(dialed(stream, self.cfg.wire_faults, index, &self.counters));
            return Ok(());
        }
        Err(last_err.unwrap_or_else(|| io::Error::other("no endpoint answered")))
    }

    /// Drop the connection and move the preferred endpoint one step
    /// down the list — used when the *current* endpoint is alive but
    /// provably deposed (its generation lease is older than one this
    /// client has already seen).
    fn fail_away_from_current(&mut self) {
        self.conn = None;
        let n = self.cfg.endpoints.len();
        if n > 1 {
            self.stats.failovers += 1;
            self.endpoint_ix = (self.endpoint_ix + 1) % n;
        }
    }

    /// One write/read exchange on the current connection (dialing if
    /// needed). Any failure leaves the connection dropped.
    fn exchange(&mut self, req: &Request) -> Result<(String, Response), WireError> {
        if self.conn.is_none() {
            self.dial().map_err(WireError::Io)?;
        }
        let Some(conn) = self.conn.as_mut() else {
            // Unreachable: dial() either errored above or set `conn`.
            return Err(WireError::Io(io::Error::other("no connection after dial")));
        };
        let result = (|| {
            write_frame(conn, req.to_json().as_bytes())?;
            let payload = read_frame(conn)?;
            let text = String::from_utf8_lossy(&payload).into_owned();
            let resp = Response::decode(&payload)?;
            Ok((text, resp))
        })();
        if result.is_err() {
            self.conn = None;
        }
        // A reply in mode "unknown" (a server shutting down) was stamped
        // by no controller: it reports no epoch and no lease.
        if let Some((_, resp)) = result
            .as_ref()
            .ok()
            .filter(|(_, r)| r.epoch_mode().1 != "unknown")
        {
            self.last_epoch = Some(resp.epoch_mode().0);
            if let Some(g) = resp.gen() {
                if g > self.last_gen {
                    self.last_gen = g;
                }
            }
        }
        result
    }

    /// Issue `req`, retrying transport failures (with reconnect) and
    /// `overload` rejections under the configured backoff. Typed
    /// rejections other than `overload` are returned to the caller as
    /// the `Response::Error` they are — [`Client::paths`] and
    /// [`Client::submit_fault`] layer their own semantics on top.
    pub fn request(&mut self, req: &Request) -> Result<(String, Response), ClientError> {
        let max = self.cfg.retry.max_attempts.max(1);
        let mut last = String::new();
        for attempt in 1..=max {
            self.backoff(attempt);
            match self.exchange(req) {
                Ok((text, resp)) => {
                    if let Response::Error {
                        code: ErrorCode::Overload,
                        message,
                        ..
                    } = &resp
                    {
                        self.stats.overload_retries += 1;
                        last = format!("overload: {message}");
                        continue;
                    }
                    return Ok((text, resp));
                }
                Err(e) => {
                    self.stats.reconnects += 1;
                    last = e.to_string();
                }
            }
        }
        Err(ClientError::RetriesExhausted {
            attempts: max,
            last,
        })
    }

    /// `status` round trip.
    pub fn status(&mut self) -> Result<Response, ClientError> {
        let (_, resp) = self.request(&Request::Status)?;
        match resp {
            Response::Status { .. } => Ok(resp),
            other => Err(reject_or_unexpected(other, "status")),
        }
    }

    /// The server's current epoch (one `status` round trip).
    pub fn current_epoch(&mut self) -> Result<u64, ClientError> {
        match self.status()? {
            Response::Status { epoch, .. } => Ok(epoch),
            other => Err(reject_or_unexpected(other, "status")),
        }
    }

    /// `digest` round trip: `(epoch, digest-hex)`.
    pub fn digest(&mut self) -> Result<(u64, String), ClientError> {
        let (_, resp) = self.request(&Request::Digest)?;
        match resp {
            Response::Digest { epoch, digest, .. } => Ok((epoch, digest)),
            other => Err(reject_or_unexpected(other, "digest")),
        }
    }

    /// Advance the daemon's logical clock to `to`; returns the clock
    /// after the advance.
    pub fn tick(&mut self, to: u64) -> Result<u64, ClientError> {
        let (_, resp) = self.request(&Request::Tick { to })?;
        match resp {
            Response::Tick { now, .. } => Ok(now),
            other => Err(reject_or_unexpected(other, "tick")),
        }
    }

    /// Epoch-fenced path query. The batch is first issued at the newest
    /// epoch this client has seen (or fetched via `status` when it has
    /// seen none); an `epoch-fenced` rejection is retried at the epoch
    /// the rejection reported, so a reconvergence between fetch and
    /// query costs one extra round trip, never an error. `deadline_ms`
    /// is sent as given and ignored by the server (reads never queue).
    pub fn paths(
        &mut self,
        pairs: &[(u32, u32)],
        deadline_ms: Option<u64>,
    ) -> Result<(u64, Vec<Vec<u64>>), ClientError> {
        let mut epoch = match self.last_epoch {
            Some(epoch) => epoch,
            None => self.current_epoch()?,
        };
        let max = self.cfg.retry.max_attempts.max(1);
        for _ in 0..max {
            let req = Request::Paths {
                epoch,
                deadline_ms,
                pairs: pairs.to_vec(),
            };
            let (_, resp) = self.request(&req)?;
            match resp {
                Response::Paths { epoch, paths, .. } => return Ok((epoch, paths)),
                Response::Error {
                    code: ErrorCode::EpochFenced,
                    epoch: server_epoch,
                    ..
                } => {
                    self.stats.fenced_retries += 1;
                    epoch = server_epoch;
                }
                other => return Err(reject_or_unexpected(other, "paths")),
            }
        }
        Err(ClientError::RetriesExhausted {
            attempts: max,
            last: "epoch-fenced on every attempt".to_owned(),
        })
    }

    /// Submit fault batch `batch_id` until the daemon acknowledges it.
    /// Returns `true` if this submission applied the batch, `false` if
    /// the daemon had already ingested it (an earlier attempt's ack was
    /// lost — at-least-once delivery doing its job). Feed-sequencing
    /// rejections surface as [`ClientError::Rejected`].
    ///
    /// Writes carry the newest generation lease this client has seen
    /// (none before the first reply), so a promotion mid-flight shows
    /// up as a typed `gen-fenced` rejection rather than a silent
    /// double-apply: a rejection from a **newer** generation is adopted
    /// and the same `batch_id` resubmitted (the promoted controller's
    /// dedup keeps it idempotent); one from an **older** generation
    /// proves the endpoint is a deposed primary, and the client fails
    /// away from it before retrying.
    pub fn submit_fault(
        &mut self,
        batch_id: u64,
        changes: &[crate::wire::ChangeSpec],
    ) -> Result<bool, ClientError> {
        let max = self.cfg.retry.max_attempts.max(1);
        let mut last = String::new();
        for attempt in 1..=max {
            if attempt > 1 {
                self.stats.resubmissions += 1;
            }
            self.backoff(attempt);
            // Rebuilt per attempt: a gen-fenced retry must carry the
            // adopted (newer) lease, not the one it was rejected with.
            let req = Request::Fault {
                batch_id,
                gen: (self.last_gen > 0).then_some(self.last_gen),
                changes: changes.to_vec(),
            };
            match self.exchange(&req) {
                Ok((_, Response::Fault { applied, .. })) => return Ok(applied),
                Ok((
                    _,
                    Response::Error {
                        code: ErrorCode::Overload,
                        message,
                        ..
                    },
                )) => {
                    self.stats.overload_retries += 1;
                    last = format!("overload: {message}");
                }
                Ok((
                    _,
                    Response::Error {
                        code: ErrorCode::GenFenced,
                        gen: server_gen,
                        message,
                        ..
                    },
                )) => {
                    // `exchange` already adopted a newer lease; all
                    // that is left to decide is whether this endpoint
                    // is worth retrying. A server still on an older
                    // generation never is — it lost a promotion race.
                    self.stats.gen_retries += 1;
                    if server_gen < self.last_gen {
                        self.fail_away_from_current();
                    }
                    last = format!("gen-fenced: {message}");
                }
                Ok((_, other)) => return Err(reject_or_unexpected(other, "fault")),
                Err(e) => {
                    // The exchange failed with the ack possibly lost in
                    // flight; resubmit the same batch_id and let the
                    // daemon's dedup sort it out.
                    self.stats.reconnects += 1;
                    last = e.to_string();
                }
            }
        }
        Err(ClientError::RetriesExhausted {
            attempts: max,
            last,
        })
    }

    /// Toggle the daemon's injected-certificate-failure chaos hook.
    pub fn chaos(&mut self, fail_certs: bool) -> Result<(), ClientError> {
        let (_, resp) = self.request(&Request::Chaos { fail_certs })?;
        match resp {
            Response::Chaos { .. } => Ok(()),
            other => Err(reject_or_unexpected(other, "chaos")),
        }
    }

    /// Orderly daemon shutdown.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        let (_, resp) = self.request(&Request::Shutdown)?;
        match resp {
            Response::Shutdown { .. } => Ok(()),
            other => Err(reject_or_unexpected(other, "shutdown")),
        }
    }
}

/// Fold a non-matching response into the right client error.
fn reject_or_unexpected(resp: Response, expected: &'static str) -> ClientError {
    match resp {
        Response::Error {
            code,
            epoch,
            mode,
            message,
            ..
        } => ClientError::Rejected {
            code,
            epoch,
            mode,
            message,
        },
        _ => ClientError::UnexpectedResponse(expected),
    }
}

#[cfg(test)]
mod tests {
    use super::RetryPolicy;

    #[test]
    fn delay_doubles_then_caps() {
        let p = RetryPolicy {
            base_ms: 10,
            cap_ms: 1000,
            max_attempts: 8,
        };
        assert_eq!(p.delay_ms(1), 0);
        assert_eq!(p.delay_ms(2), 10);
        assert_eq!(p.delay_ms(3), 20);
        assert_eq!(p.delay_ms(4), 40);
        assert_eq!(p.delay_ms(9), 1000);
    }

    #[test]
    fn delay_saturates_at_cap_for_huge_attempt_counts() {
        // Shifts past 63 and products past u64::MAX must saturate to
        // the cap, not wrap to a tiny (or panicking) delay.
        let p = RetryPolicy {
            base_ms: u64::MAX / 2,
            cap_ms: 1234,
            max_attempts: u32::MAX,
        };
        assert_eq!(p.delay_ms(u32::MAX), 1234);
        assert_eq!(p.delay_ms(66), 1234);
        assert_eq!(p.delay_ms(2), 1234);
        let default = RetryPolicy::default();
        assert_eq!(default.delay_ms(u32::MAX), default.cap_ms);
    }
}
