//! The exporter-process buffer manager: buffer / skip / send decisions.
//!
//! One [`ExportPort`] exists per (exporting process × connection). It is the
//! state machine at the heart of the paper: it answers forwarded import
//! requests, decides for every export whether the framework must memcpy the
//! object into its buffer, frees buffered objects the moment they can no
//! longer be needed, and — given a buddy-help message — skips buffering of
//! objects that are already known not to be the match, *before they are even
//! generated* (§4.1).
//!
//! # The dominance rule
//!
//! All skipping and freeing is justified by one lemma, exploiting that both
//! export timestamps and request timestamps strictly increase:
//!
//! > Once the match `m` for request `x` is known, no export with timestamp
//! > `t < m` can ever be the match of any current or future request.
//!
//! *Proof sketch.* A future request `x' > x` prefers whichever in-region
//! candidate is closest to `x'`. For `REGL`, `t < m ≤ x < x'`, so whenever
//! `t` is in `x'`'s region so is `m`, and `m` is closer. For `REG`, `m` won
//! over `t` at `x`, which gives `m + t ≤ 2x < 2x'`, making `m` strictly
//! closer to `x'` as well; and `t ≥ lo' = x'−tol` implies
//! `m ≤ t + 2·tol ≤ x' + tol = hi'`, so `m` is in the region whenever `t`
//! is. For `REGU`, `t < m` with `t` in a region `[x', x'+tol]`, `x' > x`,
//! would require `t > x ≥` every pre-match export, i.e. `t ∈ (x, m)`, which
//! cannot exist because `m` is the first export at or above `x`.
//!
//! The same argument with `m` replaced by the best candidate seen so far
//! justifies freeing a superseded candidate inside a still-pending region
//! (the paper's Figure 8, "call memcpy, remove previous").

use crate::ids::{ConnectionId, RequestId};
use crate::messages::{ProcResponse, RepAnswer};
use crate::mutation::Mutation;
use crate::stats::ExportStats;
use couplink_time::{
    evaluate, AcceptableRegion, ExportHistory, HistoryError, MatchPolicy, MatchResult, Timestamp,
    Tolerance,
};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// Error from an [`ExportPort`] operation.
#[derive(Debug, Clone, PartialEq)]
pub enum PortError {
    /// An export or request timestamp violated the increasing invariant, or
    /// a history query could not be answered after pruning.
    History(HistoryError),
    /// A buddy-help or duplicate message referenced an unknown request.
    UnknownRequest(RequestId),
    /// Collective semantics (Property 1) were violated.
    CollectiveViolation {
        /// The request on which the violation was detected.
        request: RequestId,
        /// Human-readable description of the conflict.
        detail: String,
    },
    /// The framework buffer is at capacity and the export would need to be
    /// copied. Nothing was recorded: the caller must retry the same export
    /// after buffer space frees (a request arrival, a buddy-help message or
    /// a resolution). This models the finite-buffer-space question the
    /// paper's §6 leaves open.
    BufferFull {
        /// The export that could not be accepted.
        offered: Timestamp,
    },
}

impl fmt::Display for PortError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PortError::History(e) => write!(f, "history error: {e}"),
            PortError::UnknownRequest(r) => write!(f, "unknown request {r}"),
            PortError::CollectiveViolation { request, detail } => {
                write!(f, "collective violation on {request}: {detail}")
            }
            PortError::BufferFull { offered } => {
                write!(f, "framework buffer full; export {offered} must wait")
            }
        }
    }
}

impl std::error::Error for PortError {}

impl From<HistoryError> for PortError {
    fn from(e: HistoryError) -> Self {
        PortError::History(e)
    }
}

/// What the driver must do with the object being exported right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExportAction {
    /// Copy the object into the framework buffer (it may be a match later).
    Buffer,
    /// Copy the object and immediately transfer it to the importer: it is
    /// the known match for `request` (buddy-help told us before the object
    /// was generated).
    BufferAndSend {
        /// The request this object satisfies.
        request: RequestId,
    },
    /// Do nothing: the object can never be needed. This is the memcpy the
    /// buddy-help optimization saves.
    Skip,
}

impl ExportAction {
    /// Whether the action involves a memcpy.
    pub fn copies(self) -> bool {
        !matches!(self, ExportAction::Skip)
    }
}

/// A locally decided resolution of a previously PENDING request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Resolution {
    /// The request that was resolved.
    pub request: RequestId,
    /// The decided answer.
    pub answer: RepAnswer,
    /// If `Some`, the buffered object with this timestamp must now be
    /// transferred to the importer (it is this process's share of the match).
    pub send: Option<Timestamp>,
}

/// Effects of [`ExportPort::on_export`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExportEffects {
    /// What to do with the object being exported.
    pub action: Option<ExportAction>,
    /// Buffered objects to free (their memcpy turned out unnecessary unless
    /// they were already sent).
    pub freed: Vec<Timestamp>,
    /// Requests this export resolved locally; each must be reported to the
    /// rep (and data sent for matches).
    pub resolutions: Vec<Resolution>,
}

/// Effects of [`ExportPort::on_request`].
#[derive(Debug, Clone, PartialEq)]
pub struct RequestEffects {
    /// The response to return to the rep.
    pub response: ProcResponse,
    /// Buffered objects to free.
    pub freed: Vec<Timestamp>,
    /// If `Some`, the buffered object with this timestamp must be
    /// transferred to the importer (immediate MATCH).
    pub send: Option<Timestamp>,
}

/// Effects of [`ExportPort::on_buddy_help`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HelpEffects {
    /// Buffered objects to free.
    pub freed: Vec<Timestamp>,
    /// If `Some`, the buffered object with this timestamp must be
    /// transferred to the importer (the match had already been exported by
    /// the time the buddy-help message arrived).
    pub send: Option<Timestamp>,
}

#[derive(Debug, Clone, Copy)]
struct OpenRequest {
    id: RequestId,
    region: AcceptableRegion,
    /// Final answer learned via buddy-help, if any.
    help: Option<RepAnswer>,
}

#[derive(Debug, Clone, Copy)]
struct Buffered {
    sent: bool,
}

/// Per-(process × connection) exporter state machine. See the module docs.
///
/// # Example: a buddy-help window
///
/// ```
/// use couplink_proto::{ConnectionId, ExportAction, ExportPort, RepAnswer, RequestId};
/// use couplink_time::{ts, MatchPolicy, Tolerance};
///
/// let mut port = ExportPort::new(
///     ConnectionId(0), MatchPolicy::RegL, Tolerance::new(2.5).unwrap());
/// // A request for @20 arrives before anything was exported: PENDING.
/// port.on_request(RequestId(0), ts(20.0))?;
/// // The rep's buddy-help announces the collective match: @19.6.
/// port.on_buddy_help(RequestId(0), RepAnswer::Match(ts(19.6)))?;
/// // Every export below the known match now skips the framework memcpy...
/// assert_eq!(port.on_export(ts(18.6))?.action, Some(ExportAction::Skip));
/// // ...and the match itself is copied and sent in one step.
/// assert_eq!(
///     port.on_export(ts(19.6))?.action,
///     Some(ExportAction::BufferAndSend { request: RequestId(0) }),
/// );
/// # Ok::<(), couplink_proto::export_port::PortError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ExportPort {
    conn: ConnectionId,
    policy: MatchPolicy,
    tol: Tolerance,
    history: ExportHistory,
    /// Regions of all requests seen, in arrival order (for attribution).
    regions: Vec<AcceptableRegion>,
    open: VecDeque<OpenRequest>,
    /// Watermark from fully resolved requests: exports below it can never be
    /// needed (max over resolved requests of the match timestamp, or the
    /// region lower bound for NO MATCH).
    resolved_bound: Option<Timestamp>,
    buffered: BTreeMap<Timestamp, Buffered>,
    /// Maximum buffered objects; `None` = unbounded (the paper's setting).
    capacity: Option<usize>,
    /// The armed [`Mutation`], if any; this port fires only
    /// [`Mutation::HelpSkip`] and [`Mutation::StaleSkip`].
    mutation: Option<Mutation>,
    stats: ExportStats,
}

impl ExportPort {
    /// Creates a port for one connection with the connection's match policy
    /// and tolerance.
    pub fn new(conn: ConnectionId, policy: MatchPolicy, tol: Tolerance) -> Self {
        ExportPort {
            conn,
            policy,
            tol,
            history: ExportHistory::new(),
            regions: Vec::new(),
            open: VecDeque::new(),
            resolved_bound: None,
            buffered: BTreeMap::new(),
            capacity: None,
            mutation: None,
            stats: ExportStats::default(),
        }
    }

    /// Arms a deliberately unsound rule for mutation testing (see
    /// [`Mutation`]). The port fires [`Mutation::HelpSkip`] and
    /// [`Mutation::StaleSkip`] and ignores every other rule.
    pub fn set_mutation(&mut self, mutation: Option<Mutation>) {
        self.mutation = mutation;
    }

    /// Creates a port whose framework buffer holds at most `capacity`
    /// objects. When full, [`ExportPort::on_export`] returns
    /// [`PortError::BufferFull`] without consuming the export; the caller
    /// retries once buffer space frees.
    pub fn with_capacity(
        conn: ConnectionId,
        policy: MatchPolicy,
        tol: Tolerance,
        capacity: usize,
    ) -> Self {
        let mut port = Self::new(conn, policy, tol);
        port.capacity = Some(capacity);
        port
    }

    /// The buffer capacity, if bounded.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// The connection this port serves.
    pub fn connection(&self) -> ConnectionId {
        self.conn
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &ExportStats {
        &self.stats
    }

    /// Number of objects currently held in the framework buffer.
    pub fn buffered_len(&self) -> usize {
        self.buffered.len()
    }

    /// The timestamps currently buffered (ascending).
    pub fn buffered_timestamps(&self) -> impl Iterator<Item = Timestamp> + '_ {
        self.buffered.keys().copied()
    }

    /// Exports below this bound will be skipped outright.
    ///
    /// This is the *skip floor*: the minimum over open requests of their
    /// known bound (the buddy-help match if known, else the region's lower
    /// bound), or the resolved watermark when no request is open.
    pub fn skip_floor(&self) -> Option<Timestamp> {
        if self.open.is_empty() {
            self.resolved_bound
        } else {
            self.open
                .iter()
                .map(|r| match r.help {
                    Some(RepAnswer::Match(m)) => m,
                    _ => r.region.lo(),
                })
                .min()
        }
    }

    /// Handles a request forwarded by the rep. Returns the response for the
    /// rep plus buffer effects.
    pub fn on_request(
        &mut self,
        id: RequestId,
        ts: Timestamp,
    ) -> Result<RequestEffects, PortError> {
        let region = self.policy.region(ts, self.tol);
        // Validate the increasing-request invariant through the region list.
        if let Some(prev) = self.regions.last() {
            if ts <= prev.request() {
                return Err(PortError::History(HistoryError::NotIncreasing {
                    last: prev.request(),
                    offered: ts,
                }));
            }
        }
        self.regions.push(region);
        self.stats.requests += 1;

        let result = evaluate(&region, &self.history)?;
        let response = ProcResponse::from_result(result, self.history.latest());
        let mut send = None;
        match result {
            MatchResult::Match(m) => {
                self.mark_resolved_bound(m);
                send = Some(self.mark_sent(id, m)?);
            }
            MatchResult::NoMatch => {
                self.mark_resolved_bound(region.lo());
            }
            MatchResult::Pending => {
                self.open.push_back(OpenRequest {
                    id,
                    region,
                    help: None,
                });
            }
        }
        let freed = self.advance();
        Ok(RequestEffects {
            response,
            freed,
            send,
        })
    }

    /// Decides, without mutating anything, what `on_export(t)` would do.
    ///
    /// Returns the action and, for a buddy-help-resolved match, the position
    /// of the resolved request in the open queue.
    fn classify(&self, t: Timestamp) -> Result<(ExportAction, Option<usize>), PortError> {
        for (pos, req) in self.open.iter().enumerate() {
            if let Some(RepAnswer::Match(m)) = req.help {
                if t == m {
                    if self.mutation == Some(Mutation::HelpSkip) {
                        // Mutation: the broken rule drops the match object
                        // itself. No internal check fires — the request just
                        // stays open forever — which is exactly what the
                        // external buffer-safety/liveness oracles must catch.
                        return Ok((ExportAction::Skip, None));
                    }
                    return Ok((ExportAction::BufferAndSend { request: req.id }, Some(pos)));
                }
                // Property 1 check: the deciding process exported `m`, so
                // every process does. The help stays open only while this
                // one has not reached `m`, so an export past `m` means this
                // process stepped over the match.
                if t > m && self.history.latest().is_none_or(|l| l < m) {
                    return Err(PortError::CollectiveViolation {
                        request: req.id,
                        detail: format!(
                            "export {t} steps over the buddy-help match {m}, \
                             but all processes export the same sequence"
                        ),
                    });
                }
            }
        }
        let action = if self.skip_floor().is_some_and(|floor| t < floor) {
            ExportAction::Skip
        } else {
            ExportAction::Buffer
        };
        Ok((action, None))
    }

    /// The buffered objects that buffering `t` would supersede (Fig. 8's
    /// "remove previous"): smaller candidates inside the newest pending
    /// region that no older open request can still need.
    fn superseded_by(&self, t: Timestamp) -> Vec<Timestamp> {
        match self.open.back() {
            Some(n) if n.region.contains(t) && t <= n.region.request() => {}
            _ => return Vec::new(),
        }
        let older: Vec<AcceptableRegion> = self
            .open
            .iter()
            .take(self.open.len() - 1)
            .map(|r| r.region)
            .collect();
        self.buffered
            .range(..t)
            .filter(|(ts0, _)| !older.iter().any(|r| r.contains(**ts0)))
            .map(|(ts0, _)| *ts0)
            .collect()
    }

    /// Handles an export call with timestamp `t`: decides the buffering
    /// action and resolves any open requests this export decides.
    ///
    /// With a bounded buffer, returns [`PortError::BufferFull`] — without
    /// consuming the export — when the object would have to be copied but no
    /// space can be made; retry after a request, buddy-help message or
    /// resolution frees space.
    pub fn on_export(&mut self, t: Timestamp) -> Result<ExportEffects, PortError> {
        if let Some(last) = self.history.latest() {
            if t <= last {
                return Err(PortError::History(HistoryError::NotIncreasing {
                    last,
                    offered: t,
                }));
            }
        }
        let (action, resolved_by_help) = self.classify(t)?;
        let doomed = match action {
            ExportAction::Buffer => self.superseded_by(t),
            _ => Vec::new(),
        };
        if action.copies() {
            if let Some(cap) = self.capacity {
                if self.buffered.len() - doomed.len() >= cap {
                    self.stats.buffer_full_stalls += 1;
                    return Err(PortError::BufferFull { offered: t });
                }
            }
        }
        self.history.record(t).expect("increase checked above");
        self.stats.exports += 1;
        let mut effects = ExportEffects::default();

        match action {
            ExportAction::Skip => {
                self.stats.skips += 1;
            }
            ExportAction::Buffer => {
                for d in doomed {
                    self.free(d);
                    effects.freed.push(d);
                }
                self.buffered.insert(t, Buffered { sent: false });
                self.stats.memcpys += 1;
                self.stats.buffered_hwm = self.stats.buffered_hwm.max(self.buffered.len());
            }
            ExportAction::BufferAndSend { request } => {
                self.buffered.insert(t, Buffered { sent: true });
                self.stats.memcpys += 1;
                self.stats.buffered_hwm = self.stats.buffered_hwm.max(self.buffered.len());
                self.stats.sends += 1;
                let pos = resolved_by_help.expect("set together with the action");
                let req = self.open.remove(pos).expect("position is in range");
                debug_assert_eq!(req.id, request);
                self.mark_resolved_bound(t);
                // One export can be the announced match of *several* helped
                // requests: under REGL consecutive overlapping regions share
                // their maximum, so the rep may announce the same object for
                // back-to-back requests. Each one owes the importer a piece;
                // resolving only the first would leave the rest open forever.
                // (The rep already knows these answers; the late responses it
                // gets from the resolutions below are validated, not re-counted.)
                let mut idx = 0;
                while idx < self.open.len() {
                    if self.open[idx].help == Some(RepAnswer::Match(t)) {
                        let extra = self.open.remove(idx).expect("index is in range");
                        let send = self.mark_sent(extra.id, t)?;
                        effects.resolutions.push(Resolution {
                            request: extra.id,
                            answer: RepAnswer::Match(t),
                            send: Some(send),
                        });
                    } else {
                        idx += 1;
                    }
                }
            }
        }
        effects.action = Some(action);

        // 2. Local resolution of open requests this export decides.
        //    (Requests that already have a buddy-help answer are resolved on
        //    the matched export above and need no rep update.)
        let mut idx = 0;
        while idx < self.open.len() {
            let OpenRequest { id, region, help } = self.open[idx];
            let result = match help {
                Some(_) => MatchResult::Pending,
                None => evaluate(&region, &self.history)?,
            };
            let (answer, send) = match result {
                MatchResult::Pending => {
                    idx += 1;
                    continue;
                }
                MatchResult::Match(m) => {
                    self.mark_resolved_bound(m);
                    (RepAnswer::Match(m), Some(self.mark_sent(id, m)?))
                }
                MatchResult::NoMatch => {
                    self.mark_resolved_bound(region.lo());
                    (RepAnswer::NoMatch, None)
                }
            };
            self.open.remove(idx);
            effects.resolutions.push(Resolution {
                request: id,
                answer,
                send,
            });
        }

        effects.freed.extend(self.advance());
        Ok(effects)
    }

    /// Handles a buddy-help message from the rep: the final answer for a
    /// request this process answered PENDING.
    pub fn on_buddy_help(
        &mut self,
        id: RequestId,
        answer: RepAnswer,
    ) -> Result<HelpEffects, PortError> {
        let pos = match self.open.iter().position(|r| r.id == id) {
            Some(p) => p,
            None => {
                // The request may have been resolved locally in the meantime
                // (the process caught up before the help arrived). That is
                // legal; the rep validated consistency. Everything else is a
                // protocol error.
                return if self.regions.len() > self.open.len() {
                    Ok(HelpEffects::default())
                } else {
                    Err(PortError::UnknownRequest(id))
                };
            }
        };
        let region = self.open[pos].region;
        let mut effects = HelpEffects::default();
        match answer {
            RepAnswer::Match(m) => {
                if !region.contains(m) {
                    return Err(PortError::CollectiveViolation {
                        request: id,
                        detail: format!("buddy-help match {m} is outside {region}"),
                    });
                }
                // Property 1: our local exports are a prefix of what the
                // deciding process saw, so none of our in-region candidates
                // may beat the announced match.
                if let Some(best) = self.best_local_candidate(&region)? {
                    if region.prefer(best, m) != m {
                        return Err(PortError::CollectiveViolation {
                            request: id,
                            detail: format!(
                                "buddy-help match {m} is beaten by the locally \
                                 exported candidate {best}"
                            ),
                        });
                    }
                }
                // If we already exported the match, resolve right away and
                // send our piece; otherwise remember the answer and wait for
                // the matching export (skipping everything below it).
                let already = self.history.latest().is_some_and(|l| l >= m);
                if already {
                    if !self.buffered.contains_key(&m) {
                        return Err(PortError::CollectiveViolation {
                            request: id,
                            detail: format!(
                                "buddy-help match {m} was already exported here but \
                                 is not buffered — local and collective decisions \
                                 diverged"
                            ),
                        });
                    }
                    self.open.remove(pos);
                    self.mark_resolved_bound(m);
                    if self.mutation == Some(Mutation::StaleSkip) {
                        // Mutation: treat the announcement as stale and drop
                        // it without sending our piece. No internal check
                        // fires — the importer just never receives this
                        // rank's contribution — which is exactly what the
                        // external buffer-safety/liveness oracles must catch.
                        self.mark_help(id);
                    } else {
                        effects.send = Some(self.mark_sent(id, m)?);
                    }
                } else {
                    self.open[pos].help = Some(answer);
                    self.mark_help(id);
                }
            }
            RepAnswer::NoMatch => {
                // Property 1: no process will ever export into this region,
                // so the request is simply dead.
                self.open.remove(pos);
                self.mark_resolved_bound(region.lo());
                self.mark_help(id);
            }
        }
        effects.freed = self.advance();
        Ok(effects)
    }

    /// Attributes statistics and frees everything below the current floor.
    fn advance(&mut self) -> Vec<Timestamp> {
        let floor = match self.skip_floor() {
            Some(f) => f,
            None => return Vec::new(),
        };
        let doomed: Vec<Timestamp> = self.buffered.range(..floor).map(|(t, _)| *t).collect();
        for t in &doomed {
            self.free(*t);
        }
        // History pruning must stay conservative: only below the smallest
        // region lower bound that could still be queried.
        let history_floor = self
            .open
            .iter()
            .map(|r| r.region.lo())
            .chain(self.regions.last().map(|r| r.lo()))
            .min();
        if let Some(hf) = history_floor {
            self.history.prune_below(hf);
        }
        doomed
    }

    /// Frees one buffered object, attributing unnecessary-buffering stats.
    fn free(&mut self, t: Timestamp) {
        let meta = self.buffered.remove(&t).expect("freeing unbuffered object");
        if meta.sent {
            self.stats.freed_sent += 1;
        } else {
            self.stats.freed_unsent += 1;
            // Equation (1) attribution: which acceptable region was this
            // unnecessarily buffered object in, if any?
            match self.regions.iter().rposition(|r| r.contains(t)) {
                Some(i) => {
                    if self.stats.unnecessary_by_request.len() <= i {
                        self.stats.unnecessary_by_request.resize(i + 1, 0);
                    }
                    self.stats.unnecessary_by_request[i] += 1;
                }
                None => self.stats.unnecessary_inter_region += 1,
            }
        }
    }

    /// Marks the buffered object `m` as sent and returns its timestamp.
    fn mark_sent(&mut self, id: RequestId, m: Timestamp) -> Result<Timestamp, PortError> {
        match self.buffered.get_mut(&m) {
            Some(meta) => {
                if !meta.sent {
                    meta.sent = true;
                    self.stats.sends += 1;
                }
                Ok(m)
            }
            None => Err(PortError::CollectiveViolation {
                request: id,
                detail: format!("match {m} decided but the object is not buffered"),
            }),
        }
    }

    /// The best locally exported candidate inside `region` (the timestamp
    /// the matcher would currently prefer), ignoring decidedness.
    fn best_local_candidate(
        &self,
        region: &AcceptableRegion,
    ) -> Result<Option<Timestamp>, PortError> {
        let x = region.request();
        let best = match region.policy() {
            MatchPolicy::RegL => self.history.max_in(region.lo(), region.hi())?,
            MatchPolicy::RegU => self.history.min_in(region.lo(), region.hi())?,
            MatchPolicy::Reg => {
                let below = self.history.max_in(region.lo(), x)?;
                let above = self.history.min_in(x, region.hi())?;
                match (below, above) {
                    (Some(b), Some(a)) => Some(region.prefer(b, a)),
                    (b, a) => b.or(a),
                }
            }
        };
        Ok(best)
    }

    fn mark_resolved_bound(&mut self, bound: Timestamp) {
        self.resolved_bound = Some(match self.resolved_bound {
            Some(b) => b.max(bound),
            None => bound,
        });
    }

    fn mark_help(&mut self, _id: RequestId) {
        self.stats.buddy_helps += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use couplink_time::ts;

    fn port(policy: MatchPolicy, tol: f64) -> ExportPort {
        ExportPort::new(ConnectionId(0), policy, Tolerance::new(tol).unwrap())
    }

    fn regl_port(tol: f64) -> ExportPort {
        port(MatchPolicy::RegL, tol)
    }

    /// Drives the paper's Figure 5 scenario and checks every line.
    #[test]
    fn figure5_with_buddy_help() {
        let mut p = regl_port(2.5);
        // Lines 1-4: export D@1.6 .. D@14.6, all memcpy'd.
        for i in 1..=14 {
            let fx = p.on_export(ts(i as f64 + 0.6)).unwrap();
            assert_eq!(fx.action, Some(ExportAction::Buffer), "iteration {i}");
            assert!(fx.resolutions.is_empty());
        }
        assert_eq!(p.buffered_len(), 14);
        // Lines 5-7: request D@20 arrives; reply PENDING with latest 14.6;
        // remove D@1.6 .. D@14.6? No — the region is [17.5, 20], so only
        // entries below 17.5 are removed, which is all 14 of them.
        let rfx = p.on_request(RequestId(0), ts(20.0)).unwrap();
        assert_eq!(
            rfx.response,
            ProcResponse::Pending {
                latest: Some(ts(14.6))
            }
        );
        assert_eq!(rfx.freed.len(), 14);
        assert_eq!(p.buffered_len(), 0);
        // Line 8: buddy-help {D@20, YES, D@19.6}.
        let hfx = p
            .on_buddy_help(RequestId(0), RepAnswer::Match(ts(19.6)))
            .unwrap();
        assert_eq!(hfx.send, None);
        // Lines 10-13: exports 15.6 .. 18.6 skip the memcpy.
        for i in 15..=18 {
            let fx = p.on_export(ts(i as f64 + 0.6)).unwrap();
            assert_eq!(fx.action, Some(ExportAction::Skip), "iteration {i}");
        }
        // Lines 14-16: export D@19.6 → memcpy + send out.
        let fx = p.on_export(ts(19.6)).unwrap();
        assert_eq!(
            fx.action,
            Some(ExportAction::BufferAndSend {
                request: RequestId(0)
            })
        );
        // Lines 17-20: exports 20.6 .. 31.6 buffered again (the next request
        // is unknown).
        for i in 20..=31 {
            let fx = p.on_export(ts(i as f64 + 0.6)).unwrap();
            assert_eq!(fx.action, Some(ExportAction::Buffer), "iteration {i}");
        }
        // D@19.6 is still buffered alongside 20.6 .. 31.6.
        assert_eq!(p.buffered_len(), 13);
        // Lines 21-23: request D@40 → PENDING, remove D@19.6 .. D@34.x below
        // the new region [37.5, 40].
        let rfx = p.on_request(RequestId(1), ts(40.0)).unwrap();
        assert_eq!(
            rfx.response,
            ProcResponse::Pending {
                latest: Some(ts(31.6))
            }
        );
        assert_eq!(rfx.freed.len(), 13);
        assert_eq!(p.buffered_len(), 0);
        // Lines 24-29: buddy-help {D@40, YES, D@39.6}; exports 32.6 .. 38.6
        // skip (7 skips this time, up from 4 — T_i decreasing).
        p.on_buddy_help(RequestId(1), RepAnswer::Match(ts(39.6)))
            .unwrap();
        for i in 32..=38 {
            let fx = p.on_export(ts(i as f64 + 0.6)).unwrap();
            assert_eq!(fx.action, Some(ExportAction::Skip), "iteration {i}");
        }
        // Lines 30-32: D@39.6 memcpy + send.
        let fx = p.on_export(ts(39.6)).unwrap();
        assert_eq!(
            fx.action,
            Some(ExportAction::BufferAndSend {
                request: RequestId(1)
            })
        );
        // Line 33: D@40.6 buffered.
        let fx = p.on_export(ts(40.6)).unwrap();
        assert_eq!(fx.action, Some(ExportAction::Buffer));

        let s = p.stats();
        assert_eq!(s.skips, 4 + 7);
        assert_eq!(s.sends, 2);
    }

    /// The paper's Figure 7: REGL tolerance 5.0, request at 10.0, with
    /// buddy-help — only the match is copied.
    #[test]
    fn figure7_with_buddy_help() {
        let mut p = regl_port(5.0);
        for i in 1..=3 {
            assert_eq!(
                p.on_export(ts(i as f64 + 0.6)).unwrap().action,
                Some(ExportAction::Buffer)
            );
        }
        // Request D@10.0: region [5.0, 10.0]; reply PENDING; remove
        // D@1.6..D@3.6 (all below 5.0).
        let rfx = p.on_request(RequestId(0), ts(10.0)).unwrap();
        assert_eq!(
            rfx.response,
            ProcResponse::Pending {
                latest: Some(ts(3.6))
            }
        );
        assert_eq!(rfx.freed.len(), 3);
        // Buddy-help: the match is D@9.6.
        p.on_buddy_help(RequestId(0), RepAnswer::Match(ts(9.6)))
            .unwrap();
        // Line 8: D@4.6 skipped (outside the region would have been the
        // reason pre-help; with help everything below 9.6 skips).
        // Lines 9-11: D@5.6 .. D@8.6 skipped despite being inside the region.
        for i in 4..=8 {
            assert_eq!(
                p.on_export(ts(i as f64 + 0.6)).unwrap().action,
                Some(ExportAction::Skip),
                "iteration {i}"
            );
        }
        // Lines 12-14: D@9.6 memcpy + send.
        let fx = p.on_export(ts(9.6)).unwrap();
        assert_eq!(
            fx.action,
            Some(ExportAction::BufferAndSend {
                request: RequestId(0)
            })
        );
        // Line 15: D@10.6 buffered.
        assert_eq!(
            p.on_export(ts(10.6)).unwrap().action,
            Some(ExportAction::Buffer)
        );
        assert_eq!(p.stats().skips, 5);
        assert_eq!(p.stats().memcpys, 3 + 1 + 1);
    }

    /// The paper's Figure 8: same scenario without buddy-help — every
    /// in-region export is copied and supersedes its predecessor; the match
    /// resolves locally at the first export beyond the region.
    #[test]
    fn figure8_without_buddy_help() {
        let mut p = regl_port(5.0);
        for i in 1..=3 {
            p.on_export(ts(i as f64 + 0.6)).unwrap();
        }
        let rfx = p.on_request(RequestId(0), ts(10.0)).unwrap();
        assert_eq!(rfx.freed.len(), 3);
        // Line 7: D@4.6 — below the region [5.0, 10.0] → skip.
        assert_eq!(
            p.on_export(ts(4.6)).unwrap().action,
            Some(ExportAction::Skip)
        );
        // Lines 8-18: D@5.6 .. D@9.6 each memcpy'd, freeing the predecessor.
        let mut prev: Option<Timestamp> = None;
        for i in 5..=9 {
            let t = ts(i as f64 + 0.6);
            let fx = p.on_export(t).unwrap();
            assert_eq!(fx.action, Some(ExportAction::Buffer), "iteration {i}");
            match prev {
                None => assert!(fx.freed.is_empty()),
                Some(pv) => assert_eq!(fx.freed, vec![pv], "iteration {i}"),
            }
            assert!(fx.resolutions.is_empty());
            prev = Some(t);
        }
        assert_eq!(p.buffered_len(), 1); // only the current candidate D@9.6
                                         // Lines 19-21: D@10.6 memcpy'd; resolves the request; send D@9.6.
        let fx = p.on_export(ts(10.6)).unwrap();
        assert_eq!(fx.action, Some(ExportAction::Buffer));
        assert_eq!(
            fx.resolutions,
            vec![Resolution {
                request: RequestId(0),
                answer: RepAnswer::Match(ts(9.6)),
                send: Some(ts(9.6)),
            }]
        );
        // Unnecessary buffering: D@5.6 .. D@8.6 were copied then freed
        // unsent — exactly n(i) - 1 = 4 of the 5 in-region copies (Eq. 1).
        assert_eq!(p.stats().freed_unsent, 3 + 4);
        assert_eq!(p.stats().unnecessary_by_request, vec![4]);
        assert_eq!(p.stats().unnecessary_inter_region, 3); // pre-request 1.6..3.6
    }

    #[test]
    fn immediate_match_when_fast() {
        // The fast process has already exported past the region when the
        // request arrives: immediate MATCH and the piece is sent.
        let mut p = regl_port(2.5);
        for i in 1..=21 {
            p.on_export(ts(i as f64 + 0.6)).unwrap();
        }
        let rfx = p.on_request(RequestId(0), ts(20.0)).unwrap();
        assert_eq!(rfx.response, ProcResponse::Match(ts(19.6)));
        assert_eq!(rfx.send, Some(ts(19.6)));
        // Everything below the match is freed; the match itself and later
        // exports stay.
        assert!(p.buffered_timestamps().all(|t| t >= ts(19.6)));
    }

    #[test]
    fn immediate_no_match_when_region_jumped() {
        let mut p = regl_port(0.5);
        p.on_export(ts(1.0)).unwrap();
        p.on_export(ts(5.0)).unwrap();
        let rfx = p.on_request(RequestId(0), ts(3.0)).unwrap();
        assert_eq!(rfx.response, ProcResponse::NoMatch);
        assert_eq!(rfx.send, None);
    }

    #[test]
    fn buddy_help_no_match_kills_request() {
        let mut p = regl_port(0.5);
        p.on_export(ts(1.0)).unwrap();
        let rfx = p.on_request(RequestId(0), ts(3.0)).unwrap();
        assert!(matches!(rfx.response, ProcResponse::Pending { .. }));
        let hfx = p.on_buddy_help(RequestId(0), RepAnswer::NoMatch).unwrap();
        assert_eq!(hfx.send, None);
        // Exports below the dead region's lower bound now skip.
        assert_eq!(
            p.on_export(ts(2.0)).unwrap().action,
            Some(ExportAction::Skip)
        );
        // Exports above it buffer again (they may match future requests).
        assert_eq!(
            p.on_export(ts(2.6)).unwrap().action,
            Some(ExportAction::Buffer)
        );
    }

    #[test]
    fn buddy_help_after_local_export_of_match_sends_immediately() {
        let mut p = regl_port(2.5);
        for i in 1..=19 {
            p.on_export(ts(i as f64 + 0.6)).unwrap();
        }
        // Request arrives; local latest is 19.6 < 20 → PENDING.
        let rfx = p.on_request(RequestId(0), ts(20.0)).unwrap();
        assert!(matches!(rfx.response, ProcResponse::Pending { .. }));
        // Buddy-help says 19.6, which we have already exported and buffered.
        let hfx = p
            .on_buddy_help(RequestId(0), RepAnswer::Match(ts(19.6)))
            .unwrap();
        assert_eq!(hfx.send, Some(ts(19.6)));
    }

    /// The two export-side mutations each break exactly their own step,
    /// and the port ignores the rules other components fire.
    #[test]
    fn armed_mutation_fires_only_its_own_rule() {
        let at_match = |m: Option<Mutation>| {
            let mut p = regl_port(2.5);
            p.set_mutation(m);
            p.on_request(RequestId(0), ts(20.0)).unwrap();
            p.on_buddy_help(RequestId(0), RepAnswer::Match(ts(19.6)))
                .unwrap();
            p.on_export(ts(19.6)).unwrap().action
        };
        let stale = |m: Option<Mutation>| {
            let mut p = regl_port(2.5);
            p.set_mutation(m);
            p.on_export(ts(19.6)).unwrap();
            p.on_request(RequestId(0), ts(20.0)).unwrap();
            p.on_buddy_help(RequestId(0), RepAnswer::Match(ts(19.6)))
                .unwrap()
                .send
        };
        let send = Some(ExportAction::BufferAndSend {
            request: RequestId(0),
        });
        assert_eq!(at_match(Some(Mutation::HelpSkip)), Some(ExportAction::Skip));
        assert_eq!(stale(Some(Mutation::StaleSkip)), None);
        for m in [
            None,
            Some(Mutation::RelayDrop),
            Some(Mutation::AckBeforeHandle),
        ] {
            assert_eq!(at_match(m), send, "{m:?}");
            assert_eq!(stale(m), Some(ts(19.6)), "{m:?}");
        }
        assert_eq!(at_match(Some(Mutation::StaleSkip)), send);
        assert_eq!(stale(Some(Mutation::HelpSkip)), Some(ts(19.6)));
    }

    #[test]
    fn buddy_help_outside_region_is_violation() {
        let mut p = regl_port(2.5);
        p.on_export(ts(1.0)).unwrap();
        p.on_request(RequestId(0), ts(20.0)).unwrap();
        let err = p
            .on_buddy_help(RequestId(0), RepAnswer::Match(ts(10.0)))
            .unwrap_err();
        assert!(matches!(err, PortError::CollectiveViolation { .. }));
    }

    #[test]
    fn export_beating_known_match_is_violation() {
        let mut p = regl_port(2.5);
        p.on_export(ts(1.0)).unwrap();
        p.on_request(RequestId(0), ts(20.0)).unwrap();
        p.on_buddy_help(RequestId(0), RepAnswer::Match(ts(18.0)))
            .unwrap();
        // An export at 19.0 would be a better REGL match than 18.0 — but the
        // fast process (whose history is complete up to 20) said 18.0.
        let err = p.on_export(ts(19.0)).unwrap_err();
        assert!(matches!(err, PortError::CollectiveViolation { .. }));
    }

    /// A rank that steps over its help match outside the region: export
    /// 16.6, answer request 20 PENDING, learn `Match(19.6)`, skip 18.9,
    /// then export 20.1. Its peers exported 19.6, so this is a violation,
    /// not an export to buffer while the request waits forever.
    #[test]
    fn export_stepping_over_known_match_is_violation() {
        let mut p = regl_port(2.5);
        p.on_export(ts(16.6)).unwrap();
        let fx = p.on_request(RequestId(0), ts(20.0)).unwrap();
        assert!(matches!(fx.response, ProcResponse::Pending { .. }));
        p.on_buddy_help(RequestId(0), RepAnswer::Match(ts(19.6)))
            .unwrap();
        assert_eq!(
            p.on_export(ts(18.9)).unwrap().action,
            Some(ExportAction::Skip)
        );
        let err = p.on_export(ts(20.1)).unwrap_err();
        assert!(
            matches!(err, PortError::CollectiveViolation { request, .. } if request == RequestId(0)),
            "{err:?}"
        );
    }

    #[test]
    fn requests_must_increase() {
        let mut p = regl_port(2.5);
        p.on_request(RequestId(0), ts(20.0)).unwrap();
        assert!(matches!(
            p.on_request(RequestId(1), ts(20.0)),
            Err(PortError::History(HistoryError::NotIncreasing { .. }))
        ));
    }

    #[test]
    fn exports_must_increase() {
        let mut p = regl_port(2.5);
        p.on_export(ts(5.0)).unwrap();
        assert!(matches!(
            p.on_export(ts(5.0)),
            Err(PortError::History(HistoryError::NotIncreasing { .. }))
        ));
    }

    #[test]
    fn late_buddy_help_for_resolved_request_is_ignored() {
        let mut p = regl_port(2.5);
        for i in 1..=19 {
            p.on_export(ts(i as f64 + 0.6)).unwrap();
        }
        p.on_request(RequestId(0), ts(20.0)).unwrap();
        // Local resolution at the first export past the region.
        let fx = p.on_export(ts(20.6)).unwrap();
        assert_eq!(fx.resolutions.len(), 1);
        // Buddy-help arrives afterwards: a no-op.
        let hfx = p
            .on_buddy_help(RequestId(0), RepAnswer::Match(ts(19.6)))
            .unwrap();
        assert_eq!(hfx, HelpEffects::default());
    }

    #[test]
    fn buddy_help_for_never_seen_request_errors() {
        let mut p = regl_port(2.5);
        assert_eq!(
            p.on_buddy_help(RequestId(7), RepAnswer::NoMatch),
            Err(PortError::UnknownRequest(RequestId(7)))
        );
    }

    #[test]
    fn regu_policy_first_in_region_export_matches() {
        let mut p = port(MatchPolicy::RegU, 0.5);
        p.on_export(ts(1.0)).unwrap();
        let rfx = p.on_request(RequestId(0), ts(2.0)).unwrap();
        assert!(matches!(rfx.response, ProcResponse::Pending { .. }));
        // 1.5 is below the region [2.0, 2.5] → skip.
        assert_eq!(
            p.on_export(ts(1.5)).unwrap().action,
            Some(ExportAction::Skip)
        );
        // 2.2 is in the region → buffered, and it resolves the request.
        let fx = p.on_export(ts(2.2)).unwrap();
        assert_eq!(fx.action, Some(ExportAction::Buffer));
        assert_eq!(
            fx.resolutions,
            vec![Resolution {
                request: RequestId(0),
                answer: RepAnswer::Match(ts(2.2)),
                send: Some(ts(2.2)),
            }]
        );
    }

    #[test]
    fn reg_policy_closest_wins_locally() {
        let mut p = port(MatchPolicy::Reg, 1.0);
        p.on_export(ts(9.8)).unwrap();
        let rfx = p.on_request(RequestId(0), ts(10.0)).unwrap();
        assert!(matches!(rfx.response, ProcResponse::Pending { .. }));
        // 10.5: in region, at-or-above the request → decides. 9.8 is closer.
        let fx = p.on_export(ts(10.5)).unwrap();
        assert_eq!(
            fx.resolutions,
            vec![Resolution {
                request: RequestId(0),
                answer: RepAnswer::Match(ts(9.8)),
                send: Some(ts(9.8)),
            }]
        );
    }

    /// Regression (found by the simtest harness, seed 50): under REGL two
    /// consecutive overlapping regions can share their maximum, so the rep
    /// may announce the *same* object as the match of back-to-back
    /// requests. When both are buddy-helped before the object is exported,
    /// the single matching export must resolve — and send a piece for —
    /// every one of them, not just the first in the queue.
    #[test]
    fn one_export_resolves_all_helped_requests_sharing_the_match() {
        let mut p = regl_port(1.0);
        // Two pending requests with overlapping regions [1.0, 2.0] and
        // [1.5, 2.5]; nothing exported yet.
        let r0 = p.on_request(RequestId(0), ts(2.0)).unwrap();
        let r1 = p.on_request(RequestId(1), ts(2.5)).unwrap();
        assert!(matches!(r0.response, ProcResponse::Pending { .. }));
        assert!(matches!(r1.response, ProcResponse::Pending { .. }));
        // A faster process decided both: the shared match is D@1.8.
        p.on_buddy_help(RequestId(0), RepAnswer::Match(ts(1.8)))
            .unwrap();
        p.on_buddy_help(RequestId(1), RepAnswer::Match(ts(1.8)))
            .unwrap();
        // The matching export arrives once and must pay both debts.
        let fx = p.on_export(ts(1.8)).unwrap();
        assert_eq!(
            fx.action,
            Some(ExportAction::BufferAndSend {
                request: RequestId(0)
            })
        );
        assert_eq!(
            fx.resolutions,
            vec![Resolution {
                request: RequestId(1),
                answer: RepAnswer::Match(ts(1.8)),
                send: Some(ts(1.8)),
            }]
        );
        // Both requests closed: the next export is prunable dead weight.
        assert_eq!(p.skip_floor(), Some(ts(1.8)));
    }

    #[test]
    fn sent_objects_are_freed_as_sent_not_unnecessary() {
        let mut p = regl_port(2.5);
        for i in 1..=21 {
            p.on_export(ts(i as f64 + 0.6)).unwrap();
        }
        p.on_request(RequestId(0), ts(20.0)).unwrap(); // match 19.6, sent
        let before = p.stats().freed_sent;
        // Next request's region [37.5, 40] prunes 19.6 (sent) and later
        // unsent entries.
        p.on_request(RequestId(1), ts(40.0)).unwrap();
        assert_eq!(p.stats().freed_sent, before + 1);
        assert!(p.stats().freed_unsent > 0);
    }

    #[test]
    fn buffer_high_water_mark_tracks_peak() {
        let mut p = regl_port(2.5);
        for i in 1..=5 {
            p.on_export(ts(i as f64)).unwrap();
        }
        assert_eq!(p.buffered_len(), 5);
        p.on_request(RequestId(0), ts(100.0)).unwrap();
        assert_eq!(p.buffered_len(), 0);
        // The peak survives the prune.
        assert_eq!(p.stats().buffered_hwm, 5);
    }

    #[test]
    fn bounded_buffer_rejects_when_full() {
        let mut p = ExportPort::with_capacity(
            ConnectionId(0),
            MatchPolicy::RegL,
            Tolerance::new(2.5).unwrap(),
            3,
        );
        for i in 1..=3 {
            p.on_export(ts(i as f64)).unwrap();
        }
        // Fourth copy would exceed the capacity; the export is not consumed.
        assert_eq!(
            p.on_export(ts(4.0)),
            Err(PortError::BufferFull { offered: ts(4.0) })
        );
        assert_eq!(p.stats().exports, 3);
        assert_eq!(p.stats().buffer_full_stalls, 1);
        // A request frees the stale entries; the retried export succeeds.
        let rfx = p.on_request(RequestId(0), ts(20.0)).unwrap();
        assert_eq!(rfx.freed.len(), 3);
        let fx = p.on_export(ts(4.0)).unwrap();
        assert_eq!(fx.action, Some(ExportAction::Skip)); // below [17.5, 20]
        assert_eq!(p.stats().exports, 4);
    }

    #[test]
    fn bounded_buffer_skip_path_never_blocks() {
        let mut p = ExportPort::with_capacity(
            ConnectionId(0),
            MatchPolicy::RegL,
            Tolerance::new(2.5).unwrap(),
            1,
        );
        p.on_export(ts(1.0)).unwrap(); // fills the single slot
        p.on_request(RequestId(0), ts(20.0)).unwrap(); // frees it, floor 17.5
        p.on_buddy_help(RequestId(0), RepAnswer::Match(ts(19.6)))
            .unwrap();
        // Everything below the known match skips without touching the buffer.
        for i in 2..=19 {
            let fx = p.on_export(ts(i as f64 + 0.6)).unwrap();
            if i < 19 {
                assert_eq!(fx.action, Some(ExportAction::Skip), "iteration {i}");
            }
        }
        assert_eq!(p.stats().buffer_full_stalls, 0);
    }

    #[test]
    fn bounded_buffer_supersession_makes_room() {
        // Capacity 1 with a pending in-region candidate chain: each new
        // candidate supersedes the previous, so the single slot suffices
        // (the Figure 8 pattern under a finite buffer).
        let mut p = ExportPort::with_capacity(
            ConnectionId(0),
            MatchPolicy::RegL,
            Tolerance::new(5.0).unwrap(),
            1,
        );
        p.on_request(RequestId(0), ts(10.0)).unwrap();
        for i in 5..=9 {
            let fx = p.on_export(ts(i as f64 + 0.6)).unwrap();
            assert_eq!(fx.action, Some(ExportAction::Buffer), "iteration {i}");
        }
        assert_eq!(p.buffered_len(), 1);
        assert_eq!(p.stats().buffer_full_stalls, 0);
    }

    #[test]
    fn skip_floor_tracks_min_over_open_requests() {
        let mut p = regl_port(2.5);
        assert_eq!(p.skip_floor(), None);
        p.on_request(RequestId(0), ts(20.0)).unwrap();
        assert_eq!(p.skip_floor(), Some(ts(17.5)));
        p.on_buddy_help(RequestId(0), RepAnswer::Match(ts(19.6)))
            .unwrap();
        assert_eq!(p.skip_floor(), Some(ts(19.6)));
    }
}
