//! The representative (*rep*) state machines.
//!
//! Each program runs one extra low-overhead control process, the *rep*
//! (§4 of the paper). The exporter-side rep forwards import requests to all
//! processes, aggregates their collective responses, validates Property 1
//! (only five response sets are legal), answers the importer, and — when the
//! responses are a PENDING/decided mixture — sends the decided answer back
//! to the PENDING processes as *buddy-help*. The importer-side rep turns the
//! collective `import` calls of its processes into a single request and
//! broadcasts the answer.

use crate::ids::{Rank, RequestId};
use crate::messages::{ProcResponse, RepAnswer};
use couplink_time::{HistoryError, RequestStream, Timestamp};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// Error from a rep state machine.
#[derive(Debug, Clone, PartialEq)]
pub enum RepError {
    /// Request timestamps must strictly increase per connection.
    History(HistoryError),
    /// A message referenced a request the rep does not know.
    UnknownRequest(RequestId),
    /// A rank outside the program responded.
    UnknownRank(Rank),
    /// Collective semantics (Property 1) were violated.
    CollectiveViolation {
        /// The offending request.
        request: RequestId,
        /// Description of the conflict (e.g. MATCH vs NO MATCH).
        detail: String,
    },
}

impl fmt::Display for RepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepError::History(e) => write!(f, "request stream error: {e}"),
            RepError::UnknownRequest(r) => write!(f, "unknown request {r}"),
            RepError::UnknownRank(r) => write!(f, "unknown rank {r}"),
            RepError::CollectiveViolation { request, detail } => {
                write!(f, "collective violation on {request}: {detail}")
            }
        }
    }
}

impl std::error::Error for RepError {}

impl From<HistoryError> for RepError {
    fn from(e: HistoryError) -> Self {
        RepError::History(e)
    }
}

/// Effects returned by [`ExporterRep`] event handlers.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RepEffects {
    /// Forward this request to every process of the program.
    pub forward: Option<(RequestId, Timestamp)>,
    /// Send this final answer to the importer's rep (at most once per
    /// request).
    pub answer: Option<(RequestId, RepAnswer)>,
    /// Buddy-help messages: `(rank, request, answer)` for each process whose
    /// response was PENDING now that the answer is known.
    pub buddy_help: Vec<(Rank, RequestId, RepAnswer)>,
    /// The request is fully settled on every rank and can be forgotten.
    pub completed: Option<RequestId>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum RankState {
    /// No response yet.
    Silent,
    /// Responded PENDING (awaiting a local update or buddy-help).
    Pending,
    /// Settled: responded definitively, or was sent buddy-help.
    Settled,
}

#[derive(Debug)]
struct Inflight {
    answer: Option<RepAnswer>,
    answered_importer: bool,
    ranks: Vec<RankState>,
}

impl Inflight {
    fn settled(&self) -> bool {
        self.ranks.iter().all(|s| *s == RankState::Settled)
    }
}

/// The exporting program's representative.
///
/// Aggregation rules (§4): the legal collective response sets are
/// all-MATCH, all-NO-MATCH, all-PENDING, PENDING+MATCH and
/// PENDING+NO-MATCH; all MATCH responses must carry the same timestamp.
/// Anything else is a [`RepError::CollectiveViolation`].
///
/// Request ids are dense: after the first, each request carries the next
/// id (the importer's rep numbers its collective calls), so the answers of
/// completed requests live in a vector indexed by id.
#[derive(Debug)]
pub struct ExporterRep {
    n_procs: usize,
    buddy_help_enabled: bool,
    requests: RequestStream,
    inflight: BTreeMap<RequestId, Inflight>,
    /// Id of the first request seen.
    first: u64,
    /// The answer of every request seen, from `first` on, kept so that
    /// late and duplicated responses (a process that resolved locally
    /// while its buddy-help message was in flight, a resend) can still be
    /// consistency-checked instead of rejected. The one per-request
    /// structure a rep keeps: which responses can still arrive is a matter
    /// of time, and the engine reads no clock.
    answers: Vec<AnswerSlot>,
}

/// One request's collective answer as the exporter's rep records it, in
/// 8 bytes: a match as its timestamp, which is always finite, and the two
/// other states as NaNs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AnswerSlot(u64);

impl AnswerSlot {
    /// Not answered yet.
    const OPEN: AnswerSlot = AnswerSlot(0x7ff8_0000_0000_0000);
    const NO_MATCH: AnswerSlot = AnswerSlot(0x7ff8_0000_0000_0001);

    fn new(answer: RepAnswer) -> Self {
        match answer {
            RepAnswer::Match(m) => AnswerSlot(m.value().to_bits()),
            RepAnswer::NoMatch => AnswerSlot::NO_MATCH,
        }
    }

    fn get(self) -> Option<RepAnswer> {
        match self {
            AnswerSlot::OPEN => None,
            AnswerSlot::NO_MATCH => Some(RepAnswer::NoMatch),
            AnswerSlot(bits) => Some(RepAnswer::Match(
                Timestamp::new(f64::from_bits(bits)).expect("a recorded match is finite"),
            )),
        }
    }
}

impl ExporterRep {
    /// Creates a rep for a program with `n_procs` processes. `buddy_help`
    /// toggles the §4.1 optimization (off = baseline framework).
    pub fn new(n_procs: usize, buddy_help: bool) -> Self {
        assert!(n_procs > 0, "a program has at least one process");
        ExporterRep {
            n_procs,
            buddy_help_enabled: buddy_help,
            requests: RequestStream::new(),
            inflight: BTreeMap::new(),
            first: 0,
            answers: Vec::new(),
        }
    }

    /// Whether buddy-help is enabled.
    pub fn buddy_help_enabled(&self) -> bool {
        self.buddy_help_enabled
    }

    /// Number of requests currently being aggregated.
    pub fn inflight_len(&self) -> usize {
        self.inflight.len()
    }

    /// An import request arrived from the importer's rep: start aggregation
    /// and forward to every process.
    pub fn on_import_request(
        &mut self,
        req: RequestId,
        ts: Timestamp,
    ) -> Result<RepEffects, RepError> {
        if self.answers.is_empty() {
            self.first = req.0;
        }
        if self.first.checked_add(self.answers.len() as u64) != Some(req.0) {
            return Err(RepError::CollectiveViolation {
                request: req,
                detail: "request id out of sequence".into(),
            });
        }
        self.requests.accept(ts)?;
        self.answers.push(AnswerSlot::OPEN);
        self.inflight.insert(
            req,
            Inflight {
                answer: None,
                answered_importer: false,
                ranks: vec![RankState::Silent; self.n_procs],
            },
        );
        Ok(RepEffects {
            forward: Some((req, ts)),
            ..Default::default()
        })
    }

    /// A process responded (or updated a previous PENDING response).
    pub fn on_response(
        &mut self,
        rank: Rank,
        req: RequestId,
        resp: ProcResponse,
    ) -> Result<RepEffects, RepError> {
        let idx = rank.0 as usize;
        if idx >= self.n_procs {
            return Err(RepError::UnknownRank(rank));
        }
        let inflight = match self.inflight.get_mut(&req) {
            Some(i) => i,
            None => {
                // Late message for a completed request: legal when a process
                // resolved locally while its buddy-help was in flight. It
                // must still agree with the collective answer.
                let answer = req
                    .0
                    .checked_sub(self.first)
                    .and_then(|i| self.answers.get(usize::try_from(i).ok()?)?.get())
                    .ok_or(RepError::UnknownRequest(req))?;
                if let Some(decided) = resp.decided() {
                    if decided != answer {
                        return Err(RepError::CollectiveViolation {
                            request: req,
                            detail: format!(
                                "late response {decided} from rank {rank} conflicts \
                                 with the completed answer {answer}"
                            ),
                        });
                    }
                }
                return Ok(RepEffects::default());
            }
        };
        let mut effects = RepEffects::default();

        match resp.decided() {
            None => {
                // PENDING response.
                match inflight.ranks[idx] {
                    RankState::Settled => {
                        // Stale PENDING after buddy-help/settlement: ignore.
                    }
                    _ => {
                        if let Some(answer) = inflight.answer {
                            // Answer already known: help this straggler.
                            inflight.ranks[idx] = RankState::Settled;
                            if self.buddy_help_enabled {
                                effects.buddy_help.push((rank, req, answer));
                            } else {
                                // Without buddy-help the rank must resolve
                                // locally; keep waiting for its update.
                                inflight.ranks[idx] = RankState::Pending;
                            }
                        } else {
                            inflight.ranks[idx] = RankState::Pending;
                        }
                    }
                }
            }
            Some(decided) => {
                match inflight.answer {
                    None => {
                        inflight.answer = Some(decided);
                        inflight.ranks[idx] = RankState::Settled;
                        // First definitive response: answer the importer and
                        // help everyone currently pending.
                        inflight.answered_importer = true;
                        effects.answer = Some((req, decided));
                        if self.buddy_help_enabled {
                            for (i, state) in inflight.ranks.iter_mut().enumerate() {
                                if *state == RankState::Pending {
                                    *state = RankState::Settled;
                                    effects.buddy_help.push((Rank(i as u32), req, decided));
                                }
                            }
                        }
                    }
                    Some(existing) => {
                        if existing != decided {
                            return Err(RepError::CollectiveViolation {
                                request: req,
                                detail: format!(
                                    "rank {rank} answered {decided} but the collective \
                                     answer is {existing}"
                                ),
                            });
                        }
                        inflight.ranks[idx] = RankState::Settled;
                    }
                }
            }
        }

        if inflight.settled() {
            effects.completed = Some(req);
            if let Some(answer) = self.inflight.remove(&req).and_then(|done| done.answer) {
                self.answers[(req.0 - self.first) as usize] = AnswerSlot::new(answer);
            }
        }
        Ok(effects)
    }
}

/// Effects returned by [`ImporterRep`] event handlers.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ImpRepEffects {
    /// Send this request to the exporter's rep (first caller triggers it).
    pub request: Option<(RequestId, Timestamp)>,
    /// Deliver the answer to these ranks.
    pub deliver: Vec<(Rank, RequestId, RepAnswer)>,
}

#[derive(Debug)]
struct ImpInflight {
    ts: Timestamp,
    answer: Option<RepAnswer>,
    /// Ranks that have made this import call. Rank `i` has made call `k`
    /// exactly when its cursor is past `k`, and it was delivered the answer
    /// exactly when it has made the call and the answer is known, so
    /// neither needs a per-rank record.
    called: usize,
}

/// The importing program's representative.
///
/// Import calls are collective too (Property 1): every process makes the
/// same sequence of `import(ts)` calls. The rep keys each call by its
/// per-rank *call index*, so the `k`-th call of every rank maps to
/// `RequestId(k)`; mismatched timestamps at the same index are collective
/// violations. Processes may run ahead: a fast process's call for a later
/// request is accepted while slower peers are still on an earlier one, and
/// the remote request is sent as soon as the *first* process asks.
///
/// A request retires once it is answered and delivered to every rank, so
/// the rep holds only the requests still open.
#[derive(Debug)]
pub struct ImporterRep {
    n_procs: usize,
    cursor: Vec<u64>,
    /// The requests not yet retired, oldest first; the front one is
    /// request `retired`.
    requests: VecDeque<ImpInflight>,
    /// Requests retired, all of them below the front of `requests`.
    retired: u64,
    stream: RequestStream,
}

impl ImporterRep {
    /// Creates a rep for an importing program with `n_procs` processes.
    pub fn new(n_procs: usize) -> Self {
        assert!(n_procs > 0, "a program has at least one process");
        ImporterRep {
            n_procs,
            cursor: vec![0; n_procs],
            requests: VecDeque::new(),
            retired: 0,
            stream: RequestStream::new(),
        }
    }

    /// A process made its next collective `import(ts)` call.
    pub fn on_import_call(&mut self, rank: Rank, ts: Timestamp) -> Result<ImpRepEffects, RepError> {
        let idx = rank.0 as usize;
        if idx >= self.n_procs {
            return Err(RepError::UnknownRank(rank));
        }
        let k = self.cursor[idx];
        let req = RequestId(k);
        let mut effects = ImpRepEffects::default();
        if k == self.issued() as u64 {
            // First caller of this request: validate and go remote.
            self.stream.accept(ts)?;
            self.requests.push_back(ImpInflight {
                ts,
                answer: None,
                called: 1,
            });
            effects.request = Some((req, ts));
        } else {
            // A rank's cursor never falls behind the retired requests: one
            // retires only once every rank has called it.
            let inflight = &mut self.requests[(k - self.retired) as usize];
            if inflight.ts != ts {
                return Err(RepError::CollectiveViolation {
                    request: req,
                    detail: format!(
                        "rank {rank} imported {ts} but the collective call {k} \
                         requested {}",
                        inflight.ts
                    ),
                });
            }
            inflight.called += 1;
            if let Some(answer) = inflight.answer {
                effects.deliver.push((rank, req, answer));
            }
        }
        self.cursor[idx] += 1;
        self.retire();
        Ok(effects)
    }

    /// The exporter rep answered request `req`.
    pub fn on_answer(
        &mut self,
        req: RequestId,
        answer: RepAnswer,
    ) -> Result<ImpRepEffects, RepError> {
        if req.0 < self.retired {
            // `Answer` is a one-shot directive: once every rank has the
            // answer, another one is a second decision.
            return Err(RepError::CollectiveViolation {
                request: req,
                detail: format!("answer {answer} for a request already answered and delivered"),
            });
        }
        let inflight = self
            .requests
            .get_mut((req.0 - self.retired) as usize)
            .ok_or(RepError::UnknownRequest(req))?;
        let mut effects = ImpRepEffects::default();
        match inflight.answer {
            Some(existing) if existing != answer => {
                return Err(RepError::CollectiveViolation {
                    request: req,
                    detail: format!("conflicting answers {existing} and {answer}"),
                });
            }
            // Every rank that has called was delivered the first one.
            Some(_) => {}
            None => {
                inflight.answer = Some(answer);
                for (i, &next) in self.cursor.iter().enumerate() {
                    if next > req.0 {
                        effects.deliver.push((Rank(i as u32), req, answer));
                    }
                }
            }
        }
        self.retire();
        Ok(effects)
    }

    /// Pops the requests at the front that every rank has received the
    /// answer of.
    fn retire(&mut self) {
        while self
            .requests
            .front()
            .is_some_and(|r| r.answer.is_some() && r.called == self.n_procs)
        {
            self.requests.pop_front();
            self.retired += 1;
        }
    }

    /// Number of requests issued so far, retired ones included.
    pub fn issued(&self) -> usize {
        self.retired as usize + self.requests.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use couplink_time::ts;

    fn pending(latest: f64) -> ProcResponse {
        ProcResponse::Pending {
            latest: Some(couplink_time::ts(latest)),
        }
    }

    // --- ExporterRep: the five legal response sets ---

    #[test]
    fn all_match_same_timestamp() {
        let mut rep = ExporterRep::new(3, true);
        let fx = rep.on_import_request(RequestId(0), ts(20.0)).unwrap();
        assert_eq!(fx.forward, Some((RequestId(0), ts(20.0))));
        let fx = rep
            .on_response(Rank(0), RequestId(0), ProcResponse::Match(ts(19.6)))
            .unwrap();
        assert_eq!(fx.answer, Some((RequestId(0), RepAnswer::Match(ts(19.6)))));
        assert!(fx.buddy_help.is_empty());
        for r in 1..3 {
            let fx = rep
                .on_response(Rank(r), RequestId(0), ProcResponse::Match(ts(19.6)))
                .unwrap();
            assert_eq!(fx.answer, None, "importer answered exactly once");
        }
        assert_eq!(rep.inflight_len(), 0);
    }

    #[test]
    fn all_no_match() {
        let mut rep = ExporterRep::new(2, true);
        rep.on_import_request(RequestId(0), ts(5.0)).unwrap();
        let fx = rep
            .on_response(Rank(1), RequestId(0), ProcResponse::NoMatch)
            .unwrap();
        assert_eq!(fx.answer, Some((RequestId(0), RepAnswer::NoMatch)));
        let fx = rep
            .on_response(Rank(0), RequestId(0), ProcResponse::NoMatch)
            .unwrap();
        assert_eq!(fx.completed, Some(RequestId(0)));
    }

    #[test]
    fn all_pending_waits() {
        let mut rep = ExporterRep::new(2, true);
        rep.on_import_request(RequestId(0), ts(5.0)).unwrap();
        for r in 0..2 {
            let fx = rep
                .on_response(Rank(r), RequestId(0), pending(1.0))
                .unwrap();
            assert_eq!(fx.answer, None);
            assert!(fx.buddy_help.is_empty());
            assert_eq!(fx.completed, None);
        }
        assert_eq!(rep.inflight_len(), 1);
    }

    #[test]
    fn pending_then_match_triggers_buddy_help() {
        let mut rep = ExporterRep::new(4, true);
        rep.on_import_request(RequestId(0), ts(20.0)).unwrap();
        // Three slow processes answer PENDING first.
        for r in 0..3 {
            rep.on_response(Rank(r), RequestId(0), pending(14.6))
                .unwrap();
        }
        // The fast process answers MATCH: importer answered, buddy-help to
        // the three pending ranks.
        let fx = rep
            .on_response(Rank(3), RequestId(0), ProcResponse::Match(ts(19.6)))
            .unwrap();
        assert_eq!(fx.answer, Some((RequestId(0), RepAnswer::Match(ts(19.6)))));
        let mut helped: Vec<u32> = fx.buddy_help.iter().map(|(r, _, _)| r.0).collect();
        helped.sort_unstable();
        assert_eq!(helped, vec![0, 1, 2]);
        assert!(fx
            .buddy_help
            .iter()
            .all(|&(_, req, ans)| req == RequestId(0) && ans == RepAnswer::Match(ts(19.6))));
        // Buddy-help settles the pending ranks: request complete.
        assert_eq!(fx.completed, Some(RequestId(0)));
    }

    #[test]
    fn match_then_pending_helps_straggler_immediately() {
        let mut rep = ExporterRep::new(2, true);
        rep.on_import_request(RequestId(0), ts(20.0)).unwrap();
        rep.on_response(Rank(0), RequestId(0), ProcResponse::Match(ts(19.6)))
            .unwrap();
        let fx = rep
            .on_response(Rank(1), RequestId(0), pending(3.0))
            .unwrap();
        assert_eq!(
            fx.buddy_help,
            vec![(Rank(1), RequestId(0), RepAnswer::Match(ts(19.6)))]
        );
        assert_eq!(fx.completed, Some(RequestId(0)));
    }

    #[test]
    fn pending_then_no_match_mixture() {
        let mut rep = ExporterRep::new(2, true);
        rep.on_import_request(RequestId(0), ts(20.0)).unwrap();
        rep.on_response(Rank(0), RequestId(0), pending(1.0))
            .unwrap();
        let fx = rep
            .on_response(Rank(1), RequestId(0), ProcResponse::NoMatch)
            .unwrap();
        assert_eq!(fx.answer, Some((RequestId(0), RepAnswer::NoMatch)));
        assert_eq!(
            fx.buddy_help,
            vec![(Rank(0), RequestId(0), RepAnswer::NoMatch)]
        );
    }

    /// A completed request keeps its answer: a late response (a rank that
    /// resolved locally while its buddy-help was in flight) and a
    /// duplicated one are absorbed when they agree with it, and refused
    /// when they conflict — for a MATCH and a NO MATCH answer, also once
    /// later requests have come and gone.
    #[test]
    fn late_and_duplicated_responses_are_checked_against_the_completed_answer() {
        let mut rep = ExporterRep::new(2, true);
        for (k, answer) in [RepAnswer::Match(ts(19.6)), RepAnswer::NoMatch]
            .into_iter()
            .enumerate()
        {
            let req = RequestId(k as u64);
            let decided = match answer {
                RepAnswer::Match(m) => ProcResponse::Match(m),
                RepAnswer::NoMatch => ProcResponse::NoMatch,
            };
            rep.on_import_request(req, ts(20.0 * (k + 1) as f64))
                .unwrap();
            rep.on_response(Rank(0), req, pending(1.0)).unwrap();
            let fx = rep.on_response(Rank(1), req, decided).unwrap();
            assert_eq!(fx.answer, Some((req, answer)));
            assert_eq!(fx.completed, Some(req), "rank 0 was helped");
            assert_eq!(rep.inflight_len(), 0);
            // Rank 0's own resolution, late, and rank 1's, duplicated.
            for rank in [Rank(0), Rank(1)] {
                assert_eq!(
                    rep.on_response(rank, req, decided),
                    Ok(RepEffects::default())
                );
            }
            let conflicting = match answer {
                RepAnswer::Match(_) => ProcResponse::NoMatch,
                RepAnswer::NoMatch => ProcResponse::Match(ts(39.6)),
            };
            assert!(matches!(
                rep.on_response(Rank(0), req, conflicting),
                Err(RepError::CollectiveViolation { request, .. }) if request == req
            ));
        }
        // Request 0 after request 1 completed: still checked.
        assert_eq!(
            rep.on_response(Rank(0), RequestId(0), ProcResponse::Match(ts(19.6))),
            Ok(RepEffects::default())
        );
        assert!(rep
            .on_response(Rank(1), RequestId(0), ProcResponse::Match(ts(18.6)))
            .is_err());
    }

    /// Request ids run on from the first one seen, one at a time.
    #[test]
    fn request_ids_out_of_sequence_are_violations() {
        let mut rep = ExporterRep::new(1, true);
        rep.on_import_request(RequestId(5), ts(20.0)).unwrap();
        for skipped in [RequestId(5), RequestId(7), RequestId(4)] {
            assert!(matches!(
                rep.on_import_request(skipped, ts(40.0)),
                Err(RepError::CollectiveViolation { .. })
            ));
        }
        rep.on_import_request(RequestId(6), ts(40.0)).unwrap();
    }

    // --- violations ---

    #[test]
    fn match_and_no_match_is_violation() {
        let mut rep = ExporterRep::new(2, true);
        rep.on_import_request(RequestId(0), ts(20.0)).unwrap();
        rep.on_response(Rank(0), RequestId(0), ProcResponse::Match(ts(19.6)))
            .unwrap();
        let err = rep
            .on_response(Rank(1), RequestId(0), ProcResponse::NoMatch)
            .unwrap_err();
        assert!(matches!(err, RepError::CollectiveViolation { .. }));
    }

    #[test]
    fn differing_match_timestamps_is_violation() {
        let mut rep = ExporterRep::new(2, true);
        rep.on_import_request(RequestId(0), ts(20.0)).unwrap();
        rep.on_response(Rank(0), RequestId(0), ProcResponse::Match(ts(19.6)))
            .unwrap();
        let err = rep
            .on_response(Rank(1), RequestId(0), ProcResponse::Match(ts(18.6)))
            .unwrap_err();
        assert!(matches!(err, RepError::CollectiveViolation { .. }));
    }

    #[test]
    fn unknown_rank_and_request_rejected() {
        let mut rep = ExporterRep::new(2, true);
        rep.on_import_request(RequestId(0), ts(20.0)).unwrap();
        assert!(matches!(
            rep.on_response(Rank(2), RequestId(0), ProcResponse::NoMatch),
            Err(RepError::UnknownRank(_))
        ));
        assert!(matches!(
            rep.on_response(Rank(0), RequestId(9), ProcResponse::NoMatch),
            Err(RepError::UnknownRequest(_))
        ));
    }

    #[test]
    fn request_timestamps_must_increase() {
        let mut rep = ExporterRep::new(1, true);
        rep.on_import_request(RequestId(0), ts(20.0)).unwrap();
        rep.on_response(Rank(0), RequestId(0), ProcResponse::NoMatch)
            .unwrap();
        assert!(matches!(
            rep.on_import_request(RequestId(1), ts(19.0)),
            Err(RepError::History(_))
        ));
    }

    // --- buddy-help disabled (baseline) ---

    #[test]
    fn without_buddy_help_pending_ranks_must_self_resolve() {
        let mut rep = ExporterRep::new(2, false);
        rep.on_import_request(RequestId(0), ts(20.0)).unwrap();
        rep.on_response(Rank(0), RequestId(0), pending(1.0))
            .unwrap();
        let fx = rep
            .on_response(Rank(1), RequestId(0), ProcResponse::Match(ts(19.6)))
            .unwrap();
        // The importer still gets its answer, but no buddy-help flows.
        assert_eq!(fx.answer, Some((RequestId(0), RepAnswer::Match(ts(19.6)))));
        assert!(fx.buddy_help.is_empty());
        assert_eq!(fx.completed, None, "rank 0 still unresolved");
        // Rank 0 later resolves locally and updates its response.
        let fx = rep
            .on_response(Rank(0), RequestId(0), ProcResponse::Match(ts(19.6)))
            .unwrap();
        assert_eq!(fx.completed, Some(RequestId(0)));
    }

    // --- ImporterRep ---

    #[test]
    fn first_caller_triggers_remote_request() {
        let mut rep = ImporterRep::new(3);
        let fx = rep.on_import_call(Rank(1), ts(20.0)).unwrap();
        assert_eq!(fx.request, Some((RequestId(0), ts(20.0))));
        // Later callers of the same collective call do not re-request.
        let fx = rep.on_import_call(Rank(0), ts(20.0)).unwrap();
        assert_eq!(fx.request, None);
    }

    #[test]
    fn answer_delivered_to_callers_then_late_callers() {
        let mut rep = ImporterRep::new(3);
        rep.on_import_call(Rank(0), ts(20.0)).unwrap();
        rep.on_import_call(Rank(1), ts(20.0)).unwrap();
        let fx = rep
            .on_answer(RequestId(0), RepAnswer::Match(ts(19.6)))
            .unwrap();
        let mut got: Vec<u32> = fx.deliver.iter().map(|(r, _, _)| r.0).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1]);
        // Rank 2 calls late and is answered immediately.
        let fx = rep.on_import_call(Rank(2), ts(20.0)).unwrap();
        assert_eq!(
            fx.deliver,
            vec![(Rank(2), RequestId(0), RepAnswer::Match(ts(19.6)))]
        );
    }

    #[test]
    fn pipelined_calls_get_increasing_request_ids() {
        let mut rep = ImporterRep::new(2);
        // Rank 0 runs ahead by two collective calls.
        assert_eq!(
            rep.on_import_call(Rank(0), ts(20.0)).unwrap().request,
            Some((RequestId(0), ts(20.0)))
        );
        assert_eq!(
            rep.on_import_call(Rank(0), ts(40.0)).unwrap().request,
            Some((RequestId(1), ts(40.0)))
        );
        // Rank 1 catches up on call 0.
        assert_eq!(rep.on_import_call(Rank(1), ts(20.0)).unwrap().request, None);
        assert_eq!(rep.issued(), 2);
    }

    #[test]
    fn importer_collective_violation_on_mismatched_timestamp() {
        let mut rep = ImporterRep::new(2);
        rep.on_import_call(Rank(0), ts(20.0)).unwrap();
        let err = rep.on_import_call(Rank(1), ts(21.0)).unwrap_err();
        assert!(matches!(err, RepError::CollectiveViolation { .. }));
    }

    #[test]
    fn importer_requests_must_increase() {
        let mut rep = ImporterRep::new(1);
        rep.on_import_call(Rank(0), ts(20.0)).unwrap();
        assert!(matches!(
            rep.on_import_call(Rank(0), ts(20.0)),
            Err(RepError::History(_))
        ));
    }

    /// A request retires once every rank has its answer: it still counts
    /// as issued, and another answer for it is a second decision.
    #[test]
    fn retired_requests_count_as_issued_and_refuse_a_second_answer() {
        let mut rep = ImporterRep::new(2);
        let answer = RepAnswer::Match(ts(19.6));
        rep.on_import_call(Rank(0), ts(20.0)).unwrap();
        // Answered, but rank 1 has not called: a consistent resend is
        // absorbed without delivering twice.
        assert_eq!(
            rep.on_answer(RequestId(0), answer).unwrap().deliver.len(),
            1
        );
        assert!(rep
            .on_answer(RequestId(0), answer)
            .unwrap()
            .deliver
            .is_empty());
        let fx = rep.on_import_call(Rank(1), ts(20.0)).unwrap();
        assert_eq!(fx.deliver, vec![(Rank(1), RequestId(0), answer)]);
        assert_eq!((rep.issued(), rep.requests.len()), (1, 0), "retired");
        for again in [answer, RepAnswer::NoMatch] {
            assert!(matches!(
                rep.on_answer(RequestId(0), again),
                Err(RepError::CollectiveViolation { .. })
            ));
        }
        assert_eq!(
            rep.on_answer(RequestId(1), answer),
            Err(RepError::UnknownRequest(RequestId(1)))
        );
        // Later requests number on from the retired ones.
        let fx = rep.on_import_call(Rank(1), ts(40.0)).unwrap();
        assert_eq!(fx.request, Some((RequestId(1), ts(40.0))));
        assert_eq!(rep.issued(), 2);
    }

    #[test]
    fn conflicting_remote_answers_are_violations() {
        let mut rep = ImporterRep::new(1);
        rep.on_import_call(Rank(0), ts(20.0)).unwrap();
        rep.on_answer(RequestId(0), RepAnswer::Match(ts(19.6)))
            .unwrap();
        assert!(matches!(
            rep.on_answer(RequestId(0), RepAnswer::NoMatch),
            Err(RepError::CollectiveViolation { .. })
        ));
    }
}
