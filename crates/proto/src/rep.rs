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
use std::collections::BTreeMap;
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
#[derive(Debug)]
pub struct ExporterRep {
    n_procs: usize,
    buddy_help_enabled: bool,
    requests: RequestStream,
    inflight: BTreeMap<RequestId, Inflight>,
    /// Answers of completed requests, kept so that late response updates
    /// (a process that resolved locally while its buddy-help message was in
    /// flight) can still be consistency-checked instead of rejected.
    completed: BTreeMap<RequestId, RepAnswer>,
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
            completed: BTreeMap::new(),
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
        self.requests.accept(ts)?;
        let prev = self.inflight.insert(
            req,
            Inflight {
                answer: None,
                answered_importer: false,
                ranks: vec![RankState::Silent; self.n_procs],
            },
        );
        if prev.is_some() {
            return Err(RepError::CollectiveViolation {
                request: req,
                detail: "duplicate request id from importer".into(),
            });
        }
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
                let answer = self
                    .completed
                    .get(&req)
                    .copied()
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
            if let Some(done) = self.inflight.remove(&req) {
                if let Some(answer) = done.answer {
                    self.completed.insert(req, answer);
                }
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
    /// Ranks that have made this import call (delivery targets).
    called: Vec<bool>,
    delivered: Vec<bool>,
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
#[derive(Debug)]
pub struct ImporterRep {
    n_procs: usize,
    cursor: Vec<u64>,
    requests: Vec<ImpInflight>,
    stream: RequestStream,
}

impl ImporterRep {
    /// Creates a rep for an importing program with `n_procs` processes.
    pub fn new(n_procs: usize) -> Self {
        assert!(n_procs > 0, "a program has at least one process");
        ImporterRep {
            n_procs,
            cursor: vec![0; n_procs],
            requests: Vec::new(),
            stream: RequestStream::new(),
        }
    }

    /// A process made its next collective `import(ts)` call.
    pub fn on_import_call(&mut self, rank: Rank, ts: Timestamp) -> Result<ImpRepEffects, RepError> {
        let idx = rank.0 as usize;
        if idx >= self.n_procs {
            return Err(RepError::UnknownRank(rank));
        }
        let k = self.cursor[idx] as usize;
        self.cursor[idx] += 1;
        let mut effects = ImpRepEffects::default();
        if k == self.requests.len() {
            // First caller of this request: validate and go remote.
            self.stream.accept(ts)?;
            self.requests.push(ImpInflight {
                ts,
                answer: None,
                called: {
                    let mut v = vec![false; self.n_procs];
                    v[idx] = true;
                    v
                },
                delivered: vec![false; self.n_procs],
            });
            effects.request = Some((RequestId(k as u64), ts));
        } else {
            let inflight = &mut self.requests[k];
            if inflight.ts != ts {
                return Err(RepError::CollectiveViolation {
                    request: RequestId(k as u64),
                    detail: format!(
                        "rank {rank} imported {ts} but the collective call {k} \
                         requested {}",
                        inflight.ts
                    ),
                });
            }
            inflight.called[idx] = true;
            if let Some(answer) = inflight.answer {
                inflight.delivered[idx] = true;
                effects.deliver.push((rank, RequestId(k as u64), answer));
            }
        }
        Ok(effects)
    }

    /// The exporter rep answered request `req`.
    pub fn on_answer(
        &mut self,
        req: RequestId,
        answer: RepAnswer,
    ) -> Result<ImpRepEffects, RepError> {
        let k = req.0 as usize;
        let inflight = self
            .requests
            .get_mut(k)
            .ok_or(RepError::UnknownRequest(req))?;
        if let Some(existing) = inflight.answer {
            if existing != answer {
                return Err(RepError::CollectiveViolation {
                    request: req,
                    detail: format!("conflicting answers {existing} and {answer}"),
                });
            }
        }
        inflight.answer = Some(answer);
        let mut effects = ImpRepEffects::default();
        for i in 0..self.n_procs {
            if inflight.called[i] && !inflight.delivered[i] {
                inflight.delivered[i] = true;
                effects.deliver.push((Rank(i as u32), req, answer));
            }
        }
        Ok(effects)
    }

    /// Number of requests issued so far.
    pub fn issued(&self) -> usize {
        self.requests.len()
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
