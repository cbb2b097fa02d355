//! Importer-process state: one collective import at a time, with
//! out-of-order data tolerance.

use crate::ids::RequestId;
use crate::messages::RepAnswer;
use couplink_time::Timestamp;
use std::fmt;

/// Error from an [`ImportPort`] operation.
#[derive(Debug, Clone, PartialEq)]
pub enum ImportError {
    /// `begin_import` while a previous import is still incomplete.
    Busy,
    /// An answer arrived for a request this port is not waiting on.
    UnexpectedAnswer(RequestId),
    /// More data pieces arrived for a request than the plan expects.
    TooManyPieces(RequestId),
}

impl fmt::Display for ImportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImportError::Busy => write!(f, "an import is already in progress"),
            ImportError::UnexpectedAnswer(r) => write!(f, "unexpected answer for {r}"),
            ImportError::TooManyPieces(r) => write!(f, "too many data pieces for {r}"),
        }
    }
}

impl std::error::Error for ImportError {}

/// The current state of an import on one process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ImportState {
    /// No import in progress.
    Idle,
    /// Waiting for the rep's answer (pieces may already be arriving).
    Waiting {
        /// The in-progress request.
        req: RequestId,
        /// The requested timestamp.
        ts: Timestamp,
    },
    /// The import finished.
    Done {
        /// The finished request.
        req: RequestId,
        /// Its outcome: `Match` means all pieces arrived.
        answer: RepAnswer,
    },
}

/// Per-importer-process import tracker.
///
/// Data pieces may arrive *before* the rep's answer (exporter processes send
/// their share as soon as they know the match, and the control path through
/// two reps can be slower), and pieces for a *future* request may arrive
/// while an earlier import is still assembling on a slow process. The port
/// therefore counts pieces per request id and completes an import when the
/// answer is `Match` and all `expected_pieces` have arrived.
///
/// Both stashes are short lists, not maps: an entry lives only until its
/// import completes, so they hold at most the requests this rank lags by.
#[derive(Debug, Clone)]
pub struct ImportPort {
    /// Pieces this rank receives per matched transfer (from the
    /// redistribution plan's `recvs_to(rank)` count).
    expected_pieces: usize,
    next_req: RequestId,
    state: ImportState,
    /// Pieces received per request not yet completed.
    pieces: Vec<(RequestId, usize)>,
    /// Answers received for requests not yet completed.
    answers: Vec<(RequestId, RepAnswer)>,
}

impl ImportPort {
    /// Creates a port for a rank that receives `expected_pieces` pieces per
    /// matched transfer.
    pub fn new(expected_pieces: usize) -> Self {
        ImportPort {
            expected_pieces,
            next_req: RequestId(0),
            state: ImportState::Idle,
            pieces: Vec::new(),
            answers: Vec::new(),
        }
    }

    /// Current state.
    pub fn state(&self) -> ImportState {
        self.state
    }

    /// Starts the next collective import; returns the deterministic request
    /// id (the per-rank call index).
    pub fn begin_import(&mut self, ts: Timestamp) -> Result<RequestId, ImportError> {
        if matches!(self.state, ImportState::Waiting { .. }) {
            return Err(ImportError::Busy);
        }
        let req = self.next_req;
        self.next_req = req.next();
        self.state = ImportState::Waiting { req, ts };
        // The answer or all pieces may already have arrived (stashed).
        self.try_complete();
        Ok(req)
    }

    /// The rep delivered the answer for `req`. Answers for calls this rank
    /// has not reached yet (we are the slowest importer process) are stashed
    /// until `begin_import` catches up.
    pub fn on_answer(&mut self, req: RequestId, answer: RepAnswer) -> Result<(), ImportError> {
        match self.answers.iter_mut().find(|(r, _)| *r == req) {
            Some(slot) => slot.1 = answer,
            None => self.answers.push((req, answer)),
        }
        self.try_complete();
        Ok(())
    }

    /// A data piece for `req` arrived from an exporter process.
    pub fn on_piece(&mut self, req: RequestId) -> Result<(), ImportError> {
        let i = match self.pieces.iter().position(|&(r, _)| r == req) {
            Some(i) => i,
            None => {
                self.pieces.push((req, 0));
                self.pieces.len() - 1
            }
        };
        let got = &mut self.pieces[i].1;
        *got += 1;
        if *got > self.expected_pieces {
            return Err(ImportError::TooManyPieces(req));
        }
        self.try_complete();
        Ok(())
    }

    /// Whether the in-progress import (if any) has finished; transitions to
    /// `Done` when it has.
    fn try_complete(&mut self) {
        if let ImportState::Waiting { req, .. } = self.state {
            let Some(a) = self.answers.iter().position(|&(r, _)| r == req) else {
                return;
            };
            let answer = self.answers[a].1;
            let p = self.pieces.iter().position(|&(r, _)| r == req);
            let complete = match answer {
                RepAnswer::NoMatch => true,
                RepAnswer::Match(_) => p.map_or(0, |p| self.pieces[p].1) == self.expected_pieces,
            };
            if complete {
                self.answers.swap_remove(a);
                if let Some(p) = p {
                    self.pieces.swap_remove(p);
                }
                self.state = ImportState::Done { req, answer };
            }
        }
    }

    /// Acknowledges a finished import, returning to `Idle`.
    pub fn finish(&mut self) -> Option<RepAnswer> {
        if let ImportState::Done { answer, .. } = self.state {
            self.state = ImportState::Idle;
            Some(answer)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use couplink_time::ts;

    #[test]
    fn answer_then_pieces_completes() {
        let mut p = ImportPort::new(2);
        let req = p.begin_import(ts(20.0)).unwrap();
        assert_eq!(req, RequestId(0));
        p.on_answer(req, RepAnswer::Match(ts(19.6))).unwrap();
        assert!(matches!(p.state(), ImportState::Waiting { .. }));
        p.on_piece(req).unwrap();
        p.on_piece(req).unwrap();
        assert_eq!(
            p.state(),
            ImportState::Done {
                req,
                answer: RepAnswer::Match(ts(19.6))
            }
        );
        assert_eq!(p.finish(), Some(RepAnswer::Match(ts(19.6))));
        assert_eq!(p.state(), ImportState::Idle);
    }

    #[test]
    fn pieces_before_answer_are_stashed() {
        let mut p = ImportPort::new(1);
        let req = p.begin_import(ts(20.0)).unwrap();
        p.on_piece(req).unwrap();
        assert!(matches!(p.state(), ImportState::Waiting { .. }));
        p.on_answer(req, RepAnswer::Match(ts(19.6))).unwrap();
        assert!(matches!(p.state(), ImportState::Done { .. }));
    }

    #[test]
    fn pieces_before_begin_are_stashed() {
        let mut p = ImportPort::new(1);
        // Data for our first call arrives before we even make it (we are the
        // slowest importer process).
        p.on_piece(RequestId(0)).unwrap();
        p.on_answer(RequestId(0), RepAnswer::Match(ts(19.6)))
            .unwrap();
        let req = p.begin_import(ts(20.0)).unwrap();
        assert_eq!(
            p.state(),
            ImportState::Done {
                req,
                answer: RepAnswer::Match(ts(19.6))
            }
        );
    }

    /// A rank three requests behind gets every answer and piece early, out
    /// of order: each import completes as `begin_import` reaches it, and
    /// the stashes are empty once the last one finishes.
    #[test]
    fn lagging_rank_drains_its_stashes() {
        let mut p = ImportPort::new(2);
        let answer = |i: u64| match i {
            1 => RepAnswer::NoMatch,
            _ => RepAnswer::Match(ts(19.6 + 20.0 * i as f64)),
        };
        for i in [2, 0] {
            p.on_piece(RequestId(i)).unwrap();
        }
        for i in [3, 1, 0, 2] {
            p.on_answer(RequestId(i), answer(i)).unwrap();
        }
        for i in [2, 0, 3] {
            p.on_piece(RequestId(i)).unwrap();
        }
        assert_eq!((p.answers.len(), p.pieces.len()), (4, 3));
        for i in 0..3 {
            let req = p.begin_import(ts(20.0 * (i + 1) as f64)).unwrap();
            assert_eq!(req, RequestId(i));
            assert_eq!(
                p.state(),
                ImportState::Done {
                    req,
                    answer: answer(i)
                }
            );
            assert_eq!(p.finish(), Some(answer(i)));
        }
        // Request 3 has its answer but only one of its two pieces.
        let req = p.begin_import(ts(80.0)).unwrap();
        assert!(matches!(p.state(), ImportState::Waiting { .. }));
        p.on_piece(req).unwrap();
        assert_eq!(p.finish(), Some(answer(3)));
        assert!(p.answers.is_empty() && p.pieces.is_empty(), "{p:?}");
    }

    #[test]
    fn no_match_completes_without_pieces() {
        let mut p = ImportPort::new(4);
        let req = p.begin_import(ts(20.0)).unwrap();
        p.on_answer(req, RepAnswer::NoMatch).unwrap();
        assert_eq!(
            p.state(),
            ImportState::Done {
                req,
                answer: RepAnswer::NoMatch
            }
        );
    }

    #[test]
    fn begin_while_waiting_is_busy() {
        let mut p = ImportPort::new(1);
        p.begin_import(ts(20.0)).unwrap();
        assert_eq!(p.begin_import(ts(40.0)), Err(ImportError::Busy));
    }

    #[test]
    fn begin_after_done_is_allowed_and_ids_increase() {
        let mut p = ImportPort::new(0);
        let r0 = p.begin_import(ts(20.0)).unwrap();
        p.on_answer(r0, RepAnswer::Match(ts(19.6))).unwrap();
        assert!(matches!(p.state(), ImportState::Done { .. }));
        let r1 = p.begin_import(ts(40.0)).unwrap();
        assert_eq!(r1, RequestId(1));
    }

    #[test]
    fn too_many_pieces_is_error() {
        let mut p = ImportPort::new(1);
        let req = p.begin_import(ts(20.0)).unwrap();
        p.on_piece(req).unwrap();
        assert_eq!(p.on_piece(req), Err(ImportError::TooManyPieces(req)));
    }

    #[test]
    fn zero_piece_ranks_complete_on_answer() {
        // A rank whose owned rectangle intersects no exporter piece.
        let mut p = ImportPort::new(0);
        let req = p.begin_import(ts(20.0)).unwrap();
        p.on_answer(req, RepAnswer::Match(ts(19.6))).unwrap();
        assert!(matches!(p.state(), ImportState::Done { .. }));
    }
}
