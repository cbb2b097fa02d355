//! Control-plane message payloads exchanged between processes and reps.
//!
//! Data-plane payloads (the actual array pieces) are runtime-specific and
//! live in `couplink-runtime`; only the control messages are defined here so
//! both runtimes (and tests) speak the same protocol.

use crate::ids::{ConnectionId, Rank, RequestId};
use couplink_time::{MatchResult, Timestamp};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One process's response to a forwarded import request.
///
/// The paper's reply triple `{D@20, PENDING, D@14.6}` carries the latest
/// exported timestamp along with a PENDING verdict; [`ProcResponse::Pending`]
/// keeps that diagnostic field.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ProcResponse {
    /// This process has decided the match.
    Match(Timestamp),
    /// This process has decided no export can satisfy the request.
    NoMatch,
    /// The best match cannot yet be decided; `latest` is the most recent
    /// timestamp this process has exported (None if it has exported nothing).
    Pending {
        /// Latest exported timestamp at response time.
        latest: Option<Timestamp>,
    },
}

impl ProcResponse {
    /// Converts a local [`MatchResult`] evaluation into a response.
    pub fn from_result(result: MatchResult, latest: Option<Timestamp>) -> Self {
        match result {
            MatchResult::Match(t) => ProcResponse::Match(t),
            MatchResult::NoMatch => ProcResponse::NoMatch,
            MatchResult::Pending => ProcResponse::Pending { latest },
        }
    }

    /// The definitive answer carried by this response, if any.
    pub fn decided(self) -> Option<RepAnswer> {
        match self {
            ProcResponse::Match(t) => Some(RepAnswer::Match(t)),
            ProcResponse::NoMatch => Some(RepAnswer::NoMatch),
            ProcResponse::Pending { .. } => None,
        }
    }
}

impl fmt::Display for ProcResponse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProcResponse::Match(t) => write!(f, "MATCH({t})"),
            ProcResponse::NoMatch => write!(f, "NO MATCH"),
            ProcResponse::Pending { latest: Some(l) } => write!(f, "PENDING(latest {l})"),
            ProcResponse::Pending { latest: None } => write!(f, "PENDING(no exports)"),
        }
    }
}

/// The rep's final, definitive answer to an import request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RepAnswer {
    /// The request is satisfied by the export with this timestamp.
    Match(Timestamp),
    /// The request cannot be satisfied.
    NoMatch,
}

impl RepAnswer {
    /// The matched timestamp, if any.
    pub fn matched(self) -> Option<Timestamp> {
        match self {
            RepAnswer::Match(t) => Some(t),
            RepAnswer::NoMatch => None,
        }
    }
}

impl fmt::Display for RepAnswer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepAnswer::Match(t) => write!(f, "YES {t}"),
            RepAnswer::NoMatch => write!(f, "NO"),
        }
    }
}

/// Control-plane messages. The comments give the paper's §4 flow:
/// importer rep → exporter rep → exporter processes → exporter rep →
/// (importer rep, plus buddy-help back to the slow exporter processes).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CtrlMsg {
    /// Importer process notifies its own rep of a collective `import(ts)`.
    ImportCall {
        /// Connection the import is on.
        conn: ConnectionId,
        /// Calling process rank.
        rank: Rank,
        /// Requested timestamp.
        ts: Timestamp,
    },
    /// Importer rep asks the exporter rep for a match.
    ImportRequest {
        /// Connection the request is on.
        conn: ConnectionId,
        /// Request id (assigned by the importer rep).
        req: RequestId,
        /// Requested timestamp.
        ts: Timestamp,
    },
    /// Exporter rep forwards the request to each of its processes.
    ForwardRequest {
        /// Connection.
        conn: ConnectionId,
        /// Request id.
        req: RequestId,
        /// Requested timestamp.
        ts: Timestamp,
    },
    /// Exporter process replies (or later updates a PENDING reply).
    Response {
        /// Connection.
        conn: ConnectionId,
        /// Request id.
        req: RequestId,
        /// Responding process rank.
        rank: Rank,
        /// The response.
        resp: ProcResponse,
    },
    /// Exporter rep's buddy-help: the final answer, sent to processes whose
    /// response was PENDING (the §4.1 optimization).
    BuddyHelp {
        /// Connection.
        conn: ConnectionId,
        /// Request id.
        req: RequestId,
        /// The final answer.
        answer: RepAnswer,
    },
    /// Exporter rep answers the importer rep.
    Answer {
        /// Connection.
        conn: ConnectionId,
        /// Request id.
        req: RequestId,
        /// The final answer.
        answer: RepAnswer,
    },
    /// Importer rep broadcasts the answer to its processes.
    AnswerBcast {
        /// Connection.
        conn: ConnectionId,
        /// Request id.
        req: RequestId,
        /// The final answer.
        answer: RepAnswer,
    },
    /// A coalesced collective frame routed down the k-ary distribution
    /// tree (hierarchical fan-out): the importer-side answer broadcast
    /// and/or the buddy-help announcements for one match, folded into a
    /// single message. Each receiving rank applies the roles it plays and
    /// relays the frame unchanged to its own subtree, so the rep sends at
    /// most `k` frames per collective instead of one per rank.
    Coalesced {
        /// Connection.
        conn: ConnectionId,
        /// Request id.
        req: RequestId,
        /// The final answer.
        answer: RepAnswer,
        /// Apply as the importer rep's answer broadcast ([`CtrlMsg::AnswerBcast`]).
        bcast: bool,
        /// Apply as the exporter rep's buddy-help ([`CtrlMsg::BuddyHelp`]).
        help: bool,
    },
    /// Reliability-layer acknowledgement of the sequenced message `seq` on
    /// the directed link back to its sender. Idempotent: duplicated or
    /// reordered acks are harmless (acking a seq twice is a no-op).
    Ack {
        /// Sequence number being acknowledged.
        seq: u64,
    },
}

impl CtrlMsg {
    /// Whether this message belongs to the reliability layer itself (an
    /// ack), as opposed to the §4 coupling protocol. Layer messages are
    /// never themselves sequenced — an ack of an ack would regress
    /// infinitely — and must be idempotent instead.
    pub fn is_link_layer(&self) -> bool {
        matches!(self, CtrlMsg::Ack { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use couplink_time::ts;

    #[test]
    fn response_from_result() {
        assert_eq!(
            ProcResponse::from_result(MatchResult::Match(ts(19.6)), Some(ts(20.6))),
            ProcResponse::Match(ts(19.6))
        );
        assert_eq!(
            ProcResponse::from_result(MatchResult::NoMatch, Some(ts(21.0))),
            ProcResponse::NoMatch
        );
        assert_eq!(
            ProcResponse::from_result(MatchResult::Pending, Some(ts(14.6))),
            ProcResponse::Pending {
                latest: Some(ts(14.6))
            }
        );
    }

    #[test]
    fn decided_extraction() {
        assert_eq!(
            ProcResponse::Match(ts(1.0)).decided(),
            Some(RepAnswer::Match(ts(1.0)))
        );
        assert_eq!(ProcResponse::NoMatch.decided(), Some(RepAnswer::NoMatch));
        assert_eq!(ProcResponse::Pending { latest: None }.decided(), None);
    }

    #[test]
    fn display_matches_paper_vocabulary() {
        assert_eq!(RepAnswer::Match(ts(19.6)).to_string(), "YES @19.6");
        assert_eq!(RepAnswer::NoMatch.to_string(), "NO");
        assert_eq!(
            ProcResponse::Pending {
                latest: Some(ts(14.6))
            }
            .to_string(),
            "PENDING(latest @14.6)"
        );
    }
}
