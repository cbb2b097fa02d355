//! The deliberately unsound protocol rules a test can arm to prove the
//! oracles have teeth. Each rule is declared once, here, and fired by the
//! one component it breaks; runtimes receive it in their fault plan
//! (`couplink_runtime::engine::Faults`).

/// One deliberately unsound protocol rule. Never armed in production.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Fired by [`ExportPort`](crate::ExportPort): an export equal to a
    /// known buddy-help match is skipped instead of sent, as if the
    /// dominance lemma read `t ≤ m` instead of `t < m`.
    HelpSkip,
    /// Fired by [`ExportPort`](crate::ExportPort): a buddy-help
    /// announcement whose match was already exported locally is dropped
    /// without sending the piece, as if a rank past the match could leave
    /// the transfer to someone else.
    StaleSkip,
    /// Fired by the engine's import node: relay rank 0 silently drops the
    /// coalesced answer broadcast on its first subtree edge, before any
    /// send step sees it, starving every rank below it.
    RelayDrop,
    /// Fired by the threaded fabric's reliability layer: an in-process
    /// sender's acks are applied before the receiving handler has sent
    /// what it owes, so a shutdown drain can see "nothing pending"
    /// mid-handler and stop. The simulator charges its acks explicitly and
    /// refuses this rule.
    AckBeforeHandle,
}

impl Mutation {
    /// Every mutation, for sweeps.
    pub const ALL: [Mutation; 4] = [
        Mutation::HelpSkip,
        Mutation::StaleSkip,
        Mutation::RelayDrop,
        Mutation::AckBeforeHandle,
    ];

    /// Short CLI/reporting name.
    pub fn as_str(self) -> &'static str {
        match self {
            Mutation::HelpSkip => "help-skip",
            Mutation::StaleSkip => "stale-skip",
            Mutation::RelayDrop => "relay-drop",
            Mutation::AckBeforeHandle => "ack-before-handle",
        }
    }
}
