//! Statistics implementing the paper's Equations (1)–(2) in event counts.
//!
//! The proto layer is clockless, so "time spent on unnecessary buffering"
//! is recorded here as *counts of unnecessary memcpys*; the runtimes convert
//! counts × per-object memcpy cost into the paper's `T_i` / `T_ub` seconds
//! (all objects on one connection have the same size, so the conversion is a
//! single multiplication).

use serde::{Deserialize, Serialize};

/// Counters accumulated by one [`crate::ExportPort`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExportStats {
    /// Import requests seen (forwarded by the rep).
    pub requests: u64,
    /// Export calls made by the process.
    pub exports: u64,
    /// Export calls that copied the object into the framework buffer.
    pub memcpys: u64,
    /// Export calls whose memcpy was skipped (the buddy-help saving).
    pub skips: u64,
    /// Objects transferred to the importer.
    pub sends: u64,
    /// Buffered objects freed after having been sent (useful buffering).
    pub freed_sent: u64,
    /// Buffered objects freed without ever being sent (unnecessary
    /// buffering — the quantity Equations (1)–(2) sum).
    pub freed_unsent: u64,
    /// Buddy-help messages consumed.
    pub buddy_helps: u64,
    /// High-water mark of buffered objects (peak framework memory in
    /// objects; × object bytes = peak buffer footprint — the finite-buffer
    /// question the paper's §6 leaves as future work).
    pub buffered_hwm: usize,
    /// Export attempts rejected because a bounded buffer was full (each is
    /// one stall of the exporting process).
    pub buffer_full_stalls: u64,
    /// Equation (1) attribution: `unnecessary_by_request[i]` is the number
    /// of unnecessarily buffered objects that fell inside the acceptable
    /// region `R_i` of the `i`-th request (the paper's `n(i) − 1` when the
    /// region got a match).
    pub unnecessary_by_request: Vec<u64>,
    /// Unnecessarily buffered objects that fell in no acceptable region
    /// (exported between regions, pruned when a later request arrived).
    pub unnecessary_inter_region: u64,
}

impl ExportStats {
    /// Equation (2) in counts: total unnecessary memcpys attributed to
    /// acceptable regions, `Σ_i (n(i) − 1)`.
    pub fn t_ub_in_region_count(&self) -> u64 {
        self.unnecessary_by_request.iter().sum()
    }

    /// The request index from which the port is in the paper's *optimal
    /// state* (`T_i = 0`, Figure 6): no later acceptable region suffered
    /// unnecessary buffering. Requests beyond the attribution vector's end
    /// had zero unnecessary copies (the vector only grows on attribution).
    /// `None` if the last request seen was still a bad one, so no clean
    /// region proves the state was entered.
    pub fn optimal_entry_request(&self) -> Option<usize> {
        match self.unnecessary_by_request.iter().rposition(|&n| n > 0) {
            None => Some(0),
            Some(i) if i + 1 < self.requests as usize => Some(i + 1),
            Some(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equation2_sums_per_region_terms() {
        let s = ExportStats {
            unnecessary_by_request: vec![4, 7, 0, 2],
            unnecessary_inter_region: 12,
            ..Default::default()
        };
        assert_eq!(s.t_ub_in_region_count(), 13);
    }

    #[test]
    fn optimal_state_window() {
        let s = ExportStats {
            requests: 5,
            unnecessary_by_request: vec![4, 7, 0, 0, 0],
            ..Default::default()
        };
        assert_eq!(s.optimal_entry_request(), Some(2));
        assert_eq!(ExportStats::default().optimal_entry_request(), Some(0));
        // The last request still buffered unnecessarily: no clean region
        // follows it.
        let s = ExportStats {
            requests: 2,
            unnecessary_by_request: vec![0, 1],
            ..Default::default()
        };
        assert_eq!(s.optimal_entry_request(), None);
    }

    #[test]
    fn optimal_state_counts_unrecorded_trailing_requests_as_clean() {
        // 10 requests, attribution vector only reached index 1: requests
        // 2..10 buffered nothing unnecessarily.
        let s = ExportStats {
            requests: 10,
            unnecessary_by_request: vec![3, 2],
            ..Default::default()
        };
        assert_eq!(s.optimal_entry_request(), Some(2));
    }
}
