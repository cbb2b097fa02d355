//! Multi-connection export regions: one region feeding several importers.
//!
//! Figure 2 of the paper connects `P0.r1` to both `P1.r1` and `P2.r3`. Each
//! connection has its own match policy, tolerance and request stream, hence
//! its own [`ExportPort`]; but the *object* is one: the framework should
//! memcpy it at most once and free the copy only when **no** connection can
//! still need it. [`MultiExport`] aggregates the per-connection decisions
//! into exactly that: a single `copy` verdict and reference-counted frees.

use crate::export_port::{ExportEffects, ExportPort, PortError, RequestEffects};
use crate::ids::RequestId;
use crate::messages::RepAnswer;
use couplink_time::Timestamp;
use std::collections::BTreeMap;

/// Aggregated effects of exporting one object across all connections.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MultiExportEffects {
    /// Whether the object must be copied into the shared framework buffer
    /// (true iff at least one connection buffers it).
    pub copy: bool,
    /// Timestamps whose shared copy is no longer needed by *any* connection.
    pub freed: Vec<Timestamp>,
    /// Per-connection effects, in connection order (for sends/resolutions).
    pub per_conn: Vec<ExportEffects>,
}

/// One process's export side for a region with several connections.
///
/// Internally each connection keeps its own [`ExportPort`]; the combinator
/// reference-counts buffered objects so the shared object store holds one
/// copy per timestamp, freed when the last interested connection lets go.
#[derive(Debug, Clone)]
pub struct MultiExport {
    ports: Vec<ExportPort>,
    /// How many connections still hold each buffered timestamp.
    refcount: BTreeMap<Timestamp, usize>,
}

impl MultiExport {
    /// Builds the combinator from one port per connection.
    ///
    /// # Panics
    ///
    /// Panics on zero ports (a region with no connection needs no port at
    /// all — the framework's zero-overhead path).
    pub fn new(ports: Vec<ExportPort>) -> Self {
        assert!(
            !ports.is_empty(),
            "a connected region has at least one connection"
        );
        MultiExport {
            ports,
            refcount: BTreeMap::new(),
        }
    }

    /// Number of connections.
    pub fn connections(&self) -> usize {
        self.ports.len()
    }

    /// The port for one connection (e.g. to inspect statistics).
    pub fn port(&self, idx: usize) -> &ExportPort {
        &self.ports[idx]
    }

    /// Mutable access to one connection's port (used by the simulation-test
    /// harness to arm mutation-testing hooks on an assembled topology).
    pub fn port_mut(&mut self, idx: usize) -> &mut ExportPort {
        &mut self.ports[idx]
    }

    /// Objects currently held in the shared store.
    pub fn shared_buffered_len(&self) -> usize {
        self.refcount.len()
    }

    /// Exports the object on every connection, writing the effects into
    /// `out` (whatever it held is replaced; its allocations are reused).
    /// `copy` in the result is the single shared-buffer decision; `freed`
    /// lists objects no connection needs anymore. On an error `out` holds
    /// nothing meaningful.
    ///
    /// With several bounded connections, a [`PortError::BufferFull`] from a
    /// later port must not leave earlier ports already mutated — the export
    /// has to stay non-consuming as a whole so the caller can retry it after
    /// space frees up. The export is therefore probed on a scratch clone
    /// first; only a fully successful probe is committed. On failure the
    /// offending *real* port re-runs the export once so its
    /// `buffer_full_stalls` counter still records the stall.
    pub fn on_export(
        &mut self,
        t: Timestamp,
        out: &mut MultiExportEffects,
    ) -> Result<(), PortError> {
        if self.ports.len() > 1 && self.ports.iter().any(|p| p.capacity().is_some()) {
            let mut probe = self.clone();
            return match probe.apply_export(t, out) {
                Ok(()) => {
                    *self = probe;
                    Ok(())
                }
                Err((idx, e)) => {
                    if matches!(e, PortError::BufferFull { .. }) {
                        // The failing port was not mutated by the probe
                        // (BufferFull is non-consuming), so replaying on the
                        // untouched real port reproduces the error and bumps
                        // its stall statistic.
                        let _ = self.ports[idx].on_export(t);
                    }
                    Err(e)
                }
            };
        }
        self.apply_export(t, out).map_err(|(_, e)| e)
    }

    /// Runs the export on every port in order, committing mutations as it
    /// goes. On error, reports which port failed.
    fn apply_export(
        &mut self,
        t: Timestamp,
        out: &mut MultiExportEffects,
    ) -> Result<(), (usize, PortError)> {
        out.copy = false;
        out.freed.clear();
        out.per_conn.clear();
        for idx in 0..self.ports.len() {
            let fx = self.ports[idx].on_export(t).map_err(|e| (idx, e))?;
            let action = fx.action.expect("on_export decides");
            if action.copies() {
                out.copy = true;
                *self.refcount.entry(t).or_insert(0) += 1;
            }
            for &f in &fx.freed {
                out.freed.extend(self.release(f));
            }
            out.per_conn.push(fx);
        }
        // An earlier connection may send-and-release `t` in this very step
        // while a later one buffers it: the shared copy is then still held.
        out.freed.retain(|f| !self.refcount.contains_key(f));
        Ok(())
    }

    /// Forwards a request on connection `idx`.
    pub fn on_request(
        &mut self,
        idx: usize,
        id: RequestId,
        ts: Timestamp,
    ) -> Result<(RequestEffects, Vec<Timestamp>), PortError> {
        let fx = self.ports[idx].on_request(id, ts)?;
        let mut freed = Vec::new();
        for f in &fx.freed {
            freed.extend(self.release(*f));
        }
        Ok((fx, freed))
    }

    /// Forwards a buddy-help message on connection `idx`.
    pub fn on_buddy_help(
        &mut self,
        idx: usize,
        id: RequestId,
        answer: RepAnswer,
    ) -> Result<(crate::export_port::HelpEffects, Vec<Timestamp>), PortError> {
        let fx = self.ports[idx].on_buddy_help(id, answer)?;
        let mut freed = Vec::new();
        for f in &fx.freed {
            freed.extend(self.release(*f));
        }
        Ok((fx, freed))
    }

    /// Drops one connection's hold on `t`; returns it if the shared copy is
    /// now dead.
    fn release(&mut self, t: Timestamp) -> Option<Timestamp> {
        match self.refcount.get_mut(&t) {
            Some(n) if *n > 1 => {
                *n -= 1;
                None
            }
            Some(_) => {
                self.refcount.remove(&t);
                Some(t)
            }
            // A connection freeing an object it never buffered (it skipped
            // the export while another connection copied it): no effect.
            None => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export_port::ExportAction;
    use crate::ids::ConnectionId;
    use couplink_time::{ts, MatchPolicy, Tolerance};

    /// One export through a fresh effects buffer.
    fn export(m: &mut MultiExport, t: Timestamp) -> Result<MultiExportEffects, PortError> {
        let mut fx = MultiExportEffects::default();
        m.on_export(t, &mut fx).map(|()| fx)
    }

    fn multi(specs: &[(MatchPolicy, f64)]) -> MultiExport {
        MultiExport::new(
            specs
                .iter()
                .enumerate()
                .map(|(i, (p, tol))| {
                    ExportPort::new(ConnectionId(i as u32), *p, Tolerance::new(*tol).unwrap())
                })
                .collect(),
        )
    }

    #[test]
    fn copy_iff_any_connection_buffers() {
        let mut m = multi(&[(MatchPolicy::RegL, 2.5), (MatchPolicy::RegL, 2.5)]);
        // Connection 0 knows its request + help; connection 1 knows nothing.
        m.on_request(0, RequestId(0), ts(20.0)).unwrap();
        m.on_buddy_help(0, RequestId(0), RepAnswer::Match(ts(19.6)))
            .unwrap();
        let fx = export(&mut m, ts(1.6)).unwrap();
        // Connection 0 would skip, but connection 1 must buffer: copy once.
        assert!(fx.copy);
        assert_eq!(
            fx.per_conn[0].action,
            Some(ExportAction::Skip),
            "connection 0 skips"
        );
        assert_eq!(fx.per_conn[1].action, Some(ExportAction::Buffer));
        assert_eq!(m.shared_buffered_len(), 1);
    }

    #[test]
    fn skip_when_all_connections_skip() {
        let mut m = multi(&[(MatchPolicy::RegL, 2.5), (MatchPolicy::RegL, 1.0)]);
        m.on_request(0, RequestId(0), ts(20.0)).unwrap();
        m.on_request(1, RequestId(0), ts(30.0)).unwrap();
        m.on_buddy_help(0, RequestId(0), RepAnswer::Match(ts(19.6)))
            .unwrap();
        m.on_buddy_help(1, RequestId(0), RepAnswer::Match(ts(29.5)))
            .unwrap();
        let fx = export(&mut m, ts(1.6)).unwrap();
        assert!(!fx.copy, "both connections proved the object dead");
        assert_eq!(m.shared_buffered_len(), 0);
    }

    #[test]
    fn freed_only_when_no_connection_needs_it() {
        let mut m = multi(&[(MatchPolicy::RegL, 2.5), (MatchPolicy::RegL, 2.5)]);
        // Both buffer 1.6 .. 5.6.
        for i in 1..=5 {
            let fx = export(&mut m, ts(i as f64 + 0.6)).unwrap();
            assert!(fx.copy);
        }
        assert_eq!(m.shared_buffered_len(), 5);
        // Connection 0's request prunes everything below 17.5 for it — but
        // connection 1 still holds the objects: nothing freed yet.
        let (_, freed) = m.on_request(0, RequestId(0), ts(20.0)).unwrap();
        assert!(freed.is_empty(), "connection 1 still needs the objects");
        assert_eq!(m.shared_buffered_len(), 5);
        // Connection 1's request releases the last holds.
        let (_, freed) = m.on_request(1, RequestId(0), ts(20.0)).unwrap();
        assert_eq!(freed.len(), 5);
        assert_eq!(m.shared_buffered_len(), 0);
    }

    /// One export step in which an earlier connection sends the object and
    /// lets go of it at once (its next request is already past it) while a
    /// later connection buffers it: the shared copy is still held, so it
    /// must not be reported freed — the store would drop an object the
    /// second connection is about to be asked for.
    #[test]
    fn object_released_and_rebuffered_in_one_export_is_not_freed() {
        let mut m = multi(&[(MatchPolicy::RegL, 1.0), (MatchPolicy::RegU, 1.0)]);
        m.on_request(0, RequestId(0), ts(5.0)).unwrap();
        m.on_buddy_help(0, RequestId(0), RepAnswer::Match(ts(4.5)))
            .unwrap();
        m.on_request(0, RequestId(1), ts(8.0)).unwrap();
        let fx = export(&mut m, ts(4.5)).unwrap();
        assert_eq!(
            fx.per_conn[0].action,
            Some(ExportAction::BufferAndSend {
                request: RequestId(0)
            })
        );
        assert_eq!(
            fx.per_conn[0].freed,
            vec![ts(4.5)],
            "connection 0 is done with it"
        );
        assert_eq!(fx.per_conn[1].action, Some(ExportAction::Buffer));
        assert!(fx.copy);
        assert!(
            fx.freed.is_empty(),
            "connection 1 still holds {:?}",
            fx.freed
        );
        assert_eq!(m.shared_buffered_len(), 1);
        // Connection 1's request finds it where the store still has it.
        let (rfx, _) = m.on_request(1, RequestId(0), ts(4.0)).unwrap();
        assert_eq!(rfx.send, Some(ts(4.5)));
    }

    #[test]
    fn different_policies_can_match_different_objects() {
        let mut m = multi(&[(MatchPolicy::RegL, 2.5), (MatchPolicy::RegU, 2.5)]);
        m.on_request(0, RequestId(0), ts(20.0)).unwrap();
        m.on_request(1, RequestId(0), ts(20.0)).unwrap();
        let mut sends = Vec::new();
        for i in 1..=21 {
            let fx = export(&mut m, ts(i as f64 + 0.6)).unwrap();
            for (conn, pfx) in fx.per_conn.iter().enumerate() {
                for r in &pfx.resolutions {
                    sends.push((conn, r.send.unwrap()));
                }
                if let Some(ExportAction::BufferAndSend { .. }) = pfx.action {
                    sends.push((conn, ts(i as f64 + 0.6)));
                }
            }
        }
        // REGL matches 19.6 (closest below 20); REGU matches 20.6 (first
        // at-or-above).
        assert!(sends.contains(&(0, ts(19.6))), "{sends:?}");
        assert!(sends.contains(&(1, ts(20.6))), "{sends:?}");
    }

    #[test]
    fn single_connection_degenerates_to_plain_port() {
        let mut m = multi(&[(MatchPolicy::RegL, 2.5)]);
        let fx = export(&mut m, ts(1.0)).unwrap();
        assert!(fx.copy);
        let (rfx, freed) = m.on_request(0, RequestId(0), ts(20.0)).unwrap();
        assert!(matches!(rfx.response, crate::ProcResponse::Pending { .. }));
        assert_eq!(freed, vec![ts(1.0)]);
    }

    #[test]
    #[should_panic(expected = "at least one connection")]
    fn zero_connections_rejected() {
        MultiExport::new(Vec::new());
    }

    #[test]
    fn bounded_buffer_full_leaves_every_connection_untouched() {
        // Connection 0 unbounded, connection 1 bounded at 2: the third
        // export overflows connection 1 *after* connection 0 would already
        // have buffered it. The export must fail atomically: no port keeps
        // partial state, and retrying after space frees succeeds cleanly.
        let mut m = MultiExport::new(vec![
            ExportPort::new(
                ConnectionId(0),
                MatchPolicy::RegL,
                Tolerance::new(2.5).unwrap(),
            ),
            ExportPort::with_capacity(
                ConnectionId(1),
                MatchPolicy::RegL,
                Tolerance::new(2.5).unwrap(),
                2,
            ),
        ]);
        export(&mut m, ts(1.6)).unwrap();
        export(&mut m, ts(2.6)).unwrap();
        let err = export(&mut m, ts(3.6)).unwrap_err();
        assert!(matches!(err, PortError::BufferFull { .. }), "{err:?}");
        assert_eq!(
            m.port(0).buffered_len(),
            2,
            "conn 0 must not see the failed export"
        );
        assert_eq!(m.port(1).stats().buffer_full_stalls, 1, "stall recorded");
        assert_eq!(m.shared_buffered_len(), 2);
        // A request on connection 1 frees its buffer; the retry goes through
        // and buffers exactly once per connection.
        let (_, _freed) = m.on_request(1, RequestId(0), ts(20.0)).unwrap();
        let fx = export(&mut m, ts(3.6)).unwrap();
        assert!(fx.copy);
        assert_eq!(m.port(0).buffered_len(), 3);
    }
}
