//! The file-backed write-ahead journal behind `couplink-node`.
//!
//! [`FileWal`] implements [`Wal`] with records that survive SIGKILL: each
//! record is one `proto::wire` frame (magic, version, kind, length, CRC-32,
//! body) appended to a segment file, so the journal reuses the exact
//! framing discipline — and the exact corruption taxonomy — of the socket
//! transport. Appends are buffered by the OS and made durable in batches:
//! [`Wal::sync`] runs `fdatasync` once per escape point (a sequenced frame
//! or ack leaving the process), not once per record.
//!
//! # Crash anatomy on open
//!
//! A process killed mid-append leaves at most one *torn* record — a strict
//! prefix of a frame — at the very end of the newest segment, because
//! appends are sequential. [`FileWal::open`] therefore:
//!
//! * replays every complete, checksum-verified frame in file order;
//! * truncates a torn tail on the newest segment (metered as
//!   `wal_truncated`) — that record was never acknowledged to anyone, so
//!   dropping it is indistinguishable from the message never arriving;
//! * rejects everything else — a checksum mismatch mid-file, a torn frame
//!   in a sealed segment, an unknown record kind — as
//!   [`WalError::Corrupt`]. Corruption is not recoverable: replaying a
//!   journal with a hole would silently diverge from what was acked.
//!
//! # Segments and pruning
//!
//! The journal rotates to a fresh segment file every
//! [`FileWal::SEGMENT_BYTES`]; sealed segments are immutable.
//! [`FileWal::prune_sealed`] deletes them — but recovery replays the
//! *delivered* history to rebuild node state, so pruning is only safe once
//! that state no longer needs reconstructing: `couplink-node` prunes at
//! clean session shutdown (everything acked *and* drained), not on ack
//! alone.

use crate::engine::reliable::{Wal, WalRecord};
use crate::engine::{Endpoint, WireMeta};
use couplink_metrics::EngineMetrics;
use couplink_proto::wire::{self, FrameDecoder, WireError};
use couplink_proto::CtrlMsg;
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Frame kind for a [`WalRecord::Delivered`] record. WAL kinds live far
/// above [`wire::KIND_RUNTIME_BASE`] so a journal file can never be
/// confused with captured socket traffic.
pub const KIND_WAL_DELIVERED: u8 = 64;

/// Frame kind for a [`WalRecord::AppExport`] record.
pub const KIND_WAL_EXPORT: u8 = 65;

/// Why a journal could not be opened or written.
#[derive(Debug)]
pub enum WalError {
    /// The filesystem failed underneath the journal.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A record failed checksum or structural validation somewhere other
    /// than a truncatable torn tail. The journal cannot be trusted.
    Corrupt {
        /// The segment containing the bad record.
        path: PathBuf,
        /// Byte offset at which the segment stopped parsing cleanly.
        offset: u64,
        /// The wire-level rejection.
        source: WireError,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io { path, source } => {
                write!(f, "WAL I/O error on {}: {source}", path.display())
            }
            WalError::Corrupt {
                path,
                offset,
                source,
            } => write!(
                f,
                "corrupt WAL record in {} at byte {offset}: {source}",
                path.display()
            ),
        }
    }
}

impl std::error::Error for WalError {}

fn io_err(path: &Path, source: std::io::Error) -> WalError {
    WalError::Io {
        path: path.to_path_buf(),
        source,
    }
}

// ---------------------------------------------------------------------------
// Record codec: one wire frame per record.
// ---------------------------------------------------------------------------

/// Encodes one record as a complete wire frame (header + CRC + body): the
/// consuming endpoint, then the delivered message's metadata and body, or
/// the export's region and timestamp.
pub fn encode_record(rec: &WalRecord) -> Vec<u8> {
    match *rec {
        WalRecord::Delivered { ep, meta, msg } => wire::frame(KIND_WAL_DELIVERED, &(ep, meta, msg)),
        WalRecord::AppExport { ep, region, ts } => wire::frame(KIND_WAL_EXPORT, &(ep, region, ts)),
    }
}

/// Decodes one record from a checksum-verified frame.
pub fn decode_record(kind: u8, body: &[u8]) -> Result<WalRecord, WireError> {
    match kind {
        KIND_WAL_DELIVERED => {
            let (ep, meta, msg) = wire::decode(body)?;
            Ok(WalRecord::Delivered { ep, meta, msg })
        }
        KIND_WAL_EXPORT => {
            let (ep, region, ts) = wire::decode(body)?;
            Ok(WalRecord::AppExport { ep, region, ts })
        }
        tag => Err(WireError::BadTag {
            what: "wal record kind",
            tag,
        }),
    }
}

// ---------------------------------------------------------------------------
// The journal.
// ---------------------------------------------------------------------------

/// A durable [`Wal`] over numbered segment files `<name>.<k>.wal` in one
/// directory. See the module docs for the crash anatomy.
pub struct FileWal {
    dir: PathBuf,
    name: String,
    seg_index: u64,
    file: File,
    seg_bytes: u64,
    seg_limit: u64,
    sealed: Vec<PathBuf>,
    dirty: bool,
    metrics: Arc<EngineMetrics>,
    /// In-memory mirror of the delivered journal, so in-process failover
    /// replay ([`Wal::delivered`]) never re-reads the disk.
    delivered: BTreeMap<Endpoint, Vec<(WireMeta, CtrlMsg)>>,
}

impl fmt::Debug for FileWal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FileWal")
            .field("dir", &self.dir)
            .field("name", &self.name)
            .field("seg_index", &self.seg_index)
            .field("seg_bytes", &self.seg_bytes)
            .field("sealed", &self.sealed.len())
            .finish()
    }
}

impl FileWal {
    /// Default rotation threshold: a segment is sealed once it exceeds
    /// this many bytes.
    pub const SEGMENT_BYTES: u64 = 1 << 20;

    fn seg_path(dir: &Path, name: &str, k: u64) -> PathBuf {
        dir.join(format!("{name}.{k}.wal"))
    }

    /// Opens (creating if absent) the journal `<dir>/<name>.*.wal` and
    /// replays every durable record, in file order, into the returned
    /// `Vec`. An empty or missing journal is simply fresh. A torn tail on
    /// the newest segment is truncated (`wal_truncated`); any other
    /// malformation is [`WalError::Corrupt`]. Replayed records are metered
    /// as `wal_replayed`.
    pub fn open(
        dir: &Path,
        name: &str,
        seg_limit: u64,
        metrics: Arc<EngineMetrics>,
    ) -> Result<(FileWal, Vec<WalRecord>), WalError> {
        std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        let mut segs: Vec<(u64, PathBuf)> = Vec::new();
        for entry in std::fs::read_dir(dir).map_err(|e| io_err(dir, e))? {
            let entry = entry.map_err(|e| io_err(dir, e))?;
            let fname = entry.file_name();
            let Some(fname) = fname.to_str() else {
                continue;
            };
            let Some(mid) = fname
                .strip_prefix(&format!("{name}."))
                .and_then(|s| s.strip_suffix(".wal"))
            else {
                continue;
            };
            if let Ok(k) = mid.parse::<u64>() {
                segs.push((k, entry.path()));
            }
        }
        segs.sort();

        let mut records = Vec::new();
        let last = segs.len().saturating_sub(1);
        for (i, (_, path)) in segs.iter().enumerate() {
            Self::replay_segment(path, i == last, &mut records, &metrics)?;
        }
        metrics.wal_replayed.add(records.len() as u64);

        let (seg_index, cur_path) = match segs.last() {
            Some(&(k, ref p)) => (k, p.clone()),
            None => (0, Self::seg_path(dir, name, 0)),
        };
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&cur_path)
            .map_err(|e| io_err(&cur_path, e))?;
        let seg_bytes = file.metadata().map_err(|e| io_err(&cur_path, e))?.len();
        let sealed = segs
            .iter()
            .take(segs.len().saturating_sub(1))
            .map(|(_, p)| p.clone())
            .collect();

        let mut delivered: BTreeMap<Endpoint, Vec<(WireMeta, CtrlMsg)>> = BTreeMap::new();
        for rec in &records {
            if let WalRecord::Delivered { ep, meta, msg } = rec {
                delivered.entry(*ep).or_default().push((*meta, *msg));
            }
        }

        Ok((
            FileWal {
                dir: dir.to_path_buf(),
                name: name.to_string(),
                seg_index,
                file,
                seg_bytes,
                seg_limit: seg_limit.max(1),
                sealed,
                dirty: false,
                metrics,
                delivered,
            },
            records,
        ))
    }

    /// Replays one segment. Only the newest segment may carry a torn tail.
    fn replay_segment(
        path: &Path,
        newest: bool,
        records: &mut Vec<WalRecord>,
        metrics: &EngineMetrics,
    ) -> Result<(), WalError> {
        let bytes = std::fs::read(path).map_err(|e| io_err(path, e))?;
        let mut dec = FrameDecoder::new();
        dec.extend(&bytes);
        loop {
            let consumed = bytes.len() - dec.buffered();
            match dec.next_frame() {
                Ok(Some(frame)) => {
                    let rec = decode_record(frame.kind, &frame.body).map_err(|source| {
                        WalError::Corrupt {
                            path: path.to_path_buf(),
                            offset: consumed as u64,
                            source,
                        }
                    })?;
                    records.push(rec);
                }
                Ok(None) => {
                    let leftover = dec.buffered();
                    if leftover == 0 {
                        return Ok(());
                    }
                    // A strict prefix of a frame. On the newest segment
                    // that is the signature of a crash mid-append; anywhere
                    // else the journal is damaged.
                    if !newest {
                        return Err(WalError::Corrupt {
                            path: path.to_path_buf(),
                            offset: (bytes.len() - leftover) as u64,
                            source: WireError::Truncated,
                        });
                    }
                    let keep = (bytes.len() - leftover) as u64;
                    let f = OpenOptions::new()
                        .write(true)
                        .open(path)
                        .map_err(|e| io_err(path, e))?;
                    f.set_len(keep).map_err(|e| io_err(path, e))?;
                    f.sync_all().map_err(|e| io_err(path, e))?;
                    metrics.wal_truncated.inc();
                    return Ok(());
                }
                Err(source) => {
                    return Err(WalError::Corrupt {
                        path: path.to_path_buf(),
                        offset: consumed as u64,
                        source,
                    })
                }
            }
        }
    }

    /// Deletes every sealed (non-current) segment. Only call once the
    /// session no longer needs replay — see the module docs.
    pub fn prune_sealed(&mut self) {
        for path in self.sealed.drain(..) {
            // Pruning is an optimization; a leftover segment is re-read
            // (harmlessly) on the next open, so failures are ignored.
            let _ = std::fs::remove_file(path);
        }
    }

    /// Number of sealed segments awaiting pruning (test hook).
    pub fn sealed_len(&self) -> usize {
        self.sealed.len()
    }

    fn current_path(&self) -> PathBuf {
        Self::seg_path(&self.dir, &self.name, self.seg_index)
    }

    fn rotate(&mut self) {
        let old = self.current_path();
        self.file.sync_data().unwrap_or_else(|e| {
            panic!("WAL sync on seal of {}: {e}", old.display());
        });
        self.sealed.push(old);
        self.seg_index += 1;
        let path = self.current_path();
        self.file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .unwrap_or_else(|e| panic!("WAL rotate to {}: {e}", path.display()));
        self.seg_bytes = 0;
    }
}

impl Wal for FileWal {
    fn append(&mut self, rec: &WalRecord) {
        if self.seg_bytes >= self.seg_limit {
            self.rotate();
        }
        let frame = encode_record(rec);
        self.file.write_all(&frame).unwrap_or_else(|e| {
            panic!("WAL append to {}: {e}", self.current_path().display());
        });
        self.seg_bytes += frame.len() as u64;
        self.dirty = true;
        self.metrics.wal_appends.inc();
        self.metrics.wal_bytes.add(frame.len() as u64);
        if let WalRecord::Delivered { ep, meta, msg } = rec {
            self.delivered.entry(*ep).or_default().push((*meta, *msg));
        }
    }

    fn sync(&mut self) {
        if !self.dirty {
            return;
        }
        self.file.sync_data().unwrap_or_else(|e| {
            panic!("WAL sync of {}: {e}", self.current_path().display());
        });
        self.dirty = false;
    }

    fn delivered(&self, ep: Endpoint) -> Vec<(WireMeta, CtrlMsg)> {
        self.delivered.get(&ep).cloned().unwrap_or_default()
    }

    fn prune(&mut self) {
        self.prune_sealed();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use couplink_proto::{ConnectionId, RequestId};
    use couplink_time::ts;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("couplink-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("tmpdir");
        dir
    }

    fn rec(seq: u64) -> WalRecord {
        WalRecord::Delivered {
            ep: Endpoint::Rep { prog: 1 },
            meta: WireMeta {
                from: Endpoint::Rep { prog: 0 },
                seq,
                ord: Some(seq),
            },
            msg: CtrlMsg::ImportRequest {
                conn: ConnectionId(0),
                req: RequestId(seq),
                ts: ts(1.0 + seq as f64),
            },
        }
    }

    fn export_rec(k: u64) -> WalRecord {
        WalRecord::AppExport {
            ep: Endpoint::Proc { prog: 0, rank: 1 },
            region: 2,
            ts: ts(0.5 + k as f64),
        }
    }

    #[test]
    fn record_codec_roundtrips_both_kinds() {
        for rec in [rec(7), export_rec(3)] {
            let frame = encode_record(&rec);
            let mut dec = FrameDecoder::new();
            dec.extend(&frame);
            let f = dec.next_frame().expect("valid").expect("complete");
            assert_eq!(decode_record(f.kind, &f.body).expect("decodes"), rec);
        }
    }

    #[test]
    fn fresh_reopen_replays_in_order_and_mirrors_delivered() {
        let dir = tmpdir("reopen");
        let m = Arc::new(EngineMetrics::new());
        let (mut w, replayed) =
            FileWal::open(&dir, "n0", FileWal::SEGMENT_BYTES, m.clone()).expect("fresh open");
        assert!(replayed.is_empty(), "empty journal is fresh");
        for k in 0..4 {
            w.append(&rec(k));
            w.append(&export_rec(k));
        }
        w.sync();
        assert_eq!(m.wal_appends.get(), 8);
        drop(w);

        let m2 = Arc::new(EngineMetrics::new());
        let (w2, replayed) =
            FileWal::open(&dir, "n0", FileWal::SEGMENT_BYTES, m2.clone()).expect("reopen");
        assert_eq!(replayed.len(), 8);
        let want: Vec<WalRecord> = (0..4).flat_map(|k| [rec(k), export_rec(k)]).collect();
        assert_eq!(replayed, want, "file order preserved");
        assert_eq!(m2.wal_replayed.get(), 8);
        assert_eq!(m2.wal_truncated.get(), 0);
        assert_eq!(
            w2.delivered(Endpoint::Rep { prog: 1 }).len(),
            4,
            "delivered mirror rebuilt from disk"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_seals_segments_and_prune_keeps_current() {
        let dir = tmpdir("rotate");
        let m = Arc::new(EngineMetrics::new());
        // Tiny limit: every append lands in a new segment.
        let (mut w, _) = FileWal::open(&dir, "n0", 1, m.clone()).expect("open");
        for k in 0..5 {
            w.append(&rec(k));
        }
        w.sync();
        assert_eq!(w.sealed_len(), 4);
        drop(w);
        // All five records replay across the five segments.
        let (mut w, replayed) = FileWal::open(&dir, "n0", 1, m.clone()).expect("reopen");
        assert_eq!(replayed.len(), 5);
        w.prune_sealed();
        assert_eq!(w.sealed_len(), 0);
        drop(w);
        let (_, replayed) = FileWal::open(&dir, "n0", 1, m).expect("post-prune");
        assert_eq!(replayed.len(), 1, "only the current segment survives");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_in_sealed_segment_is_corrupt_not_truncated() {
        let dir = tmpdir("sealed-torn");
        let m = Arc::new(EngineMetrics::new());
        let (mut w, _) = FileWal::open(&dir, "n0", 1, m.clone()).expect("open");
        w.append(&rec(0));
        w.append(&rec(1)); // rotates: segment 0 sealed
        w.sync();
        drop(w);
        let sealed = FileWal::seg_path(&dir, "n0", 0);
        let bytes = std::fs::read(&sealed).expect("read sealed");
        std::fs::write(&sealed, &bytes[..bytes.len() - 3]).expect("tear sealed");
        let err = FileWal::open(&dir, "n0", 1, m).expect_err("sealed tear is fatal");
        assert!(matches!(err, WalError::Corrupt { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
