//! The benchmark's own span recorder.
//!
//! Spans are recorded around the calls into the program, from the
//! benchmark's side only: name, start, end, parent, and an operation id
//! (rank, call index). They stay in memory until the run ends. A layer's
//! self time is its span's duration minus the part of that interval its
//! child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub type SpanId = u32;

/// No parent: a root span.
pub const ROOT: SpanId = 0;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Rank of the driver thread that made the call (0 for structural spans).
    pub rank: u32,
    /// Call index on that rank (0 for structural spans).
    pub call: u32,
}

/// An open structural span; [`Recorder::close`] ends it.
#[derive(Debug)]
pub struct Open {
    id: SpanId,
    parent: SpanId,
    name: &'static str,
    start_ns: u64,
}

impl Open {
    pub fn id(&self) -> SpanId {
        self.id
    }
}

/// Collects spans when enabled; every method is a no-op otherwise, so the
/// timed pass runs the same code without recording anything.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn open(&self, name: &'static str, parent: SpanId) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start_ns: self.now_ns(),
        }
    }

    pub fn close(&self, open: Open) {
        if !self.enabled {
            return;
        }
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            start_ns: open.start_ns,
            end_ns: self.now_ns(),
            rank: 0,
            call: 0,
        };
        self.spans.lock().expect("span list").push(span);
    }

    /// Runs `f` inside a structural span.
    pub fn within<T>(&self, name: &'static str, parent: SpanId, f: impl FnOnce(SpanId) -> T) -> T {
        let open = self.open(name, parent);
        let out = f(open.id);
        self.close(open);
        out
    }

    /// Adds the call spans one driver thread buffered locally.
    pub fn absorb(&self, parent: SpanId, rank: u32, calls: Vec<CallSpan>) {
        if !self.enabled || calls.is_empty() {
            return;
        }
        let first = self
            .next_id
            .fetch_add(calls.len() as u32, Ordering::Relaxed);
        let mut spans = self.spans.lock().expect("span list");
        spans.extend(calls.into_iter().enumerate().map(|(i, c)| Span {
            id: first + i as u32,
            parent,
            name: c.name,
            start_ns: c.start_ns,
            end_ns: c.end_ns,
            rank,
            call: c.call,
        }));
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span list"))
    }
}

/// One `export`/`import` call, buffered by the thread that made it.
#[derive(Debug, Clone, Copy)]
pub struct CallSpan {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub call: u32,
}

/// Total duration and total self time per span name, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTimes {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

/// Self time of every span: its duration minus the union of its children's
/// intervals (clipped to the span), summed per name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, NameTimes> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != ROOT {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, NameTimes> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = children.get_mut(&s.id).map_or(0, |kids| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            covered
        });
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_s += dur as f64 / 1e9;
        e.self_s += (dur - covered.min(dur)) as f64 / 1e9;
    }
    out
}

/// How many spans a trace file holds at most; structural spans come first,
/// so the cap only ever drops per-call spans.
pub const DUMP_CAP: usize = 20_000;

/// The trace as JSON text: a stamp, the per-name times, and the spans.
pub fn to_json(workload: &str, spans: &[Span]) -> String {
    let mut ordered: Vec<&Span> = spans.iter().collect();
    ordered.sort_by_key(|s| (s.name == "export" || s.name == "import", s.start_ns));
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"spans_recorded\":{},\"spans_dropped\":{},\"by_name\":{{",
        spans.len(),
        spans.len().saturating_sub(DUMP_CAP)
    );
    for (i, (name, t)) in self_times(spans).iter().enumerate() {
        let _ = write!(
            out,
            "{}\"{name}\":{{\"count\":{},\"total_s\":{:.9},\"self_s\":{:.9}}}",
            if i > 0 { "," } else { "" },
            t.count,
            t.total_s,
            t.self_s
        );
    }
    out.push_str("},\"spans\":[");
    for (i, s) in ordered.iter().take(DUMP_CAP).enumerate() {
        let _ = write!(
            out,
            "{}{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"op\":\"{workload}/{}/{}\"}}",
            if i > 0 { "," } else { "" },
            s.id,
            s.parent,
            s.name,
            s.start_ns,
            s.end_ns,
            s.rank,
            s.call
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            rank: 0,
            call: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, ROOT, "workload", 0, 1000),
            span(2, 1, "setup", 100, 300),
            span(3, 1, "run", 300, 900),
            // Two overlapping calls and one that sticks out past the parent.
            span(4, 3, "import", 300, 500),
            span(5, 3, "import", 400, 700),
            span(6, 3, "export", 850, 950),
        ];
        let t = self_times(&spans);
        // workload: 1000 - (200 + 600) = 200.
        assert!((t["workload"].self_s - 200e-9).abs() < 1e-15);
        // run: 600 - union([300,700] ∪ [850,900]) = 600 - 450 = 150.
        assert!((t["run"].self_s - 150e-9).abs() < 1e-15);
        assert_eq!(t["import"].count, 2);
        assert!((t["import"].total_s - 500e-9).abs() < 1e-15);
        assert!(
            (t["import"].self_s - 500e-9).abs() < 1e-15,
            "leaves keep it all"
        );
        assert!((t["setup"].self_s - 200e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::new(false);
        rec.within("setup", ROOT, |_| ());
        rec.absorb(
            1,
            0,
            vec![CallSpan {
                name: "import",
                start_ns: 0,
                end_ns: 1,
                call: 0,
            }],
        );
        assert!(rec.take().is_empty());
    }

    #[test]
    fn enabled_recorder_nests_and_dumps_valid_json() {
        let rec = Recorder::new(true);
        let run = rec.within("workload", ROOT, |w| {
            rec.within("run", w, |run| {
                rec.absorb(
                    run,
                    3,
                    vec![CallSpan {
                        name: "import",
                        start_ns: 5,
                        end_ns: 9,
                        call: 7,
                    }],
                );
                run
            })
        });
        let spans = rec.take();
        assert_eq!(spans.len(), 3);
        let call = spans
            .iter()
            .find(|s| s.name == "import")
            .expect("call span");
        assert_eq!((call.parent, call.rank, call.call), (run, 3, 7));
        let text = to_json("ctrl_small", &spans);
        let v = crate::adapter::json::parse(&text).expect("valid JSON");
        let dumped = v.get("spans").and_then(|s| s.as_array()).expect("spans");
        assert_eq!(dumped.len(), 3);
        assert_eq!(
            dumped[2].get("op").and_then(|o| o.as_str()),
            Some("ctrl_small/3/7")
        );
    }
}
