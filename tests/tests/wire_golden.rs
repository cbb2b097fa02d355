//! Byte-level pin of every frame the socket runtime and its journal write.
//!
//! `tests/golden/wire.txt` holds one `name hex` line per frame kind and
//! variant: every control message and reply form, the routed envelopes in
//! their three metadata shapes, the ack envelope, both journal records, the
//! handshake frames, a payload piece, a PLAN and a REPORT. Each frame is
//! re-encoded here and compared byte for byte. A codec refactor must leave
//! every line as it is; a deliberate layout change goes with an
//! `RT_VERSION` or `WIRE_VERSION` bump and an edit of the lines it moves.
//! On a mismatch the test prints the fresh line for each frame that moved.

use couplink_metrics::CounterSnapshot;
use couplink_proto::wire::{self, WireRect};
use couplink_proto::{
    ConnectionId, CtrlMsg, ExportStats, ProcResponse, Rank, RepAnswer, RequestId, Trace,
    TraceEvent, TreeRole,
};
use couplink_runtime::engine::reliable::{WalRecord, WireMeta};
use couplink_runtime::engine::{ChaosConfig, CrashFault, CrashTarget, Endpoint};
use couplink_runtime::net::codec::{self, ExportSpec, ImportSpec, NodeFault, NodePlan, NodeReport};
use couplink_runtime::net::wal;
use couplink_time::ts;
use std::path::PathBuf;

/// Every control message variant, each reply and answer form once.
fn ctrl_msgs() -> Vec<(&'static str, CtrlMsg)> {
    let (conn, req, rank) = (ConnectionId(3), RequestId(0x0102_0304_0506), Rank(5));
    let hit = RepAnswer::Match(ts(19.6));
    let miss = RepAnswer::NoMatch;
    let resp = |resp| CtrlMsg::Response {
        conn,
        req,
        rank,
        resp,
    };
    let coalesced = |role| CtrlMsg::Coalesced {
        conn,
        req,
        answer: hit,
        role,
    };
    vec![
        (
            "import_call",
            CtrlMsg::ImportCall {
                conn,
                rank,
                ts: ts(20.0),
            },
        ),
        (
            "import_request",
            CtrlMsg::ImportRequest {
                conn,
                req,
                ts: ts(20.0),
            },
        ),
        (
            "forward_request",
            CtrlMsg::ForwardRequest {
                conn,
                req,
                ts: ts(20.0),
            },
        ),
        ("response.match", resp(ProcResponse::Match(ts(19.6)))),
        ("response.no_match", resp(ProcResponse::NoMatch)),
        (
            "response.pending_none",
            resp(ProcResponse::Pending { latest: None }),
        ),
        (
            "response.pending_some",
            resp(ProcResponse::Pending {
                latest: Some(ts(14.6)),
            }),
        ),
        (
            "buddy_help.match",
            CtrlMsg::BuddyHelp {
                conn,
                req,
                answer: hit,
            },
        ),
        (
            "buddy_help.no_match",
            CtrlMsg::BuddyHelp {
                conn,
                req,
                answer: miss,
            },
        ),
        (
            "answer.match",
            CtrlMsg::Answer {
                conn,
                req,
                answer: hit,
            },
        ),
        (
            "answer.no_match",
            CtrlMsg::Answer {
                conn,
                req,
                answer: miss,
            },
        ),
        (
            "answer_bcast.match",
            CtrlMsg::AnswerBcast {
                conn,
                req,
                answer: hit,
            },
        ),
        (
            "answer_bcast.no_match",
            CtrlMsg::AnswerBcast {
                conn,
                req,
                answer: miss,
            },
        ),
        ("coalesced.bcast", coalesced(TreeRole::Bcast)),
        ("coalesced.help", coalesced(TreeRole::Help)),
        ("ack", CtrlMsg::Ack { seq: 0xFEED_BEEF }),
    ]
}

/// A plan with every optional part present.
fn full_plan() -> NodePlan {
    NodePlan {
        config_text: "E0 c0 /bin/e0 2\nI0 c0 /bin/i0 2\n#\nE0.r I0.m REG 0.25\n".into(),
        grid: (8, 8),
        exports: vec![ExportSpec {
            program: "E0".into(),
            region: 0,
            t0: 0.5,
            dt: 0.25,
            count: 12,
            compute: vec![0.01, 0.02],
        }],
        imports: vec![ImportSpec {
            program: "I0".into(),
            region: 0,
            t0: 1.0,
            dt: 0.5,
            count: 4,
            compute: 0.05,
            startup: 0.1,
        }],
        buddy_help: true,
        import_timeout_s: 5.0,
        time_scale: 0.2,
        verify_values: true,
        traces: vec![(0, 0, 0), (0, 1, 0)],
        chaos: Some(ChaosConfig {
            crash: Some(CrashFault {
                target: CrashTarget::Agent { prog: 1, rank: 0 },
                after_msgs: 5,
                restart_after: Some(0.6),
            }),
            loss_prob: 0.2,
            ..ChaosConfig::from_seed(17)
        }),
        fault: Some(NodeFault::SeverLink {
            prog: 0,
            peer: 1,
            after_tx: 3,
        }),
        hierarchical: true,
        wal_dir: Some("/tmp/wal-x".into()),
        restart: true,
    }
}

/// A report with stats, a trace of every event and reply kind, matches
/// and every kind of error.
fn full_report() -> NodeReport {
    let mut counters = CounterSnapshot {
        net_frames: 7,
        ..Default::default()
    };
    counters.ctrl_sent[1] = 3;
    let pending = |latest| TraceEvent::Request {
        x: ts(2.0),
        reply: ProcResponse::Pending { latest },
    };
    NodeReport {
        prog: 1,
        stats: vec![
            (
                0,
                vec![ExportStats {
                    requests: 4,
                    exports: 12,
                    memcpys: 3,
                    skips: 9,
                    unnecessary_by_request: vec![0, 1, 0, 2],
                    ..Default::default()
                }],
            ),
            (1, Vec::new()),
        ],
        traces: vec![(
            0,
            0,
            0,
            Trace::from_events(vec![
                TraceEvent::Export {
                    t: ts(1.5),
                    copied: true,
                },
                pending(None),
                pending(Some(ts(1.5))),
                TraceEvent::Request {
                    x: ts(2.5),
                    reply: ProcResponse::Match(ts(2.25)),
                },
                TraceEvent::Request {
                    x: ts(3.0),
                    reply: ProcResponse::NoMatch,
                },
                TraceEvent::BuddyHelp {
                    x: ts(2.0),
                    answer: RepAnswer::NoMatch,
                },
                TraceEvent::BuddyHelp {
                    x: ts(2.0),
                    answer: RepAnswer::Match(ts(1.75)),
                },
                TraceEvent::Remove {
                    freed: vec![ts(1.5), ts(1.75)],
                },
                TraceEvent::Send { m: ts(2.25) },
            ]),
        )],
        matches: vec![(0, vec![Some(1.5), None, Some(2.25)])],
        imports_done: vec![(1, 0, 4, None), (1, 1, 2, Some("import timed out".into()))],
        export_errors: vec![(0, 1, "process crashed: boom".into())],
        shutdown_error: Some("rep failed: x".into()),
        counters,
    }
}

/// Every pinned frame, in file order.
fn frames() -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    let mut put = |name: &str, bytes: Vec<u8>| out.push((name.to_string(), bytes));
    let (rep, proc_) = (
        Endpoint::Rep { prog: 1 },
        Endpoint::Proc { prog: 2, rank: 7 },
    );
    let ctrl = ctrl_msgs();
    for (name, msg) in &ctrl {
        put(
            &format!("ctrl.{name}"),
            wire::encode_frame(wire::KIND_CTRL, &wire::encode_ctrl(msg)),
        );
    }
    for (name, msg) in &ctrl {
        put(
            &format!("env.{name}"),
            codec::encode_ctrl_env(proc_, None, msg),
        );
    }
    let answer = ctrl[9].1;
    let meta = |ord| WireMeta {
        from: rep,
        seq: 42,
        ord,
    };
    put(
        "env.meta.seq",
        codec::encode_ctrl_env(proc_, Some(&meta(None)), &answer),
    );
    put(
        "env.meta.seq_ord",
        codec::encode_ctrl_env(rep, Some(&meta(Some(3))), &answer),
    );
    put("ack_env", codec::encode_ack_env(proc_, rep, 99));
    for (name, ord) in [("wal.delivered", None), ("wal.delivered.ord", Some(3))] {
        put(
            name,
            wal::encode_record(&WalRecord::Delivered {
                ep: rep,
                meta: meta(ord),
                msg: answer,
            }),
        );
    }
    put(
        "wal.app_export",
        wal::encode_record(&WalRecord::AppExport {
            ep: proc_,
            region: 2,
            ts: ts(0.5),
        }),
    );
    put(
        "hello",
        at_version_2(codec::encode_hello(codec::KIND_HELLO, "tok-1", 3)),
    );
    put(
        "mesh_hello",
        at_version_2(codec::encode_hello(codec::KIND_MESH_HELLO, "tok-1", 1)),
    );
    put("fatal", codec::encode_fatal("protocol version mismatch"));
    put("listening", codec::encode_listening("/tmp/couplink-0.sock"));
    put(
        "peers",
        codec::encode_peers(&["/tmp/a.sock".into(), "/tmp/b.sock".into()]),
    );
    for (name, kind) in [
        ("ready", codec::KIND_READY),
        ("go", codec::KIND_GO),
        ("app_done", codec::KIND_APP_DONE),
        ("drain", codec::KIND_DRAIN),
        ("mesh_bye", codec::KIND_MESH_BYE),
    ] {
        put(name, codec::encode_bare(kind));
    }
    let owned = WireRect {
        row0: 2,
        col0: 0,
        rows: 2,
        cols: 3,
    };
    let rect = WireRect { rows: 1, ..owned };
    let data: Vec<f64> = (0..6).map(|i| i as f64 * 0.5).collect();
    put(
        "payload",
        wire::encode_payload(ConnectionId(4), Rank(1), RequestId(11), rect, owned, &data),
    );
    put("plan", codec::encode_plan(&full_plan()));
    put(
        "plan.bare",
        codec::encode_plan(&NodePlan {
            chaos: None,
            fault: None,
            wal_dir: None,
            traces: Vec::new(),
            ..full_plan()
        }),
    );
    put("report", codec::encode_report(&full_report()));
    out
}

/// A hello carries the value of `RT_VERSION`, which moves with every
/// record layout; the hello's own layout never does. Its lines pin it with
/// the version field set to 2.
fn at_version_2(frame: Vec<u8>) -> Vec<u8> {
    let mut body = frame[wire::HEADER_LEN..].to_vec();
    assert_eq!(body[..4], codec::RT_VERSION.to_le_bytes(), "version first");
    body[..4].copy_from_slice(&2u32.to_le_bytes());
    wire::encode_frame(frame[3], &body)
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn every_frame_matches_the_golden_corpus() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden/wire.txt");
    let golden = std::fs::read_to_string(&path).unwrap_or_default();
    let golden: Vec<(&str, &str)> = golden
        .lines()
        .map(|l| l.split_once(' ').expect("`name hex` line"))
        .collect();
    let fresh = frames();
    let mut moved = Vec::new();
    for (name, bytes) in &fresh {
        let line = hex(bytes);
        if !golden.iter().any(|&(n, h)| n == name && h == line) {
            moved.push(format!("{name} {line}"));
        }
    }
    let names: Vec<&str> = fresh.iter().map(|(n, _)| n.as_str()).collect();
    let gone: Vec<&str> = golden
        .iter()
        .map(|&(n, _)| n)
        .filter(|n| !names.contains(n))
        .collect();
    assert!(
        moved.is_empty() && gone.is_empty() && golden.len() == fresh.len(),
        "{} of {} frames differ from {}; their bytes now:\n{}\nno longer encoded: {gone:?}",
        moved.len(),
        fresh.len(),
        path.display(),
        moved.join("\n"),
    );
}
