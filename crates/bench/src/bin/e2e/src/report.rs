//! The metric tables — names, units, direction, bounds, and which
//! end-to-end metric each layer metric should move — and the report built
//! from them. `BENCHMARK.json` at the repository root repeats these tables;
//! a unit test keeps the two identical.

use crate::adapter::json::Value;
use crate::stats::OverReps;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub what: &'static str,
}

/// Every workload reports every one of these, so each is defined on all
/// three runtimes: where the program's own driver issues the calls (the
/// socket nodes, the simulator) a call time is the run's wall per call of
/// that kind. The reported value is the median over the run's reps (a
/// simulator rep counts as the first quartile of its simulation walls). What
/// the issue listed as end-to-end but repeats exactly (the simulator's
/// virtual times) or is 0 on a clean run (`failed_frac`) is in
/// [`PER_LAYER`] under the same name: the driver of the benchmark contract
/// refuses a time that never moves and a metric that reads 0.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        what: "configuration text to every process handle ready (sockets: wall of the same plan with one step; DES: simulator built); median of the run's set-up batches",
    },
    EndToEnd {
        name: "imports_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
        what: "collective imports completed per steady-state wall second (DES: simulated imports of panel (d) per second of its simulation wall)",
    },
    EndToEnd {
        name: "import_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
        what: "median import() call time, importer ranks pooled (sockets: the run's wall per import; DES: panel (d)'s simulation wall per import)",
    },
    EndToEnd {
        name: "export_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
        what: "median export() call time, exporter ranks pooled (sockets: the run's wall per export of one rank; DES: panel (d)'s simulation wall per export of one rank)",
    },
    EndToEnd {
        name: "export_slow_mean_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
        what: "mean export() call time on the designated slow exporter rank, its compute sleep excluded: the paper's Figure 4 y-axis; a mean because the calls are copy-or-skip bimodal (sockets, DES: as export_p50_us)",
    },
    EndToEnd {
        name: "export_fast_mean_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
        what: "the same mean over the other exporter ranks: guards a buddy-help change that taxes the fast ranks (sockets, DES: as export_p50_us)",
    },
    EndToEnd {
        name: "payload_mb_per_s",
        unit: "MB/s",
        better: "higher",
        bound: 0.25,
        what: "matched bytes landed in importer arrays per steady-state wall second (DES: simulated bytes per wall second)",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
        what: "peak resident set of the largest process of the run (benchmark process, or a socket node)",
    },
];

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The end-to-end metric and workload this should move; `flat` names
    /// the bypass workload where the prediction is no change.
    pub moves: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const CTRL: &str =
    "import_p50_us, imports_per_s on ctrl_small and multirate_cycle; flat on bulk_mxn";
const BULK: &str = "import_p50_us, imports_per_s, payload_mb_per_s on bulk_mxn; export_slow_mean_us on fig4_pair; flat on ctrl_small";
const WIRE_BULK: &str =
    "imports_per_s, payload_mb_per_s on socket_bulk; flat on every in-process workload";
const WIRE_CTRL: &str = "imports_per_s on socket_ctrl; flat on every in-process workload";
const SETUP: &str = "setup_s";
const OVERHEAD: &str =
    "every wall-clock metric, as overhead; flat on the virtual metrics of fig4_des";
const CTRL_COUNT: &str = "import_p50_us on ctrl_small, imports_per_s on socket_ctrl";
const COPY_COUNT: &str = "export_slow_mean_us on fig4_pair, peak_rss_mb";
const FAULT: &str = "must be 0 on every workload";
const EXEC: &str = "import_p50_us, imports_per_s on ctrl_small; flat on socket throughput unless net.unattributed_us says the node's fabric is the bottleneck";
const DES: &str = "virtual_total_s, virtual_export_slow_ms on fig4_des; exact";
const NET_BULK: &str =
    "imports_per_s, payload_mb_per_s on socket_bulk; flat on in-process workloads";
const NET_CTRL: &str = "imports_per_s on socket_ctrl; flat on in-process workloads";
const QUALITY: &str = "quality of the measurement itself";

/// Layer = module. Replayed layer costs are measured on every workload at
/// that workload's sizes; counts read 0 where a layer is not on the path.
pub const PER_LAYER: [PerLayer; 81] = [
    pl("time.evaluate_ns", "ns", "lower", CTRL),
    pl("time.history_record_ns", "ns", "lower", CTRL),
    pl("layout.copy_from_gbps", "GB/s", "higher", BULK),
    pl("layout.copy_into_gbps", "GB/s", "higher", BULK),
    pl("layout.memcpy_ref_gbps", "GB/s", "higher", "machine reference for the two copies above; a change of the program cannot move it"),
    pl("layout.plan_build_us", "us", "lower", SETUP),
    pl("proto.export_buffer_ns", "ns", "lower", CTRL),
    pl("proto.export_skip_ns", "ns", "lower", "export_slow_mean_us on fig4_pair (skip path); flat on bulk_mxn"),
    pl("proto.on_request_ns", "ns", "lower", CTRL),
    pl("proto.on_buddy_help_ns", "ns", "lower", "export_slow_mean_us on fig4_pair; flat on ctrl_small"),
    pl("proto.rep_aggregate_ns", "ns", "lower", CTRL),
    pl("proto.imp_rep_ns", "ns", "lower", CTRL),
    pl("proto.wire.crc32_gbps", "GB/s", "higher", WIRE_BULK),
    pl("proto.wire.encode_payload_gbps", "GB/s", "higher", WIRE_BULK),
    pl("proto.wire.decode_payload_gbps", "GB/s", "higher", WIRE_BULK),
    pl("proto.wire.ctrl_codec_ns", "ns", "lower", WIRE_CTRL),
    pl("proto.wire.decoder_frames_per_s", "1/s", "higher", WIRE_CTRL),
    pl("config.parse_us", "us", "lower", "setup_s on multirate_cycle"),
    pl("core.session_build_ms", "ms", "lower", "setup_s on multirate_cycle"),
    pl("core.shutdown_ms", "ms", "lower", "tear-down, reported beside setup_s"),
    pl("metrics.record_ns", "ns", "lower", OVERHEAD),
    pl("metrics.snapshot_us", "us", "lower", OVERHEAD),
    pl("engine.ctrl_per_import", "count", "lower", CTRL_COUNT),
    pl("engine.ctrl_origin_per_import", "count", "lower", CTRL_COUNT),
    pl("engine.ctrl_relay_per_import", "count", "lower", CTRL_COUNT),
    pl("engine.transfers_per_import", "count", "lower", "payload_mb_per_s on bulk_mxn"),
    pl("engine.memcpy_paid_frac", "frac", "lower", COPY_COUNT),
    pl("engine.slow_memcpy_per_import", "count", "lower", COPY_COUNT),
    pl("engine.unnecessary_in_region", "count", "lower", COPY_COUNT),
    pl("engine.bytes_buffered_per_import", "B", "lower", COPY_COUNT),
    pl("engine.buffered_hwm", "count", "lower", "peak_rss_mb"),
    pl("engine.buffer_stalls", "count", "lower", FAULT),
    pl("engine.retransmits", "count", "lower", FAULT),
    pl("engine.timeouts", "count", "lower", FAULT),
    pl("engine.degraded_buffers", "count", "lower", FAULT),
    pl("engine.phase_export_busy_frac", "frac", "lower", "export_p50_us"),
    pl("engine.phase_import_busy_frac", "frac", "lower", "import_p50_us"),
    pl("engine.phase_ctrl_busy_frac", "frac", "lower", "import_p50_us on ctrl_small"),
    pl("engine.phase_transfer_busy_frac", "frac", "lower", "import_p50_us on bulk_mxn"),
    pl("threaded.import_p99_us", "us", "lower", "tail of import_p50_us; too unsteady for a bound"),
    pl("threaded.import_max_us", "us", "lower", "tail of import_p50_us; too unsteady for a bound"),
    pl("threaded.export_p99_us", "us", "lower", "tail of export_p50_us"),
    pl("threaded.tasks_polled_per_import", "count", "lower", EXEC),
    pl("threaded.poll_batch_mean", "count", "higher", EXEC),
    pl("threaded.worker_steal_per_import", "count", "lower", EXEC),
    pl("threaded.runq_depth_hwm", "count", "lower", EXEC),
    pl("threaded.queue_depth_hwm", "count", "lower", EXEC),
    pl("threaded.lock_wait_ns_per_import", "ns", "lower", EXEC),
    pl("threaded.ctrl_batches_per_import", "count", "lower", EXEC),
    pl("threaded.payload_allocs_per_import", "count", "lower", "export_p50_us on bulk_mxn, peak_rss_mb"),
    pl("threaded.fabric_build_ms", "ms", "lower", SETUP),
    pl("threaded.shutdown_ms", "ms", "lower", "tear-down, reported beside setup_s"),
    pl("threaded.unattributed_us", "us", "lower", "import_p50_us minus the replayed in-process layer costs: dispatch, wake-ups, queue wait"),
    pl("des.optimal_entry_iter_u32", "count", "lower", DES),
    pl("des.optimal_entry_iter_u16", "count", "lower", DES),
    pl("des.memcpy_skipped_slow", "count", "higher", DES),
    pl("des.ctrl_msgs", "count", "lower", DES),
    pl("des.virtual_ctrl_s", "sim_s", "lower", DES),
    pl("des.virtual_transfer_s", "sim_s", "lower", DES),
    pl("net.bootstrap_ms", "ms", "lower", "setup_s on socket_bulk and socket_ctrl"),
    pl("net.frames_per_import", "count", "lower", NET_CTRL),
    pl("net.bytes_per_import", "B", "lower", NET_BULK),
    pl("net.wire_overhead_frac", "frac", "lower", NET_BULK),
    pl("net.syscalls_per_frame", "count", "lower", NET_CTRL),
    pl("net.writev_frames_frac", "frac", "higher", NET_CTRL),
    pl("net.pool_hit_frac", "frac", "higher", NET_CTRL),
    pl("net.rx_buf_hwm_kb", "kB", "lower", "peak_rss_mb on socket_bulk"),
    pl("net.codec_rejects", "count", "lower", FAULT),
    pl("net.reconnects", "count", "lower", FAULT),
    pl("net.link_writer_gbps", "GB/s", "higher", NET_BULK),
    pl("net.link_writer_frames_per_s", "1/s", "higher", NET_CTRL),
    pl("net.bufpool_cycle_ns", "ns", "lower", NET_CTRL),
    pl("net.bufpool_replay_hit_frac", "frac", "higher", NET_CTRL),
    pl("net.unattributed_us", "us", "lower", "per-import wall minus every replayed layer cost, wire layers included: what the node's fabric and scheduling cost"),
    pl("bench.trace_overhead_frac", "frac", "lower", QUALITY),
    pl("bench.gate_wait_frac", "frac", "lower", "share of exporter driver time blocked in the credit gate: says who the bottleneck is"),
    pl("bench.rep_spread_frac", "frac", "lower", QUALITY),
    pl("virtual_total_s", "sim_s", "lower", "DES virtual duration, panel (d); exact"),
    pl("virtual_export_slow_ms", "sim_ms", "lower", "mean virtual export time of the slow rank, panel (d); exact"),
    pl("sim_wall_ms", "ms", "lower", "median wall of one panel-(d) simulation: the simulator's own speed"),
    pl("failed_frac", "frac", "lower", "failed / attempted; must be 0 on every workload"),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// One metric value of one pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Min, max and count over the reps it is the median of, where it is one.
    pub reps: Option<OverReps>,
}

/// What one pass of one workload produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Pass {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    pub runtime_s: f64,
}

impl Pass {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one-line result the benchmark contract asks for.
    pub fn contract_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    finite(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    pub fn to_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("value".to_string(), Value::from(finite(m.value))),
                    ("unit".to_string(), Value::from(m.unit)),
                ];
                if let Some(r) = m.reps {
                    for (k, v) in [
                        ("median", r.median),
                        ("min", r.min),
                        ("max", r.max),
                        ("q1", r.q1),
                        ("q3", r.q3),
                    ] {
                        fields.push((k.to_string(), Value::from(finite(v))));
                    }
                    fields.push(("reps".to_string(), Value::from(r.reps as u64)));
                }
                (m.name.to_string(), Value::Object(fields))
            })
            .collect();
        Value::Object(vec![
            ("workload".to_string(), Value::from(self.workload.as_str())),
            ("seed".to_string(), Value::from(self.seed)),
            ("traced".to_string(), Value::Bool(self.traced)),
            ("correct".to_string(), Value::Bool(self.correct())),
            ("attempted".to_string(), Value::from(self.attempted)),
            ("failed".to_string(), Value::from(self.failed)),
            (
                "errors".to_string(),
                Value::Array(
                    self.errors
                        .iter()
                        .map(|e| Value::from(e.as_str()))
                        .collect(),
                ),
            ),
            ("runtime_s".to_string(), Value::from(finite(self.runtime_s))),
            ("metrics".to_string(), Value::Object(metrics)),
        ])
    }

    /// Reads back what [`Pass::to_json`] wrote (or the contract line, which
    /// carries a subset). Metric names and units are matched to the tables.
    pub fn from_json(v: &Value, workload: &str, seed: u64, traced: bool) -> Result<Pass, String> {
        let num = |k: &str| {
            v.get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("missing {k}"))
        };
        let metrics_obj = v
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or("missing metrics")?;
        let mut metrics = Vec::new();
        for (name, m) in metrics_obj {
            let (name, unit) = END_TO_END
                .iter()
                .map(|e| (e.name, e.unit))
                .chain(PER_LAYER.iter().map(|p| (p.name, p.unit)))
                .find(|(n, _)| n == name)
                .ok_or_else(|| format!("unknown metric {name}"))?;
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or("metric without value")?;
            if m.get("unit").and_then(Value::as_str) != Some(unit) {
                return Err(format!("{name}: unit differs from the table's {unit}"));
            }
            let field = |k: &str| m.get(k).and_then(Value::as_f64);
            let reps = match m.get("reps").and_then(Value::as_u64) {
                Some(n) => Some(OverReps {
                    median: field("median").ok_or("median")?,
                    min: field("min").ok_or("min")?,
                    max: field("max").ok_or("max")?,
                    q1: field("q1").ok_or("q1")?,
                    q3: field("q3").ok_or("q3")?,
                    reps: n as usize,
                }),
                None => None,
            };
            metrics.push(Metric {
                name,
                unit,
                value,
                reps,
            });
        }
        Ok(Pass {
            workload: workload.to_string(),
            seed,
            traced,
            attempted: num("attempted")?,
            failed: num("failed")?,
            errors: v
                .get("errors")
                .and_then(Value::as_array)
                .map(|a| {
                    a.iter()
                        .filter_map(|e| e.as_str().map(String::from))
                        .collect()
                })
                .unwrap_or_default(),
            metrics,
            runtime_s: v.get("runtime_s").and_then(Value::as_f64).unwrap_or(0.0),
        })
    }
}

fn finite(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

/// Where and on what the numbers were taken.
#[derive(Debug, Clone, PartialEq)]
pub struct Stamp {
    pub commit: String,
    pub nproc: usize,
    pub rustc: String,
    pub llc: String,
}

impl Stamp {
    pub fn collect() -> Stamp {
        let run = |cmd: &str, args: &[&str]| {
            std::process::Command::new(cmd)
                .args(args)
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
                .filter(|s| !s.is_empty())
                .unwrap_or_else(|| "unknown".to_string())
        };
        // The last-level cache is the highest cache index cpu0 lists.
        let llc = (0..8)
            .rev()
            .find_map(|i| {
                std::fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size"))
                    .ok()
            })
            .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
        Stamp {
            commit: run("git", &["rev-parse", "--short", "HEAD"]),
            nproc: std::thread::available_parallelism().map_or(0, usize::from),
            rustc: run("rustc", &["--version"]),
            llc,
        }
    }

    pub fn to_json(&self) -> Value {
        Value::Object(vec![
            ("commit".to_string(), Value::from(self.commit.as_str())),
            ("nproc".to_string(), Value::from(self.nproc as u64)),
            ("rustc".to_string(), Value::from(self.rustc.as_str())),
            ("llc".to_string(), Value::from(self.llc.as_str())),
        ])
    }
}

/// `BENCHMARK.json`, from the tables: what the driver of the benchmark
/// contract reads. The test below keeps the committed file equal to this.
#[cfg(test)]
fn benchmark_json() -> String {
    let obj = |fields: Vec<(&str, Value)>| {
        Value::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    };
    let strings = |items: &[&str]| Value::Array(items.iter().map(|s| Value::from(*s)).collect());
    let dir = "crates/bench/src/bin/e2e";
    let run = format!("{dir}/run.sh");
    crate::adapter::json::emit(&obj(vec![
        ("command", strings(&["bash", &run])),
        ("paths", strings(&[dir])),
        ("run_seconds", Value::from(10u64)),
        (
            "workloads",
            Value::Array(
                crate::workloads::NAMES
                    .iter()
                    .zip(crate::workloads::WHY)
                    .map(|(name, why)| {
                        obj(vec![
                            ("name", Value::from(*name)),
                            ("why", Value::from(why)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", m.name.into()),
                            ("unit", m.unit.into()),
                            ("better", m.better.into()),
                            ("bound", m.bound.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", m.name.into()),
                            ("unit", m.unit.into()),
                            ("better", m.better.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::json;

    fn sample() -> Pass {
        Pass {
            workload: "ctrl_small".into(),
            seed: 7,
            traced: false,
            attempted: 80_000,
            failed: 0,
            errors: vec!["none \"quoted\"".into()],
            metrics: vec![
                Metric {
                    name: "imports_per_s",
                    unit: "1/s",
                    value: 17_557.912_5,
                    reps: Some(OverReps {
                        median: 17_557.912_5,
                        min: 14_082.0,
                        max: 17_900.25,
                        q1: 16_000.5,
                        q3: 17_700.0,
                        reps: 9,
                    }),
                },
                Metric {
                    name: "setup_s",
                    unit: "s",
                    value: 0.000_231_5,
                    reps: None,
                },
            ],
            runtime_s: 12.5,
        }
    }

    #[test]
    fn report_round_trips_through_the_programs_json() {
        let pass = sample();
        let text = json::emit(&pass.to_json());
        let back = Pass::from_json(&json::parse(&text).expect("parses"), "ctrl_small", 7, false)
            .expect("reads");
        assert_eq!(back, pass);
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let line = sample().contract_line();
        let v = json::parse(&line).expect("one JSON object");
        let keys: Vec<&str> = v
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("setup_s");
        assert_eq!(m.get("value").and_then(Value::as_f64), Some(0.000_231_5));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some("s"));
    }

    #[test]
    fn names_are_unique_and_within_the_contracts_limits() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(crate::workloads::NAMES)
            .collect();
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for n in &names {
            assert!(
                ok(n, "_.-", 64) && n.chars().next().expect("non-empty").is_ascii_alphanumeric(),
                "{n}"
            );
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(ok(unit, "_/%.-", 16), "{unit}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    /// `BENCHMARK.json` is what the driver reads; these tables are what the
    /// binary prints. They must say the same thing. After a change to the
    /// tables, copy the text this prints over the file.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let expected = benchmark_json();
        assert!(
            committed.trim_end() == expected.trim_end(),
            "BENCHMARK.json differs from the tables; it should read:\n{expected}"
        );
    }
}
