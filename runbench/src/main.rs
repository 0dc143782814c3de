//! End-to-end and per-layer benchmark of the in-process Moonshot cluster.
//!
//! ```text
//! runbench --workload <lan-paced|lan-saturated|wan-crash> --seed <n>
//!          --seconds <window> --trace <0|1> [--out <dir>]
//! ```
//!
//! One run launches `moonshot_node::Cluster` (Pipelined Moonshot, staged
//! reader-thread verification, digest-only dissemination, a durable ledger
//! per node in a fresh data dir) with no built-in clients, and drives it
//! from this process's main thread through `Mempool::submit_from`. Phases:
//! setup (the cluster is launched several times; `setup_s` is the median
//! launch → first quorum commit), warm-up, the measurement window, a drain
//! grace with no new load, stop, and the output checks.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` records spans
//! around every call the benchmark makes into a layer, replays each layer's
//! public functions with inputs shaped like the workload, and also prints
//! the per-layer metrics and span self times, and writes the spans to
//! `<out>/spans-<workload>-<seed>.jsonl`. (`run.py` runs both and prints
//! the traced-minus-untraced difference as the tracing overhead.)
//!
//! Human-readable lines go first; the last line on stdout is one JSON
//! object with `correct`, `attempted` (txs due in the window), `failed`
//! (of those, refused by admission on an open loop) and every metric. The
//! exit code is nonzero when any output check fails.

mod account;
mod generator;
mod procfs;
mod replay;
mod spans;
mod stats;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use moonshot_node::{Cluster, ClusterSpec, LoadSpec, ProtocolChoice, ShapeMatrix, VerifyMode};
use moonshot_telemetry::json::JsonObject;
use moonshot_types::time::SimDuration;
use moonshot_types::NodeId;

use account::Timing;
use generator::Generator;
use procfs::CpuSampler;
use spans::Tracer;
use stats::{longest_gap, median, percentile};

/// One benchmark workload.
#[derive(Debug)]
struct Workload {
    name: &'static str,
    n: usize,
    delta_ms: u64,
    /// Table II one-way delays between the nodes (one node per region).
    wan: bool,
    batch_bytes: usize,
    tx_bytes: usize,
    /// Open-loop rate, tx/s; `None` saturates admission.
    rate: Option<f64>,
    /// Node killed at ⅓ of the window and restarted from its data dir at ⅔.
    crash: Option<u16>,
    warmup: Duration,
    /// Grace after the window for due txs to commit, with no new load.
    drain: Duration,
    /// Launches per run; `setup_s` is their median. A loopback launch takes
    /// 6–17 ms, spread wide enough that the median needs ~30 of them to
    /// repeat within a few percent; a shaped one repeats within 1 %.
    setups: usize,
    /// Upper bound on trace records one node emits per second of load; sizes
    /// the per-node trace rings so that none overflows.
    records_per_node_s: usize,
}

const WORKLOADS: [Workload; 3] = [
    // Latency set by the per-block critical path: sigverify, the driver
    // step, WAL fdatasync before each vote, small-frame I/O.
    Workload {
        name: "lan-paced",
        n: 4,
        delta_ms: 50,
        wan: false,
        batch_bytes: 18_000,
        tx_bytes: 180,
        rate: Some(2_000.0),
        crash: None,
        warmup: Duration::from_secs(1),
        drain: Duration::from_secs(2),
        setups: 31,
        records_per_node_s: 40_000,
    },
    // Capacity set by per-byte work: ingest hash, seal + digest, push
    // re-hash on the n−1 receivers, wire and reactor byte movement.
    Workload {
        name: "lan-saturated",
        n: 4,
        delta_ms: 50,
        wan: false,
        batch_bytes: 180_000,
        tx_bytes: 1_800,
        rate: None,
        crash: None,
        warmup: Duration::from_secs(1),
        drain: Duration::from_secs(5),
        setups: 31,
        records_per_node_s: 20_000,
    },
    // Latency set by link delay; exercises timeouts, TCs, ledger recovery
    // and block sync on 90 shaped links.
    Workload {
        name: "wan-crash",
        n: 10,
        delta_ms: 250,
        wan: true,
        batch_bytes: 18_000,
        tx_bytes: 180,
        rate: Some(1_000.0),
        crash: Some(3),
        warmup: Duration::from_secs(2),
        drain: Duration::from_secs(5),
        setups: 11,
        records_per_node_s: 8_000,
    },
];

/// Longest a launch may take to reach its first quorum commit.
const SETUP_TIMEOUT: Duration = Duration::from_secs(60);
/// How often the CPU sampler reads `/proc/self/task` during the window.
const CPU_SAMPLE_EVERY: Duration = Duration::from_millis(100);

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| -> Result<String, String> {
        let i = args
            .iter()
            .position(|a| a == name)
            .ok_or(format!("missing {name}"))?;
        args.get(i + 1)
            .cloned()
            .ok_or(format!("{name} needs a value"))
    };
    let name = value("--workload")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or(format!("unknown workload {name}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("bad --seed: {e}"))?;
    let seconds: u64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("bad --seconds: {e}"))?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be in 1..=600".into());
    }
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    let out = value("--out")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from(".bench_out"));
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        out,
    })
}

/// A named metric value with its unit and, for percentiles, sample count.
#[derive(Clone, Debug)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: Option<u64>,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        samples: None,
    }
}

/// p50 and p99 of sorted µs samples, in `scale`-divided units.
fn pct_metrics(prefix: &str, sorted_us: &[u64], scale: f64, unit: &'static str) -> Vec<Metric> {
    [("p50", 0.50), ("p99", 0.99)]
        .iter()
        .map(|(tag, q)| Metric {
            name: format!("{prefix}_{tag}_{unit}"),
            value: percentile(sorted_us, *q)
                .map(|v| v as f64 / scale)
                .unwrap_or(f64::NAN),
            unit,
            samples: Some(sorted_us.len() as u64),
        })
        .collect()
}

/// What one cluster run produced.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    e2e: Vec<Metric>,
    /// Per-layer metrics the cluster run itself yields (counters, CPU).
    layer: Vec<Metric>,
    tracer: Tracer,
}

fn spec_for(w: &Workload, data_dir: PathBuf) -> ClusterSpec {
    let mut spec = ClusterSpec::new(w.n, ProtocolChoice::Pipelined);
    spec.delta = SimDuration::from_millis(w.delta_ms);
    spec.verify = VerifyMode::Reader;
    spec.data_dir = Some(data_dir);
    if w.wan {
        spec.shape = Some(Arc::new(ShapeMatrix::table2(w.n)));
    }
    let mut load = LoadSpec::digest(w.batch_bytes).without_clients();
    // One shard per pool: with a single client the assembler then drains in
    // admission order, which lets the accounting rebuild every committed
    // batch (see `account`).
    load.mempool.shards = 1;
    spec.load = Some(load);
    spec
}

fn wait_first_commit(cluster: &Cluster) -> Result<(), String> {
    let deadline = Instant::now() + SETUP_TIMEOUT;
    while cluster.quorum_committed_height() == 0 {
        if Instant::now() > deadline {
            return Err(format!(
                "no quorum commit within {SETUP_TIMEOUT:?} of launch"
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(())
}

fn run(args: &Args, traced: bool) -> Result<RunResult, String> {
    let w = args.workload;
    let data_root = args.out.join(format!(
        "data-{}-{}-{}",
        w.name,
        args.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&data_root);
    procfs::reset_peak_rss();
    let mut tr = Tracer::new(traced);
    let root = tr.open("workload");

    // Setup: launch → first quorum commit, several times, each stopped
    // again. These launches keep the runtime's default trace ring; the
    // measured cluster's ring is sized to the run, and allocating it would
    // add milliseconds to every launch.
    let phase = tr.open("setup");
    let mut setups = Vec::new();
    for k in 0..w.setups {
        let dir = data_root.join(format!("launch-{k}"));
        let spec = spec_for(w, dir.clone());
        let t0 = Instant::now();
        let cluster = tr
            .span("launch", || Cluster::launch(spec))
            .map_err(|e| format!("launch failed: {e}"))?;
        wait_first_commit(&cluster)?;
        setups.push(t0.elapsed().as_secs_f64());
        tr.span("stop", || cluster.stop());
        let _ = std::fs::remove_dir_all(dir);
    }
    // The measured cluster's ring holds its setup, the load phases, the
    // drain and the stop; 10 s covers setup and stop with room to spare.
    let loaded_s = (w.warmup + w.drain).as_secs() as usize + args.seconds as usize + 10;
    let trace_capacity = w.records_per_node_s * loaded_s;
    let mut spec = spec_for(w, data_root.join("run"));
    spec.trace_capacity = trace_capacity;
    let mut cluster = tr
        .span("launch", || Cluster::launch(spec))
        .map_err(|e| format!("launch failed: {e}"))?;
    wait_first_commit(&cluster)?;
    tr.close(phase);

    let pools = cluster.mempools().to_vec();
    let epoch = cluster.epoch();
    let now_us = || epoch.elapsed().as_micros() as u64;
    let warm_start = now_us();
    let w0 = warm_start + w.warmup.as_micros() as u64;
    let w1 = w0 + args.seconds * 1_000_000;
    let drain_end = w1 + w.drain.as_micros() as u64;
    let kill_at = w0 + (w1 - w0) / 3;
    let restart_at = w0 + 2 * (w1 - w0) / 3;
    let mut generator = Generator::new(w.n, args.seed, w.tx_bytes, w.rate, warm_start);
    let mut live = vec![true; w.n];
    let mut killed_at: Option<u64> = None;
    let mut restart_s: Option<f64> = None;
    let mut restarted_at: Option<(Instant, u64)> = None;
    let mut catchup_s: Option<f64> = None;
    let mut cpu: Option<CpuSampler> = None;
    let mut last_cpu_sample = Instant::now();

    let mut phase = tr.open("warm-up");
    loop {
        let t = now_us();
        if t >= w1 {
            break;
        }
        if cpu.is_none() && t >= w0 {
            tr.close(phase);
            phase = tr.open("window");
            cpu = Some(CpuSampler::start());
            last_cpu_sample = Instant::now();
        }
        if let Some(victim) = w.crash {
            let id = NodeId(victim);
            if killed_at.is_none() && t >= kill_at {
                if let Some(c) = cpu.as_mut() {
                    c.sample();
                }
                tr.span("kill", || cluster.kill(id));
                live[victim as usize] = false;
                killed_at = Some(t);
            }
            if killed_at.is_some() && restart_s.is_none() && t >= restart_at {
                let target = cluster.quorum_committed_height();
                let t0 = Instant::now();
                tr.span("restart", || cluster.restart(id))
                    .map_err(|e| format!("restart of node {victim} failed: {e}"))?;
                restart_s = Some(t0.elapsed().as_secs_f64());
                restarted_at = Some((t0, target));
                live[victim as usize] = true;
            }
            if let (Some((t0, target)), None) = (restarted_at, catchup_s) {
                if cluster.committed_heights()[victim as usize] >= target {
                    catchup_s = Some(t0.elapsed().as_secs_f64());
                }
            }
        }
        if let Some(c) = cpu.as_mut() {
            if last_cpu_sample.elapsed() >= CPU_SAMPLE_EVERY {
                c.sample();
                last_cpu_sample = Instant::now();
            }
        }
        let pause = generator.pump(&pools, &live, epoch, &mut tr);
        if !pause.is_zero() {
            std::thread::sleep(pause);
        }
    }
    let mut cpu = cpu.ok_or("window never started")?;
    cpu.finish();
    tr.close(phase);

    let phase = tr.open("drain");
    while now_us() < drain_end {
        if let (Some(victim), Some((t0, target)), None) = (w.crash, restarted_at, catchup_s) {
            if cluster.committed_heights()[victim as usize] >= target {
                catchup_s = Some(t0.elapsed().as_secs_f64());
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    tr.close(phase);

    let phase = tr.open("stop");
    let report = tr.span("stop", || cluster.stop());
    tr.close(phase);

    let phase = tr.open("check");
    let counters: Vec<_> = pools.iter().map(|p| p.counters()).collect();
    let timing = Timing {
        window_start_us: w0,
        window_end_us: w1,
    };
    let outcome = account::account(
        &report,
        &generator,
        &counters,
        w.rate.is_some(),
        timing,
        &mut tr,
    );
    tr.close(phase);
    let replayed = if traced {
        let phase = tr.open("replay");
        let shape = replay::Shape {
            n: w.n,
            tx_bytes: w.tx_bytes,
            batch_bytes: (outcome.mean_batch_bytes.round() as usize).max(w.tx_bytes + 4),
            refs_per_block: (outcome.mean_refs_per_block.round() as usize).max(1),
            ledger_dir: data_root.join("replay-ledger"),
        };
        let r = replay::replay(&shape, &mut tr).map_err(|e| format!("replay failed: {e}"))?;
        tr.close(phase);
        r
    } else {
        Vec::new()
    };
    tr.close(root);
    let _ = std::fs::remove_dir_all(&data_root);

    let mut checks_ok = outcome.checks.iter().all(|c| c.ok);
    let window_s = args.seconds as f64;
    let process_s = cpu.process_s();
    let groups = cpu.groups_s();
    let group_sum: f64 = groups.values().sum();
    let attribution_ok = (group_sum - process_s).abs() <= 0.05 * process_s;
    if !attribution_ok {
        checks_ok = false;
    }
    println!(
        "setup {} launch to first quorum commit, s: {setups:?}",
        w.name
    );
    println!(
        "trace {}: {} records over {} nodes, ring capacity {trace_capacity} per node",
        w.name,
        report.records.len(),
        w.n
    );
    println!(
        "check {} cpu_attribution: threads {group_sum:.2} s vs process {process_s:.2} s",
        if attribution_ok { "ok  " } else { "FAIL" }
    );

    let mut e2e = vec![Metric {
        name: "setup_s".into(),
        value: median(&setups),
        unit: "s",
        samples: Some(setups.len() as u64),
    }];
    let window_blocks = outcome
        .quorum_commits
        .iter()
        .filter(|(t, _)| (w0..w1).contains(t));
    let window_mb = window_blocks.clone().map(|&(_, b)| b).sum::<u64>() as f64 / 1e6;
    e2e.push(metric("goodput_MBps", window_mb / window_s, "MBps"));
    e2e.extend(pct_metrics("tx", &outcome.tx_latency_us, 1e3, "ms"));
    e2e.extend(pct_metrics("commit", &outcome.commit_latency_us, 1e3, "ms"));
    e2e.push(metric(
        "blocks_per_s",
        window_blocks.count() as f64 / window_s,
        "1/s",
    ));
    e2e.push(Metric {
        name: "tx_failed_ratio".into(),
        value: if outcome.due > 0 {
            outcome.failed as f64 / outcome.due as f64
        } else {
            1.0
        },
        unit: "ratio",
        samples: Some(outcome.due),
    });
    e2e.push(metric(
        "cpu_ms_per_MB",
        process_s * 1e3 / window_mb,
        "ms/MB",
    ));
    e2e.push(metric("peak_rss_mb", procfs::peak_rss_mb(), "MiB"));
    // Time without service: from the kill on the crash workload, over the
    // whole window on the others.
    let commit_times: Vec<u64> = outcome.quorum_commits.iter().map(|&(t, _)| t).collect();
    let outage_us = longest_gap(&commit_times, killed_at.unwrap_or(w0), w1);
    e2e.push(metric("outage_s", outage_us as f64 / 1e6, "s"));

    // Per-layer figures the cluster run itself yields.
    let sum = |name: &str| -> u64 { report.reports.iter().map(|r| r.metrics.counter(name)).sum() };
    // The shared network pool's counters are process-wide: every node
    // reports the same value.
    let pool_max = |name: &str| -> u64 {
        report
            .reports
            .iter()
            .map(|r| r.metrics.counter(name))
            .max()
            .unwrap_or(0)
    };
    let per_commit = |v: u64| v as f64 / outcome.quorum_commits.len().max(1) as f64;
    let ratio = |a: u64, b: u64| if b > 0 { a as f64 / b as f64 } else { 0.0 };
    let submitted: u64 = counters.iter().map(|c| c.submitted).sum();
    let rejected: u64 = counters.iter().map(|c| c.rejected).sum();
    let mut layer = vec![
        metric(
            "mempool.admit_reject_ratio",
            ratio(rejected, submitted),
            "ratio",
        ),
        metric("dissem.evicted", sum("dissem.evicted") as f64, "count"),
        metric(
            "dissem.votes_gated",
            sum("dissem.votes_gated") as f64,
            "count",
        ),
        metric("dissem.fetches", sum("dissem.fetches") as f64, "count"),
        metric(
            "dissem.hash_passes_per_committed_byte",
            ratio(
                submitted * w.tx_bytes as u64 + outcome.stored_bytes,
                outcome.committed_bytes,
            ),
            "ratio",
        ),
        metric(
            "netpool.bytes_per_commit",
            per_commit(sum("net.total.bytes_out")),
            "B",
        ),
        metric(
            "netpool.frames_per_commit",
            per_commit(sum("net.total.frames_out")),
            "count",
        ),
        metric(
            "netpool.frames_per_wakeup",
            ratio(
                pool_max("reactor.frames_processed"),
                pool_max("reactor.loop_wakeups"),
            ),
            "ratio",
        ),
        metric(
            "crypto.batch_verify_mean",
            ratio(
                sum("crypto.batch_verify_items"),
                sum("crypto.batch_verify_calls"),
            ),
            "count",
        ),
        metric(
            "crypto.cache_hit_ratio",
            ratio(
                sum("verify.cache_hits"),
                sum("verify.cache_hits") + sum("verify.cache_misses"),
            ),
            "ratio",
        ),
        metric(
            "driver.msgs_per_commit",
            per_commit(sum("driver.messages_handled")),
            "count",
        ),
        metric(
            "consensus.timeouts_fired",
            outcome.timeouts_fired as f64,
            "count",
        ),
        metric("consensus.tcs_formed", outcome.tcs_formed as f64, "count"),
        // The two ways an admitted tx goes uncommitted; with refusals they
        // make up `tx_failed_ratio`.
        metric(
            "mempool.lost_tx_ratio",
            ratio(
                outcome.lost_after_proposal + outcome.never_proposed,
                outcome.due,
            ),
            "ratio",
        ),
        metric(
            "dissem.unavailable_tx_ratio",
            ratio(outcome.in_unavailable_batches, outcome.due),
            "ratio",
        ),
        metric(
            "ledger.wal_records_per_commit",
            per_commit(sum("ledger.wal_records")),
            "count",
        ),
    ];
    for (name, v) in [
        ("stage.propose_wait", &outcome.propose_wait_us),
        ("stage.vote_to_qc", &outcome.vote_to_qc_us),
        ("stage.qc_to_commit", &outcome.qc_to_commit_us),
    ] {
        layer.push(pct_metrics(name, v, 1e3, "ms").swap_remove(0));
    }
    layer.push(pct_metrics("mempool.queue_delay", &outcome.queue_us, 1e3, "ms").swap_remove(1));
    let mut fsync = moonshot_telemetry::Histogram::for_latency_us();
    for r in &report.reports {
        if let Some(h) = r.metrics.histogram("ledger.fsync_us") {
            fsync.merge(h);
        }
    }
    layer.push(metric(
        "ledger.fsync_mean_us",
        fsync.mean().unwrap_or(f64::NAN),
        "us",
    ));
    // The ledger keeps fsync times in a 1 ms-bucket histogram; these two
    // are bucket upper edges, clamped to the exact min and max.
    layer.push(metric(
        "ledger.fsync_p50_us",
        fsync.quantile(0.50).unwrap_or(0) as f64,
        "us",
    ));
    layer.push(metric(
        "ledger.fsync_p99_us",
        fsync.quantile(0.99).unwrap_or(0) as f64,
        "us",
    ));
    if w.crash.is_some() {
        layer.push(metric(
            "ledger.restart_s",
            restart_s.unwrap_or(f64::NAN),
            "s",
        ));
        layer.push(metric(
            "ledger.catchup_s",
            catchup_s.unwrap_or(f64::NAN),
            "s",
        ));
        let resync: u64 = report.restarts.iter().map(|r| r.resync_blocks).sum();
        layer.push(metric("ledger.resync_blocks", resync as f64, "count"));
        if catchup_s.is_none() {
            println!("check FAIL restarted_node_caught_up: never reached the cluster height");
            checks_ok = false;
        }
    }
    let late: Vec<u64> = {
        let mut v: Vec<u64> = generator
            .txs
            .iter()
            .filter(|t| (w0..w1).contains(&t.due_us))
            .map(|t| t.late_us)
            .collect();
        v.sort_unstable();
        v
    };
    layer.extend(
        pct_metrics("gen.late", &late, 1e3, "ms")
            .into_iter()
            .skip(1),
    );
    if traced {
        let mut submit_ns = generator.submit_ns.clone();
        submit_ns.sort_unstable();
        layer.extend(pct_metrics("mempool.submit", &submit_ns, 1.0, "ns"));
    }
    layer.extend(
        replayed
            .into_iter()
            .map(|(name, v, unit)| metric(name, v, unit)),
    );
    for (g, s) in &groups {
        layer.push(metric(format!("cpu.{g}"), s * 1e3 / window_s, "ms/s"));
    }
    layer.push(metric(
        "cpu.unattributed",
        (process_s - group_sum) * 1e3 / window_s,
        "ms/s",
    ));

    for c in &outcome.checks {
        println!(
            "check {} {}: {}",
            if c.ok { "ok  " } else { "FAIL" },
            c.name,
            c.detail
        );
    }
    println!(
        "accounting: {} due, {} failed ({} refused, {} in batches committed unavailable, \
         {} in proposals that never committed, {} never proposed; by node {:?}), \
         {} unavailable batches ({} records), dissem.evicted={}",
        outcome.due,
        outcome.failed,
        outcome.refused,
        outcome.in_unavailable_batches,
        outcome.lost_after_proposal,
        outcome.never_proposed,
        outcome.failed_by_node,
        outcome.unavailable_batches,
        outcome.unavailable_records,
        sum("dissem.evicted")
    );
    // An operation is the submission of a due tx; it fails when admission
    // refuses it on an open loop. Admitted txs that never commit are a
    // measured outcome (`tx_failed_ratio`), not a failed submission.
    Ok(RunResult {
        correct: checks_ok,
        attempted: outcome.due,
        failed: outcome.refused,
        e2e,
        layer,
        tracer: tr,
    })
}

/// The layer a span's self time is charged to.
fn layer_of(span: &str) -> &'static str {
    match span {
        "submit_from" | "replay.mempool" => "mempool",
        "replay.dissem" => "dissem",
        "replay.wire" => "wire",
        "replay.netpool" => "netpool",
        "replay.crypto" => "crypto",
        "replay.ledger" | "restart" => "ledger",
        "launch" | "stop" | "kill" => "node",
        "check_invariants" => "telemetry",
        _ => "benchmark",
    }
}

fn print_metrics(workload: &str, kind: &str, metrics: &[Metric]) {
    for m in metrics {
        let samples = m
            .samples
            .map(|s| format!(" (samples={s})"))
            .unwrap_or_default();
        println!(
            "{kind} {workload} {} = {} {}{samples}",
            m.name, m.value, m.unit
        );
    }
}

fn host_record(args: &Args) -> String {
    let (cores, model) = procfs::host();
    let mut o = JsonObject::new();
    o.field_str("workload", args.workload.name);
    o.field_u64("seed", args.seed);
    o.field_u64("seconds", args.seconds);
    o.field_str(
        "git_rev",
        &std::env::var("RUNBENCH_GIT_REV").unwrap_or_else(|_| "unknown".into()),
    );
    o.field_str(
        "source_digest",
        &std::env::var("RUNBENCH_SOURCE_DIGEST").unwrap_or_else(|_| "unknown".into()),
    );
    o.field_u64("host_cores", cores as u64);
    o.field_str("cpu_model", &model);
    o.field_str(
        "profile",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    o.field_bool("generator_in_process", true);
    o.finish()
}

fn write_spans(path: &Path, tracer: &Tracer) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in tracer.spans().iter().enumerate() {
        let mut o = JsonObject::new();
        o.field_u64("id", i as u64);
        o.field_str("name", s.name);
        o.field_u64("start_ns", s.start_ns);
        o.field_u64("end_ns", s.end_ns);
        match s.parent {
            Some(p) => o.field_u64("parent", p as u64),
            None => o.field_raw("parent", "null"),
        };
        writeln!(f, "{}", o.finish())?;
    }
    f.flush()
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut m = JsonObject::new();
    for x in metrics {
        let mut v = JsonObject::new();
        v.field_f64("value", x.value);
        v.field_str("unit", x.unit);
        m.field_raw(&x.name, &v.finish());
    }
    let mut o = JsonObject::new();
    o.field_bool("correct", correct);
    o.field_u64("attempted", attempted);
    o.field_u64("failed", failed);
    o.field_raw("metrics", &m.finish());
    o.finish()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("error: cannot create {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    let name = args.workload.name;
    println!("host {}", host_record(&args));
    let result = match run(&args, args.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_metrics(name, "e2e", &result.e2e);
    let mut metrics = result.e2e.clone();
    if args.trace {
        print_metrics(name, "layer", &result.layer);
        metrics.extend(result.layer.iter().cloned());
        for (span, (count, self_ns)) in spans::self_time_by_name(result.tracer.spans()) {
            println!(
                "self {name} {span} [{}] = {} ms over {count} spans",
                layer_of(span),
                self_ns as f64 / 1e6
            );
        }
        let path = args.out.join(format!("spans-{name}-{}.jsonl", args.seed));
        if let Err(e) = write_spans(&path, &result.tracer) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
    }
    println!(
        "{}",
        result_line(result.correct, result.attempted, result.failed, &metrics)
    );
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
