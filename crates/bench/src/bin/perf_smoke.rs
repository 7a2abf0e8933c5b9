//! Perf-smoke harness: measures simulator throughput and the wall-clock
//! cost of every figure binary in `--smoke` mode, then writes
//! `BENCH_core.json`.
//!
//! ```text
//! cargo run --release -p hivemind-bench --bin perf_smoke -- [--check] [--out PATH] [--baseline PATH]
//! ```
//!
//! With `--check`, the run first reads the committed baseline (default:
//! the `--out` path before it is overwritten) and fails the process if
//! any figure, the smoke total, the DES kernel throughput, or the
//! sharded swarm-engine throughput regressed by more than 25% — with an
//! absolute slack floor so sub-100 ms entries don't trip on scheduler
//! noise (the sharded gate only applies when the baseline machine had
//! the same core count). CI runs this after `cargo bench` in quick mode
//! and uploads the refreshed JSON as an artifact.
//!
//! At full fidelity (`--full` / `HIVEMIND_FULL=1`) the run additionally
//! executes the fig17 100k-device HiveMind mission and records its wall
//! clock under `fig17_100k` — the sharded engine's headline scale point.
//!
//! The JSON also carries the default-fidelity `all_figures` reference
//! numbers from the optimization PR (measured on the single-core dev
//! container): 67 s before, 25 s after — with the fig17 sweep's
//! 4096-device point included only in the "after" run, since before the
//! PR it was gated behind `HIVEMIND_FULL=1`.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use hivemind_apps::scenario::Scenario;
use hivemind_apps::suite::App;
use hivemind_core::engine::{Engine as SwarmEngine, EngineConfig};
use hivemind_core::experiment::{Experiment, ExperimentConfig};
use hivemind_core::platform::Platform;
use hivemind_sim::engine::{Context, Engine, Model};
use hivemind_sim::time::{SimDuration, SimTime};

const FIGURES: [&str; 16] = [
    "fig01",
    "fig03",
    "fig04",
    "fig05",
    "fig06",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "chaos_sweep",
    "overload_sweep",
    "partition_sweep",
];

/// Pre-PR wall-clock of `all_figures` at default fidelity on the
/// single-core dev container, and the same sweep after the hot-path
/// optimization (which also folded the 4096-device fig17 point into the
/// default sweep).
const DEFAULT_SWEEP_PRE_PR_SECS: f64 = 67.0;
const DEFAULT_SWEEP_POST_PR_SECS: f64 = 25.0;

/// Allowed regression vs the committed baseline: 25% relative, plus an
/// absolute floor so sub-100 ms smoke runs don't fail on timer noise.
const REGRESSION_RATIO: f64 = 1.25;
const SLACK_MS: f64 = 75.0;

struct PingPong {
    left: u64,
}
impl Model for PingPong {
    type Event = ();
    fn handle(&mut self, ctx: &mut Context<()>, _ev: ()) {
        if self.left > 0 {
            self.left -= 1;
            ctx.schedule_after(SimDuration::from_micros(1), ());
        }
    }
}

/// DES kernel throughput in events/sec: best of three 200k-event
/// ping-pong runs (best-of smooths out single-core scheduler hiccups).
fn measure_events_per_sec() -> f64 {
    let mut best = 0.0f64;
    for _ in 0..3 {
        let mut engine = Engine::new(PingPong { left: 200_000 });
        engine.schedule_at(SimTime::ZERO, ());
        let start = Instant::now();
        engine.run_to_completion();
        let rate = engine.events_processed() as f64 / start.elapsed().as_secs_f64();
        best = best.max(rate);
    }
    best
}

/// Sharded swarm-engine throughput in events/sec: a 256-device mixed
/// edge/cloud workload on the HiveMind platform, run once per shard
/// count, best of two runs each. The shard count only changes wall
/// clock (the output is byte-identical by construction), so this is the
/// honest denominator for the spatial-sharding speedup.
fn measure_swarm_events_per_sec(shards: u32) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..2 {
        let mut cfg = EngineConfig::testbed(Platform::HiveMind);
        cfg.devices = 256;
        cfg.servers = 192;
        cfg.shards = shards;
        let mut engine = SwarmEngine::new(cfg);
        for i in 0..40u64 {
            for dev in 0..256 {
                let app = if dev % 2 == 0 {
                    App::FaceRecognition
                } else {
                    App::DroneDetection
                };
                engine.submit_task(SimTime::from_secs(i), dev, app, dev);
            }
        }
        let start = Instant::now();
        let records = engine.run_to_completion();
        let rate = engine.events_processed() as f64 / start.elapsed().as_secs_f64();
        assert!(!records.is_empty(), "workload must complete tasks");
        best = best.max(rate);
    }
    best
}

/// Per-phase breakdown of the same 256-device workload, run once with
/// profiling enabled: wall-clock per engine phase (shard, merge, hub)
/// plus the deterministic operation counters (calendar-queue ops and
/// rebuild work, fabric hop completions, cluster events, RNG draws,
/// merged elements, exchanged effects). Its
/// arrivals are the whole-second capture bursts every drone mission
/// submits, so rebuild thrash on tie bursts shows here. The counters are
/// exact, so a >25% jump in any of them is an algorithmic regression,
/// not timer noise.
fn measure_phase_breakdown() -> hivemind_core::engine::PhaseBreakdown {
    let mut cfg = EngineConfig::testbed(Platform::HiveMind);
    cfg.devices = 256;
    cfg.servers = 192;
    cfg.shards = 1;
    let mut engine = SwarmEngine::new(cfg);
    engine.enable_profiling();
    for i in 0..40u64 {
        for dev in 0..256 {
            let app = if dev % 2 == 0 {
                App::FaceRecognition
            } else {
                App::DroneDetection
            };
            engine.submit_task(SimTime::from_secs(i), dev, app, dev);
        }
    }
    let records = engine.run_to_completion();
    assert!(!records.is_empty(), "workload must complete tasks");
    engine.phase_breakdown()
}

/// The fig17 swarm-scalability headline point: the 100k-device
/// HiveMind mission (same configuration as the fig17b sweep), measured
/// once. Full-fidelity only — this is a minutes-scale run; the recorded
/// wall clock documents that the sharded engine completes it.
fn measure_fig17_100k() -> (f64, f64, bool) {
    let devices = 100_000;
    let cfg = ExperimentConfig::scenario(Scenario::StationaryItems)
        .platform(Platform::HiveMind)
        .devices(devices)
        .servers((devices * 3 / 4).max(12))
        .seed(1);
    let start = Instant::now();
    let o = Experiment::new(cfg).run();
    (
        start.elapsed().as_secs_f64(),
        o.mission.duration_secs,
        o.mission.completed,
    )
}

/// Wall-clock of one `fig --smoke` subprocess in milliseconds, best of
/// two runs (the first also serves as page-cache warm-up).
fn measure_smoke_ms(dir: &std::path::Path, fig: &str) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..2 {
        let start = Instant::now();
        let out = Command::new(dir.join(fig))
            .arg("--smoke")
            .env_remove("HIVEMIND_FULL")
            .env_remove("HIVEMIND_SMOKE")
            .stdout(std::process::Stdio::null())
            .output()
            .unwrap_or_else(|e| panic!("failed to launch {fig}: {e}"));
        assert!(
            out.status.success(),
            "{fig} --smoke exited with {}",
            out.status
        );
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Pulls every `"key": <number>` pair out of a BENCH_core.json. Good
/// enough for `--check`: all numeric keys in the schema are unique.
fn parse_numbers(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in json.lines() {
        let Some((key_part, value_part)) = line.split_once(':') else {
            continue;
        };
        let key = key_part.trim().trim_matches('"');
        let value = value_part.trim().trim_end_matches(',');
        if let Ok(v) = value.parse::<f64>() {
            out.push((key.to_string(), v));
        }
    }
    out
}

fn baseline_value(baseline: &[(String, f64)], key: &str) -> Option<f64> {
    baseline.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
}

fn main() {
    let mut check = false;
    let mut out_path = PathBuf::from("BENCH_core.json");
    let mut baseline_path: Option<PathBuf> = None;
    let cli = hivemind_bench::cli::Cli::from_env();
    let mut args = cli.rest().iter().cloned();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--out" => out_path = args.next().map(PathBuf::from).expect("--out needs a path"),
            "--baseline" => {
                baseline_path = Some(
                    args.next()
                        .map(PathBuf::from)
                        .expect("--baseline needs a path"),
                )
            }
            other => panic!("unknown argument {other}"),
        }
    }
    let baseline_path = baseline_path.unwrap_or_else(|| out_path.clone());
    let baseline = if check {
        let json = std::fs::read_to_string(&baseline_path).unwrap_or_else(|e| {
            panic!(
                "--check needs a baseline at {}: {e}",
                baseline_path.display()
            )
        });
        parse_numbers(&json)
    } else {
        Vec::new()
    };

    println!("perf_smoke: measuring DES kernel throughput...");
    let events_per_sec = measure_events_per_sec();
    println!("  des_events_per_sec: {events_per_sec:.0}");

    println!("perf_smoke: measuring sharded swarm-engine throughput...");
    // One shard per core: the sharded rate and the core count it ran on.
    let nproc = std::thread::available_parallelism()
        .map(|p| p.get() as u32)
        .unwrap_or(1);
    let swarm_single = measure_swarm_events_per_sec(1);
    let swarm_sharded = measure_swarm_events_per_sec(nproc);
    println!("  swarm_events_per_sec (1 shard): {swarm_single:.0}");
    println!("  swarm_events_per_sec_sharded ({nproc} shards): {swarm_sharded:.0}");

    println!("perf_smoke: profiling the per-phase breakdown...");
    let bd = measure_phase_breakdown();
    println!(
        "  phases: shard {:.1} ms, merge {:.1} ms, hub {:.1} ms",
        bd.shard_ns as f64 / 1e6,
        bd.merge_ns as f64 / 1e6,
        bd.hub_ns as f64 / 1e6
    );
    println!(
        "  counters: {} queue ops ({} rebuild work), {} fabric hops, {} cluster events, \
         {} rng draws, {} merged, {} exchanged over {} epochs",
        bd.queue_ops,
        bd.queue_rebuild_work,
        bd.fabric_hops,
        bd.cluster_events,
        bd.rng_draws,
        bd.merge_elems,
        bd.exchange_effects,
        bd.exchange_epochs
    );

    let fig17_100k = cli.full().then(|| {
        println!("perf_smoke: full fidelity — running the fig17 100k-device point...");
        let point = measure_fig17_100k();
        println!(
            "  fig17_100k: wall {:.1} s, job {:.1} s, completed {}",
            point.0, point.1, point.2
        );
        point
    });

    let exe = std::env::current_exe().expect("own path");
    let dir = exe.parent().expect("bin dir");
    let mut rows: Vec<(&str, f64)> = Vec::with_capacity(FIGURES.len());
    let mut total = 0.0;
    for fig in FIGURES {
        let ms = measure_smoke_ms(dir, fig);
        println!("  {fig} --smoke: {ms:.0} ms");
        total += ms;
        rows.push((fig, ms));
    }
    println!("  total: {total:.0} ms");

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"hivemind-bench-core-v1\",\n");
    let _ = writeln!(json, "  \"des_events_per_sec\": {events_per_sec:.0},");
    let _ = writeln!(json, "  \"swarm_events_per_sec\": {swarm_single:.0},");
    let _ = writeln!(
        json,
        "  \"swarm_events_per_sec_sharded\": {swarm_sharded:.0},"
    );
    let _ = writeln!(json, "  \"swarm_shards\": {nproc},");
    let _ = writeln!(json, "  \"nproc\": {nproc},");
    json.push_str("  \"phase_breakdown\": {\n");
    let _ = writeln!(json, "    \"shard_ms\": {:.1},", bd.shard_ns as f64 / 1e6);
    let _ = writeln!(json, "    \"merge_ms\": {:.1},", bd.merge_ns as f64 / 1e6);
    let _ = writeln!(json, "    \"hub_ms\": {:.1},", bd.hub_ns as f64 / 1e6);
    let _ = writeln!(json, "    \"queue_ops\": {},", bd.queue_ops);
    let _ = writeln!(
        json,
        "    \"queue_rebuild_work\": {},",
        bd.queue_rebuild_work
    );
    let _ = writeln!(json, "    \"fabric_hops\": {},", bd.fabric_hops);
    let _ = writeln!(json, "    \"cluster_events\": {},", bd.cluster_events);
    let _ = writeln!(json, "    \"rng_draws\": {},", bd.rng_draws);
    let _ = writeln!(json, "    \"merge_elems\": {},", bd.merge_elems);
    let _ = writeln!(json, "    \"exchange_effects\": {},", bd.exchange_effects);
    let _ = writeln!(json, "    \"exchange_epochs\": {}", bd.exchange_epochs);
    json.push_str("  },\n");
    if let Some((wall_s, job_s, completed)) = fig17_100k {
        json.push_str("  \"fig17_100k\": {\n");
        let _ = writeln!(json, "    \"wall_s\": {wall_s:.1},");
        let _ = writeln!(json, "    \"job_s\": {job_s:.1},");
        let _ = writeln!(json, "    \"completed\": {completed}");
        json.push_str("  },\n");
    }
    json.push_str("  \"smoke_wall_ms\": {\n");
    for (fig, ms) in &rows {
        let _ = writeln!(json, "    \"{fig}\": {ms:.0},");
    }
    let _ = writeln!(json, "    \"total\": {total:.0}");
    json.push_str("  },\n");
    json.push_str("  \"default_sweep_reference\": {\n");
    let _ = writeln!(json, "    \"pre_pr_total_s\": {DEFAULT_SWEEP_PRE_PR_SECS},");
    let _ = writeln!(
        json,
        "    \"post_pr_total_s\": {DEFAULT_SWEEP_POST_PR_SECS},"
    );
    let _ = writeln!(
        json,
        "    \"speedup\": {:.2},",
        DEFAULT_SWEEP_PRE_PR_SECS / DEFAULT_SWEEP_POST_PR_SECS
    );
    json.push_str(
        "    \"note\": \"all_figures at default fidelity on the single-core dev container; \
         the post-PR run additionally includes the 4096-device fig17 point, which pre-PR \
         required HIVEMIND_FULL=1\"\n",
    );
    json.push_str("  }\n");
    json.push_str("}\n");

    let mut failures = Vec::new();
    if check {
        if let Some(base) = baseline_value(&baseline, "des_events_per_sec") {
            if events_per_sec < base / REGRESSION_RATIO {
                failures.push(format!(
                    "des_events_per_sec regressed: {events_per_sec:.0} vs baseline {base:.0}"
                ));
            }
        }
        // The sharded rate is gated only when the baseline machine had a
        // comparable core count — otherwise a 1-core CI runner would
        // "regress" against a many-core dev box.
        if let Some(base_shards) = baseline_value(&baseline, "swarm_shards") {
            if base_shards as u32 == nproc {
                if let Some(base) = baseline_value(&baseline, "swarm_events_per_sec_sharded") {
                    if swarm_sharded < base / REGRESSION_RATIO {
                        failures.push(format!(
                            "swarm_events_per_sec_sharded regressed: {swarm_sharded:.0} \
                             vs baseline {base:.0}"
                        ));
                    }
                }
            }
        }
        rows.push(("total", total));
        // Phase wall-clock gates like a figure (relative + slack floor);
        // the operation counters are deterministic, so they gate on the
        // bare ratio — a 25% count increase is an algorithmic
        // regression, never timer noise.
        let phase_ms = [
            ("shard_ms", bd.shard_ns as f64 / 1e6),
            ("merge_ms", bd.merge_ns as f64 / 1e6),
            ("hub_ms", bd.hub_ns as f64 / 1e6),
        ];
        for (key, ms) in phase_ms {
            if let Some(base) = baseline_value(&baseline, key) {
                if ms > base * REGRESSION_RATIO + SLACK_MS {
                    failures.push(format!(
                        "{key} phase wall regressed: {ms:.1} ms vs baseline {base:.1} ms"
                    ));
                }
            }
        }
        let phase_counts = [
            ("queue_ops", bd.queue_ops),
            ("queue_rebuild_work", bd.queue_rebuild_work),
            ("fabric_hops", bd.fabric_hops),
            ("cluster_events", bd.cluster_events),
            ("rng_draws", bd.rng_draws),
            ("merge_elems", bd.merge_elems),
            ("exchange_effects", bd.exchange_effects),
        ];
        for (key, count) in phase_counts {
            if let Some(base) = baseline_value(&baseline, key) {
                if count as f64 > base * REGRESSION_RATIO {
                    failures.push(format!(
                        "{key} count regressed: {count} vs baseline {base:.0}"
                    ));
                }
            }
        }
        for &(fig, ms) in rows.iter() {
            if let Some(base) = baseline_value(&baseline, fig) {
                if ms > base * REGRESSION_RATIO + SLACK_MS {
                    failures.push(format!(
                        "{fig} smoke wall regressed: {ms:.0} ms vs baseline {base:.0} ms"
                    ));
                }
            }
        }
    }

    std::fs::write(&out_path, &json)
        .unwrap_or_else(|e| panic!("failed to write {}: {e}", out_path.display()));
    println!("wrote {}", out_path.display());

    if !failures.is_empty() {
        eprintln!("perf_smoke: regression vs {}:", baseline_path.display());
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    if check {
        println!("perf_smoke: no regression vs {}", baseline_path.display());
    }
}
