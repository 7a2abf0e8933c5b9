//! One benchmark run: repeat a workload for the requested time, check
//! every outcome, and reduce the repetitions to named metrics.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use hivemind_core::engine::Engine;
use hivemind_core::prelude::*;

use crate::adapter::{self, EngineCounts, OutcomeCounts};
use crate::host;
use crate::spans::Spans;
use crate::workload::{Size, Workload};

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Its seed.
    pub seed: u64,
    /// How long to keep repeating it, host seconds. At least one
    /// repetition always runs.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics) rather than
    /// the untraced one (end-to-end metrics).
    pub trace: bool,
    /// Benchmark or self-test size.
    pub size: Size,
}

/// One named measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// The name `BENCHMARK.json` lists it under.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// The result of one run.
#[derive(Debug)]
pub struct Report {
    /// The options it ran with.
    pub options: Options,
    /// Repetitions of the workload started.
    pub attempted: u64,
    /// Repetitions that broke a correctness check.
    pub failed: u64,
    /// What each failed check found.
    pub violations: Vec<String>,
    /// FNV-1a hash of `Outcome::to_json`.
    pub digest: u64,
    /// Simulated tasks behind the latency quantiles.
    pub samples: u64,
    /// `run_s` of every repetition, in order.
    pub run_secs: Vec<f64>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// The traced run's spans.
    pub spans: Option<Spans>,
}

impl Report {
    /// Whether every repetition passed every check.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every metric by name with its unit.
    pub fn json(&self) -> String {
        result_json(std::slice::from_ref(self))
    }
}

/// The result line for one or more reports: repetition counts summed,
/// and with several reports every metric named `<workload>.<metric>`.
pub fn result_json(reports: &[Report]) -> String {
    let mut metrics = String::new();
    for r in reports {
        let prefix = match reports {
            [_] => String::new(),
            _ => format!("{}.", r.options.workload.name()),
        };
        for m in &r.metrics {
            let comma = if metrics.is_empty() { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            write!(
                metrics,
                "{comma}\"{prefix}{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
            .expect("writing to a String cannot fail");
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        reports.iter().all(Report::correct),
        reports.iter().map(|r| r.attempted).sum::<u64>(),
        reports.iter().map(|r| r.failed).sum::<u64>()
    )
}

/// Checks one outcome against what the benchmark knows independently.
///
/// - `digest` must equal `first_digest`, the digest of the run's first
///   repetition: the same code and seed give the same outcome.
/// - Single-app runs must account for every task the benchmark
///   submitted: completed + shed + lost = `arrivals`.
/// - Replay rings cannot deliver or evict more than they buffered.
/// - Missions must complete.
pub fn gate(
    workload: Workload,
    arrivals: u64,
    first_digest: u64,
    digest: u64,
    c: &OutcomeCounts,
) -> Vec<String> {
    let mut bad = Vec::new();
    if digest != first_digest {
        bad.push(format!(
            "outcome digest {digest:016x} differs from the first repetition's {first_digest:016x}"
        ));
    }
    if workload.engine_driven() && c.completed + c.shed + c.lost != arrivals {
        bad.push(format!(
            "completed {} + shed {} + lost {} != {arrivals} submitted",
            c.completed, c.shed, c.lost
        ));
    }
    if c.updates_replayed + c.updates_expired > c.updates_buffered {
        bad.push(format!(
            "replayed {} + expired {} > buffered {}",
            c.updates_replayed, c.updates_expired, c.updates_buffered
        ));
    }
    if workload.is_mission() && !c.mission_completed {
        bad.push("mission did not complete".into());
    }
    bad
}

/// One untraced repetition: `Experiment::run`, plus for traced_mission the
/// two exports `--trace` writes.
struct Untraced {
    run_s: f64,
    /// `Experiment::run` alone (without the exports).
    experiment_s: f64,
    cpu_s: f64,
    digest: u64,
    counts: OutcomeCounts,
    export: Option<Export>,
}

/// What exporting one simulator trace cost and produced.
#[derive(Debug, Clone, Copy, Default)]
struct Export {
    events: u64,
    chrome_mb: f64,
    jsonl_mb: f64,
    secs: f64,
}

fn run_untraced(exp: &Experiment) -> (Untraced, Outcome) {
    let cpu0 = host::cpu_secs();
    let start = Instant::now();
    let mut outcome = exp.run();
    let experiment_s = start.elapsed().as_secs_f64();
    let export = outcome.trace.take().map(|trace| {
        let t = Instant::now();
        // Serialized in memory, as the harness does before writing each
        // file; disk speed is the host's, not the simulator's.
        let chrome = black_box(trace.to_chrome_trace()).len();
        let jsonl = black_box(trace.to_jsonl()).len();
        Export {
            events: trace.len() as u64,
            chrome_mb: chrome as f64 / 1e6,
            jsonl_mb: jsonl as f64 / 1e6,
            secs: t.elapsed().as_secs_f64(),
        }
    });
    let run_s = start.elapsed().as_secs_f64();
    let untraced = Untraced {
        run_s,
        experiment_s,
        cpu_s: host::cpu_secs() - cpu0,
        digest: adapter::digest(&outcome),
        counts: OutcomeCounts::of(&outcome),
        export,
    };
    (untraced, outcome)
}

/// Median host seconds of one set-up: everything `Experiment::run` does
/// before simulated time first advances, done through the public API.
/// That is building the configuration, validating it with
/// `Experiment::try_new`, constructing the engine and, for single-app
/// workloads, injecting every arrival. `Experiment::run` repeats this
/// work inside `run_s`; timing it here makes work moved into set-up show.
///
/// Set-up takes from a tenth of a millisecond to a few hundred, so it is
/// repeated at least 9 times and until a second has passed (at most 500
/// times) to steady the median.
fn setup_secs(opts: &Options, arrivals: &[(SimTime, u32, App)]) -> f64 {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < 9 || (start.elapsed().as_secs_f64() < 1.0 && times.len() < 500) {
        let t = Instant::now();
        let exp = Experiment::try_new(opts.workload.config(opts.seed, opts.size))
            .expect("workload configs are valid");
        let mut engine = Engine::new(adapter::engine_config(exp.config()));
        for &(at, device, app) in arrivals {
            engine.submit_task(at, device, app, 0);
        }
        times.push(t.elapsed().as_secs_f64());
        drop(black_box(engine));
    }
    median(&mut times)
}

/// The median of `xs` (the mean of the middle two for an even count).
pub fn median(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    (xs[(n - 1) / 2] + xs[n / 2]) / 2.0
}

/// Per-repetition host times of the traced replay.
#[derive(Debug, Clone, Copy, Default)]
struct Layers {
    validate_s: f64,
    engine_new_s: f64,
    submit_s: f64,
    engine: EngineCounts,
    residual_s: f64,
    to_json_s: f64,
    /// The traced replay's counterpart of the untraced `run_s`, minus it.
    span_overhead_s: f64,
    /// Traced minus untraced `Experiment::run` of traced_mission's
    /// configuration: the cost of recording the simulator trace.
    record_overhead_s: f64,
}

/// The traced replay of one repetition, recorded as spans under one
/// `iteration` span. `base` is the untraced repetition it replays and
/// `outcome` that repetition's outcome.
fn run_traced(
    opts: &Options,
    arrivals: &[(SimTime, u32, App)],
    base: &Untraced,
    outcome: &Outcome,
    spans: &mut Spans,
    bad: &mut Vec<String>,
) -> Layers {
    let mut l = Layers::default();
    let root = spans.open("iteration", None);
    let s = spans.open("experiment.try_new", Some(root));
    let exp = Experiment::try_new(opts.workload.config(opts.seed, opts.size))
        .expect("workload configs are valid");
    l.validate_s = spans.close(s);
    if opts.workload.engine_driven() {
        let s = spans.open("engine.new", Some(root));
        let mut engine = Engine::new(adapter::engine_config(exp.config()));
        engine.enable_profiling();
        l.engine_new_s = spans.close(s);
        let s = spans.open("engine.submit", Some(root));
        for &(at, device, app) in arrivals {
            engine.submit_task(at, device, app, 0);
        }
        l.submit_s = spans.close(s);
        let s = spans.open("engine.run_to_completion", Some(root));
        let records = engine.run_to_completion();
        let run_s = spans.close(s);
        l.engine = EngineCounts::of(&engine);
        spans.aggregate(s, "engine.shard", l.engine.shard_s);
        spans.aggregate(s, "engine.exchange", l.engine.exchange_s);
        spans.aggregate(s, "engine.hub", l.engine.hub_s);
        l.residual_s = spans.self_time(s);
        l.span_overhead_s = l.engine_new_s + l.submit_s + run_s - base.run_s;
        let (tasks, total) = adapter::latency_of(&records);
        if tasks != base.counts.completed || total.p99() * 1e3 != base.counts.p99_ms {
            bad.push(format!(
                "engine replay: {tasks} tasks, p99 {} ms; Experiment::run: {} tasks, p99 {} ms",
                total.p99() * 1e3,
                base.counts.completed,
                base.counts.p99_ms
            ));
        }
    } else {
        let s = spans.open("experiment.run", Some(root));
        let mut replay = exp.run();
        let mut run_s = spans.close(s);
        if let Some(trace) = replay.trace.take() {
            let s = spans.open("trace.export_chrome", Some(root));
            black_box(trace.to_chrome_trace());
            run_s += spans.close(s);
            let s = spans.open("trace.export_jsonl", Some(root));
            black_box(trace.to_jsonl());
            run_s += spans.close(s);
        }
        l.span_overhead_s = run_s - base.run_s;
        if adapter::digest(&replay) != base.digest {
            bad.push("traced replay's outcome differs from the untraced run's".into());
        }
    }
    // The engine replay has no Outcome (assembling one is the program's
    // own business), so serialization is timed on the untraced one.
    let s = spans.open("metrics.to_json", Some(root));
    black_box(outcome.to_json());
    l.to_json_s = spans.close(s);
    spans.close(root);
    if opts.workload == Workload::TracedMission {
        let mut cfg = opts.workload.config(opts.seed, opts.size);
        cfg.plan.trace = false;
        let exp = Experiment::try_new(cfg).expect("workload configs are valid");
        let start = Instant::now();
        black_box(exp.run());
        l.record_overhead_s = base.experiment_s - start.elapsed().as_secs_f64();
    }
    l
}

/// Runs the workload in `opts` and reduces it to a report.
pub fn run(opts: Options) -> Report {
    let w = opts.workload;
    let exp =
        Experiment::try_new(w.config(opts.seed, opts.size)).expect("workload configs are valid");
    let arrivals = adapter::arrivals(exp.config());
    let setup_s = setup_secs(&opts, &arrivals);
    let mut spans = Spans::new(format!("{}/{}", w.name(), opts.seed));
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut violations = Vec::new();
    let mut first: Option<u64> = None;
    let (mut runs, mut layers) = (Vec::new(), Vec::new());
    let start = Instant::now();
    loop {
        attempted += 1;
        let (base, outcome) = run_untraced(&exp);
        let first_digest = *first.get_or_insert(base.digest);
        let mut bad = gate(
            w,
            arrivals.len() as u64,
            first_digest,
            base.digest,
            &base.counts,
        );
        if opts.trace {
            layers.push(run_traced(
                &opts, &arrivals, &base, &outcome, &mut spans, &mut bad,
            ));
        }
        if !bad.is_empty() {
            failed += 1;
            violations.extend(bad);
        }
        runs.push(base);
        if start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    let last = runs.last().expect("at least one repetition runs");
    let c = last.counts;
    let med = |f: &dyn Fn(&Untraced) -> f64| median(&mut runs.iter().map(f).collect::<Vec<_>>());
    let run_s = med(&|u| u.run_s);
    let metrics = if opts.trace {
        let export_s = med(&|u| u.export.map_or(0.0, |x| x.secs));
        per_layer(&c, last.export, export_s, med(&|u| u.cpu_s), &layers)
    } else {
        let settled = (c.completed + c.shed + c.lost).max(1) as f64;
        vec![
            m("setup_s", "s", setup_s),
            m("run_s", "s", run_s),
            m("tasks_per_s", "tasks/s", c.completed as f64 / run_s),
            m("peak_rss_mb", "MB", host::peak_rss_mb()),
            m("sim_task_p50_ms", "sim_ms", c.p50_ms),
            m("sim_task_p99_ms", "sim_ms", c.p99_ms),
            m("sim_makespan_s", "sim_s", c.makespan_s),
            m("task_done_frac", "ratio", c.completed as f64 / settled),
        ]
    };
    Report {
        options: opts,
        attempted,
        failed,
        violations,
        digest: last.digest,
        samples: c.completed,
        run_secs: runs.iter().map(|u| u.run_s).collect(),
        metrics,
        spans: opts.trace.then_some(spans),
    }
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The per-layer metrics of a traced run: host times as medians over the
/// repetitions, counts and simulated times from the last one (they repeat
/// exactly). Layers a workload does not exercise, or that are not visible
/// from outside the program on it, read 0.
fn per_layer(
    c: &OutcomeCounts,
    export: Option<Export>,
    export_s: f64,
    cpu_s: f64,
    layers: &[Layers],
) -> Vec<Metric> {
    let med = |f: fn(&Layers) -> f64| median(&mut layers.iter().map(f).collect::<Vec<_>>());
    let e = layers.last().map(|l| l.engine).unwrap_or_default();
    let x = export.unwrap_or_default();
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let [network, management, instantiation, data_io, exec] = c.phase_ms;
    vec![
        m("engine.shard_s", "s", med(|l| l.engine.shard_s)),
        m("engine.exchange_s", "s", med(|l| l.engine.exchange_s)),
        m("engine.hub_s", "s", med(|l| l.engine.hub_s)),
        m("engine.residual_s", "s", med(|l| l.residual_s)),
        m("engine.epochs", "count", e.epochs as f64),
        m("engine.merge_elems", "count", e.merge_elems as f64),
        m("engine.events", "count", e.events as f64),
        m("engine.queue_ops", "count", e.queue_ops as f64),
        m("engine.rng_draws", "count", e.rng_draws as f64),
        m(
            "engine.exchange_effects",
            "count",
            e.exchange_effects as f64,
        ),
        m("setup.validate_s", "s", med(|l| l.validate_s)),
        m("setup.engine_new_s", "s", med(|l| l.engine_new_s)),
        m("setup.submit_s", "s", med(|l| l.submit_s)),
        m("metrics.to_json_s", "s", med(|l| l.to_json_s)),
        m("process.cpu_s", "s", cpu_s),
        m("bench.span_overhead_s", "s", med(|l| l.span_overhead_s)),
        m("net.edge_mb", "sim_MB", c.edge_mb),
        m("net.packets_lost", "count", c.packets_lost as f64),
        m("net.transfers_held", "count", c.transfers_held as f64),
        m("net.held_high_water", "count", c.held_high_water as f64),
        m("net.transfers_dropped", "count", c.transfers_dropped as f64),
        m(
            "net.backpressure_holds",
            "count",
            c.backpressure_holds as f64,
        ),
        m("faas.warm_hits", "count", c.warm_hits as f64),
        m("faas.cold_misses", "count", c.cold_misses as f64),
        m(
            "faas.warm_hit_frac",
            "ratio",
            ratio(c.warm_hits, c.warm_hits + c.cold_misses),
        ),
        m(
            "faas.stragglers_mitigated",
            "count",
            c.stragglers_mitigated as f64,
        ),
        m("faas.invocations_shed", "count", c.invocations_shed as f64),
        m("faas.shed_queue_full", "count", c.shed_queue_full as f64),
        m("faas.shed_deadline", "count", c.shed_deadline as f64),
        m("faas.shed_breaker", "count", c.shed_breaker as f64),
        m("faas.breaker_opens", "count", c.breaker_opens as f64),
        m("swarm.battery_mean_pct", "%", c.battery_mean_pct),
        m(
            "swarm.lease_expirations",
            "count",
            c.lease_expirations as f64,
        ),
        m("swarm.updates_buffered", "count", c.updates_buffered as f64),
        m("swarm.updates_replayed", "count", c.updates_replayed as f64),
        m("swarm.updates_expired", "count", c.updates_expired as f64),
        m(
            "swarm.replay_useful_frac",
            "ratio",
            ratio(c.updates_replayed, c.updates_buffered),
        ),
        m("tasks.completed", "count", c.completed as f64),
        m("tasks.spilled", "count", c.spilled as f64),
        m("tasks.degraded", "count", c.degraded as f64),
        m("tasks.shed", "count", c.shed as f64),
        m("tasks.lost", "count", c.lost as f64),
        m("sim.network_ms", "sim_ms", network),
        m("sim.management_ms", "sim_ms", management),
        m("sim.instantiation_ms", "sim_ms", instantiation),
        m("sim.data_io_ms", "sim_ms", data_io),
        m("sim.exec_ms", "sim_ms", exec),
        m("mission.targets_found", "count", c.targets_found as f64),
        m(
            "mission.detection_correct_pct",
            "%",
            c.detection_correct_pct,
        ),
        m("trace.events", "count", x.events as f64),
        m("trace.chrome_mb", "MB", x.chrome_mb),
        m("trace.jsonl_mb", "MB", x.jsonl_mb),
        m("trace.export_s", "s", export_s),
        m("trace.record_overhead_s", "s", med(|l| l.record_overhead_s)),
        m("host.calib_s", "s", host::calib_secs()),
        m("host.nproc", "count", host::nproc() as f64),
    ]
}
