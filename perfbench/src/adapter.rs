//! Every read of the simulator's internals the benchmark makes.
//!
//! The benchmark measures each layer from outside, through the public
//! API of the workspace crates. Where that API does not hand over a
//! number directly, the code that derives it lives here and nowhere
//! else, so a change to the program's surface breaks one file.

use hivemind_core::engine::{Engine, EngineConfig, TaskRecord};
use hivemind_core::experiment::Workload as ExperimentWorkload;
use hivemind_core::prelude::*;
use hivemind_sim::stats::Summary;

/// The engine configuration `Experiment::run` builds for `cfg` (the
/// program's own conversion is crate-private).
pub fn engine_config(cfg: &ExperimentConfig) -> EngineConfig {
    EngineConfig {
        platform: cfg.platform,
        devices: cfg.devices,
        servers: cfg.servers,
        cores_per_server: cfg.cores_per_server,
        seed: cfg.seed,
        fault_rate: cfg.fault_rate,
        intra_task: cfg.intra_task,
        device_profile: cfg.device_profile(),
        input_scale: cfg.input_scale,
        iaas_workers: cfg.iaas_workers,
        trace: cfg.plan.trace,
        faults: cfg.plan.faults.clone(),
        overload: cfg.plan.overload.clone(),
        disconnect: cfg.plan.disconnect,
        shards: cfg.plan.shards,
    }
}

/// The task arrivals `Experiment::run` submits for a single-app workload,
/// in submission order: `(capture time, device, app)`. Each device fires
/// at the app's rate with a per-device phase offset. Empty for missions.
pub fn arrivals(cfg: &ExperimentConfig) -> Vec<(SimTime, u32, App)> {
    let ExperimentWorkload::SingleApp { app, duration_secs } = cfg.workload else {
        return Vec::new();
    };
    assert!(
        cfg.load_profile.is_none(),
        "the benchmark's workloads keep every device active"
    );
    let period = 1.0 / (app.tasks_per_sec() * cfg.rate_scale);
    let mut out = Vec::new();
    for dev in 0..cfg.devices {
        let mut t = period * (dev as f64 / cfg.devices as f64);
        while t < duration_secs {
            out.push((SimTime::ZERO + SimDuration::from_secs_f64(t), dev, app));
            t += period;
        }
    }
    out
}

/// Task count and end-to-end latency distribution of an engine-driven
/// run, summarised the way `Outcome::tasks.total` summarises them.
pub fn latency_of(records: &[TaskRecord]) -> (u64, Summary) {
    let mut total = Summary::new();
    for r in records {
        total.record(r.latency().as_secs_f64());
    }
    (records.len() as u64, total)
}

/// Engine-side counts and the per-phase host time of a profiled engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineCounts {
    /// Shard-phase host seconds.
    pub shard_s: f64,
    /// Barrier exchange (merge) host seconds.
    pub exchange_s: f64,
    /// Serial hub host seconds.
    pub hub_s: f64,
    /// Events processed.
    pub events: u64,
    /// Calendar-queue pushes and pops.
    pub queue_ops: u64,
    /// RNG draws.
    pub rng_draws: u64,
    /// Barrier epochs that exchanged at least one effect.
    pub epochs: u64,
    /// Elements folded through the exchange merge.
    pub merge_elems: u64,
    /// Effects handed from the shards to the hub.
    pub exchange_effects: u64,
}

impl EngineCounts {
    /// Reads the engine's phase breakdown and event counter.
    pub fn of(engine: &Engine) -> EngineCounts {
        let b = engine.phase_breakdown();
        EngineCounts {
            shard_s: b.shard_ns as f64 * 1e-9,
            exchange_s: b.merge_ns as f64 * 1e-9,
            hub_s: b.hub_ns as f64 * 1e-9,
            events: engine.events_processed(),
            queue_ops: b.queue_ops,
            rng_draws: b.rng_draws,
            epochs: b.exchange_epochs,
            merge_elems: b.merge_elems,
            exchange_effects: b.exchange_effects,
        }
    }
}

/// The counts and simulated times the benchmark reads from an `Outcome`.
/// Blocks the run did not enable (recovery, shed, reconnect) read as 0.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OutcomeCounts {
    /// Tasks that produced a result.
    pub completed: u64,
    /// Tasks re-run on-device after a shed (they also complete).
    pub spilled: u64,
    /// Tasks run on-device in autonomy during a partition (they also
    /// complete).
    pub degraded: u64,
    /// Tasks abandoned by the overload plane.
    pub shed: u64,
    /// Tasks lost: to faults (`RecoveryStats::tasks_lost`) or because the
    /// fabric tail-dropped their transfer at the partition hold bound
    /// (`ReconnectStats::transfers_dropped`; the program does not count
    /// those in `tasks_lost`).
    pub lost: u64,
    /// Median task latency, simulated milliseconds.
    pub p50_ms: f64,
    /// p99 task latency, simulated milliseconds.
    pub p99_ms: f64,
    /// Mean time per task in each modelled phase, simulated
    /// milliseconds: network, management, instantiation, data I/O,
    /// execution. They sum to the mean task latency.
    pub phase_ms: [f64; 5],
    /// Simulated makespan, seconds.
    pub makespan_s: f64,
    /// Whether the mission completed (always true for single-app runs).
    pub mission_completed: bool,
    /// Mission targets found.
    pub targets_found: u32,
    /// Mission detection accuracy, percent (0 without detection).
    pub detection_correct_pct: f64,
    /// Simulated edge traffic, MB.
    pub edge_mb: f64,
    /// Retransmission rounds forced by packet loss.
    pub packets_lost: u64,
    /// Transfers held by a partition.
    pub transfers_held: u64,
    /// Most transfers held at once.
    pub held_high_water: u64,
    /// Transfers tail-dropped at the hold bound.
    pub transfers_dropped: u64,
    /// Ingress backpressure holds.
    pub backpressure_holds: u64,
    /// Warm container hits.
    pub warm_hits: u64,
    /// Cold container starts.
    pub cold_misses: u64,
    /// Straggler respawns that won.
    pub stragglers_mitigated: u64,
    /// Invocations shed by the cluster's admission control.
    pub invocations_shed: u64,
    /// ... of which because the admission queue was full.
    pub shed_queue_full: u64,
    /// ... of which because the queueing deadline passed.
    pub shed_deadline: u64,
    /// ... of which by an open breaker.
    pub shed_breaker: u64,
    /// Times a breaker opened.
    pub breaker_opens: u64,
    /// Mean battery consumed, percent.
    pub battery_mean_pct: f64,
    /// Device leases that expired (autonomy flips).
    pub lease_expirations: u64,
    /// Updates buffered in replay rings.
    pub updates_buffered: u64,
    /// Buffered updates replayed at heal.
    pub updates_replayed: u64,
    /// Buffered updates evicted before replay.
    pub updates_expired: u64,
}

impl OutcomeCounts {
    /// Reads an outcome.
    pub fn of(o: &Outcome) -> OutcomeCounts {
        let t = &o.tasks;
        let ms = |s: &Summary| s.mean() * 1e3;
        let recovery = o.recovery.unwrap_or_default();
        let shed = o.shed.unwrap_or_default();
        let reconnect = o.reconnect.unwrap_or_default();
        OutcomeCounts {
            completed: t.len() as u64,
            spilled: shed.tasks_spilled,
            degraded: reconnect.tasks_degraded,
            shed: shed.tasks_shed,
            lost: recovery.tasks_lost + reconnect.transfers_dropped,
            p50_ms: t.total.median() * 1e3,
            p99_ms: t.total.p99() * 1e3,
            phase_ms: [
                ms(&t.network),
                ms(&t.management),
                ms(&t.instantiation),
                ms(&t.data_io),
                ms(&t.exec),
            ],
            makespan_s: o.mission.duration_secs,
            mission_completed: o.mission.completed,
            targets_found: o.mission.targets_found,
            detection_correct_pct: o.mission.detection.map_or(0.0, |d| d.correct_pct),
            edge_mb: o.bandwidth.total_mb,
            packets_lost: recovery.packets_lost,
            transfers_held: recovery.transfers_held,
            held_high_water: reconnect.held_high_water,
            transfers_dropped: reconnect.transfers_dropped,
            backpressure_holds: shed.net_holds,
            warm_hits: o.container_stats.0,
            cold_misses: o.container_stats.1,
            stragglers_mitigated: o.stragglers_mitigated,
            invocations_shed: shed.invocations_shed,
            shed_queue_full: shed.shed_queue_full,
            shed_deadline: shed.shed_deadline,
            shed_breaker: shed.shed_breaker,
            breaker_opens: shed.breaker_opens as u64,
            battery_mean_pct: o.battery.mean_pct,
            lease_expirations: reconnect.lease_expirations,
            updates_buffered: reconnect.updates_buffered,
            updates_replayed: reconnect.updates_replayed,
            updates_expired: reconnect.updates_expired,
        }
    }
}

/// FNV-1a hash of an outcome's JSON: two runs agree on every observable
/// metric iff their digests agree.
pub fn digest(o: &Outcome) -> u64 {
    o.to_json().bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
