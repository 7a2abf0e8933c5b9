//! The four named workloads and the configuration each one runs.

use hivemind_core::prelude::*;

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Scenario A mission on HiveMind at 2048 drones, a point of the fig17
    /// swarm-size sweep: the full user path (controller, routes,
    /// recognition, hybrid placement, fabric and cluster).
    SwarmMission,
    /// Single-app drone detection on the distributed edge: the device
    /// shards do the work and the serverless cluster is idle.
    EdgeFleet,
    /// Single-app face recognition on centralized FaaS under repeated
    /// partitions and overload control: fabric holds and drops, cluster
    /// sheds, devices buffer and replay.
    CloudDegraded,
    /// `SwarmMission` at 128 drones with event tracing on and both trace
    /// exports: the only workload that runs `sim::trace`.
    TracedMission,
}

/// How big a workload runs. `Tiny` keeps the configuration's shape (every
/// plane and layer stays active) at a size the self-test runs in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark size.
    Full,
    /// The self-test size.
    Tiny,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::SwarmMission,
        Workload::EdgeFleet,
        Workload::CloudDegraded,
        Workload::TracedMission,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SwarmMission => "swarm_mission",
            Workload::EdgeFleet => "edge_fleet",
            Workload::CloudDegraded => "cloud_degraded",
            Workload::TracedMission => "traced_mission",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed the workload was sized and described with.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::CloudDegraded => 7,
            _ => 1,
        }
    }

    /// Whether the traced run drives `core::engine::Engine` directly
    /// (single-app workloads) instead of wrapping `Experiment::run`.
    pub fn engine_driven(self) -> bool {
        matches!(self, Workload::EdgeFleet | Workload::CloudDegraded)
    }

    /// Whether the workload is a mission (and must report completion).
    pub fn is_mission(self) -> bool {
        !self.engine_driven()
    }

    /// The experiment this workload runs with `seed`.
    pub fn config(self, seed: u64, size: Size) -> ExperimentConfig {
        let tiny = size == Size::Tiny;
        match self {
            Workload::SwarmMission => mission(if tiny { 32 } else { 2048 }, seed),
            Workload::TracedMission => {
                mission(if tiny { 16 } else { 128 }, seed).plan(RunPlan::new().trace(true))
            }
            Workload::EdgeFleet => ExperimentConfig::single_app(App::DroneDetection)
                .platform(Platform::DistributedEdge)
                .devices(if tiny { 64 } else { 4096 })
                .duration_secs(if tiny { 20.0 } else { 30.0 })
                .seed(seed),
            Workload::CloudDegraded => {
                let (devices, secs) = if tiny { (64, 140.0) } else { (1024, 360.0) };
                ExperimentConfig::single_app(App::FaceRecognition)
                    .platform(Platform::CentralizedFaaS)
                    .devices(devices)
                    .servers(devices * 3 / 4)
                    .duration_secs(secs)
                    .seed(seed)
                    .plan(
                        RunPlan::new()
                            .faults(partitions(secs))
                            .disconnect(DisconnectPolicy::default().autonomous())
                            .overload(
                                OverloadPolicy::default()
                                    .queue_bound(64)
                                    .queue_deadline(SimDuration::from_secs(4))
                                    .breaker(8, SimDuration::from_secs(5))
                                    .spillover(),
                            ),
                    )
            }
        }
    }
}

/// Scenario A on HiveMind with cloud capacity at the testbed's ratio of
/// 12 servers per 16 drones, as fig17 scales it.
fn mission(drones: u32, seed: u64) -> ExperimentConfig {
    ExperimentConfig::scenario(Scenario::StationaryItems)
        .platform(Platform::HiveMind)
        .devices(drones)
        .servers(drones * 3 / 4)
        .seed(seed)
}

/// A 30 s wireless partition every 60 s from t = 20 s, over a hold buffer
/// bounded at 64 transfers.
fn partitions(secs: f64) -> FaultPlan {
    let mut plan = FaultPlan::default().partition_hold_bound(64);
    let mut from = 20.0;
    while from < secs {
        plan = plan.partition(from, from + 30.0);
        from += 60.0;
    }
    plan
}
