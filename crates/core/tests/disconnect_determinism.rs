//! Disconnect-plane guarantees:
//!
//! 1. an all-defaults [`DisconnectPolicy`] is inert — byte-identical
//!    metrics to a config that never mentions the plane at all;
//! 2. a partitioned run with autonomy armed is byte-identical across
//!    `threads ∈ {1, 4}` — lease expiry, degraded execution, buffering
//!    and replay are all pure functions of the fault plan and the event
//!    stream;
//! 3. a mission under repeated partitions still completes with the
//!    plane armed, the controller re-arms every live device at each
//!    heal, and no buffered update is lost or double-delivered;
//! 4. the plane only ever *adds* the `reconnect` block to the Outcome
//!    JSON — every other byte matches the hold-only baseline when no
//!    lease expires.

use hivemind_core::prelude::*;
use hivemind_core::runner::RunSet;

fn partitioned(policy: DisconnectPolicy) -> ExperimentConfig {
    ExperimentConfig::single_app(App::FaceRecognition)
        .platform(Platform::CentralizedFaaS)
        .duration(SimDuration::from_secs(25))
        .seed(17)
        .plan(
            RunPlan::new()
                .faults(FaultPlan::default().partition(5.0, 15.0))
                .disconnect(policy),
        )
}

#[test]
fn default_disconnect_policy_is_inert() {
    let cfg = ExperimentConfig::scenario(Scenario::StationaryItems)
        .platform(Platform::HiveMind)
        .seed(11);
    let plain = Experiment::new(cfg.clone()).run();
    let planned =
        Experiment::new(cfg.plan(RunPlan::new().disconnect(DisconnectPolicy::default()))).run();
    assert!(planned.reconnect.is_none(), "inert plane reports nothing");
    assert_eq!(plain.to_json(), planned.to_json());
}

#[test]
fn partitioned_reconnect_is_identical_across_threads() {
    let base = partitioned(DisconnectPolicy::default().autonomous());
    let dump =
        |set: &RunSet| -> Vec<String> { set.outcomes().iter().map(|o| o.to_json()).collect() };
    let reference = dump(&Runner::with_threads(1).run_replicates(&base, 3));
    // The reference run actually exercised the plane.
    let probe = Experiment::new(base.clone()).run();
    let r = probe.reconnect.expect("armed plane populates stats");
    assert!(r.tasks_degraded > 0 && r.updates_replayed > 0);
    let got = dump(&Runner::with_threads(4).run_replicates(&base, 3));
    assert_eq!(reference, got, "diverged at 4 threads");
}

#[test]
fn mission_survives_repeated_partitions() {
    let base = ExperimentConfig::scenario(Scenario::StationaryItems)
        .platform(Platform::HiveMind)
        .seed(11)
        .plan(
            RunPlan::new()
                .faults(
                    FaultPlan::default()
                        .partition(30.0, 60.0)
                        .partition(120.0, 150.0),
                )
                .disconnect(DisconnectPolicy::default().autonomous()),
        );
    let o = Experiment::new(base).run();
    assert!(o.mission.completed, "autonomy carries the mission");
    let r = o.reconnect.expect("armed plane populates stats");
    assert_eq!(r.partitions, 2, "one reconciliation per heal");
    assert!(
        r.devices_rearmed >= 32,
        "every live device re-arms at each heal, got {}",
        r.devices_rearmed
    );
    assert_eq!(
        r.updates_buffered,
        r.updates_replayed + r.updates_expired,
        "exactly-once: nothing still buffered after the final heal"
    );
    assert_eq!(r.duplicates_dropped, 0);
}

#[test]
fn unexpired_lease_changes_only_the_reconnect_block() {
    // With the lease outliving the outage the device never degrades, so
    // the armed run must behave byte-for-byte like the hold-only
    // baseline except for reporting the (empty) reconnect session.
    let hold_only = Experiment::new(partitioned(DisconnectPolicy::default())).run();
    let armed = Experiment::new(partitioned(
        DisconnectPolicy::default()
            .autonomous()
            .lease_timeout(SimDuration::from_secs(60)),
    ))
    .run();
    assert!(hold_only.reconnect.is_none());
    let r = armed.reconnect.expect("armed plane populates stats");
    assert_eq!(r.tasks_degraded, 0);
    assert_eq!(r.updates_replayed, 0);
    let strip = |json: &str| -> String {
        let start = json
            .find(",\"reconnect\":{")
            .expect("reconnect block present");
        let rest = &json[start + 1..];
        let depth_end = rest.find('}').expect("block closes") + 1;
        format!("{}{}", &json[..start], &rest[depth_end..])
    };
    assert_eq!(hold_only.to_json(), strip(&armed.to_json()));
}
