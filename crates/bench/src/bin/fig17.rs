//! Fig. 17 — scalability: (a) bandwidth and tail latency on HiveMind as
//! image resolution and frame rate increase, and (b) as the swarm grows
//! from 16 to 8192 drones (simulated, links scaled proportionally).
//!
//! Set `HIVEMIND_FULL=1` (or pass `--full`) to extend the swarm sweep
//! through 8192 to the serverless-edge headline sizes of 100k and 1M
//! simulated devices (tens of minutes; each swarm size runs on one core,
//! and `HIVEMIND_THREADS` runs sizes in parallel); the default sweep
//! stops at 4096.

use hivemind_bench::report::Report;
use hivemind_bench::{banner, full_fidelity, smoke, Table};
use hivemind_core::prelude::*;

fn main() {
    let report = Report::from_env();
    banner("Figure 17a: HiveMind bandwidth + mission tail vs resolution / frame rate");
    let mut table = Table::new([
        "scenario",
        "config",
        "bandwidth mean (MB/s)",
        "bandwidth p99 (MB/s)",
        "job latency (s)",
    ]);
    let points: &[(&str, f64, f64)] = if smoke() {
        &[("2MB", 1.0, 1.0), ("8MB 32fps", 4.0, 4.0)]
    } else {
        &[
            ("0.5MB", 0.25, 1.0),
            ("1MB", 0.5, 1.0),
            ("2MB", 1.0, 1.0),
            ("4MB", 2.0, 1.0),
            ("8MB", 4.0, 1.0),
            ("8MB 16fps", 4.0, 2.0),
            ("8MB 32fps", 4.0, 4.0),
        ]
    };
    let cells: Vec<(Scenario, &str, f64, f64)> =
        [Scenario::StationaryItems, Scenario::MovingPeople]
            .into_iter()
            .flat_map(|s| {
                points
                    .iter()
                    .map(move |&(label, scale, rate)| (s, label, scale, rate))
            })
            .collect();
    let configs: Vec<ExperimentConfig> = cells
        .iter()
        .map(|&(scenario, _, scale, rate)| {
            ExperimentConfig::scenario(scenario)
                .platform(Platform::HiveMind)
                .input_scale(scale)
                .rate_scale(rate)
                .seed(1)
        })
        .collect();
    for (&(scenario, label, _, _), o) in cells.iter().zip(report.run_configs(&configs)) {
        table.row([
            scenario.label().to_string(),
            label.to_string(),
            format!("{:.1}", o.bandwidth.mean_mbps),
            format!("{:.1}", o.bandwidth.p99_mbps),
            format!("{:.1}", o.mission.duration_secs),
        ]);
    }
    table.print();
    println!("(paper: even at max resolution and 32 fps HiveMind keeps the links unsaturated)");

    banner(
        "Figure 17b: bandwidth + tail latency vs swarm size (simulated; links scale with swarm)",
    );
    let mut sizes = if smoke() {
        vec![16u32, 48]
    } else {
        vec![16u32, 32, 64, 128, 256, 512, 1024, 2048, 4096]
    };
    if full_fidelity() {
        // The serverless-edge headline sizes; each is one run on one
        // core, so the largest point bounds the wall clock.
        sizes.extend([8192, 100_000, 1_000_000]);
    }
    let mut table = Table::new([
        "drones",
        "hivemind bw (MB/s)",
        "hivemind job (s)",
        "hivemind done",
        "centralized bw (MB/s)",
        "centralized job (s)",
        "centralized done",
    ]);
    // Keep per-device cloud capacity at the testbed's ratio (12 servers
    // per 16 drones), as the paper scales its links. The centralized
    // baseline hits its scheduler/network wall well before the largest
    // sizes; cap its sweep so the harness stays fast (the divergence is
    // already unambiguous).
    let scaled = |platform: Platform, devices: u32| {
        ExperimentConfig::scenario(Scenario::StationaryItems)
            .platform(platform)
            .devices(devices)
            .servers((devices * 3 / 4).max(12))
            .seed(1)
    };
    let hm_configs: Vec<ExperimentConfig> = sizes
        .iter()
        .map(|&d| scaled(Platform::HiveMind, d))
        .collect();
    let cen_sizes: Vec<u32> = sizes.iter().copied().filter(|&d| d <= 1024).collect();
    let cen_configs: Vec<ExperimentConfig> = cen_sizes
        .iter()
        .map(|&d| scaled(Platform::CentralizedFaaS, d))
        .collect();
    let hm_outcomes = report.run_configs(&hm_configs);
    let cen_outcomes = report.run_configs(&cen_configs);
    for (&devices, hm) in sizes.iter().zip(&hm_outcomes) {
        let cen = match cen_sizes.iter().position(|&d| d == devices) {
            Some(i) => {
                let o = &cen_outcomes[i];
                (
                    format!("{:.1}", o.bandwidth.mean_mbps),
                    format!("{:.1}", o.mission.duration_secs),
                    o.mission.completed.to_string(),
                )
            }
            None => ("-".into(), "-".into(), "-".into()),
        };
        table.row([
            devices.to_string(),
            format!("{:.1}", hm.bandwidth.mean_mbps),
            format!("{:.1}", hm.mission.duration_secs),
            hm.mission.completed.to_string(),
            cen.0,
            cen.1,
            cen.2,
        ]);
    }
    table.print();
    println!("(paper: HiveMind's bandwidth grows much slower than the device count, while the");
    println!(" centralized system grows linearly and collapses)");
}
