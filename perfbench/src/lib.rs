//! End-to-end and per-layer benchmark of the HiveMind simulator.
//!
//! Four named workloads exercise the workspace's layers differently (see
//! `README.md`). Each run repeats one workload for a fixed host time,
//! checks every outcome, and reports either the end-to-end metrics
//! (untraced) or the per-layer metrics (traced, with spans around every
//! call the benchmark makes into the program).

pub mod adapter;
pub mod host;
pub mod run;
pub mod spans;
pub mod workload;

pub use run::{gate, result_json, run, Metric, Options, Report};
pub use workload::{Size, Workload};
