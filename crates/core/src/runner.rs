//! Deterministic parallel replicate execution.
//!
//! Every distribution-style figure repeats the same experiment under
//! several derived seeds. This module centralizes that pattern:
//!
//! * [`Runner`] — a scoped thread pool that maps a list of experiment
//!   configurations (or any work items) across workers while returning
//!   results **in input order**, so output is bit-identical no matter how
//!   the OS schedules the workers.
//! * [`Runner::run_replicates`] — derives one seed per replicate from the
//!   base configuration's root seed (SplitMix64 derivation, see
//!   [`hivemind_sim::rng::replicate_seed`]) and collects the outcomes
//!   into a [`RunSet`].
//! * [`RunSet`] — per-replicate outcomes plus order-independent merged
//!   summaries, with deterministic JSON output.
//!
//! Thread count comes from `HIVEMIND_THREADS` (default: available
//! parallelism; `1` = fully sequential in the calling thread). Because
//! each replicate's simulation is a pure function of its configuration,
//! changing the thread count changes wall-clock time only — never a
//! single output byte.

use std::sync::atomic::{AtomicUsize, Ordering};

use hivemind_sim::rng::replicate_seed;
use hivemind_sim::stats::Summary;

use crate::experiment::{Experiment, ExperimentConfig};
use crate::metrics::{summary_json, BreakdownSummary, Outcome};

/// A deterministic parallel executor for experiment fan-out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Runner {
    threads: usize,
}

impl Default for Runner {
    fn default() -> Self {
        Runner::from_env()
    }
}

impl Runner {
    /// A runner honoring `HIVEMIND_THREADS` (default: available
    /// parallelism, `1` = sequential).
    pub fn from_env() -> Runner {
        Runner {
            threads: threads_from(std::env::var("HIVEMIND_THREADS").ok().as_deref()),
        }
    }

    /// A runner with an explicit worker count (clamped to at least 1).
    pub fn with_threads(threads: usize) -> Runner {
        Runner {
            threads: threads.max(1),
        }
    }

    /// The worker count this runner fans out across.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items` on up to [`Runner::threads`] scoped workers,
    /// returning results in input order.
    ///
    /// Work is distributed by an atomic cursor (work stealing), so slow
    /// items don't serialize behind fast ones; each worker tags results
    /// with their input index and the tags restore input order afterwards.
    /// The result is therefore independent of scheduling. A panic in `f`
    /// propagates to the caller.
    pub fn map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &T) -> U + Sync,
    {
        let n = items.len();
        let workers = self.threads.min(n);
        if workers <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let cursor = AtomicUsize::new(0);
        let parts: Vec<Vec<(usize, U)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            local.push((i, f(i, &items[i])));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        });
        // O(n) order restoration: every input index is produced exactly
        // once, so results drop straight into their slots — no sort.
        let mut slots: Vec<Option<U>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        for (i, u) in parts.into_iter().flatten() {
            debug_assert!(slots[i].is_none(), "index produced twice");
            slots[i] = Some(u);
        }
        slots
            .into_iter()
            .map(|s| s.expect("work-stealing cursor covers every index"))
            .collect()
    }

    /// Runs each configuration (a sweep) and returns the outcomes in
    /// configuration order.
    pub fn run_configs(&self, configs: &[ExperimentConfig]) -> Vec<Outcome> {
        self.map(configs, |_, cfg| Experiment::new(cfg.clone()).run())
    }

    /// Runs `replicates` copies of `base`, with per-replicate seeds
    /// derived from `base.seed`, and collects them into a [`RunSet`].
    pub fn run_replicates(&self, base: &ExperimentConfig, replicates: u64) -> RunSet {
        let seeds: Vec<u64> = (0..replicates)
            .map(|i| replicate_seed(base.seed, i))
            .collect();
        let configs: Vec<ExperimentConfig> = seeds.iter().map(|&s| base.clone().seed(s)).collect();
        let outcomes = self.run_configs(&configs);
        RunSet {
            root_seed: base.seed,
            seeds,
            outcomes,
        }
    }
}

/// Parses a `HIVEMIND_THREADS`-style value; `None`, empty, `0`, or
/// garbage all fall back to available parallelism.
fn threads_from(var: Option<&str>) -> usize {
    match var.and_then(|v| v.trim().parse::<usize>().ok()) {
        Some(n) if n >= 1 => n,
        _ => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// The outcomes of a replicated experiment, in replicate order.
#[derive(Debug, Clone, Default)]
pub struct RunSet {
    root_seed: u64,
    seeds: Vec<u64>,
    outcomes: Vec<Outcome>,
}

impl RunSet {
    /// Builds a run set directly from parts (replicate order).
    pub fn from_parts(root_seed: u64, seeds: Vec<u64>, outcomes: Vec<Outcome>) -> RunSet {
        assert_eq!(seeds.len(), outcomes.len(), "one seed per outcome");
        RunSet {
            root_seed,
            seeds,
            outcomes,
        }
    }

    /// The root seed the replicate seeds were derived from.
    pub fn root_seed(&self) -> u64 {
        self.root_seed
    }

    /// Per-replicate seeds, in replicate order.
    pub fn seeds(&self) -> &[u64] {
        &self.seeds
    }

    /// Per-replicate outcomes, in replicate order.
    pub fn outcomes(&self) -> &[Outcome] {
        &self.outcomes
    }

    /// Number of replicates.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// All task-latency breakdowns merged into one (order-independent).
    pub fn merged_tasks(&self) -> BreakdownSummary {
        let mut merged = BreakdownSummary::default();
        for o in &self.outcomes {
            merged.merge(&o.tasks);
        }
        merged
    }

    /// Median task latency in ms over the pooled samples.
    pub fn median_task_ms(&self) -> f64 {
        self.merged_tasks().total.median() * 1e3
    }

    /// p99 task latency in ms over the pooled samples.
    pub fn p99_task_ms(&self) -> f64 {
        self.merged_tasks().total.p99() * 1e3
    }

    /// Mission durations (seconds) across replicates.
    pub fn mission_durations(&self) -> Summary {
        self.outcomes
            .iter()
            .map(|o| o.mission.duration_secs)
            .collect()
    }

    /// Whether every replicate's mission completed.
    pub fn all_completed(&self) -> bool {
        self.outcomes.iter().all(|o| o.mission.completed)
    }

    /// Mean-of-means consumed battery percentage across replicates.
    pub fn mean_battery_pct(&self) -> f64 {
        self.outcomes
            .iter()
            .map(|o| o.battery.mean_pct)
            .collect::<Summary>()
            .mean()
    }

    /// Per-replicate traces paired with their derived seeds, for runs
    /// whose base configuration enabled tracing. Replicates without a
    /// trace (tracing disabled) are skipped.
    pub fn traces(&self) -> impl Iterator<Item = (u64, &hivemind_sim::trace::Trace)> {
        self.seeds
            .iter()
            .zip(&self.outcomes)
            .filter_map(|(&seed, o)| o.trace.as_ref().map(|t| (seed, t)))
    }

    /// Worst consumed battery percentage across all replicates.
    pub fn max_battery_pct(&self) -> f64 {
        self.outcomes
            .iter()
            .map(|o| o.battery.max_pct)
            .collect::<Summary>()
            .max()
    }

    /// Serializes the set — seeds, combined summaries, and every
    /// per-replicate outcome — as deterministic JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str(&format!(
            "{{\"root_seed\":{},\"replicates\":{},\"seeds\":[",
            self.root_seed,
            self.len()
        ));
        for (i, s) in self.seeds.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&s.to_string());
        }
        out.push_str("],\"combined\":{\"tasks_total\":");
        summary_json(&mut out, &self.merged_tasks().total);
        out.push_str(",\"mission_durations\":");
        summary_json(&mut out, &self.mission_durations());
        out.push_str("},\"outcomes\":[");
        for (i, o) in self.outcomes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&o.to_json());
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::Platform;
    use hivemind_apps::suite::App;

    fn base() -> ExperimentConfig {
        ExperimentConfig::single_app(App::WeatherAnalytics)
            .platform(Platform::CentralizedFaaS)
            .duration_secs(5.0)
            .seed(9)
    }

    #[test]
    fn threads_from_parses_and_falls_back() {
        assert_eq!(threads_from(Some("4")), 4);
        assert_eq!(threads_from(Some(" 2 ")), 2);
        assert_eq!(threads_from(Some("1")), 1);
        let default = threads_from(None);
        assert!(default >= 1);
        assert_eq!(threads_from(Some("0")), default);
        assert_eq!(threads_from(Some("lots")), default);
        assert_eq!(threads_from(Some("")), default);
    }

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<u64> = (0..97).collect();
        for threads in [1, 3, 8] {
            let out = Runner::with_threads(threads).map(&items, |i, &x| {
                assert_eq!(i as u64, x);
                x * x
            });
            let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
            assert_eq!(out, expected, "threads = {threads}");
        }
    }

    #[test]
    fn map_handles_empty_and_tiny_inputs() {
        let r = Runner::with_threads(8);
        assert_eq!(r.map(&[] as &[u64], |_, &x| x), Vec::<u64>::new());
        assert_eq!(r.map(&[7u64], |_, &x| x + 1), vec![8]);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn map_propagates_worker_panics() {
        Runner::with_threads(4).map(&[0u64, 1, 2, 3, 4, 5], |i, _| {
            if i == 3 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    fn replicates_use_distinct_derived_seeds() {
        let set = Runner::with_threads(1).run_replicates(&base(), 4);
        assert_eq!(set.len(), 4);
        assert_eq!(set.root_seed(), 9);
        let mut seeds = set.seeds().to_vec();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 4, "derived seeds are unique");
        assert!(!set.seeds().contains(&9), "replicates never reuse the root");
    }

    #[test]
    fn parallel_equals_sequential_byte_for_byte() {
        let seq = Runner::with_threads(1).run_replicates(&base(), 3);
        let par = Runner::with_threads(8).run_replicates(&base(), 3);
        assert_eq!(seq.to_json(), par.to_json());
    }

    #[test]
    fn merged_tasks_pool_every_sample() {
        let set = Runner::with_threads(2).run_replicates(&base(), 3);
        let total: usize = set.outcomes().iter().map(|o| o.tasks.len()).sum();
        assert_eq!(set.merged_tasks().len(), total);
        assert!(set.median_task_ms() > 0.0);
        assert!(set.p99_task_ms() >= set.median_task_ms());
    }
}
