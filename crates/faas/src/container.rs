//! Container lifecycle: cold starts, warm starts, keep-alive pools.
//!
//! OpenWhisk instantiates each function in a Docker container. Starting a
//! fresh container ("cold start") costs on the order of 100–300 ms;
//! re-entering an idle container kept alive from a previous invocation of
//! the same function ("warm start") costs single-digit milliseconds.
//! HiveMind's scheduler deliberately keeps idling containers alive for an
//! empirically chosen 10–30 s window (Sec. 4.3) so short-lived edge tasks
//! mostly hit warm containers.

use hivemind_sim::dist::Dist;
use hivemind_sim::time::{SimDuration, SimTime};
use rand::Rng;

use crate::types::AppId;

/// Instantiation cost calibration.
#[derive(Debug, Clone, PartialEq)]
pub struct ContainerParams {
    /// Cold-start latency (image setup + docker run + runtime boot).
    pub cold_start: Dist,
    /// Warm-start latency (unpause + dispatch into a kept-alive container).
    pub warm_start: Dist,
    /// How long an idle container is kept before termination.
    pub keep_alive: SimDuration,
}

impl ContainerParams {
    /// Default OpenWhisk-like behaviour: containers are reclaimed quickly
    /// once idle, so low-rate workloads keep paying cold starts (the
    /// paper's Fig. 6a observation), and even a "warm" dispatch pays a
    /// Docker unpause + runtime re-init on the order of tens of
    /// milliseconds — the source of Fig. 6b's ~22% instantiation share.
    pub fn openwhisk_default() -> Self {
        ContainerParams {
            cold_start: Dist::lognormal_median_sigma(0.120, 0.35),
            warm_start: Dist::lognormal_median_sigma(0.055, 0.30),
            keep_alive: SimDuration::from_secs(2),
        }
    }

    /// HiveMind's policy: idle containers linger 10–30 s (we use the
    /// middle of the paper's empirical range) and are kept *running*
    /// rather than paused, so re-dispatch is single-digit milliseconds —
    /// "most benefits come from HiveMind avoiding instantiation
    /// overheads" (Sec. 5.1).
    pub fn hivemind() -> Self {
        ContainerParams {
            warm_start: Dist::lognormal_median_sigma(0.008, 0.30),
            keep_alive: SimDuration::from_secs(20),
            ..Self::openwhisk_default()
        }
    }
}

/// Pool of idle (kept-alive) containers across the cluster.
///
/// Containers are keyed by `(server, app)`; each entry records when the
/// container expires. Expiry is evaluated lazily at lookup time, which is
/// exact because reuse only matters at lookup instants.
///
/// # Examples
///
/// ```rust
/// use hivemind_faas::container::{ContainerParams, WarmPool};
/// use hivemind_faas::types::AppId;
/// use hivemind_sim::time::{SimDuration, SimTime};
///
/// let mut pool = WarmPool::new(ContainerParams::hivemind());
/// pool.park(SimTime::ZERO, 3, AppId(1));
/// // Ten seconds later the container is still warm (20 s keep-alive)...
/// assert!(pool.try_take(SimTime::from_secs(10), 3, AppId(1)));
/// // ...and taking it removed it from the pool.
/// assert!(!pool.try_take(SimTime::from_secs(10), 3, AppId(1)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct WarmPool {
    params: ContainerParams,
    /// Per-app pools, indexed by `AppId` (ids are dense registration
    /// indices).
    apps: Vec<AppPool>,
    warm_hits: u64,
    cold_misses: u64,
    /// Bitset words `warm_server` has examined (cost tests only).
    #[cfg(test)]
    scan_words: std::cell::Cell<u64>,
}

/// One app's idle containers, dense by server id. Slots are never
/// shrunk — an emptied server keeps its `Vec`'s capacity — so
/// steady-state park/take cycles stay off the allocator.
#[derive(Debug, Clone, Default)]
struct AppPool {
    /// server -> expiry times of its idle containers.
    idle: Vec<Vec<SimTime>>,
    /// server -> latest expiry among `idle[server]` (meaningful only
    /// while the server's `live` bit is set).
    latest: Vec<SimTime>,
    /// Bit `s` is set iff `idle[s]` is non-empty, so `warm_server` skips
    /// 64 empty servers per word instead of walking them one by one.
    live: Vec<u64>,
}

impl AppPool {
    fn set_live(&mut self, server: usize, on: bool) {
        let (word, bit) = (server / 64, 1u64 << (server % 64));
        if on {
            self.live[word] |= bit;
        } else {
            self.live[word] &= !bit;
        }
    }
}

impl Default for ContainerParams {
    fn default() -> Self {
        ContainerParams::openwhisk_default()
    }
}

impl WarmPool {
    /// Creates an empty pool with the given lifecycle parameters.
    pub fn new(params: ContainerParams) -> Self {
        WarmPool {
            params,
            ..WarmPool::default()
        }
    }

    /// The lifecycle parameters.
    pub fn params(&self) -> &ContainerParams {
        &self.params
    }

    /// Parks a just-finished container as idle on `server`, eligible for
    /// reuse until the keep-alive window expires.
    pub fn park(&mut self, now: SimTime, server: u32, app: AppId) {
        let expiry = now + self.params.keep_alive;
        let a = app.0 as usize;
        if self.apps.len() <= a {
            self.apps.resize_with(a + 1, AppPool::default);
        }
        let pool = &mut self.apps[a];
        let s = server as usize;
        if pool.idle.len() <= s {
            pool.idle.resize_with(s + 1, Vec::new);
            pool.latest.resize(s + 1, SimTime::ZERO);
            pool.live.resize(s / 64 + 1, 0);
        }
        let expiries = &mut pool.idle[s];
        pool.latest[s] = if expiries.is_empty() {
            expiry
        } else {
            pool.latest[s].max(expiry)
        };
        expiries.push(expiry);
        pool.set_live(s, true);
    }

    /// Attempts to take a warm container for `app` on `server`. Returns
    /// `true` on a warm hit (and consumes the container).
    pub fn try_take(&mut self, now: SimTime, server: u32, app: AppId) -> bool {
        let s = server as usize;
        let mut hit = false;
        if let Some(pool) = self.apps.get_mut(app.0 as usize) {
            if let Some(expiries) = pool.idle.get_mut(s) {
                expiries.retain(|&e| e > now);
                hit = expiries.pop().is_some();
                match expiries.iter().copied().max() {
                    Some(latest) => pool.latest[s] = latest,
                    None => pool.set_live(s, false),
                }
            }
        }
        if hit {
            self.warm_hits += 1;
        } else {
            self.cold_misses += 1;
        }
        hit
    }

    /// Drops every idle container on `server` (the server crashed; its
    /// containers died with it).
    pub fn flush_server(&mut self, server: u32) {
        let s = server as usize;
        for pool in &mut self.apps {
            if let Some(expiries) = pool.idle.get_mut(s) {
                expiries.clear();
                pool.set_live(s, false);
            }
        }
    }

    /// Any server holding a warm container for `app` at `now`, if one
    /// exists (used by schedulers to steer invocations toward warm nodes).
    ///
    /// Returns the lowest such server id: the first live bit, in
    /// ascending order, whose latest expiry is still ahead of `now`.
    /// Servers whose containers all expired untaken keep their bit (they
    /// are reaped by `try_take`/`flush_server`) and are skipped here.
    pub fn warm_server(&self, now: SimTime, app: AppId) -> Option<u32> {
        let pool = self.apps.get(app.0 as usize)?;
        for (w, &word) in pool.live.iter().enumerate() {
            #[cfg(test)]
            self.scan_words.set(self.scan_words.get() + 1);
            let mut bits = word;
            while bits != 0 {
                let s = w * 64 + bits.trailing_zeros() as usize;
                if pool.latest[s] > now {
                    return Some(s as u32);
                }
                bits &= bits - 1;
            }
        }
        None
    }

    /// Samples the instantiation latency for a hit/miss.
    pub fn instantiation_cost<R: Rng + ?Sized>(&self, warm: bool, rng: &mut R) -> SimDuration {
        if warm {
            self.params.warm_start.sample(rng)
        } else {
            self.params.cold_start.sample(rng)
        }
    }

    /// `(warm_hits, cold_misses)` since construction.
    pub fn hit_stats(&self) -> (u64, u64) {
        (self.warm_hits, self.cold_misses)
    }

    /// Number of currently idle (non-expired) containers.
    pub fn idle_count(&self, now: SimTime) -> usize {
        self.apps
            .iter()
            .flat_map(|pool| &pool.idle)
            .map(|v| v.iter().filter(|&&e| e > now).count())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hivemind_sim::rng::RngForge;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn warm_within_keepalive_cold_after() {
        let mut p = WarmPool::new(ContainerParams::hivemind());
        p.park(SimTime::ZERO, 0, AppId(0));
        assert!(p.try_take(SimTime::from_secs(19), 0, AppId(0)));
        p.park(SimTime::ZERO, 0, AppId(0));
        assert!(!p.try_take(SimTime::from_secs(21), 0, AppId(0)));
        assert_eq!(p.hit_stats(), (1, 1));
    }

    #[test]
    fn containers_are_per_server_and_app() {
        let mut p = WarmPool::new(ContainerParams::hivemind());
        p.park(SimTime::ZERO, 0, AppId(0));
        assert!(
            !p.try_take(SimTime::from_secs(1), 1, AppId(0)),
            "wrong server"
        );
        assert!(!p.try_take(SimTime::from_secs(1), 0, AppId(1)), "wrong app");
        assert!(p.try_take(SimTime::from_secs(1), 0, AppId(0)));
    }

    #[test]
    fn warm_server_lookup() {
        let mut p = WarmPool::new(ContainerParams::hivemind());
        assert_eq!(p.warm_server(SimTime::ZERO, AppId(0)), None);
        p.park(SimTime::ZERO, 5, AppId(0));
        assert_eq!(p.warm_server(SimTime::from_secs(1), AppId(0)), Some(5));
        assert_eq!(p.warm_server(SimTime::from_secs(100), AppId(0)), None);
    }

    #[test]
    fn instantiation_costs_are_order_of_magnitude_apart() {
        let p = WarmPool::new(ContainerParams::openwhisk_default());
        let mut rng = RngForge::new(1).stream("inst");
        let warm: f64 = (0..200)
            .map(|_| p.instantiation_cost(true, &mut rng).as_secs_f64())
            .sum::<f64>()
            / 200.0;
        let cold: f64 = (0..200)
            .map(|_| p.instantiation_cost(false, &mut rng).as_secs_f64())
            .sum::<f64>()
            / 200.0;
        assert!(cold > warm * 1.8, "cold {cold} vs warm {warm}");
        assert!(cold > 0.08 && cold < 0.30, "cold {cold}");
        // HiveMind's running containers re-dispatch an order of magnitude
        // faster than OpenWhisk's paused ones.
        let hm = WarmPool::new(ContainerParams::hivemind());
        let hm_warm: f64 = (0..200)
            .map(|_| hm.instantiation_cost(true, &mut rng).as_secs_f64())
            .sum::<f64>()
            / 200.0;
        assert!(warm > hm_warm * 5.0, "ow warm {warm} vs hm warm {hm_warm}");
    }

    #[test]
    fn openwhisk_keepalive_shorter_than_hivemind() {
        assert!(
            ContainerParams::openwhisk_default().keep_alive
                < ContainerParams::hivemind().keep_alive
        );
        // The paper gives 10–30 s for HiveMind's empirical setting.
        let ka = ContainerParams::hivemind().keep_alive.as_secs_f64();
        assert!((10.0..=30.0).contains(&ka));
    }

    /// After 10k park/take cycles that leave nearly every server empty,
    /// `warm_server` still examines at most one bitset word per 64
    /// servers plus one — never a per-server walk over drained servers.
    #[test]
    fn warm_server_scans_words_not_servers() {
        const SERVERS: u32 = 1536;
        let mut p = WarmPool::new(ContainerParams::hivemind());
        let app = AppId(0);
        p.park(SimTime::ZERO, SERVERS - 1, app);
        let max_words = 1 + SERVERS as u64 / 64;
        for i in 0..10_000u64 {
            let now = SimTime::from_nanos(i * 1_000);
            let server = (i * 7919 % (SERVERS as u64 - 1)) as u32;
            p.park(now, server, app);
            assert!(p.try_take(now, server, app));
            p.scan_words.set(0);
            assert_eq!(p.warm_server(now, app), Some(SERVERS - 1));
            assert!(
                p.scan_words.get() <= max_words,
                "scanned {} words, bound {max_words}",
                p.scan_words.get()
            );
        }
    }

    #[test]
    fn idle_count_respects_expiry() {
        let mut p = WarmPool::new(ContainerParams::hivemind());
        p.park(SimTime::ZERO, 0, AppId(0));
        p.park(SimTime::ZERO, 1, AppId(1));
        assert_eq!(p.idle_count(SimTime::from_secs(1)), 2);
        assert_eq!(p.idle_count(SimTime::from_secs(25)), 0);
    }

    proptest! {
        /// `warm_server` equals a brute-force search for the lowest
        /// server holding an idle container of the app that is still
        /// live, under any mix of parks, takes, crash flushes and clock
        /// advances.
        #[test]
        fn warm_server_matches_brute_force(
            ops in prop::collection::vec((0u32..11, 0u32..150, 0u16..3, 0u64..8_000), 1..400),
        ) {
            let mut pool = WarmPool::new(ContainerParams::hivemind());
            let keep_alive = pool.params().keep_alive;
            // (server, app) -> expiries, in park order.
            let mut reference: BTreeMap<(u32, u16), Vec<SimTime>> = BTreeMap::new();
            let mut now = SimTime::ZERO;
            for (kind, s, a, ms) in ops {
                match kind {
                    // Park : take : flush : advance = 4 : 4 : 1 : 2.
                    0..=3 => {
                        pool.park(now, s, AppId(a));
                        reference.entry((s, a)).or_default().push(now + keep_alive);
                    }
                    4..=7 => {
                        let hit = reference.get_mut(&(s, a)).is_some_and(|v| {
                            v.retain(|&e| e > now);
                            v.pop().is_some()
                        });
                        prop_assert_eq!(pool.try_take(now, s, AppId(a)), hit);
                    }
                    8 => {
                        pool.flush_server(s);
                        reference.retain(|&(rs, _), _| rs != s);
                    }
                    _ => now += SimDuration::from_millis(ms),
                }
                for a in 0..3u16 {
                    let brute = reference
                        .iter()
                        .filter(|(&(_, ra), v)| ra == a && v.iter().any(|&e| e > now))
                        .map(|(&(s, _), _)| s)
                        .min();
                    prop_assert_eq!(pool.warm_server(now, AppId(a)), brute);
                }
            }
        }
    }
}
