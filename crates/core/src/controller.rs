//! The centralized HiveMind controller (Secs. 4.2, 4.3, 4.6).
//!
//! "The controller consists of a load balancer, which partitions the
//! available work across all devices, an interface to the scheduler …, an
//! interface to communicate to the edge devices, and a monitoring system."
//! This module implements the swarm-facing half: work partitioning,
//! heartbeat-based failure detection with geometric load repartitioning
//! (Fig. 10), and the shared-state scheduler sharding that keeps the
//! centralized design scalable (Sec. 4.3's multi-scheduler escape hatch).

use hivemind_sim::faults;
use hivemind_sim::time::{SimDuration, SimTime};
use hivemind_swarm::failover::{try_assign_rect, try_repartition, FailoverError, HeartbeatTracker};
use hivemind_swarm::geometry::{partition_field, Rect};

/// Timeline of one primary-controller failover (Sec. 4.6: the controller
/// itself heartbeats a warm standby; on 3 s of silence the backup takes
/// over with the replicated swarm state).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerFailover {
    /// When the primary died.
    pub failed_at: SimTime,
    /// When the backup declared it dead (after the 3 s detection window).
    pub detected_at: SimTime,
    /// When the backup finished taking over and service resumed.
    pub resumed_at: SimTime,
    /// Index of the controller instance now acting as primary.
    pub new_primary: u32,
}

/// Controller-side view of the swarm's work assignment.
#[derive(Debug, Clone)]
pub struct SwarmController {
    field: Rect,
    regions: Vec<Rect>,
    /// Extra sub-regions inherited from failed devices.
    extra: Vec<Vec<Rect>>,
    alive: Vec<bool>,
    heartbeats: HeartbeatTracker,
    /// Scheduler shards (1 = single centralized scheduler).
    shards: u32,
    /// Which controller instance is currently primary (0 at start; each
    /// failover promotes the next warm standby).
    primary: u32,
    /// Completed failovers, oldest first.
    failovers: Vec<ControllerFailover>,
    /// When a device dies, also re-home the strips it had *inherited*
    /// from earlier failovers (off by default: the historical behaviour
    /// silently drops them, and existing experiment goldens pin it).
    redistribute_orphans: bool,
}

impl SwarmController {
    /// Partitions `field` among `devices` and starts heartbeat tracking.
    ///
    /// # Panics
    ///
    /// Panics if `devices == 0`.
    pub fn new(field: Rect, devices: u32) -> SwarmController {
        assert!(devices > 0, "need at least one device");
        SwarmController::try_new(field, devices).expect("validated above")
    }

    /// Fallible [`SwarmController::new`]: rejects an empty fleet as a
    /// value so fault-injected and model-checked configurations can
    /// treat it as an explorable outcome.
    pub fn try_new(field: Rect, devices: u32) -> Result<SwarmController, FailoverError> {
        if devices == 0 {
            return Err(FailoverError::EmptyFleet);
        }
        Ok(SwarmController {
            regions: partition_field(&field, devices),
            extra: vec![Vec::new(); devices as usize],
            alive: vec![true; devices as usize],
            heartbeats: HeartbeatTracker::new(devices),
            field,
            shards: 1,
            primary: 0,
            failovers: Vec::new(),
            redistribute_orphans: false,
        })
    }

    /// Also re-home inherited strips when their holder dies, so no area
    /// is silently lost across chained failovers. The model-checking
    /// lane proved the default drops them (task-conservation
    /// counterexample); the fix is opt-in because existing experiment
    /// goldens pin the historical assignments.
    pub fn with_orphan_redistribution(mut self) -> SwarmController {
        self.redistribute_orphans = true;
        self
    }

    /// The mission field.
    pub fn field(&self) -> Rect {
        self.field
    }

    /// The initial region assigned to `device`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn region_of(&self, device: u32) -> Rect {
        self.regions[device as usize]
    }

    /// Fallible [`SwarmController::region_of`].
    pub fn try_region_of(&self, device: u32) -> Result<Rect, FailoverError> {
        self.regions
            .get(device as usize)
            .copied()
            .ok_or(FailoverError::DeviceOutOfRange {
                device,
                fleet: self.regions.len() as u32,
            })
    }

    /// All regions currently assigned to `device` (initial + inherited).
    pub fn assignment_of(&self, device: u32) -> Vec<Rect> {
        let mut out = vec![self.regions[device as usize]];
        out.extend(self.extra[device as usize].iter().copied());
        out
    }

    /// Whether a device is still alive.
    pub fn is_alive(&self, device: u32) -> bool {
        self.alive[device as usize]
    }

    /// Number of live devices.
    pub fn alive_count(&self) -> u32 {
        self.alive.iter().filter(|&&a| a).count() as u32
    }

    /// Records a heartbeat.
    pub fn heartbeat(&mut self, device: u32, now: SimTime) {
        self.heartbeats.beat(device, now);
    }

    /// Records a heartbeat, rejecting unknown ids instead of panicking.
    pub fn try_heartbeat(&mut self, device: u32, now: SimTime) -> Result<(), FailoverError> {
        self.heartbeats.try_beat(device, now)
    }

    /// Checks for newly failed devices at `now`; for each, repartitions
    /// its area among live neighbours and returns `(failed_device,
    /// inherited_assignments)` pairs.
    pub fn check_failures(&mut self, now: SimTime) -> Vec<(u32, Vec<(u32, Rect)>)> {
        let failed_now: Vec<u32> = self
            .heartbeats
            .failed_at(now)
            .into_iter()
            .filter(|&d| self.alive[d as usize])
            .collect();
        let mut out = Vec::new();
        for dev in failed_now {
            self.alive[dev as usize] = false;
            if self.alive_count() == 0 {
                out.push((dev, Vec::new()));
                continue;
            }
            // A fault storm can leave no survivor to absorb the area; the
            // mission simply loses it (graceful degradation, not a panic).
            let extra = self.inherit_from(dev as usize).unwrap_or_default();
            out.push((dev, extra));
        }
        out
    }

    /// Shared tail of both failure paths: hands the dead device's
    /// initial region to live neighbours and — when orphan
    /// redistribution is on — re-homes every strip the device had
    /// inherited from earlier failovers instead of dropping it.
    fn inherit_from(&mut self, dev: usize) -> Result<Vec<(u32, Rect)>, FailoverError> {
        let mut extra = try_repartition(&self.regions, &self.alive, dev)?;
        if self.redistribute_orphans {
            for orphan in std::mem::take(&mut self.extra[dev]) {
                extra.extend(try_assign_rect(&orphan, &self.regions, &self.alive, dev)?);
            }
        }
        for &(heir, rect) in &extra {
            self.extra[heir].push(rect);
        }
        Ok(extra.into_iter().map(|(d, r)| (d as u32, r)).collect())
    }

    /// Declares `device` failed immediately (the same path
    /// [`SwarmController::check_failures`] takes after a 3 s heartbeat
    /// silence — used when the failure instant is known, e.g. injected
    /// faults in experiments) and repartitions its area among live
    /// neighbours. Returns the `(heir, strip)` assignments.
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range or it is the last live device;
    /// use [`SwarmController::try_force_fail`] when fault injection may
    /// produce either.
    pub fn force_fail(&mut self, device: u32) -> Vec<(u32, Rect)> {
        assert!((device as usize) < self.alive.len(), "device out of range");
        assert!(
            !self.alive[device as usize] || self.alive_count() > 1,
            "cannot fail the last device"
        );
        self.try_force_fail(device).expect("validated above")
    }

    /// Fallible [`SwarmController::force_fail`]: rejects unknown ids and
    /// killing the last survivor instead of panicking, so injected fault
    /// storms degrade gracefully.
    pub fn try_force_fail(&mut self, device: u32) -> Result<Vec<(u32, Rect)>, FailoverError> {
        if (device as usize) >= self.alive.len() {
            return Err(FailoverError::DeviceOutOfRange {
                device,
                fleet: self.alive.len() as u32,
            });
        }
        if !self.alive[device as usize] {
            return Ok(Vec::new());
        }
        if self.alive_count() == 1 {
            return Err(FailoverError::NoSurvivors);
        }
        self.alive[device as usize] = false;
        self.inherit_from(device as usize)
    }

    /// The controller instance currently acting as primary.
    pub fn primary(&self) -> u32 {
        self.primary
    }

    /// Completed primary failovers, oldest first.
    pub fn failovers(&self) -> &[ControllerFailover] {
        &self.failovers
    }

    /// Kills the primary controller at `at`. The warm standby detects the
    /// silence after the paper's 3 s heartbeat window
    /// ([`faults::DETECTION_WINDOW`]) and resumes service `takeover`
    /// later (state re-sync + scheduler restart). Returns the failover
    /// timeline; swarm state survives because the standby replicates it.
    pub fn fail_primary(&mut self, at: SimTime, takeover: SimDuration) -> ControllerFailover {
        let detected_at = at + faults::DETECTION_WINDOW;
        let fo = ControllerFailover {
            failed_at: at,
            detected_at,
            resumed_at: detected_at + takeover,
            new_primary: self.primary + 1,
        };
        self.primary += 1;
        self.failovers.push(fo);
        // Takeover grace: heartbeats sent during the outage were lost
        // with the dead primary, so without re-arming the tracker every
        // device would look silent for longer than the 3 s window the
        // moment the standby resumes, and the whole fleet would be
        // spuriously declared failed (found by the model-checking lane).
        for d in 0..self.alive.len() as u32 {
            let stale = self
                .heartbeats
                .last_beat(d)
                .is_none_or(|t| t < fo.resumed_at);
            if self.alive[d as usize] && stale {
                let _ = self.heartbeats.try_beat(d, fo.resumed_at);
            }
        }
        fo
    }

    /// Reconnect reconciliation at a partition heal: every live device's
    /// stale heartbeat is re-armed from `heal`, exactly as
    /// [`SwarmController::fail_primary`] re-arms after a takeover.
    /// Beats sent during the partition never reached the controller, so
    /// without this grace the first failure check after heal would read
    /// the partition's silence as fleet-wide device death and double-
    /// assign every strip to heirs while the original owners are still
    /// flying. A device that is genuinely dead stays silent *after* the
    /// heal too, so it is still detected — one window later, never
    /// spuriously. Returns how many devices were re-armed.
    pub fn reconcile_reconnect(&mut self, heal: SimTime) -> u32 {
        let mut rearmed = 0;
        for d in 0..self.alive.len() as u32 {
            let stale = self.heartbeats.last_beat(d).is_none_or(|t| t < heal);
            if self.alive[d as usize] && stale {
                let _ = self.heartbeats.try_beat(d, heal);
                rearmed += 1;
            }
        }
        rearmed
    }

    /// Configures scheduler sharding: with `n` shards each scheduler owns
    /// `1/n` of the task stream but keeps global visibility (Omega-style
    /// shared state).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn set_scheduler_shards(&mut self, n: u32) {
        assert!(n > 0, "need at least one scheduler shard");
        self.shards = n;
    }

    /// The shard responsible for a task id.
    pub fn shard_of(&self, task: u64) -> u32 {
        (task % self.shards as u64) as u32
    }

    /// Scheduler decision throughput model: a single shard sustains
    /// `base_rate` decisions/s; shards scale near-linearly with a small
    /// shared-state conflict penalty (Sec. 4.3 cites Omega/Tarcil-style
    /// designs).
    pub fn scheduler_capacity(&self, base_rate: f64) -> f64 {
        let n = self.shards as f64;
        base_rate * n * (1.0 - 0.03 * (n - 1.0)).max(0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hivemind_sim::time::SimDuration;

    fn controller() -> SwarmController {
        SwarmController::new(Rect::new(0.0, 0.0, 120.0, 80.0), 16)
    }

    #[test]
    fn partitions_cover_field() {
        let c = controller();
        let total: f64 = (0..16).map(|d| c.region_of(d).area()).sum();
        assert!((total - c.field().area()).abs() < 1e-6);
    }

    #[test]
    fn failure_reassigns_area_to_neighbors() {
        let mut c = controller();
        // Everyone beats except device 5.
        for t in 0..10 {
            for d in 0..16 {
                if d != 5 {
                    c.heartbeat(d, SimTime::from_secs(t));
                }
            }
        }
        let events = c.check_failures(SimTime::from_secs(10));
        assert_eq!(events.len(), 1);
        let (dev, extra) = &events[0];
        assert_eq!(*dev, 5);
        assert!(!c.is_alive(5));
        assert_eq!(c.alive_count(), 15);
        let inherited: f64 = extra.iter().map(|(_, r)| r.area()).sum();
        assert!((inherited - c.region_of(5).area()).abs() < 1e-6);
        // Heirs actually track the extra area.
        for (heir, rect) in extra {
            assert!(c.assignment_of(*heir).contains(rect));
        }
    }

    #[test]
    fn failure_is_reported_once() {
        let mut c = controller();
        for t in 1..=4 {
            for d in 1..16 {
                c.heartbeat(d, SimTime::from_secs(t));
            }
        }
        let first = c.check_failures(SimTime::from_secs(5));
        assert_eq!(first.len(), 1, "only device 0 went silent");
        // Device 0 is not re-reported, and fresh beats keep others alive.
        for d in 1..16 {
            c.heartbeat(d, SimTime::from_secs(6));
        }
        let second = c.check_failures(SimTime::from_secs(6));
        assert!(second.is_empty(), "already handled");
    }

    #[test]
    fn no_failures_before_timeout() {
        let mut c = controller();
        for d in 0..16 {
            c.heartbeat(d, SimTime::from_secs(1));
        }
        assert!(c
            .check_failures(SimTime::from_secs(1) + SimDuration::from_secs(3))
            .is_empty());
    }

    #[test]
    fn force_fail_matches_heartbeat_path() {
        let mut c = controller();
        let extra = c.force_fail(5);
        assert!(!c.is_alive(5));
        assert_eq!(c.alive_count(), 15);
        let inherited: f64 = extra.iter().map(|(_, r)| r.area()).sum();
        assert!((inherited - c.region_of(5).area()).abs() < 1e-6);
        // Idempotent.
        assert!(c.force_fail(5).is_empty());
    }

    #[test]
    fn try_force_fail_degrades_gracefully() {
        let mut c = SwarmController::new(Rect::new(0.0, 0.0, 10.0, 10.0), 2);
        assert!(matches!(
            c.try_force_fail(9),
            Err(FailoverError::DeviceOutOfRange {
                device: 9,
                fleet: 2
            })
        ));
        assert!(c.try_force_fail(0).is_ok());
        // Killing the last survivor is refused, not a panic.
        assert_eq!(c.try_force_fail(1), Err(FailoverError::NoSurvivors));
        assert!(c.is_alive(1));
        // Already-dead devices stay a graceful no-op.
        assert_eq!(c.try_force_fail(0), Ok(Vec::new()));
    }

    #[test]
    fn primary_failover_follows_detection_window() {
        let mut c = controller();
        assert_eq!(c.primary(), 0);
        let fo = c.fail_primary(SimTime::from_secs(20), SimDuration::from_millis(500));
        assert_eq!(fo.detected_at, SimTime::from_secs(23));
        assert_eq!(
            fo.resumed_at,
            SimTime::from_secs(23) + SimDuration::from_millis(500)
        );
        assert_eq!(fo.new_primary, 1);
        assert_eq!(c.primary(), 1);
        assert_eq!(c.failovers().len(), 1);
        // Swarm state survives the failover (warm standby replication).
        assert_eq!(c.alive_count(), 16);
    }

    #[test]
    fn orphan_redistribution_conserves_area_across_chained_failovers() {
        let field = Rect::new(0.0, 0.0, 40.0, 10.0);
        let live_area = |c: &SwarmController| -> f64 {
            (0..4)
                .filter(|&d| c.is_alive(d))
                .flat_map(|d| c.assignment_of(d))
                .map(|r| r.area())
                .sum()
        };

        // Historical default: device 1 inherits part of 0's region, then
        // dies itself; its inherited strip vanishes with it.
        let mut legacy = SwarmController::new(field, 4);
        legacy.force_fail(0);
        let inherited: f64 = legacy.extra[1].iter().map(|r| r.area()).sum();
        assert!(inherited > 0.0, "device 1 neighbours device 0");
        legacy.force_fail(1);
        assert!(
            (field.area() - live_area(&legacy) - inherited).abs() < 1e-9,
            "legacy drops exactly the inherited strip"
        );

        // With redistribution on, the second failover re-homes the strip
        // and the live assignment always tiles the whole field.
        let mut fixed = SwarmController::new(field, 4).with_orphan_redistribution();
        fixed.force_fail(0);
        fixed.force_fail(1);
        assert!((live_area(&fixed) - field.area()).abs() < 1e-9);
        assert!(fixed.extra[1].is_empty(), "nothing left on the dead device");
    }

    #[test]
    fn takeover_grace_prevents_spurious_fleet_death() {
        let mut c = controller();
        for d in 0..16 {
            c.heartbeat(d, SimTime::from_secs(1));
        }
        // Primary dies at t = 2 s; detection (3 s) + takeover (0.5 s)
        // resumes service at t = 5.5 s. Beats sent meanwhile were lost
        // with the dead primary.
        let fo = c.fail_primary(SimTime::from_secs(2), SimDuration::from_millis(500));
        // First check after resumption: more than 3 s since anyone's
        // last *recorded* beat, but nobody actually crashed.
        let first_check = fo.resumed_at + SimDuration::from_secs(1);
        assert!(
            c.check_failures(first_check).is_empty(),
            "outage silence must not read as device failures"
        );
        assert_eq!(c.alive_count(), 16);
        // The window re-arms from the takeover: a device silent for
        // > 3 s after resumption is still detected.
        let late = fo.resumed_at + SimDuration::from_secs(4);
        for d in 1..16 {
            c.heartbeat(d, late);
        }
        let failed = c.check_failures(late);
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].0, 0);
    }

    #[test]
    fn reconnect_reconciliation_prevents_double_assignment() {
        let mut c = controller();
        for d in 0..16 {
            c.heartbeat(d, SimTime::from_secs(1));
        }
        // A 30 s partition: no beat reaches the controller. A naive
        // failure check at heal would declare all 16 devices dead and
        // hand every strip to (equally dead) heirs.
        let heal = SimTime::from_secs(31);
        let rearmed = c.reconcile_reconnect(heal);
        assert_eq!(rearmed, 16, "every live device re-arms at heal");
        assert!(
            c.check_failures(heal).is_empty(),
            "partition silence must not read as device death"
        );
        assert_eq!(c.alive_count(), 16);
        // The window re-arms from the heal: a device that stays silent
        // afterwards is still detected, one window later.
        let late = heal + SimDuration::from_secs(4);
        for d in 1..16 {
            c.heartbeat(d, late);
        }
        let failed = c.check_failures(late);
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].0, 0);
        // Already-failed devices are not resurrected by reconciliation.
        assert_eq!(c.reconcile_reconnect(late + SimDuration::from_secs(1)), 15);
        assert!(!c.is_alive(0));
    }

    #[test]
    fn fallible_constructors_reject_bad_input() {
        assert!(matches!(
            SwarmController::try_new(Rect::new(0.0, 0.0, 1.0, 1.0), 0),
            Err(FailoverError::EmptyFleet)
        ));
        let mut c = SwarmController::new(Rect::new(0.0, 0.0, 1.0, 1.0), 2);
        assert!(c.try_heartbeat(0, SimTime::ZERO).is_ok());
        assert!(matches!(
            c.try_heartbeat(7, SimTime::ZERO),
            Err(FailoverError::DeviceOutOfRange {
                device: 7,
                fleet: 2
            })
        ));
        assert!(c.try_region_of(1).is_ok());
        assert!(c.try_region_of(2).is_err());
    }

    #[test]
    fn sharding_scales_decision_rate() {
        let mut c = controller();
        let single = c.scheduler_capacity(1000.0);
        c.set_scheduler_shards(4);
        let sharded = c.scheduler_capacity(1000.0);
        assert!(sharded > 3.0 * single, "near-linear scaling");
        assert!(sharded < 4.0 * single, "with a conflict penalty");
        // Shard assignment is stable and in range.
        for task in 0..100u64 {
            assert!(c.shard_of(task) < 4);
        }
    }
}
