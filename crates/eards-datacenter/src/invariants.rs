//! The always-on invariant auditor.
//!
//! Fault injection multiplies the state-transition paths through the
//! driver — crashes during migrations, aborts during repairs, shutdowns
//! racing armed timers. The auditor re-validates conservation properties
//! after **every** event batch so a bookkeeping bug surfaces at the event
//! that introduced it, not as a mysteriously wrong table three simulated
//! days later:
//!
//! * no VM is lost or duplicated (queued + placed + finished = admitted);
//! * only ready hosts carry VMs or operations;
//! * CPU allocations never exceed a host's effective capacity, and
//!   committed memory never exceeds its physical memory;
//! * power accounting agrees with host state (an unpowered host burns
//!   no CPU);
//! * fault timers only target hosts that are actually up (reported by the
//!   driver, which owns the timers).
//!
//! The per-host checks are proportional to what the batch changed: the
//! light pass examines only the hosts [`Cluster::drain_dirty`] reported
//! (a host no mutator touched cannot have started violating a per-host
//! invariant) plus the global, `O(hosts)` conservation counts. A full
//! light pass over every host runs every 64 batches and at the end of
//! the run, and a deep structural pass ([`Cluster::verify`]) every 256
//! batches. [`AuditorMode::Strict`] runs the full light and deep passes
//! after every batch and panics on the first violation; the CI chaos
//! smoke runs each policy under both modes and requires identical
//! reports.

use eards_model::{Cluster, HostId, ShardMap};
use eards_sim::{persist_struct, SimTime};

use crate::config::AuditorMode;

/// Batches between full light passes (every host) in [`AuditorMode::On`].
const FULL_PERIOD: u64 = 64;

/// Batches between deep [`Cluster::verify`] passes in [`AuditorMode::On`].
const DEEP_PERIOD: u64 = 256;

/// Maximum violation messages retained (the counter keeps counting).
const MAX_MESSAGES: usize = 8;

/// Validates cluster-wide conservation invariants as the run progresses.
pub struct InvariantAuditor {
    mode: AuditorMode,
    checks: u64,
    violations: u64,
    messages: Vec<String>,
    /// Rack-aligned partition to validate when the policy runs the
    /// sharded solver: the light pass additionally checks that the map
    /// still partitions the live cluster and that per-shard resident
    /// counts sum to the global placed count (no VM slips between
    /// shards). Not persisted — the runner re-derives it from the run
    /// configuration after a restore.
    shard_map: Option<ShardMap>,
    /// Per-shard resident counters, recycled across light passes.
    shard_scratch: Vec<u64>,
}

impl InvariantAuditor {
    /// Builds an auditor in the given mode.
    pub fn new(mode: AuditorMode) -> Self {
        InvariantAuditor {
            mode,
            checks: 0,
            violations: 0,
            messages: Vec::new(),
            shard_map: None,
            shard_scratch: Vec::new(),
        }
    }

    /// True unless the auditor is [`AuditorMode::Off`].
    pub fn enabled(&self) -> bool {
        self.mode != AuditorMode::Off
    }

    /// Arms (or disarms) the cross-shard conservation check. The runner
    /// calls this at construction and again after a snapshot restore,
    /// passing the same map the sharded solver partitions by.
    pub fn set_shard_map(&mut self, map: Option<ShardMap>) {
        self.shard_map = map;
    }

    /// Audit passes executed so far.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Violations detected so far.
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// The first few violation messages, for reports and debugging.
    pub fn messages(&self) -> &[String] {
        &self.messages
    }

    /// Records a violation detected outside the cluster checks (e.g. the
    /// driver's own timer bookkeeping). Panics in strict mode.
    pub fn report(&mut self, at: SimTime, msg: String) {
        let msg = format!("[{at}] {msg}");
        if self.mode == AuditorMode::Strict {
            // lint:allow(P001): strict mode exists to abort on the first violation; counting mode is the panic-free path
            panic!("invariant violated: {msg}");
        }
        self.violations += 1;
        if self.messages.len() < MAX_MESSAGES {
            self.messages.push(msg);
        }
    }

    /// Runs one audit pass after an event batch. `dirty` names the hosts
    /// the batch changed (duplicates are harmless); `finished` is the
    /// number of VMs the driver has completed (they stay in the cluster's
    /// VM table but reside nowhere).
    pub fn check(&mut self, cluster: &Cluster, dirty: &[HostId], finished: u64, at: SimTime) {
        if !self.enabled() {
            return;
        }
        self.checks += 1;
        let (full, deep) = self.cadence(self.checks);
        self.pass(cluster, (!full).then_some(dirty), deep, finished, at);
    }

    /// Which extra passes check number `n` runs: `(full light, deep)`.
    fn cadence(&self, n: u64) -> (bool, bool) {
        let strict = self.mode == AuditorMode::Strict;
        (
            strict || n.is_multiple_of(FULL_PERIOD),
            strict || n.is_multiple_of(DEEP_PERIOD),
        )
    }

    /// The closing pass at the end of a run: a full light pass and a deep
    /// pass, whatever the period counters say. Not counted in
    /// [`InvariantAuditor::checks`], which counts batches.
    pub fn finish(&mut self, cluster: &Cluster, finished: u64, at: SimTime) {
        if self.enabled() {
            self.pass(cluster, None, true, finished, at);
        }
    }

    /// Runs the light pass over `dirty` (every host when `None`), then
    /// the deep pass if asked, reporting each violation found.
    fn pass(
        &mut self,
        cluster: &Cluster,
        dirty: Option<&[HostId]>,
        deep: bool,
        finished: u64,
        at: SimTime,
    ) {
        let hosts = match dirty {
            Some(dirty) => dirty.iter().try_for_each(|&h| check_host(cluster, h)),
            None => cluster
                .hosts()
                .iter()
                .try_for_each(|h| check_host(cluster, h.spec.id)),
        };
        if let Err(msg) = hosts.and_then(|()| self.conservation(cluster, finished)) {
            self.report(at, msg);
        }
        if deep {
            if let Err(msg) = cluster.verify() {
                self.report(at, msg);
            }
        }
    }

    /// The global counts: every admitted VM is queued, placed or finished
    /// (and, when sharded, the per-shard resident counts add up). Reads
    /// only the resident-list lengths, `O(hosts)`.
    fn conservation(&mut self, cluster: &Cluster, finished: u64) -> Result<(), String> {
        let placed: u64 = cluster
            .hosts()
            .iter()
            .map(|h| h.resident.len() as u64)
            .sum();
        if let Some(map) = &self.shard_map {
            map.verify(cluster.num_hosts())?;
            self.shard_scratch.clear();
            self.shard_scratch.resize(map.num_shards(), 0);
            for h in cluster.hosts() {
                let s = map.shard_of(h.spec.id.raw() as usize);
                self.shard_scratch[s] += h.resident.len() as u64;
            }
            let by_shard: u64 = self.shard_scratch.iter().sum();
            if by_shard != placed {
                return Err(format!(
                    "shard conservation broken: per-shard residents sum to {by_shard}, \
                     global placed is {placed}"
                ));
            }
        }
        let admitted = cluster.num_vms() as u64;
        let accounted = cluster.queue().len() as u64 + placed + finished;
        if accounted != admitted {
            return Err(format!(
                "VM conservation broken: {} queued + {placed} placed + {finished} finished \
                 != {admitted} admitted",
                cluster.queue().len()
            ));
        }
        Ok(())
    }
}

/// The per-host light checks: every resident VM's `host` field names this
/// host (so a VM listed on two hosts fails on one of them), only a ready
/// host carries VMs or operations, an unpowered host burns no CPU, and
/// CPU allocations and committed memory fit the host.
fn check_host(cluster: &Cluster, id: HostId) -> Result<(), String> {
    let h = cluster.host(id);
    for &vm in &h.resident {
        let named = cluster.vm(vm).host;
        if named != Some(id) {
            return Err(format!("{vm} resident on {id} but placed on {named:?}"));
        }
    }
    if !h.power.is_ready() && !h.is_idle() {
        return Err(format!("{id} carries VMs/ops in state {:?}", h.power));
    }
    if !h.power.draws_power() && cluster.cpu_used(id) != 0.0 {
        return Err(format!("unpowered {id} accounts nonzero CPU"));
    }
    let alloc: f64 = h.resident.iter().map(|&vm| cluster.vm(vm).alloc).sum();
    let capacity = h.spec.cpu.as_f64() * h.cpu_factor;
    if alloc > capacity + 1e-6 {
        return Err(format!(
            "{id} CPU oversubscribed: {alloc:.3} allocated on {capacity:.3}"
        ));
    }
    if cluster.committed(id).mem > h.spec.capacity().mem {
        return Err(format!("{id} memory oversubscribed"));
    }
    Ok(())
}

// Canonical state: mode and counters. The shard map is re-armed by the
// runner via `set_shard_map`, and the per-shard counters are resized on
// first use.
persist_struct!(InvariantAuditor {
    mode,
    checks,
    violations,
    messages,
    skip shard_map = None,
    skip shard_scratch = Vec::new(),
});

#[cfg(test)]
mod tests {
    use super::*;
    use eards_model::{Cluster, Cpu, HostClass, HostSpec, Job, JobId, Mem, PowerState, VmId};
    use eards_sim::SimDuration;

    fn cluster(n: u32) -> Cluster {
        let specs = (0..n)
            .map(|i| HostSpec::standard(HostId(i), HostClass::Medium))
            .collect();
        Cluster::new(specs, PowerState::On)
    }

    fn submit(c: &mut Cluster, id: u64, cpu: u32) -> VmId {
        c.submit_job(Job::new(
            JobId(id),
            SimTime::ZERO,
            Cpu(cpu),
            Mem::gib(1),
            SimDuration::from_secs(100),
            1.5,
        ))
    }

    /// One batch's audit, the way the runner drives it: drain the dirty
    /// hosts, then check them.
    fn audit(a: &mut InvariantAuditor, c: &mut Cluster, finished: u64) {
        let mut dirty = Vec::new();
        c.drain_dirty(&mut dirty);
        a.check(c, &dirty, finished, SimTime::ZERO);
    }

    /// A running 400-CPU VM filling host 0 of a fresh cluster, audited
    /// once so the dirty set is empty.
    fn full_host(a: &mut InvariantAuditor) -> Cluster {
        let mut c = cluster(2);
        let vm = submit(&mut c, 1, 400);
        c.start_creation(vm, HostId(0), SimTime::ZERO, SimTime::from_secs(40));
        c.finish_creation(vm, SimTime::from_secs(40));
        c.reallocate_host(HostId(0), SimTime::from_secs(40));
        audit(a, &mut c, 0);
        assert_eq!(a.violations(), 0, "{:?}", a.messages());
        c
    }

    #[test]
    fn clean_cluster_passes() {
        let mut c = cluster(2);
        let vm = submit(&mut c, 1, 100);
        c.start_creation(vm, HostId(0), SimTime::ZERO, SimTime::from_secs(40));
        let mut a = InvariantAuditor::new(AuditorMode::On);
        audit(&mut a, &mut c, 0);
        assert_eq!(a.checks(), 1);
        assert_eq!(a.violations(), 0);
    }

    #[test]
    fn off_mode_does_nothing() {
        let mut c = cluster(1);
        let mut a = InvariantAuditor::new(AuditorMode::Off);
        assert!(!a.enabled());
        audit(&mut a, &mut c, 5); // wrong `finished` would trip a check
        a.finish(&c, 5, SimTime::ZERO);
        assert_eq!(a.checks(), 0);
        assert_eq!(a.violations(), 0);
    }

    #[test]
    fn lost_vm_is_detected() {
        let mut c = cluster(1);
        submit(&mut c, 1, 100);
        let mut a = InvariantAuditor::new(AuditorMode::On);
        // Claim one VM finished while it still sits in the queue: the
        // conservation count comes out wrong.
        audit(&mut a, &mut c, 1);
        assert_eq!(a.violations(), 1);
        assert!(
            a.messages()[0].contains("conservation"),
            "{:?}",
            a.messages()
        );
    }

    #[test]
    fn strict_mode_panics() {
        let mut c = cluster(1);
        let mut a = InvariantAuditor::new(AuditorMode::Strict);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| audit(&mut a, &mut c, 3)));
        assert!(r.is_err());
    }

    /// A slowdown applied without re-running the credit scheduler leaves
    /// the old allocations above the shrunken capacity. `set_cpu_factor`
    /// marks the host dirty, so the very next check reports it — not the
    /// next full pass.
    #[test]
    fn violation_on_a_dirty_host_is_reported_at_the_same_check() {
        let mut a = InvariantAuditor::new(AuditorMode::On);
        let mut c = full_host(&mut a);
        c.set_cpu_factor(HostId(0), 0.5);
        audit(&mut a, &mut c, 0);
        assert_eq!(a.checks(), 2, "well before the first full pass");
        assert_eq!(a.violations(), 1);
        assert!(
            a.messages()[0].contains("CPU oversubscribed"),
            "{:?}",
            a.messages()
        );
    }

    /// A violation on a host the batch did not report dirty is caught by
    /// the periodic full pass in `On` mode, and at once in `Strict`.
    #[test]
    fn full_pass_covers_hosts_outside_the_dirty_set() {
        let mut a = InvariantAuditor::new(AuditorMode::On);
        let mut c = full_host(&mut a);
        c.set_cpu_factor(HostId(0), 0.5);
        c.drain_dirty(&mut Vec::new()); // the batch "forgets" host 0
        for _ in 2..FULL_PERIOD {
            a.check(&c, &[], 0, SimTime::ZERO);
        }
        assert_eq!(a.violations(), 0, "dirty-only passes skip host 0");
        a.check(&c, &[], 0, SimTime::ZERO);
        assert_eq!(a.violations(), 1, "the full pass at {FULL_PERIOD} finds it");

        let mut strict = InvariantAuditor::new(AuditorMode::Strict);
        let mut c = full_host(&mut strict);
        c.set_cpu_factor(HostId(0), 0.5);
        c.drain_dirty(&mut Vec::new());
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            strict.check(&c, &[], 0, SimTime::ZERO)
        }));
        assert!(r.is_err(), "strict runs the full light pass every batch");
    }

    #[test]
    fn strict_runs_full_and_deep_passes_every_batch() {
        let strict = InvariantAuditor::new(AuditorMode::Strict);
        let on = InvariantAuditor::new(AuditorMode::On);
        for n in 1..=2 * DEEP_PERIOD {
            assert_eq!(strict.cadence(n), (true, true), "strict check {n}");
            assert_eq!(
                on.cadence(n),
                (n % FULL_PERIOD == 0, n % DEEP_PERIOD == 0),
                "on check {n}"
            );
        }
        const { assert!(FULL_PERIOD <= 64 && DEEP_PERIOD.is_multiple_of(FULL_PERIOD)) };
    }

    /// `checks()` counts batches — one per `check`, whatever pass it ran —
    /// and the closing pass at `finish` adds none.
    #[test]
    fn checks_count_one_pass_per_batch() {
        for mode in [AuditorMode::On, AuditorMode::Strict] {
            let mut c = cluster(2);
            let mut a = InvariantAuditor::new(mode);
            for _ in 0..300 {
                audit(&mut a, &mut c, 0);
            }
            a.finish(&c, 0, SimTime::ZERO);
            assert_eq!(a.checks(), 300, "{mode:?}");
            assert_eq!(a.violations(), 0, "{mode:?}");
        }
    }

    #[test]
    fn shard_conservation_checks_the_partition() {
        let mut c = cluster(4);
        let vm = submit(&mut c, 1, 100);
        c.start_creation(vm, HostId(0), SimTime::ZERO, SimTime::from_secs(40));
        let mut a = InvariantAuditor::new(AuditorMode::On);
        a.set_shard_map(Some(ShardMap::build(4, 2, 2)));
        audit(&mut a, &mut c, 0);
        assert_eq!(a.violations(), 0, "{:?}", a.messages());
        // A map built for a different cluster size is not a partition of
        // this one: the light pass must flag it.
        a.set_shard_map(Some(ShardMap::build(3, 2, 2)));
        audit(&mut a, &mut c, 0);
        assert_eq!(a.violations(), 1);
    }

    #[test]
    fn message_cap_holds_while_counter_counts() {
        let mut c = cluster(1);
        let mut a = InvariantAuditor::new(AuditorMode::On);
        for _ in 0..20 {
            audit(&mut a, &mut c, 1);
        }
        assert_eq!(a.violations(), 20);
        assert_eq!(a.messages().len(), MAX_MESSAGES);
    }
}
