//! Property tests for the datacenter model: credit-scheduler invariants,
//! power-model laws, occupation math, and a random-operation state
//! machine over the cluster.

use proptest::prelude::*;

use eards_model::xen::{allocate, CpuContender};
use eards_model::{
    CalibratedPowerModel, Cluster, Cpu, HostClass, HostId, HostSpec, Job, JobId, Mem, PowerCache,
    PowerModel, PowerState, Resources, ShardMap, VmId, VmState,
};
use eards_sim::{Persist, Reader, SimDuration, SimTime, Writer};

fn contender_strategy() -> impl Strategy<Value = CpuContender> {
    (0.0f64..500.0, 1.0f64..1024.0, 0.0f64..500.0).prop_map(|(demand, weight, cap)| CpuContender {
        demand,
        weight,
        cap,
    })
}

proptest! {
    /// Weighted max–min fairness invariants (§IV's Xen model).
    #[test]
    fn xen_allocation_invariants(
        capacity in 0.0f64..1600.0,
        contenders in proptest::collection::vec(contender_strategy(), 0..12),
    ) {
        let alloc = allocate(capacity, &contenders);
        prop_assert_eq!(alloc.len(), contenders.len());
        let mut total = 0.0;
        let mut total_bound = 0.0;
        for (a, c) in alloc.iter().zip(&contenders) {
            let bound = c.demand.min(c.cap).max(0.0);
            prop_assert!(*a >= -1e-9, "negative allocation {a}");
            prop_assert!(*a <= bound + 1e-6, "allocation {a} exceeds bound {bound}");
            total += a;
            total_bound += bound;
        }
        prop_assert!(total <= capacity + 1e-6, "over-allocated {total} > {capacity}");
        // Work conservation: all capacity used when demand saturates it.
        if total_bound >= capacity {
            prop_assert!((total - capacity).abs() < 1e-6,
                "not work conserving: {total} of {capacity} (bound {total_bound})");
        } else {
            // Unconstrained: everyone gets their bound.
            prop_assert!((total - total_bound).abs() < 1e-6);
        }
    }

    /// Adding a contender never increases anyone else's allocation.
    #[test]
    fn xen_allocation_is_monotone_in_contention(
        capacity in 100.0f64..800.0,
        base in proptest::collection::vec(contender_strategy(), 1..8),
        extra in contender_strategy(),
    ) {
        let before = allocate(capacity, &base);
        let mut bigger = base.clone();
        bigger.push(extra);
        let after = allocate(capacity, &bigger);
        for (b, a) in before.iter().zip(&after) {
            prop_assert!(*a <= b + 1e-6, "allocation rose from {b} to {a} under more contention");
        }
    }

    /// The calibrated power model is monotone and bounded by its endpoints.
    #[test]
    fn power_model_monotone_and_bounded(cpu_a in 0.0f64..500.0, cpu_b in 0.0f64..500.0) {
        let m = CalibratedPowerModel::paper_4way();
        let cap = Cpu::cores(4);
        let pa = m.power_watts(cpu_a, cap);
        let pb = m.power_watts(cpu_b, cap);
        prop_assert!((230.0..=304.0).contains(&pa));
        if cpu_a <= cpu_b {
            prop_assert!(pa <= pb + 1e-12);
        }
    }

    /// The shard map is a true partition of the host-id space, for every
    /// `(num_hosts, rack_size, shards)` triple: deterministic, every host
    /// in exactly one shard, internal boundaries rack-aligned, and stable
    /// through its `Persist` round trip (snapshot/restore cannot change
    /// which shard owns a host).
    #[test]
    fn shard_map_is_a_true_partition(
        num_hosts in 1usize..3000,
        rack_size in 1u32..33,
        shards in 0u32..64,
    ) {
        let m = ShardMap::build(num_hosts, rack_size, shards);
        // Pure integer function of its inputs: rebuilding is bit-equal.
        prop_assert_eq!(&ShardMap::build(num_hosts, rack_size, shards), &m);
        prop_assert!(m.verify(num_hosts).is_ok());
        let mut seen = vec![0u32; num_hosts];
        for s in 0..m.num_shards() {
            prop_assert_eq!(
                m.hosts(s).start % rack_size as usize, 0,
                "shard {} starts mid-rack at {}", s, m.hosts(s).start
            );
            for h in m.hosts(s) {
                seen[h] += 1;
                prop_assert_eq!(m.shard_of(h), s);
            }
        }
        prop_assert!(
            seen.iter().all(|&c| c == 1),
            "{}h/{}rs/{}s is not a partition: {:?}", num_hosts, rack_size, shards, seen
        );
        let mut w = Writer::default();
        m.persist(&mut w);
        let bytes = w.into_bytes().expect("boundary vector fits any length budget");
        let mut r = Reader::new(&bytes);
        let back = ShardMap::restore(&mut r).expect("round trip");
        r.finish().expect("fully consumed");
        prop_assert_eq!(back, m);
    }

    /// Occupation is the max over per-resource utilizations, scale-free.
    #[test]
    fn occupation_laws(cpu in 0u32..2000, mem in 0u32..40_000) {
        let cap = Resources::new(Cpu(400), Mem(16_384));
        let used = Resources::new(Cpu(cpu), Mem(mem));
        let occ = used.occupation_in(cap);
        let cpu_frac = f64::from(cpu) / 400.0;
        let mem_frac = f64::from(mem) / 16_384.0;
        prop_assert!((occ - cpu_frac.max(mem_frac)).abs() < 1e-12);
        prop_assert!(occ >= 0.0);
    }
}

/// Random-operation state machine over the cluster: any legal sequence of
/// submit / create / finish-create / migrate / finish-migrate / complete /
/// fail preserves the structural invariants.
#[derive(Debug, Clone)]
enum ClusterOp {
    Submit { cpu_idx: u8, host_bias: u8 },
    FinishCreation(u8),
    StartMigration { vm: u8, to: u8 },
    FinishMigration(u8),
    CompleteJob(u8),
    FailHost(u8),
    RepairAndBoot(u8),
}

fn cluster_op_strategy() -> impl Strategy<Value = ClusterOp> {
    prop_oneof![
        4 => (any::<u8>(), any::<u8>()).prop_map(|(c, h)| ClusterOp::Submit { cpu_idx: c, host_bias: h }),
        3 => any::<u8>().prop_map(ClusterOp::FinishCreation),
        2 => (any::<u8>(), any::<u8>()).prop_map(|(vm, to)| ClusterOp::StartMigration { vm, to }),
        2 => any::<u8>().prop_map(ClusterOp::FinishMigration),
        2 => any::<u8>().prop_map(ClusterOp::CompleteJob),
        1 => any::<u8>().prop_map(ClusterOp::FailHost),
        1 => any::<u8>().prop_map(ClusterOp::RepairAndBoot),
    ]
}

const N: u32 = 5;

fn five_hosts() -> Cluster {
    let specs = (0..N)
        .map(|i| HostSpec::standard(HostId(i), HostClass::Medium))
        .collect();
    Cluster::new(specs, PowerState::On)
}

/// Applies one random operation at `clock` seconds, skipping it when no
/// VM or host is in a state it applies to.
fn apply(cluster: &mut Cluster, op: ClusterOp, clock: u64, next_job: &mut u64) {
    let now = SimTime::from_secs(clock);
    let later = SimTime::from_secs(clock + 60);
    match op {
        ClusterOp::Submit { cpu_idx, host_bias } => {
            let cpu = Cpu(100 * (1 + u32::from(cpu_idx % 4)));
            let vm = cluster.submit_job(Job::new(
                JobId(*next_job),
                now,
                cpu,
                Mem::gib(1),
                SimDuration::from_secs(600),
                1.5,
            ));
            *next_job += 1;
            // Try to start creating it somewhere.
            for k in 0..N {
                let h = HostId((u32::from(host_bias) + k) % N);
                if cluster.can_place_overcommitted(h, vm) {
                    cluster.start_creation(vm, h, now, later);
                    break;
                }
            }
        }
        ClusterOp::FinishCreation(pick) => {
            let creating: Vec<_> = cluster
                .vms()
                .filter(|v| v.state == VmState::Creating)
                .map(|v| v.id)
                .collect();
            if !creating.is_empty() {
                let vm = creating[usize::from(pick) % creating.len()];
                cluster.finish_creation(vm, now);
                let host = cluster.vm(vm).host.unwrap();
                cluster.reallocate_host(host, now);
            }
        }
        ClusterOp::StartMigration { vm, to } => {
            let running: Vec<_> = cluster
                .vms()
                .filter(|v| v.state == VmState::Running)
                .map(|v| v.id)
                .collect();
            if running.is_empty() {
                return;
            }
            let vm = running[usize::from(vm) % running.len()];
            let target = HostId(u32::from(to) % N);
            if cluster.vm(vm).host != Some(target) && cluster.can_place_overcommitted(target, vm) {
                cluster.start_migration(vm, target, now, later);
            }
        }
        ClusterOp::FinishMigration(pick) => {
            let migrating: Vec<_> = cluster
                .vms()
                .filter(|v| matches!(v.state, VmState::Migrating { .. }))
                .map(|v| v.id)
                .collect();
            if !migrating.is_empty() {
                let vm = migrating[usize::from(pick) % migrating.len()];
                cluster.finish_migration(vm, now);
            }
        }
        ClusterOp::CompleteJob(pick) => {
            let running: Vec<_> = cluster
                .vms()
                .filter(|v| v.state == VmState::Running)
                .map(|v| v.id)
                .collect();
            if !running.is_empty() {
                let vm = running[usize::from(pick) % running.len()];
                cluster.finish_vm(vm, now);
            }
        }
        ClusterOp::FailHost(pick) => {
            let h = HostId(u32::from(pick) % N);
            if cluster.host(h).power == PowerState::On {
                cluster.fail_host(h, now);
            }
        }
        ClusterOp::RepairAndBoot(pick) => {
            let h = HostId(u32::from(pick) % N);
            if cluster.host(h).power == PowerState::Failed {
                cluster.repair_host(h);
                cluster.begin_power_on(h, now);
                cluster.complete_power_on(h);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn cluster_state_machine_preserves_invariants(
        ops in proptest::collection::vec(cluster_op_strategy(), 1..120),
    ) {
        let mut cluster = five_hosts();
        let mut next_job = 0u64;

        for (step, op) in ops.into_iter().enumerate() {
            apply(&mut cluster, op, 10 * (step as u64 + 1), &mut next_job);
            cluster.check_invariants();

            // Memory is never overcommitted, whatever the sequence did.
            for i in 0..N {
                let h = HostId(i);
                let committed = cluster.committed(h);
                prop_assert!(
                    committed.mem <= cluster.host(h).spec.capacity().mem,
                    "memory overcommitted on {h}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The VM table stays dense: after any operation sequence `vms()`
    /// yields `VmId(0..n)` in order, every id resolves to its own VM, and
    /// a snapshot round trip preserves both.
    #[test]
    fn vm_table_stays_dense_in_id_order(
        ops in proptest::collection::vec(cluster_op_strategy(), 1..120),
    ) {
        let mut cluster = five_hosts();
        let mut next_job = 0u64;
        for (step, op) in ops.into_iter().enumerate() {
            apply(&mut cluster, op, 10 * (step as u64 + 1), &mut next_job);
        }
        let n = cluster.num_vms() as u64;
        prop_assert_eq!(n, next_job, "one VM per submitted job");
        let expected: Vec<VmId> = (0..n).map(VmId).collect();
        let ids: Vec<VmId> = cluster.vms().map(|v| v.id).collect();
        prop_assert_eq!(&ids, &expected);
        for &id in &expected {
            prop_assert_eq!(cluster.vm(id).id, id);
        }

        let mut w = Writer::new();
        cluster.persist(&mut w);
        let bytes = w.into_bytes().unwrap();
        let restored = Cluster::restore(&mut Reader::new(&bytes)).unwrap();
        let ids: Vec<VmId> = restored.vms().map(|v| v.id).collect();
        prop_assert_eq!(&ids, &expected);
    }
}

/// The operations [`ClusterOp`] leaves out: aborts, checkpoints, the full
/// power cycle, slowdowns, credit-scheduler reruns, request escalation,
/// and the two calls that must *not* need a mark (progress touch,
/// blacklist).
#[derive(Debug, Clone)]
enum DirtyOp {
    Base(ClusterOp),
    AbortCreation(u8),
    AbortMigration(u8),
    StartCheckpoint(u8),
    FinishCheckpoint(u8),
    /// Advances the host one step along off → booting → on → shutting
    /// down → off; the flag fails a boot instead of completing it.
    PowerStep(u8, bool),
    /// Sets the slowdown factor (half or nominal) without reallocating.
    Slowdown(u8, bool),
    Reallocate(u8),
    Escalate(u8),
    Touch(u8),
    Blacklist(u8),
}

fn dirty_op_strategy() -> impl Strategy<Value = DirtyOp> {
    prop_oneof![
        8 => cluster_op_strategy().prop_map(DirtyOp::Base),
        1 => any::<u8>().prop_map(DirtyOp::AbortCreation),
        1 => any::<u8>().prop_map(DirtyOp::AbortMigration),
        1 => any::<u8>().prop_map(DirtyOp::StartCheckpoint),
        1 => any::<u8>().prop_map(DirtyOp::FinishCheckpoint),
        2 => (any::<u8>(), any::<bool>()).prop_map(|(h, f)| DirtyOp::PowerStep(h, f)),
        1 => (any::<u8>(), any::<bool>()).prop_map(|(h, f)| DirtyOp::Slowdown(h, f)),
        2 => any::<u8>().prop_map(DirtyOp::Reallocate),
        1 => any::<u8>().prop_map(DirtyOp::Escalate),
        1 => any::<u8>().prop_map(DirtyOp::Touch),
        1 => any::<u8>().prop_map(DirtyOp::Blacklist),
    ]
}

/// The `pick`-th VM (mod count) in a state `keep` accepts.
fn pick_vm(cluster: &Cluster, pick: u8, keep: impl Fn(VmState) -> bool) -> Option<VmId> {
    let vms: Vec<VmId> = cluster
        .vms()
        .filter(|v| keep(v.state))
        .map(|v| v.id)
        .collect();
    (!vms.is_empty()).then(|| vms[usize::from(pick) % vms.len()])
}

fn apply_dirty(cluster: &mut Cluster, op: DirtyOp, clock: u64, next_job: &mut u64) {
    let now = SimTime::from_secs(clock);
    let later = SimTime::from_secs(clock + 60);
    let host = |pick: u8| HostId(u32::from(pick) % N);
    match op {
        DirtyOp::Base(op) => apply(cluster, op, clock, next_job),
        DirtyOp::AbortCreation(pick) => {
            if let Some(vm) = pick_vm(cluster, pick, |s| s == VmState::Creating) {
                cluster.abort_creation(vm, now);
            }
        }
        DirtyOp::AbortMigration(pick) => {
            if let Some(vm) = pick_vm(cluster, pick, |s| matches!(s, VmState::Migrating { .. })) {
                cluster.abort_migration(vm, now);
            }
        }
        DirtyOp::StartCheckpoint(pick) => {
            if let Some(vm) = pick_vm(cluster, pick, |s| s == VmState::Running) {
                cluster.start_checkpoint(vm, now, later);
            }
        }
        DirtyOp::FinishCheckpoint(pick) => {
            if let Some(vm) = pick_vm(cluster, pick, |s| s == VmState::Checkpointing) {
                cluster.finish_checkpoint(vm, now);
            }
        }
        DirtyOp::PowerStep(pick, fail) => {
            let h = host(pick);
            match cluster.host(h).power {
                PowerState::Off => {
                    cluster.begin_power_on(h, now);
                }
                PowerState::Booting { .. } if fail => cluster.fail_boot(h),
                PowerState::Booting { .. } => cluster.complete_power_on(h),
                PowerState::On if cluster.host(h).is_idle() => {
                    cluster.begin_power_off(h, now);
                }
                PowerState::ShuttingDown { .. } => cluster.complete_power_off(h),
                _ => {}
            }
        }
        DirtyOp::Slowdown(pick, slow) => {
            cluster.set_cpu_factor(host(pick), if slow { 0.5 } else { 1.0 });
        }
        DirtyOp::Reallocate(pick) => cluster.reallocate_host(host(pick), now),
        DirtyOp::Escalate(pick) => {
            if let Some(vm) = pick_vm(cluster, pick, |s| s.is_executing()) {
                let cpu = cluster.vm(vm).requested.cpu;
                cluster.raise_requested_cpu(vm, Cpu(cpu.points() + 100));
            }
        }
        DirtyOp::Touch(pick) => cluster.touch_host(host(pick), now),
        DirtyOp::Blacklist(pick) => cluster.blacklist(host(pick), 0.05),
    }
}

/// Everything about a host that its power draw, the running counts or
/// the auditor's per-host checks read: power state, the resident,
/// incoming and op lists, the slowdown factor, the allocations of its
/// resident VMs (an incoming VM executes, and draws power, on its source)
/// and the requests of every VM it accounts. `Debug` prints `f64`s
/// exactly.
fn host_view(cluster: &Cluster, h: HostId) -> String {
    let host = cluster.host(h);
    let allocs: Vec<f64> = host
        .resident
        .iter()
        .map(|&vm| cluster.vm(vm).alloc)
        .collect();
    let requests: Vec<Resources> = host
        .resident
        .iter()
        .chain(&host.incoming)
        .map(|&vm| cluster.vm(vm).requested)
        .collect();
    format!(
        "{:?}",
        (
            host.power,
            &host.resident,
            &host.incoming,
            &host.ops,
            host.cpu_factor,
            allocs,
            requests
        )
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// No mutation escapes the dirty set: after every operation, each
    /// host whose state differs from before it is in the drained set, and
    /// the incremental aggregates — the power cache refreshed from that
    /// set alone, and the running working/online counts — equal the full
    /// scan bit-for-bit.
    #[test]
    fn every_changed_host_is_dirty_and_aggregates_match_the_scan(
        ops in proptest::collection::vec(dirty_op_strategy(), 1..150),
    ) {
        let model = CalibratedPowerModel::paper_4way();
        let mut cluster = five_hosts();
        let mut power = PowerCache::new();
        let mut dirty = Vec::new();
        cluster.drain_dirty(&mut dirty);
        prop_assert_eq!(dirty.len(), N as usize, "a new cluster starts all dirty");
        power.refresh(&cluster, &dirty, &model);
        let mut next_job = 0u64;

        for (step, op) in ops.into_iter().enumerate() {
            let before: Vec<String> = (0..N).map(|i| host_view(&cluster, HostId(i))).collect();
            apply_dirty(&mut cluster, op.clone(), 10 * (step as u64 + 1), &mut next_job);
            dirty.clear();
            cluster.drain_dirty(&mut dirty);
            for i in 0..N {
                let h = HostId(i);
                prop_assert!(
                    before[i as usize] == host_view(&cluster, h) || dirty.contains(&h),
                    "{:?} changed {} without marking it dirty", op, h
                );
            }
            let mut again = Vec::new();
            cluster.drain_dirty(&mut again);
            prop_assert!(again.is_empty(), "a drain clears the set");

            power.refresh(&cluster, &dirty, &model);
            prop_assert_eq!(
                power.total().to_bits(),
                cluster.total_power(&model).to_bits(),
                "cached power drifted after {:?}", op
            );
            let hosts = cluster.hosts();
            prop_assert_eq!(
                cluster.working_count(),
                hosts.iter().filter(|h| h.is_working()).count()
            );
            prop_assert_eq!(
                cluster.online_count(),
                hosts.iter().filter(|h| h.power.is_online()).count()
            );
            cluster.check_invariants();
        }

        // A restored cluster starts all dirty, with the counts rebuilt.
        let mut w = Writer::new();
        cluster.persist(&mut w);
        let bytes = w.into_bytes().unwrap();
        let mut restored = Cluster::restore(&mut Reader::new(&bytes)).unwrap();
        dirty.clear();
        restored.drain_dirty(&mut dirty);
        prop_assert_eq!(dirty.len(), N as usize);
        prop_assert_eq!(restored.working_count(), cluster.working_count());
        prop_assert_eq!(restored.online_count(), cluster.online_count());
    }
}
