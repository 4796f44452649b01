//! Differential oracle for the hill-climb engine.
//!
//! Every SB0/SB1/SB2/SB table in EXPERIMENTS.md depends on the solver's
//! exact move sequences, so the engine (`solve_sharded`, and `solve` —
//! its single-shard form) is pinned against the original full-rescan
//! `solve_reference`. Two contracts from DESIGN.md §15:
//!
//! * **Single-shard identity** — on any instance whose shard map realizes
//!   one shard, the engine is bit-identical to `solve_reference` (same
//!   moves, same order, same limit flag, same final placements), for
//!   every penalty set. Pinned here over three families of randomized
//!   instances — the third saturated, with most host rows `∞` for every
//!   column — so neither an unsharded round nor `--shards` over a small
//!   cluster can change a run.
//! * **Bounded quality loss** — with a real partition the solver trades
//!   global optimality for locality: it may place a queue column on a
//!   worse host than the global climb, but it must still place *as many*
//!   columns, and the total placement cost must stay within a modest
//!   factor of the global solution.
//!
//! `work_accounting_is_pinned` additionally pins the work meter's exact
//! charges, which the move oracle cannot see.

use eards_core::{solve, solve_reference, solve_sharded, DegradeLevel, Eval, ScoreConfig};
use eards_model::{
    Cluster, Cpu, HostClass, HostId, HostSpec, Job, JobId, Mem, PowerState, ShardMap, VmId,
};
use eards_sim::{SimDuration, SimTime};
use proptest::prelude::*;

fn t(secs: u64) -> SimTime {
    SimTime::from_secs(secs)
}

fn cluster(n: u32) -> Cluster {
    Cluster::new(
        (0..n)
            .map(|i| HostSpec::standard(HostId(i), HostClass::Medium))
            .collect(),
        PowerState::On,
    )
}

fn job(id: u64, cpu: u32) -> Job {
    Job::new(
        JobId(id),
        SimTime::ZERO,
        Cpu(cpu),
        Mem::gib(1),
        SimDuration::from_secs(7200),
        1.5,
    )
}

/// Builds a cluster with a mix of running and queued VMs from the
/// generated op list; returns the evaluator columns (running first, then
/// queued — the scheduler's own column order).
fn build_instance(hosts: u32, ops: &[(u8, bool)]) -> (Cluster, Vec<eards_model::VmId>) {
    let mut c = cluster(hosts);
    let mut running = Vec::new();
    let mut queued = Vec::new();
    for (i, &(byte, place)) in ops.iter().enumerate() {
        let cpu = 100 * (1 + u32::from(byte % 3));
        let vm = c.submit_job(job(i as u64, cpu));
        if place {
            let mut placed = false;
            for k in 0..hosts {
                let h = HostId((u32::from(byte) + k) % hosts);
                if c.can_place(h, vm) {
                    c.start_creation(vm, h, t(0), t(40));
                    c.finish_creation(vm, t(40));
                    placed = true;
                    break;
                }
            }
            if placed {
                running.push(vm);
            } else {
                queued.push(vm);
            }
        } else {
            queued.push(vm);
        }
    }
    running.extend(queued);
    (c, running)
}

/// A randomized cluster: `n_hosts` nodes of mixed Fast/Medium/Slow
/// classes, some powered off, some VMs already placed, some queued.
fn build(
    n_hosts: u32,
    class_seed: u8,
    off: &[u8],
    placed: &[(u8, u8)],
    queued: &[u8],
) -> (Cluster, Vec<VmId>) {
    let classes = [HostClass::Fast, HostClass::Medium, HostClass::Slow];
    let specs = (0..n_hosts)
        .map(|i| {
            HostSpec::standard(
                HostId(i),
                classes[usize::from(class_seed.wrapping_add(i as u8)) % 3],
            )
        })
        .collect();
    let mut cluster = Cluster::new(specs, PowerState::On);
    // Power some nodes off before anything lands on them: their rows must
    // stay all-infinite through every overlay state.
    for &o in off {
        let h = HostId(u32::from(o) % n_hosts);
        if cluster.host(h).power == PowerState::On {
            cluster.begin_power_off(h, SimTime::ZERO);
        }
    }
    let mut cols = Vec::new();
    let mut next = 0u64;
    let t0 = SimTime::ZERO;
    let t1 = SimTime::from_secs(40);
    for &(cpu_idx, host_bias) in placed {
        let cpu = Cpu(100 * (1 + u32::from(cpu_idx % 4)));
        let vm = cluster.submit_job(Job::new(
            JobId(next),
            t0,
            cpu,
            Mem::gib(1),
            SimDuration::from_secs(3600),
            1.5,
        ));
        next += 1;
        let mut done = false;
        for k in 0..n_hosts {
            let h = HostId((u32::from(host_bias) + k) % n_hosts);
            if cluster.host(h).power == PowerState::On && cluster.can_place(h, vm) {
                cluster.start_creation(vm, h, t0, t1);
                cluster.finish_creation(vm, t1);
                done = true;
                break;
            }
        }
        if done {
            cols.push(vm);
        }
    }
    for &cpu_idx in queued {
        let cpu = Cpu(100 * (1 + u32::from(cpu_idx % 4)));
        let vm = cluster.submit_job(Job::new(
            JobId(next),
            t1,
            cpu,
            Mem::gib(1),
            SimDuration::from_secs(1800),
            1.5,
        ));
        next += 1;
        cols.push(vm);
    }
    (cluster, cols)
}

/// A saturated cluster: most host rows are all-infinite for every
/// column. `kinds[h] % 8` lays out host `h` (mixed classes):
///
/// * `0..=2` — powered off;
/// * `3` — full, no column: one 400% background VM;
/// * `4` — full, hosting a running 200% column beside 200% background;
/// * `5` — full, hosting a running 100% column beside 300% background;
/// * `6` — within one VM of full: 300% background;
/// * `7` — partly free: 100% background.
///
/// Background VMs are not columns. The source row of a kind-4/5 column
/// holds no room for any other column, so a migration round starts from
/// rows that are dead for everything but the column already there.
/// Queue columns request `100 · (1 + q % 4)` percent each. Columns are
/// running first, then queued (the scheduler's own column order).
fn build_saturated(kinds: &[u8], queued: &[u8]) -> (Cluster, Vec<VmId>) {
    let classes = [HostClass::Fast, HostClass::Medium, HostClass::Slow];
    let specs = (0..kinds.len() as u32)
        .map(|i| HostSpec::standard(HostId(i), classes[(i as usize / 2) % 3]))
        .collect();
    let mut cluster = Cluster::new(specs, PowerState::On);
    let t0 = SimTime::ZERO;
    let t1 = SimTime::from_secs(40);
    let mut next = 0u64;
    let mut cols = Vec::new();
    let mut run = |cluster: &mut Cluster, h: u32, cpu: u32, secs: u64| {
        let vm = cluster.submit_job(Job::new(
            JobId(next),
            t0,
            Cpu(cpu),
            Mem::gib(1),
            SimDuration::from_secs(secs),
            1.5,
        ));
        next += 1;
        cluster.start_creation(vm, HostId(h), t0, t1);
        cluster.finish_creation(vm, t1);
        vm
    };
    for (h, &k) in kinds.iter().enumerate() {
        let h = h as u32;
        match k % 8 {
            0..=2 => {
                cluster.begin_power_off(HostId(h), t0);
            }
            3 => {
                run(&mut cluster, h, 400, 7200);
            }
            4 => {
                run(&mut cluster, h, 200, 7200);
                cols.push(run(&mut cluster, h, 200, 3600));
            }
            5 => {
                run(&mut cluster, h, 300, 7200);
                cols.push(run(&mut cluster, h, 100, 3600));
            }
            6 => {
                run(&mut cluster, h, 300, 7200);
            }
            _ => {
                run(&mut cluster, h, 100, 7200);
            }
        }
    }
    for &q in queued {
        let vm = cluster.submit_job(Job::new(
            JobId(next),
            t1,
            Cpu(100 * (1 + u32::from(q % 4))),
            Mem::gib(1),
            SimDuration::from_secs(1800),
            1.5,
        ));
        next += 1;
        cols.push(vm);
    }
    (cluster, cols)
}

fn config_for(pick: u8) -> ScoreConfig {
    match pick % 4 {
        0 => ScoreConfig::sb0(),
        1 => ScoreConfig::sb(),
        2 => ScoreConfig::sb2(),
        _ => ScoreConfig::full(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    /// The single-shard oracle: `solve_sharded` over the trivial map is
    /// move-for-move identical to the reference climb, whatever the
    /// instance and penalty set.
    #[test]
    fn single_shard_is_bit_identical_to_reference_solve(
        hosts in 2u32..9,
        ops in proptest::collection::vec((any::<u8>(), any::<bool>()), 1..14),
        cfg_pick in any::<u8>(),
        cap in 1usize..40,
    ) {
        let (c, ids) = build_instance(hosts, &ops);
        let cfg = config_for(cfg_pick);
        let expected = {
            let mut eval = Eval::new(&c, &cfg, t(100), ids.clone());
            solve_reference(&mut eval, cap)
        };
        let mut eval = Eval::new(&c, &cfg, t(100), ids);
        let queued = (0..eval.num_vms())
            .filter(|&v| eval.original_of(v).is_none())
            .count() as u64;
        let map = ShardMap::single(hosts as usize);
        let out = solve_sharded(&mut eval, &map, 0, cap, u64::MAX, DegradeLevel::L0Full);
        prop_assert_eq!(&out.solution.moves, &expected.moves,
            "sharded(1) diverged from the reference");
        prop_assert_eq!(out.solution.hit_move_limit, expected.hit_move_limit);
        prop_assert!(!out.solution.budget_exhausted);
        // The cursor advance equals the queue columns dealt, placed or not.
        prop_assert_eq!(out.creations_assigned, queued);
    }

    /// `solve` and the reference full-rescan climb produce identical
    /// solutions (move-for-move, same limit flag) and identical final
    /// placements over mixed-class clusters with powered-off hosts.
    #[test]
    fn solve_matches_reference_solver(
        n_hosts in 5u32..50,
        class_seed in any::<u8>(),
        off in proptest::collection::vec(any::<u8>(), 0..4),
        placed in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..8),
        queued in proptest::collection::vec(any::<u8>(), 0..6),
        cap in 1usize..24,
    ) {
        let (cluster, cols) = build(n_hosts, class_seed, &off, &placed, &queued);
        let now = SimTime::from_secs(120);
        for cfg in [ScoreConfig::sb0(), ScoreConfig::sb(), ScoreConfig::full()] {
            let mut inc = Eval::new(&cluster, &cfg, now, cols.clone());
            let fast = solve(&mut inc, cap);
            let mut refr = Eval::new(&cluster, &cfg, now, cols.clone());
            let slow = solve_reference(&mut refr, cap);
            prop_assert_eq!(
                &fast.moves, &slow.moves,
                "cfg {}: move sequences diverged", &cfg.name
            );
            prop_assert_eq!(fast.hit_move_limit, slow.hit_move_limit);
            for v in 0..cols.len() {
                prop_assert_eq!(inc.placement_of(v), refr.placement_of(v));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    /// The saturated regime: seven host kinds in eight are Off, full or
    /// within one VM of full, so most rows score `∞` for every column,
    /// including the source rows of running columns. Single-shard solves
    /// stay move-for-move identical to the reference climb.
    #[test]
    fn saturated_single_shard_is_bit_identical_to_reference_solve(
        kinds in proptest::collection::vec(any::<u8>(), 6..40),
        queued in proptest::collection::vec(any::<u8>(), 1..16),
        cfg_pick in any::<u8>(),
        cap in 1usize..40,
    ) {
        let (c, ids) = build_saturated(&kinds, &queued);
        let cfg = config_for(cfg_pick);
        let mut refr = Eval::new(&c, &cfg, t(120), ids.clone());
        let expected = solve_reference(&mut refr, cap);
        let mut eval = Eval::new(&c, &cfg, t(120), ids.clone());
        let map = ShardMap::single(kinds.len());
        let out = solve_sharded(&mut eval, &map, 0, cap, u64::MAX, DegradeLevel::L0Full);
        prop_assert_eq!(&out.solution.moves, &expected.moves,
            "sharded(1) diverged from the reference");
        prop_assert_eq!(out.solution.hit_move_limit, expected.hit_move_limit);
        prop_assert!(!out.solution.budget_exhausted);
        for v in 0..ids.len() {
            prop_assert_eq!(eval.placement_of(v), refr.placement_of(v));
        }
    }

    /// The multi-shard bounds of `multi_shard_quality_loss_is_bounded`,
    /// in the saturated regime: four identical racks (one shard each) of
    /// mostly dead rows, and a queue of unit columns that fills every free
    /// unit with up to seven columns left over. The sharded solver places
    /// as many columns as the global climb, at a total cost within 25% of
    /// it.
    #[test]
    fn saturated_multi_shard_quality_loss_is_bounded(
        rack in proptest::collection::vec(any::<u8>(), 5..6),
        overflow in 0usize..8,
        cfg_pick in any::<u8>(),
    ) {
        // Each rack ends in a partly free host, so every shard has room.
        let kinds: Vec<u8> = (0..24)
            .map(|h| if h % 6 == 5 { 7 } else { rack[h % 6] })
            .collect();
        // Free 100% units per rack: one on a kind-6 host, three on kind 7.
        let units: usize = kinds[..6]
            .iter()
            .map(|k| match k % 8 {
                6 => 1,
                7 => 3,
                _ => 0,
            })
            .sum();
        let (c, ids) = build_saturated(&kinds, &vec![0u8; 4 * units + overflow]);
        let cfg = config_for(cfg_pick);
        let mut global_eval = Eval::new(&c, &cfg, t(120), ids.clone());
        solve(&mut global_eval, 256);
        let mut sharded_eval = Eval::new(&c, &cfg, t(120), ids.clone());
        let map = ShardMap::build(24, 6, 4);
        let out = solve_sharded(&mut sharded_eval, &map, 0, 256, u64::MAX, DegradeLevel::L0Full);
        prop_assert!(!out.solution.budget_exhausted);
        let (global_placed, global_cost) = placed_cost(&global_eval);
        let (sharded_placed, sharded_cost) = placed_cost(&sharded_eval);
        prop_assert_eq!(sharded_placed, global_placed,
            "sharded solver dropped columns the global climb placed");
        prop_assert!(sharded_cost - global_cost <= 0.25 * global_cost.abs() + 1e-9,
            "quality loss beyond bound: sharded {} vs global {}", sharded_cost, global_cost);
    }
}

/// Placed columns and their summed current cost (lower is better).
fn placed_cost(eval: &Eval<'_>) -> (usize, f64) {
    let mut count = 0;
    let mut total = 0.0;
    for v in 0..eval.num_vms() {
        if eval.placement_of(v).is_some() {
            count += 1;
            total += eval.current_cost(v).value();
        }
    }
    (count, total)
}

/// Bounded quality loss on a real partition: the sharded solver places
/// exactly as many queue columns as the global climb on a uniform
/// cluster with ample capacity, and the total cost of its placements
/// stays within 25% of the global solution's.
#[test]
fn multi_shard_quality_loss_is_bounded() {
    let hosts = 32u32;
    let mut c = cluster(hosts);
    let ids: Vec<_> = (0..60).map(|i| c.submit_job(job(i, 100))).collect();
    let cfg = ScoreConfig::sb();

    let mut global_eval = Eval::new(&c, &cfg, t(0), ids.clone());
    let global = solve(&mut global_eval, 256);

    let mut sharded_eval = Eval::new(&c, &cfg, t(0), ids.clone());
    let map = ShardMap::build(hosts as usize, 4, 4);
    assert_eq!(map.num_shards(), 4);
    let out = solve_sharded(
        &mut sharded_eval,
        &map,
        0,
        256,
        u64::MAX,
        DegradeLevel::L0Full,
    );

    let (global_placed, global_cost) = placed_cost(&global_eval);
    let (sharded_placed, sharded_cost) = placed_cost(&sharded_eval);

    assert_eq!(
        global_placed,
        ids.len(),
        "global climb must place everything"
    );
    assert_eq!(
        sharded_placed, global_placed,
        "sharded solver dropped columns the global climb placed"
    );
    // Lower is better (cell scores are minimized; good placements go
    // negative), so the loss is how far sharded sits ABOVE the global climb,
    // relative to the global solution's magnitude. Measured ~5% here;
    // 25% leaves room for score-model drift without letting a broken
    // balancer through.
    let loss = sharded_cost - global_cost;
    assert!(
        loss <= 0.25 * global_cost.abs() + 1e-9,
        "quality loss beyond bound: sharded {sharded_cost} vs global {global_cost}"
    );
    assert!(!out.solution.budget_exhausted);
    assert_eq!(global.moves.len(), out.solution.moves.len());
}

/// Work accounting of the engine, pinned on a fixed saturated world: the
/// exact `work_spent`, `rows_rescored`, `sweeps` and move list of one-
/// and four-shard solves, unarmed and with a budget that runs out
/// mid-climb. The oracle above only checks moves; this pins the meter
/// charges, so budgeted runs and the degradation ladder cannot drift
/// when the engine's internals change.
#[test]
fn work_accounting_is_pinned() {
    // 40 hosts, per 12: 4 off, 5 full or within one VM of full (3 of
    // them hosting a running column), 3 partly free.
    let pattern = [0u8, 4, 7, 1, 6, 7, 2, 5, 7, 0, 3, 6];
    let kinds: Vec<u8> = (0..40).map(|h| pattern[h % pattern.len()]).collect();
    let queued = [1u8, 2, 0, 3, 1, 1, 2, 0, 3, 2, 1, 1, 2, 3, 1, 2];
    let (c, ids) = build_saturated(&kinds, &queued);
    let cfg = ScoreConfig::sb();
    // (shards, budget, work_spent, rows_rescored, sweeps, exhausted, moves)
    type Pin = (u32, u64, u64, u64, usize, bool, &'static [(usize, usize)]);
    let pins: [Pin; 4] = [
        (
            1,
            u64::MAX,
            2815,
            52,
            13,
            false,
            &[
                (8, 2),
                (13, 8),
                (16, 14),
                (19, 20),
                (22, 26),
                (7, 32),
                (9, 32),
                (11, 38),
                (14, 38),
                (12, 5),
                (17, 17),
                (18, 29),
            ],
        ),
        (
            4,
            u64::MAX,
            797,
            52,
            16,
            false,
            &[
                (19, 2),
                (7, 8),
                (11, 5),
                (8, 14),
                (16, 17),
                (13, 20),
                (17, 26),
                (9, 26),
                (21, 29),
                (22, 32),
                (18, 38),
                (14, 38),
            ],
        ),
        (
            1,
            2200,
            2212,
            46,
            6,
            true,
            &[(8, 2), (13, 8), (16, 14), (19, 20), (22, 26), (7, 32)],
        ),
        (
            4,
            400,
            424,
            35,
            7,
            true,
            &[(19, 2), (7, 8), (11, 5), (8, 14), (16, 17)],
        ),
    ];
    for (shards, budget, work, rows, sweeps, exhausted, moves) in pins {
        let mut eval = Eval::new(&c, &cfg, t(120), ids.clone());
        let map = ShardMap::build(40, 5, shards);
        let out = solve_sharded(
            &mut eval,
            &map,
            0,
            cfg.max_moves,
            budget,
            DegradeLevel::L0Full,
        );
        let run = format!("{shards} shard(s), budget {budget}");
        assert_eq!(out.work_spent, work, "{run}: work_spent moved");
        assert_eq!(out.rows_rescored, rows, "{run}: rows_rescored moved");
        assert_eq!(out.solution.sweeps, sweeps, "{run}: sweeps moved");
        assert_eq!(out.solution.budget_exhausted, exhausted, "{run}");
        assert_eq!(out.solution.moves, moves, "{run}: moves diverged");
    }
}
