//! Hill-climbing solver scaling — backs the paper's complexity claim
//! (§III-B): "the algorithm complexity has an upper boundary of
//! O(#Hosts · #VMs) · C since it iterates over the ⟨host,VM⟩ matrix C
//! times".
//!
//! Benchmarks the full scheduling round (matrix build + solve) over
//! increasing datacenter sizes, over the iteration cap, over the penalty
//! sets, on a saturated cluster whose host rows are mostly dead, and —
//! the `cold_vs_incremental` group — the full-rescan reference solver
//! against the incremental engine.
//!
//! Besides the per-benchmark stdout lines, the run writes every mean to
//! `BENCH_solver.json` at the workspace root: a machine-readable baseline
//! future PRs diff against for a perf trajectory.

use criterion::{BenchmarkId, Criterion};
use eards_bench::common::{merge_solver_baseline, solver_case};
use eards_core::{solve, solve_reference, Eval, ScoreConfig};
use eards_model::{Cluster, Cpu, HostClass, HostId, HostSpec, Job, JobId, Mem, PowerState, VmId};
use eards_sim::{SimDuration, SimTime};

fn bench_matrix_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver/hosts_x_vms");
    for &(hosts, vms) in &[(25u32, 20u64), (50, 40), (100, 80), (200, 160), (400, 320)] {
        let (cluster, cols) = solver_case(hosts, vms / 2, vms / 2);
        let cfg = ScoreConfig::sb();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{hosts}h_{vms}v")),
            &(cluster, cols, cfg),
            |b, (cluster, cols, cfg)| {
                b.iter(|| {
                    let mut eval = Eval::new(cluster, cfg, SimTime::from_secs(100), cols.clone());
                    solve(&mut eval, cfg.max_moves)
                })
            },
        );
    }
    group.finish();
}

fn bench_iteration_cap(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver/max_moves");
    // The sweep only orders by cap if every cap truncates the climb: with
    // 150 queued creations plus migration cleanup there are well over 256
    // beneficial moves, so 4 < 16 < 64 < 256 is monotone by construction.
    // (A smaller case converges before the larger caps, making those
    // points equal-work and their ordering pure measurement noise.)
    let (cluster, cols) = solver_case(150, 150, 150);
    for &cap in &[4usize, 16, 64, 256] {
        let cfg = ScoreConfig::sb();
        group.bench_with_input(BenchmarkId::from_parameter(cap), &cap, |b, &cap| {
            b.iter(|| {
                let mut eval = Eval::new(&cluster, &cfg, SimTime::from_secs(100), cols.clone());
                solve(&mut eval, cap)
            })
        });
    }
    group.finish();
}

fn bench_penalty_sets(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver/penalty_sets");
    let (cluster, cols) = solver_case(100, 40, 40);
    for (name, cfg) in [
        ("sb0", ScoreConfig::sb0()),
        ("sb2", ScoreConfig::sb2()),
        ("full", ScoreConfig::full()),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &cfg, |b, cfg| {
            b.iter(|| {
                let mut eval = Eval::new(&cluster, cfg, SimTime::from_secs(100), cols.clone());
                solve(&mut eval, cfg.max_moves)
            })
        });
    }
    group.finish();
}

/// A saturated paper-sized round: 100 Medium hosts, a third off, a third
/// full (every other one hosting a running 200% column beside 200%
/// background), most of the rest within one VM of full (300%
/// background), every fifth of those partly free (100%), and 60 queued
/// 200% columns. No column fits a full or nearly full host, so most rows
/// are dead — the overload regime of a long simulation.
fn saturated_case() -> (Cluster, Vec<VmId>) {
    let hosts = 100u32;
    let specs = (0..hosts)
        .map(|i| HostSpec::standard(HostId(i), HostClass::Medium))
        .collect();
    let mut cluster = Cluster::new(specs, PowerState::On);
    let t0 = SimTime::ZERO;
    let t1 = SimTime::from_secs(40);
    let mut next = 0u64;
    let mut submit = |cluster: &mut Cluster, cpu: u32, submitted: SimTime, secs: u64| {
        let job = Job::new(
            JobId(next),
            submitted,
            Cpu(cpu),
            Mem::gib(1),
            SimDuration::from_secs(secs),
            1.5,
        );
        next += 1;
        cluster.submit_job(job)
    };
    let mut cols = Vec::new();
    for h in 0..hosts {
        let host = HostId(h);
        let mut run = |cluster: &mut Cluster, cpu: u32| {
            let vm = submit(cluster, cpu, t0, 7200);
            cluster.start_creation(vm, host, t0, t1);
            cluster.finish_creation(vm, t1);
            vm
        };
        match h % 3 {
            0 => {
                cluster.begin_power_off(host, t0);
            }
            1 if h % 2 == 1 => {
                run(&mut cluster, 200);
                cols.push(run(&mut cluster, 200));
            }
            1 => {
                run(&mut cluster, 400);
            }
            _ if h % 5 == 0 => {
                run(&mut cluster, 100);
            }
            _ => {
                run(&mut cluster, 300);
            }
        }
    }
    for _ in 0..60 {
        cols.push(submit(&mut cluster, 200, t1, 3600));
    }
    (cluster, cols)
}

fn bench_saturated(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver/saturated");
    let (cluster, cols) = saturated_case();
    let cfg = ScoreConfig::sb();
    group.bench_with_input(BenchmarkId::from_parameter("100h_60v"), &(), |b, ()| {
        b.iter(|| {
            let mut eval = Eval::new(&cluster, &cfg, SimTime::from_secs(100), cols.clone());
            solve(&mut eval, cfg.max_moves)
        })
    });
    group.finish();
}

/// The acceptance case of the incremental engine: one 100-host / 200-VM
/// hill-climbing round, full-rescan reference vs the cached engine
/// (`solve`). `reference` and `incremental` must stay ≥ 3× apart (the
/// `run_all` solver-timing section shape-checks this; here the two means
/// land side by side in `BENCH_solver.json`).
fn bench_cold_vs_incremental(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver/cold_vs_incremental");
    let (cluster, cols) = solver_case(100, 100, 100);
    let cfg = ScoreConfig::sb();
    let cap = 256usize;

    group.bench_with_input(
        BenchmarkId::from_parameter("reference_100h_200v"),
        &(),
        |b, ()| {
            b.iter(|| {
                let mut eval = Eval::new(&cluster, &cfg, SimTime::from_secs(100), cols.clone());
                solve_reference(&mut eval, cap)
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::from_parameter("incremental_100h_200v"),
        &(),
        |b, ()| {
            b.iter(|| {
                let mut eval = Eval::new(&cluster, &cfg, SimTime::from_secs(100), cols.clone());
                solve(&mut eval, cap)
            })
        },
    );
    group.finish();
}

/// Merges all recorded means into `BENCH_solver.json` at the workspace
/// root (preserving the `solver_scale` bench's points, recomputing the
/// derived reference/incremental speedup).
fn write_baseline(c: &Criterion) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_solver.json");
    match merge_solver_baseline(std::path::Path::new(path), c.results()) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn main() {
    let mut criterion = Criterion::default();
    bench_matrix_scaling(&mut criterion);
    bench_iteration_cap(&mut criterion);
    bench_penalty_sets(&mut criterion);
    bench_saturated(&mut criterion);
    bench_cold_vs_incremental(&mut criterion);
    write_baseline(&criterion);
}
