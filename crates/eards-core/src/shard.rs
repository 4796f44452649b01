//! The hill-climb engine (Algorithm 1, §III-B), sharded.
//!
//! Every score-based round runs here: unsharded rounds use a
//! single-shard map ([`ShardMap::single`]), for which the solve is
//! exactly the paper's global hill climb, and at ten thousand hosts the
//! cluster is partitioned into rack-aligned shards ([`ShardMap`]), each
//! shard hill-climbs its own small matrix, and a cheap global balancer
//! re-homes VMs that their shard could not place before a second local
//! pass — trading a bounded amount of solution quality for locality.
//!
//! ## Pass structure
//!
//! 1. **Column assignment.** Running VMs belong to the shard owning their
//!    current host (migrations stay rack-local). Queued VMs are dealt
//!    round-robin across shards from a caller-supplied cursor, so
//!    placement pressure spreads deterministically across rounds.
//! 2. **Local pass.** Shards climb in ascending shard order, each on its
//!    own engine, each up to the caller's move cap. One [`WorkMeter`] is
//!    threaded through every shard, so budget exhaustion is deterministic:
//!    shards exhaust in ascending order, and an exhausted meter skips all
//!    remaining work.
//! 3. **Balance.** Queue columns still unplaced are probed against other
//!    shards (cheapest first filter: per-shard max free host capacity,
//!    then actual cell scores, bounded probes per VM) and re-homed.
//! 4. **Second local pass** over just the re-homed columns on their new
//!    shards.
//!
//! ## Per-shard engine
//!
//! Cells live in struct-of-arrays form: the three round-static halves
//! ([`Eval::static_cell`]) and the current full score are parallel flat
//! arrays, so a dirty-row rescore touches contiguous memory instead of
//! hopping across an array of structs. Only *live* rows have cells: a row
//! that hosts no column and cannot take even the shard's smallest request
//! is *dead* — every cell `∞` for the whole climb — and is never stored,
//! scored or scanned (see `ShardEngine::build`). In a saturated cluster
//! most rows are dead, so a round costs `O(live rows × VMs)` instead of
//! `O(hosts × VMs)`. Applying a move `⟨v → h⟩` changes
//! the overlay (`committed`, `vm_count`, `placement[v]`) of only the VM's
//! old host row and its new row `h`, so a move re-scores exactly those
//! two rows; every other cell, including the rest of column `v`, is
//! provably unchanged. Per column the engine maintains a
//! sorted **top-k candidate list** `(to, row)` plus a *bound*: every
//! feasible cell of the column **not** in the list compares strictly
//! greater than the bound under the `(to, row)` order. The argmin of the
//! list is therefore the argmin of the whole column; a full column rescan
//! is needed only when the list drains while the bound is finite.
//!
//! ## Tie-breaking across shards
//!
//! Within a shard, candidates are ordered by the documented global
//! contract `(Δ, to, column, row)` — with *global* column and row
//! indices, not shard-local ones. A single-shard map therefore reproduces
//! the exact move sequence of the full-rescan
//! [`solve_reference`](crate::solver::solve_reference) (the differential
//! oracle in `tests/shard_oracle.rs` pins this bit-identically); multiple
//! shards restrict each argmin to the shard's rows but never reorder
//! equal candidates.
//!
//! ## Work metering
//!
//! The meter is checked before each shard's engine is built and at the
//! top of every sweep, never mid-sweep, so an armed budget is overshot by
//! at most one step: the build (`m·n` cell scores plus one `m`-row scan
//! per column, `2·m·n`) or one later sweep (at worst every column's
//! candidate list drains into a rescan, `m·n`, plus the argmin `n` and
//! the two-row invalidation `4n`: `m·n + 5n`). These are the dense cost
//! model of Algorithm 1: dead rows are charged like live ones, so a
//! budget buys the same climb however many rows are live.

use eards_model::{Resources, ShardMap};

use crate::budget::{DegradeLevel, WorkMeter};
use crate::eval::{CellStatic, Eval};
use crate::score::Score;
use crate::solver::Solution;

/// Per-column candidate lists keep this many entries. Small enough that
/// insertion is a few shifts, large enough that a burst of moves rarely
/// drains a list into a full-column rescan.
const TOP_K: usize = 8;

/// How many foreign shards the balancer scores cells in (per VM) before
/// giving up on re-homing it.
const BALANCER_PROBES: usize = 4;

/// Outcome of a sharded solve, wrapping the composed [`Solution`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedOutcome {
    /// Moves in application order across all passes, plus sweep/limit
    /// bookkeeping summed over shards.
    pub solution: Solution,
    /// Work units charged across every shard, balancer probe included.
    pub work_spent: u64,
    /// Host rows scored or re-scored across all shard engines: every row
    /// of each initial fill (dead rows included, like the meter) plus the
    /// dirty rows of every applied move.
    pub rows_rescored: u64,
    /// Queue columns dealt by the round-robin assignment this round; the
    /// caller advances its persistent cursor by this much.
    pub creations_assigned: u64,
    /// Queue columns the balancer re-homed to a foreign shard.
    pub balanced: u64,
}

/// One shard's candidate state for one column: sorted top-k plus the
/// exclusion bound (see the module docs).
#[derive(Debug, Clone, Default)]
struct ColCandidates {
    /// Ascending by `(to, global row)`; at most [`TOP_K`] entries.
    top: Vec<(f64, u32)>,
    /// Every feasible cell of the column outside `top` is `> bound`.
    /// `(∞, u32::MAX)` means the list is complete.
    bound: (f64, u32),
}

const BOUND_COMPLETE: (f64, u32) = (f64::INFINITY, u32::MAX);

/// [`ShardEngine::slot`] entry of a dead row: one whose every cell is `∞`
/// for the whole climb, so it has no cell storage.
const DEAD: u32 = u32::MAX;

/// An engine over one shard's host rows × its assigned columns.
///
/// All storage is shard-local and value-typed (no borrows into the
/// evaluator), struct-of-arrays over the cell fields, and kept for live
/// rows only (see [`ShardEngine::build`]).
struct ShardEngine {
    /// First global host row of the shard.
    row0: usize,
    /// Shard height (rows), live and dead.
    m: usize,
    /// Global column ids handled by this shard, ascending.
    cols: Vec<u32>,
    /// Per local row, its slot in the cell storage, or [`DEAD`].
    slot: Vec<u32>,
    /// Local row of each slot, ascending: the live rows.
    live: Vec<u32>,
    // --- struct-of-arrays cell storage, row-major `(slot, col) = s*n + c`.
    feasible: Vec<bool>,
    movein: Vec<Score>,
    fault: Vec<Score>,
    /// Current full score; `f64::INFINITY` marks an infeasible cell.
    value: Vec<f64>,
    /// Per-column candidate state.
    cand: Vec<ColCandidates>,
}

impl ShardEngine {
    /// Builds the engine: classifies each row live or dead, scores every
    /// live cell and builds each column's candidate list.
    ///
    /// A row is *dead* when no column sits on it and the host cannot take
    /// even `min_req`, the component-wise smallest request of the shard's
    /// columns ([`Eval::rejects_at_least`]). Every cell of a dead row is
    /// `∞` — and stays `∞` all climb: power state is round-static, and a
    /// row's overlay changes only when it is a move's source (it hosts a
    /// column) or target (it held a finite cell). Dead rows are never
    /// stored, scored or scanned.
    ///
    /// The meter still charges the dense cost model — `n` per row, live
    /// or dead, and `m` per column scan — and every row counts as
    /// rescored, so budgets, degradation and the outcome stats do not
    /// depend on how many rows are live.
    fn build(
        eval: &Eval<'_>,
        rows: std::ops::Range<usize>,
        cols: Vec<u32>,
        meter: &mut WorkMeter,
        rows_rescored: &mut u64,
    ) -> ShardEngine {
        let row0 = rows.start;
        let m = rows.len();
        let n = cols.len();
        // Rows a column sits on are live whatever their load: mark them
        // (any non-`DEAD` slot) before numbering the live rows.
        let mut slot = vec![DEAD; m];
        let mut min_req: Option<Resources> = None;
        for &v in &cols {
            let v = v as usize;
            if let Some(p) = eval.placement_of(v) {
                slot[p - row0] = 0;
            }
            let req = eval.requested_of(v);
            min_req = Some(min_req.map_or(req, |a| {
                Resources::new(a.cpu.min(req.cpu), a.mem.min(req.mem))
            }));
        }
        let mut live = Vec::with_capacity(m);
        for (r, s) in slot.iter_mut().enumerate() {
            if *s != DEAD || min_req.is_some_and(|q| !eval.rejects_at_least(row0 + r, q)) {
                *s = live.len() as u32;
                live.push(r as u32);
            }
        }
        let cells = live.len() * n;
        let mut eng = ShardEngine {
            row0,
            m,
            cols,
            slot,
            live,
            feasible: vec![false; cells],
            movein: vec![Score::ZERO; cells],
            fault: vec![Score::ZERO; cells],
            value: vec![f64::INFINITY; cells],
            cand: vec![ColCandidates::default(); n],
        };
        for s in 0..eng.live.len() {
            eng.fill_row(eval, s);
        }
        meter.charge((m * n) as u64);
        *rows_rescored += m as u64;
        for c in 0..n {
            meter.charge(m as u64);
            eng.rebuild_col(eval, c);
        }
        eng
    }

    fn n(&self) -> usize {
        self.cols.len()
    }

    /// Scores the live row in slot `s` from scratch (statics + dynamic
    /// half).
    fn fill_row(&mut self, eval: &Eval<'_>, s: usize) {
        let n = self.n();
        let h = self.row0 + self.live[s] as usize;
        for c in 0..n {
            let v = self.cols[c] as usize;
            let cell = eval.static_cell(h, v);
            let idx = s * n + c;
            self.feasible[idx] = cell.feasible;
            self.movein[idx] = cell.movein;
            self.fault[idx] = cell.fault;
            self.value[idx] = eval.score_with_static(h, v, &cell).value();
        }
    }

    /// Re-scores local row `r` reusing the cached static halves — the
    /// same two-half composition [`Eval::score`] uses, so values stay
    /// bit-identical to a fresh `eval.score`. Frozen columns are skipped:
    /// a moved column never moves again this round, and its cells are
    /// never read (not by `best_move`, which skips it, nor by
    /// `rebuild_col`, which is only reached through it), so rescoring
    /// them is dead work — the dominant cost of a move at scale.
    fn rescore_row(&mut self, eval: &Eval<'_>, r: usize, frozen: &[bool], meter: &mut WorkMeter) {
        let n = self.n();
        let h = self.row0 + r;
        let s = self.slot[r] as usize;
        let mut live = 0u64;
        for c in 0..n {
            let v = self.cols[c] as usize;
            if frozen[v] {
                continue;
            }
            live += 1;
            let idx = s * n + c;
            let cell = CellStatic {
                feasible: self.feasible[idx],
                movein: self.movein[idx],
                fault: self.fault[idx],
            };
            self.value[idx] = eval.score_with_static(h, v, &cell).value();
        }
        meter.charge(live);
    }

    /// Full column rescan: rebuilds column `c`'s top-k and bound from the
    /// live rows' cell values (dead rows hold no finite cell). Requires
    /// all rows clean.
    fn rebuild_col(&mut self, eval: &Eval<'_>, c: usize) {
        let n = self.n();
        let v = self.cols[c] as usize;
        let placement = eval.placement_of(v);
        let mut overflow = false;
        let mut top: Vec<(f64, u32)> = std::mem::take(&mut self.cand[c].top);
        top.clear();
        for (slot, &r) in self.live.iter().enumerate() {
            let h = self.row0 + r as usize;
            if placement == Some(h) {
                continue;
            }
            let s = self.value[slot * n + c];
            if s.is_infinite() {
                continue;
            }
            let entry = (s, h as u32);
            let pos = top.partition_point(|&e| e < entry);
            if pos < TOP_K {
                top.insert(pos, entry);
                if top.len() > TOP_K {
                    top.pop();
                    overflow = true;
                }
            } else {
                overflow = true;
            }
        }
        let bound = if overflow {
            // Dropped cells all compare > the last kept entry.
            *top.last().unwrap_or(&BOUND_COMPLETE)
        } else {
            BOUND_COMPLETE
        };
        self.cand[c] = ColCandidates { top, bound };
    }

    /// Applies a move's row invalidation: re-scores the dirty rows and
    /// maintains every column's candidate list (remove entries on dirty
    /// rows, then challenge the dirty cells against the bound). Dirty rows
    /// are always live: a move's source hosts a column and its target held
    /// a finite cell.
    fn invalidate_rows(
        &mut self,
        eval: &Eval<'_>,
        dirty: &[usize],
        frozen: &[bool],
        meter: &mut WorkMeter,
        rows_rescored: &mut u64,
    ) {
        let n = self.n();
        for &r in dirty {
            debug_assert_ne!(self.slot[r], DEAD, "dead row {r} dirtied by a move");
            self.rescore_row(eval, r, frozen, meter);
            *rows_rescored += 1;
        }
        for c in 0..n {
            let v = self.cols[c] as usize;
            if frozen[v] {
                // Dead column (see `rescore_row`): its candidate list is
                // never consulted again.
                continue;
            }
            meter.charge(dirty.len() as u64);
            let placement = eval.placement_of(v);
            let cand = &mut self.cand[c];
            for &r in dirty {
                let h = (self.row0 + r) as u32;
                if let Some(pos) = cand.top.iter().position(|&(_, row)| row == h) {
                    cand.top.remove(pos);
                }
            }
            for &r in dirty {
                let h = self.row0 + r;
                if placement == Some(h) {
                    continue;
                }
                let s = self.value[self.slot[r] as usize * n + c];
                if s.is_infinite() {
                    continue;
                }
                let entry = (s, h as u32);
                if entry >= cand.bound {
                    // Outside the bound: the invariant already covers it.
                    continue;
                }
                let pos = cand.top.partition_point(|&e| e < entry);
                if pos < TOP_K {
                    cand.top.insert(pos, entry);
                    if cand.top.len() > TOP_K {
                        let dropped = cand.top.pop().unwrap_or(BOUND_COMPLETE);
                        if dropped < cand.bound {
                            cand.bound = dropped;
                        }
                    }
                } else {
                    // Worse than every kept candidate: it stays outside,
                    // so the bound must drop to keep covering it.
                    cand.bound = entry;
                }
            }
        }
    }

    /// The head of column `c`'s candidate list, rescanning the column if
    /// the list drained while cells might remain outside the bound.
    fn col_best(&mut self, eval: &Eval<'_>, c: usize, meter: &mut WorkMeter) -> Option<(f64, u32)> {
        if self.cand[c].top.is_empty() && self.cand[c].bound < BOUND_COMPLETE {
            meter.charge(self.m as u64);
            self.rebuild_col(eval, c);
        }
        self.cand[c].top.first().copied()
    }

    /// The most beneficial move within this shard by the global
    /// `(Δ, to, column, row)` contract, subject to the migration bar.
    fn best_move(
        &mut self,
        eval: &Eval<'_>,
        frozen: &[bool],
        meter: &mut WorkMeter,
    ) -> Option<(usize, usize)> {
        meter.charge(self.n() as u64);
        let mut best: Option<(f64, f64, usize, usize)> = None;
        for c in 0..self.n() {
            let v = self.cols[c] as usize;
            if frozen[v] {
                continue;
            }
            let Some((to_val, h)) = self.col_best(eval, c, meter) else {
                continue;
            };
            let from = match eval.placement_of(v) {
                Some(p) => {
                    debug_assert!(
                        (self.row0..self.row0 + self.m).contains(&p),
                        "column {v} placed outside its shard"
                    );
                    // A placed column's row is live (see `build`).
                    let s = self.slot[p - self.row0] as usize;
                    Score::finite(self.value[s * self.n() + c])
                }
                None => Score::INFINITE,
            };
            let Some(d) = Score::delta(Score::finite(to_val), from) else {
                continue;
            };
            let bar = if eval.original_of(v).is_some() {
                -eval.min_migration_gain()
            } else {
                0.0
            };
            if d >= bar {
                continue;
            }
            let cand = (d, to_val, v, h as usize);
            if best.is_none_or(|b| cand < b) {
                best = Some(cand);
            }
        }
        best.map(|(_, _, v, h)| (v, h))
    }
}

/// Hill-climbs one shard to convergence, its move cap, or meter
/// exhaustion. Returns `(hit_move_limit, exhausted)`.
#[allow(clippy::too_many_arguments)]
fn climb_shard(
    eval: &mut Eval<'_>,
    rows: std::ops::Range<usize>,
    cols: Vec<u32>,
    frozen: &mut [bool],
    max_moves: usize,
    meter: &mut WorkMeter,
    moves: &mut Vec<(usize, usize)>,
    sweeps: &mut usize,
    rows_rescored: &mut u64,
) -> (bool, bool) {
    if cols.is_empty() {
        return (false, false);
    }
    let row0 = rows.start;
    let mut eng = ShardEngine::build(eval, rows, cols, meter, rows_rescored);
    let mut local_moves = 0usize;
    while local_moves < max_moves {
        if meter.exhausted() {
            return (false, true);
        }
        *sweeps += 1;
        match eng.best_move(eval, frozen, meter) {
            Some((v, h)) => {
                let old = eval.placement_of(v);
                eval.apply_move(v, h);
                frozen[v] = true;
                moves.push((v, h));
                local_moves += 1;
                let mut dirty = [0usize; 2];
                let mut k = 0;
                if let Some(o) = old {
                    dirty[k] = o - row0;
                    k += 1;
                }
                dirty[k] = h - row0;
                k += 1;
                eng.invalidate_rows(eval, &dirty[..k], frozen, meter, rows_rescored);
            }
            None => return (false, false),
        }
    }
    (true, false)
}

/// Runs the full sharded hierarchical solve (see the module docs for the
/// pass structure). `cursor` seeds the queue-column round-robin;
/// `budget == u64::MAX` leaves the work meter unarmed.
///
/// With a single-shard map this is move-for-move identical to
/// [`solve_reference`](crate::solver::solve_reference) on the same
/// evaluator.
pub fn solve_sharded(
    eval: &mut Eval<'_>,
    map: &ShardMap,
    cursor: u64,
    max_moves: usize,
    budget: u64,
    degrade: DegradeLevel,
) -> ShardedOutcome {
    debug_assert_eq!(map.num_hosts(), eval.num_hosts(), "shard map mismatch");
    let n = eval.num_vms();
    let num_shards = map.num_shards();
    let mut meter = if budget == u64::MAX {
        WorkMeter::unlimited()
    } else {
        WorkMeter::with_budget(budget)
    };

    // Pass 0: deal columns to shards. Running VMs live where their host
    // is; queue columns round-robin from the cursor.
    let mut cols: Vec<Vec<u32>> = vec![Vec::new(); num_shards];
    let mut creations = 0u64;
    for v in 0..n {
        let s = match eval.original_of(v) {
            Some(h) => map.shard_of(h),
            None => {
                let s = ((cursor.wrapping_add(creations)) % num_shards as u64) as usize;
                creations += 1;
                s
            }
        };
        cols[s].push(v as u32);
    }

    let mut frozen = vec![false; n];
    let mut moves = Vec::new();
    let mut sweeps = 0usize;
    let mut rows_rescored = 0u64;
    let mut hit_move_limit = false;
    let mut exhausted = false;

    // Pass 1: local climbs, ascending shard order, one shared meter.
    for (s, shard_cols) in cols.iter_mut().enumerate() {
        if meter.exhausted() {
            exhausted = true;
            break;
        }
        let (hit, ex) = climb_shard(
            eval,
            map.hosts(s),
            std::mem::take(shard_cols),
            &mut frozen,
            max_moves,
            &mut meter,
            &mut moves,
            &mut sweeps,
            &mut rows_rescored,
        );
        hit_move_limit |= hit;
        if ex {
            exhausted = true;
            break;
        }
    }

    // Balance: re-home queue columns their shard could not place.
    let mut balanced: Vec<Vec<u32>> = vec![Vec::new(); num_shards];
    let mut balanced_total = 0u64;
    if num_shards > 1 && !exhausted {
        // Per-shard best-host free capacity, one scan over all hosts.
        let mut max_free = vec![(0u32, 0u32); num_shards];
        meter.charge(map.num_hosts() as u64);
        for (s, slot) in max_free.iter_mut().enumerate() {
            let mut best = (0u32, 0u32);
            for h in map.hosts(s) {
                let free = eval.free_capacity(h);
                best.0 = best.0.max(free.cpu.points());
                best.1 = best.1.max(free.mem.mib());
            }
            *slot = best;
        }
        // Global roomiest host over all shards: when a request does not
        // even fit this, no shard passes the per-shard filter and the ring
        // scan below would walk every shard for nothing — the common case
        // once a big cluster saturates. Skipping it changes no state (a
        // filtered-out shard is side-effect free).
        let gmax = max_free
            .iter()
            .fold((0u32, 0u32), |g, &(c, m)| (g.0.max(c), g.1.max(m)));
        let mut creations_seen = 0u64;
        for (v, &is_frozen) in frozen.iter().enumerate() {
            if eval.original_of(v).is_some() {
                continue;
            }
            let home = ((cursor.wrapping_add(creations_seen)) % num_shards as u64) as usize;
            creations_seen += 1;
            if eval.placement_of(v).is_some() || is_frozen {
                continue;
            }
            if meter.exhausted() {
                exhausted = true;
                break;
            }
            let req = eval.requested_of(v);
            if req.cpu.points() > gmax.0 || req.mem.mib() > gmax.1 {
                continue;
            }
            let mut probes = 0usize;
            'probe: for off in 1..num_shards {
                if probes >= BALANCER_PROBES {
                    break;
                }
                let s = (home + off) % num_shards;
                // Cheap filter: the shard's roomiest host must at least
                // nominally fit the request before any cell is scored.
                if req.cpu.points() > max_free[s].0 || req.mem.mib() > max_free[s].1 {
                    continue;
                }
                probes += 1;
                for h in map.hosts(s) {
                    meter.charge(1);
                    if meter.exhausted() {
                        exhausted = true;
                        break 'probe;
                    }
                    if !eval.score(h, v).is_infinite() {
                        balanced[s].push(v as u32);
                        balanced_total += 1;
                        break 'probe;
                    }
                }
            }
            if exhausted {
                break;
            }
        }
    }

    // Pass 2: local climbs over the re-homed columns only.
    for (s, shard_cols) in balanced.iter_mut().enumerate() {
        if shard_cols.is_empty() {
            continue;
        }
        if meter.exhausted() {
            exhausted = true;
            break;
        }
        let (hit, ex) = climb_shard(
            eval,
            map.hosts(s),
            std::mem::take(shard_cols),
            &mut frozen,
            max_moves,
            &mut meter,
            &mut moves,
            &mut sweeps,
            &mut rows_rescored,
        );
        hit_move_limit |= hit;
        if ex {
            exhausted = true;
            break;
        }
    }

    ShardedOutcome {
        solution: Solution {
            moves,
            sweeps,
            hit_move_limit,
            degrade,
            budget_exhausted: exhausted,
        },
        work_spent: meter.spent(),
        rows_rescored,
        creations_assigned: creations,
        balanced: balanced_total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScoreConfig;
    use crate::solver::solve_reference;
    use eards_model::{Cluster, Cpu, HostClass, HostId, HostSpec, Job, JobId, Mem, PowerState};
    use eards_sim::{SimDuration, SimTime};

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
            SimDuration::from_secs(6000),
            1.5,
        )
    }

    #[test]
    fn single_shard_matches_reference_oracle() {
        for (hosts, vms, cpu, cap) in [
            (4u32, 6u64, 150u32, 32usize),
            (6, 10, 120, 32),
            (3, 2, 100, 32),
            (5, 8, 120, 100),
        ] {
            let mut c = cluster(hosts);
            let ids: Vec<_> = (0..vms).map(|i| c.submit_job(job(i, cpu))).collect();
            let cfg = ScoreConfig::sb();
            let expected = {
                let mut eval = Eval::new(&c, &cfg, t(0), ids.clone());
                solve_reference(&mut eval, cap)
            };
            let mut eval = Eval::new(&c, &cfg, t(0), ids);
            let map = ShardMap::single(hosts as usize);
            let out = solve_sharded(&mut eval, &map, 0, cap, u64::MAX, DegradeLevel::L0Full);
            assert_eq!(
                out.solution.moves, expected.moves,
                "{hosts}h/{vms}v: sharded(1) diverged from the reference climb"
            );
            assert!(!out.solution.budget_exhausted);
        }
    }

    #[test]
    fn cached_cells_match_fresh_scores_after_moves() {
        // The engine re-scores only the two rows a move dirties; after a
        // zig-zag of moves (stacking and vacating) every cached cell must
        // still equal a from-scratch `eval.score` — bitwise.
        let mut c = cluster(4);
        let ids: Vec<_> = (0..5).map(|i| c.submit_job(job(i, 150))).collect();
        let cfg = ScoreConfig::sb();
        let mut eval = Eval::new(&c, &cfg, t(0), ids);
        let mut meter = WorkMeter::unlimited();
        let mut rows = 0u64;
        let mut eng = ShardEngine::build(&eval, 0..4, (0..5).collect(), &mut meter, &mut rows);
        let frozen = [false; 5];
        for &(v, h) in &[(0usize, 0usize), (1, 0), (2, 1), (0, 1), (3, 3), (0, 2)] {
            let old = eval.placement_of(v);
            eval.apply_move(v, h);
            let dirty: Vec<usize> = old.into_iter().chain([h]).collect();
            eng.invalidate_rows(&eval, &dirty, &frozen, &mut meter, &mut rows);
            for h in 0..4 {
                let s = eng.slot[h] as usize;
                for v in 0..5 {
                    let cached = eng.value[s * 5 + v];
                    let fresh = eval.score(h, v).value();
                    assert_eq!(
                        cached.to_bits(),
                        fresh.to_bits(),
                        "cell ({h}, {v}) diverged: cached {cached} fresh {fresh}"
                    );
                }
            }
        }
    }

    #[test]
    fn dead_rows_score_infinite_and_are_not_stored() {
        // Host 0 off, host 1 full, host 2 full but hosting a running
        // column, host 3 with room for one more 100% VM (the smallest
        // column), host 4 empty. Dead: 0 and 1 only.
        let mut c = cluster(5);
        c.begin_power_off(HostId(0), t(0));
        let mut running = Vec::new();
        for (i, h, cpu) in [(0u64, 1u32, 400u32), (1, 2, 300), (2, 2, 100), (3, 3, 300)] {
            let vm = c.submit_job(job(i, cpu));
            c.start_creation(vm, HostId(h), t(0), t(40));
            c.finish_creation(vm, t(40));
            running.push(vm);
        }
        let mut ids = vec![running[2]];
        ids.extend([(4, 200), (5, 300), (6, 400)].map(|(i, cpu)| c.submit_job(job(i, cpu))));
        let cfg = ScoreConfig::sb();
        let eval = Eval::new(&c, &cfg, t(100), ids);
        let mut meter = WorkMeter::unlimited();
        let mut rows = 0u64;
        let eng = ShardEngine::build(&eval, 0..5, (0..4).collect(), &mut meter, &mut rows);
        assert_eq!(eng.slot, [DEAD, DEAD, 0, 1, 2]);
        assert_eq!(eng.live, [2, 3, 4]);
        assert_eq!(eng.value.len(), 3 * 4, "cells stored for live rows only");
        for h in [0, 1] {
            for v in 0..4 {
                assert!(eval.score(h, v).is_infinite(), "dead row {h} column {v}");
            }
        }
        // The meter and the stats still count the dense 5 × 4 block.
        assert_eq!(meter.spent(), 2 * 5 * 4);
        assert_eq!(rows, 5);
    }

    #[test]
    fn multi_shard_places_queued_vms_via_balancer() {
        // 4 hosts in 2 shards (rack size 2); shard 1's hosts are off, so
        // any queue column dealt there cannot place locally — the
        // balancer must re-home it to shard 0 for the second pass.
        let mut c = cluster(4);
        c.begin_power_off(HostId(2), t(0));
        c.begin_power_off(HostId(3), t(0));
        let ids: Vec<_> = (0..2).map(|i| c.submit_job(job(i, 100))).collect();
        let cfg = ScoreConfig::sb();
        let mut eval = Eval::new(&c, &cfg, t(0), ids);
        let map = ShardMap::build(4, 2, 2);
        let out = solve_sharded(&mut eval, &map, 0, 32, u64::MAX, DegradeLevel::L0Full);
        assert_eq!(out.creations_assigned, 2);
        assert_eq!(out.balanced, 1, "the shard-1 column must be re-homed");
        assert_eq!(out.solution.moves.len(), 2, "both VMs must be placed");
        for v in 0..2 {
            let h = eval.placement_of(v).expect("column placed");
            assert_eq!(map.shard_of(h), 0, "only shard 0 has live hosts");
        }
    }

    #[test]
    fn migrations_stay_within_their_shard() {
        let mut c = cluster(4);
        let mut ids = Vec::new();
        for (i, h) in [(0u64, 0u32), (1, 1), (2, 2), (3, 3)] {
            let vm = c.submit_job(job(i, 100));
            c.start_creation(vm, HostId(h), t(0), t(40));
            c.finish_creation(vm, t(40));
            ids.push(vm);
        }
        let cfg = ScoreConfig::sb();
        let mut eval = Eval::new(&c, &cfg, t(100), ids);
        let map = ShardMap::build(4, 2, 2);
        let out = solve_sharded(&mut eval, &map, 0, 32, u64::MAX, DegradeLevel::L0Full);
        for &(v, h) in &out.solution.moves {
            let home = map.shard_of(eval.original_of(v).unwrap());
            assert_eq!(map.shard_of(h), home, "migration {v}→{h} crossed shards");
        }
    }

    #[test]
    fn budget_exhaustion_is_deterministic_and_prefix_stable() {
        let mut c = cluster(6);
        let ids: Vec<_> = (0..10).map(|i| c.submit_job(job(i, 150))).collect();
        let cfg = ScoreConfig::sb();
        let map = ShardMap::build(6, 2, 3);
        let full = {
            let mut eval = Eval::new(&c, &cfg, t(0), ids.clone());
            solve_sharded(&mut eval, &map, 0, 100, u64::MAX, DegradeLevel::L0Full)
        };
        assert!(!full.solution.budget_exhausted);
        let mut last_len = 0usize;
        for budget in [1u64, 20, 100, 400, 2000, full.work_spent] {
            let mut eval = Eval::new(&c, &cfg, t(0), ids.clone());
            let out = solve_sharded(&mut eval, &map, 0, 100, budget, DegradeLevel::L0Full);
            assert_eq!(
                out.solution.moves,
                full.solution.moves[..out.solution.moves.len()],
                "budget {budget}: not a prefix of the unbudgeted climb"
            );
            assert!(out.solution.moves.len() >= last_len, "budget not monotone");
            last_len = out.solution.moves.len();
            if !out.solution.budget_exhausted {
                assert_eq!(out.solution.moves, full.solution.moves);
            }
        }
    }

    #[test]
    fn cursor_spreads_queue_columns_across_shards() {
        let mut c = cluster(4);
        let ids: Vec<_> = (0..2).map(|i| c.submit_job(job(i, 100))).collect();
        let cfg = ScoreConfig::sb();
        let map = ShardMap::build(4, 2, 2);
        // Cursor 0 deals column 0 → shard 0; cursor 1 deals it → shard 1.
        let mut eval = Eval::new(&c, &cfg, t(0), ids.clone());
        let a = solve_sharded(&mut eval, &map, 0, 32, u64::MAX, DegradeLevel::L0Full);
        let mut eval = Eval::new(&c, &cfg, t(0), ids);
        let b = solve_sharded(&mut eval, &map, 1, 32, u64::MAX, DegradeLevel::L0Full);
        assert_eq!(a.creations_assigned, 2);
        // Shard 0 always climbs first; which *column* it got reveals the
        // deal: cursor 0 gives it column 0, cursor 1 gives it column 1.
        assert_eq!(a.solution.moves.first().map(|&(v, _)| v), Some(0));
        assert_eq!(b.solution.moves.first().map(|&(v, _)| v), Some(1));
    }
}
