//! Partitioning the snapshot over the serving shards: refresh or
//! rebuild every live shard's tree, and weigh the cuts by capacity.

use super::ClusterTreeGrape;
use crate::perf::PhaseTimers;
use g5tree::domain::Decomposition;
use g5util::vec3::Vec3;
use std::time::Instant;

impl ClusterTreeGrape {
    /// Bring every live shard's tree up to date: refresh the frozen
    /// trees when the policy allows, (re)decompose and rebuild
    /// otherwise. Returns `(decompose_s, build_s, refresh_s)`.
    pub(super) fn ensure_decomposition(&mut self, pos: &[Vec3], mass: &[f64]) -> (f64, f64, f64) {
        let mut alive: Vec<usize> =
            (0..self.shards.len()).filter(|&k| self.shards[k].health.in_service()).collect();
        // a domain cannot be empty: with fewer particles than shards the
        // last shards own nothing and sit the evaluation out
        alive.truncate(pos.len());
        let mut refresh_s = 0.0;
        let reusable =
            self.decomp.as_ref().is_some_and(|d| d.total() == pos.len() && self.live == alive)
                && self.tree_age < self.cfg.base.refresh.interval;
        if reusable {
            let decomp = self.decomp.as_ref().expect("reusable implies a decomposition");
            let limit_frac = self.cfg.base.refresh.max_drift_frac;
            let mut ok = true;
            for (d, &k) in self.live.iter().enumerate() {
                let s = &mut self.shards[k];
                let t0 = Instant::now();
                decomp.gather(d, pos, mass, &mut s.pos, &mut s.mass);
                // each shard's root half-width is its own length scale
                ok = s.engine.refresh(&s.pos, &s.mass, limit_frac);
                let dt = t0.elapsed().as_secs_f64();
                s.timers = PhaseTimers { refresh_s: dt, ..PhaseTimers::default() };
                refresh_s += dt;
                if !ok {
                    break;
                }
            }
            if ok {
                self.tree_age += 1;
                return (0.0, 0.0, refresh_s);
            }
            // some shard blew the drift valve: the refresh work is
            // discarded and this evaluation pays for a rebuild instead
        }

        let t0 = Instant::now();
        // A checkpoint restore pins the interrupted run's cut weights
        // for the replay evaluation; otherwise weigh by capacity.
        let weights = match self.replay_weights.take() {
            Some(w) if w.len() == alive.len() => w,
            _ => self.capacity_weights(&alive),
        };
        // Incremental Morton maintenance: between refreshes most
        // particles keep their rank, so re-sorting only the drifted
        // runs against the previous order's backbone beats a full sort.
        // The merged order is bitwise the from-scratch order ((code,
        // index) keys are unique), so the cuts are hint-independent.
        let (decomp, order) =
            Decomposition::morton_weighted_hinted(pos, &weights, self.order_hint.as_deref());
        self.order_hint = Some(order);
        let decompose_s = t0.elapsed().as_secs_f64();
        // Routine same-membership, same-weights rebuilds (tree aging)
        // are not recovery events; membership or weight changes are.
        if !self.replaying && (self.live != alive || self.cut_weights != weights) {
            self.ledger.record(
                self.evals,
                format!("decomposed over {} shards {alive:?}, weights {weights:?}", alive.len()),
            );
        }
        self.cut_weights = weights;
        let mut build_s = 0.0;
        for (d, &k) in alive.iter().enumerate() {
            let s = &mut self.shards[k];
            let t1 = Instant::now();
            decomp.gather(d, pos, mass, &mut s.pos, &mut s.mass);
            s.engine.rebuild(&s.pos, &s.mass, &self.cfg.base);
            let dt = t1.elapsed().as_secs_f64();
            s.timers = PhaseTimers { build_s: dt, ..PhaseTimers::default() };
            build_s += dt;
        }
        self.decomp = Some(decomp);
        self.live = alive;
        // Fresh trees, zero drift: a drift bound accumulated against
        // the *old* shard boundaries must never price the new ones.
        self.tree_age = 1;
        (decompose_s, build_s + refresh_s, 0.0)
    }

    /// Cut weight of each serving slot: alive boards × a 1–8 throughput
    /// quantile from measured interactions/s. A healthy, unmeasured
    /// cluster (full boards, no rates yet) produces *equal* weights, so
    /// its cuts are bit-identical to the unweighted decomposition.
    fn capacity_weights(&self, alive: &[usize]) -> Vec<u64> {
        let max_rate = alive.iter().map(|&k| self.shards[k].rate).fold(0.0_f64, f64::max);
        alive
            .iter()
            .map(|&k| {
                let boards = (self.shards[k].g5.active_boards() as u64).max(1);
                let rate = self.shards[k].rate;
                // Wide power-of-two bands: healthy measurement spread
                // (small shards differ by 10–30% in per-call overhead)
                // maps into ONE bucket, so a healthy cluster keeps
                // equal weights and its cuts stay bit-identical to the
                // unweighted split; only real slowdowns (≳ 2x) move
                // the cuts.
                let quantile = if max_rate > 0.0 && rate > 0.0 {
                    let r = rate / max_rate;
                    if r >= 0.6 {
                        8
                    } else if r >= 0.3 {
                        4
                    } else if r >= 0.15 {
                        2
                    } else {
                        1
                    }
                } else {
                    8
                };
                boards * quantile
            })
            .collect()
    }
}
