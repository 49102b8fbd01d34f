//! Instrumentation: per-warp counters and grid-level aggregation.

use crate::cost::Site;

/// Counters accumulated by one warp during a kernel.
///
/// The SIMT counters are maintained by [`crate::Warp::charge`] alone; the
/// steal/match and kernel counters are written by the matching engines.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WarpMetrics {
    /// SIMT instructions issued (waves).
    pub simt_instructions: u64,
    /// The share of `simt_instructions` issued by set operations: size
    /// scans, element streams with their ballots, bitmap word waves.
    pub set_op_instructions: u64,
    /// The share issued by the validity waves of the claims that still test
    /// candidates wave by wave, and by fused tails.
    pub claim_instructions: u64,
    /// The share issued by last-level count passes and key waves. What the
    /// three shares leave of `simt_instructions` is transfer charges
    /// ([`Site::Transfer`]).
    pub count_pass_instructions: u64,
    /// Lane slots issued (`32 ×` waves).
    pub issued_lane_slots: u64,
    /// Lane slots that did useful work.
    pub active_lane_slots: u64,
    /// The lane counters split like the instructions, so a utilization move
    /// is attributed to a site ([`WarpMetrics::at`]).
    pub set_op_issued_lane_slots: u64,
    pub set_op_active_lane_slots: u64,
    pub claim_issued_lane_slots: u64,
    pub claim_active_lane_slots: u64,
    pub count_pass_issued_lane_slots: u64,
    pub count_pass_active_lane_slots: u64,
    /// Local (intra-block) steal attempts.
    pub local_steal_attempts: u64,
    /// Successful local steals.
    pub local_steals: u64,
    /// Tasks pushed to idle blocks (global stealing, target side).
    pub global_steal_pushes: u64,
    /// Tasks received from other blocks (global stealing, stealer side).
    pub global_steal_receives: u64,
    /// Work items reclaimed from dead warps (fault recovery path).
    pub requeue_claims: u64,
    /// Matches emitted by this warp.
    pub matches_found: u64,
    /// Hub-bitmap membership probes of an operand's row (one O(1) word test
    /// per input element a slot streams against it).
    pub bitmap_probe_words: u64,
    /// Bitmap words streamed by word-parallel merges (word-merge slots and
    /// fused bitmap chains): one per word AND/ANDN.
    pub bitmap_merge_words: u64,
    /// SIMT waves issued by word-parallel merges (32 words per wave).
    pub bitmap_merge_waves: u64,
    /// Lanes of the combining set operations' element streams: one per
    /// streamed element, of whichever side of its slot streams.
    pub element_lanes: u64,
    /// The share of `element_lanes` whose slots streamed their (shorter)
    /// operand against the input's bitmap row.
    pub operand_lanes: u64,
    /// Candidate-list slab overflows that spilled to the heap.
    pub spill_events: u64,
    /// High-water mark of live candidate cells in the warp's stack arena.
    /// Merges by max: a grid reports its worst warp.
    pub peak_slab_cells: u64,
    /// Fused-tail streams: counting streams over a whole parent batch of the
    /// last claim level.
    pub tail_streams: u64,
    /// Survivors the fused tails counted in closed form.
    pub tail_survivors: u64,
    /// Nanoseconds spent doing useful matching work.
    pub busy_nanos: u64,
    /// Nanoseconds spent idle (spinning for work).
    pub idle_nanos: u64,
}

impl WarpMetrics {
    /// Fraction of issued lane slots that were active (Fig. 13's
    /// "thread utilization"). 1.0 when nothing was issued.
    pub fn lane_utilization(&self) -> f64 {
        if self.issued_lane_slots == 0 {
            1.0
        } else {
            self.active_lane_slots as f64 / self.issued_lane_slots as f64
        }
    }

    /// What was booked to `site`: `[instructions, issued lane slots, active
    /// lane slots]`. [`Site::Transfer`] holds what the other three sites
    /// leave of the totals.
    pub fn at(&self, site: Site) -> [u64; 3] {
        match site {
            Site::SetOp => [
                self.set_op_instructions,
                self.set_op_issued_lane_slots,
                self.set_op_active_lane_slots,
            ],
            Site::Claim => [
                self.claim_instructions,
                self.claim_issued_lane_slots,
                self.claim_active_lane_slots,
            ],
            Site::CountPass => [
                self.count_pass_instructions,
                self.count_pass_issued_lane_slots,
                self.count_pass_active_lane_slots,
            ],
            Site::Transfer => {
                let sites = [Site::SetOp, Site::Claim, Site::CountPass].map(|s| self.at(s));
                let left = |i: usize, total: u64| total - sites.iter().map(|s| s[i]).sum::<u64>();
                [
                    left(0, self.simt_instructions),
                    left(1, self.issued_lane_slots),
                    left(2, self.active_lane_slots),
                ]
            }
        }
    }

    /// Merges another warp's counters into this one.
    pub fn merge(&mut self, other: &WarpMetrics) {
        self.simt_instructions += other.simt_instructions;
        self.set_op_instructions += other.set_op_instructions;
        self.claim_instructions += other.claim_instructions;
        self.count_pass_instructions += other.count_pass_instructions;
        self.issued_lane_slots += other.issued_lane_slots;
        self.active_lane_slots += other.active_lane_slots;
        self.set_op_issued_lane_slots += other.set_op_issued_lane_slots;
        self.set_op_active_lane_slots += other.set_op_active_lane_slots;
        self.claim_issued_lane_slots += other.claim_issued_lane_slots;
        self.claim_active_lane_slots += other.claim_active_lane_slots;
        self.count_pass_issued_lane_slots += other.count_pass_issued_lane_slots;
        self.count_pass_active_lane_slots += other.count_pass_active_lane_slots;
        self.local_steal_attempts += other.local_steal_attempts;
        self.local_steals += other.local_steals;
        self.global_steal_pushes += other.global_steal_pushes;
        self.global_steal_receives += other.global_steal_receives;
        self.requeue_claims += other.requeue_claims;
        self.matches_found += other.matches_found;
        self.bitmap_probe_words += other.bitmap_probe_words;
        self.bitmap_merge_words += other.bitmap_merge_words;
        self.bitmap_merge_waves += other.bitmap_merge_waves;
        self.element_lanes += other.element_lanes;
        self.operand_lanes += other.operand_lanes;
        self.spill_events += other.spill_events;
        self.peak_slab_cells = self.peak_slab_cells.max(other.peak_slab_cells);
        self.tail_streams += other.tail_streams;
        self.tail_survivors += other.tail_survivors;
        self.busy_nanos += other.busy_nanos;
        self.idle_nanos += other.idle_nanos;
    }
}

/// Aggregated results of one grid launch.
#[derive(Clone, Debug, Default)]
pub struct GridMetrics {
    /// Per-warp counters, indexed by global warp id.
    pub warps: Vec<WarpMetrics>,
    /// Wall-clock time of the launch in nanoseconds.
    pub elapsed_nanos: u64,
    /// Number of kernel launches this metrics object covers (subgraph-
    /// centric baselines launch once per extension step).
    pub kernel_launches: u64,
    /// Warp panics contained by [`crate::Grid::launch_contained`] (0 for
    /// healthy runs and for plain [`crate::Grid::launch`]).
    pub contained_panics: u64,
}

impl GridMetrics {
    /// Sum of all warp counters.
    pub fn total(&self) -> WarpMetrics {
        let mut acc = WarpMetrics::default();
        for w in &self.warps {
            acc.merge(w);
        }
        acc
    }

    /// Grid-wide SIMT lane utilization.
    pub fn lane_utilization(&self) -> f64 {
        self.total().lane_utilization()
    }

    /// Total matches across warps.
    pub fn matches(&self) -> u64 {
        self.total().matches_found
    }

    /// Load imbalance: max warp busy time over mean warp busy time.
    /// 1.0 is perfectly balanced; large values are the outer-loop
    /// parallelization problem the paper's work stealing attacks.
    pub fn load_imbalance(&self) -> f64 {
        let busies: Vec<u64> = self.warps.iter().map(|w| w.busy_nanos).collect();
        let max = busies.iter().copied().max().unwrap_or(0);
        let sum: u64 = busies.iter().sum();
        if sum == 0 || busies.is_empty() {
            return 1.0;
        }
        let mean = sum as f64 / busies.len() as f64;
        max as f64 / mean
    }

    /// Fraction of warp time spent busy rather than spinning — the
    /// occupancy signal the paper profiles with Nsight for Fig. 12.
    pub fn busy_fraction(&self) -> f64 {
        let t = self.total();
        let denom = t.busy_nanos + t.idle_nanos;
        if denom == 0 {
            1.0
        } else {
            t.busy_nanos as f64 / denom as f64
        }
    }

    /// [`GridMetrics::merge`] of another launch's metrics taken by value:
    /// while `self` holds no warps (a fresh default) `other` moves in whole,
    /// so nothing is copied or allocated.
    pub fn absorb(&mut self, other: GridMetrics) {
        if self.warps.is_empty() {
            *self = other;
        } else {
            self.merge(&other);
        }
    }

    /// Merges metrics from another launch (for multi-launch baselines and
    /// multi-device runs).
    pub fn merge(&mut self, other: &GridMetrics) {
        if self.warps.len() < other.warps.len() {
            self.warps.resize(other.warps.len(), WarpMetrics::default());
        }
        for (mine, theirs) in self.warps.iter_mut().zip(&other.warps) {
            mine.merge(theirs);
        }
        self.elapsed_nanos += other.elapsed_nanos;
        self.kernel_launches += other.kernel_launches;
        self.contained_panics += other.contained_panics;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn warp_with(busy: u64, idle: u64, active: u64, issued: u64) -> WarpMetrics {
        WarpMetrics {
            busy_nanos: busy,
            idle_nanos: idle,
            active_lane_slots: active,
            issued_lane_slots: issued,
            ..WarpMetrics::default()
        }
    }

    #[test]
    fn utilization_of_empty_metrics_is_one() {
        assert_eq!(WarpMetrics::default().lane_utilization(), 1.0);
        assert_eq!(GridMetrics::default().lane_utilization(), 1.0);
    }

    #[test]
    fn grid_totals_and_utilization() {
        let g = GridMetrics {
            warps: vec![warp_with(0, 0, 8, 32), warp_with(0, 0, 24, 32)],
            elapsed_nanos: 1,
            kernel_launches: 1,
            ..Default::default()
        };
        assert_eq!(g.total().active_lane_slots, 32);
        assert!((g.lane_utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn load_imbalance_detects_skew() {
        let balanced = GridMetrics {
            warps: vec![warp_with(100, 0, 0, 0), warp_with(100, 0, 0, 0)],
            ..Default::default()
        };
        assert!((balanced.load_imbalance() - 1.0).abs() < 1e-12);
        let skewed = GridMetrics {
            warps: vec![warp_with(300, 0, 0, 0), warp_with(100, 0, 0, 0)],
            ..Default::default()
        };
        assert!((skewed.load_imbalance() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn busy_fraction() {
        let g = GridMetrics {
            warps: vec![warp_with(75, 25, 0, 0)],
            ..Default::default()
        };
        assert!((g.busy_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates_bitmap_counters() {
        let mut a = WarpMetrics {
            bitmap_probe_words: 3,
            bitmap_merge_words: 10,
            bitmap_merge_waves: 1,
            ..WarpMetrics::default()
        };
        a.merge(&WarpMetrics {
            bitmap_probe_words: 7,
            bitmap_merge_words: 22,
            bitmap_merge_waves: 2,
            ..WarpMetrics::default()
        });
        assert_eq!(a.bitmap_probe_words, 10);
        assert_eq!(a.bitmap_merge_words, 32);
        assert_eq!(a.bitmap_merge_waves, 3);
    }

    #[test]
    fn merge_accumulates_the_instruction_split() {
        let mut a = WarpMetrics {
            simt_instructions: 20,
            issued_lane_slots: 400,
            active_lane_slots: 300,
            set_op_instructions: 5,
            set_op_issued_lane_slots: 160,
            set_op_active_lane_slots: 150,
            claim_instructions: 2,
            claim_issued_lane_slots: 64,
            claim_active_lane_slots: 3,
            count_pass_instructions: 7,
            count_pass_issued_lane_slots: 96,
            count_pass_active_lane_slots: 90,
            ..WarpMetrics::default()
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.at(Site::SetOp), [10, 320, 300]);
        assert_eq!(a.at(Site::Claim), [4, 128, 6]);
        assert_eq!(a.at(Site::CountPass), [14, 192, 180]);
        // Transfer is the remainder.
        assert_eq!(a.at(Site::Transfer), [12, 160, 114]);
    }

    #[test]
    fn merge_sums_kernel_counters_but_takes_the_peak() {
        let mut a = WarpMetrics {
            spill_events: 1,
            peak_slab_cells: 40,
            tail_streams: 2,
            tail_survivors: 9,
            ..WarpMetrics::default()
        };
        a.merge(&WarpMetrics {
            spill_events: 2,
            peak_slab_cells: 30,
            tail_streams: 1,
            tail_survivors: 5,
            ..WarpMetrics::default()
        });
        let kernel = [
            a.spill_events,
            a.peak_slab_cells,
            a.tail_streams,
            a.tail_survivors,
        ];
        assert_eq!(kernel, [3, 40, 3, 14]);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = GridMetrics {
            warps: vec![warp_with(1, 0, 1, 32)],
            elapsed_nanos: 10,
            kernel_launches: 1,
            ..Default::default()
        };
        let b = GridMetrics {
            warps: vec![warp_with(2, 0, 3, 32), warp_with(5, 0, 0, 0)],
            elapsed_nanos: 20,
            kernel_launches: 2,
            contained_panics: 1,
        };
        a.merge(&b);
        assert_eq!(a.warps.len(), 2);
        assert_eq!(a.warps[0].busy_nanos, 3);
        assert_eq!(a.elapsed_nanos, 30);
        assert_eq!(a.kernel_launches, 3);
        assert_eq!(a.contained_panics, 1);
    }
}
