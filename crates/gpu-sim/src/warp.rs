//! The warp: 32 SIMT lanes with activity accounting and warp primitives.

use crate::metrics::WarpMetrics;

/// Number of lanes per warp, as on every current NVIDIA GPU.
pub const WARP_SIZE: usize = 32;

/// A warp executing a kernel.
///
/// Lanes are simulated *sequentially within the warp's OS thread*: a
/// 32-lane vector operation is executed as a loop, while the metrics count
/// how many lane slots were issued versus how many did useful work — the
/// SIMT-utilization signal behind Fig. 13 of the paper. Divergence and
/// underfull waves therefore cost exactly what they cost on hardware in
/// *accounting* terms, while inter-warp effects (load imbalance, stealing,
/// spinning) are real because each warp owns a thread.
pub struct Warp {
    /// Global warp id within the grid.
    id: usize,
    /// Threadblock index.
    block: usize,
    /// Index of this warp within its block.
    lane_in_block: usize,
    metrics: WarpMetrics,
    /// Current active-lane mask for the simt-check divergence lints: a
    /// [`Warp::wave`] narrows it, the [`Warp::ballot`] closing the wave
    /// reconverges it to all lanes. Only maintained while the divergence
    /// checker is enabled; never read by metrics (checker-off runs stay
    /// bit-identical).
    div_mask: u32,
}

impl Warp {
    pub(crate) fn new(id: usize, block: usize, lane_in_block: usize) -> Warp {
        Warp {
            id,
            block,
            lane_in_block,
            metrics: WarpMetrics::default(),
            div_mask: u32::MAX,
        }
    }

    /// Global warp id.
    #[inline]
    pub fn id(&self) -> usize {
        self.id
    }

    /// The block this warp belongs to.
    #[inline]
    pub fn block(&self) -> usize {
        self.block
    }

    /// This warp's index within its block.
    #[inline]
    pub fn index_in_block(&self) -> usize {
        self.lane_in_block
    }

    /// Mutable access to this warp's metric counters.
    #[inline]
    pub fn metrics_mut(&mut self) -> &mut WarpMetrics {
        &mut self.metrics
    }

    /// Read access to this warp's metric counters.
    #[inline]
    pub fn metrics(&self) -> &WarpMetrics {
        &self.metrics
    }

    pub(crate) fn into_metrics(self) -> WarpMetrics {
        self.metrics
    }

    /// Executes a data-parallel operation over `n` work items in waves of
    /// [`WARP_SIZE`]: issues `ceil(n/32)` SIMT instructions (`n` active lane
    /// slots out of `32 * ceil(n/32)` issued) and returns how many, for
    /// callers that attribute them.
    ///
    /// This is the primitive behind parallel copies and the per-lane binary
    /// searches of `getCandidates`.
    #[inline]
    pub fn simt_for<F: FnMut(usize)>(&mut self, n: usize, mut f: F) -> u64 {
        if n == 0 {
            return 0;
        }
        let waves = n.div_ceil(WARP_SIZE);
        self.metrics.simt_instructions += waves as u64;
        self.metrics.issued_lane_slots += (waves * WARP_SIZE) as u64;
        self.metrics.active_lane_slots += n as u64;
        for i in 0..n {
            f(i);
        }
        waves as u64
    }

    /// Executes one wave with an explicit active-lane mask; `f` is called
    /// only for active lanes. Returns nothing — combine with [`Warp::ballot`]
    /// for predicate waves.
    ///
    /// Divergence lint: the wave narrows the warp's current mask to
    /// `active` and records per-call-site occupancy; the closing `ballot`
    /// reconverges. Sustained sub-warp occupancy at one site is reported by
    /// `simt_check::drain`.
    #[inline]
    #[track_caller]
    pub fn wave<F: FnMut(usize)>(&mut self, active: u32, mut f: F) {
        self.metrics.simt_instructions += 1;
        self.metrics.issued_lane_slots += WARP_SIZE as u64;
        self.metrics.active_lane_slots += u64::from(active.count_ones());
        if simt_check::divergence_on() {
            simt_check::diverge::on_wave(std::panic::Location::caller(), active, self.id);
            self.div_mask = active;
        }
        let mut m = active;
        while m != 0 {
            let lane = m.trailing_zeros() as usize;
            m &= m - 1;
            f(lane);
        }
    }

    /// Charges a stream of `total` elements, one per lane: `⌈total/32⌉`
    /// full-prefix waves (the last one `total mod 32` lanes wide), each
    /// closed by the ballot that compacts its survivors — exactly the
    /// [`Warp::wave`] + [`Warp::ballot`] pairs it stands for, in closed
    /// form. The lanes do no work here (the caller moves the data); while a
    /// simt-check checker is listening the pairs are issued one by one
    /// instead, so every per-wave hook (site occupancy, mask tracking, epoch
    /// ticks) fires as before, attributed to this call's site. A stream
    /// whose survivors are only counted is [`Warp::count_stream`].
    #[inline]
    #[track_caller]
    pub fn stream(&mut self, total: usize) {
        let waves = total.div_ceil(WARP_SIZE);
        if !simt_check::any_on() {
            self.metrics.simt_instructions += 2 * waves as u64;
            self.metrics.issued_lane_slots += (waves * WARP_SIZE) as u64;
            self.metrics.active_lane_slots += total as u64;
            return;
        }
        for wave in 0..waves {
            let active = Self::prefix_mask(total, wave);
            self.wave(active, |_| {});
            let _ = self.ballot(active);
        }
    }

    /// [`Warp::stream`] without the ballots: `⌈total/32⌉` full-prefix waves
    /// whose lanes each keep a private tally, so nothing is compacted and
    /// nothing closes a wave — Fig. 3 line 16 adds `|C|`, it never iterates
    /// it. While a checker listens the waves are issued one by one (site
    /// occupancy at the caller's site), and the warp reconverges after the
    /// last one without a charged instruction, so a following scan is not
    /// issued while diverged.
    #[inline]
    #[track_caller]
    pub fn count_stream(&mut self, total: usize) {
        let waves = total.div_ceil(WARP_SIZE);
        if !simt_check::any_on() {
            self.metrics.simt_instructions += waves as u64;
            self.metrics.issued_lane_slots += (waves * WARP_SIZE) as u64;
            self.metrics.active_lane_slots += total as u64;
            return;
        }
        for wave in 0..waves {
            self.wave(Self::prefix_mask(total, wave), |_| {});
        }
        self.div_mask = u32::MAX;
    }

    /// Active mask of wave `wave` of a `total`-element stream: its first
    /// `min(32, total − 32·wave)` lanes.
    #[inline]
    fn prefix_mask(total: usize, wave: usize) -> u32 {
        u32::MAX >> (WARP_SIZE - (total - wave * WARP_SIZE).min(WARP_SIZE))
    }

    /// `__ballot_sync`: collects one predicate bit per lane. The caller
    /// supplies the bits (lanes are simulated in-thread); the warp accounts
    /// one SIMT instruction.
    ///
    /// Divergence lint: predicate bits naming lanes inactive under a
    /// divergent mask are the software analogue of `__ballot_sync` with
    /// non-participating lanes — undefined behavior on hardware, a hard
    /// diagnostic here. The ballot reconverges the warp (all lanes active)
    /// and, when race checking is on, advances the warp's epoch clock — a
    /// ballot is the warp-synchronous point the paper's Fig. 8 waves pivot
    /// on.
    #[inline]
    #[track_caller]
    pub fn ballot(&mut self, bits: u32) -> u32 {
        self.metrics.simt_instructions += 1;
        if simt_check::divergence_on() {
            simt_check::diverge::on_ballot(
                std::panic::Location::caller(),
                bits,
                self.div_mask,
                self.id,
            );
            self.div_mask = u32::MAX;
        }
        simt_check::epoch_advance();
        bits
    }

    /// `__popc`: population count. Free on hardware and free here: it
    /// charges no instruction.
    #[inline]
    pub fn popc(&mut self, mask: u32) -> u32 {
        mask.count_ones()
    }

    /// Exclusive prefix sum over one value per lane, as a warp-level scan
    /// (`log2(32)` shuffle instructions on hardware). `vals` is replaced by
    /// its exclusive prefix sums; the total is returned.
    ///
    /// Divergence lint: the scan is a full-warp cooperative primitive;
    /// issuing it while diverged is a hard diagnostic.
    #[track_caller]
    pub fn exclusive_scan(&mut self, vals: &mut [u32; WARP_SIZE]) -> u32 {
        if simt_check::divergence_on() {
            simt_check::diverge::on_scan(std::panic::Location::caller(), self.div_mask, self.id);
        }
        self.metrics.simt_instructions += 5; // log2(32) shuffle steps
        self.metrics.issued_lane_slots += (5 * WARP_SIZE) as u64;
        self.metrics.active_lane_slots += (5 * WARP_SIZE) as u64;
        let mut acc = 0u32;
        for v in vals.iter_mut() {
            let next = acc + *v;
            *v = acc;
            acc = next;
        }
        acc
    }

    /// `__shfl_sync`: every lane reads `values[src_lane]`. Returns the
    /// broadcast value; accounts one SIMT instruction.
    ///
    /// Divergence lint: reading from a lane inactive under a divergent mask
    /// yields garbage on hardware — a hard diagnostic here.
    #[inline]
    #[track_caller]
    pub fn shfl<T: Copy>(&mut self, values: &[T; WARP_SIZE], src_lane: usize) -> T {
        debug_assert!(src_lane < WARP_SIZE);
        self.metrics.simt_instructions += 1;
        if simt_check::divergence_on() {
            simt_check::diverge::on_shfl(
                std::panic::Location::caller(),
                src_lane,
                self.div_mask,
                self.id,
            );
        }
        values[src_lane]
    }

    /// Number of 1-bits in `mask` strictly below `lane` — the
    /// `__popc(mask & ((1 << lane) - 1))` idiom used for output compaction
    /// in the combined set operation (Fig. 8).
    #[inline]
    pub fn rank_in_mask(&self, mask: u32, lane: usize) -> u32 {
        (mask & ((1u32 << lane) - 1)).count_ones()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_warp() -> Warp {
        Warp::new(3, 1, 3)
    }

    #[test]
    fn identity_accessors() {
        let w = test_warp();
        assert_eq!(w.id(), 3);
        assert_eq!(w.block(), 1);
        assert_eq!(w.index_in_block(), 3);
    }

    #[test]
    fn simt_for_accounts_waves() {
        let mut w = test_warp();
        let mut sum = 0usize;
        w.simt_for(40, |i| sum += i);
        assert_eq!(sum, (0..40).sum::<usize>());
        let m = w.metrics();
        assert_eq!(m.simt_instructions, 2); // ceil(40/32)
        assert_eq!(m.issued_lane_slots, 64);
        assert_eq!(m.active_lane_slots, 40);
    }

    #[test]
    fn simt_for_zero_is_free() {
        let mut w = test_warp();
        w.simt_for(0, |_| panic!("must not run"));
        assert_eq!(w.metrics().simt_instructions, 0);
    }

    #[test]
    fn utilization_reflects_small_sets() {
        // An 8-element set op uses 8/32 of a wave — the underutilization
        // that motivates loop unrolling in the paper.
        let mut w = test_warp();
        w.simt_for(8, |_| {});
        let m = w.metrics();
        assert!((m.lane_utilization() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn wave_runs_only_active_lanes() {
        let mut w = test_warp();
        let mut lanes = Vec::new();
        w.wave(0b1010_0001, |lane| lanes.push(lane));
        assert_eq!(lanes, vec![0, 5, 7]);
        assert_eq!(w.metrics().active_lane_slots, 3);
        assert_eq!(w.metrics().issued_lane_slots, 32);
    }

    #[test]
    fn stream_is_its_wave_ballot_pairs_in_closed_form() {
        for total in [0usize, 1, 31, 32, 33, 64, 1000] {
            let mut closed = test_warp();
            closed.stream(total);
            let mut pairs = test_warp();
            for wave in 0..total.div_ceil(WARP_SIZE) {
                let in_wave = (total - wave * WARP_SIZE).min(WARP_SIZE);
                let active = u32::MAX >> (WARP_SIZE - in_wave);
                pairs.wave(active, |_| {});
                pairs.ballot(active);
            }
            assert_eq!(closed.metrics(), pairs.metrics(), "total {total}");
        }
    }

    #[test]
    fn count_stream_is_its_waves_in_closed_form_and_a_stream_less_its_ballots() {
        for total in [0usize, 1, 31, 32, 33, 64, 1000] {
            let mut closed = test_warp();
            closed.count_stream(total);
            let mut waves = test_warp();
            for wave in 0..total.div_ceil(WARP_SIZE) {
                waves.wave(Warp::prefix_mask(total, wave), |_| {});
            }
            assert_eq!(closed.metrics(), waves.metrics(), "total {total}");
            let mut compacted = test_warp();
            compacted.stream(total);
            let (c, s) = (closed.metrics(), compacted.metrics());
            assert_eq!(
                s.simt_instructions - c.simt_instructions,
                total.div_ceil(WARP_SIZE) as u64,
                "total {total}"
            );
            assert_eq!(
                (c.active_lane_slots, c.issued_lane_slots),
                (s.active_lane_slots, s.issued_lane_slots),
                "total {total}"
            );
        }
    }

    #[test]
    fn exclusive_scan_matches_reference() {
        let mut w = test_warp();
        let mut vals = [0u32; WARP_SIZE];
        for (i, v) in vals.iter_mut().enumerate() {
            *v = i as u32;
        }
        let total = w.exclusive_scan(&mut vals);
        assert_eq!(total, (0..32).sum::<u32>());
        assert_eq!(vals[0], 0);
        assert_eq!(vals[5], (0..5).sum::<u32>());
    }

    #[test]
    fn rank_in_mask_counts_lower_bits() {
        let w = test_warp();
        let mask = 0b1011_0110u32;
        assert_eq!(w.rank_in_mask(mask, 0), 0);
        assert_eq!(w.rank_in_mask(mask, 3), 2);
        assert_eq!(w.rank_in_mask(mask, 8), 5);
    }

    #[test]
    fn shfl_broadcasts_one_lane() {
        let mut w = test_warp();
        let mut vals = [0u32; WARP_SIZE];
        vals[7] = 99;
        assert_eq!(w.shfl(&vals, 7), 99);
        assert_eq!(w.shfl(&vals, 0), 0);
        assert_eq!(w.metrics().simt_instructions, 2);
    }

    #[test]
    fn ballot_passes_bits_through() {
        let mut w = test_warp();
        assert_eq!(w.ballot(0xF0F0), 0xF0F0);
        assert_eq!(w.popc(0xF0F0), 8);
    }
}
