//! The cost table: what every simulated charge costs, in one place.
//!
//! A kernel adds SIMT instructions to its warp only through
//! [`Warp::charge`], which prices one [`Cost`] entry and books it, with the
//! lane slots it issued and kept active, to one [`Site`] of the
//! [`WarpMetrics`](crate::WarpMetrics) split — so
//! `set_op + claim + count_pass + transfer == simt_instructions` holds by
//! construction, and so does each lane counter's split. While a simt-check
//! checker listens, a stream also fires the hooks of its scan, waves and
//! ballots one by one at the caller's site (occupancy, mask tracking, the
//! ballot's epoch tick); the price is the closed form either way.

use crate::warp::{Warp, WARP_SIZE};
use simt_check::diverge;

/// The share of `WarpMetrics::simt_instructions` a charge is booked to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Site {
    /// `set_op_instructions`: size scans, element and bitmap word streams.
    SetOp,
    /// `claim_instructions`: the validity waves of the claims that still
    /// test candidates one wave at a time, and fused tails.
    Claim,
    /// `count_pass_instructions`: last-level count passes and tail key waves.
    CountPass,
    /// What the other three leave of the total: steal and requeue bursts,
    /// the comparators' prefix fetches and materialization stores.
    Transfer,
}

/// A fixed transfer burst moving a work item.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Burst {
    /// A stack copied within a block (a local steal).
    Block,
    /// A stack through global memory (a requeue, a global steal or its push).
    Global,
}

/// How each wave of a [`Cost::Stream`] closes: the ballots it issues.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Close {
    /// None: the survivors are only counted, in lane-private tallies (Fig. 3
    /// line 16 adds `|C|`, it never iterates it).
    Counted,
    /// One ballot, whose mask compacts the wave's survivors.
    Compacted,
    /// Two: the compacting ballot, and one of `member ∧ valid` handed to the
    /// claim that iterates the set — which other readers keep the first from
    /// carrying.
    Masked,
}

impl Close {
    /// Ballots per wave.
    pub const fn ballots(self) -> u64 {
        match self {
            Close::Counted => 0,
            Close::Compacted => 1,
            Close::Masked => 2,
        }
    }
}

/// One entry of the cost table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cost {
    /// `n` lanes, one lane instruction each: `⌈n/32⌉` waves.
    Lanes(usize),
    /// Fig. 8's combined set operation over `slots` slots and `lanes`
    /// elements: a size scan mapping lanes to `(slot, offset)` iff
    /// `slots > 1` (`log₂ 32` shuffle steps, every lane active), then
    /// `⌈lanes/32⌉` waves, each closed by the ballots of its [`Close`].
    /// Free at `lanes == 0`.
    Stream {
        slots: usize,
        lanes: usize,
        close: Close,
    },
    /// A fixed burst; it occupies no lane slots.
    Transfer(Burst),
}

/// Instructions of the size scan.
const SCAN_STEPS: u64 = 5;

impl Cost {
    /// The entry in closed form: `(instructions, issued lane slots, active
    /// lane slots)`.
    pub const fn price(self) -> (u64, u64, u64) {
        let warp = WARP_SIZE as u64;
        match self {
            Cost::Lanes(n) => {
                let waves = n.div_ceil(WARP_SIZE) as u64;
                (waves, waves * warp, n as u64)
            }
            Cost::Stream { lanes: 0, .. } => (0, 0, 0),
            Cost::Stream {
                slots,
                lanes,
                close,
            } => {
                // The scan maps one slot per lane; `EngineConfig::validate`
                // bounds unroll at the warp width for this reason.
                assert!(slots <= WARP_SIZE, "more slots than scan lanes");
                let waves = lanes.div_ceil(WARP_SIZE) as u64;
                let scan = if slots > 1 { SCAN_STEPS } else { 0 };
                let ballots = close.ballots() * waves;
                let active = scan * warp + lanes as u64;
                (scan + waves + ballots, (scan + waves) * warp, active)
            }
            Cost::Transfer(Burst::Block) => (32, 0, 0),
            Cost::Transfer(Burst::Global) => (256, 0, 0),
        }
    }
}

impl Warp {
    /// Charges `cost` to this warp, books it — instructions, issued and
    /// active lane slots — to `site` and returns the instructions it issued.
    /// The simt-check site is the caller's.
    #[inline]
    #[track_caller]
    pub fn charge(&mut self, site: Site, cost: Cost) -> u64 {
        if simt_check::any_on() {
            self.fire_hooks(cost);
        }
        let (n, issued, active) = cost.price();
        let m = &mut self.metrics;
        m.simt_instructions += n;
        m.issued_lane_slots += issued;
        m.active_lane_slots += active;
        match site {
            Site::SetOp => {
                m.set_op_instructions += n;
                m.set_op_issued_lane_slots += issued;
                m.set_op_active_lane_slots += active;
            }
            Site::Claim => {
                m.claim_instructions += n;
                m.claim_issued_lane_slots += issued;
                m.claim_active_lane_slots += active;
            }
            Site::CountPass => {
                m.count_pass_instructions += n;
                m.count_pass_issued_lane_slots += issued;
                m.count_pass_active_lane_slots += active;
            }
            Site::Transfer => {}
        }
        n
    }

    /// A stream's hooks, in issue order. The scan is warp-cooperative: a
    /// hard diagnostic while diverged. Each wave narrows the warp's mask to
    /// its lanes and records the site's occupancy (sustained sub-warp
    /// occupancy is a warning); each of its ballots checks the
    /// `__ballot_sync` mask contract, reconverges and ticks the race
    /// checker's epoch. A counted stream reconverges after its last wave
    /// without an instruction.
    #[track_caller]
    fn fire_hooks(&mut self, cost: Cost) {
        let Cost::Stream {
            slots,
            lanes: lanes @ 1..,
            close,
        } = cost
        else {
            return;
        };
        let (at, id) = (std::panic::Location::caller(), self.id());
        let divergence = simt_check::divergence_on();
        if divergence && slots > 1 {
            diverge::on_scan(at, self.div_mask, id);
        }
        for wave in 0..lanes.div_ceil(WARP_SIZE) {
            let active = u32::MAX >> (WARP_SIZE - (lanes - wave * WARP_SIZE).min(WARP_SIZE));
            if divergence {
                diverge::on_wave(at, active, id);
                self.div_mask = active;
            }
            for _ in 0..close.ballots() {
                if divergence {
                    diverge::on_ballot(at, active, self.div_mask, id);
                }
                self.div_mask = u32::MAX;
                simt_check::epoch_advance();
            }
        }
        self.div_mask = u32::MAX;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SITES: [Site; 4] = [Site::SetOp, Site::Claim, Site::CountPass, Site::Transfer];

    fn stream(slots: usize, lanes: usize, close: Close) -> Cost {
        Cost::Stream {
            slots,
            lanes,
            close,
        }
    }

    /// Every entry: `(cost, [instructions, issued, active])`.
    fn table() -> Vec<(Cost, [u64; 3])> {
        let mut rows = vec![
            (Cost::Lanes(0), [0, 0, 0]),
            (Cost::Lanes(1), [1, 32, 1]),
            (Cost::Lanes(31), [1, 32, 31]),
            (Cost::Lanes(32), [1, 32, 32]),
            (Cost::Lanes(33), [2, 64, 33]),
            (Cost::Transfer(Burst::Block), [32, 0, 0]),
            (Cost::Transfer(Burst::Global), [256, 0, 0]),
        ];
        // Slots 0 and 1 price alike: no scan. Each ballot is an instruction
        // that issues no lane slot.
        for slots in [0, 1] {
            rows.extend([
                (stream(slots, 0, Close::Compacted), [0, 0, 0]),
                (stream(slots, 1, Close::Compacted), [2, 32, 1]),
                (stream(slots, 31, Close::Compacted), [2, 32, 31]),
                (stream(slots, 32, Close::Compacted), [2, 32, 32]),
                (stream(slots, 33, Close::Compacted), [4, 64, 33]),
                (stream(slots, 0, Close::Counted), [0, 0, 0]),
                (stream(slots, 1, Close::Counted), [1, 32, 1]),
                (stream(slots, 31, Close::Counted), [1, 32, 31]),
                (stream(slots, 32, Close::Counted), [1, 32, 32]),
                (stream(slots, 33, Close::Counted), [2, 64, 33]),
                (stream(slots, 0, Close::Masked), [0, 0, 0]),
                (stream(slots, 1, Close::Masked), [3, 32, 1]),
                (stream(slots, 32, Close::Masked), [3, 32, 32]),
                (stream(slots, 33, Close::Masked), [6, 64, 33]),
            ]);
        }
        rows.extend([
            (stream(2, 0, Close::Compacted), [0, 0, 0]),
            (stream(2, 1, Close::Compacted), [7, 192, 161]),
            (stream(2, 31, Close::Compacted), [7, 192, 191]),
            (stream(2, 32, Close::Compacted), [7, 192, 192]),
            (stream(2, 33, Close::Compacted), [9, 224, 193]),
            (stream(2, 0, Close::Counted), [0, 0, 0]),
            (stream(2, 1, Close::Counted), [6, 192, 161]),
            (stream(2, 31, Close::Counted), [6, 192, 191]),
            (stream(2, 32, Close::Counted), [6, 192, 192]),
            (stream(2, 33, Close::Counted), [7, 224, 193]),
            (stream(2, 33, Close::Masked), [11, 224, 193]),
        ]);
        rows
    }

    #[test]
    fn the_table_is_the_cost_model() {
        for (cost, price) in table() {
            let [instr, issued, active] = price;
            assert_eq!(cost.price(), (instr, issued, active), "{cost:?}");
            for site in SITES {
                let mut w = Warp::new(0, 0, 0);
                assert_eq!(w.charge(site, cost), instr, "{cost:?} at {site:?}");
                let m = *w.metrics();
                assert_eq!(
                    [
                        m.simt_instructions,
                        m.issued_lane_slots,
                        m.active_lane_slots
                    ],
                    price,
                    "{cost:?} at {site:?}"
                );
                // All of it at `site`, lanes and instructions alike.
                for other in SITES {
                    let want = if other == site { price } else { [0; 3] };
                    assert_eq!(m.at(other), want, "{cost:?} at {site:?}");
                }
            }
        }
    }
}
