//! The cost table: what every simulated charge costs, in one place.
//!
//! A kernel adds SIMT instructions to its warp only through
//! [`Warp::charge`], which prices one [`Cost`] entry and books it to one
//! [`Site`] of the [`WarpMetrics`](crate::WarpMetrics) split — so
//! `set_op + claim + count_pass + transfer == simt_instructions` holds by
//! construction. While a simt-check checker listens, a stream also fires
//! the hooks of its scan, waves and ballots one by one at the caller's site
//! (occupancy, mask tracking, the ballot's epoch tick); the price is the
//! closed form either way.

use crate::warp::{Warp, WARP_SIZE};
use simt_check::diverge;

/// The share of `WarpMetrics::simt_instructions` a charge is booked to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Site {
    /// `set_op_instructions`: size scans, element and bitmap word streams.
    SetOp,
    /// `claim_instructions`: validity waves of claims, fused tails and the
    /// comparators' extension steps.
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
    /// A device-to-device copy over the cross-shard rail.
    Device,
}

/// One entry of the cost table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cost {
    /// `n` lanes, one lane instruction each: `⌈n/32⌉` waves.
    Lanes(usize),
    /// Fig. 8's combined set operation over `slots` slots and `lanes`
    /// elements: a size scan mapping lanes to `(slot, offset)` iff
    /// `slots > 1` (`log₂ 32` shuffle steps, every lane active), then
    /// `⌈lanes/32⌉` waves, each closed by the ballot that compacts its
    /// survivors — none when they are only `counted` (lane-private tallies:
    /// Fig. 3 line 16 adds `|C|`, it never iterates it). Free at `lanes == 0`.
    Stream {
        slots: usize,
        lanes: usize,
        counted: bool,
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
                counted,
            } => {
                // The scan maps one slot per lane; `EngineConfig::validate`
                // bounds unroll at the warp width for this reason.
                assert!(slots <= WARP_SIZE, "more slots than scan lanes");
                let waves = lanes.div_ceil(WARP_SIZE) as u64;
                let scan = if slots > 1 { SCAN_STEPS } else { 0 };
                let ballots = if counted { 0 } else { waves };
                let active = scan * warp + lanes as u64;
                (scan + waves + ballots, (scan + waves) * warp, active)
            }
            Cost::Transfer(Burst::Block) => (32, 0, 0),
            Cost::Transfer(Burst::Global) => (256, 0, 0),
            Cost::Transfer(Burst::Device) => (512, 0, 0),
        }
    }
}

impl Warp {
    /// Charges `cost` to this warp, books it to `site` and returns the
    /// instructions it issued. The simt-check site is the caller's.
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
            Site::SetOp => m.set_op_instructions += n,
            Site::Claim => m.claim_instructions += n,
            Site::CountPass => m.count_pass_instructions += n,
            Site::Transfer => {}
        }
        n
    }

    /// A stream's hooks, in issue order. The scan is warp-cooperative: a
    /// hard diagnostic while diverged. Each wave narrows the warp's mask to
    /// its lanes and records the site's occupancy (sustained sub-warp
    /// occupancy is a warning); its ballot checks the `__ballot_sync` mask
    /// contract, reconverges and ticks the race checker's epoch. A counted
    /// stream reconverges after its last wave without an instruction.
    #[track_caller]
    fn fire_hooks(&mut self, cost: Cost) {
        let Cost::Stream {
            slots,
            lanes: lanes @ 1..,
            counted,
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
            if !counted {
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
    use crate::WarpMetrics;

    const SITES: [Site; 4] = [Site::SetOp, Site::Claim, Site::CountPass, Site::Transfer];

    /// The split field `site` books to (`None`: the remainder).
    fn booked(m: &WarpMetrics, site: Site) -> Option<u64> {
        match site {
            Site::SetOp => Some(m.set_op_instructions),
            Site::Claim => Some(m.claim_instructions),
            Site::CountPass => Some(m.count_pass_instructions),
            Site::Transfer => None,
        }
    }

    fn stream(slots: usize, lanes: usize, counted: bool) -> Cost {
        Cost::Stream {
            slots,
            lanes,
            counted,
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
            (Cost::Transfer(Burst::Device), [512, 0, 0]),
        ];
        // Slots 0 and 1 price alike: no scan.
        for slots in [0, 1] {
            rows.extend([
                (stream(slots, 0, false), [0, 0, 0]),
                (stream(slots, 1, false), [2, 32, 1]),
                (stream(slots, 31, false), [2, 32, 31]),
                (stream(slots, 32, false), [2, 32, 32]),
                (stream(slots, 33, false), [4, 64, 33]),
                (stream(slots, 0, true), [0, 0, 0]),
                (stream(slots, 1, true), [1, 32, 1]),
                (stream(slots, 31, true), [1, 32, 31]),
                (stream(slots, 32, true), [1, 32, 32]),
                (stream(slots, 33, true), [2, 64, 33]),
            ]);
        }
        rows.extend([
            (stream(2, 0, false), [0, 0, 0]),
            (stream(2, 1, false), [7, 192, 161]),
            (stream(2, 31, false), [7, 192, 191]),
            (stream(2, 32, false), [7, 192, 192]),
            (stream(2, 33, false), [9, 224, 193]),
            (stream(2, 0, true), [0, 0, 0]),
            (stream(2, 1, true), [6, 192, 161]),
            (stream(2, 31, true), [6, 192, 191]),
            (stream(2, 32, true), [6, 192, 192]),
            (stream(2, 33, true), [7, 224, 193]),
        ]);
        rows
    }

    #[test]
    fn the_table_is_the_cost_model() {
        for (cost, [instr, issued, active]) in table() {
            assert_eq!(cost.price(), (instr, issued, active), "{cost:?}");
            for site in SITES {
                let mut w = Warp::new(0, 0, 0);
                assert_eq!(w.charge(site, cost), instr, "{cost:?} at {site:?}");
                let m = *w.metrics();
                assert_eq!(
                    (
                        m.simt_instructions,
                        m.issued_lane_slots,
                        m.active_lane_slots
                    ),
                    (instr, issued, active),
                    "{cost:?} at {site:?}"
                );
                for other in SITES {
                    let want = if other == site { instr } else { 0 };
                    assert_eq!(
                        booked(&m, other).unwrap_or(want),
                        want,
                        "{cost:?} at {site:?}"
                    );
                }
            }
        }
    }
}
