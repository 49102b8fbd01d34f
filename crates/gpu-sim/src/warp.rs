//! The warp: 32 SIMT lanes with activity accounting. What its
//! instructions cost is the cost table's ([`crate::cost`]).

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
/// spinning) are real because each warp owns a thread. Every simulated
/// instruction is added by [`Warp::charge`].
pub struct Warp {
    /// Global warp id within the grid.
    id: usize,
    /// Threadblock index.
    block: usize,
    /// Index of this warp within its block.
    lane_in_block: usize,
    pub(crate) metrics: WarpMetrics,
    /// Current active-lane mask for the simt-check divergence lints: a
    /// stream's wave narrows it, the ballot closing the wave reconverges it
    /// to all lanes. Only maintained while the divergence checker is
    /// enabled; never read by metrics (checker-off runs stay bit-identical).
    pub(crate) div_mask: u32,
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
}
