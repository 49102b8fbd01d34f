//! SIMT divergence lints.
//!
//! The software warp (`stmatch-gpu-sim`'s `Warp`, charging a stream of its
//! cost table) tracks a current active-lane mask: a wave narrows the mask to
//! its active lanes, the ballot that closes the wave reconverges it to all
//! 32 lanes. The lints
//! enforce the CUDA `__ballot_sync` contract on that state machine:
//!
//! * `ballot(bits)` with `bits` naming lanes inactive under a divergent
//!   mask is undefined behavior on hardware (non-participating lanes in a
//!   sync intrinsic) — hard diagnostic, listing the offending lanes.
//! * the size scan of a combined stream is a full-warp cooperative
//!   primitive; issuing it while diverged is the same class of UB — hard
//!   diagnostic.
//!
//! Separately, every `wave` call site accumulates occupancy statistics
//! (waves issued, lane slots issued vs active); [`crate::drain`] turns
//! sustained sub-warp utilization into warnings keyed by call site.

use crate::Severity;
use std::collections::HashMap;
use std::panic::Location;
use std::sync::{LazyLock, Mutex};

const FULL_MASK: u32 = u32::MAX;

#[derive(Default)]
struct SiteStats {
    waves: u64,
    issued: u64,
    active: u64,
}

static SITES: LazyLock<Mutex<HashMap<String, SiteStats>>> =
    LazyLock::new(|| Mutex::new(HashMap::new()));

pub(crate) fn reset() {
    SITES.lock().unwrap().clear();
}

/// Drains the per-site wave stats as `(site, waves, issued, active)`.
pub(crate) fn drain_sites() -> Vec<(String, u64, u64, u64)> {
    let mut sites = SITES.lock().unwrap();
    let mut out: Vec<_> = sites
        .drain()
        .map(|(site, s)| (site, s.waves, s.issued, s.active))
        .collect();
    out.sort();
    out
}

fn site_of(loc: &'static Location<'static>) -> String {
    format!("{}:{}", loc.file(), loc.line())
}

fn lanes_of(mask: u32) -> String {
    let lanes: Vec<String> = (0..32)
        .filter(|l| mask & (1 << l) != 0)
        .map(|l| l.to_string())
        .collect();
    lanes.join(",")
}

/// Records a `wave(active)` issued at `loc` (the warp sets its current
/// mask to `active` alongside this call).
pub fn on_wave(loc: &'static Location<'static>, active: u32, warp: usize) {
    let _ = warp;
    let mut sites = SITES.lock().unwrap();
    let s = sites.entry(site_of(loc)).or_default();
    s.waves += 1;
    s.issued += 32;
    s.active += active.count_ones() as u64;
}

/// Checks a `ballot(bits)` against the warp's current mask `mask`.
/// Returns after filing a diagnostic if the mask contract is violated.
pub fn on_ballot(loc: &'static Location<'static>, bits: u32, mask: u32, warp: usize) {
    let stray = bits & !mask;
    if mask != FULL_MASK && stray != 0 {
        let site = site_of(loc);
        crate::report(
            Severity::Error,
            "ballot-mask",
            format!("{site}:{mask:#x}:{stray:#x}"),
            format!(
                "ballot mask contract violated at {site} (warp {warp}): ballot bits \
                 {bits:#010x} include {} lane(s) inactive under the divergent mask \
                 {mask:#010x} (lanes {}) — on hardware this is `__ballot_sync` with \
                 non-participating lanes, which is undefined behavior",
                stray.count_ones(),
                lanes_of(stray)
            ),
        );
    }
}

/// Checks a size scan (full-warp cooperative primitive) issued under mask
/// `mask`.
pub fn on_scan(loc: &'static Location<'static>, mask: u32, warp: usize) {
    if mask != FULL_MASK {
        let site = site_of(loc);
        crate::report(
            Severity::Error,
            "scan-mask",
            format!("{site}:{mask:#x}"),
            format!(
                "warp-cooperative scan at {site} (warp {warp}) issued while diverged \
                 (current mask {mask:#010x}, inactive lanes {}) — all 32 lanes must \
                 participate in a scan wave",
                lanes_of(!mask)
            ),
        );
    }
}
