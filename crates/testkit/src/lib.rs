//! Hermetic test toolkit for the STMatch workspace.
//!
//! The build environment has no crates.io access, so everything the test
//! suite and the generators need lives in-tree:
//!
//! * [`rng`] — a deterministic [`SplitMix64`](rng::SplitMix64) seeder
//!   feeding a [`Xoshiro256StarStar`](rng::Xoshiro256StarStar) generator,
//!   with a `rand`-compatible surface (`gen`, `gen_range`, `shuffle`,
//!   `fill`) so graph generators stay one-line ports.
//! * [`prop`] — a minimal property-testing harness: seeded case
//!   generation (`TESTKIT_CASES` / `TESTKIT_SEED` env vars), shrinking by
//!   halving for integer and vector inputs, and failure reports that print
//!   the reproducing seed.
//!
//! Everything here is `std`-only and fully deterministic given a seed, so
//! the golden-count fixtures are reproducible run-to-run and
//! machine-to-machine. Nothing here times anything: `benchmark/` times,
//! `repro` reproduces the paper's tables, `check` gates.

pub mod prop;
pub mod rng;

pub use rng::{Rng, SmallRng};
