//! The correctness gates `ci.sh` runs, as one target:
//! `check <gate> [--mutate=<name>] [--scaling] [--print]`.
//!
//! Each module is one gate (its doc says what it pins); `run` returns the
//! exit status — 0 clean, 1 drift (or, on a `--mutate` leg, a *caught*
//! mutation: `ci.sh` inverts those), 2 bad usage. Nothing here measures
//! wall time or writes a file: `benchmark/` is the only place that times
//! anything.

mod bitmap;
mod counters;
mod delta;
mod faults;
mod hotpath;
mod plans;
mod service;
mod shard;
mod simt;
mod verify;

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use stmatch_gpusim::{GridConfig, SharedBudget};
use stmatch_graph::{gen, Graph};

/// Counts every allocation of the process and the bytes it asked for, so a
/// gate can attribute host allocations ([`allocs`]); it gates nothing.
struct CountingAlloc;

// Relaxed: statistics, read after the counted work has returned.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

fn note_alloc(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments to `System` unchanged; the
// counters never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// What `work` returns, and the allocations and bytes every thread of the
/// process made while it ran.
fn allocs<T>(work: impl FnOnce() -> T) -> (T, (u64, u64)) {
    let read = || {
        (
            ALLOCS.load(Ordering::Relaxed),
            ALLOC_BYTES.load(Ordering::Relaxed),
        )
    };
    let before = read();
    let out = work();
    let after = read();
    (out, (after.0 - before.0, after.1 - before.1))
}

/// `(query, pinned clean count)` of q1 and q6 on [`fixture`] — regenerate
/// only with an intentional fixture change, and say so in the commit
/// message.
const GOLDEN: [(usize, u64); 2] = [(1, 119531), (6, 2884)];

/// The 48-vertex hub-skewed golden fixture (`tests/golden_counts.rs`).
fn fixture() -> Graph {
    gen::preferential_attachment(48, 4, 3).degree_ordered()
}

fn grid(num_blocks: usize, warps_per_block: usize) -> GridConfig {
    GridConfig {
        num_blocks,
        warps_per_block,
        shared_mem_per_block: SharedBudget::RTX3090_BYTES,
    }
}

/// The one flag a gate run may carry, checked against what the gate
/// `accepts` (spelled in full, e.g. `--mutate=dead-set`).
fn flag<'a>(gate: &str, args: &'a [String], accepts: &[&str]) -> Result<Option<&'a str>, ExitCode> {
    match args {
        [] => Ok(None),
        [one] if accepts.contains(&one.as_str()) => Ok(Some(one)),
        _ => {
            eprintln!("check {gate}: bad arguments {args:?} (accepts at most one of {accepts:?})");
            Err(ExitCode::from(2))
        }
    }
}

/// The fault-schedule seed: `FAULT_SEED=0x…` from the environment, or the
/// gate's pinned `default` — and whether it was the default (only the
/// pinned seed is known to make its victims die on [`fixture`]).
fn fault_seed(gate: &str, default: u64) -> Result<(u64, bool), ExitCode> {
    let Ok(s) = std::env::var("FAULT_SEED") else {
        return Ok((default, true));
    };
    let digits = s.trim().trim_start_matches("0x").trim_start_matches("0X");
    match u64::from_str_radix(digits, 16) {
        Ok(seed) => Ok((seed, false)),
        Err(e) => {
            eprintln!("check {gate}: bad FAULT_SEED {s:?}: {e}");
            Err(ExitCode::from(2))
        }
    }
}

/// Prints one leg's verdict — `OK (detail)` or a `DRIFT` line per error.
fn report(leg: &str, errs: &[String], detail: impl Fn() -> String) -> bool {
    for e in errs {
        eprintln!("{leg} DRIFT: {e}");
    }
    if errs.is_empty() {
        println!("{leg}: OK ({})", detail());
    }
    errs.is_empty()
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((gate, flags)) = args.split_first() else {
        eprintln!(
            "usage: check <bitmap|counters|delta|faults|hotpath|plans|service|shard|simt|verify> \
             [--mutate=<name>] [--scaling] [--print]"
        );
        return ExitCode::from(2);
    };
    let run = match gate.as_str() {
        "bitmap" => bitmap::run,
        "counters" => counters::run,
        "delta" => delta::run,
        "faults" => faults::run,
        "hotpath" => hotpath::run,
        "plans" => plans::run,
        "service" => service::run,
        "shard" => shard::run,
        "simt" => simt::run,
        "verify" => verify::run,
        other => {
            eprintln!("check: unknown gate {other:?}");
            return ExitCode::from(2);
        }
    };
    run(flags)
}
