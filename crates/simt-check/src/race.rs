//! Shadow-cell data-race detection.
//!
//! Every instrumented piece of shared state maps to one [`Cell`]. The
//! shadow store keeps, per cell, the epoch/site/thread of the last write
//! and of the most recent read by each thread. [`note_write`] /
//! [`note_read`] compare the accessor's vector clock against those records:
//! a conflicting access the accessor has *not* observed (no happens-before
//! path through an instrumented lock or launch fork/join) is a data race.
//!
//! Shadow-cell layout (also documented in DESIGN.md §4e):
//!
//! | cell            | guards                                        |
//! |-----------------|-----------------------------------------------|
//! | `board[i].mirror[w]` | warp `w`'s stealable mirror stack (`MirrorState`) on board instance `i` |
//! | `board[i].slot[b]`   | block `b`'s global steal slot payload on board instance `i` |
//! | `board[i].requeue`   | board instance `i`'s reclaimed-work queue |
//! | `arena[a].set[s]` | set slab `s` of stack-arena instance `a`     |
//! | `plan-cache[s]` | the canonical-form plan cache of service instance `s` |
//! | `rail[r]`       | the cross-shard work rail of sharded run instance `r` |
//!
//! Board/arena/service instance ids come from [`crate::next_object_id`],
//! so two concurrently live boards (e.g. two service pool workers
//! launching at once) never alias each other's cells.

use crate::{with_my_clock, Severity};
use std::collections::HashMap;
use std::panic::Location;
use std::sync::{LazyLock, Mutex};

/// Identity of one instrumented shared-state cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Cell {
    kind: CellKind,
    a: u32,
    b: u32,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum CellKind {
    Mirror,
    GlobalSlot,
    Requeue,
    ArenaSet,
    PlanCache,
    Rail,
}

impl Cell {
    /// Warp `w`'s mirror stack on board instance `board`
    /// (from [`crate::next_object_id`]).
    pub fn mirror(board: u32, w: usize) -> Cell {
        Cell {
            kind: CellKind::Mirror,
            a: board,
            b: w as u32,
        }
    }

    /// Block `b`'s global steal slot on board instance `board`.
    pub fn global_slot(board: u32, b: usize) -> Cell {
        Cell {
            kind: CellKind::GlobalSlot,
            a: board,
            b: b as u32,
        }
    }

    /// Board instance `board`'s requeue queue.
    pub fn requeue(board: u32) -> Cell {
        Cell {
            kind: CellKind::Requeue,
            a: board,
            b: 0,
        }
    }

    /// Set slab `set` of arena instance `arena_id`
    /// (from [`crate::next_object_id`]).
    pub fn arena(arena_id: u32, set: usize) -> Cell {
        Cell {
            kind: CellKind::ArenaSet,
            a: arena_id,
            b: set as u32,
        }
    }

    /// The canonical-form plan cache of service instance `service`
    /// (from [`crate::next_object_id`]).
    pub fn plan_cache(service: u32) -> Cell {
        Cell {
            kind: CellKind::PlanCache,
            a: service,
            b: 0,
        }
    }

    /// The cross-shard work rail of sharded run instance `rail_id`
    /// (from [`crate::next_object_id`]).
    pub fn rail(rail_id: u32) -> Cell {
        Cell {
            kind: CellKind::Rail,
            a: rail_id,
            b: 0,
        }
    }
}

impl std::fmt::Display for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            CellKind::Mirror => write!(f, "board[{}].mirror[{}]", self.a, self.b),
            CellKind::GlobalSlot => write!(f, "board[{}].slot[{}]", self.a, self.b),
            CellKind::Requeue => write!(f, "board[{}].requeue", self.a),
            CellKind::ArenaSet => write!(f, "arena[{}].set[{}]", self.a, self.b),
            CellKind::PlanCache => write!(f, "plan-cache[{}]", self.a),
            CellKind::Rail => write!(f, "rail[{}]", self.a),
        }
    }
}

/// One recorded access: who, when, where.
#[derive(Clone, Debug)]
struct Access {
    slot: u32,
    epoch: u32,
    site: String,
    who: String,
}

#[derive(Default)]
struct Shadow {
    last_write: Option<Access>,
    /// Most recent read per thread slot (`slot -> Access`).
    reads: HashMap<u32, Access>,
}

static SHADOW: LazyLock<Mutex<HashMap<Cell, Shadow>>> =
    LazyLock::new(|| Mutex::new(HashMap::new()));

pub(crate) fn reset() {
    SHADOW.lock().unwrap().clear();
}

fn site_of(loc: &'static Location<'static>) -> String {
    format!("{}:{}", loc.file(), loc.line())
}

fn race_report(cell: Cell, kind: &str, prior: &Access, site: &str, who: &str) {
    let key = format!("{cell}:{}:{}", prior.site, site);
    crate::report(
        Severity::Error,
        "race",
        key,
        format!(
            "data race on {cell}: {kind} at {site} ({who}) is unordered with \
             the access at {} ({}) — no happens-before edge (lock or launch \
             fork/join) connects the two sites",
            prior.site, prior.who
        ),
    );
}

/// Records a write access to `cell` at the caller's source location and
/// checks it against the shadow state. Use for any access that mutates the
/// protected state (instrumented lock acquisitions conservatively count as
/// writes: two lock holders of the *same* lock are ordered through the lock
/// clock, so this only fires when an access bypasses the lock).
#[inline] // the checker-off fast path must inline into the hot claim loops
#[track_caller]
pub fn note_write(cell: Cell) {
    if !crate::races_on() {
        return;
    }
    note_write_impl(cell, Location::caller());
}

/// [`note_write`] with an explicit (already-captured) source location, for
/// instrumentation wrappers that forward their own caller's site.
#[inline]
pub fn note_write_at(cell: Cell, loc: &'static Location<'static>) {
    if !crate::races_on() {
        return;
    }
    note_write_impl(cell, loc);
}

#[cold]
fn note_write_impl(cell: Cell, loc: &'static Location<'static>) {
    let site = site_of(loc);
    let who = crate::describe_self();
    with_my_clock(|slot, clock| {
        let mut shadow = SHADOW.lock().unwrap();
        let entry = shadow.entry(cell).or_default();
        if let Some(w) = &entry.last_write {
            if w.slot != slot && !clock.dominates(w.slot, w.epoch) {
                race_report(cell, "write", w, &site, &who);
            }
        }
        for r in entry.reads.values() {
            if r.slot != slot && !clock.dominates(r.slot, r.epoch) {
                race_report(cell, "write", r, &site, &who);
            }
        }
        entry.last_write = Some(Access {
            slot,
            epoch: clock.get(slot),
            site,
            who,
        });
        entry.reads.clear();
    });
}

/// Records a read access to `cell` at the caller's source location and
/// checks it against the last write.
#[inline] // the checker-off fast path must inline into the arena read path
#[track_caller]
pub fn note_read(cell: Cell) {
    if !crate::races_on() {
        return;
    }
    note_read_impl(cell, Location::caller());
}

#[cold]
fn note_read_impl(cell: Cell, loc: &'static Location<'static>) {
    let site = site_of(loc);
    let who = crate::describe_self();
    with_my_clock(|slot, clock| {
        let mut shadow = SHADOW.lock().unwrap();
        let entry = shadow.entry(cell).or_default();
        if let Some(w) = &entry.last_write {
            if w.slot != slot && !clock.dominates(w.slot, w.epoch) {
                race_report(cell, "read", w, &site, &who);
            }
        }
        entry.reads.insert(
            slot,
            Access {
                slot,
                epoch: clock.get(slot),
                site,
                who,
            },
        );
    });
}
