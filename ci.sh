#!/usr/bin/env bash
# Tier-1 gate for stmatch-rs. Must pass with NO network access: the
# workspace has zero registry dependencies (see DESIGN.md §5), so every
# cargo invocation runs --offline. A hard wall-clock cap guards each
# phase so a scheduler deadlock fails the gate instead of hanging it.
set -euo pipefail
cd "$(dirname "$0")"

CAP=${CI_PHASE_CAP:-900}   # seconds per phase
run() {
    local name=$1; shift
    echo "==> ${name}: $*"
    timeout --signal=KILL "${CAP}" "$@"
    echo "==> ${name}: OK"
}

# The gate must leave the work tree as it found it (no phase may rewrite a
# tracked file or drop an untracked one); compared again after the last
# phase. Skipped outside a git work tree.
tree_state() { git status --porcelain 2>/dev/null || true; }
TREE_BEFORE=$(tree_state)

# One run of a gate binary whose log must also carry the given lines —
# one extended regex per line of `patterns`, each of which must match
# (guards against a silently dead phase): exit status and greps are taken
# from the same captured run, as the --mutate legs do.
run_and_grep() {
    local name=$1 patterns=$2; shift 2
    echo "==> ${name}: $*"
    local log; log=$(mktemp)
    if ! timeout --signal=KILL "${CAP}" "$@" >"${log}" 2>&1; then
        cat "${log}"
        echo "==> ${name}: FAILED"
        exit 1
    fi
    cat "${log}"
    local pattern
    while IFS= read -r pattern; do
        if ! grep -Eq "${pattern}" "${log}"; then
            echo "==> ${name}: FAILED — no line matches '${pattern}'"
            exit 1
        fi
    done <<<"${patterns}"
    rm -f "${log}"
    echo "==> ${name}: OK"
}

# Codegen-level gate, before anything is built: `.cargo/config.toml` compiles
# x86_64 at x86-64-v3 (README, "Building offline"), and a CPU without one of
# its flags would die of SIGILL in the first binary a phase runs. Check the
# flags and fail by name instead. An explicit RUSTFLAGS or
# CARGO_ENCODED_RUSTFLAGS replaces the config's flags, so it skips the check.
echo "==> host:isa: checking the CPU for the x86-64-v3 build"
if [ "$(uname -m)" != x86_64 ]; then
    echo "==> host:isa: OK (not x86_64: built for the target's default CPU)"
elif [ -n "${RUSTFLAGS+x}" ] || [ -n "${CARGO_ENCODED_RUSTFLAGS+x}" ]; then
    echo "==> host:isa: OK (RUSTFLAGS set: the config's level is not used)"
elif [ ! -r /proc/cpuinfo ]; then
    echo "==> host:isa: OK (no /proc/cpuinfo to read: unchecked)"
else
    missing=""
    for flag in avx2 bmi1 bmi2 fma f16c abm movbe popcnt; do
        grep -qw "${flag}" /proc/cpuinfo || missing="${missing} ${flag}"
    done
    if [ -n "${missing}" ]; then
        echo "==> host:isa: FAILED — the CPU lacks${missing}, which the x86-64-v3 build"
        echo "    (.cargo/config.toml) needs; build for baseline x86-64 instead:"
        echo "    RUSTFLAGS=\"-C target-cpu=x86-64\" ./ci.sh"
        exit 1
    fi
    echo "==> host:isa: OK (avx2 bmi1 bmi2 fma f16c abm movbe popcnt)"
fi

run "fmt"   cargo fmt --all --check
run "build" cargo build --release --offline
# Every target kind the workspace has; `--all-targets` would add `--benches`
# and build each lib and bin a second time as a bench harness nobody runs.
run "lint"  cargo clippy --workspace --lib --bins --tests --examples --offline -- -D warnings
run "test"  cargo test -q --workspace --offline
# The kernel's host-side shortcuts are cross-checked per element only under
# debug_assert; this suite's hard asserts hold their counts in release too.
run "test:release" cargo test -q --release --offline --test closed_form_routes
# So is the fused tail's rank-row arithmetic: its per-slot sums against brute
# force, in release (the grep holds that the filter still names a test).
run_and_grep "test:release(tail sums)" "test result: ok. 1 passed" \
    cargo test -q --release --offline -p stmatch-core --lib \
    kernel::last_level::tests::the_tail_sums_are_the_brute_force_sums

# Example smoke runs: the two cheapest examples, release profile (already
# built above), each under the cap.
run "smoke:quickstart"   cargo run --release --offline --example quickstart
run "smoke:motif_census" cargo run --release --offline --example motif_census

# Every gate below is a module of one binary, `check <gate>` (built once by
# the first phase that runs it); none measures wall time or writes a file.
CHECK=(cargo run --release --offline -p stmatch-bench --bin check --)

# Hot-path drift gate: re-runs the PR 2 hot-path workloads and fails on any
# drift in golden counts or simulator metrics (instructions, utilization).
# The greps hold the per-site attribution: q1 and q4 count a lifted list
# under a deep parent level — fused tails (streams and the survivors they
# counted) whose key waves are a nonzero count pass; q8, q3, q6 and q2
# compute their last-level list at the last level and count it in that
# level's own final stream, so a regression that re-routes them through a
# tail fails here by name, and q8's and q2's count pass stays empty (q3 and
# q6 key a lifted claim level there) — and the streamed side: q2, q3 and q6
# intersect a lifted N(v0) that carries a marker row, so a shorter operand
# streams against it and is what is charged (a nonzero operand share), while
# q1 has no combining operation at all; a regression that charges the input
# side again fails by name, not only as a total drift. And the slot table:
# q1's last claim fills the warp (its child level writes no set), q8's two
# deep levels share one width. The gate itself fails any row whose slots
# exceed the NUM_SETS x UNROLL budget; the greps hold that the field it
# checked is on the rows.
run_and_grep "smoke:hotpath" \
    "hotpath q1 Plain: OK .* count_pass=[1-9][0-9]*@[0-9.]+ steal=0 tail=[1-9][0-9]*/[1-9][0-9]* streamed=0/[0-9]+ widths=\[1, 1, [0-9]+, 32\] slots=[0-9]+/[0-9]+\)
hotpath q4 Plain: OK .* count_pass=[1-9][0-9]*@[0-9.]+ steal=0 tail=[1-9][0-9]*/[1-9][0-9]* streamed=
hotpath q8 Plain: OK .* count_pass=0@- steal=0 tail=0/0 streamed=[0-9]+/[0-9]+ widths=\[1, 1, ([0-9]+), \1\] slots=[0-9]+/[0-9]+\)
hotpath q3 Plain: OK .* steal=0 tail=0/0 streamed=[1-9][0-9]*/[0-9]+ widths=
hotpath q6 Plain: OK .* steal=0 tail=0/0 streamed=[1-9][0-9]*/[0-9]+ widths=
hotpath q2 Plain: OK .* count_pass=0@- steal=0 tail=0/0 streamed=[1-9][0-9]*/[0-9]+ widths=" \
    "${CHECK[@]}" hotpath

# Hub-bitmap routing gate. Routing follows the graph: off legs run on the
# plain graphs and must land the GOLDEN rows / pinned counts with zero
# bitmap counters; on legs run on the same graphs carrying an index and
# must land the same counts, and instruction, probe-word, merge-word and
# merge-wave totals equal to the rows pinned in the bin — rows are routed
# by the one stream interpreter, so any drift in which operand, input or
# fused chain gets a row shows here. The greps want nonzero probe and
# merge traffic, and a nonzero operand share on q3's on leg: an index adds
# hub rows beside the marker rows of non-hub lifted lists, it does not
# switch them off. The induced q2 leg must merge: its difference chains fuse
# under default code motion, and no edge-induced on leg pins that.
run_and_grep "smoke:bitmap" \
    "bitmap q3 on: .* streamed=[1-9][0-9]*/[0-9]+
bitmap q2-induced on: .* merge_words=[1-9][0-9]* merge_waves=[1-9][0-9]* streamed=
bitmap_check totals: probe_words=[0-9]*[1-9][0-9]* merge_words=[0-9]*[1-9][0-9]*" \
    "${CHECK[@]}" bitmap

# Fault-tolerance gate: q1/q6 under a seeded fault plan (one warp panic +
# one warp stall); counts must stay exactly at the goldens, the death must
# be contained and recovered (a hang is killed by this phase's cap).
run "smoke:faults" "${CHECK[@]}" faults

# Concurrency-analysis gate: q1/q6 clean, seeded-fault, and sharded runs
# with every simt-check checker enabled must stay free of error
# diagnostics (zero false positives), and the seeded mutations must be CAUGHT — the bin
# exits 1 on findings, so the mutation legs invert its exit code and then
# grep for the expected diagnostic (a timeout kill must not pass as a
# catch).
run "smoke:check" "${CHECK[@]}" simt
for mut in lock-drop:"data race" lock-invert:"cycle" cache-drop:"data race"; do
    name=${mut%%:*}; expect=${mut#*:}
    echo "==> smoke:check(mutate=${name}): expecting a caught mutation"
    log=$(mktemp)
    if timeout --signal=KILL "${CAP}" \
        "${CHECK[@]}" simt "--mutate=${name}" >"${log}" 2>&1; then
        cat "${log}"
        echo "==> smoke:check(mutate=${name}): FAILED — mutation escaped"
        exit 1
    fi
    if ! grep -q "${expect}" "${log}"; then
        cat "${log}"
        echo "==> smoke:check(mutate=${name}): FAILED — no '${expect}' diagnostic"
        exit 1
    fi
    rm -f "${log}"
    echo "==> smoke:check(mutate=${name}): OK"
done

# Sharded-execution gate: a plain run nobody sharded lands the goldens with
# no requeue claims; a clean 4-shard run and the seeded 1-of-4 / 3-of-4
# shard-kill legs must land the exact goldens with the dead shards' work
# recovered and a deterministic FAULT_SEED reproduce line on every report.
# A dead shard finishes its own slice in a salvage pass: the gate fails if
# no kill-leg run salvaged under the default seed, and the greps hold that
# both kill legs printed one (`salvage=N`). `--scaling` adds the 1..16-shard
# bottleneck-cycle sweep of both static splits (seconds); the gate fails if
# counts drift or the work-aware split loses to the contiguous one at 16
# shards, and the greps hold that every row of the sweep ran.
run_and_grep "smoke:shard" \
    "shard q[0-9]+ kill1: OK .* salvage=[1-9]
shard q[0-9]+ kill3: OK .* salvage=[1-9]
scaling x1: contiguous [0-9]+ cyc, work-aware [0-9]+ cyc, efficiency
scaling x2: contiguous [0-9]+ cyc, work-aware [0-9]+ cyc, efficiency
scaling x4: contiguous [0-9]+ cyc, work-aware [0-9]+ cyc, efficiency
scaling x8: contiguous [0-9]+ cyc, work-aware [0-9]+ cyc, efficiency
scaling x16: contiguous [0-9]+ cyc, work-aware [0-9]+ cyc, efficiency" \
    "${CHECK[@]}" shard --scaling

# Resident-service gate: cold/cache-hit submissions must reproduce the
# golden counts, a naive-schedule cache hit must be metric-exact against
# the cold engine, and injected deaths / expired deadlines must fail
# per-query while the shared pool keeps serving exact counts.
run "smoke:service" "${CHECK[@]}" service

# Static-verifier gate (DESIGN.md §4j). Clean leg: q1..q24 on both golden
# fixtures must verify with zero diagnostics (false positives fail CI),
# and launches carrying their verdict must run certified-spill-free plans
# with zero spills and a runtime peak under the certificate's bound. Mutation legs: each seeded plan
# corruption must be CAUGHT — the bin exits 1 printing the named
# diagnostic, so the legs invert its exit code and grep for the expected
# text (a timeout kill must not pass as a catch).
run "smoke:verify" "${CHECK[@]}" verify
for mut in dead-set:"dead set" drop-bound:"drops the symmetry bound" \
           shard-overlap:"covered twice"; do
    name=${mut%%:*}; expect=${mut#*:}
    echo "==> smoke:verify(mutate=${name}): expecting a caught mutation"
    log=$(mktemp)
    if timeout --signal=KILL "${CAP}" \
        "${CHECK[@]}" verify "--mutate=${name}" >"${log}" 2>&1; then
        cat "${log}"
        echo "==> smoke:verify(mutate=${name}): FAILED — mutation escaped"
        exit 1
    fi
    if ! grep -q "${expect}" "${log}"; then
        cat "${log}"
        echo "==> smoke:verify(mutate=${name}): FAILED — no '${expect}' diagnostic"
        exit 1
    fi
    if ! grep -q "reproduce:" "${log}"; then
        cat "${log}"
        echo "==> smoke:verify(mutate=${name}): FAILED — diagnostic lacks a reproduce line"
        exit 1
    fi
    rm -f "${log}"
    echo "==> smoke:verify(mutate=${name}): OK"
done

# Incremental-matching gate (DESIGN.md §4k). Stream and service legs:
# cumulative MatchDeltas over seeded update streams must reconcile exactly
# with full recomputation after every batch, through both a default-config
# engine's DeltaPlans::count and MatchService::apply_batch/submit_watch.
# Work leg: fails if any of the triangle's, q2's, q4's or q6's amortized
# per-batch delta work at batch 16 rises above its recorded ceiling, or the
# triangle's is not >= 10x below one full recount (simulated instructions).
run "smoke:delta" "${CHECK[@]}" delta

# Anchored-plan choice gate (DESIGN.md §4k, "Compile"): on the benchmark's
# resident_tick instance, every orbit of the triangle and q1..q14 compiled by
# Engine::compile_delta_on must cost no more than today's graph-free order
# over four 64 + 64 exchange batches, and those of the triangle, q2, q4 and
# q6 no more than 1.10x the best connected anchored order (for the rest of
# q1..q14 that test prints as an ungated survey).
run "smoke:plans" "${CHECK[@]}" plans

# Counter gate: the benchmark's engine ops (census_sparse's q1 + q3 + q6 on
# PA(420,6,7), clique_dense's q8 on ER(192,7200,5)) and a resident_tick
# replica (a triangle watcher and q2, q4, q6 maintained over eight 64 + 64
# exchange batches), rebuilt from the crates on the benchmark's 1 x 2 grid
# with stealing off: each leg's instructions, lane slots and matches are
# pinned exactly. A drift fails its leg by name and prints the re-bless
# command (`check counters --print`). The greps want every leg's OK line,
# the tick's with its per-entry split.
run_and_grep "smoke:counters" \
    "counters census_sparse: OK \([0-9]+ instr, util [0-9.]+, [0-9]+ matches; q1 .* q3 .* q6 
counters clique_dense: OK \([0-9]+ instr, util [0-9.]+, [0-9]+ matches; q8 
counters tick: OK \([0-9]+ instr, util [0-9.]+, [0-9]+ matches; [0-9]+ batches: triangle .* q2 .* q4 .* q6 " \
    "${CHECK[@]}" counters

# Benchmark gate: `benchmark/` is its own workspace, so nothing above
# compiles it and a break of the call surface it stands on (its README
# lists it) would otherwise surface only at the benchmark pipeline. Build
# it, run its unit tests (which also hold BENCHMARK.json equal to its
# spec), and smoke both declared workloads plus `clique_dense` (unlisted, and
# the one whose slots binary-search a large share of their elements): exit 0
# means every count of the run was checked against the independent oracle.
BENCH=(--release --offline --manifest-path benchmark/Cargo.toml)
run "bench:build" cargo build "${BENCH[@]}"
run "bench:test"  cargo test -q "${BENCH[@]}"
for w in census_sparse resident_tick clique_dense; do
    run "bench:smoke(${w})" cargo run --quiet "${BENCH[@]}" -- \
        --workload "${w}" --quick --seconds 10 --trace 0
done

# Atomics-annotation lint: every `Ordering::` use in the engine crate must
# carry a nearby comment naming its ordering and the invariant it upholds
# (within the 10 preceding lines, or trailing on the use itself). Keeps
# the memory-ordering story reviewable file-locally.
echo "==> lint:atomics: scanning crates/core/src for unannotated atomics"
awk '
/Ordering::(Relaxed|Acquire|Release|AcqRel|SeqCst)/ {
    line=$0
    if (line ~ /^[[:space:]]*\/\//|| line ~ /use std::sync/) { push(line); next }
    annotated=0
    for (i=0;i<10;i++) {
        c=buf[(idx-i+10)%10]
        if (c ~ /\/\/.*(Relaxed|Acquire|Release|AcqRel|SeqCst)/) { annotated=1; break }
    }
    if (line ~ /\/\/.*(Relaxed|Acquire|Release|AcqRel|SeqCst)/) annotated=1
    if (!annotated) { printf "%s:%d: unannotated atomic: %s\n", FILENAME, FNR, line; bad=1 }
    push(line); next
}
{ push($0) }
function push(l) { buf[idx%10]=l; idx++ }
END { exit bad }
' crates/core/src/*.rs \
    || { echo "==> lint:atomics: FAILED — annotate the ordering invariant"; exit 1; }
echo "==> lint:atomics: OK"

# Charge lint: every simulated instruction and lane slot is added by the cost
# table (`Warp::charge`, crates/gpu-sim/src/cost.rs), which books each charge
# to one site of the split; no file outside gpu-sim's sources may `+=` the
# instruction total, the lane totals or any site's share of either.
echo "==> lint:charges: scanning for charges outside the cost table"
charges=$(find . -name '*.rs' -not -path '*/target/*' -not -path './.bench_build/*' \
    -not -path './crates/gpu-sim/src/*' -print0 | xargs -0 grep -HnE \
    '\b(simt_instructions|((set_op|claim|count_pass)_)?(issued|active)_lane_slots|(set_op|claim|count_pass)_instructions)[[:space:]]*\+=' \
    || true)
if [ -n "${charges}" ]; then
    echo "${charges}"
    echo "==> lint:charges: FAILED — charge through Warp::charge"
    exit 1
fi
echo "==> lint:charges: OK"

# Index lint: hub rows follow the graph (DESIGN.md §4f) — the caller
# attaches a hub-bitmap index, the engine and the service never build one.
echo "==> lint:index: scanning crates/core/src for index builds"
builds=$(grep -rnE 'HubBitmapIndex::build|ensure_hub_bitmap' crates/core/src || true)
if [ -n "${builds}" ]; then
    echo "${builds}"
    echo "==> lint:index: FAILED — attach the index to the graph (Graph::with_hub_bitmap)"
    exit 1
fi
echo "==> lint:index: OK"

# Row lint: a slot's bitmap rows come from one provider, `kernel/rows.rs`
# (DESIGN.md §4f, "Where the rows come from"), so no other kernel file reads
# the graph's hub index.
echo "==> lint:rows: scanning the kernel for hub-index reads outside kernel/rows.rs"
reads=$(grep -rnE 'hub_bitmap\(\)|HubBitmapIndex' crates/core/src/kernel.rs crates/core/src/kernel \
    | grep -v '^crates/core/src/kernel/rows\.rs:' || true)
if [ -n "${reads}" ]; then
    echo "${reads}"
    echo "==> lint:rows: FAILED — ask kernel::rows::Rows for the rows"
    exit 1
fi
echo "==> lint:rows: OK"

# Set-op knob lint: each slot's host loop follows from its shape (DESIGN.md
# §4), so the inert `SetOpTuning` / `SetOpAlgo` names and `EngineConfig::setops`
# (kept only for `benchmark/`) must not be read again. Allowed: their
# definitions and test in config.rs, and the one re-export in setops.rs.
echo "==> lint:setops: scanning for uses of the inert set-op knob"
knobs=$(grep -rnE '\b(SetOpTuning|SetOpAlgo)\b|\bcfg\.setops\b' crates src tests examples \
    | grep -v '^crates/core/src/config\.rs:' \
    | grep -vxE 'crates/core/src/setops\.rs:[0-9]+:pub use crate::config::\{SetOpAlgo, SetOpTuning\};' \
    || true)
if [ -n "${knobs}" ]; then
    echo "${knobs}"
    echo "==> lint:setops: FAILED — a slot's shape picks its host loop (setops::apply_op_into)"
    exit 1
fi
echo "==> lint:setops: OK"

# Shard lint: a shard is one launch over its own slice (DESIGN.md §4i), so
# the inert `ShardTuning::cross_steal`, `RailStats::cross_steals` and
# `ShardedOutcome::degradations` (kept only for `benchmark/`) must not be
# read or written again, and neither the cross-shard rail nor the shard
# recovery ladder may come back. Allowed: the definitions and the default's
# field.
echo "==> lint:shard: scanning for the inert shard names and the deleted rail"
steals=$( (grep -rnwE 'cross_steals?|RailSteal' crates src tests examples; \
    grep -rnE '\b(ShardRail|RailRequeue|attach_rail|shard_retries|ShardStep|recovery_rounds)\b|Burst::Device|\.degradations\b' \
        crates src tests examples) \
    | grep -vxE 'crates/core/src/config\.rs:[0-9]+: +(pub )?cross_steal: (bool|false),' \
    | grep -vxE 'crates/core/src/shard\.rs:[0-9]+: +pub cross_steals: u64,' \
    || true)
if [ -n "${steals}" ]; then
    echo "${steals}"
    echo "==> lint:shard: FAILED — a shard is one launch over its own slice (shard::ShardPlan)"
    exit 1
fi
echo "==> lint:shard: OK"

# Overlay gate: a delta overlay's state is its current rows (DESIGN.md §4k),
# so the side arrays' merge iterator and fold helpers may not come back, and
# every vertex-keyed map of the graph crate goes through the one
# `VertexMap<T>` alias and its vertex hasher — a SipHash map on a view's row
# lookup is the cost this removed. Allowed: the alias itself.
echo "==> lint:overlay: scanning for the deleted side arrays and SipHash vertex maps"
overlay=$( (grep -rnwE 'MergedNeighbors|fold_insert|fold_delete|overlay_edges' crates src tests examples; \
    grep -rn 'HashMap<VertexId' crates/graph/src) \
    | grep -vxE 'crates/graph/src/csr\.rs:[0-9]+:pub\(crate\) type VertexMap<T> = HashMap<VertexId, T, .*' \
    || true)
if [ -n "${overlay}" ]; then
    echo "${overlay}"
    echo "==> lint:overlay: FAILED — the overlay holds rows; vertex maps are graph::csr::VertexMap"
    exit 1
fi
echo "==> lint:overlay: OK"

# Recover lint: a launch is planned once, at its configured geometry
# (DESIGN.md §4d), and one that does not fit fails with the LaunchError
# naming what overflowed. The degradation ladder's module, its rungs, its
# two knobs and reads of the inert `MatchOutcome::downgrades` (kept only for
# `benchmark/`) must not come back.
echo "==> lint:recover: scanning for the deleted degradation ladder"
if [ -e crates/core/src/recover.rs ]; then
    echo "crates/core/src/recover.rs exists"
    echo "==> lint:recover: FAILED — a launch is planned once; it fits or fails (Engine::launch)"
    exit 1
fi
ladder=$(grep -rnE '\b(DowngradeStep|max_downgrades|SLAB_FLOOR)\b|recover::|\bdegrade\(|recovery\.backoff|\.downgrades\b' \
    crates src tests examples || true)
if [ -n "${ladder}" ]; then
    echo "${ladder}"
    echo "==> lint:recover: FAILED — a launch is planned once; it fits or fails (Engine::launch)"
    exit 1
fi
echo "==> lint:recover: OK"

# Launch lint: `Engine::launch` is the one place a request becomes grids
# (DESIGN.md §4i) — it splits a sharded request and routes a delta batch to
# its grid — so the deleted drivers and sub-engines must not come back, and
# nothing outside `benchmark/` calls the four forwards kept for it (their
# `fn` definitions are allowed), so removing them edits `benchmark/` alone.
# A grid's launch is resolved once, by `KernelEnv::new`, and `Level0` is the
# one level-0 domain enum: the second enum (`Level0Map`) and the engine's
# intermediate `struct Resolved` must not come back either. A batch is
# staged once, by `StagedBatch::new`, the one place that orders its sides
# (DESIGN.md §4k): no side is staged by hand outside `delta.rs`, the
# estimator's sample (`estimate.rs`) and the test that steps a kernel over a
# side it builds (`tests/step_interleave.rs`).
echo "==> lint:launch: scanning for the deleted launch drivers, the benchmark's forwards and hand-staged sides"
drivers=$( (grep -rnE 'run_sharded|run_delta\(|run_plan_sharded_weighted|for_grid|timeout_budget|per_shard|\.(run_plan|run_plan_warm|run_plan_sharded|run_delta_plans_metered)\(|\bLevel0Map\b|struct Resolved\b' \
    crates src tests examples; grep -rnF 'StagedSide::new(' crates src tests examples \
    | grep -vE '^(crates/core/src/(delta|estimate)\.rs|tests/step_interleave\.rs):') || true)
if [ -n "${drivers}" ]; then
    echo "${drivers}"
    echo "==> lint:launch: FAILED — launch a request (Engine::launch, Engine::run, DeltaPlans::count over a StagedBatch::new); a grid resolves once (KernelEnv::new)"
    exit 1
fi
echo "==> lint:launch: OK"

# Reach lint: no caller set the salvage bound or the drain width, no
# benchmark or gate ran the overlay's tracked shard weights, and two helpers
# had no caller, so all were deleted (DESIGN.md §4d, §4g, §4k): a grid
# salvages at most twice, a worker pops one request per admission-lock
# acquisition, and a work-aware split weighs the snapshot its query runs on.
# Two per-launch allocations nobody read went the same way: the shared
# budget's log of successful reservations (`SharedBudget::allocations`), and
# the service's unbounded reply channel, which allocated a 31-slot block per
# ticket for its one message (a one-shot reply slot replaced it). The
# delta grid went too: every anchored launch runs on `EngineConfig::grid`
# (DESIGN.md §4i), so `DeltaTuning::grid` may not come back as a second one.
# And the caller-owned arenas: every launch recycles through its engine's
# own free-list (DESIGN.md §4i), so no request carries a slot (`.warm =`,
# `warm: Some(`) and no slot is built outside `pool.rs` and `benchmark/`.
echo "==> lint:reach: scanning for the deleted knobs and helpers"
reach=$( (grep -rnE '\b(RecoveryPolicy|salvage_relaunches|batch_max|track_weights|adjust_level0_weights|work_aware_with_weights|size6_queries|error_count|ArenaPool)\b|SharedBudget::allocations|fn allocations\b|\bdelta\.grid\b|DeltaTuning::grid|\.warm = |warm: Some\(' \
    crates src tests examples; grep -rnF 'WarmSlot::new(' crates src tests examples | grep -v '^crates/core/src/pool\.rs:'; grep -HnF 'mpsc::channel()' crates/core/src/service.rs) || true)
if [ -n "${reach}" ]; then
    echo "${reach}"
    echo "==> lint:reach: FAILED — these names were deleted with no caller; do not bring them back"
    exit 1
fi
echo "==> lint:reach: OK"

# Threads lint: gpu-sim has one warp runner (DESIGN.md §1), the parked warp
# threads behind `Grid::launch_contained`, so its sources hold one
# thread-creation site. `WarmGrid`, the name kept for `benchmark/`, appears
# nowhere but its definition (`grid.rs`, whose tests check it) and its
# re-export, so removing it edits `benchmark/` alone.
echo "==> lint:threads: scanning for a second warp runner"
spawns=$(grep -rnE 'thread::(spawn|scope|Builder)' crates/gpu-sim/src || true)
if [ "$(printf '%s' "${spawns}" | grep -c .)" -gt 1 ]; then
    echo "${spawns}"
    echo "==> lint:threads: FAILED — run warps on the parked threads (Grid::launch_contained)"
    exit 1
fi
warm=$(grep -rnw 'WarmGrid' crates src tests examples \
    | grep -vE '^crates/gpu-sim/src/(grid|lib)\.rs:' || true)
if [ -n "${warm}" ]; then
    echo "${warm}"
    echo "==> lint:threads: FAILED — launch on a Grid; WarmGrid is an inert name"
    exit 1
fi
echo "==> lint:threads: OK"

# Step lint: a warp's body is a loop over `WarpKernel::step`, and no step
# blocks (DESIGN.md §4): the board's `poll` makes one pass and returns, and
# the engine's warp driver holds the one idle spin. The blocking
# `Board::acquire` and the run-to-exhaustion `WarpKernel::run` must not come
# back, and neither may a spin in the steal or kernel code.
echo "==> lint:step: scanning for a blocking acquire, a run loop or a spin below the driver"
blocking=$(grep -rnE 'fn acquire\b|\.acquire\(' crates/core/src crates/bench/src || true)
spins=$(grep -rn 'yield_now' crates/core/src/steal.rs crates/core/src/kernel* || true)
runs=$(grep -rnE 'kernel\.run\(' crates src tests examples || true)
if [ -n "${blocking}${spins}${runs}" ]; then
    printf '%s\n' "${blocking}" "${spins}" "${runs}" | grep . || true
    echo "==> lint:step: FAILED — poll the board (Board::poll) and step the kernel (WarpKernel::step); only the driver spins"
    exit 1
fi
echo "==> lint:step: OK"

# Admission lint: an idle service worker parks until an admission or the
# service's drop wakes it (DESIGN.md §4g), so nothing in the service may
# sleep, time out a park, or yield: a poll loop there is what this replaced.
echo "==> lint:admission: scanning the service for a polling wait"
polls=$(grep -nE 'thread::sleep|park_timeout|yield_now' crates/core/src/service.rs || true)
if [ -n "${polls}" ]; then
    echo "${polls}"
    echo "==> lint:admission: FAILED — an idle worker parks until enqueue unparks it (AdmissionQueue::idle)"
    exit 1
fi
echo "==> lint:admission: OK"

# Registry lint: a plan-cache entry is the resident service's one record per
# canonical pattern (DESIGN.md §4g): it owns the plan, the verdict, the
# anchored plans, the maintained count and the watchers, and the cache
# statistics sit beside the entries under the cache lock. So, outside its test
# module, the service declares no atomic counter and no channel (a ticket
# waits on a one-shot slot), and the graph state holds no watcher list.
echo "==> lint:registry: scanning the service for a second registry"
service_src=$(sed '/^#\[cfg(test)\]$/,$d' crates/core/src/service.rs)
registry=$( (printf '%s\n' "${service_src}" | grep -nE '\bAtomicU64\b|\bmpsc\b'; \
    printf '%s\n' "${service_src}" | awk '/^(pub(\(crate\))? )?struct GraphState[ {]/,/^}/' | grep -ni 'watch') || true)
if [ -n "${registry}" ]; then
    echo "${registry}"
    echo "==> lint:registry: FAILED — keep per-pattern state and statistics on the plan-cache entry (service::Entry, PlanCache)"
    exit 1
fi
echo "==> lint:registry: OK"

if [ "$(tree_state)" != "${TREE_BEFORE}" ]; then
    echo "==> tree: FAILED — ci.sh changed the work tree:"
    diff <(echo "${TREE_BEFORE}") <(tree_state) || true
    exit 1
fi
echo "==> tree: OK (git status unchanged)"

# ROADMAP aim 2's success metric, from the gate's own log: `.rs` lines of the
# engine crate, of the workspace outside `benchmark/`, of the kernel with its
# modules (`kernel.rs` + `kernel/*.rs`, so code moved into a module cannot
# hide growth), of the simulator crate's and the graph crate's sources, and the `.enabled` sites
# left in the engine crate (ROADMAP item 1's count).
rs_lines() { find "$@" -name '*.rs' -not -path './benchmark/*' -not -path './.bench_build/*' -not -path '*/target/*' -print0 | xargs -0 cat | wc -l; }
enabled_sites=$(cat crates/core/src/*.rs | grep -c '\.enabled' || true)
echo "ci.sh: rs-lines crates/core/src=$(rs_lines crates/core/src) workspace-outside-benchmark=$(rs_lines .) kernel=$(rs_lines crates/core/src/kernel.rs crates/core/src/kernel) gpu-sim=$(rs_lines crates/gpu-sim/src) crates/graph/src=$(rs_lines crates/graph/src) enabled-sites=${enabled_sites}"

echo "ci.sh: all phases passed"
