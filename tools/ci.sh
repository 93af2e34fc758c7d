#!/usr/bin/env bash
# The one CI definition for the ironic tree: every job of
# .github/workflows/ci.yml installs its packages and runs one stage of
# this script, and the same stages run offline on a disconnected box:
#
#   1. release   Release-mode build with -Werror, full ctest suite
#   2. sanitize  ASan+UBSan build (halt-on-error), full ctest suite
#   3. tsan      ThreadSanitizer build, exec/sweep/rng/obs/fault subset
#                plus the sparse-solver suites (campaign workers solve
#                circuits concurrently; the rest of the numeric suite
#                stays on ASan), the telemetry drainer / sharded-merge
#                races (TelemetrySink, Profiler, MetricsShard), the
#                shared plant memos (SegmentMemo, BioZMemo) and a
#                service's successive runs over them (FleetServiceMemo)
#   4. tidy      clang-tidy over src/ and tools/ (skips if not installed)
#   5. analyze   netlist_analyze --strict --dc over every shipped .cir
#                netlist (lint is its first pass; the broken fixtures
#                must FAIL), --strict without --dc (clean envelopes, the
#                backend's fill and flop counts, dt planning), the tissue
#                ladder's 122 unknowns, 363 factor nonzeros and 604 solve
#                flops pinned in the JSON report, the spice.analysis.*
#                telemetry and per-pass prof.spice.analysis.<pass> zones
#                pinned via trace_validate
#   6. fault     fault_runner over every registered campaign, plus the
#                exit-code contract (unwritable --out and --telemetry must
#                exit 2), every campaign again at 1 and 4 threads
#                (fingerprints and plant-memo totals must be thread-count
#                invariant), and the trace_validate pins on the
#                spice.solver.*, obs.telemetry.*, prof.<zone>.*,
#                fault.campaign.* memo and cohort.* telemetry
#   7. fleet     fleet_runner 1000-session smoke with solo-parity spot
#                checks (--verify-solo exits 1 on any fingerprint
#                mismatch), checkpoint forking pinned to exactly one
#                charge-up capture, the fleet fingerprint and segment-memo
#                hit/miss totals identical across two thread counts,
#                every session of the 24-session run equal to its solo
#                run, and the fleet.* / cohort.fleet.* /
#                prof.fleet.session / prof.fault.charge_up telemetry
#                schema pinned via trace_validate
#   8. chaos     fleet supervision: injected chaos is contained (exact
#                fleet.failed/quarantined pins, exit code 1), a
#                retried-to-health chaos run is bit-identical to a
#                no-chaos run (exit 0), kill -9 once the journal holds
#                100 session records + --resume replays a partial
#                journal and reproduces the uninterrupted fingerprint
#                (telemetry_tail tolerates the torn tail), and the
#                exit-code contract (0 healthy / 1 failures / 2 usage)
#                holds end to end
#   9. linkphy   the LinkPhy backend contract: backend #1 (inductive)
#                campaign fingerprints bit-identical across thread counts
#                (the exact pre-refactor value pins live in
#                link_neutrality_test), the magnetoelectric campaign
#                fingerprint pinned across three thread counts, the
#                bio-impedance campaign and fleet smoke (stateless
#                workload -> zero charge-ups, zero forks; the fleet
#                fingerprint and bioz-memo totals equal at 1 and 4
#                threads, and every one of its 48 sessions equal to its
#                solo run), the --link exit-2 contract on all three
#                runners, and the link.* telemetry schema pinned via
#                trace_validate
#  10. obs       bench_obs_overhead in-process budget gate (instrumented
#                fault campaign must stay within 5% of the obs-off run),
#                and every *committed* BENCH_*.json must have been
#                produced with observability compiled in
#  11. bench     regenerate every committed BENCH_*.json from a Release
#                build into the checkout root: bench_engine_perf,
#                fault_runner all at 1 thread, and fleet_runner 1000
#                sessions x 2 exchanges at 4 threads; then
#                trace_validate --compare the fault and fleet reports
#                against their committed copies (any exact counter that
#                moved fails). Not part of `all`, because it rewrites
#                committed files.
#
# Usage: tools/ci.sh [release|sanitize|tsan|tidy|analyze|fault|fleet|chaos|linkphy|obs|bench|all]   (default: all)
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
# Every runner writes its BENCH_*.json run report here rather than into
# the working directory, so a run from the checkout root never rewrites
# the committed reports; the stages read the reports back from here.
export IRONIC_REPORT_DIR="$ROOT/build-ci-release"
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 4)}"
STAGE="${1:-all}"

log() { printf '\n==== ci: %s ====\n' "$*"; }

run_release() {
  log "release build (-Werror) + ctest"
  cmake -B "$ROOT/build-ci-release" -S "$ROOT" \
    -DCMAKE_BUILD_TYPE=Release \
    -DIRONIC_WARNINGS_AS_ERRORS=ON
  cmake --build "$ROOT/build-ci-release" -j "$JOBS"
  ctest --test-dir "$ROOT/build-ci-release" --output-on-failure -j "$JOBS"
}

run_sanitize() {
  log "ASan+UBSan build + ctest"
  cmake -B "$ROOT/build-ci-asan" -S "$ROOT" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DIRONIC_WARNINGS_AS_ERRORS=ON \
    -DIRONIC_SANITIZE="address;undefined"
  cmake --build "$ROOT/build-ci-asan" -j "$JOBS"
  ASAN_OPTIONS=detect_leaks=0:halt_on_error=1 \
  UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
    ctest --test-dir "$ROOT/build-ci-asan" --output-on-failure -j "$JOBS"
}

run_tsan() {
  log "TSan build + exec/sweep/rng/obs/fault/magnetics-kernel/plant-memo tests"
  cmake -B "$ROOT/build-ci-tsan" -S "$ROOT" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DIRONIC_WARNINGS_AS_ERRORS=ON \
    -DIRONIC_TSAN=ON
  cmake --build "$ROOT/build-ci-tsan" -j "$JOBS" \
    --target exec_test sweep_test rng_stream_test obs_test \
             obs_telemetry_test fault_session_test fault_campaign_test \
             linalg_sparse_test spice_solver_equiv_test magnetics_test \
             fleet_test sweep_runner trace_validate
  TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1 \
    ctest --test-dir "$ROOT/build-ci-tsan" --output-on-failure -j "$JOBS" \
      -R '^(ThreadPool|ParallelFor|ExecTolerance|ObsConcurrency|Sweep|SweepAxis|RngStream|Metrics|Trace|RunReport|Session|FaultCampaign|SparseSolver|SolverEquiv|TelemetrySink|Profiler|NeumannKernel|SegmentMemo|BioZMemo|FleetServiceMemo)'
}

run_tidy() {
  log "clang-tidy"
  # The tidy target itself degrades to a notice when clang-tidy is absent.
  cmake -B "$ROOT/build-ci-release" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$ROOT/build-ci-release" --target tidy
}

run_analyze() {
  log "netlist lint + analysis sweep and schema pins"
  cmake -B "$ROOT/build-ci-release" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$ROOT/build-ci-release" -j "$JOBS" \
    --target netlist_analyze trace_validate
  local analyzer="$ROOT/build-ci-release/tools/netlist_analyze"
  local validator="$ROOT/build-ci-release/tools/trace_validate"
  # Shipped netlists: zero diagnostics, even with the DC lint rules, even
  # as warnings.
  "$analyzer" --strict --dc "$ROOT"/examples/netlists/*.cir
  # Broken fixtures: the lint pass must refuse them.
  if "$analyzer" --dc "$ROOT"/tests/netlists/*.cir; then
    echo "ci: FAIL -- broken fixtures were not flagged" >&2
    exit 1
  fi
  echo "ci: broken fixtures correctly flagged"
  # Shipped netlists: the whole pipeline (lint + envelope + sparsity +
  # timescale) must come back clean, warnings included.
  "$analyzer" --strict --quiet "$ROOT"/examples/netlists/*.cir
  # The JSON report must carry the tissue ladder's 122 unknowns and the
  # sparse backend's fill and solve cost for it. The JSON sweep also
  # leaves behind the BENCH report whose spice.analysis.* schema is
  # pinned below.
  local ladder="$ROOT/build-ci-release/analyze_ladder.json"
  "$analyzer" --json "$ROOT/examples/netlists/tissue_ladder.cir" > "$ladder"
  grep -q '"unknowns": 122' "$ladder"
  grep -q '"factor_nnz": 363' "$ladder"
  grep -q '"solve_flops": 604' "$ladder"
  "$validator" --require-obs \
    --require spice.analysis.runs \
    --require prof.spice.analysis.lint.inclusive_ns \
    --require prof.spice.analysis.envelope.inclusive_ns \
    --require prof.spice.analysis.sparsity.inclusive_ns \
    --require prof.spice.analysis.timescale.inclusive_ns \
    --require spice.analysis.last_unknowns \
    --require spice.analysis.last_factor_nnz \
    --require spice.analysis.last_dt_recommend \
    "$ROOT/build-ci-release/BENCH_netlist_analyze.json"
  echo "ci: lint and analyzer sweeps clean, broken fixtures flagged;" \
       "ladder size, fill and analysis schema pinned"
}

run_fault() {
  log "fault campaigns (fault_runner all) + exit-code contract"
  cmake -B "$ROOT/build-ci-release" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$ROOT/build-ci-release" -j "$JOBS" \
    --target fault_runner trace_validate
  local runner="$ROOT/build-ci-release/tools/fault_runner"
  local validator="$ROOT/build-ci-release/tools/trace_validate"
  local out="$ROOT/build-ci-release/fault_campaigns.json"
  # Every registered campaign must complete, on >1 thread, and land its
  # JSON report (the determinism/zero-loss assertions live in ctest).
  "$runner" --threads 2 --out "$out" all
  test -s "$out"
  # An unwritable --out must exit 2, distinct from a failed campaign.
  local rc=0
  "$runner" --out /nonexistent-ci-dir/fault.json ask_burst_coupling_drop \
    >/dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "ci: FAIL -- unwritable --out exited $rc, want 2" >&2
    exit 1
  fi
  # An unwritable --telemetry path must exit 2 as well.
  rc=0
  "$runner" --telemetry /nonexistent-ci-dir/t.jsonl ask_burst_coupling_drop \
    >/dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "ci: FAIL -- unwritable --telemetry exited $rc, want 2" >&2
    exit 1
  fi
  # Thread-count invariance: every campaign again at two thread counts —
  # the per-scenario fingerprints must be bit-identical, or the solver
  # leaks state across scenarios, and so must each call's plant-memo
  # totals (misses are the distinct inputs, however the scenarios
  # interleave). The wide leg streams JSONL telemetry while it runs, so
  # the report it leaves behind carries live obs.telemetry.* counters.
  local t1="$ROOT/build-ci-release/fault_threads_t1.json"
  local t4="$ROOT/build-ci-release/fault_threads_t4.json"
  local stream="$ROOT/build-ci-release/fault_threads_t4.telemetry.jsonl"
  "$runner" --threads 1 --out "$t1" all
  "$runner" --threads 4 --telemetry "$stream" --out "$t4" all
  if ! diff <(grep '"fingerprint"' "$t1") <(grep '"fingerprint"' "$t4"); then
    echo "ci: FAIL -- fault fingerprints differ across thread counts" >&2
    exit 1
  fi
  local memo_pins='"(segment|bioz)_(hits|misses)"'
  if ! diff <(grep -E "$memo_pins" "$t1") <(grep -E "$memo_pins" "$t4"); then
    echo "ci: FAIL -- campaign memo totals differ across thread counts" >&2
    exit 1
  fi
  test -s "$stream"
  # The run report the 4-thread campaign emits must carry the solver-layer
  # telemetry (DESIGN.md §11), the streaming-sink counters, the profiler
  # zone totals, and the cohort percentile aggregates (DESIGN.md §12) —
  # pin the names so a registry rename or a silently-dead counter fails
  # CI instead of an offline dashboard.
  "$validator" --require-obs \
    --require spice.solver.factorizations \
    --require spice.solver.refactorizations \
    --require spice.solver.pattern_builds \
    --require spice.solver.pattern_reuses \
    --require spice.solver.sequence_divergences \
    --require obs.telemetry.emitted \
    --require obs.telemetry.written \
    --require obs.telemetry.flushes \
    --require prof.spice.transient.setup.inclusive_ns \
    --require prof.spice.checkpoint.inclusive_ns \
    --require prof.spice.newton.inclusive_ns \
    --require prof.spice.linear_solve.inclusive_ns \
    --require prof.spice.stamp.inclusive_ns \
    --require prof.spice.lu_factor.inclusive_ns \
    --require prof.spice.lu_solve.inclusive_ns \
    --require prof.comms.exchange.inclusive_ns \
    --require prof.link.power.inclusive_ns \
    --require fault.campaign.segment_hits \
    --require fault.campaign.segment_misses \
    --require fault.campaign.bioz_hits \
    --require fault.campaign.bioz_misses \
    --require cohort.ask_burst_coupling_drop.fault.scenario.exchange_latency_s.p99 \
    --require cohort.ask_burst_coupling_drop.fault.scenario.retries.p50 \
    --require cohort.ask_burst_coupling_drop.fault.scenario.restarts.sum \
    --require cohort.ask_burst_coupling_drop.fault.scenario.recover_s.max \
    --require cohort.brownout_shedding.fault.scenario.brownouts.max \
    "$ROOT/build-ci-release/BENCH_fault_resilience.json"
  # Every device stamps in one call order, a MOSFET whose source and
  # drain swap included, so no assembly leaves the solver's recorded
  # stamp sequence (DESIGN.md §11.1).
  if ! grep -A2 '"name": "spice.solver.sequence_divergences"' \
      "$ROOT/build-ci-release/BENCH_fault_resilience.json" |
      grep -q '"value": 0$'; then
    echo "ci: FAIL -- spice.solver.sequence_divergences is not 0" >&2
    exit 1
  fi
  echo "ci: campaigns wrote $out; fingerprints and memo totals" \
       "thread-count invariant; no stamp-sequence divergence;" \
       "exit-code and telemetry contracts hold"
}

run_fleet() {
  log "fleet 1000-session smoke + solo parity + thread-count invariance"
  cmake -B "$ROOT/build-ci-release" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$ROOT/build-ci-release" -j "$JOBS" \
    --target fleet_runner trace_validate
  local runner="$ROOT/build-ci-release/tools/fleet_runner"
  local validator="$ROOT/build-ci-release/tools/trace_validate"
  # 1000 concurrent sessions, one exchange each: completes in seconds at
  # 4 threads because every session forks the single shared charge-up
  # checkpoint. --verify-solo re-runs two sessions alone (private
  # charge-up) and exits 1 if either diverges from its fleet twin. The
  # run leaves behind the BENCH report whose schema is pinned below.
  local smoke="$ROOT/build-ci-release/fleet_smoke.json"
  local stream="$ROOT/build-ci-release/fleet_smoke.telemetry.jsonl"
  "$runner" --sessions 1000 --threads 4 --exchanges 1 \
    --verify-solo 2 --telemetry "$stream" --out "$smoke"
  test -s "$stream"
  # Forking must have amortized the charge-up: one capture, 1000 forks.
  grep -q '"charge_captures": 1' "$smoke"
  grep -q '"checkpoint_forks": 1000' "$smoke"
  # Pin the fleet roll-ups and the per-cohort aggregates (DESIGN.md §14)
  # so a metric rename or a silently-dead gauge fails CI. Checked here,
  # before the later legs replace the smoke run's report.
  "$validator" --require-obs \
    --require fleet.sessions \
    --require fleet.total_exchanges \
    --require fleet.lost_rate \
    --require fleet.recovery_p50_s \
    --require fleet.recovery_p95_s \
    --require fleet.recovery_p99_s \
    --require fleet.charge_captures \
    --require fleet.checkpoint_forks \
    --require fleet.segment_hits \
    --require fleet.segment_misses \
    --require fleet.bioz_hits \
    --require fleet.bioz_misses \
    --require fleet.segment_carried \
    --require fleet.bioz_carried \
    --require fleet.sessions_per_second \
    --require prof.fleet.session.inclusive_ns \
    --require prof.fault.charge_up.inclusive_ns \
    --require cohort.fleet.nominal.fleet.session.retries.sum \
    --require cohort.fleet.noisy_link.fleet.session.exchange_latency_s.p95 \
    --require cohort.fleet.deep_implant.fleet.session.recover_s.max \
    "$ROOT/build-ci-release/BENCH_fleet_soak.json"
  # The fleet fingerprint must be bit-identical across thread counts,
  # and so must the plant memos' hit/miss/carry totals (misses plus
  # carries are the distinct inputs, however the sessions interleave).
  # A one-run fleet_runner has no previous run to carry from. Sharing
  # analog state (the charge-up blob and the plant memos) must not
  # change a bit either: --verify-solo 24 checks every session of the
  # 3-thread run against its solo run, which captures its own charge-up
  # and reads no memo, and exits 1 on any mismatch.
  local t1="$ROOT/build-ci-release/fleet_t1.json"
  local t3="$ROOT/build-ci-release/fleet_t3.json"
  local pins='"(fingerprint|segment_hits|segment_misses|segment_carried|bioz_hits|bioz_misses|bioz_carried)"'
  "$runner" --sessions 24 --threads 1 --exchanges 2 --out "$t1"
  "$runner" --sessions 24 --threads 3 --exchanges 2 --verify-solo 24 \
    --out "$t3"
  if ! diff <(grep -E "$pins" "$t1") <(grep -E "$pins" "$t3"); then
    echo "ci: FAIL -- fleet fingerprint or memo totals differ across" \
         "thread counts" >&2
    exit 1
  fi
  grep -q '"segment_carried": 0' "$t3"
  grep -q '"bioz_carried": 0' "$t3"
  # An unwritable --out must exit 2, same contract as the other runners.
  local rc=0
  "$runner" --sessions 2 --exchanges 1 --out /nonexistent-ci-dir/fleet.json \
    >/dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "ci: FAIL -- unwritable --out exited $rc, want 2" >&2
    exit 1
  fi
  echo "ci: 1000-session fleet smoke parity-clean; fingerprints and memo" \
       "totals thread-count invariant; every session of the 24-session" \
       "run equals its solo run; fleet telemetry schema pinned"
}

run_chaos() {
  log "fleet supervision: chaos containment, retry determinism, kill+resume"
  cmake -B "$ROOT/build-ci-release" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$ROOT/build-ci-release" -j "$JOBS" \
    --target fleet_runner trace_validate telemetry_tail
  local runner="$ROOT/build-ci-release/tools/fleet_runner"
  local validator="$ROOT/build-ci-release/tools/trace_validate"
  local tail_tool="$ROOT/build-ci-release/tools/telemetry_tail"

  # Leg 1 — containment + quarantine. With the default seed, 24 sessions
  # and --chaos 0.2 doom exactly sessions {9, 11, 14, 15}; more doomed
  # attempts than retries means all four quarantine. The run must still
  # complete every healthy session, report the failures per code, and
  # exit 1 (failures present), never abort.
  local chaos_out="$ROOT/build-ci-release/fleet_chaos.json"
  local rc=0
  "$runner" --sessions 24 --threads 4 --exchanges 2 \
    --chaos 0.2 --chaos-attempts 9 --retries 1 --out "$chaos_out" \
    >/dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 1 ]; then
    echo "ci: FAIL -- chaos run with quarantines exited $rc, want 1" >&2
    exit 1
  fi
  grep -q '"failed": 4' "$chaos_out"
  grep -q '"quarantined": 4' "$chaos_out"
  grep -q '"chaos": 4' "$chaos_out"
  # The supervision roll-ups must land in the run report's registry.
  "$validator" --require-obs \
    --require fleet.failed \
    --require fleet.retried \
    --require fleet.quarantined \
    --require fleet.resumed \
    --require fleet.failures.chaos \
    --require cohort.fleet.nominal.failure_rate \
    "$ROOT/build-ci-release/BENCH_fleet_soak.json"

  # The chaos fingerprint (healthy results + deterministic failure
  # markers) must be thread-count invariant like everything else.
  local chaos_t1="$ROOT/build-ci-release/fleet_chaos_t1.json"
  "$runner" --sessions 24 --threads 1 --exchanges 2 \
    --chaos 0.2 --chaos-attempts 9 --retries 1 --out "$chaos_t1" \
    >/dev/null 2>&1 || true
  if ! diff <(grep '"fingerprint"' "$chaos_out") <(grep '"fingerprint"' "$chaos_t1"); then
    echo "ci: FAIL -- chaos fingerprints differ across thread counts" >&2
    exit 1
  fi

  # Leg 2 — deterministic retry. One doomed attempt + two retries means
  # every chaos-picked session re-runs clean with its original seed: the
  # run exits 0 and its fingerprint is bit-identical to a no-chaos run.
  local clean_out="$ROOT/build-ci-release/fleet_nochaos.json"
  local retry_out="$ROOT/build-ci-release/fleet_retried.json"
  "$runner" --sessions 24 --threads 4 --exchanges 2 --out "$clean_out"
  "$runner" --sessions 24 --threads 4 --exchanges 2 \
    --chaos 0.2 --retries 2 --out "$retry_out"
  if ! diff <(grep '"fingerprint"' "$clean_out") <(grep '"fingerprint"' "$retry_out"); then
    echo "ci: FAIL -- retried chaos run diverged from the no-chaos run" >&2
    exit 1
  fi
  grep -q '"failed": 0' "$retry_out"

  # Leg 3 — crash durability. Kill a journaled run mid-flight (SIGKILL,
  # no cleanup) once its journal holds kill_at session records, then
  # --resume: the journaled sessions replay, the rest re-run, and the
  # fleet fingerprint matches an uninterrupted reference run
  # bit-for-bit. Every record is flushed as it is written, so the count
  # polled here is exact; the run is sized to outlast the poll, and the
  # resume must replay part of the run, neither none nor all of it.
  local journal="$ROOT/build-ci-release/fleet_kill.journal.jsonl"
  local ref_out="$ROOT/build-ci-release/fleet_kill_ref.json"
  local res_out="$ROOT/build-ci-release/fleet_kill_resumed.json"
  local sessions=2000 kill_at=100 journaled=0 polls=0
  rm -f "$journal"
  "$runner" --sessions "$sessions" --threads 2 --exchanges 2 --out "$ref_out"
  "$runner" --sessions "$sessions" --threads 2 --exchanges 2 \
    --journal "$journal" --out /dev/null >/dev/null 2>&1 &
  local pid=$!
  while [ "$journaled" -lt "$kill_at" ] && [ "$polls" -lt 1500 ]; do
    sleep 0.02
    polls=$((polls + 1))
    journaled="$(grep -c '"event":"session"' "$journal" 2>/dev/null || true)"
    journaled="${journaled:-0}"
  done
  kill -9 "$pid" 2>/dev/null || true
  wait "$pid" 2>/dev/null || true
  journaled="$(grep -c '"event":"session"' "$journal" || true)"
  echo "ci: killed journaled run after $journaled recorded session(s)"
  # The torn tail (if the kill landed mid-write) must not break the
  # schema-agnostic tooling either.
  "$tail_tool" --stats "$journal" >/dev/null
  "$runner" --sessions "$sessions" --threads 4 --exchanges 2 \
    --journal "$journal" --resume --out "$res_out"
  if ! diff <(grep '"fingerprint"' "$ref_out") <(grep '"fingerprint"' "$res_out"); then
    echo "ci: FAIL -- resumed fingerprint differs from uninterrupted run" >&2
    exit 1
  fi
  local resumed
  resumed="$(grep -o '"resumed": [0-9]*' "$res_out" | grep -o '[0-9]*$')"
  echo "ci: resumed $resumed of $sessions session(s) from the journal"
  if [ "$resumed" -le 0 ] || [ "$resumed" -ge "$sessions" ]; then
    echo "ci: FAIL -- want a partial resume (0 < resumed < $sessions)" >&2
    exit 1
  fi

  # Leg 4 — exit-code contract edges not already covered above: healthy
  # exit 0 is leg 2's clean run; usage and unwritable-journal exit 2.
  rc=0; "$runner" --bogus >/dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "ci: FAIL -- unknown flag exited $rc, want 2" >&2; exit 1
  fi
  rc=0; "$runner" --sessions 2 --exchanges 1 \
    --journal /nonexistent-ci-dir/j.jsonl >/dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "ci: FAIL -- unwritable --journal exited $rc, want 2" >&2; exit 1
  fi
  rc=0; "$runner" --resume >/dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "ci: FAIL -- --resume without --journal exited $rc, want 2" >&2
    exit 1
  fi
  echo "ci: chaos contained with exact failure pins; retried run" \
       "bit-identical to no-chaos; partial kill+resume fingerprint parity" \
       "holds"
}

run_linkphy() {
  log "LinkPhy: backend-#1 neutrality, ME pins, bioz smoke, --link contract"
  cmake -B "$ROOT/build-ci-release" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$ROOT/build-ci-release" -j "$JOBS" \
    --target fault_runner fleet_runner sweep_runner trace_validate
  local fault="$ROOT/build-ci-release/tools/fault_runner"
  local fleet="$ROOT/build-ci-release/tools/fleet_runner"
  local sweep="$ROOT/build-ci-release/tools/sweep_runner"
  local validator="$ROOT/build-ci-release/tools/trace_validate"

  # Backend #1 neutrality + thread invariance: every registered campaign
  # (the three pre-LinkPhy ones now dispatching through the inductive
  # backend, plus the ME and bioz additions) must fingerprint
  # bit-identically at 1 and 4 threads. The exact pre-refactor constants
  # are pinned by link_neutrality_test; the diff here catches divergence
  # without assuming this runner's libm.
  local t1="$ROOT/build-ci-release/linkphy_t1.json"
  local t4="$ROOT/build-ci-release/linkphy_t4.json"
  "$fault" --threads 1 --out "$t1" all
  "$fault" --threads 4 --out "$t4" all
  if ! diff <(grep '"fingerprint"' "$t1") <(grep '"fingerprint"' "$t4"); then
    echo "ci: FAIL -- campaign fingerprints differ across thread counts" >&2
    exit 1
  fi
  grep -q '"campaign": "me_backscatter_soak"' "$t1"
  grep -q '"campaign": "bioz_tissue_drift"' "$t1"

  # The link.* telemetry published by run_campaign must land in the run
  # report: the query and memo-hit counters plus both backends'
  # operating points. Checked on the wide leg's report, before the
  # single-campaign leg below replaces it.
  "$validator" --require-obs \
    --require link.power_queries \
    --require link.power_hits \
    --require link.inductive.p_nominal_w \
    --require link.inductive.nominal_rate_bps \
    --require link.inductive.cadence_s \
    --require link.me.p_nominal_w \
    --require link.me.nominal_rate_bps \
    --require link.me.cadence_s \
    "$ROOT/build-ci-release/BENCH_fault_resilience.json"

  # The magnetoelectric campaign again at a third thread count: its
  # fingerprint must match the wide leg exactly.
  local me3="$ROOT/build-ci-release/linkphy_me_t3.json"
  "$fault" --threads 3 --out "$me3" me_backscatter_soak
  local me_pin
  me_pin="$(grep -o '"fingerprint": "0x[0-9a-f]*"' "$me3" | head -1)"
  if ! grep -qF "$me_pin" "$t4"; then
    echo "ci: FAIL -- me_backscatter_soak fingerprint differs at 3 threads" >&2
    exit 1
  fi

  # Bio-impedance smoke: the campaign must deliver every measurement,
  # and a bioz fleet must run with zero charge-up captures and zero
  # checkpoint forks (the workload is stateless) and fingerprint the
  # same at 1 and 4 threads (every measure is a linear ladder transient
  # on the engine's one-solve-per-step path). The run's bioz memo totals
  # must match across thread counts too, and every session of the
  # 4-thread run must equal its solo run, which simulates every measure
  # itself (--verify-solo 48 exits 1 on any mismatch).
  local bioz="$ROOT/build-ci-release/linkphy_bioz.json"
  "$fault" --out "$bioz" bioz_tissue_drift
  grep -q '"lost_measurements": 0' "$bioz"
  local bfleet1="$ROOT/build-ci-release/linkphy_bioz_fleet_t1.json"
  local bfleet="$ROOT/build-ci-release/linkphy_bioz_fleet.json"
  "$fleet" --workload bioz --sessions 48 --exchanges 2 --threads 1 \
    --out "$bfleet1"
  "$fleet" --workload bioz --sessions 48 --exchanges 2 --threads 4 \
    --verify-solo 48 --out "$bfleet"
  local bpins='"(fingerprint|bioz_hits|bioz_misses|bioz_carried)"'
  if ! diff <(grep -E "$bpins" "$bfleet1") <(grep -E "$bpins" "$bfleet"); then
    echo "ci: FAIL -- bioz fleet fingerprints or memo totals differ across" \
         "thread counts" >&2
    exit 1
  fi
  grep -q '"charge_captures": 0' "$bfleet"
  grep -q '"checkpoint_forks": 0' "$bfleet"

  # A magnetoelectric fleet must be thread-count invariant like the
  # inductive one (per-cohort charge-up blobs, PWM chips through the
  # fault-wrapped channel).
  local mf1="$ROOT/build-ci-release/linkphy_me_fleet_t1.json"
  local mf3="$ROOT/build-ci-release/linkphy_me_fleet_t3.json"
  "$fleet" --link me --sessions 24 --threads 1 --exchanges 2 --out "$mf1"
  "$fleet" --link me --sessions 24 --threads 3 --exchanges 2 --out "$mf3"
  if ! diff <(grep '"fingerprint"' "$mf1") <(grep '"fingerprint"' "$mf3"); then
    echo "ci: FAIL -- me fleet fingerprints differ across thread counts" >&2
    exit 1
  fi

  # --link contract: an unknown backend is a usage error (exit 2) on
  # every runner that takes the flag, with the registered names listed.
  local rc
  rc=0; "$fault" --link bogus stochastic_soak >/dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "ci: FAIL -- fault_runner --link bogus exited $rc, want 2" >&2
    exit 1
  fi
  rc=0; "$fleet" --link bogus --sessions 1 --exchanges 1 >/dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "ci: FAIL -- fleet_runner --link bogus exited $rc, want 2" >&2
    exit 1
  fi
  rc=0; "$sweep" --link bogus --list >/dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "ci: FAIL -- sweep_runner --link bogus exited $rc, want 2" >&2
    exit 1
  fi
  local diag
  diag=$("$fault" --link bogus stochastic_soak 2>&1 || true)
  if ! printf '%s' "$diag" | grep -q 'inductive, me'; then
    echo "ci: FAIL -- --link diagnostic does not list the backends" >&2
    exit 1
  fi
  echo "ci: linkphy neutrality diff clean; me pinned at 3 thread counts;" \
       "bioz campaign+fleet smoke pass, bioz fleet and memo totals" \
       "thread-invariant, every bioz session equals its solo run;" \
       "--link exit-2 contract holds"
}

run_obs() {
  log "obs overhead budget + committed-report provenance"
  cmake -B "$ROOT/build-ci-release" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$ROOT/build-ci-release" -j "$JOBS" \
    --target bench_obs_overhead trace_validate
  # The bench enforces its own <=5% budget in-process (exit 1 on breach)
  # and cross-checks fingerprint invariance with telemetry on/off.
  "$ROOT/build-ci-release/bench/bench_obs_overhead"
  # Every benchmark report checked into the tree must have been produced
  # with observability compiled in — a BENCH_*.json regenerated from a
  # stripped build silently loses the profiler/cohort sections.
  local validator="$ROOT/build-ci-release/tools/trace_validate"
  local committed
  committed="$(cd "$ROOT" && git ls-files 'BENCH_*.json')"
  if [ -z "$committed" ]; then
    echo "ci: no committed BENCH_*.json reports to check" >&2
    exit 1
  fi
  for report in $committed; do
    "$validator" --require-obs "$ROOT/$report"
  done
  echo "ci: obs overhead within budget; committed reports carry obs"
}

run_bench() {
  log "regenerate the committed BENCH_*.json reports (Release)"
  cmake -B "$ROOT/build-ci-release" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$ROOT/build-ci-release" -j "$JOBS" \
    --target bench_engine_perf fault_runner fleet_runner trace_validate
  local bin="$ROOT/build-ci-release"
  # The one stage that writes its reports into the checkout root.
  IRONIC_REPORT_DIR="$ROOT" "$bin/bench/bench_engine_perf"
  IRONIC_REPORT_DIR="$ROOT" "$bin/tools/fault_runner" --threads 1 all
  IRONIC_REPORT_DIR="$ROOT" "$bin/tools/fleet_runner" \
    --sessions 1000 --exchanges 2 --threads 4
  # bench_engine_perf also writes its sweep-scaling report, which is not
  # committed.
  rm -f "$ROOT/BENCH_sweep_scaling.json"
  local report
  for report in $(cd "$ROOT" && git ls-files 'BENCH_*.json'); do
    "$bin/tools/trace_validate" --require-obs "$ROOT/$report"
  done
  # Every exact counter must equal the committed copy's; timing only
  # warns. The engine report is left out: google-benchmark picks its
  # iteration counts, and with them its counters, anew on every run.
  local committed_copy="$bin/BENCH_committed.json"
  for report in BENCH_fault_resilience.json BENCH_fleet_soak.json; do
    (cd "$ROOT" && git show "HEAD:$report") >"$committed_copy"
    "$bin/tools/trace_validate" --compare "$committed_copy" "$ROOT/$report"
  done
  echo "ci: committed reports regenerated; review with git diff"
}

case "$STAGE" in
  release)  run_release ;;
  sanitize) run_sanitize ;;
  tsan)     run_tsan ;;
  tidy)     run_tidy ;;
  analyze)  run_analyze ;;
  fault)    run_fault ;;
  fleet)    run_fleet ;;
  chaos)    run_chaos ;;
  linkphy)  run_linkphy ;;
  obs)      run_obs ;;
  bench)    run_bench ;;
  all)      run_release; run_sanitize; run_tsan; run_tidy; run_analyze; run_fault; run_fleet; run_chaos; run_linkphy; run_obs ;;
  *) echo "usage: tools/ci.sh [release|sanitize|tsan|tidy|analyze|fault|fleet|chaos|linkphy|obs|bench|all]" >&2; exit 2 ;;
esac

log "OK ($STAGE)"
