# End-to-end exercise of the amsweep orchestrator (ctest smoke entry):
# run a scaled-down fig9 grid serially, then the same grid through amsweep
# with 2 lease-worker processes and one injected worker kill (claimed
# crash marker -> SIGKILL while holding a lease -> requeued onto the next
# free slot), and require
#   1. the orchestrated merged store to be bit-identical to the serial
#      one (kill + retry included), under the cost-ordered and the
#      uniform (plan-order) service order alike,
#   2. an unsharded driver re-run against the merged store to be fully
#      cached (zero engine runs),
#   3. a repeated amsweep over the same store to execute zero engine runs,
#   4. a partially cached resume to complete the store bit-identically,
#   5. amsweep's flags to be strictly parsed (exit 2 on junk, on unknown
#      flags and on the retired --schedule/--shards), and a driver's
#      retired --shard to be a usage error naming `amsweep slice`.
# Driven by -D vars:
#   AMSWEEP — path to the amsweep binary
#   FIG9    — path to the fig9_mcb_degradation binary
#   WORKDIR — scratch directory (wiped on entry)
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
include("${CMAKE_CURRENT_LIST_DIR}/smoke_sweep_helpers.cmake")

set(fig9_args --scale 64 --ranks 8 --steps 1 --quick --max-cs 1 --max-bw 1)

# 1. The ground truth: the same grid run serially into its own store.
run_checked(direct "${FIG9}" ${fig9_args} --results-dir "${WORKDIR}/direct")

# 2. The orchestrated run, with exactly one worker dying mid-lease: the
#    first worker to claim (delete) the marker raises SIGKILL before doing
#    any work, and amsweep must requeue the lease it held. (The plan probe
#    never claims the marker.)
file(WRITE "${WORKDIR}/crash.marker" "")
run_checked(orchestrated "${AMSWEEP}"
  --results-dir "${WORKDIR}/orch" --workers 2 --retries 1
  --stall-timeout 120 --
  "${FIG9}" ${fig9_args} --test-crash-marker "${WORKDIR}/crash.marker")
if(EXISTS "${WORKDIR}/crash.marker")
  message(FATAL_ERROR "no worker claimed the crash marker:\n${orchestrated}")
endif()
if(NOT orchestrated MATCHES "signal 9")
  message(FATAL_ERROR
    "expected a SIGKILLed worker attempt in the log:\n${orchestrated}")
endif()
set(manifest_path "${WORKDIR}/orch/fig9_mcb_degradation.manifest.tsv")
if(NOT EXISTS "${manifest_path}")
  message(FATAL_ERROR "amsweep did not write a run manifest")
endif()
file(READ "${manifest_path}" manifest)
if(NOT manifest MATCHES "schedule\tlease")
  message(FATAL_ERROR "manifest does not record its schedule")
endif()

# 3. Kill + requeue must not change a single byte of the merged store.
require_same_store("${WORKDIR}/direct/fig9_mcb_degradation.tsv"
  "${WORKDIR}/orch/fig9_mcb_degradation.tsv" "orchestrated store")

# 3b. Neither may the service order: the pass above served the points
#     costliest first (the default cost model), this one in plan order.
#     Together the two pin byte-identity across both orders.
run_checked(uniform "${AMSWEEP}"
  --results-dir "${WORKDIR}/uniform" --workers 2 --cost-model uniform --
  "${FIG9}" ${fig9_args})
require_same_store("${WORKDIR}/direct/fig9_mcb_degradation.tsv"
  "${WORKDIR}/uniform/fig9_mcb_degradation.tsv"
  "uniform-cost-model orchestrated store")

# 4. The merged store must make an unsharded driver re-run fully cached.
run_checked(cached "${FIG9}" ${fig9_args} --results-dir "${WORKDIR}/orch")
if(NOT cached MATCHES "\\(0 executed")
  message(FATAL_ERROR
    "expected a fully cached re-run against the merged store, got:\n"
    "${cached}")
endif()

# 5. And a repeated amsweep over the same store runs zero engine runs —
#    even though the cost model (now fed by recorded run times) may batch
#    the points differently than the first pass.
run_checked(resweep "${AMSWEEP}"
  --results-dir "${WORKDIR}/orch" --workers 2 --retries 1 --
  "${FIG9}" ${fig9_args})
if(NOT resweep MATCHES "0 engine runs total")
  message(FATAL_ERROR
    "expected a fully cached amsweep re-run, got:\n${resweep}")
endif()

# 6. A partially cached resume — a retry's view of the world: one slice's
#    records present, the rest still to run — must record every fresh
#    result under its own plan point's key, so completing the store leaves
#    it byte-identical to the direct serial run's. The slice is the
#    multi-host recipe's unit of work: slice 0 of an `amsweep slice` cut
#    in two, run as its own lease worker.
run_checked(sliced "${AMSWEEP}" slice --hosts 2 --out "${WORKDIR}/slice" --
  "${FIG9}" ${fig9_args})
run_checked(slice "${FIG9}" ${fig9_args} --results-dir "${WORKDIR}/slice"
  --lease "${WORKDIR}/slice/slice_0")
file(MAKE_DIRECTORY "${WORKDIR}/partial")
configure_file("${WORKDIR}/slice/slice_0.tsv"
  "${WORKDIR}/partial/fig9_mcb_degradation.tsv" COPYONLY)
run_checked(partial "${FIG9}" ${fig9_args} --results-dir "${WORKDIR}/partial")
if(partial MATCHES "\\(0 executed" OR partial MATCHES " 0 reused\\)")
  message(FATAL_ERROR "the resume was not partially cached:\n${partial}")
endif()
require_same_store("${WORKDIR}/direct/fig9_mcb_degradation.tsv"
  "${WORKDIR}/partial/fig9_mcb_degradation.tsv"
  "partially cached resume (fresh records keyed by the wrong plan point?)")

# 7. Malformed numeric flags are usage errors (exit 2) — strtod happily
#    parses "nan" and "inf", but neither may reach sleep_for or disable
#    stall supervision.
foreach(bad nan inf -1)
  execute_process(COMMAND "${AMSWEEP}" --results-dir "${WORKDIR}/orch"
    --poll-seconds ${bad} -- "${FIG9}" ${fig9_args}
    OUTPUT_QUIET ERROR_QUIET RESULT_VARIABLE bad_code)
  if(NOT bad_code EQUAL 2)
    message(FATAL_ERROR
      "expected --poll-seconds ${bad} to exit 2 (usage), got ${bad_code}")
  endif()
endforeach()

# 8. The scheduling flags are strictly parsed: unknown enum values,
#    negative batch counts, unknown flags and the retired --schedule and
#    --shards are usage errors (exit 2), as are `amsweep slice` without
#    --hosts or --out, and a value-less --lease, --lease combined with
#    --emit-plan, and --worker without --lease on the driver side.
foreach(bad_flags
    "--cost-model;vibes" "--batches;-1" "--bogus-flag;7"
    "--schedule;lease" "--shards;2")
  execute_process(COMMAND "${AMSWEEP}" --results-dir "${WORKDIR}/orch"
    ${bad_flags} -- "${FIG9}" ${fig9_args}
    OUTPUT_QUIET ERROR_QUIET RESULT_VARIABLE bad_code)
  if(NOT bad_code EQUAL 2)
    message(FATAL_ERROR
      "expected amsweep ${bad_flags} to exit 2 (usage), got ${bad_code}")
  endif()
endforeach()
foreach(bad_flags "--out;${WORKDIR}/bad" "--hosts;2"
    "--hosts;0;--out;${WORKDIR}/bad"
    "--hosts;2;--out;${WORKDIR}/bad;--bogus-flag;7")
  execute_process(COMMAND "${AMSWEEP}" slice ${bad_flags} -- "${FIG9}"
    ${fig9_args} OUTPUT_QUIET ERROR_QUIET RESULT_VARIABLE bad_code)
  if(NOT bad_code EQUAL 2)
    message(FATAL_ERROR
      "expected amsweep slice ${bad_flags} to exit 2 (usage), got ${bad_code}")
  endif()
endforeach()
foreach(bad_flags
    "--lease" "--lease;${WORKDIR}/x;--emit-plan;${WORKDIR}/y"
    "--worker;--results-dir;${WORKDIR}/orch")
  execute_process(COMMAND "${FIG9}" ${fig9_args} ${bad_flags}
    OUTPUT_QUIET ERROR_QUIET RESULT_VARIABLE bad_code)
  if(NOT bad_code EQUAL 2)
    message(FATAL_ERROR
      "expected ${FIG9} ${bad_flags} to exit 2 (usage), got ${bad_code}")
  endif()
endforeach()

# 9. The retired --shard is a usage error that names its replacement.
execute_process(COMMAND "${FIG9}" ${fig9_args} --results-dir "${WORKDIR}/orch"
  --shard 0/2 OUTPUT_QUIET ERROR_VARIABLE shard_err RESULT_VARIABLE shard_code)
if(NOT shard_code EQUAL 2 OR NOT shard_err MATCHES "amsweep slice")
  message(FATAL_ERROR "expected --shard 0/2 to exit 2 naming `amsweep "
    "slice`, got ${shard_code}:\n${shard_err}")
endif()
