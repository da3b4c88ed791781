# End-to-end exercise of an ActiveMeasurer grid driver under every
# scheduling mode (ctest smoke entry): run a scaled-down fig10 grid
# serially, then
#   1. through amsweep with 2 lease-worker processes and one injected
#      worker kill (claimed crash marker -> SIGKILL -> requeue),
#   2. as the manual multi-host recipe: `amsweep slice --hosts 2`, one
#      lease run per slice, and `amresult merge`,
# and require both stores to be byte-identical to the serial run's, and
# re-runs against the orchestrated store to be fully cached and to print
# the serial run's tables line for line: the first render computes the
# calibration into the dir's calibration store, the second reads it back
# and runs nothing at all.
# Driven by -D vars:
#   AMSWEEP  — path to the amsweep binary
#   AMRESULT — path to the amresult binary
#   FIG10    — path to the fig10_mcb_resources binary
#   WORKDIR  — scratch directory (wiped on entry)
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
include("${CMAKE_CURRENT_LIST_DIR}/smoke_sweep_helpers.cmake")

set(fig10_args --scale 64 --ranks 8 --steps 1 --particles 2000 --quick)
set(store fig10_mcb_resources)

# The ground truth: the grid run serially into its own store.
run_checked(direct "${FIG10}" ${fig10_args} --results-dir "${WORKDIR}/direct")
# Its calibration probes are cached apart from the grid, so the grid
# stores compared below hold grid points only.
file(STRINGS "${WORKDIR}/direct/${store}.tsv" calib_in_grid REGEX "\tcalib ")
file(STRINGS "${WORKDIR}/direct/calibration.tsv" calib_records REGEX "\tcalib ")
if(calib_in_grid OR NOT calib_records)
  message(FATAL_ERROR "calibration records belong in calibration.tsv only")
endif()

# 1. Orchestrated, with exactly one worker dying mid-lease. The plan
#    probe never claims the marker.
file(WRITE "${WORKDIR}/crash.marker" "")
run_checked(orchestrated "${AMSWEEP}"
  --results-dir "${WORKDIR}/orch" --workers 2 --retries 1
  --stall-timeout 120 --
  "${FIG10}" ${fig10_args} --test-crash-marker "${WORKDIR}/crash.marker")
if(EXISTS "${WORKDIR}/crash.marker")
  message(FATAL_ERROR "no worker claimed the crash marker:\n${orchestrated}")
endif()
if(NOT orchestrated MATCHES "signal 9")
  message(FATAL_ERROR
    "expected a SIGKILLed worker attempt in the log:\n${orchestrated}")
endif()
require_same_store("${WORKDIR}/direct/${store}.tsv"
  "${WORKDIR}/orch/${store}.tsv" "orchestrated store")

# 2. Two `amsweep slice` slices, each run as its own lease worker, merged
#    by amresult.
run_checked(sliced "${AMSWEEP}" slice --hosts 2 --out "${WORKDIR}/slices" --
  "${FIG10}" ${fig10_args})
foreach(i 0 1)
  run_checked(host "${FIG10}" ${fig10_args} --results-dir "${WORKDIR}/sliced"
    --lease "${WORKDIR}/slices/slice_${i}")
  if(host MATCHES "== Fig")
    message(FATAL_ERROR "slice ${i} printed a figure:\n${host}")
  endif()
endforeach()
run_checked(merged "${AMRESULT}" merge --out "${WORKDIR}/sliced/${store}.tsv"
  "${WORKDIR}/slices/slice_0.tsv" "${WORKDIR}/slices/slice_1.tsv")
require_same_store("${WORKDIR}/direct/${store}.tsv"
  "${WORKDIR}/sliced/${store}.tsv" "slice-merged store")

# 3. The orchestrated store makes a re-run fully cached, and the cached
#    tables match the serial run's (modulo the store bookkeeping line).
run_checked(cached "${FIG10}" ${fig10_args} --results-dir "${WORKDIR}/orch")
if(NOT cached MATCHES "\\(0 executed")
  message(FATAL_ERROR
    "expected a fully cached re-run against the merged store, got:\n"
    "${cached}")
endif()
string(REGEX REPLACE "results: [^\n]*\n" "" cached_table "${cached}")
string(REGEX REPLACE "results: [^\n]*\n" "" direct_table "${direct}")
if(NOT cached_table STREQUAL direct_table)
  message(FATAL_ERROR
    "cached tables differ from the direct run.\ncached:\n${cached_table}\n"
    "direct:\n${direct_table}")
endif()

# 4. A second render reads its calibration from the calibration store
#    the first one wrote: zero probes run, and the tables still match.
run_checked(rerendered "${FIG10}" ${fig10_args} --results-dir "${WORKDIR}/orch")
if(NOT rerendered MATCHES "calibration\\.tsv \\(0 executed")
  message(FATAL_ERROR
    "expected a fully cached calibration on the second render, got:\n"
    "${rerendered}")
endif()
string(REGEX REPLACE "results: [^\n]*\n" "" rerendered_table "${rerendered}")
if(NOT rerendered_table STREQUAL direct_table)
  message(FATAL_ERROR
    "re-rendered tables differ from the direct run.\nre-rendered:\n"
    "${rerendered_table}\ndirect:\n${direct_table}")
endif()
