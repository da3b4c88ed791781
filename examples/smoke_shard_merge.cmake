# End-to-end exercise of the manual multi-host recipe (ctest smoke entry):
# cut mcb_mapping_study's plan into two static slices with `amsweep
# slice`, run each slice as its own lease worker (one per "host"), merge
# the two slice stores with amresult, and require
#   1. the merged store to be byte-identical to a direct serial run's,
#   2. a re-run against it to be fully cached (zero engine executions)
#      and to print the direct run's table line for line,
#   3. slices run against a results dir that already holds another
#      grid's records to write only their own points, and the merge
#      `amsweep slice` prints to keep that dir's records.
# Driven by -D vars:
#   STUDY    — path to the mcb_mapping_study binary
#   AMSWEEP  — path to the amsweep binary
#   AMRESULT — path to the amresult binary
#   WORKDIR  — scratch directory (wiped on entry)
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
include("${CMAKE_CURRENT_LIST_DIR}/smoke_sweep_helpers.cmake")

set(study_args --scale 128 --particles 2000 --steps 1)
set(store mcb_mapping_study)

# The ground truth: the same plan run serially into its own store.
run_checked(direct "${STUDY}" ${study_args} --results-dir "${WORKDIR}/direct")

run_checked(sliced "${AMSWEEP}" slice --hosts 2 --out "${WORKDIR}/slices"
  -- "${STUDY}" ${study_args})
foreach(i 0 1)
  run_checked(host "${STUDY}" ${study_args} --results-dir "${WORKDIR}/merged"
    --lease "${WORKDIR}/slices/slice_${i}")
  if(host MATCHES "p/processor")
    message(FATAL_ERROR "slice ${i} printed a table:\n${host}")
  endif()
endforeach()

run_checked(merged "${AMRESULT}" merge --out "${WORKDIR}/merged/${store}.tsv"
  "${WORKDIR}/slices/slice_0.tsv" "${WORKDIR}/slices/slice_1.tsv")
run_checked(validated "${AMRESULT}" validate "${WORKDIR}/merged/${store}.tsv")
run_checked(shown "${AMRESULT}" show "${WORKDIR}/merged/${store}.tsv")
require_same_store("${WORKDIR}/direct/${store}.tsv"
  "${WORKDIR}/merged/${store}.tsv" "slice-merged store")

# The merged store must make a re-run fully cached.
run_checked(cached "${STUDY}" ${study_args} --results-dir "${WORKDIR}/merged")
if(NOT cached MATCHES "\\(0 executed")
  message(FATAL_ERROR
    "expected a fully cached re-run after merging slices, got:\n${cached}")
endif()

# And the cached table must match the direct run's line for line (modulo
# the store bookkeeping line).
string(REGEX REPLACE "results: [^\n]*\n" "" cached_table "${cached}")
string(REGEX REPLACE "results: [^\n]*\n" "" direct_table "${direct}")
if(NOT cached_table STREQUAL direct_table)
  message(FATAL_ERROR
    "cached table differs from direct run.\ncached:\n${cached_table}\n"
    "direct:\n${direct_table}")
endif()

# 3. A results dir R that already holds another grid's records. Slices
#    read R's store as a cache but write only their own points, so the
#    merge `amsweep slice` prints lists R's own store first.
set(other_args --scale 128 --particles 1000 --steps 1)
run_checked(other "${STUDY}" ${other_args} --results-dir "${WORKDIR}/held")
file(COPY_FILE "${WORKDIR}/held/${store}.tsv" "${WORKDIR}/held_before.tsv")
run_checked(resliced "${AMSWEEP}" slice --hosts 2 --out "${WORKDIR}/slices2"
  -- "${STUDY}" ${study_args})
foreach(i 0 1)
  run_checked(host "${STUDY}" ${study_args} --results-dir "${WORKDIR}/held"
    --lease "${WORKDIR}/slices2/slice_${i}")
  # One record per point of the slice's offer ("points <tab> i...").
  file(STRINGS "${WORKDIR}/slices2/slice_${i}" points REGEX "^points")
  string(REPLACE "\t" ";" points "${points}")
  list(LENGTH points slice_points)
  math(EXPR slice_points "${slice_points} - 1")
  file(STRINGS "${WORKDIR}/slices2/slice_${i}.tsv" records REGEX "^[0-9a-f]")
  list(LENGTH records slice_records)
  if(NOT slice_records EQUAL slice_points)
    message(FATAL_ERROR "slice ${i} store holds ${slice_records} records "
      "for its ${slice_points} points")
  endif()
endforeach()

# The printed merge, with R spelled out as the held dir.
string(REGEX MATCH "amresult merge [^\n]*" merge_line "${resliced}")
string(REPLACE " R/" " ${WORKDIR}/held/" merge_line "${merge_line}")
separate_arguments(merge_args UNIX_COMMAND "${merge_line}")
list(REMOVE_AT merge_args 0)
run_checked(remerged "${AMRESULT}" ${merge_args})
# R afterwards: its old records plus the grid's, exactly.
run_checked(expected "${AMRESULT}" merge --out "${WORKDIR}/expected.tsv"
  "${WORKDIR}/held_before.tsv" "${WORKDIR}/direct/${store}.tsv")
require_same_store("${WORKDIR}/expected.tsv" "${WORKDIR}/held/${store}.tsv"
  "store merged into a results dir holding another grid")
