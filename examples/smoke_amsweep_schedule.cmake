# Seeded schedule loop over both sweep front-ends (ctest smoke entry).
# For each of three fixed seeds, draw a pool shape with
# string(RANDOM ... RANDOM_SEED):
#   * --workers from 1 to 4,
#   * --batches from 0 (auto) up to the plan size,
#   * --poll-seconds from {0.001, 0.005, 0.02},
# then run the fig9 smoke grid through amsweep and an `amsweep mkplan`
# plan through a fresh amsweepd, and require each store to be
# byte-identical to the direct run's (fig9) or `amsweep run-local`'s
# (daemon namespace store). The determinism contract says the schedule
# never shows in the results; smoke.amsweep and smoke.amsweepd each
# check it at one or two fixed shapes, this loop across drawn ones.
# Driven by -D vars:
#   AMSWEEP  — path to the amsweep binary
#   AMSWEEPD — path to the amsweepd binary
#   FIG9     — path to the fig9_mcb_degradation binary
#   WORKDIR  — scratch directory (wiped on entry)
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
include("${CMAKE_CURRENT_LIST_DIR}/smoke_sweep_helpers.cmake")

# Same grid as smoke.amsweep.
set(fig9_args --scale 64 --ranks 8 --steps 1 --quick --max-cs 1 --max-bw 1)
set(fig9_store fig9_mcb_degradation.tsv)
# sun_path caps Unix socket paths around 100 bytes; keep the socket in
# /tmp under a random name.
string(RANDOM LENGTH 8 rand)
set(SOCK "/tmp/amss_${rand}.sock")

# Ground truths, and each plan's size (the upper end of --batches).
run_checked(out "${FIG9}" ${fig9_args} --results-dir "${WORKDIR}/direct")
run_checked(out "${FIG9}" ${fig9_args} --results-dir "${WORKDIR}/probe"
  --emit-plan "${WORKDIR}/fig9.plan-info")
file(STRINGS "${WORKDIR}/fig9.plan-info" fig9_points REGEX "^points\t")
string(REGEX REPLACE "^points\t" "" fig9_points "${fig9_points}")
run_checked(out "${AMSWEEP}" mkplan --workloads uni:1024,exp:1024
  --scale 1024 --accesses 4000 --max-cs 1 --max-bw 1 --seed 7
  --out "${WORKDIR}/tenant.plan")
if(NOT out MATCHES "wrote ([0-9]+)-point plan")
  message(FATAL_ERROR "unexpected mkplan output:\n${out}")
endif()
set(plan_points ${CMAKE_MATCH_1})
run_checked(out "${AMSWEEP}" run-local --plan "${WORKDIR}/tenant.plan"
  --out "${WORKDIR}/direct_tenant.tsv")

# The seeds are fixed so a failure reproduces; these three draw workers
# 3, 1 and 4, every poll interval, and both auto and explicit batches.
set(polls 0.001 0.005 0.02)
foreach(seed 5 7 2)
  # Four digits per seed: workers, fig9 batches, daemon batches, poll.
  string(RANDOM LENGTH 4 ALPHABET "0123456789" RANDOM_SEED ${seed} draw)
  string(SUBSTRING "${draw}" 0 1 d0)
  string(SUBSTRING "${draw}" 1 1 d1)
  string(SUBSTRING "${draw}" 2 1 d2)
  string(SUBSTRING "${draw}" 3 1 d3)
  math(EXPR workers "1 + ${d0} % 4")
  math(EXPR fig9_batches "${d1} % (${fig9_points} + 1)")
  math(EXPR plan_batches "${d2} % (${plan_points} + 1)")
  math(EXPR poll_index "${d3} % 3")
  list(GET polls ${poll_index} poll)
  message(STATUS "seed ${seed}: --workers ${workers} --poll-seconds ${poll}"
    " --batches ${fig9_batches} (fig9, ${fig9_points} points) /"
    " ${plan_batches} (daemon, ${plan_points} points)")

  run_checked(out "${AMSWEEP}" --results-dir "${WORKDIR}/orch${seed}"
    --workers ${workers} --batches ${fig9_batches} --poll-seconds ${poll}
    -- "${FIG9}" ${fig9_args})
  require_same_store("${WORKDIR}/direct/${fig9_store}"
    "${WORKDIR}/orch${seed}/${fig9_store}"
    "seed ${seed}: amsweep's merged store")

  start_daemon(daemon${seed} --socket "${SOCK}"
    --results-dir "${WORKDIR}/daemon${seed}" --workers ${workers}
    --batches ${plan_batches} --poll-seconds ${poll})
  run_checked(out "${AMSWEEP}" submit --socket "${SOCK}" --ns tenant
    --plan "${WORKDIR}/tenant.plan" --wait --timeout 120)
  if(NOT out MATCHES "job 1: done")
    message(FATAL_ERROR "seed ${seed}: the daemon's job did not finish:\n"
      "${out}")
  endif()
  drain_daemon(daemon${seed})
  require_same_store("${WORKDIR}/direct_tenant.tsv"
    "${WORKDIR}/daemon${seed}/ns-tenant.tsv"
    "seed ${seed}: amsweepd's namespace store")
endforeach()
