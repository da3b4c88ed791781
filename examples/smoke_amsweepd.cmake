# End-to-end exercise of the amsweepd serving path (ctest smoke entry):
# a real daemon with 2 supervised worker processes serving two tenants
# concurrently, with one injected worker SIGKILL and a barrage of
# malformed-frame clients mid-flight, then a SIGTERM drain, a restart,
# and a fully cached resume. Requirements:
#   1. each tenant's namespace store is bit-identical to `amsweep
#      run-local` over the same plan (kill + retry + hostile clients
#      included),
#   2. the malformed-frame clients are each contained (error reply or
#      close; `amsweep _inject` exits 0) and counted in the manifest,
#   3. SIGTERM drains: exit 0, socket file removed, resumable queue,
#   4. a restarted daemon resumes the persisted queue (job ids and all),
#      and a plan resubmitted over a complete namespace store is served
#      with ZERO re-executed engine runs,
#   5. an unreachable daemon maps to client exit 3 (retry later),
#   6. the manifest records per-worker balance (busy_max_over_mean),
#   7. malformed timing flags, unknown flags and numbers that do not fit
#      are usage errors (exit 2).
# Driven by -D vars:
#   AMSWEEP  — path to the amsweep binary (client subcommands)
#   AMSWEEPD — path to the amsweepd binary
#   WORKDIR  — scratch directory (wiped on entry)
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
include("${CMAKE_CURRENT_LIST_DIR}/smoke_sweep_helpers.cmake")

# sun_path caps Unix socket paths around 100 bytes and build trees run
# long; keep the socket in /tmp under a random name.
string(RANDOM LENGTH 8 rand)
set(SOCK "/tmp/amsd_${rand}.sock")
set(RESULTS "${WORKDIR}/results")

# 0. Timing flags are validated before the daemon serves: negative,
#    NaN and infinite seconds are usage errors (exit 2), never a
#    busy-spinning or never-waking serving loop.
foreach(bad_flags "--poll-seconds;-1" "--poll-seconds;nan"
    "--stall-timeout;-1" "--client-timeout;inf" "--idle-timeout;nan"
    "--poll-second;0.1")
  execute_process(COMMAND "${AMSWEEPD}" --socket "${SOCK}"
    --results-dir "${WORKDIR}/badflags" --workers 0 ${bad_flags}
    OUTPUT_QUIET ERROR_QUIET RESULT_VARIABLE bad_code TIMEOUT 20)
  if(NOT bad_code EQUAL 2)
    message(FATAL_ERROR
      "expected amsweepd ${bad_flags} to exit 2 (usage), got ${bad_code}")
  endif()
endforeach()

# A typo'd flag and a number that does not fit are usage errors too:
# client subcommands reject flags they never read, and numeric flags
# parse digits only and are range-checked before any narrowing cast.
foreach(bad_args "mkplan;--workload;uni:99" "mkplan;--scale;4294967297"
    "mkplan;--nodes;4294967297" "mkplan;--seed;-1"
    "mkplan;--compute-ops;4294967297" "mkplan;--max-cs;4294967296"
    "mkplan;--max-bw;4294967296" "mkplan;--workloads;uni:2048junk"
    "mkplan;--workloads;norm:99999999999999999999999"
    "mkplan;--backend;bogus;--out;${WORKDIR}/bogus.spec"
    "status;--socket;${SOCK};--job;1;--tiemout;5")
  execute_process(COMMAND "${AMSWEEP}" ${bad_args}
    OUTPUT_QUIET ERROR_QUIET RESULT_VARIABLE bad_code TIMEOUT 20)
  if(NOT bad_code EQUAL 2)
    message(FATAL_ERROR
      "expected amsweep ${bad_args} to exit 2 (usage), got ${bad_code}")
  endif()
endforeach()

# 1. Two tenants' plans — overlapping grids so fair-share interleaving
#    has identical points in flight for different namespaces — and their
#    serial ground truths.
run_checked(out "${AMSWEEP}" mkplan --workloads uni:1024,norm:1024
  --scale 1024 --accesses 4000 --max-cs 1 --max-bw 1 --seed 5
  --out "${WORKDIR}/alice.plan")
run_checked(out "${AMSWEEP}" mkplan --workloads norm:1024,exp:1024
  --scale 1024 --accesses 4000 --max-cs 1 --max-bw 1 --seed 5
  --out "${WORKDIR}/bob.plan")
run_checked(out "${AMSWEEP}" run-local --plan "${WORKDIR}/alice.plan"
  --out "${WORKDIR}/direct_alice.tsv")
run_checked(out "${AMSWEEP}" run-local --plan "${WORKDIR}/bob.plan"
  --out "${WORKDIR}/direct_bob.tsv")

# 2. Generation 1: a 2-worker daemon with one pre-armed worker kill —
#    the first worker to start while the marker exists deletes it and
#    SIGKILLs itself, holding the lease the daemon offered it.
file(WRITE "${WORKDIR}/crash.marker" "")
start_daemon(gen1 --socket "${SOCK}" --results-dir "${RESULTS}"
  --workers 2 --retries 1 --poll-seconds 0.01
  --test-crash-marker "${WORKDIR}/crash.marker")

# 3. Both tenants submit while the daemon is (re)spawning workers.
run_checked(sub_a "${AMSWEEP}" submit --socket "${SOCK}" --ns alice
  --plan "${WORKDIR}/alice.plan")
if(NOT sub_a MATCHES "submitted as job 1 ")
  message(FATAL_ERROR "unexpected submit reply for alice:\n${sub_a}")
endif()
run_checked(sub_b "${AMSWEEP}" submit --socket "${SOCK}" --ns bob
  --plan "${WORKDIR}/bob.plan")
if(NOT sub_b MATCHES "submitted as job 2 ")
  message(FATAL_ERROR "unexpected submit reply for bob:\n${sub_b}")
endif()

# 4. Hostile clients attack the serving path mid-sweep. Each injection
#    opens a real connection and sends malformed bytes; exit 0 means the
#    daemon contained it (error reply and/or close) for that connection
#    alone.
foreach(mode garbage badversion oversize truncate)
  run_checked(out "${AMSWEEP}" _inject --socket "${SOCK}" --mode ${mode})
endforeach()

# 5. Both jobs must still complete, and the injected kill must have
#    actually happened.
run_checked(wait_a "${AMSWEEP}" wait --socket "${SOCK}" --job 1
  --timeout 240)
if(NOT wait_a MATCHES "job 1: done")
  message(FATAL_ERROR "alice's job did not finish:\n${wait_a}")
endif()
run_checked(wait_b "${AMSWEEP}" wait --socket "${SOCK}" --job 2
  --timeout 240)
if(NOT wait_b MATCHES "job 2: done")
  message(FATAL_ERROR "bob's job did not finish:\n${wait_b}")
endif()
if(EXISTS "${WORKDIR}/crash.marker")
  message(FATAL_ERROR "no worker claimed the crash marker")
endif()

# 6. Namespace purity: each tenant's merged store is byte-identical to
#    its serial ground truth — kill, retries, interleaved dispatch and
#    hostile clients notwithstanding.
foreach(tenant alice bob)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
    "${WORKDIR}/direct_${tenant}.tsv" "${RESULTS}/ns-${tenant}.tsv"
    RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR
      "namespace store for ${tenant} differs from the serial run")
  endif()
endforeach()

# 7. SIGTERM drain: exit 0, socket removed, manifest written with the
#    protocol-error count and the worker-balance stat.
drain_daemon(gen1)
file(READ "${RESULTS}/daemon/manifest.tsv" manifest)
if(NOT manifest MATCHES "protocol_errors\t[1-9]")
  message(FATAL_ERROR
    "manifest does not count the injected protocol errors:\n${manifest}")
endif()
if(NOT manifest MATCHES "busy_max_over_mean\t")
  message(FATAL_ERROR "manifest lacks busy_max_over_mean:\n${manifest}")
endif()
if(NOT EXISTS "${RESULTS}/daemon/queue.tsv")
  message(FATAL_ERROR "drained daemon left no resumable queue file")
endif()

# 8. With the daemon gone, clients get exit 3 (retry later), not a hang
#    or a hard error.
execute_process(COMMAND "${AMSWEEP}" status --socket "${SOCK}" --job 1
  --connect-timeout 0.2 OUTPUT_QUIET ERROR_QUIET RESULT_VARIABLE code)
if(NOT code EQUAL 3)
  message(FATAL_ERROR
    "expected exit 3 against a drained daemon, got ${code}")
endif()

# 9. Generation 2 accepts but never dispatches (workers 0): carol's job
#    queues durably across another drain.
start_daemon(gen2 --socket "${SOCK}" --results-dir "${RESULTS}"
  --workers 0 --poll-seconds 0.01)
run_checked(sub_c "${AMSWEEP}" submit --socket "${SOCK}" --ns carol
  --plan "${WORKDIR}/alice.plan")
if(NOT sub_c MATCHES "submitted as job 3 ")
  message(FATAL_ERROR "job ids must survive restarts:\n${sub_c}")
endif()
drain_daemon(gen2)

# 10. Generation 3 resumes the queue and serves carol's job; her store
#     must match the serial ground truth for the same plan.
start_daemon(gen3 --socket "${SOCK}" --results-dir "${RESULTS}"
  --workers 2 --retries 1 --poll-seconds 0.01)
run_checked(wait_c "${AMSWEEP}" wait --socket "${SOCK}" --job 3
  --timeout 240)
if(NOT wait_c MATCHES "job 3: done \\(6/6 points")
  message(FATAL_ERROR "resumed job did not finish:\n${wait_c}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
  "${WORKDIR}/direct_alice.tsv" "${RESULTS}/ns-carol.tsv"
  RESULT_VARIABLE cdiff)
if(NOT cdiff EQUAL 0)
  message(FATAL_ERROR
    "carol's resumed store differs from the serial run")
endif()

# 11. Points merged into a namespace store are never re-executed: the
#     store seeds every worker serving that tenant, so resubmitting the
#     identical plan costs ZERO engine runs, regardless of which worker
#     slot each batch lands on.
run_checked(resub "${AMSWEEP}" submit --socket "${SOCK}" --ns carol
  --plan "${WORKDIR}/alice.plan" --wait --timeout 240)
if(NOT resub MATCHES "job 4: done \\(6/6 points, 0 engine runs\\)")
  message(FATAL_ERROR
    "resubmitted plan must be served fully cached:\n${resub}")
endif()
drain_daemon(gen3)
