# Helpers shared by the sweep smoke scripts (smoke_amsweep*.cmake,
# smoke_amsweepd.cmake). Included with include(); the daemon helpers read
# WORKDIR, SOCK and AMSWEEPD from the including script.

# Runs a command; fails the test with its output unless it exits 0.
function(run_checked out_var)
  execute_process(COMMAND ${ARGN}
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "command failed (${code}): ${ARGN}\n${out}\n${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# Fails the test unless store files `a` (the direct run's) and `b` are
# byte-identical.
function(require_same_store a b what)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${a}" "${b}"
    RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR "${what} differs from the direct serial run's store")
  endif()
endfunction()

# Starts amsweepd in the background; writes its pid to ${tag}.pid and,
# once it exits, its exit status to ${tag}.code (both under WORKDIR).
function(start_daemon tag)
  string(JOIN "' '" argv ${AMSWEEPD} ${ARGN})
  execute_process(COMMAND sh -c
    "{ '${argv}' > '${WORKDIR}/${tag}.log' 2>&1 & \
       echo $! > '${WORKDIR}/${tag}.pid'; wait $!; \
       echo $? > '${WORKDIR}/${tag}.code'; } > /dev/null 2>&1 &"
    RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "could not launch daemon '${tag}'")
  endif()
endfunction()

# SIGTERMs daemon ${tag} and requires a clean drain: exit 0 within 60 s
# and the socket file gone.
function(drain_daemon tag)
  file(READ "${WORKDIR}/${tag}.pid" pid)
  string(STRIP "${pid}" pid)
  execute_process(COMMAND sh -c "kill -TERM ${pid}")
  foreach(i RANGE 600)
    if(EXISTS "${WORKDIR}/${tag}.code")
      break()
    endif()
    execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
  endforeach()
  if(NOT EXISTS "${WORKDIR}/${tag}.code")
    execute_process(COMMAND sh -c "kill -KILL ${pid}")
    file(READ "${WORKDIR}/${tag}.log" log)
    message(FATAL_ERROR "daemon '${tag}' did not drain on SIGTERM:\n${log}")
  endif()
  file(READ "${WORKDIR}/${tag}.code" code)
  string(STRIP "${code}" code)
  if(NOT code EQUAL 0)
    file(READ "${WORKDIR}/${tag}.log" log)
    message(FATAL_ERROR "daemon '${tag}' drained with exit ${code}:\n${log}")
  endif()
  if(EXISTS "${SOCK}")
    message(FATAL_ERROR "daemon '${tag}' left its socket file behind")
  endif()
endfunction()
