# Golden per-loop reports: `panorama_driver --corpus-run --explain` must
# print exactly the committed reports and provenance, default and
# --quantified, at 1 and 4 threads. The trailing work counters (summary
# cost, query cache, simplify memo) move with the work done and, at 4
# threads, with cache races, so they are left out; the thread count in the
# corpus line is normalized.
# Invoked with -DDRIVER=<path> -DGOLDEN_DIR=<dir> -DWORKDIR=<scratch dir>.

file(MAKE_DIRECTORY "${WORKDIR}")
find_program(DIFF diff)

function(check_golden golden)
  file(READ "${GOLDEN_DIR}/${golden}.txt" expected)
  foreach(threads 1 4)
    execute_process(
      COMMAND "${DRIVER}" --corpus-run --explain --threads=${threads} ${ARGN}
      RESULT_VARIABLE code
      OUTPUT_VARIABLE out
      ERROR_VARIABLE err)
    if(NOT code EQUAL 0)
      message(FATAL_ERROR "--corpus-run --explain ${ARGN} --threads=${threads} failed (${code}): ${err}")
    endif()
    string(REGEX REPLACE "\n(summary cost|query cache|simplify memo):[^\n]*" "" out "${out}")
    string(REGEX REPLACE "analyzed on [0-9]+ threads?" "analyzed on N threads" out "${out}")
    if(NOT out STREQUAL expected)
      set(actual "${WORKDIR}/${golden}.t${threads}.txt")
      file(WRITE "${actual}" "${out}")
      if(DIFF)
        execute_process(COMMAND "${DIFF}" -u "${GOLDEN_DIR}/${golden}.txt" "${actual}"
                        OUTPUT_VARIABLE delta)
      endif()
      message(FATAL_ERROR "${golden} at --threads=${threads} differs from the golden "
                          "(actual output in ${actual}):\n${delta}")
    endif()
  endforeach()
endfunction()

check_golden(corpus_explain)
check_golden(corpus_explain_quantified --quantified)
