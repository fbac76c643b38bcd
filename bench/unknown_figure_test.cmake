# Runs paper_figures with an id it does not know; passes only when it
# exits non-zero and its error lists every id in IDS (comma-separated).
execute_process(COMMAND ${RUNNER} no_such_figure
                RESULT_VARIABLE code ERROR_VARIABLE err)
if(code EQUAL 0)
    message(FATAL_ERROR "paper_figures accepted an unknown id")
endif()
string(REPLACE "," ";" ids "${IDS}")
foreach(id IN LISTS ids)
    if(NOT err MATCHES "\n  ${id}\n")
        message(FATAL_ERROR "unknown-id error does not list ${id}:\n${err}")
    endif()
endforeach()
