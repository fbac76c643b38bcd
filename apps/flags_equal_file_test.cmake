# Runs litmus_fleet (RUNNER) once with key flags and once with the
# equivalent scenario file; passes only when both succeed and print
# the same report, byte for byte. The fleet names a type that only a
# --machine preset registers, so both runs must register it before
# reading their keys.
file(WRITE flags_equal_file.machine "base = cascade-5218\nname = flags-box\n")
set(pairs
    fleet=flags-box:1,icelake-4314:1 policy=cost-aware traffic=burst
    burst.on=0.25 rate=4000 invocations=300 seed=9 threads=2
    fault.crash.at=0.05@0,0.2@1 fault.crash.restart=0.5
    fault.retry=once fault.billing=tenant)
set(flags)
set(text "")
foreach(pair IN LISTS pairs)
    string(REPLACE "=" " = " line "${pair}")
    string(APPEND text "${line}\n")
    list(APPEND flags "--${pair}")
endforeach()
file(WRITE flags_equal_file.scenario "${text}")

execute_process(COMMAND ${RUNNER} --machine=flags_equal_file.machine
                        ${flags}
                RESULT_VARIABLE flagCode OUTPUT_VARIABLE fromFlags)
execute_process(COMMAND ${RUNNER} --machine=flags_equal_file.machine
                        --scenario=flags_equal_file.scenario
                RESULT_VARIABLE fileCode OUTPUT_VARIABLE fromFile)
if(NOT flagCode EQUAL 0 OR NOT fileCode EQUAL 0)
    message(FATAL_ERROR "litmus_fleet failed: flags exit ${flagCode}, "
                        "file exit ${fileCode}")
endif()
if(fromFlags STREQUAL "" OR NOT fromFlags STREQUAL fromFile)
    message(FATAL_ERROR "key flags and the scenario file disagree:\n"
                        "flags:\n${fromFlags}\nfile:\n${fromFile}")
endif()
