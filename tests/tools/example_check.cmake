# Runs one example program and fails unless it exits 0 and prints its
# "final accuracy" line. Usage:
#   cmake -DEXE=<program> "-DARGS=--rounds=3" -P example_check.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${EXE} ${args} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
message("${out}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXE} exited ${rc}\n${err}")
endif()
if(NOT out MATCHES "final accuracy[ :]+[0-9]")
  message(FATAL_ERROR "${EXE} printed no final accuracy line")
endif()
