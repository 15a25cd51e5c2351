# Runs one example program and fails unless it exits 0 and prints a line
# matching EXPECT (default: its "final accuracy" line). Usage:
#   cmake -DEXE=<program> "-DARGS=--rounds=3" ["-DEXPECT=<regex>"]
#         -P example_check.cmake
if(NOT DEFINED EXPECT)
  set(EXPECT "final accuracy[ :]+[0-9]")
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${EXE} ${args} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
message("${out}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXE} exited ${rc}\n${err}")
endif()
if(NOT out MATCHES "${EXPECT}")
  message(FATAL_ERROR "${EXE} printed no line matching '${EXPECT}'")
endif()
