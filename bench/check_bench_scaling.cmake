# Fails unless every point of a bench_sweep JSON's counts "scaling" axis
# carries its wall time and its sampling, accumulation and binning stage
# sums per window, each a positive number.
#
#   cmake -DJSON=BENCH_sweep.json -P bench/check_bench_scaling.cmake
if(NOT JSON)
  message(FATAL_ERROR "usage: cmake -DJSON=<file> -P check_bench_scaling.cmake")
endif()
file(READ "${JSON}" doc)
string(JSON points ERROR_VARIABLE err LENGTH "${doc}" scaling points)
if(err OR points EQUAL 0)
  message(FATAL_ERROR "${JSON}: no scaling points")
endif()
math(EXPR last "${points} - 1")
foreach(i RANGE ${last})
  foreach(key seconds_per_window sampling_seconds_per_window
              accumulation_seconds_per_window binning_seconds_per_window)
    string(JSON value ERROR_VARIABLE err
           GET "${doc}" scaling points ${i} ${key})
    if(err OR NOT value GREATER 0)
      message(FATAL_ERROR "${JSON}: scaling point ${i} lacks a positive ${key}")
    endif()
  endforeach()
endforeach()
