# Fails unless the "config" object of a bench JSON artifact carries every
# provenance key with a non-empty value.
#
#   cmake -DJSON=BENCH_sweep.json -P bench/check_bench_config.cmake
if(NOT JSON)
  message(FATAL_ERROR "usage: cmake -DJSON=<file> -P check_bench_config.cmake")
endif()
file(READ "${JSON}" doc)
foreach(key build_type git_sha nproc pool_threads compiler)
  string(JSON value ERROR_VARIABLE err GET "${doc}" config ${key})
  if(err OR "${value}" STREQUAL "")
    message(FATAL_ERROR "${JSON}: config lacks ${key}")
  endif()
endforeach()
