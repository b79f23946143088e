# Passed to the repository's own configure step as CMAKE_PROJECT_INCLUDE
# (see run.py). It runs right after the top-level project() call and
# defers the benchmark's targets (CMakeLists.txt here) to the end of the
# top-level CMakeLists.txt, so they are created with the repository's
# language standard, flags and options and link its lfo_* libraries.
include_guard(GLOBAL)
# Deferred arguments are expanded when the call runs: keep the path in a
# variable of the top-level scope.
set(PERFBENCH_LISTS "${CMAKE_CURRENT_LIST_DIR}/CMakeLists.txt")
cmake_language(DEFER CALL include "${PERFBENCH_LISTS}")
