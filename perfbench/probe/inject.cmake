# Included by the repository's own project() call through
# -DCMAKE_PROJECT_INCLUDE (see perfbench/run.py). The product is built
# exactly as the root CMakeLists.txt builds it; this only adds the probe
# target once the root directory has finished defining its libraries.
get_property(_perfbench_probe_added GLOBAL PROPERTY PERFBENCH_PROBE_ADDED)
if(NOT _perfbench_probe_added)
  set_property(GLOBAL PROPERTY PERFBENCH_PROBE_ADDED TRUE)
  # Deferred arguments expand when the call runs, so pin the path now.
  set(PERFBENCH_PROBE_TARGETS "${CMAKE_CURRENT_LIST_DIR}/targets.cmake")
  cmake_language(DEFER DIRECTORY "${CMAKE_SOURCE_DIR}" CALL include
                 "${PERFBENCH_PROBE_TARGETS}")
endif()
