# The probe executable, defined after the root CMakeLists.txt has added
# the ivt libraries (deferred from inject.cmake).
add_executable(perfbench_probe "${CMAKE_CURRENT_LIST_DIR}/probe.cpp")
target_link_libraries(perfbench_probe PRIVATE ivt_core ivt_apps ivt_serve
                      ivt_dist ivt_colstore ivt_tracefile ivt_signaldb
                      ivt_simnet)
