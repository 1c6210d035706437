# Runs pcon_paper with PCON_CSV_DIR set and prints one line a test's
# PASS_REGULAR_EXPRESSION can match against, then pcon_paper's stderr:
#
#   pcon_paper exit <status> with <each of FILES found in CSV_DIR>
#
# A process killed by a signal (SIGABRT, say) reports the signal's
# description instead of a number, so it matches no `exit <n> with`.
# The line holds no `;`: PASS_REGULAR_EXPRESSION would split there
# into alternatives, any one of which passes the test.
#
#   cmake -DPAPER=<pcon_paper> -DID=<id> -DCSV_DIR=<dir>
#         [-DCLEAN=<path removed first>] [-DAS_FILE=ON]
#         [-DFILES=<a.csv;b.csv>] -P paper_csv_test.cmake
#
# CLEAN makes sure the directory does not exist yet; AS_FILE puts a
# regular file where the directory should go.

if(DEFINED CLEAN)
    file(REMOVE_RECURSE "${CLEAN}")
endif()
if(AS_FILE)
    file(WRITE "${CSV_DIR}" "a regular file, not a directory\n")
endif()
set(ENV{PCON_CSV_DIR} "${CSV_DIR}")
execute_process(COMMAND "${PAPER}" ${ID}
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE errors)
set(found "")
foreach(file IN LISTS FILES)
    if(EXISTS "${CSV_DIR}/${file}")
        string(APPEND found " ${file}")
    endif()
endforeach()
message("pcon_paper exit ${status} with${found}\n${errors}")
