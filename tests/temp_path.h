/**
 * @file
 * Temporary file paths for tests that write files.
 */

#ifndef PCON_TESTS_TEMP_PATH_H
#define PCON_TESTS_TEMP_PATH_H

#include <string>

#include <gtest/gtest.h>
#include <unistd.h>

namespace pcon {

/**
 * A path in the gtest temporary directory, unique to the running test
 * and this process, ending in `suffix`. ctest runs each case as its
 * own process, several at once and in concurrent runs of one build,
 * so a fixed name lets one case overwrite or delete another's file.
 */
inline std::string
testTempPath(const std::string &suffix)
{
    const ::testing::TestInfo *test =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return ::testing::TempDir() + test->test_suite_name() + "." +
        test->name() + "." + std::to_string(::getpid()) + suffix;
}

} // namespace pcon

#endif // PCON_TESTS_TEMP_PATH_H
