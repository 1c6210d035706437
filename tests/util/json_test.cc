#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "util/json.h"

namespace pcon::util {
namespace {

TEST(JsonEscape, EveryControlCharacter)
{
    for (int c = 0; c < 0x20; ++c) {
        std::string in(1, static_cast<char>(c));
        std::string want;
        if (c == '\n') {
            want = "\\n";
        } else if (c == '\t') {
            want = "\\t";
        } else if (c == '\r') {
            want = "\\r";
        } else {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u00%02x", c);
            want = buf;
        }
        EXPECT_EQ(jsonEscape(in), want) << "byte " << c;
    }
}

TEST(JsonEscape, QuotesBackslashesAndPassThrough)
{
    EXPECT_EQ(jsonEscape("say \"hi\""), "say \\\"hi\\\"");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("worker/mysql span.1"), "worker/mysql span.1");
    // DEL and bytes above 0x7f (UTF-8) are not control characters.
    EXPECT_EQ(jsonEscape("\x7f"), "\x7f");
    EXPECT_EQ(jsonEscape("caf\xc3\xa9"), "caf\xc3\xa9");
    EXPECT_EQ(jsonEscape(""), "");
}

TEST(JsonNumber, IntegralValuesPrintPlainly)
{
    EXPECT_EQ(jsonNumber(0), "0");
    EXPECT_EQ(jsonNumber(10), "10");
    EXPECT_EQ(jsonNumber(-3), "-3");
    EXPECT_EQ(jsonNumber(123456789012345.0), "123456789012345");
    // 1e15 is outside the plain range: shortest %g instead.
    EXPECT_EQ(jsonNumber(1e15), "1e+15");
}

TEST(JsonNumber, ShortestRoundTrip)
{
    EXPECT_EQ(jsonNumber(0.1), "0.1");
    EXPECT_EQ(jsonNumber(1.5), "1.5");
    EXPECT_EQ(jsonNumber(-2.25), "-2.25");
    EXPECT_EQ(jsonNumber(2.5e-7), "2.5e-07");
    EXPECT_EQ(jsonNumber(1.197667), "1.197667");
}

TEST(JsonNumber, SeventeenDigitsWhenNothingShorterRoundTrips)
{
    EXPECT_EQ(jsonNumber(0.1 + 0.2), "0.30000000000000004");
    EXPECT_EQ(jsonNumber(1.1 * 1.1), "1.2100000000000002");
    EXPECT_EQ(jsonNumber(1e300 / 7.0), "1.4285714285714286e+299");
}

} // namespace
} // namespace pcon::util
