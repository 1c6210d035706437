#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "../temp_path.h"
#include "util/csv.h"
#include "util/logging.h"

namespace pcon::util {
namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

class CsvTest : public ::testing::Test
{
  protected:
    std::string path_ = testTempPath(".csv");

    void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(CsvTest, WritesPlainRows)
{
    {
        CsvWriter w(path_);
        w.writeRow({"a", "1", "2.5"});
        w.writeRow({"b", "-3"});
    }
    EXPECT_EQ(slurp(path_), "a,1,2.5\nb,-3\n");
}

TEST_F(CsvTest, EscapesSeparatorsAndQuotes)
{
    {
        CsvWriter w(path_);
        w.writeRow({"x,y", "he said \"hi\"", "multi\nline"});
    }
    EXPECT_EQ(slurp(path_),
              "\"x,y\",\"he said \"\"hi\"\"\",\"multi\nline\"\n");
}

TEST_F(CsvTest, NoRowsLeavesAnEmptyFile)
{
    { CsvWriter w(path_); }
    EXPECT_EQ(slurp(path_), "");
}

TEST_F(CsvTest, SingleRowSingleCell)
{
    {
        CsvWriter w(path_);
        w.writeRow({"3.25"});
    }
    EXPECT_EQ(slurp(path_), "3.25\n");
}

TEST_F(CsvTest, EmptyCellsAndEmptyRows)
{
    {
        CsvWriter w(path_);
        w.writeRow({});            // a bare record separator
        w.writeRow({"", "x", ""}); // empty cells stay unquoted
    }
    EXPECT_EQ(slurp(path_), "\n,x,\n");
}

TEST_F(CsvTest, QuotedFieldEdgeCases)
{
    {
        CsvWriter w(path_);
        w.writeRow({"\"", "\"\"", ",", "\n", "plain"});
    }
    EXPECT_EQ(slurp(path_),
              "\"\"\"\",\"\"\"\"\"\",\",\",\"\n\",plain\n");
}

TEST_F(CsvTest, UnwritablePathIsFatal)
{
    EXPECT_THROW(CsvWriter("/nonexistent-dir/x.csv"), FatalError);
}

} // namespace
} // namespace pcon::util
