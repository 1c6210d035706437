/**
 * @file
 * Journal tests: bounded ring semantics (wrap, drop accounting),
 * fixed-buffer truncation, byte-stable JSONL rendering, and the
 * severity/kind tallies that survive ring overwrites.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "../temp_path.h"
#include "obs/journal.h"

namespace pcon::obs {
namespace {

using sim::msec;

TEST(Journal, AppendSnapshotPreservesOrderAndFields)
{
    Journal j(8);
    j.append(RecordKind::Throttle, Severity::Info, msec(1), 7, 9,
             "actuation", "core 0 duty 3", 3);
    j.append(RecordKind::Alert, Severity::Error, msec(2), 7, 7,
             "power_cap", "over", 12.5);
    std::vector<JournalRecord> records = j.snapshot();
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].seq, 0u);
    EXPECT_EQ(records[0].at, msec(1));
    EXPECT_EQ(records[0].kind, RecordKind::Throttle);
    EXPECT_EQ(records[0].severity, Severity::Info);
    EXPECT_EQ(records[0].container, 7u);
    EXPECT_EQ(records[0].request, 9u);
    EXPECT_STREQ(records[0].what, "actuation");
    EXPECT_STREQ(records[0].detail, "core 0 duty 3");
    EXPECT_EQ(records[1].seq, 1u);
    EXPECT_EQ(records[1].severity, Severity::Error);
    EXPECT_DOUBLE_EQ(records[1].value, 12.5);
}

TEST(Journal, RingWrapOverwritesOldestAndCountsDrops)
{
    Journal j(4);
    for (int i = 0; i < 6; ++i)
        j.append(RecordKind::Alert, Severity::Info, msec(i), 0, 0,
                 "tick", std::to_string(i));
    EXPECT_EQ(j.capacity(), 4u);
    EXPECT_EQ(j.size(), 4u);
    EXPECT_EQ(j.totalAppended(), 6u);
    EXPECT_EQ(j.dropped(), 2u);
    std::vector<JournalRecord> records = j.snapshot();
    ASSERT_EQ(records.size(), 4u);
    // The two oldest records (seq 0, 1) were overwritten.
    EXPECT_EQ(records.front().seq, 2u);
    EXPECT_EQ(records.back().seq, 5u);
    EXPECT_STREQ(records.front().detail, "2");
}

TEST(Journal, LongStringsAreTruncatedToTheFixedBuffers)
{
    Journal j(2);
    std::string long_what(100, 'w');
    std::string long_detail(200, 'd');
    j.append(RecordKind::Refit, Severity::Warn, 0, 0, 0, long_what,
             long_detail);
    JournalRecord r = j.snapshot().front();
    EXPECT_EQ(std::string(r.what), std::string(31, 'w'));
    EXPECT_EQ(std::string(r.detail), std::string(95, 'd'));
}

TEST(Journal, JsonlIsByteStableWithFixedFieldOrder)
{
    auto build = []() {
        Journal j(8);
        j.append(RecordKind::Rebind, Severity::Info, msec(1), 3, 4,
                 "rebind", "task \"t\" ctx 0 to 4", 0);
        j.append(RecordKind::Alert, Severity::Error, msec(2), 3, 3,
                 "power_cap", "over", 1.5);
        return j.jsonl();
    };
    std::string a = build();
    std::string b = build();
    EXPECT_EQ(a, b);
    EXPECT_EQ(a,
              "{\"seq\":0,\"t_ms\":1.000,\"kind\":\"rebind\","
              "\"severity\":\"info\",\"container\":3,\"request\":4,"
              "\"what\":\"rebind\","
              "\"detail\":\"task \\\"t\\\" ctx 0 to 4\","
              "\"value\":0.000000}\n"
              "{\"seq\":1,\"t_ms\":2.000,\"kind\":\"alert\","
              "\"severity\":\"error\",\"container\":3,\"request\":3,"
              "\"what\":\"power_cap\",\"detail\":\"over\","
              "\"value\":1.500000}\n");
}

TEST(Journal, EmptyJournalRendersNoBytes)
{
    Journal j;
    EXPECT_EQ(j.jsonl(), "");
    EXPECT_EQ(j.size(), 0u);
    EXPECT_EQ(j.snapshot().size(), 0u);
}

TEST(Journal, TalliesCountAppendsIncludingDropped)
{
    Journal j(2);
    j.append(RecordKind::Throttle, Severity::Info, 0, 0, 0, "a", "");
    j.append(RecordKind::Throttle, Severity::Warn, 0, 0, 0, "b", "");
    j.append(RecordKind::Fault, Severity::Warn, 0, 0, 0, "c", "");
    EXPECT_EQ(j.countByKind(RecordKind::Throttle), 2u);
    EXPECT_EQ(j.countByKind(RecordKind::Fault), 1u);
    EXPECT_EQ(j.countByKind(RecordKind::Alert), 0u);
    EXPECT_EQ(j.countBySeverity(Severity::Info), 1u);
    EXPECT_EQ(j.countBySeverity(Severity::Warn), 2u);
    EXPECT_EQ(j.countBySeverity(Severity::Error), 0u);
}

TEST(Journal, ClearDropsRetainedRecordsButKeepsTallies)
{
    Journal j(4);
    j.append(RecordKind::Alert, Severity::Error, 0, 0, 0, "x", "");
    j.clear();
    EXPECT_EQ(j.size(), 0u);
    EXPECT_EQ(j.jsonl(), "");
    EXPECT_EQ(j.totalAppended(), 1u);
    EXPECT_EQ(j.countBySeverity(Severity::Error), 1u);
    // Appends keep working after a clear.
    j.append(RecordKind::Alert, Severity::Info, 0, 0, 0, "y", "");
    EXPECT_EQ(j.size(), 1u);
    EXPECT_EQ(j.snapshot().front().seq, 1u);
    EXPECT_EQ(j.dropped(), 0u);

    // Records removed by clear() are not overwrites: a full ring,
    // cleared, then appended to has dropped nothing.
    Journal full(4);
    for (int i = 0; i < 4; ++i)
        full.append(RecordKind::Alert, Severity::Info, 0, 0, 0, "x", "");
    full.clear();
    full.append(RecordKind::Alert, Severity::Info, 0, 0, 0, "y", "");
    EXPECT_EQ(full.size(), 1u);
    EXPECT_EQ(full.totalAppended(), 5u);
    EXPECT_EQ(full.dropped(), 0u);
}

TEST(Journal, WriteJsonlRoundTripsThroughAFile)
{
    Journal j(4);
    j.append(RecordKind::Refit, Severity::Info, msec(3), 0, 0,
             "refit", "window 2", 42);
    std::string path = testTempPath(".jsonl");
    j.writeJsonl(path);
    std::ifstream in(path);
    ASSERT_TRUE(in);
    std::ostringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), j.jsonl());
    std::remove(path.c_str());
}

TEST(Journal, NamesAreStableLowercaseTokens)
{
    EXPECT_STREQ(severityName(Severity::Info), "info");
    EXPECT_STREQ(severityName(Severity::Warn), "warn");
    EXPECT_STREQ(severityName(Severity::Error), "error");
    EXPECT_STREQ(recordKindName(RecordKind::Throttle), "throttle");
    EXPECT_STREQ(recordKindName(RecordKind::Rebind), "rebind");
    EXPECT_STREQ(recordKindName(RecordKind::Refit), "refit");
    EXPECT_STREQ(recordKindName(RecordKind::Fault), "fault");
    EXPECT_STREQ(recordKindName(RecordKind::Alert), "alert");
}

} // namespace
} // namespace pcon::obs
