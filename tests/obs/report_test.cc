/**
 * @file
 * Report-rendering tests over obs::EnergyIndex, including the
 * byte-identity pin: the report rendered from an index attached to
 * the reloaded golden span dump must match the fixtures captured
 * from the pre-index collector-scanning implementation byte for
 * byte. Regenerate the fixtures with PCON_UPDATE_GOLDEN=1.
 */

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "obs/energy_index.h"
#include "obs/report.h"
#include "trace/span_json.h"

#ifndef PCON_TEST_DATA_DIR
#error "PCON_TEST_DATA_DIR must point at the committed fixtures"
#endif

namespace pcon::obs {
namespace {

using sim::msec;
using trace::NoSpan;
using trace::SpanCollector;
using trace::SpanId;
using trace::SpanKind;

/** A hand-built two-machine tree with easy round numbers. */
SpanCollector
sampleTree()
{
    SpanCollector c;
    SpanId root = c.open(7, 0, "report", SpanKind::Root, NoSpan, 0);
    SpanId stage = c.open(7, 0, "frontend", SpanKind::Stage, root,
                          0);
    SpanId remote = c.open(7, 1, "worker", SpanKind::Remote, stage,
                           msec(1));
    c.reparent(remote, stage, SpanKind::Remote, stage);
    SpanId io = c.open(7, 1, "disk", SpanKind::Io, remote, msec(2));
    c.charge(stage, util::Joules(0.125), 1e6, util::Cycles(2e6), 1.5e6);
    c.charge(remote, util::Joules(0.0625), 5e5, util::Cycles(1e6), 7.5e5);
    c.charge(io, util::Joules(0.00003), 0, util::Cycles(0), 0);
    c.addIoBytes(io, 4096);
    c.close(io, msec(3));
    c.close(remote, msec(4));
    c.close(stage, msec(5));
    c.close(root, msec(5));
    return c;
}

TEST(Report, StageBreakdownTotalsReproduceTheLedger)
{
    SpanCollector c = sampleTree();
    EnergyIndex index;
    index.attach(c);
    std::string breakdown = reportStageBreakdown(index, 7);
    EXPECT_NE(breakdown.find("total 0.187530"), std::string::npos);
    EXPECT_NE(breakdown.find("frontend"), std::string::npos);
    EXPECT_NE(breakdown.find("remote"), std::string::npos);
    EXPECT_NE(breakdown.find("disk"), std::string::npos);
}

TEST(Report, TopRequestsRanksByEnergy)
{
    SpanCollector c;
    SpanId r1 = c.open(1, 0, "cheap", SpanKind::Root, NoSpan, 0);
    SpanId r2 = c.open(2, 0, "hot", SpanKind::Root, NoSpan, 0);
    c.charge(r1, util::Joules(0.25), 0, util::Cycles(0), 0);
    c.charge(r2, util::Joules(0.75), 0, util::Cycles(0), 0);
    c.close(r1, msec(1));
    c.close(r2, msec(2));
    EnergyIndex index;
    index.attach(c);
    std::string top = reportTopRequests(index, 5);
    std::size_t hot = top.find("hot");
    std::size_t cheap = top.find("cheap");
    ASSERT_NE(hot, std::string::npos);
    ASSERT_NE(cheap, std::string::npos);
    EXPECT_LT(hot, cheap);
    // topN truncates the ranking.
    std::string only_one = reportTopRequests(index, 1);
    EXPECT_NE(only_one.find("hot"), std::string::npos);
    EXPECT_EQ(only_one.find("cheap"), std::string::npos);
}

TEST(Report, MachineImbalanceBlamesTheDominantMachine)
{
    SpanCollector c = sampleTree();
    EnergyIndex index;
    index.attach(c);
    std::string imbalance = reportMachineImbalance(index);
    EXPECT_NE(imbalance.find("m0_j"), std::string::npos);
    EXPECT_NE(imbalance.find("0.125000"), std::string::npos);
    EXPECT_NE(imbalance.find("0.062530"), std::string::npos);
}

TEST(Report, EmptyCollectorYieldsHeadersOnly)
{
    SpanCollector empty;
    EnergyIndex index;
    index.attach(empty);
    std::string report = fullReport(index);
    EXPECT_NE(report.find("top requests by energy"),
              std::string::npos);
    std::string path = reportCriticalPath(index, 42);
    EXPECT_FALSE(path.empty());
}

// --- byte-identity vs the pre-refactor goldens ---------------------

std::string
fixturePath(const char *file)
{
    return std::string(PCON_TEST_DATA_DIR) + "/" + file;
}

void
compareOrUpdate(const std::string &rendered, const char *file)
{
    std::string path = fixturePath(file);
    if (std::getenv("PCON_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::trunc);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << rendered;
        GTEST_SKIP() << "fixture regenerated at " << path;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing fixture " << path
                    << " — regenerate with PCON_UPDATE_GOLDEN=1";
    std::ostringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(rendered.size(), buf.str().size());
    ASSERT_EQ(rendered, buf.str())
        << file
        << " drifted from the committed fixture; if intentional, "
           "regenerate with PCON_UPDATE_GOLDEN=1 and commit the diff";
}

/** attach() absorbs spans in id order — exactly the accumulation
 *  order the historical collector scans used — so the text report
 *  reproduces the tools/trace_report golden byte for byte. */
TEST(ReportGolden, TextReportMatchesPreRefactorFixture)
{
    SpanCollector spans = trace::loadSpanJson(
        fixturePath("golden_span_dump.json"));
    EnergyIndex index;
    index.attach(spans);
    compareOrUpdate(fullReport(index), "golden_trace_report.txt");
}

TEST(ReportGolden, JsonReportMatchesPreRefactorFixture)
{
    SpanCollector spans = trace::loadSpanJson(
        fixturePath("golden_span_dump.json"));
    EnergyIndex index;
    index.attach(spans);
    // The CLI terminates the document with one newline.
    compareOrUpdate(reportJson(index) + "\n",
                    "golden_trace_report.json");
}

} // namespace
} // namespace pcon::obs
