#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "../temp_path.h"
#include "sim/simulation.h"
#include "telemetry/registry.h"
#include "telemetry/sampler.h"
#include "util/logging.h"

namespace pcon::telemetry {
namespace {

using sim::msec;

/** The contents of a file a test wrote, which is then deleted. */
std::string
readAndRemove(const std::string &path)
{
    std::ostringstream out;
    {
        std::ifstream in(path);
        out << in.rdbuf();
    }
    std::remove(path.c_str());
    return out.str();
}

TEST(Sampler, SnapshotsAreEvenlySpacedAtThePeriod)
{
    sim::Simulation sim;
    Registry reg;
    Counter &ticks = reg.counter("ticks");
    SamplerConfig cfg;
    cfg.period = msec(10);
    Sampler sampler(sim, reg, cfg);
    sampler.start();
    sim.schedule(msec(35), [&] { ticks.add(); });
    sim.run(msec(100));
    const auto &snaps = sampler.snapshots();
    ASSERT_EQ(snaps.size(), 10u);
    for (std::size_t i = 0; i < snaps.size(); ++i)
        EXPECT_EQ(snaps[i].time, msec(10) * sim::SimTime(i + 1));
    // The counter bump at 35ms is visible from the 40ms snapshot on.
    EXPECT_DOUBLE_EQ(snaps[2].values[0].second, 0.0);
    EXPECT_DOUBLE_EQ(snaps[3].values[0].second, 1.0);
}

TEST(Sampler, CollectorsRefreshPullMetricsEachSnapshot)
{
    sim::Simulation sim;
    Registry reg;
    Gauge &now_ms = reg.gauge("sim.now_ms");
    reg.addCollector([&] { now_ms.set(sim::toMillis(sim.now())); });
    SamplerConfig cfg;
    cfg.period = msec(20);
    Sampler sampler(sim, reg, cfg);
    sampler.start();
    sim.run(msec(60));
    const auto &snaps = sampler.snapshots();
    ASSERT_EQ(snaps.size(), 3u);
    EXPECT_DOUBLE_EQ(snaps[0].values[0].second, 20.0);
    EXPECT_DOUBLE_EQ(snaps[2].values[0].second, 60.0);
}

TEST(Sampler, StopHaltsTicksAndKeepsHistory)
{
    sim::Simulation sim;
    Registry reg;
    reg.counter("c");
    SamplerConfig cfg;
    cfg.period = msec(10);
    Sampler sampler(sim, reg, cfg);
    sampler.start();
    sim.run(msec(30));
    sampler.stop();
    sim.run(msec(50));
    EXPECT_EQ(sampler.snapshots().size(), 3u);
}

TEST(Sampler, HistoryIsBoundedByMaxSnapshots)
{
    sim::Simulation sim;
    Registry reg;
    reg.counter("c");
    SamplerConfig cfg;
    cfg.period = msec(1);
    cfg.maxSnapshots = 4;
    Sampler sampler(sim, reg, cfg);
    sampler.start();
    sim.run(msec(10));
    ASSERT_EQ(sampler.snapshots().size(), 4u);
    // Oldest dropped: the surviving window is the last four ticks.
    EXPECT_EQ(sampler.snapshots().front().time, msec(7));
    EXPECT_EQ(sampler.snapshots().back().time, msec(10));
}

TEST(Sampler, FlattenExpandsHistogramsToSummaryColumns)
{
    Registry reg;
    Histogram &h = reg.histogram("lat_ms", {1.0, 10.0, 100.0});
    h.observe(5.0);
    h.observe(7.0);
    std::vector<std::pair<std::string, double>> cols;
    for (const auto &e : reg.entries())
        Sampler::flatten(e, cols);
    ASSERT_EQ(cols.size(), 6u);
    EXPECT_EQ(cols[0].first, "lat_ms.count");
    EXPECT_DOUBLE_EQ(cols[0].second, 2.0);
    EXPECT_EQ(cols[1].first, "lat_ms.sum");
    EXPECT_DOUBLE_EQ(cols[1].second, 12.0);
    EXPECT_EQ(cols[2].first, "lat_ms.mean");
    EXPECT_DOUBLE_EQ(cols[2].second, 6.0);
    EXPECT_EQ(cols[3].first, "lat_ms.p50");
    EXPECT_EQ(cols[4].first, "lat_ms.p95");
    EXPECT_EQ(cols[5].first, "lat_ms.p99");
}

TEST(Sampler, CsvExportUsesUnionOfColumnsWithEmptyCells)
{
    sim::Simulation sim;
    Registry reg;
    reg.counter("early");
    SamplerConfig cfg;
    cfg.period = msec(10);
    Sampler sampler(sim, reg, cfg);
    sampler.start();
    sim.schedule(msec(15), [&] { reg.counter("late").add(3); });
    sim.run(msec(30));
    std::string path = testTempPath(".csv");
    sampler.writeCsv(path);
    std::string csv = readAndRemove(path);
    std::istringstream lines(csv);
    std::string header, row1, row2, row3;
    ASSERT_TRUE(std::getline(lines, header));
    ASSERT_TRUE(std::getline(lines, row1));
    ASSERT_TRUE(std::getline(lines, row2));
    ASSERT_TRUE(std::getline(lines, row3));
    EXPECT_EQ(header, "time_ms,early,late");
    // "late" did not exist at the 10ms snapshot: empty trailing cell.
    EXPECT_EQ(row1, "10,0,");
    EXPECT_EQ(row2, "20,0,3");
    EXPECT_EQ(row3, "30,0,3");
}

TEST(Sampler, JsonExportRoundsTripStructure)
{
    sim::Simulation sim;
    Registry reg;
    reg.gauge("g").set(2.5);
    SamplerConfig cfg;
    cfg.period = msec(10);
    Sampler sampler(sim, reg, cfg);
    sampler.snapshotNow();
    std::string json = sampler.json();
    EXPECT_NE(json.find("\"snapshots\""), std::string::npos);
    EXPECT_NE(json.find("\"g\""), std::string::npos);
    EXPECT_NE(json.find("2.5"), std::string::npos);
    std::string path = testTempPath(".json");
    sampler.writeJson(path);
    EXPECT_EQ(readAndRemove(path), json + "\n");
}

TEST(Sampler, ZeroPeriodIsRejectedAtConstruction)
{
    sim::Simulation sim;
    Registry registry;
    // A zero (or negative) period would busy-loop the event queue;
    // the constructor refuses it as a caller error.
    EXPECT_THROW(Sampler(sim, registry, {sim::SimTime{0}, 16}),
                 util::FatalError);
    EXPECT_THROW(Sampler(sim, registry, {sim::nsec(-1), 16}),
                 util::FatalError);
}

TEST(Sampler, ZeroCapacityIsRejectedAtConstruction)
{
    sim::Simulation sim;
    Registry registry;
    EXPECT_THROW(Sampler(sim, registry, {msec(10), 0}),
                 util::FatalError);
}

TEST(Sampler, EmptyRegistrySnapshotsHaveNoValues)
{
    sim::Simulation sim;
    Registry registry;
    Sampler sampler(sim, registry, {msec(10), 16});
    sampler.snapshotNow();
    ASSERT_EQ(sampler.snapshots().size(), 1u);
    EXPECT_TRUE(sampler.snapshots().front().values.empty());
    // The CSV degenerates to the time column: header plus one row.
    std::string path = testTempPath(".csv");
    sampler.writeCsv(path);
    EXPECT_EQ(readAndRemove(path), "time_ms\n0\n");
}

TEST(Sampler, ExportsAreWellFormedWithZeroSnapshots)
{
    sim::Simulation sim;
    Registry registry;
    registry.counter("some.counter").add(7);
    Sampler sampler(sim, registry, {msec(10), 16});
    // Never started, never ticked: exports must still be valid.
    std::string csv_path = testTempPath(".csv");
    sampler.writeCsv(csv_path);
    EXPECT_EQ(readAndRemove(csv_path), "time_ms\n");
    std::string json = sampler.json();
    EXPECT_NE(json.find("\"snapshots\""), std::string::npos);
    EXPECT_EQ(json.find("some.counter"), std::string::npos);
    std::string json_path = testTempPath(".json");
    sampler.writeJson(json_path);
    EXPECT_EQ(readAndRemove(json_path), json + "\n");
}

} // namespace
} // namespace pcon::telemetry
