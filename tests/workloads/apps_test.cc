#include <functional>
#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "core/profiles.h"
#include "workloads/apps.h"
#include "workloads/client.h"
#include "workloads/experiment.h"
#include "workloads/microbench.h"
#include "util/logging.h"

namespace pcon::wl {
namespace {

using sim::msec;
using sim::sec;

/** Small fast machine for functional app tests. */
hw::MachineConfig
smallMachine()
{
    hw::MachineConfig cfg = hw::sandyBridgeConfig();
    cfg.chips = 1;
    cfg.coresPerChip = 2;
    return cfg;
}

std::shared_ptr<core::LinearPowerModel>
roughModel()
{
    auto model = std::make_shared<core::LinearPowerModel>();
    model->setIdleW(26.0);
    model->setCoefficient(core::Metric::Core, 5.0);
    model->setCoefficient(core::Metric::Ins, 1.5);
    model->setCoefficient(core::Metric::Cache, 70.0);
    model->setCoefficient(core::Metric::Mem, 200.0);
    model->setCoefficient(core::Metric::ChipShare, 5.5);
    model->setCoefficient(core::Metric::Disk, 1.7);
    model->setCoefficient(core::Metric::Net, 5.8);
    return model;
}

class AppParamTest
    : public ::testing::TestWithParam<std::string>
{};

TEST_P(AppParamTest, ServesClosedLoopRequestsEndToEnd)
{
    ServerWorld world(smallMachine(), roughModel());
    auto app = makeApp(GetParam(), 42);
    app->deploy(world.kernel());
    ClientConfig ccfg;
    ccfg.mode = ClientConfig::Mode::ClosedLoop;
    ccfg.concurrency = 4;
    LoadClient client(*app, world.kernel(), ccfg);
    client.start();
    world.run(sec(5));
    client.stop();

    EXPECT_GT(client.completed(), 10u) << GetParam();
    EXPECT_LE(client.completed(), client.submitted());
    // Every completed request produced a container record with
    // positive energy and CPU time.
    const auto &records = world.manager().records();
    EXPECT_EQ(records.size(), client.completed());
    for (const auto &r : records) {
        EXPECT_GT(r.totalEnergyJ().value(), 0.0) << GetParam();
        EXPECT_GT(r.cpuTimeNs, 0.0) << GetParam();
        EXPECT_GT(r.meanPowerW.value(), 0.0) << GetParam();
        EXPECT_GT(r.responseTime(), 0) << GetParam();
    }
    // Response-time statistics accumulated per type.
    EXPECT_FALSE(client.responseStats().empty());
    EXPECT_GT(client.overallResponse().mean(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, AppParamTest,
    ::testing::Values("RSA-crypto", "Solr", "WeBWorK", "Stress",
                      "GAE-Vosao", "GAE-Hybrid"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

TEST(Workloads, RsaTypesHaveDistinctCosts)
{
    ServerWorld world(smallMachine(), roughModel());
    RsaCryptoApp app(1);
    app.deploy(world.kernel());
    ClientConfig ccfg;
    ccfg.concurrency = 2;
    LoadClient client(app, world.kernel(), ccfg);
    client.start();
    world.run(sec(5));
    client.stop();

    core::ProfileTable profiles;
    profiles.add(world.manager().records());
    ASSERT_TRUE(profiles.has("rsa-small"));
    ASSERT_TRUE(profiles.has("rsa-large"));
    // The large key is both longer and denser: clearly more energy.
    EXPECT_GT(profiles.profile("rsa-large").meanEnergyJ.value(),
              2.0 * profiles.profile("rsa-small").meanEnergyJ.value());
}

TEST(Workloads, GaeVosaoBackgroundActivityIsAccounted)
{
    ServerWorld world(smallMachine(), roughModel());
    GaeVosaoApp app(2);
    app.deploy(world.kernel());
    ClientConfig ccfg;
    ccfg.concurrency = 4;
    LoadClient client(app, world.kernel(), ccfg);
    client.start();
    world.run(sec(3));
    client.stop();
    // GAE platform background tasks charge the background container.
    EXPECT_GT(world.manager().background().cpuEnergyJ().value(), 0.0);
}

TEST(Workloads, GaeHybridVirusDrawsMorePowerThanVosao)
{
    ServerWorld world(smallMachine(), roughModel());
    GaeHybridApp app(3);
    app.deploy(world.kernel());
    ClientConfig ccfg;
    ccfg.concurrency = 4;
    ccfg.seed = 5;
    LoadClient client(app, world.kernel(), ccfg);
    client.start();
    world.run(sec(30));
    client.stop();

    core::ProfileTable profiles;
    profiles.add(world.manager().records());
    ASSERT_TRUE(profiles.has("gae-virus"));
    ASSERT_TRUE(profiles.has("vosao-read"));
    // Mean request power: virus well above a normal read.
    double virus_power = 0, vosao_power = 0;
    int virus_n = 0, vosao_n = 0;
    for (const auto &r : world.manager().records()) {
        if (r.type == "gae-virus") {
            virus_power += r.meanPowerW.value();
            ++virus_n;
        } else if (r.type == "vosao-read") {
            vosao_power += r.meanPowerW.value();
            ++vosao_n;
        }
    }
    ASSERT_GT(virus_n, 0);
    ASSERT_GT(vosao_n, 0);
    EXPECT_GT(virus_power / virus_n, 1.2 * vosao_power / vosao_n);
}

TEST(Workloads, WeBWorKRequestSpansMultipleStages)
{
    ServerWorld world(smallMachine(), roughModel());
    WeBWorKApp app(4);
    app.deploy(world.kernel());
    ClientConfig ccfg;
    ccfg.concurrency = 1; // single request at a time: clean anatomy
    LoadClient client(app, world.kernel(), ccfg);
    client.start();
    world.run(sec(3));
    client.stop();
    ASSERT_GT(world.manager().records().size(), 2u);
    const auto &r = world.manager().records()[1];
    // Disk I/O attributed to the request.
    EXPECT_GT(r.ioEnergyJ.value(), 0.0);
    // Response time covers all stages (>= total compute time).
    EXPECT_GT(r.responseTime(), static_cast<sim::SimTime>(
                  r.cpuTimeNs * 0.9));
}

TEST(Workloads, ClientPercentilesAreOrderedAndPerType)
{
    ServerWorld world(smallMachine(), roughModel());
    RsaCryptoApp app(9);
    app.deploy(world.kernel());
    ClientConfig ccfg;
    ccfg.concurrency = 4;
    LoadClient client(app, world.kernel(), ccfg);
    client.start();
    world.run(sec(5));
    client.stop();
    ASSERT_GT(client.completed(), 50u);
    double p50 = client.responsePercentile(0.5);
    double p95 = client.responsePercentile(0.95);
    double p99 = client.responsePercentile(0.99);
    EXPECT_GT(p50, 0.0);
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
    // Large keys take longer than small keys at every quantile.
    EXPECT_GT(client.responsePercentile("rsa-large", 0.5),
              client.responsePercentile("rsa-small", 0.5));
    EXPECT_THROW(client.responsePercentile("nonexistent", 0.5),
                 util::FatalError);
    client.clearStats();
    EXPECT_THROW(client.responsePercentile(0.5), util::FatalError);
}

TEST(Workloads, ClosedLoopClientCountsOnlyItsOwnRequests)
{
    // A second source submits to the same kernel every 25 ms. The
    // closed-loop client must keep exactly its 3 requests outstanding
    // and count, record and resubmit on its own completions only.
    ServerWorld world(smallMachine(), roughModel());
    RsaCryptoApp app(12);
    app.deploy(world.kernel());
    ClientConfig ccfg;
    ccfg.concurrency = 3;
    LoadClient client(app, world.kernel(), ccfg);

    std::set<os::RequestId> live;
    std::set<os::RequestId> other;
    std::uint64_t other_completed = 0;
    world.requests().onCreate(
        [&live](const os::RequestInfo &info) { live.insert(info.id); });
    world.requests().onComplete([&](const os::RequestInfo &info) {
        live.erase(info.id);
        other_completed += other.erase(info.id);
    });
    std::function<void()> submit_other = [&] {
        os::RequestId id =
            world.requests().create("rsa-small", world.sim().now());
        other.insert(id);
        app.submit(id, "rsa-small");
        world.sim().schedule(msec(25), submit_other);
    };
    world.sim().schedule(msec(25), submit_other);

    client.start();
    for (int i = 0; i < 20; ++i) {
        world.run(msec(250));
        std::size_t mine = 0;
        for (os::RequestId id : live)
            mine += other.count(id) == 0 ? 1 : 0;
        EXPECT_EQ(mine, 3u) << "at " << world.sim().now();
        EXPECT_EQ(client.submitted() - client.completed(), 3u);
    }
    client.stop();
    EXPECT_GT(other_completed, 100u);
    EXPECT_GT(client.completed(), 50u);
    EXPECT_EQ(client.completed() + 3 + other.size() + other_completed,
              world.requests().createdCount());
}

TEST(Workloads, OpenLoopClientMatchesConfiguredRate)
{
    ServerWorld world(smallMachine(), roughModel());
    SolrApp app(5);
    app.deploy(world.kernel());
    ClientConfig ccfg;
    ccfg.mode = ClientConfig::Mode::OpenLoop;
    ccfg.ratePerSec = 50.0;
    LoadClient client(app, world.kernel(), ccfg);
    client.start();
    world.run(sec(10));
    client.stop();
    EXPECT_NEAR(client.submitted(), 500.0, 100.0);
}

TEST(Workloads, ForUtilizationSizesLoadSensibly)
{
    ServerWorld world(smallMachine(), roughModel());
    RsaCryptoApp app(6);
    app.deploy(world.kernel());
    ClientConfig peak =
        LoadClient::forUtilization(app, world.kernel(), 1.0);
    EXPECT_EQ(peak.mode, ClientConfig::Mode::ClosedLoop);
    EXPECT_EQ(peak.concurrency, 4);
    ClientConfig half =
        LoadClient::forUtilization(app, world.kernel(), 0.5);
    EXPECT_EQ(half.mode, ClientConfig::Mode::OpenLoop);
    // 0.5 * 2 cores * 3.1e9 / 32e6 cycles ~= 97 req/s.
    EXPECT_NEAR(half.ratePerSec, 97.0, 10.0);
}

TEST(Workloads, HalfLoadProducesRoughlyHalfUtilization)
{
    ServerWorld world(smallMachine(), roughModel());
    RsaCryptoApp app(7);
    app.deploy(world.kernel());
    ClientConfig half =
        LoadClient::forUtilization(app, world.kernel(), 0.5, 11);
    LoadClient client(app, world.kernel(), half);
    client.start();
    world.run(sec(1)); // warm up
    hw::CounterSnapshot before = world.machine().readCounters(0);
    hw::CounterSnapshot before1 = world.machine().readCounters(1);
    world.run(sec(8));
    hw::CounterSnapshot after = world.machine().readCounters(0);
    hw::CounterSnapshot after1 = world.machine().readCounters(1);
    client.stop();
    double util =
        (after.nonhaltCycles - before.nonhaltCycles +
         after1.nonhaltCycles - before1.nonhaltCycles) /
        (after.elapsedCycles - before.elapsedCycles +
         after1.elapsedCycles - before1.elapsedCycles);
    EXPECT_NEAR(util, 0.5, 0.12);
}

TEST(Microbench, CalibrationRecoversTruthfulCoefficients)
{
    // On a machine with *no* nonlinear residual, calibration must
    // recover the ground-truth costs closely.
    hw::MachineConfig cfg = smallMachine();
    cfg.truth.nlCacheMemW = 0.0;
    CalibrationRunConfig run_cfg;
    run_cfg.duration = sec(1);
    core::Calibrator cal = calibrateMachine(cfg, run_cfg);
    EXPECT_GT(cal.sampleCount(), 200u);
    double rmse = 0.0;
    core::LinearPowerModel model =
        cal.fit(core::ModelKind::WithChipShare, &rmse);
    EXPECT_NEAR(model.idleW(), cfg.truth.machineIdleW, 1.5);
    EXPECT_NEAR(model.coefficient(core::Metric::Mem),
                cfg.truth.memW, 0.15 * cfg.truth.memW);
    EXPECT_NEAR(model.coefficient(core::Metric::Cache),
                cfg.truth.llcW, 0.2 * cfg.truth.llcW);
    EXPECT_LT(rmse, 1.5);
    // Device coefficients learned from the disk/net patterns.
    EXPECT_NEAR(model.coefficient(core::Metric::Disk),
                cfg.truth.diskActiveW, 0.8);
    EXPECT_NEAR(model.coefficient(core::Metric::Net),
                cfg.truth.netActiveW, 1.5);
}

TEST(Microbench, ActiveSamplesSubtractIdle)
{
    core::Calibrator cal;
    core::CalibrationSample s;
    s.measuredFullW = 36.0;
    cal.add(s);
    auto active = toActiveSamples(cal, 26.0);
    ASSERT_EQ(active.size(), 1u);
    EXPECT_DOUBLE_EQ(active[0].measuredFullW, 10.0);
}

TEST(Experiment, ValidationWindowMeasuresActivePower)
{
    hw::MachineConfig cfg = smallMachine();
    cfg.truth.nlCacheMemW = 0.0;
    // Exact model: accounted should match measured within a few %.
    auto model = std::make_shared<core::LinearPowerModel>();
    model->setIdleW(cfg.truth.machineIdleW);
    model->setCoefficient(core::Metric::Core, cfg.truth.coreBusyW);
    model->setCoefficient(core::Metric::Ins, cfg.truth.insW);
    model->setCoefficient(core::Metric::Float, cfg.truth.flopW);
    model->setCoefficient(core::Metric::Cache, cfg.truth.llcW);
    model->setCoefficient(core::Metric::Mem, cfg.truth.memW);
    model->setCoefficient(core::Metric::ChipShare,
                          cfg.truth.chipMaintenanceW);
    model->setCoefficient(core::Metric::Disk, cfg.truth.diskActiveW);
    model->setCoefficient(core::Metric::Net, cfg.truth.netActiveW);

    ServerWorld world(cfg, model);
    RsaCryptoApp app(8);
    app.deploy(world.kernel());
    ClientConfig ccfg;
    ccfg.concurrency = 4;
    LoadClient client(app, world.kernel(), ccfg);
    client.start();
    world.run(sec(1));
    world.beginWindow();
    world.run(sec(5));
    EXPECT_GT(world.measuredActiveW(), 5.0);
    EXPECT_LT(world.validationError(), 0.05);
}

TEST(Experiment, ErrorPathsAreFatal)
{
    // No on-chip meter on Woodcrest; empty measurement windows.
    ServerWorld wc_world(hw::woodcrestConfig(), roughModel());
    EXPECT_THROW(wc_world.onChipMeter(), util::FatalError);
    EXPECT_FALSE(wc_world.hasOnChipMeter());
    ServerWorld world(smallMachine(), roughModel());
    world.beginWindow();
    EXPECT_THROW(world.measuredActiveW(), util::FatalError);
    EXPECT_THROW(world.accountedActiveW(), util::FatalError);
    // Double recalibration attachment is rejected.
    world.attachRecalibration({});
    EXPECT_THROW(world.attachRecalibration({}), util::FatalError);
}

TEST(Experiment, MakeAppRejectsUnknownNames)
{
    EXPECT_THROW(makeApp("NoSuchWorkload", 1), util::FatalError);
    // The event-driven extension workload is reachable by name.
    auto app = makeApp("EventLoop", 1);
    EXPECT_EQ(app->name(), "EventLoop");
}

TEST(Experiment, IdleBaselineMatchesScope)
{
    hw::MachineConfig cfg = hw::sandyBridgeConfig();
    EXPECT_NEAR(measureIdleBaselineW(cfg, hw::MeterScope::Machine),
                cfg.truth.machineIdleW, 1e-6);
    EXPECT_NEAR(measureIdleBaselineW(cfg, hw::MeterScope::Package),
                cfg.truth.packageIdleW, 1e-6);
}

} // namespace
} // namespace pcon::wl
