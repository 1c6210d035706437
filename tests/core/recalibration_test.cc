#include <memory>

#include <gtest/gtest.h>

#include "core/container_manager.h"
#include "core/recalibration.h"
#include "hw/power_meter.h"
#include "os/kernel.h"
#include "sim/rng.h"
#include "sim/simulation.h"
#include "util/logging.h"

namespace pcon::core {
namespace {

using hw::ActivityVector;
using hw::MachineConfig;
using os::ComputeOp;
using os::Op;
using os::OpResult;
using os::ScriptedLogic;
using os::SleepOp;
using os::Task;
using sim::msec;
using sim::sec;
using sim::Simulation;

MachineConfig
nonlinearConfig()
{
    // A ground truth with a cache*memory interaction the linear model
    // cannot express a priori — recalibration must absorb it into the
    // coefficients for the *current* workload.
    MachineConfig cfg;
    cfg.name = "nl";
    cfg.chips = 1;
    cfg.coresPerChip = 2;
    cfg.freqGhz = 1.0;
    cfg.hasOnChipMeter = true;
    cfg.onChipMeter = {msec(1), msec(1)};
    cfg.truth.machineIdleW = 30.0;
    cfg.truth.packageIdleW = 2.0;
    cfg.truth.chipMaintenanceW = 4.0;
    cfg.truth.coreBusyW = 6.0;
    cfg.truth.insW = 2.0;
    cfg.truth.llcW = 50.0;
    cfg.truth.memW = 200.0;
    cfg.truth.nlCacheMemW = 8.0; // unmodeled residual
    return cfg;
}

std::shared_ptr<LinearPowerModel>
linearPartModel(const MachineConfig &cfg)
{
    auto model =
        std::make_shared<LinearPowerModel>(ModelKind::WithChipShare);
    model->setIdleW(cfg.truth.machineIdleW);
    model->setCoefficient(Metric::Core, cfg.truth.coreBusyW);
    model->setCoefficient(Metric::Ins, cfg.truth.insW);
    model->setCoefficient(Metric::Cache, cfg.truth.llcW);
    model->setCoefficient(Metric::Mem, cfg.truth.memW);
    model->setCoefficient(Metric::ChipShare,
                          cfg.truth.chipMaintenanceW);
    return model;
}

/**
 * Alternating-phase workload driving power fluctuations. Phase
 * lengths are randomized so the trace is aperiodic — a strictly
 * periodic trace makes the cross-correlation peak ambiguous (any
 * multiple of the period matches).
 */
std::shared_ptr<os::TaskLogic>
phasedWorkload(std::uint64_t seed = 31)
{
    auto rng = std::make_shared<sim::Rng>(seed);
    return std::make_shared<ScriptedLogic>(
        std::vector<ScriptedLogic::Step>{
            [rng](os::Kernel &, Task &, const OpResult &) -> Op {
                return ComputeOp{ActivityVector{1.5, 0.0, 0.05, 0.01},
                                 rng->uniform(3e6, 12e6)};
            },
            [rng](os::Kernel &, Task &, const OpResult &) -> Op {
                return ComputeOp{ActivityVector{0.8, 0.0, 0.0, 0.0},
                                 rng->uniform(1e6, 6e6)};
            },
            [rng](os::Kernel &, Task &, const OpResult &) -> Op {
                return SleepOp{sim::usec(
                    rng->uniformInt(1000, 8000))};
            }},
        /*loop=*/true);
}

struct RecalWorld
{
    Simulation sim;
    hw::Machine machine;
    os::RequestContextManager requests;
    os::Kernel kernel;
    std::shared_ptr<LinearPowerModel> model;
    hw::PowerMeter meter;

    RecalWorld()
        : machine(sim, nonlinearConfig()),
          kernel(machine, requests),
          model(linearPartModel(machine.config())),
          meter(machine, hw::MeterScope::Package,
                machine.config().onChipMeter)
    {}
};

TEST(ModelPowerSampler, WindowsTrackMachineMetrics)
{
    RecalWorld w;
    ModelPowerSampler sampler(w.kernel, w.model, msec(1));
    sampler.start();
    ActivityVector act{1.0, 0.0, 0.0, 0.0};
    auto logic = std::make_shared<ScriptedLogic>(
        std::vector<ScriptedLogic::Step>{
            [=](os::Kernel &, Task &, const OpResult &) -> Op {
                return ComputeOp{act, 20e6};
            }});
    w.kernel.spawn(logic, "t");
    w.sim.run(msec(10));
    ASSERT_GE(sampler.windows().size(), 9u);
    const ModelPowerSampler::Window &win = sampler.windows().back();
    EXPECT_NEAR(win.metrics.get(Metric::Core), 1.0, 1e-6);
    EXPECT_NEAR(win.metrics.get(Metric::Ins), 1.0, 1e-6);
    EXPECT_NEAR(win.metrics.get(Metric::ChipShare), 1.0, 1e-6);
    // Modeled: 6 + 2 + 4 = 12 W.
    EXPECT_NEAR(win.modeledActiveW, 12.0, 0.1);
}

TEST(ModelPowerSampler, StopFreezesHistory)
{
    RecalWorld w;
    ModelPowerSampler sampler(w.kernel, w.model, msec(1));
    sampler.start();
    w.sim.run(msec(5));
    std::size_t n = sampler.windows().size();
    sampler.stop();
    w.sim.run(msec(20));
    EXPECT_EQ(sampler.windows().size(), n);
}

TEST(OnlineRecalibrator, RecoversMeterDelay)
{
    RecalWorld w;
    ModelPowerSampler sampler(w.kernel, w.model, msec(1));
    sampler.start();
    w.meter.start();
    RecalibratorConfig cfg;
    cfg.maxDelaySamples = 32;
    cfg.alignEvery = msec(200);
    cfg.baselineW = 2.0; // package idle
    OnlineRecalibrator recal(sampler, w.meter, w.model, {}, cfg);
    recal.start();
    w.kernel.spawn(phasedWorkload(), "phased");
    w.sim.run(sec(2));
    ASSERT_TRUE(recal.aligned());
    // The on-chip meter delivers with 1 ms lag.
    EXPECT_EQ(recal.estimatedDelay(), msec(1));
}

TEST(OnlineRecalibrator, RefitsReduceModelErrorOnResidualWorkload)
{
    RecalWorld w;
    ModelPowerSampler sampler(w.kernel, w.model, msec(1));
    sampler.start();
    w.meter.start();
    RecalibratorConfig cfg;
    cfg.maxDelaySamples = 32;
    cfg.alignEvery = msec(200);
    cfg.refitEvery = msec(50);
    cfg.baselineW = 2.0;
    OnlineRecalibrator recal(sampler, w.meter, w.model, {}, cfg);

    // Steady cache+memory workload: truth draws the 8 W interaction
    // the initial model misses entirely.
    ActivityVector hot{1.0, 0.0, 0.05, 0.01};
    auto logic = std::make_shared<ScriptedLogic>(
        std::vector<ScriptedLogic::Step>{
            [=](os::Kernel &, Task &, const OpResult &) -> Op {
                return ComputeOp{hot, 5e6};
            },
            [](os::Kernel &, Task &, const OpResult &) -> Op {
                return SleepOp{msec(2)};
            }},
        true);
    w.kernel.spawn(logic, "hot");

    // Error before recalibration: truth active while running is
    // 4 + 6 + 2 + 0.05*50 + 0.01*200 + 8 = 24.5 W; model says 16.5 W.
    Metrics busy;
    busy.set(Metric::Core, 1.0);
    busy.set(Metric::Ins, 1.0);
    busy.set(Metric::Cache, 0.05);
    busy.set(Metric::Mem, 0.01);
    busy.set(Metric::ChipShare, 1.0);
    double before = w.model->estimateActiveW(busy);
    EXPECT_NEAR(before, 16.5, 0.01);

    recal.start();
    w.sim.run(sec(4));
    EXPECT_GT(recal.refits(), 0u);
    double after = w.model->estimateActiveW(busy);
    // Recalibrated model must move most of the way to 24.5 W.
    EXPECT_GT(after, 22.0);
    EXPECT_LT(after, 27.0);
}

TEST(OnlineRecalibrator, StopThenStartKeepsOneTickChain)
{
    RecalWorld w;
    ModelPowerSampler sampler(w.kernel, w.model, msec(1));
    sampler.start();
    w.meter.start();
    RecalibratorConfig cfg;
    cfg.maxDelaySamples = 32;
    cfg.alignEvery = msec(200);
    cfg.refitEvery = msec(50);
    cfg.baselineW = 2.0;
    OnlineRecalibrator recal(sampler, w.meter, w.model, {}, cfg);
    ActivityVector hot{1.0, 0.0, 0.05, 0.01};
    auto logic = std::make_shared<ScriptedLogic>(
        std::vector<ScriptedLogic::Step>{
            [=](os::Kernel &, Task &, const OpResult &) -> Op {
                return ComputeOp{hot, 5e6};
            },
            [](os::Kernel &, Task &, const OpResult &) -> Op {
                return SleepOp{msec(2)};
            }},
        true);
    w.kernel.spawn(logic, "hot");

    recal.start();
    while (recal.refits() == 0 && w.sim.now() < sec(10))
        w.sim.run(w.sim.now() + cfg.refitEvery);
    ASSERT_GT(recal.refits(), 0u);

    std::uint64_t stopped_at = recal.refits();
    recal.stop();
    w.sim.run(w.sim.now() + sec(1));
    EXPECT_EQ(recal.refits(), stopped_at);

    // Resume, then stop and restart at once, mid-period, before the
    // ticks stop() cancelled would have fired. One tick chain refits
    // at most once per refitEvery; a leftover second chain doubles it.
    recal.start();
    w.sim.run(w.sim.now() + msec(120));
    recal.stop();
    recal.start();
    std::uint64_t restarted_at = recal.refits();
    w.sim.run(w.sim.now() + sec(1));
    EXPECT_GT(recal.refits(), restarted_at);
    EXPECT_LE(recal.refits() - restarted_at, 20u);
}

TEST(OnlineRecalibrator, OfflineSamplesAnchorTheFit)
{
    // With only one online operating point, the fit is ill-posed;
    // offline samples keep other coefficients anchored.
    RecalWorld w;
    ModelPowerSampler sampler(w.kernel, w.model, msec(1));
    sampler.start();
    w.meter.start();

    std::vector<CalibrationSample> offline;
    // Offline knowledge: pure spin at several utilizations (active W).
    for (double util : {0.25, 0.5, 0.75, 1.0, 1.5, 2.0}) {
        CalibrationSample s;
        s.metrics.set(Metric::Core, util);
        s.metrics.set(Metric::Ins, util);
        s.metrics.set(Metric::ChipShare, util > 1.0 ? 1.0 : util);
        s.measuredFullW = 6.0 * util + 2.0 * util +
            4.0 * (util > 1.0 ? 1.0 : util);
        offline.push_back(s);
    }
    RecalibratorConfig cfg;
    cfg.maxDelaySamples = 32;
    cfg.alignEvery = msec(200);
    cfg.refitEvery = msec(50);
    cfg.baselineW = 2.0;
    OnlineRecalibrator recal(sampler, w.meter, w.model, offline, cfg);
    recal.start();
    w.kernel.spawn(phasedWorkload(), "w");
    w.sim.run(sec(3));
    // Spin-only estimate stays sane (anchored by offline samples).
    Metrics spin;
    spin.set(Metric::Core, 1.0);
    spin.set(Metric::Ins, 1.0);
    spin.set(Metric::ChipShare, 1.0);
    double est = w.model->estimateActiveW(spin);
    EXPECT_GT(est, 8.0);
    EXPECT_LT(est, 18.0);
}

} // namespace
} // namespace pcon::core
