#include <memory>

#include <gtest/gtest.h>

#include "core/anomaly.h"
#include "os/kernel.h"
#include "sim/rng.h"
#include "sim/simulation.h"
#include "util/logging.h"

namespace pcon::core {
namespace {

using hw::ActivityVector;
using os::ComputeOp;
using os::Op;
using os::OpResult;
using os::RequestId;
using os::ScriptedLogic;
using os::Task;
using sim::msec;
using sim::sec;

struct AnomalyWorld
{
    sim::Simulation sim;
    hw::Machine machine;
    os::RequestContextManager requests;
    os::Kernel kernel;
    std::shared_ptr<LinearPowerModel> model;
    ContainerManager manager;

    AnomalyWorld()
        : machine(sim, config()), kernel(machine, requests),
          model(makeModel()), manager(kernel, model, {})
    {
        kernel.addHooks(&manager);
    }

    static hw::MachineConfig
    config()
    {
        hw::MachineConfig cfg;
        cfg.name = "anom";
        cfg.chips = 1;
        cfg.coresPerChip = 2;
        cfg.freqGhz = 1.0;
        cfg.truth.machineIdleW = 10.0;
        cfg.truth.chipMaintenanceW = 4.0;
        cfg.truth.coreBusyW = 6.0;
        cfg.truth.insW = 2.0;
        cfg.truth.llcW = 50.0;
        cfg.truth.memW = 200.0;
        return cfg;
    }

    static std::shared_ptr<LinearPowerModel>
    makeModel()
    {
        auto model = std::make_shared<LinearPowerModel>();
        model->setCoefficient(Metric::Core, 6.0);
        model->setCoefficient(Metric::Ins, 2.0);
        model->setCoefficient(Metric::Cache, 50.0);
        model->setCoefficient(Metric::Mem, 200.0);
        model->setCoefficient(Metric::ChipShare, 4.0);
        return model;
    }

    /** Run one request to completion on core 0 and return its id. */
    RequestId
    runRequest(const std::string &type, const ActivityVector &act,
               double cycles)
    {
        RequestId id = requests.create(type, sim.now());
        auto logic = std::make_shared<ScriptedLogic>(
            std::vector<ScriptedLogic::Step>{
                [=](os::Kernel &, Task &, const OpResult &) -> Op {
                    return ComputeOp{act, cycles};
                }});
        kernel.spawn(logic, type, id, 0);
        sim.run(sim.now() + sec(1));
        requests.complete(id, sim.now());
        return id;
    }
};

const ActivityVector kNormal{1.0, 0.0, 0.0, 0.0};       // ~12 W
const ActivityVector kVirus{2.0, 0.0, 0.06, 0.014};     // ~20 W

TEST(AnomalyDetector, FlagsCompletedPowerVirus)
{
    AnomalyWorld w;
    AnomalyDetectorConfig cfg;
    cfg.minBaselineSamples = 20;
    cfg.sigmaThreshold = 3.0;
    PowerAnomalyDetector detector(w.manager, cfg);

    // A fleet of normal requests (small jitter via ipc variations).
    sim::Rng rng(3);
    for (int i = 0; i < 30; ++i) {
        ActivityVector act = kNormal;
        act.ipc = rng.uniform(0.9, 1.1);
        w.runRequest("normal", act, 3e6);
    }
    EXPECT_TRUE(detector.scan().empty());
    EXPECT_EQ(detector.fleet().count(), 30u);

    // One virus completes: flagged exactly once.
    RequestId virus = w.runRequest("virus", kVirus, 3e6);
    std::vector<PowerAnomaly> found = detector.scan();
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].id, virus);
    EXPECT_EQ(found[0].type, "virus");
    EXPECT_FALSE(found[0].live);
    EXPECT_GT(found[0].meanPowerW.value(),
              found[0].fleetMeanW + 3.0 * found[0].fleetStddevW);
    // Re-scan does not re-report.
    EXPECT_TRUE(detector.scan().empty());
    EXPECT_EQ(detector.flagged().size(), 1u);
}

TEST(AnomalyDetector, FlagsLiveVirusMidExecution)
{
    AnomalyWorld w;
    AnomalyDetectorConfig cfg;
    cfg.minBaselineSamples = 20;
    PowerAnomalyDetector detector(w.manager, cfg);
    sim::Rng rng(4);
    for (int i = 0; i < 25; ++i) {
        ActivityVector act = kNormal;
        act.ipc = rng.uniform(0.9, 1.1);
        w.runRequest("normal", act, 3e6);
    }
    detector.scan();

    // A long-running virus, still executing at scan time.
    RequestId virus = w.requests.create("virus", w.sim.now());
    auto logic = std::make_shared<ScriptedLogic>(
        std::vector<ScriptedLogic::Step>{
            [](os::Kernel &, Task &, const OpResult &) -> Op {
                return ComputeOp{kVirus, 1e12};
            }});
    w.kernel.spawn(logic, "virus", virus, 0);
    w.sim.run(w.sim.now() + msec(50));
    std::vector<PowerAnomaly> found = detector.scan();
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].id, virus);
    EXPECT_TRUE(found[0].live);
}

TEST(AnomalyDetector, LiveAnomaliesComeBackInIdOrder)
{
    AnomalyWorld w;
    AnomalyDetectorConfig cfg;
    cfg.minBaselineSamples = 20;
    PowerAnomalyDetector detector(w.manager, cfg);
    sim::Rng rng(4);
    for (int i = 0; i < 25; ++i) {
        ActivityVector act = kNormal;
        act.ipc = rng.uniform(0.9, 1.1);
        w.runRequest("normal", act, 3e6);
    }
    detector.scan();

    // Two viruses, one per core, both still running at scan time:
    // live() is a hash map, but detections are journaled in the
    // order scan() returns them.
    std::vector<RequestId> viruses;
    for (int core = 0; core < 2; ++core) {
        RequestId id = w.requests.create("virus", w.sim.now());
        auto logic = std::make_shared<ScriptedLogic>(
            std::vector<ScriptedLogic::Step>{
                [](os::Kernel &, Task &, const OpResult &) -> Op {
                    return ComputeOp{kVirus, 1e12};
                }});
        w.kernel.spawn(logic, "virus", id, core);
        viruses.push_back(id);
    }
    w.sim.run(w.sim.now() + msec(50));
    std::vector<PowerAnomaly> found = detector.scan();
    ASSERT_EQ(found.size(), 2u);
    EXPECT_EQ(found[0].id, viruses[0]);
    EXPECT_EQ(found[1].id, viruses[1]);
    EXPECT_TRUE(found[0].live && found[1].live);
}

TEST(AnomalyDetector, SilentBeforeBaselineAccumulates)
{
    AnomalyWorld w;
    AnomalyDetectorConfig cfg;
    cfg.minBaselineSamples = 50; // higher than we provide
    PowerAnomalyDetector detector(w.manager, cfg);
    for (int i = 0; i < 10; ++i)
        w.runRequest("normal", kNormal, 2e6);
    w.runRequest("virus", kVirus, 2e6);
    EXPECT_TRUE(detector.scan().empty());
}

TEST(AnomalyDetector, AbsoluteFloorSuppressesMildOutliers)
{
    AnomalyWorld w;
    AnomalyDetectorConfig cfg;
    cfg.minBaselineSamples = 10;
    cfg.sigmaThreshold = 1.0; // aggressive...
    cfg.absoluteFloorW = 50.0; // ...but nothing under 50 W counts
    PowerAnomalyDetector detector(w.manager, cfg);
    sim::Rng rng(5);
    for (int i = 0; i < 20; ++i) {
        ActivityVector act = kNormal;
        act.ipc = rng.uniform(0.8, 1.2);
        w.runRequest("normal", act, 2e6);
    }
    w.runRequest("virus", kVirus, 2e6); // ~20 W < 50 W floor
    EXPECT_TRUE(detector.scan().empty());
}

TEST(AnomalyDetector, RejectsBadConfig)
{
    AnomalyWorld w;
    AnomalyDetectorConfig bad;
    bad.sigmaThreshold = 0;
    EXPECT_THROW(PowerAnomalyDetector(w.manager, bad),
                 util::FatalError);
}

} // namespace
} // namespace pcon::core
