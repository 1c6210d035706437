#include "microbench.h"

#include <memory>

#include "core/recalibration.h"
#include "hw/machine.h"
#include "hw/power_meter.h"
#include "os/kernel.h"
#include "sim/rng.h"
#include "util/logging.h"

namespace pcon {
namespace wl {

using hw::ActivityVector;
using os::ComputeOp;
using os::Op;
using os::OpResult;
using os::ScriptedLogic;

const std::vector<MicrobenchPattern> &
calibrationPatterns()
{
    static const std::vector<MicrobenchPattern> patterns{
        {"spin", {1.0, 0.0, 0.0, 0.0}, false, false},
        {"instr", {2.5, 0.0, 0.0, 0.0}, false, false},
        {"float", {1.2, 0.5, 0.0, 0.0}, false, false},
        {"cache", {1.2, 0.0, 0.05, 0.001}, false, false},
        {"mem", {0.9, 0.0, 0.02, 0.012}, false, false},
        {"diskio", {0.6, 0.0, 0.005, 0.0005}, true, false},
        {"netio", {0.7, 0.0, 0.004, 0.0004}, false, true},
        {"mixed", {1.5, 0.2, 0.02, 0.004}, true, false},
    };
    return patterns;
}

const std::vector<double> &
calibrationLoadLevels()
{
    static const std::vector<double> levels{1.0, 0.75, 0.5, 0.25};
    return levels;
}

namespace {

/** Compute/sleep loop hitting a utilization level on one core. */
std::shared_ptr<os::TaskLogic>
dutyLoop(const ActivityVector &activity, double level, double freq_ghz,
         std::shared_ptr<sim::Rng> rng)
{
    return std::make_shared<ScriptedLogic>(
        std::vector<ScriptedLogic::Step>{
            [=](os::Kernel &, os::Task &, const OpResult &) -> Op {
                double cycles = rng->uniform(3e6, 5e6);
                return ComputeOp{activity, cycles};
            },
            [=](os::Kernel &, os::Task &, const OpResult &) -> Op {
                if (level >= 0.999)
                    return ComputeOp{activity, 1.0};
                double busy_ns = 4e6 / freq_ghz;
                double idle_ns = busy_ns * (1.0 - level) / level;
                return os::SleepOp{static_cast<sim::SimTime>(
                    idle_ns * rng->uniform(0.8, 1.2))};
            }},
        /*loop=*/true);
}

/** I/O loop keeping a device at a utilization level. */
std::shared_ptr<os::TaskLogic>
ioLoop(hw::DeviceKind device, double level, sim::SimTime service_est,
       std::shared_ptr<sim::Rng> rng)
{
    double bytes = device == hw::DeviceKind::Disk ? 1e6 : 1e5;
    return std::make_shared<ScriptedLogic>(
        std::vector<ScriptedLogic::Step>{
            [=](os::Kernel &, os::Task &, const OpResult &) -> Op {
                return os::IoOp{device, bytes};
            },
            [=](os::Kernel &, os::Task &, const OpResult &) -> Op {
                double idle = sim::toSeconds(service_est) *
                    (1.0 - level) / std::max(0.05, level);
                return os::SleepOp{sim::secF(
                    idle * rng->uniform(0.8, 1.2))};
            }},
        /*loop=*/true);
}

/** Collect samples for one (pattern, level) run on a fresh machine. */
void
runOnePattern(const hw::MachineConfig &machine_cfg,
              const MicrobenchPattern &pattern, double level,
              const CalibrationRunConfig &cfg,
              core::Calibrator &calibrator,
              std::vector<std::string> *labels)
{
    sim::Simulation sim;
    hw::Machine machine(sim, machine_cfg);
    os::RequestContextManager requests;
    os::Kernel kernel(machine, requests);
    auto rng = std::make_shared<sim::Rng>(cfg.seed);

    // One duty loop per core; I/O loops when the pattern asks.
    for (int c = 0; c < machine.totalCores(); ++c)
        kernel.spawn(dutyLoop(pattern.activity, level,
                              machine_cfg.freqGhz, rng),
                     pattern.name + "-" + std::to_string(c),
                     os::NoRequest, c);
    if (pattern.disk) {
        sim::SimTime service = kernel.config().disk.perOpLatency +
            sim::secF(1e6 / kernel.config().disk.bytesPerSec);
        kernel.spawn(ioLoop(hw::DeviceKind::Disk, level, service, rng),
                     "diskload");
    }
    if (pattern.net) {
        sim::SimTime service = kernel.config().net.perOpLatency +
            sim::secF(1e5 / kernel.config().net.bytesPerSec);
        kernel.spawn(ioLoop(hw::DeviceKind::Net, level, service, rng),
                     "netload");
    }

    // Offline metering: zero delay, so windows pair index-for-index.
    auto dummy_model = std::make_shared<core::LinearPowerModel>();
    core::ModelPowerSampler sampler(kernel, dummy_model,
                                    cfg.samplePeriod);
    hw::PowerMeter meter(machine, hw::MeterScope::Machine,
                         {cfg.samplePeriod, 0});
    std::vector<double> watts;
    meter.subscribe([&](const hw::PowerMeter::Sample &s) {
        watts.push_back(s.watts.value());
    });
    sampler.start();
    meter.start();
    sim.run(cfg.duration);

    util::panicIf(sampler.windows().size() != watts.size(),
                  "calibration window/meter mismatch: ",
                  sampler.windows().size(), " vs ", watts.size());
    std::string label = pattern.name + "@" +
        std::to_string(static_cast<int>(level * 100)) + "%";
    for (std::size_t i = 0; i < watts.size(); ++i) {
        if (static_cast<int>(i) < cfg.warmupSamples)
            continue;
        core::CalibrationSample sample;
        sample.metrics = sampler.windows()[i].metrics;
        sample.measuredFullW = watts[i];
        calibrator.add(sample);
        if (labels != nullptr)
            labels->push_back(label);
    }
}

} // namespace

core::Calibrator
calibrateMachine(const hw::MachineConfig &machine,
                 const CalibrationRunConfig &cfg,
                 std::vector<std::string> *labels)
{
    core::Calibrator calibrator;
    for (const MicrobenchPattern &pattern : calibrationPatterns())
        for (double level : calibrationLoadLevels())
            runOnePattern(machine, pattern, level, cfg, calibrator,
                          labels);
    return calibrator;
}

core::LinearPowerModel
calibrateModel(const hw::MachineConfig &machine, core::ModelKind kind,
               double *rmse_w, const CalibrationRunConfig &cfg)
{
    // Calibration is a pure function of its inputs: every
    // (pattern, level) run builds a fresh Simulation/Machine/Kernel
    // from seeded RNGs and touches no global state, and the fit is
    // deterministic. Memoize the result per process — tests and
    // benches rebuild the identical model for the identical platform
    // config dozens of times, and each rebuild simulates hundreds of
    // thousands of events (it dominated the host profile of the
    // traced WeBWorK run). A cache hit returns the exact same
    // coefficient values a recomputation would.
    struct FitKey
    {
        hw::MachineConfig machine;
        core::ModelKind kind;
        CalibrationRunConfig cfg;

        bool operator==(const FitKey &) const = default;
    };
    struct FitEntry
    {
        FitKey key;
        core::LinearPowerModel model;
        double rmseW = 0;
    };
    // Leaked on purpose: keeps the cache valid during static
    // destruction of late global objects.
    static std::vector<FitEntry> &cache = *new std::vector<FitEntry>;

    FitKey key{machine, kind, cfg};
    for (const FitEntry &entry : cache) {
        if (entry.key == key) {
            if (rmse_w != nullptr)
                *rmse_w = entry.rmseW;
            return entry.model;
        }
    }
    core::Calibrator calibrator = calibrateMachine(machine, cfg);
    double rmse = 0;
    core::LinearPowerModel model = calibrator.fit(kind, &rmse);
    cache.push_back(FitEntry{std::move(key), model, rmse});
    if (rmse_w != nullptr)
        *rmse_w = rmse;
    return model;
}

std::vector<core::CalibrationSample>
toActiveSamples(const core::Calibrator &calibrator, double idle_w)
{
    std::vector<core::CalibrationSample> active;
    active.reserve(calibrator.samples().size());
    for (core::CalibrationSample s : calibrator.samples()) {
        s.measuredFullW -= idle_w;
        active.push_back(s);
    }
    return active;
}

} // namespace wl
} // namespace pcon
