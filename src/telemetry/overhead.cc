#include "overhead.h"

// Host-side self-measurement; results feed telemetry histograms
// only, never simulation state.
#include <chrono>

#include <string>

#include "linalg/least_squares.h"
#include "linalg/matrix.h"
#include "util/logging.h"

namespace pcon {
namespace telemetry {

namespace {

/** Cycle-scale bucket bounds shared by all overhead histograms. */
std::vector<double>
cycleBounds()
{
    return {50,    100,   200,    500,    1000,   2000,  5000,
            10000, 20000, 50000,  100000, 500000, 1e6};
}

} // namespace

OverheadProfiler::HookCost
OverheadProfiler::makeCost(Registry &registry, const char *cls,
                           Histogram *hist)
{
    HookCost cost;
    std::string base = std::string("perf.") + cls;
    cost.calls = &registry.counter(base + ".calls");
    cost.cycles = &registry.counter(base + ".cycles");
    cost.hist = hist;
    return cost;
}

OverheadProfiler::OverheadProfiler(Registry &registry,
                                   double cpu_freq_hz)
    : cyclesPerNs_(cpu_freq_hz * 1e-9)
{
    util::fatalIf(cpu_freq_hz <= 0, "cpu frequency must be positive");
    calls_ = &registry.counter("overhead.hook_calls");
    switchCost_ = makeCost(
        registry, "context_switch",
        &registry.histogram("overhead.context_switch_cycles",
                            cycleBounds()));
    windowCost_ = makeCost(
        registry, "sampling_window",
        &registry.histogram("overhead.sampling_window_cycles",
                            cycleBounds()));
    rebindCost_ = makeCost(
        registry, "context_rebind",
        &registry.histogram("overhead.rebind_cycles", cycleBounds()));
    ioCost_ = makeCost(
        registry, "io_complete",
        &registry.histogram("overhead.io_complete_cycles",
                            cycleBounds()));
    taskExitCost_ = makeCost(registry, "task_exit", nullptr);
    forkCost_ = makeCost(registry, "fork", nullptr);
    segmentCost_ = makeCost(registry, "segment_received", nullptr);
    actuationCost_ = makeCost(
        registry, "actuation",
        &registry.histogram("overhead.actuation_cycles",
                            cycleBounds()));
    refitCost_ = makeCost(
        registry, "refit",
        &registry.histogram("overhead.refit_cycles", cycleBounds()));
}

void
OverheadProfiler::wrap(os::KernelHooks *inner)
{
    util::fatalIf(inner == nullptr, "wrap(nullptr)");
    util::fatalIf(inner == this, "profiler cannot wrap itself");
    inner_.push_back(inner);
}

template <typename F>
void
OverheadProfiler::timed(HookCost &cost, F &&fn)
{
    // Measures this implementation's bookkeeping cost only; the
    // result never alters simulation state.
    calls_->add();
    cost.calls->add();
    // pcon-lint: allow(wall-clock) host monotonic clock; telemetry-only
    auto start = std::chrono::steady_clock::now();
    fn();
    // pcon-lint: allow(wall-clock) host monotonic clock; see above
    auto end = std::chrono::steady_clock::now();
    double ns = static_cast<double>(
        // pcon-lint: allow(wall-clock) the two host reads' difference
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
            .count());
    double cycles = ns * cyclesPerNs_;
    cost.cycles->add(
        static_cast<std::uint64_t>(cycles < 0 ? 0 : cycles));
    if (cost.hist != nullptr)
        cost.hist->observe(cycles);
}

void
OverheadProfiler::onContextSwitch(int core, os::Task *prev,
                                  os::Task *next)
{
    timed(switchCost_, [&] {
        for (os::KernelHooks *h : inner_)
            h->onContextSwitch(core, prev, next);
    });
}

void
OverheadProfiler::onContextRebind(os::Task &task,
                                  os::RequestId old_ctx,
                                  os::RequestId new_ctx)
{
    timed(rebindCost_, [&] {
        for (os::KernelHooks *h : inner_)
            h->onContextRebind(task, old_ctx, new_ctx);
    });
}

void
OverheadProfiler::onSamplingInterrupt(int core)
{
    timed(windowCost_, [&] {
        for (os::KernelHooks *h : inner_)
            h->onSamplingInterrupt(core);
    });
}

void
OverheadProfiler::onIoComplete(hw::DeviceKind device,
                               os::RequestId context,
                               sim::SimTime busy_time, double bytes)
{
    timed(ioCost_, [&] {
        for (os::KernelHooks *h : inner_)
            h->onIoComplete(device, context, busy_time, bytes);
    });
}

void
OverheadProfiler::onTaskExit(os::Task &task)
{
    timed(taskExitCost_, [&] {
        for (os::KernelHooks *h : inner_)
            h->onTaskExit(task);
    });
}

void
OverheadProfiler::onFork(os::Task &parent, os::Task &child)
{
    timed(forkCost_, [&] {
        for (os::KernelHooks *h : inner_)
            h->onFork(parent, child);
    });
}

void
OverheadProfiler::onSegmentReceived(os::Task &task,
                                    const os::Segment &segment)
{
    timed(segmentCost_, [&] {
        for (os::KernelHooks *h : inner_)
            h->onSegmentReceived(task, segment);
    });
}

void
OverheadProfiler::onActuation(int core, int duty_level, int pstate)
{
    timed(actuationCost_, [&] {
        for (os::KernelHooks *h : inner_)
            h->onActuation(core, duty_level, pstate);
    });
}

void
OverheadProfiler::profileRefit(std::size_t rows, std::size_t features,
                               int repetitions)
{
    util::fatalIf(rows == 0 || features == 0,
                  "refit profile needs a non-empty problem");
    // A deterministic, well-conditioned synthetic problem of the
    // requested shape; only the host time to solve it is recorded.
    linalg::Matrix design;
    linalg::Vector target;
    for (std::size_t r = 0; r < rows; ++r) {
        linalg::Vector row;
        row.reserve(features);
        double acc = 0;
        for (std::size_t f = 0; f < features; ++f) {
            double v = 0.1 +
                static_cast<double>((r * 31 + f * 17) % 97) / 97.0;
            row.push_back(v);
            acc += v * (1.0 + static_cast<double>(f));
        }
        design.appendRow(row);
        target.push_back(acc);
    }
    for (int i = 0; i < repetitions; ++i) {
        timed(refitCost_, [&] {
            linalg::LsqResult fit =
                linalg::solveNonNegativeLeastSquares(design, target);
            (void)fit;
        });
    }
}

} // namespace telemetry
} // namespace pcon
