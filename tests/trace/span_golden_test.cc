/**
 * @file
 * Golden span-trace regression tests: a frozen two-machine scenario
 * (dispatch, fork, disk I/O, response) must render byte-for-byte
 * identical flamegraph, span-dump JSON, and Perfetto-flow fixtures.
 * Any intentional format change becomes a reviewable fixture diff;
 * regenerate with PCON_UPDATE_GOLDEN=1.
 */

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "os/kernel.h"
#include "os/socket.h"
#include "sim/simulation.h"
#include "telemetry/perfetto.h"
#include "trace/export.h"
#include "trace/span_json.h"
#include "trace/span_tracer.h"

#ifndef PCON_TEST_DATA_DIR
#error "PCON_TEST_DATA_DIR must point at the committed fixtures"
#endif

namespace pcon::trace {
namespace {

using hw::ActivityVector;
using os::Op;
using os::OpResult;
using os::ScriptedLogic;
using os::Task;
using sim::msec;

hw::MachineConfig
goldenConfig(const char *name, double core_busy_w)
{
    hw::MachineConfig cfg;
    cfg.name = name;
    cfg.chips = 1;
    cfg.coresPerChip = 2;
    cfg.freqGhz = 1.0;
    cfg.truth.machineIdleW = 10.0;
    cfg.truth.chipMaintenanceW = 4.0;
    cfg.truth.coreBusyW = core_busy_w;
    cfg.truth.insW = 2.0;
    cfg.truth.diskActiveW = 3.0;
    return cfg;
}

std::shared_ptr<core::LinearPowerModel>
goldenModel(double core_busy_w)
{
    auto model = std::make_shared<core::LinearPowerModel>();
    model->setCoefficient(core::Metric::Core, core_busy_w);
    model->setCoefficient(core::Metric::Ins, 2.0);
    model->setCoefficient(core::Metric::ChipShare, 4.0);
    model->setCoefficient(core::Metric::Disk, 3.0);
    return model;
}

/** The frozen scenario: everything simulation-clocked, no ambient
 *  randomness, so every artifact is byte-stable. */
struct GoldenArtifacts
{
    std::string flamegraph;
    std::string spanJson;
    std::string perfettoJson;
};

/**
 * Render the scenario with each machine's tracer registered after its
 * manager, or before it when `tracer_first`.
 */
GoldenArtifacts
renderGoldenSpans(bool tracer_first = false)
{
    sim::Simulation sim;
    hw::Machine front_machine(sim, goldenConfig("front", 6.0));
    hw::Machine worker_machine(sim, goldenConfig("worker", 9.0));
    os::RequestContextManager requests;
    os::Kernel front(front_machine, requests);
    os::Kernel worker(worker_machine, requests);
    core::ContainerManager front_manager(front, goldenModel(6.0));
    core::ContainerManager worker_manager(worker, goldenModel(9.0));

    SpanCollector spans;
    SpanTracer front_tracer(front, front_manager, spans, 0);
    SpanTracer worker_tracer(worker, worker_manager, spans, 1);
    front_tracer.traceAll();
    worker_tracer.traceAll();
    if (tracer_first) {
        front.addHooks(&front_tracer);
        worker.addHooks(&worker_tracer);
    }
    front.addHooks(&front_manager);
    worker.addHooks(&worker_manager);
    if (!tracer_first) {
        front.addHooks(&front_tracer);
        worker.addHooks(&worker_tracer);
    }

    telemetry::PerfettoExporter exporter(front);
    front.addHooks(&exporter);

    auto link = os::Kernel::connect(front, worker, sim::usec(200));
    os::Socket *front_sock = link.first;
    os::Socket *worker_sock = link.second;
    const ActivityVector act{1, 0, 0, 0};

    auto worker_logic = std::make_shared<ScriptedLogic>(
        std::vector<ScriptedLogic::Step>{
            [worker_sock](os::Kernel &, Task &,
                          const OpResult &) -> Op {
                return os::RecvOp{worker_sock};
            },
            [act](os::Kernel &, Task &, const OpResult &) -> Op {
                return os::ComputeOp{act, 4e6};
            },
            [act](os::Kernel &, Task &, const OpResult &) -> Op {
                auto helper = std::make_shared<ScriptedLogic>(
                    std::vector<ScriptedLogic::Step>{
                        [act](os::Kernel &, Task &,
                              const OpResult &) -> Op {
                            return os::ComputeOp{act, 2e6};
                        }});
                return os::ForkOp{helper, "helper"};
            },
            [](os::Kernel &, Task &, const OpResult &r) -> Op {
                return os::WaitChildOp{r.child};
            },
            [](os::Kernel &, Task &, const OpResult &) -> Op {
                return os::IoOp{hw::DeviceKind::Disk, 1e6};
            },
            [worker_sock](os::Kernel &, Task &,
                          const OpResult &) -> Op {
                return os::SendOp{worker_sock, 4096};
            }},
        /*loop=*/true);
    worker.spawn(worker_logic, "worker");

    os::RequestId req = requests.create("golden", sim.now());
    auto client = std::make_shared<ScriptedLogic>(
        std::vector<ScriptedLogic::Step>{
            [act](os::Kernel &, Task &, const OpResult &) -> Op {
                return os::ComputeOp{act, 3e6};
            },
            [front_sock](os::Kernel &, Task &,
                         const OpResult &) -> Op {
                return os::SendOp{front_sock, 2048};
            },
            [front_sock](os::Kernel &, Task &,
                         const OpResult &) -> Op {
                return os::RecvOp{front_sock};
            },
            [&requests, &sim, req](os::Kernel &, Task &,
                                   const OpResult &) -> Op {
                requests.complete(req, sim.now());
                return os::ExitOp{};
            }});
    front.spawn(client, "frontend", req);

    sim.run(msec(100));

    GoldenArtifacts a;
    a.flamegraph = renderFlamegraph(spans);
    a.spanJson = renderSpanJson(spans);
    exporter.finish();
    exportSpansToPerfetto(spans, exporter);
    a.perfettoJson = exporter.json();
    return a;
}

std::string
fixturePath(const char *file)
{
    return std::string(PCON_TEST_DATA_DIR) + "/" + file;
}

void
expectFixture(const std::string &rendered, const char *file)
{
    std::string path = fixturePath(file);
    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing fixture " << path
                    << " — regenerate with PCON_UPDATE_GOLDEN=1";
    std::ostringstream buf;
    buf << in.rdbuf();
    // Byte-for-byte: drift in ordering, float rendering, or lane
    // assignment is a regression (or a deliberate format change
    // that belongs in the fixture diff).
    EXPECT_EQ(rendered.size(), buf.str().size());
    ASSERT_EQ(rendered, buf.str())
        << file
        << " drifted from the committed fixture; if intentional, "
           "regenerate with PCON_UPDATE_GOLDEN=1 and commit the diff";
}

void
compareOrUpdate(const std::string &rendered, const char *file)
{
    if (std::getenv("PCON_UPDATE_GOLDEN") != nullptr) {
        std::string path = fixturePath(file);
        std::ofstream out(path, std::ios::trunc);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << rendered;
        GTEST_SKIP() << "fixture regenerated at " << path;
    }
    expectFixture(rendered, file);
}

TEST(GoldenSpans, FlamegraphMatchesFixtureByteForByte)
{
    compareOrUpdate(renderGoldenSpans().flamegraph,
                    "golden_flamegraph.txt");
}

TEST(GoldenSpans, SpanDumpMatchesFixtureByteForByte)
{
    compareOrUpdate(renderGoldenSpans().spanJson,
                    "golden_span_dump.json");
}

TEST(GoldenSpans, PerfettoFlowsMatchFixtureByteForByte)
{
    compareOrUpdate(renderGoldenSpans().perfettoJson,
                    "golden_span_perfetto.json");
}

/** Registration order is not part of the output: tracers ahead of
 *  their managers render the committed fixtures too. */
TEST(GoldenSpans, TracerRegisteredFirstMatchesTheFixtures)
{
    GoldenArtifacts a = renderGoldenSpans(/*tracer_first=*/true);
    expectFixture(a.flamegraph, "golden_flamegraph.txt");
    expectFixture(a.spanJson, "golden_span_dump.json");
    expectFixture(a.perfettoJson, "golden_span_perfetto.json");
}

TEST(GoldenSpans, RenderIsDeterministicWithinProcess)
{
    GoldenArtifacts a = renderGoldenSpans();
    GoldenArtifacts b = renderGoldenSpans();
    EXPECT_EQ(a.flamegraph, b.flamegraph);
    EXPECT_EQ(a.spanJson, b.spanJson);
    EXPECT_EQ(a.perfettoJson, b.perfettoJson);
}

} // namespace
} // namespace pcon::trace
