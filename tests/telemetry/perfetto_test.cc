#include <cctype>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/container_manager.h"
#include "os/kernel.h"
#include "sim/simulation.h"
#include "telemetry/perfetto.h"

namespace pcon::telemetry {
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

/**
 * A minimal JSON validity checker: recursive descent over the full
 * grammar, accepting iff the whole input is one JSON value. Enough to
 * guarantee ui.perfetto.dev's parser will not reject the trace for
 * syntax.
 */
class JsonChecker
{
  public:
    explicit JsonChecker(std::string text) : s_(std::move(text)) {}

    bool valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos_ == s_.size();
    }

  private:
    bool value()
    {
        if (pos_ >= s_.size())
            return false;
        switch (s_[pos_]) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default: return number();
        }
    }

    bool object()
    {
        ++pos_; // '{'
        skipWs();
        if (peek() == '}') { ++pos_; return true; }
        while (true) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++pos_;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == '}') { ++pos_; return true; }
            return false;
        }
    }

    bool array()
    {
        ++pos_; // '['
        skipWs();
        if (peek() == ']') { ++pos_; return true; }
        while (true) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == ']') { ++pos_; return true; }
            return false;
        }
    }

    bool string()
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (s_[pos_] == '\\') {
                ++pos_;
                if (pos_ >= s_.size())
                    return false;
            }
            ++pos_;
        }
        if (pos_ >= s_.size())
            return false;
        ++pos_; // closing quote
        return true;
    }

    bool number()
    {
        std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (std::isdigit(peek()))
            ++pos_;
        if (peek() == '.') {
            ++pos_;
            while (std::isdigit(peek()))
                ++pos_;
        }
        if (peek() == 'e' || peek() == 'E') {
            ++pos_;
            if (peek() == '+' || peek() == '-')
                ++pos_;
            while (std::isdigit(peek()))
                ++pos_;
        }
        return pos_ > start;
    }

    bool literal(const char *word)
    {
        for (const char *p = word; *p != '\0'; ++p, ++pos_)
            if (pos_ >= s_.size() || s_[pos_] != *p)
                return false;
        return true;
    }

    void skipWs()
    {
        while (pos_ < s_.size() && std::isspace(
                   static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

    const std::string s_;
    std::size_t pos_ = 0;
};

std::size_t
countOccurrences(const std::string &text, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + needle.size()))
        ++n;
    return n;
}

struct PerfettoWorld
{
    sim::Simulation sim;
    hw::Machine machine;
    os::RequestContextManager requests;
    os::Kernel kernel;
    std::shared_ptr<core::LinearPowerModel> model;
    core::ContainerManager manager;
    PerfettoExporter perfetto;

    PerfettoWorld()
        : machine(sim, config()), kernel(machine, requests),
          model(makeModel()), manager(kernel, model, {}),
          perfetto(kernel)
    {
        kernel.addHooks(&manager);
        kernel.addHooks(&perfetto);
    }

    static hw::MachineConfig
    config()
    {
        hw::MachineConfig cfg;
        cfg.name = "perfetto";
        cfg.chips = 1;
        cfg.coresPerChip = 2;
        cfg.freqGhz = 1.0;
        cfg.truth.machineIdleW = 10.0;
        cfg.truth.chipMaintenanceW = 4.0;
        cfg.truth.coreBusyW = 6.0;
        cfg.truth.insW = 2.0;
        cfg.truth.diskActiveW = 3.0;
        return cfg;
    }

    static std::shared_ptr<core::LinearPowerModel>
    makeModel()
    {
        auto model = std::make_shared<core::LinearPowerModel>();
        model->setCoefficient(core::Metric::Core, 6.0);
        model->setCoefficient(core::Metric::Ins, 2.0);
        model->setCoefficient(core::Metric::ChipShare, 4.0);
        model->setCoefficient(core::Metric::Disk, 3.0);
        return model;
    }

    /** Compute, fork a child (context rebind), wait, then disk I/O. */
    static std::shared_ptr<os::TaskLogic>
    forkAndIo()
    {
        auto child = std::make_shared<ScriptedLogic>(
            std::vector<ScriptedLogic::Step>{
                [](os::Kernel &, Task &, const OpResult &) -> Op {
                    return ComputeOp{ActivityVector{1, 0, 0, 0}, 2e6};
                }});
        return std::make_shared<ScriptedLogic>(
            std::vector<ScriptedLogic::Step>{
                [](os::Kernel &, Task &, const OpResult &) -> Op {
                    return ComputeOp{ActivityVector{1, 0, 0, 0}, 3e6};
                },
                [child](os::Kernel &, Task &, const OpResult &) -> Op {
                    return os::ForkOp{child, "child"};
                },
                [](os::Kernel &, Task &, const OpResult &r) -> Op {
                    return os::WaitChildOp{r.child};
                },
                [](os::Kernel &, Task &, const OpResult &) -> Op {
                    return os::IoOp{hw::DeviceKind::Disk, 5e5};
                }});
    }

    /** The golden deterministic two-request scenario. */
    std::string
    runGolden()
    {
        RequestId a = requests.create("req_a", sim.now());
        RequestId b = requests.create("req_b", sim.now());
        os::TaskId ta = kernel.spawn(forkAndIo(), "stage_a", a, 0);
        kernel.spawn(forkAndIo(), "stage_b", b, 1);
        // An explicit rebind mid-run (stage handoff) for the trace.
        sim.schedule(msec(1),
                     [this, ta, b] { kernel.bindContext(ta, b); });
        sim.schedule(msec(1), [this] { kernel.setDutyLevel(0, 4); });
        sim.schedule(msec(2), [this] { perfetto.samplePower(manager); });
        sim.schedule(msec(3), [this] { perfetto.noteRefit(1, 16); });
        sim.run(sec(1));
        perfetto.finish();
        return perfetto.json();
    }
};

TEST(PerfettoExporter, GoldenTwoRequestTraceIsValidJson)
{
    PerfettoWorld w;
    std::string json = w.runGolden();
    JsonChecker checker(json);
    EXPECT_TRUE(checker.valid()) << json.substr(0, 400);
}

TEST(PerfettoExporter, GoldenTraceHasExpectedTracksAndEvents)
{
    PerfettoWorld w;
    std::string json = w.runGolden();

    // Scheduling produced completed slices on both cores, the forks
    // produced rebind instants, the disk I/Os produced device
    // instants, and the scripted actuation/power/refit calls produced
    // counters and a refit marker.
    EXPECT_GT(w.perfetto.sliceCount(), 0u);
    EXPECT_GT(w.perfetto.instantCount(), 0u);
    EXPECT_GT(w.perfetto.counterCount(), 0u);
    EXPECT_EQ(w.perfetto.eventCount(),
              w.perfetto.sliceCount() + w.perfetto.instantCount() +
                  w.perfetto.counterCount());

    // Tracks: 2 cores + disk + net + refits, plus counter tracks
    // core0.duty, core0.pstate, and power_w/energy_j for the
    // background container (no request container was live at the 2ms
    // power sample or both were: either way >= 2 container tracks).
    EXPECT_GE(w.perfetto.trackCount(), 2u + 2u + 1u + 4u);

    // Track metadata is declared exactly once per process/thread.
    EXPECT_EQ(countOccurrences(json, "\"process_name\""), 4u);
    EXPECT_EQ(countOccurrences(json, "\"name\":\"core0\""), 1u);
    EXPECT_EQ(countOccurrences(json, "\"name\":\"core1\""), 1u);
    EXPECT_EQ(countOccurrences(json, "\"name\":\"disk\""), 1u);
    EXPECT_EQ(countOccurrences(json, "\"name\":\"net\""), 1u);
    EXPECT_EQ(countOccurrences(json, "\"name\":\"refits\""), 1u);

    // Event phases present in the payload.
    EXPECT_EQ(countOccurrences(json, "\"ph\":\"X\""),
              w.perfetto.sliceCount());
    EXPECT_EQ(countOccurrences(json, "\"ph\":\"i\""),
              w.perfetto.instantCount());
    EXPECT_EQ(countOccurrences(json, "\"ph\":\"C\""),
              w.perfetto.counterCount());

    // The named actors appear: both stages, the forked children, the
    // duty/pstate counters and the refit marker.
    EXPECT_GT(countOccurrences(json, "\"name\":\"stage_a\""), 0u);
    EXPECT_GT(countOccurrences(json, "\"name\":\"stage_b\""), 0u);
    EXPECT_GT(countOccurrences(json, "rebind"), 0u);
    EXPECT_EQ(countOccurrences(json, "\"name\":\"core0.duty\""), 1u);
    EXPECT_EQ(countOccurrences(json, "\"name\":\"core0.pstate\""), 1u);
    EXPECT_EQ(countOccurrences(json, "\"name\":\"refit 1\""), 1u);
    EXPECT_GT(countOccurrences(json, ".power_w"), 0u);
    EXPECT_GT(countOccurrences(json, ".energy_j"), 0u);
}

TEST(PerfettoExporter, GoldenTraceIsByteIdenticalAcrossRuns)
{
    PerfettoWorld w1;
    PerfettoWorld w2;
    EXPECT_EQ(w1.runGolden(), w2.runGolden());
}

TEST(PerfettoExporter, TraceWithoutEventsStillParses)
{
    // The exporter is never registered as hooks, so it sees no
    // event while the workload runs.
    sim::Simulation sim;
    hw::Machine machine(sim, PerfettoWorld::config());
    os::RequestContextManager requests;
    os::Kernel kernel(machine, requests);
    PerfettoExporter exporter(kernel);
    RequestId r = requests.create("r", sim.now());
    kernel.spawn(PerfettoWorld::forkAndIo(), "t", r, 0);
    sim.schedule(msec(1), [&] { kernel.setDutyLevel(0, 2); });
    sim.run(sec(1));
    exporter.finish();
    EXPECT_EQ(exporter.eventCount(), 0u);
    JsonChecker checker(exporter.json());
    // Metadata-only traces must still parse.
    EXPECT_TRUE(checker.valid()) << exporter.json();
}

TEST(PerfettoExporter, MaxEventsCapStopsRecordingSilently)
{
    PerfettoConfig cfg;
    cfg.maxEvents = 4;
    PerfettoWorld w;
    PerfettoExporter capped(w.kernel, cfg);
    w.kernel.addHooks(&capped);
    RequestId r = w.requests.create("r", w.sim.now());
    w.kernel.spawn(PerfettoWorld::forkAndIo(), "t", r, 0);
    w.sim.run(sec(1));
    capped.finish();
    EXPECT_LE(capped.eventCount(), 4u);
    JsonChecker checker(capped.json());
    EXPECT_TRUE(checker.valid());
}

} // namespace
} // namespace pcon::telemetry
