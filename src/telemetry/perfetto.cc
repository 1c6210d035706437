#include "perfetto.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "os/task.h"
#include "util/json.h"
#include "util/logging.h"

namespace pcon {
namespace telemetry {

namespace {

/** Nanoseconds -> trace-event microseconds (3 exact decimals). */
std::string
tsJson(sim::SimTime ns)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.3f",
                  static_cast<double>(ns) / 1000.0);
    return buf;
}

constexpr std::int32_t kPidCores = 1;
constexpr std::int32_t kPidContainers = 2;
constexpr std::int32_t kPidDevices = 3;
constexpr std::int32_t kPidRecal = 4;
constexpr std::int32_t kPidFaults = 5;
constexpr std::int32_t kPidJournal = 6;
/** Span process for machine M is pid kPidSpansBase + M. */
constexpr std::int32_t kPidSpansBase = 10;

} // namespace

PerfettoExporter::PerfettoExporter(os::Kernel &kernel,
                                   const PerfettoConfig &cfg)
    : kernel_(kernel), cfg_(cfg),
      open_(static_cast<std::size_t>(kernel.machine().totalCores()))
{}

bool
PerfettoExporter::full() const
{
    return cfg_.maxEvents != 0 && events_.size() >= cfg_.maxEvents;
}

void
PerfettoExporter::push(Event e)
{
    if (full())
        return;
    events_.push_back(std::move(e));
}

void
PerfettoExporter::closeSlice(int core, sim::SimTime end)
{
    OpenSlice &slice = open_[static_cast<std::size_t>(core)];
    if (!slice.open)
        return;
    Event e;
    e.phase = Event::Phase::Slice;
    e.ts = slice.start;
    e.dur = end - slice.start;
    e.pid = kPidCores;
    e.tid = core;
    e.name = slice.name;
    e.argName = "ctx";
    e.argValue = static_cast<double>(slice.context);
    e.hasArg = true;
    push(std::move(e));
    ++slices_;
    slice.open = false;
}

void
PerfettoExporter::onContextSwitch(int core, os::Task *prev,
                                  os::Task *next)
{
    sim::SimTime now = kernel_.simulation().now();
    if (prev != nullptr)
        closeSlice(core, now);
    if (next != nullptr) {
        OpenSlice &slice = open_[static_cast<std::size_t>(core)];
        slice.open = true;
        slice.start = now;
        slice.name = next->name;
        slice.context = next->context;
    }
}

void
PerfettoExporter::onContextRebind(os::Task &task,
                                  os::RequestId old_ctx,
                                  os::RequestId new_ctx)
{
    (void)old_ctx;
    Event e;
    e.phase = Event::Phase::Instant;
    e.ts = kernel_.simulation().now();
    e.pid = kPidCores;
    e.tid = task.core >= 0 ? task.core : 0;
    e.name = "rebind " + task.name;
    e.argName = "ctx";
    e.argValue = static_cast<double>(new_ctx);
    e.hasArg = true;
    push(std::move(e));
    ++instants_;
    // A rebind of the running task also splits its slice so the new
    // binding is visible on the core track.
    if (task.core >= 0) {
        OpenSlice &slice = open_[static_cast<std::size_t>(task.core)];
        if (slice.open && slice.name == task.name) {
            sim::SimTime now = kernel_.simulation().now();
            closeSlice(task.core, now);
            slice.open = true;
            slice.start = now;
            slice.name = task.name;
            slice.context = new_ctx;
        }
    }
}

void
PerfettoExporter::onIoComplete(hw::DeviceKind device,
                               os::RequestId context,
                               sim::SimTime busy_time, double bytes)
{
    (void)busy_time;
    Event e;
    e.phase = Event::Phase::Instant;
    e.ts = kernel_.simulation().now();
    e.pid = kPidDevices;
    e.tid = device == hw::DeviceKind::Disk ? 0 : 1;
    e.name = "io ctx=" + std::to_string(context);
    e.argName = "bytes";
    e.argValue = bytes;
    e.hasArg = true;
    push(std::move(e));
    ++instants_;
}

void
PerfettoExporter::onActuation(int core, int duty_level, int pstate)
{
    std::string base = "core" + std::to_string(core);
    Event duty;
    duty.phase = Event::Phase::Counter;
    duty.ts = kernel_.simulation().now();
    duty.pid = kPidCores;
    duty.name = base + ".duty";
    duty.argName = "level";
    duty.argValue = duty_level;
    duty.hasArg = true;
    counterTracks_.emplace(duty.name, true);
    push(std::move(duty));
    Event ps;
    ps.phase = Event::Phase::Counter;
    ps.ts = kernel_.simulation().now();
    ps.pid = kPidCores;
    ps.name = base + ".pstate";
    ps.argName = "pstate";
    ps.argValue = pstate;
    ps.hasArg = true;
    counterTracks_.emplace(ps.name, true);
    push(std::move(ps));
    counters_ += 2;
}

void
PerfettoExporter::samplePower(core::ContainerManager &manager)
{
    sim::SimTime now = kernel_.simulation().now();
    // Sorted id order keeps the trace byte-identical across runs
    // (live() is an unordered map).
    std::vector<os::RequestId> ids;
    ids.reserve(manager.live().size() + 1);
    ids.push_back(manager.background().id());
    // pcon-lint: allow(unordered-iteration) sorted before use
    for (const auto &kv : manager.live())
        ids.push_back(kv.first);
    std::sort(ids.begin(), ids.end());
    for (os::RequestId id : ids) {
        core::PowerContainer &c = manager.containerOrBackground(id);
        std::string base = "container." + std::to_string(id);
        containersSeen_.emplace(id, c.type());
        Event power;
        power.phase = Event::Phase::Counter;
        power.ts = now;
        power.pid = kPidContainers;
        power.name = base + ".power_w";
        power.argName = "w";
        power.argValue = c.lastPowerW().value();
        power.hasArg = true;
        counterTracks_.emplace(power.name, true);
        push(std::move(power));
        Event energy;
        energy.phase = Event::Phase::Counter;
        energy.ts = now;
        energy.pid = kPidContainers;
        energy.name = base + ".energy_j";
        energy.argName = "j";
        energy.argValue = c.totalEnergyJ().value();
        energy.hasArg = true;
        counterTracks_.emplace(energy.name, true);
        push(std::move(energy));
        counters_ += 2;
    }
}

void
PerfettoExporter::noteRefit(std::uint64_t refit_index,
                            std::size_t online_samples)
{
    Event e;
    e.phase = Event::Phase::Instant;
    e.ts = kernel_.simulation().now();
    e.pid = kPidRecal;
    e.tid = 0;
    e.name = "refit " + std::to_string(refit_index);
    e.argName = "online_samples";
    e.argValue = static_cast<double>(online_samples);
    e.hasArg = true;
    push(std::move(e));
    ++instants_;
}

void
PerfettoExporter::noteFault(const std::string &kind, double magnitude)
{
    Event e;
    e.phase = Event::Phase::Instant;
    e.ts = kernel_.simulation().now();
    e.pid = kPidFaults;
    e.tid = 0;
    e.name = kind;
    e.argName = "magnitude";
    e.argValue = magnitude;
    e.hasArg = true;
    push(std::move(e));
    ++instants_;
    ++faults_;
}

void
PerfettoExporter::noteJournal(sim::SimTime ts,
                              const std::string &label, double value)
{
    Event e;
    e.phase = Event::Phase::Instant;
    e.ts = ts;
    e.pid = kPidJournal;
    e.tid = 0;
    e.name = label;
    e.argName = "value";
    e.argValue = value;
    e.hasArg = true;
    push(std::move(e));
    ++instants_;
    ++journal_;
}

void
PerfettoExporter::addSpanSlice(int machine, int lane,
                               sim::SimTime start, sim::SimTime dur,
                               const std::string &name,
                               const std::string &arg_name,
                               double arg_value)
{
    Event e;
    e.phase = Event::Phase::Slice;
    e.ts = start;
    e.dur = dur;
    e.pid = kPidSpansBase + machine;
    e.tid = lane;
    e.name = name;
    e.category = "span";
    e.argName = arg_name;
    e.argValue = arg_value;
    e.hasArg = !arg_name.empty();
    push(std::move(e));
    ++spanSlices_;
    int &lanes = spanLanes_[machine];
    lanes = std::max(lanes, lane + 1);
}

void
PerfettoExporter::addSpanFlow(std::uint64_t flow_id, bool start,
                              int machine, int lane, sim::SimTime ts)
{
    Event e;
    e.phase = start ? Event::Phase::FlowStart
                    : Event::Phase::FlowFinish;
    e.ts = ts;
    e.pid = kPidSpansBase + machine;
    e.tid = lane;
    e.name = "span_link";
    e.flowId = flow_id;
    push(std::move(e));
    ++flows_;
    int &lanes = spanLanes_[machine];
    lanes = std::max(lanes, lane + 1);
}

void
PerfettoExporter::finish()
{
    sim::SimTime now = kernel_.simulation().now();
    for (int core = 0; core < static_cast<int>(open_.size()); ++core)
        closeSlice(core, now);
}

std::size_t
PerfettoExporter::trackCount() const
{
    // Cores + disk + net + recalibration thread tracks, plus the
    // faults and journal tracks when used, plus one counter track
    // per distinct counter name, plus one lane track per span
    // machine when spans were exported.
    std::size_t span_lanes = 0;
    for (const auto &kv : spanLanes_)
        span_lanes += static_cast<std::size_t>(kv.second);
    return open_.size() + 2 + 1 + (faults_ > 0 ? 1 : 0) +
        (journal_ > 0 ? 1 : 0) + counterTracks_.size() + span_lanes;
}

std::string
PerfettoExporter::json() const
{
    std::ostringstream out;
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    auto emit = [&](const std::string &obj) {
        if (!first)
            out << ",\n";
        first = false;
        out << obj;
    };

    auto meta = [&](const char *what, std::int32_t pid,
                    std::int32_t tid, bool has_tid,
                    const std::string &name) {
        std::ostringstream m;
        m << "{\"name\":\"" << what << "\",\"ph\":\"M\",\"pid\":"
          << pid;
        if (has_tid)
            m << ",\"tid\":" << tid;
        m << ",\"args\":{\"name\":\"" << util::jsonEscape(name) << "\"}}";
        emit(m.str());
    };

    meta("process_name", kPidCores, 0, false, "cores");
    meta("process_name", kPidContainers, 0, false, "containers");
    meta("process_name", kPidDevices, 0, false, "devices");
    meta("process_name", kPidRecal, 0, false, "recalibration");
    for (std::size_t core = 0; core < open_.size(); ++core)
        meta("thread_name", kPidCores,
             static_cast<std::int32_t>(core), true,
             "core" + std::to_string(core));
    meta("thread_name", kPidDevices, 0, true, "disk");
    meta("thread_name", kPidDevices, 1, true, "net");
    meta("thread_name", kPidRecal, 0, true, "refits");
    if (faults_ > 0) {
        meta("process_name", kPidFaults, 0, false, "faults");
        meta("thread_name", kPidFaults, 0, true, "injected");
    }
    if (journal_ > 0) {
        meta("process_name", kPidJournal, 0, false, "journal");
        meta("thread_name", kPidJournal, 0, true, "records");
    }
    for (const auto &kv : spanLanes_) {
        std::int32_t pid = kPidSpansBase + kv.first;
        meta("process_name", pid, 0, false,
             "machine" + std::to_string(kv.first) + ".spans");
        for (int lane = 0; lane < kv.second; ++lane)
            meta("thread_name", pid, lane, true,
                 "lane" + std::to_string(lane));
    }

    for (const Event &e : events_) {
        std::ostringstream obj;
        obj << "{\"name\":\"" << util::jsonEscape(e.name) << "\"";
        switch (e.phase) {
          case Event::Phase::Slice:
            obj << ",\"cat\":\""
                << (e.category.empty() ? "sched" : e.category)
                << "\",\"ph\":\"X\",\"ts\":"
                << tsJson(e.ts) << ",\"dur\":" << tsJson(e.dur)
                << ",\"pid\":" << e.pid << ",\"tid\":" << e.tid;
            break;
          case Event::Phase::Instant:
            obj << ",\"cat\":\"event\",\"ph\":\"i\",\"ts\":"
                << tsJson(e.ts) << ",\"pid\":" << e.pid
                << ",\"tid\":" << e.tid << ",\"s\":\"t\"";
            break;
          case Event::Phase::Counter:
            obj << ",\"ph\":\"C\",\"ts\":" << tsJson(e.ts)
                << ",\"pid\":" << e.pid;
            break;
          case Event::Phase::FlowStart:
            obj << ",\"cat\":\"span\",\"ph\":\"s\",\"id\":"
                << e.flowId << ",\"ts\":" << tsJson(e.ts)
                << ",\"pid\":" << e.pid << ",\"tid\":" << e.tid;
            break;
          case Event::Phase::FlowFinish:
            obj << ",\"cat\":\"span\",\"ph\":\"f\",\"bp\":\"e\","
                << "\"id\":" << e.flowId << ",\"ts\":"
                << tsJson(e.ts) << ",\"pid\":" << e.pid
                << ",\"tid\":" << e.tid;
            break;
        }
        if (e.hasArg)
            obj << ",\"args\":{\"" << e.argName
                << "\":" << util::jsonNumber(e.argValue) << "}";
        obj << "}";
        emit(obj.str());
    }
    out << "]}";
    return out.str();
}

void
PerfettoExporter::write(const std::string &path) const
{
    std::ofstream out(path, std::ios::trunc);
    util::fatalIf(!out, "cannot open '", path, "' for writing");
    out << json() << "\n";
}

} // namespace telemetry
} // namespace pcon
