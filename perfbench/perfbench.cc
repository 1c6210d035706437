/**
 * @file
 * One seeded run of a perfbench workload, driven through the public
 * sim/hw/os/core/trace/obs/workloads APIs. run.py generates the inputs
 * file from the workload seed, starts this program once per repetition
 * and aggregates the JSON line it prints.
 *
 *   perfbench INPUTS MODE [SPANS_OUT]
 *
 * MODE is `plain` (end-to-end timing, nothing timed inside the run),
 * `instrumented` (every call into a layer's public entry points is
 * bracketed by a host-time span) or `norecal` (plain, but without the
 * online recalibrator: the baseline of the recalibration-cost estimate).
 * The instrumented run must reproduce the plain run bit for bit; the
 * fingerprint fields of the output let run.py check that.
 */

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/calibration.h"
#include "core/conditioning.h"
#include "core/container_manager.h"
#include "core/recalibration.h"
#include "hw/config.h"
#include "hw/machine.h"
#include "hw/power_meter.h"
#include "linalg/least_squares.h"
#include "obs/energy_index.h"
#include "os/kernel.h"
#include "os/request_context.h"
#include "sim/simulation.h"
#include "trace/span.h"
#include "trace/span_tracer.h"
#include "util/logging.h"
#include "util/stats.h"
#include "workloads/apps.h"
#include "workloads/client.h"
#include "workloads/experiment.h"
#include "workloads/microbench.h"

namespace {

using namespace pcon;

/** Host wall clock: spans and the per-layer timings. */
std::int64_t
hostNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Host CPU time of this (single-threaded) process: the end-to-end
 * timings. Unlike the wall clock it does not count time the process
 * spent descheduled, so other processes on the host move it less. A
 * syscall per read, so it stays off the per-span path.
 */
std::int64_t
cpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// ------------------------------------------------------------------
// Inputs

/** Simulated warm-up before the timed window (at least). */
constexpr sim::SimTime kWarmup = sim::sec(1);

/** Bound on the simulated drain after the load stops. */
constexpr sim::SimTime kDrainLimit = sim::sec(10);

/** The generated inputs: run shape plus the seeds of every RNG. */
struct Inputs
{
    std::string workload;
    long slices = 0;
    long sliceMs = 0;
    std::vector<std::uint64_t> seeds;
    /** Power-virus arrival instants (gae_recal_capped), ascending. */
    std::vector<std::int64_t> virusArrivalsUs;
};

Inputs
readInputs(const std::string &path)
{
    std::ifstream in(path);
    util::fatalIf(!in, "cannot read inputs file ", path);
    Inputs inputs;
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string key;
        if (!(fields >> key))
            continue;
        bool ok = true;
        if (key == "workload") {
            ok = static_cast<bool>(fields >> inputs.workload);
        } else if (key == "slices") {
            ok = static_cast<bool>(fields >> inputs.slices);
        } else if (key == "slice_ms") {
            ok = static_cast<bool>(fields >> inputs.sliceMs);
        } else if (key == "seeds") {
            std::uint64_t seed = 0;
            while (fields >> seed)
                inputs.seeds.push_back(seed);
        } else if (key == "virus_arrivals_us") {
            std::int64_t at = 0;
            while (fields >> at) {
                ok = ok && at >= 0 &&
                    (inputs.virusArrivalsUs.empty() ||
                     at >= inputs.virusArrivalsUs.back());
                inputs.virusArrivalsUs.push_back(at);
            }
        } else {
            util::fatal("unknown inputs key '", key, "'");
        }
        util::fatalIf(!ok, "malformed inputs line '", line, "'");
    }
    util::fatalIf(inputs.slices < 4 || inputs.sliceMs <= 0,
                  "inputs need slices >= 4 and a positive slice_ms");
    util::fatalIf(inputs.workload != "webwork_traced" &&
                      inputs.workload != "gae_recal_capped" &&
                      inputs.workload != "westmere_mix_open",
                  "unknown workload '", inputs.workload, "'");
    util::fatalIf((inputs.workload == "gae_recal_capped") !=
                      !inputs.virusArrivalsUs.empty(),
                  "virus_arrivals_us is required by, and only by, "
                  "gae_recal_capped");
    return inputs;
}

// ------------------------------------------------------------------
// Host-time spans around the calls into each layer

/** Timed boundaries. */
enum Kind : std::uint8_t {
    CoreHook,        ///< ContainerManager kernel hooks
    ConditionerHook, ///< PowerConditioner kernel hooks
    TraceHook,       ///< SpanTracer kernel hooks
    CoreCompletion,  ///< ContainerManager completion listener
    TraceCompletion, ///< SpanTracer completion listener
    ObsQuery,        ///< the per-slice EnergyIndex query set
    NumKinds,
};

const char *const kKindName[NumKinds] = {
    "core.hook",       "core.conditioner", "trace.hook",
    "core.completion", "trace.completion", "obs.query",
};

/**
 * One span per timed boundary, kept in memory while enabled: kind,
 * host start/end, the request involved (0 when none) and the
 * enclosing span (the caller), so self times can be derived at exit.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
        os::RequestId request = os::NoRequest;
        std::int32_t parent = -1;
        Kind kind = CoreHook;
    };

    /** Per-kind totals derived from the spans. */
    struct Totals
    {
        double selfNs[NumKinds] = {};
        std::uint64_t calls[NumKinds] = {};
        /** Summed duration of spans no other span encloses. */
        double topLevelNs = 0;
    };

    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    void
    begin(Kind kind, os::RequestId request)
    {
        if (!enabled_)
            return;
        Span span;
        span.kind = kind;
        span.request = request;
        span.parent = open_.empty() ? -1 : open_.back();
        open_.push_back(static_cast<std::int32_t>(spans_.size()));
        span.startNs = hostNs();
        spans_.push_back(span);
    }

    void
    end()
    {
        if (!enabled_ || open_.empty())
            return;
        spans_[static_cast<std::size_t>(open_.back())].endNs = hostNs();
        open_.pop_back();
    }

    Totals
    totals() const
    {
        Totals t;
        std::vector<double> childNs(spans_.size(), 0.0);
        for (const Span &s : spans_)
            if (s.parent >= 0)
                childNs[static_cast<std::size_t>(s.parent)] +=
                    static_cast<double>(s.endNs - s.startNs);
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            double duration = static_cast<double>(s.endNs - s.startNs);
            t.selfNs[s.kind] += duration - childNs[i];
            ++t.calls[s.kind];
            if (s.parent < 0)
                t.topLevelNs += duration;
        }
        return t;
    }

    /** Binary dump: a text header line, then fixed-size records. */
    void
    write(const std::string &path) const
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        util::fatalIf(!out, "cannot write spans file ", path);
        out << "perfbench-spans v1 records=" << spans_.size()
            << " record=int64 start_ns,int64 end_ns,uint64 request,"
               "int32 parent,int32 kind kinds=";
        for (int k = 0; k < NumKinds; ++k)
            out << (k ? "," : "") << kKindName[k];
        out << "\n";
        for (const Span &s : spans_) {
            std::int32_t kind = s.kind;
            out.write(reinterpret_cast<const char *>(&s.startNs), 8);
            out.write(reinterpret_cast<const char *>(&s.endNs), 8);
            out.write(reinterpret_cast<const char *>(&s.request), 8);
            out.write(reinterpret_cast<const char *>(&s.parent), 4);
            out.write(reinterpret_cast<const char *>(&kind), 4);
        }
        util::fatalIf(!out, "short write to spans file ", path);
    }

  private:
    bool enabled_ = false;
    /** A deque, so appending never copies the spans already kept. */
    std::deque<Span> spans_;
    std::vector<std::int32_t> open_;
};

/** RAII span around one call. */
class Timed
{
  public:
    Timed(SpanLog &log, Kind kind, os::RequestId request) : log_(log)
    {
        log_.begin(kind, request);
    }
    ~Timed() { log_.end(); }

    Timed(const Timed &) = delete;
    Timed &operator=(const Timed &) = delete;

  private:
    SpanLog &log_;
};

/** Deterministic kernel hook-call counts over the run window. */
struct HookCounts
{
    std::uint64_t switches = 0;
    std::uint64_t rebinds = 0;
    std::uint64_t samplingIrqs = 0;
    std::uint64_t io = 0;
    std::uint64_t forks = 0;
    std::uint64_t segments = 0;
    std::uint64_t actuations = 0;
};

/**
 * KernelHooks timing decorator: takes the wrapped hook set's slot in
 * the kernel's hook list (so hook order is unchanged) and brackets
 * every forwarded call with a span. The decorator of the first hook
 * set also counts calls, since the kernel broadcasts every hook to
 * every registered set.
 */
class TimedHooks : public os::KernelHooks
{
  public:
    TimedHooks(os::KernelHooks &inner, os::Kernel &kernel, SpanLog &log,
               Kind kind, HookCounts *counts)
        : inner_(inner), kernel_(kernel), log_(log), kind_(kind),
          counts_(counts)
    {}

    void
    onContextSwitch(int core, os::Task *prev, os::Task *next) override
    {
        count(&HookCounts::switches);
        os::Task *task = next != nullptr ? next : prev;
        Timed t(log_, kind_, task != nullptr ? task->context : 0);
        inner_.onContextSwitch(core, prev, next);
    }

    void
    onContextRebind(os::Task &task, os::RequestId old_ctx,
                    os::RequestId new_ctx) override
    {
        count(&HookCounts::rebinds);
        Timed t(log_, kind_, new_ctx);
        inner_.onContextRebind(task, old_ctx, new_ctx);
    }

    void
    onSamplingInterrupt(int core) override
    {
        count(&HookCounts::samplingIrqs);
        os::Task *running = kernel_.runningTask(core);
        Timed t(log_, kind_, running != nullptr ? running->context : 0);
        inner_.onSamplingInterrupt(core);
    }

    void
    onIoComplete(hw::DeviceKind device, os::RequestId context,
                 sim::SimTime busy_time, double bytes) override
    {
        count(&HookCounts::io);
        Timed t(log_, kind_, context);
        inner_.onIoComplete(device, context, busy_time, bytes);
    }

    void
    onTaskExit(os::Task &task) override
    {
        Timed t(log_, kind_, task.context);
        inner_.onTaskExit(task);
    }

    void
    onFork(os::Task &parent, os::Task &child) override
    {
        count(&HookCounts::forks);
        Timed t(log_, kind_, parent.context);
        inner_.onFork(parent, child);
    }

    void
    onSegmentReceived(os::Task &task, const os::Segment &segment) override
    {
        count(&HookCounts::segments);
        Timed t(log_, kind_, segment.context);
        inner_.onSegmentReceived(task, segment);
    }

    void
    onActuation(int core, int duty_level, int pstate) override
    {
        count(&HookCounts::actuations);
        os::Task *running = kernel_.runningTask(core);
        Timed t(log_, kind_, running != nullptr ? running->context : 0);
        inner_.onActuation(core, duty_level, pstate);
    }

  private:
    void
    count(std::uint64_t HookCounts::*field)
    {
        if (counts_ != nullptr && log_.enabled())
            ++(counts_->*field);
    }

    os::KernelHooks &inner_;
    os::Kernel &kernel_;
    SpanLog &log_;
    Kind kind_;
    HookCounts *counts_;
};

// ------------------------------------------------------------------
// Output

/** Flat JSON object writer (numbers at full precision). */
class JsonLine
{
  public:
    void num(const std::string &key, double value) { field(key, fmt(value)); }

    void
    nums(const std::string &key, const std::vector<double> &values)
    {
        std::string raw;
        for (double v : values)
            raw += (raw.empty() ? "" : ",") + fmt(v);
        field(key, "[" + raw + "]");
    }

    void
    str(const std::string &key, const std::string &value)
    {
        field(key, "\"" + value + "\"");
    }

    std::string text() const { return "{" + body_ + "}"; }

  private:
    static std::string
    fmt(double value)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g",
                      std::isfinite(value) ? value : 0.0);
        return buf;
    }

    void
    field(const std::string &key, const std::string &raw)
    {
        body_ += (body_.empty() ? "\"" : ",\"") + key + "\":" + raw;
    }

    std::string body_;
};

std::string
doubleBits(double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(bits));
    return buf;
}

/**
 * Peak resident set of this process image, from /proc/self/status.
 * (getrusage's ru_maxrss also keeps the parent's peak from before
 * exec, so it would report the launching Python process's size.)
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    util::fatal("no VmHWM in /proc/self/status");
}

double
median(std::vector<double> values)
{
    return values.empty() ? 0.0 : util::quantile(std::move(values), 0.5);
}

/** Which workload app a request type belongs to. */
std::string
appOf(const std::string &type)
{
    if (type.rfind("ww-", 0) == 0)
        return "WeBWorK";
    if (type.rfind("vosao-", 0) == 0)
        return "GAE-Vosao";
    if (type == wl::GaeHybridApp::virusType())
        return "GAE-virus";
    if (type.rfind("rsa-", 0) == 0)
        return "RSA-crypto";
    if (type == "solr")
        return "Solr";
    if (type == "stress")
        return "Stress";
    return "";
}

/**
 * Host time of one NNLS refit at the recalibrator's observed shape:
 * the offline active samples plus `online` rows built from the
 * sampler's most recent windows and the meter's readings.
 */
double
refitMicros(const std::vector<core::CalibrationSample> &offline,
            const core::ModelPowerSampler &sampler,
            const hw::PowerMeter &meter, const core::LinearPowerModel &model,
            double baseline_w, std::size_t online)
{
    std::vector<core::Metric> cols;
    for (std::size_t i = 0; i < core::NumMetrics; ++i)
        if (model.usesMetric(static_cast<core::Metric>(i)))
            cols.push_back(static_cast<core::Metric>(i));
    const auto &windows = sampler.windows();
    const auto &history = meter.history();
    online = std::min({online, windows.size(), history.size()});

    linalg::Matrix design;
    linalg::Vector target;
    auto add = [&](const core::Metrics &m, double watts) {
        linalg::Vector row;
        for (core::Metric c : cols)
            row.push_back(m.get(c));
        design.appendRow(row);
        target.push_back(watts);
    };
    for (const core::CalibrationSample &s : offline)
        add(s.metrics, s.measuredFullW);
    for (std::size_t i = 0; i < online; ++i)
        add(windows[windows.size() - online + i].metrics,
            history[history.size() - online + i].watts.value() -
                baseline_w);

    std::vector<double> micros;
    for (int rep = 0; rep < 5; ++rep) {
        std::int64_t t0 = hostNs();
        linalg::LsqResult fit =
            linalg::solveNonNegativeLeastSquares(design, target);
        micros.push_back(static_cast<double>(hostNs() - t0) / 1e3);
        util::fatalIf(fit.coefficients.size() != cols.size(),
                      "refit returned the wrong shape");
    }
    return median(micros);
}

// ------------------------------------------------------------------
// One run

enum class Mode { Plain, Instrumented, NoRecal };

int
runOnce(const Inputs &in, Mode mode, const std::string &spans_out)
{
    const bool instr = mode == Mode::Instrumented;
    const bool webwork = in.workload == "webwork_traced";
    const bool gae = in.workload == "gae_recal_capped";
    const bool westmere = in.workload == "westmere_mix_open";
    const bool recal = gae && mode != Mode::NoRecal;
    JsonLine out;
    std::vector<std::string> failures;

    // --- set-up: calibration -------------------------------------
    std::int64_t setup0 = cpuNs();
    const hw::MachineConfig mc =
        westmere ? hw::westmereConfig() : hw::sandyBridgeConfig();
    core::Calibrator calibrator = wl::calibrateMachine(mc);
    auto model = std::make_shared<core::LinearPowerModel>(
        calibrator.fit(core::ModelKind::WithChipShare));
    std::int64_t calibrated = cpuNs();

    // --- set-up: world build from public parts --------------------
    // Listener and hook registration order is identical in every
    // mode; the instrumented mode only adds host-clock brackets.
    SpanLog log;
    HookCounts counts;
    sim::Simulation sim;
    hw::Machine machine(sim, mc);
    os::RequestContextManager requests;
    os::Kernel kernel(machine, requests);

    auto bracket = [&](Kind kind) {
        if (instr)
            requests.onComplete([&log, kind](const os::RequestInfo &i) {
                log.begin(kind, i.id);
            });
    };
    auto close = [&] {
        if (instr)
            requests.onComplete([&log](const os::RequestInfo &) {
                log.end();
            });
    };

    bracket(CoreCompletion);
    core::ContainerManager manager(kernel, model);
    close();
    TimedHooks timedManager(manager, kernel, log, CoreHook, &counts);
    kernel.addHooks(instr ? static_cast<os::KernelHooks *>(&timedManager)
                          : &manager);

    // gae_recal_capped: 50 W fair conditioning + Approach-3
    // recalibration on the 1 ms on-chip meter.
    std::unique_ptr<core::PowerConditioner> conditioner;
    std::unique_ptr<TimedHooks> timedConditioner;
    std::optional<hw::PowerMeter> onChip;
    std::unique_ptr<core::ModelPowerSampler> sampler;
    std::unique_ptr<core::OnlineRecalibrator> recalibrator;
    std::vector<core::CalibrationSample> offlineActive;
    double baselineW = 0;
    std::uint64_t meterSamples = 0;
    double refitOnlineSum = 0;
    std::size_t lastOnline = 0;
    bool inRun = false;
    if (gae) {
        conditioner = std::make_unique<core::PowerConditioner>(
            kernel, manager, core::ConditionerConfig{50.0, 1});
        timedConditioner = std::make_unique<TimedHooks>(
            *conditioner, kernel, log, ConditionerHook, nullptr);
        kernel.addHooks(instr ? static_cast<os::KernelHooks *>(
                                    timedConditioner.get())
                              : conditioner.get());
        conditioner->install();
        conditioner->enable();

        onChip.emplace(machine, hw::MeterScope::Package, mc.onChipMeter);
        onChip->subscribe(
            [&meterSamples](const hw::PowerMeter::Sample &) {
                ++meterSamples;
            });
        if (recal) {
            offlineActive = wl::toActiveSamples(calibrator, model->idleW());
            baselineW =
                wl::measureIdleBaselineW(mc, hw::MeterScope::Package);
            core::RecalibratorConfig rcfg;
            rcfg.baselineW = baselineW;
            sampler = std::make_unique<core::ModelPowerSampler>(
                kernel, model, onChip->period());
            recalibrator = std::make_unique<core::OnlineRecalibrator>(
                *sampler, *onChip, model, offlineActive, rcfg);
            recalibrator->onRefit(
                [&](const core::OnlineRecalibrator::RefitEvent &e) {
                    lastOnline = e.onlineSamples;
                    if (inRun)
                        refitOnlineSum +=
                            static_cast<double>(e.onlineSamples);
                });
            sampler->start();
        }
        onChip->start();
        if (recal)
            recalibrator->start();
    }

    // webwork_traced: every request span-traced into a live index.
    trace::SpanCollector collector;
    obs::EnergyIndex index;
    std::unique_ptr<trace::SpanTracer> tracer;
    std::unique_ptr<TimedHooks> timedTracer;
    if (webwork) {
        index.attach(collector);
        bracket(TraceCompletion);
        tracer = std::make_unique<trace::SpanTracer>(kernel, manager,
                                                     collector, 0);
        close();
        tracer->traceAll();
        timedTracer = std::make_unique<TimedHooks>(*tracer, kernel, log,
                                                   TraceHook, nullptr);
        kernel.addHooks(instr ? static_cast<os::KernelHooks *>(
                                    timedTracer.get())
                              : tracer.get());
    }

    // --- deploy apps and load generators -------------------------
    std::vector<std::unique_ptr<wl::ServerApp>> apps;
    std::vector<std::unique_ptr<wl::LoadClient>> clients;
    // run.py decides how many seeds a workload gets.
    auto seed = [&in](std::size_t i) {
        util::fatalIf(i >= in.seeds.size(), in.workload, " needs more than ",
                      in.seeds.size(), " seeds");
        return in.seeds[i];
    };
    if (webwork) {
        apps.push_back(std::make_unique<wl::WeBWorKApp>(seed(0)));
        apps[0]->deploy(kernel);
        clients.push_back(std::make_unique<wl::LoadClient>(
            *apps[0], kernel,
            wl::LoadClient::forUtilization(*apps[0], kernel, 1.0,
                                           seed(1))));
    } else if (gae) {
        // Vosao's closed loop and the open-loop viruses are driven by
        // the bench itself (below): LoadClient's closed loop would also
        // resubmit on every virus completion.
        apps.push_back(std::make_unique<wl::GaeHybridApp>(seed(0)));
        apps[0]->deploy(kernel);
    } else {
        apps.push_back(std::make_unique<wl::SolrApp>(seed(0)));
        apps.push_back(std::make_unique<wl::RsaCryptoApp>(seed(1)));
        apps.push_back(std::make_unique<wl::StressApp>(seed(2)));
        for (std::size_t i = 0; i < apps.size(); ++i) {
            apps[i]->deploy(kernel);
            // ~60% utilization in total, open loop only.
            clients.push_back(std::make_unique<wl::LoadClient>(
                *apps[i], kernel,
                wl::LoadClient::forUtilization(*apps[i], kernel, 0.2,
                                               seed(3 + i))));
        }
    }

    // The bench's own completion accounting, filtered by app type.
    std::map<std::string, std::uint64_t> createdByApp;
    std::map<std::string, std::uint64_t> completedByApp;
    std::uint64_t created = 0;
    std::uint64_t completed = 0;
    std::uint64_t runCompleted = 0;
    std::vector<double> responseMs;
    sim::Rng vosaoRng(gae ? seed(1) : 1);
    bool gaeLoad = false;
    auto submit = [&](const std::string &type) {
        apps[0]->submit(requests.create(type, sim.now()), type);
    };
    auto submitVosao = [&] {
        submit(vosaoRng.chance(0.9) ? "vosao-read" : "vosao-write");
    };
    std::size_t nextVirus = 0;
    std::function<void()> virusArrival = [&] {
        if (!gaeLoad)
            return;
        submit(wl::GaeHybridApp::virusType());
        if (++nextVirus < in.virusArrivalsUs.size())
            sim.scheduleAt(sim::usec(in.virusArrivalsUs[nextVirus]),
                           virusArrival);
    };
    requests.onCreate([&](const os::RequestInfo &i) {
        std::string app = appOf(i.type);
        if (app.empty())
            return;
        ++created;
        ++createdByApp[app];
    });
    requests.onComplete([&](const os::RequestInfo &i) {
        std::string app = appOf(i.type);
        if (app.empty())
            return;
        ++completed;
        ++completedByApp[app];
        if (inRun) {
            ++runCompleted;
            responseMs.push_back(
                sim::toSeconds(i.completed - i.created) * 1e3);
        }
        if (gaeLoad && app == "GAE-Vosao")
            submitVosao();
    });
    std::int64_t built = cpuNs();

    // --- set-up: warm-up ------------------------------------------
    for (auto &client : clients)
        client->start();
    if (gae) {
        gaeLoad = true;
        for (int i = 0; i < 2 * mc.totalCores(); ++i)
            submitVosao();
        sim.scheduleAt(sim::usec(in.virusArrivalsUs[0]), virusArrival);
    }
    sim.run(sim.now() + kWarmup);
    if (recal) {
        // Approach 3 reaches its steady cost once the online ring is
        // full; when the first confident alignment lands (and so when
        // the ring starts filling) depends on the seed. Whole seconds,
        // so the run window spans whole virus-arrival strata.
        const std::size_t ring = core::RecalibratorConfig{}.maxOnlineSamples;
        for (long waited = 0;
             recalibrator->onlineSampleCount() < ring && waited < 60000;
             waited += 1000)
            sim.run(sim.now() + sim::sec(1));
        if (recalibrator->onlineSampleCount() < ring)
            failures.push_back("online ring not full after 60 s warm-up");
    }
    std::int64_t warmed = cpuNs();

    // --- run window: fixed simulated-time slices ------------------
    const sim::SimTime runStart = sim.now();
    const std::uint64_t events0 = sim.eventsExecuted();
    const double machineJ0 = machine.machineEnergyJ().value();
    const double accountedJ0 = manager.accountedEnergyJ().value();
    const std::size_t spans0 = collector.size();
    const std::uint64_t refits0 = recal ? recalibrator->refits() : 0;
    const std::uint64_t meter0 = meterSamples;
    std::vector<double> sliceNs;
    std::vector<double> queryNs;
    std::size_t pendingMax = 0;
    inRun = true;
    log.setEnabled(instr);
    const std::int64_t run0 = cpuNs();
    const std::int64_t runWall0 = hostNs();
    for (long s = 0; s < in.slices; ++s) {
        std::int64_t t0 = cpuNs();
        sim.run(sim.now() + sim::msec(in.sliceMs));
        if (webwork) {
            // The fixed live query set, once per slice.
            std::int64_t q0 = hostNs();
            Timed t(log, ObsQuery, 0);
            std::vector<os::RequestId> top = index.topRequests(10);
            (void)index.machineTotalEnergyJ(0);
            if (!top.empty())
                (void)index.rollup(top.front());
            queryNs.push_back(static_cast<double>(hostNs() - q0));
        }
        sliceNs.push_back(static_cast<double>(cpuNs() - t0));
        pendingMax = std::max(pendingMax, sim.pendingEvents());
    }
    const std::int64_t runNs = cpuNs() - run0;
    const std::int64_t runWallNs = hostNs() - runWall0;
    log.setEnabled(false);
    inRun = false;
    const sim::SimTime runSpan = sim.now() - runStart;
    const double runSpanS = sim::toSeconds(runSpan);
    const std::uint64_t runEvents = sim.eventsExecuted() - events0;
    const double activeTruthJ = machine.machineEnergyJ().value() -
        machineJ0 - mc.truth.machineIdleW * runSpanS;
    const double accountedRunJ =
        manager.accountedEnergyJ().value() - accountedJ0;
    const std::size_t runSpans = collector.size() - spans0;
    const std::uint64_t runRefits =
        recal ? recalibrator->refits() - refits0 : 0;
    const std::uint64_t runMeterSamples = meterSamples - meter0;

    // --- bounded drain --------------------------------------------
    for (auto &client : clients)
        client->stop();
    gaeLoad = false;
    for (sim::SimTime waited = 0;
         created != completed && waited < kDrainLimit;
         waited += sim::msec(100))
        sim.run(sim.now() + sim::msec(100));
    const std::uint64_t failed = created - completed;

    // --- correctness checks ---------------------------------------
    double recordsJ = 0;
    for (const core::RequestRecord &r : manager.records())
        recordsJ += r.totalEnergyJ().value();
    double liveJ = 0;
    for (const auto &[id, container] : manager.live())
        liveJ += container->totalEnergyJ().value();
    const double ledgerJ =
        recordsJ + liveJ + manager.background().totalEnergyJ().value();
    if (!(std::abs(ledgerJ - manager.accountedEnergyJ().value()) <= 1e-6))
        failures.push_back("energy conservation: records + live + "
                           "background differs from accountedEnergyJ");
    if (webwork) {
        double requestLedgerJ = recordsJ + liveJ;
        if (!(std::abs(index.totalEnergyJ().value() - requestLedgerJ) <=
              1e-6 * std::max(1.0, requestLedgerJ)))
            failures.push_back("EnergyIndex total differs from the "
                               "container ledger");
    }
    if (recal) {
        if (!recalibrator->aligned())
            failures.push_back("recalibrator never aligned");
        else if (std::llabs(recalibrator->estimatedDelay() -
                            onChip->delay()) > onChip->period())
            failures.push_back("recalibrator delay estimate off by more "
                               "than one meter period");
    }
    if (runCompleted == 0)
        failures.push_back("no request completed in the run window");
    if (!(activeTruthJ > 0))
        failures.push_back("no active energy in the run window");

    // --- output ---------------------------------------------------
    const double accountingErrorPct =
        100.0 * std::abs(accountedRunJ - activeTruthJ) / activeTruthJ;
    const double responseP99Ms =
        responseMs.empty() ? 0.0 : util::quantile(responseMs, 0.99);
    out.num("slices", static_cast<double>(in.slices));
    out.num("slice_sim_ms", static_cast<double>(in.sliceMs));
    out.num("setup_s", static_cast<double>(warmed - setup0) / 1e9);
    out.num("calibrate_s", static_cast<double>(calibrated - setup0) / 1e9);
    out.num("warmup_s", static_cast<double>(warmed - built) / 1e9);
    out.num("us_per_request",
            static_cast<double>(runNs) / 1e3 /
                static_cast<double>(std::max<std::uint64_t>(runCompleted, 1)));
    out.nums("slice_ns", sliceNs);
    out.num("peak_rss_mb", peakRssMb());
    out.num("accounting_error_pct", accountingErrorPct);
    out.num("sim_response_ms_p99", responseP99Ms);
    out.num("submitted", static_cast<double>(created));
    out.num("failed", static_cast<double>(failed));
    out.num("run_completed", static_cast<double>(runCompleted));
    out.num("run_sim_s", runSpanS);
    out.num("run_events", static_cast<double>(runEvents));
    out.num("pending_max", static_cast<double>(pendingMax));
    out.num("run_spans", static_cast<double>(runSpans));
    out.num("run_refits", static_cast<double>(runRefits));
    out.num("online_samples_per_refit",
            runRefits ? refitOnlineSum / static_cast<double>(runRefits)
                      : 0.0);
    out.num("run_meter_samples", static_cast<double>(runMeterSamples));
    out.num("obs_query_ns_p50", median(queryNs));
    for (const auto &[app, n] : createdByApp) {
        out.num("submitted." + app, static_cast<double>(n));
        out.num("completed." + app,
                static_cast<double>(completedByApp[app]));
    }
    // Zero-perturbation fingerprint: identical across modes that run
    // the same simulation (plain and instrumented).
    out.num("fp_events", static_cast<double>(sim.eventsExecuted()));
    out.num("fp_completions", static_cast<double>(completed));
    out.str("fp_accounted_j", doubleBits(manager.accountedEnergyJ().value()));
    out.str("fp_accounting_error_pct", doubleBits(accountingErrorPct));
    out.str("fp_sim_response_ms_p99", doubleBits(responseP99Ms));

    if (instr) {
        SpanLog::Totals t = log.totals();
        double perReq = static_cast<double>(runCompleted);
        for (int k = 0; k < NumKinds; ++k)
            out.num(std::string("self_us_per_request.") + kKindName[k],
                    t.selfNs[k] / 1e3 / perReq);
        out.num("core_hook_ns_per_call",
                t.calls[CoreHook] ? t.selfNs[CoreHook] /
                        static_cast<double>(t.calls[CoreHook])
                                  : 0.0);
        // Spans are on the wall clock, so the residual is too.
        out.num("residual_us_per_request",
                (static_cast<double>(runWallNs) - t.topLevelNs) / 1e3 /
                    perReq);
        out.num("switches", static_cast<double>(counts.switches));
        out.num("rebinds", static_cast<double>(counts.rebinds));
        out.num("sampling_irqs", static_cast<double>(counts.samplingIrqs));
        out.num("io", static_cast<double>(counts.io));
        out.num("forks", static_cast<double>(counts.forks));
        out.num("segments", static_cast<double>(counts.segments));
        out.num("actuations", static_cast<double>(counts.actuations));
        if (recal)
            out.num("refit_us", refitMicros(offlineActive, *sampler, *onChip,
                                            *model, baselineW, lastOnline));
        if (!spans_out.empty())
            log.write(spans_out);
    }

    std::string failureText;
    for (const std::string &f : failures)
        failureText += (failureText.empty() ? "" : "; ") + f;
    out.str("check_failures", failureText);
    std::cout << out.text() << std::endl;
    return failures.empty() ? 0 : 3;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3 || argc > 4) {
        std::cerr << "usage: perfbench INPUTS plain|instrumented|norecal "
                     "[SPANS_OUT]\n";
        return 2;
    }
    std::string mode = argv[2];
    if (mode != "plain" && mode != "instrumented" && mode != "norecal") {
        std::cerr << "unknown mode '" << mode << "'\n";
        return 2;
    }
    try {
        Inputs inputs = readInputs(argv[1]);
        if (mode == "norecal" && inputs.workload != "gae_recal_capped") {
            std::cerr << "norecal applies to gae_recal_capped only\n";
            return 2;
        }
        return runOnce(inputs,
                       mode == "plain"          ? Mode::Plain
                       : mode == "instrumented" ? Mode::Instrumented
                                                : Mode::NoRecal,
                       argc == 4 ? argv[3] : "");
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
