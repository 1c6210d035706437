#include "pcon_bench.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "util/logging.h"

// Fallbacks so a hand-invoked compile still builds; the real values
// are injected by bench/CMakeLists.txt.
#ifndef PCON_BENCH_GIT_SHA
#define PCON_BENCH_GIT_SHA "unknown"
#endif
#ifndef PCON_BENCH_FLAVOR
#define PCON_BENCH_FLAVOR "unknown"
#endif

namespace pcon {
namespace bench {

namespace {

std::uint64_t
envU64(const char *name, std::uint64_t fallback)
{
    const char *v = std::getenv(name);
    if (v == nullptr || *v == '\0')
        return fallback;
    return std::strtoull(v, nullptr, 10);
}

bool
envFlag(const char *name)
{
    const char *v = std::getenv(name);
    return v != nullptr && *v != '\0' &&
        std::string(v) != "0";
}

/** Order statistic with linear interpolation over sorted values. */
double
quantileSorted(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0;
    if (sorted.size() == 1)
        return sorted[0];
    double rank =
        q * static_cast<double>(sorted.size() - 1);
    std::size_t lo = static_cast<std::size_t>(rank);
    std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

} // namespace

HarnessOptions
HarnessOptions::fromEnv()
{
    HarnessOptions opts;
    opts.quick = envFlag("PCON_BENCH_QUICK");
    if (opts.quick) {
        opts.warmupReps = 1;
        opts.measuredReps = 5;
        opts.iterShift = 3;
    }
    opts.warmupReps = envU64("PCON_BENCH_WARMUP", opts.warmupReps);
    opts.measuredReps = envU64("PCON_BENCH_REPS", opts.measuredReps);
    const char *dir = std::getenv("PCON_BENCH_JSON_DIR");
    if (dir != nullptr && *dir != '\0')
        opts.outDir = dir;
    return opts;
}

double
steadyNowNs()
{
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::uint64_t
cycleCount()
{
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#elif defined(__aarch64__)
    std::uint64_t v;
    asm volatile("mrs %0, cntvct_el0" : "=r"(v));
    return v;
#else
    return static_cast<std::uint64_t>(steadyNowNs());
#endif
}

std::uint64_t
peakRssBytes()
{
    struct rusage usage;
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0;
    // Linux reports ru_maxrss in KiB.
    return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
}

Suite::Suite(const std::string &topic, HarnessOptions opts)
    : opts_(std::move(opts))
{
    util::fatalIf(topic.empty(), "bench suite needs a topic");
    util::fatalIf(opts_.measuredReps == 0,
                  "bench protocol needs at least one repeat");
    report_.topic = topic;
    report_.buildFlavor = PCON_BENCH_FLAVOR;
    report_.gitSha = PCON_BENCH_GIT_SHA;
    report_.quick = opts_.quick;
    std::printf("[pcon-bench] topic %s (%s, %s, warmup %llu, "
                "reps %llu)\n",
                topic.c_str(), PCON_BENCH_FLAVOR,
                opts_.quick ? "quick" : "full",
                static_cast<unsigned long long>(opts_.warmupReps),
                static_cast<unsigned long long>(opts_.measuredReps));
}

perf::BenchEntry &
Suite::aggregate(perf::BenchEntry entry,
                 std::vector<double> rep_values)
{
    std::vector<double> sorted = rep_values;
    std::sort(sorted.begin(), sorted.end());
    double sum = 0;
    for (double v : sorted)
        sum += v;
    entry.reps = sorted.size();
    entry.warmupReps = opts_.warmupReps;
    entry.minValue = sorted.empty() ? 0 : sorted.front();
    entry.medianValue = quantileSorted(sorted, 0.5);
    entry.p99Value = quantileSorted(sorted, 0.99);
    entry.meanValue =
        sorted.empty() ? 0 : sum / static_cast<double>(sorted.size());
    report_.entries.push_back(std::move(entry));
    perf::BenchEntry &stored = report_.entries.back();
    std::printf("[pcon-bench]   %-36s median %12.2f %s "
                "(min %.2f, p99 %.2f, %llu x %llu)\n",
                stored.name.c_str(), stored.medianValue,
                stored.unit.c_str(), stored.minValue, stored.p99Value,
                static_cast<unsigned long long>(stored.reps),
                static_cast<unsigned long long>(stored.itersPerRep));
    return stored;
}

perf::BenchEntry &
Suite::add(const std::string &name, std::uint64_t base_iters,
           const std::function<void(std::uint64_t)> &body)
{
    std::uint64_t iters =
        std::max<std::uint64_t>(1, base_iters >> opts_.iterShift);
    for (std::uint64_t w = 0; w < opts_.warmupReps; ++w)
        body(iters);
    std::vector<double> ns_per_op;
    std::vector<double> cycles_per_op;
    for (std::uint64_t r = 0; r < opts_.measuredReps; ++r) {
        std::uint64_t c0 = cycleCount();
        double t0 = steadyNowNs();
        body(iters);
        double t1 = steadyNowNs();
        std::uint64_t c1 = cycleCount();
        ns_per_op.push_back((t1 - t0) /
                            static_cast<double>(iters));
        cycles_per_op.push_back(static_cast<double>(c1 - c0) /
                                static_cast<double>(iters));
    }
    std::sort(cycles_per_op.begin(), cycles_per_op.end());
    perf::BenchEntry entry;
    entry.name = name;
    entry.unit = "ns/op";
    entry.lowerIsBetter = true;
    entry.itersPerRep = iters;
    entry.aux.emplace_back("cycles_per_op",
                           quantileSorted(cycles_per_op, 0.5));
    return aggregate(std::move(entry), std::move(ns_per_op));
}

perf::BenchEntry &
Suite::addRate(const std::string &name, const std::string &unit,
               const std::function<double()> &body)
{
    for (std::uint64_t w = 0; w < opts_.warmupReps; ++w)
        body();
    std::vector<double> rates;
    std::vector<double> wall_ms;
    double work = 0;
    for (std::uint64_t r = 0; r < opts_.measuredReps; ++r) {
        double t0 = steadyNowNs();
        work = body();
        double t1 = steadyNowNs();
        double seconds = (t1 - t0) * 1e-9;
        rates.push_back(seconds > 0 ? work / seconds : 0);
        wall_ms.push_back((t1 - t0) * 1e-6);
    }
    std::sort(wall_ms.begin(), wall_ms.end());
    perf::BenchEntry entry;
    entry.name = name;
    entry.unit = unit;
    entry.lowerIsBetter = false;
    entry.itersPerRep = 1;
    entry.aux.emplace_back("wall_ms",
                           quantileSorted(wall_ms, 0.5));
    entry.aux.emplace_back("work_units", work);
    return aggregate(std::move(entry), std::move(rates));
}

perf::BenchEntry &
Suite::addCount(const std::string &name, const std::string &unit,
                double value, bool lower_is_better)
{
    perf::BenchEntry entry;
    entry.name = name;
    entry.unit = unit;
    entry.lowerIsBetter = lower_is_better;
    entry.timebase = perf::kTimebaseCount;
    entry.itersPerRep = 1;
    // A deterministic count has no repeat-to-repeat variation: one
    // logical observation, all statistics equal.
    return aggregate(std::move(entry), {value});
}

void
Suite::aux(const std::string &key, double value)
{
    util::fatalIf(report_.entries.empty(),
                  "aux() before any benchmark ran");
    report_.entries.back().aux.emplace_back(key, value);
}

std::string
Suite::writeJson()
{
    report_.peakRssBytes = peakRssBytes();
    std::string dir = opts_.outDir.empty() ? "." : opts_.outDir;
    std::string path = dir + "/BENCH_" + report_.topic + ".json";
    perf::writeBenchJson(report_, path);
    std::printf("[pcon-bench] wrote %s (%zu entries, peak RSS "
                "%.1f MiB)\n",
                path.c_str(), report_.entries.size(),
                static_cast<double>(report_.peakRssBytes) /
                    (1024.0 * 1024.0));
    return path;
}

int
scenarioMain(const std::string &name,
             const std::function<int()> &body)
{
    std::uint64_t warmup = envU64("PCON_BENCH_SCENARIO_WARMUP", 0);
    std::uint64_t reps = envU64("PCON_BENCH_SCENARIO_REPS", 1);
    if (reps == 0)
        reps = 1;
    for (std::uint64_t w = 0; w < warmup; ++w) {
        int rc = body();
        if (rc != 0)
            return rc;
    }
    std::vector<double> wall_ms;
    for (std::uint64_t r = 0; r < reps; ++r) {
        double t0 = steadyNowNs();
        int rc = body();
        double t1 = steadyNowNs();
        if (rc != 0)
            return rc;
        wall_ms.push_back((t1 - t0) * 1e-6);
    }
    std::vector<double> sorted = wall_ms;
    std::sort(sorted.begin(), sorted.end());
    double median = quantileSorted(sorted, 0.5);
    std::printf("\n[pcon-bench] scenario %s: median %.2f ms over "
                "%llu repeat(s) (%llu warmup)\n",
                name.c_str(), median,
                static_cast<unsigned long long>(reps),
                static_cast<unsigned long long>(warmup));

    const char *dir = std::getenv("PCON_BENCH_JSON_DIR");
    if (dir != nullptr && *dir != '\0') {
        double sum = 0;
        for (double v : sorted)
            sum += v;
        perf::BenchReport report;
        report.topic = name;
        report.buildFlavor = PCON_BENCH_FLAVOR;
        report.gitSha = PCON_BENCH_GIT_SHA;
        report.quick = envFlag("PCON_BENCH_QUICK");
        report.peakRssBytes = peakRssBytes();
        perf::BenchEntry entry;
        entry.name = "scenario.wall_ms";
        entry.unit = "ms";
        entry.lowerIsBetter = true;
        entry.itersPerRep = 1;
        entry.warmupReps = warmup;
        entry.reps = sorted.size();
        entry.minValue = sorted.front();
        entry.medianValue = median;
        entry.p99Value = quantileSorted(sorted, 0.99);
        entry.meanValue = sum / static_cast<double>(sorted.size());
        report.entries.push_back(std::move(entry));
        std::string path =
            std::string(dir) + "/BENCH_" + name + ".json";
        perf::writeBenchJson(report, path);
        std::printf("[pcon-bench] wrote %s\n", path.c_str());
    }
    return 0;
}

} // namespace bench
} // namespace pcon
