/**
 * @file
 * Live introspection demo (and the obs-plane smoke test): one
 * machine runs a mix of heavy "checkout" and light "browse"
 * requests while every obs-plane surface watches in real time —
 * an EnergyIndex subscribed to the span collector answers energy
 * queries mid-run, a WatchdogSet driven by sampler snapshots
 * polices a deliberately low power cap, and the Journal records
 * what fired and when.
 *
 * The demo then checks the plane's guarantees and exits nonzero if
 * any fails:
 *
 *  - live index totals match the collector's own per-request sums
 *    exactly (same floating-point additions, not approximately);
 *  - the ranking puts a heavy checkout above every browse, and the
 *    quota view flags checkouts over a budget browses fit inside;
 *  - the watchdog's cap episode fired: alerts journaled, the
 *    obs.watchdog.* counters advanced, and the JSONL names the
 *    offending container;
 *  - the journal renders byte-identical JSONL across two calls.
 *
 * Artifacts (inspect after a run):
 *  - obs_query_journal.jsonl   the journal, one record per line
 *  - obs_query_sampler.csv     registry snapshots incl. watchdog
 *                              counters
 */

#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "pcon.h"

using namespace pcon;

namespace {

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what);
        ++failures;
    }
}

hw::MachineConfig
machineConfig()
{
    hw::MachineConfig cfg;
    cfg.name = "shop";
    cfg.chips = 1;
    cfg.coresPerChip = 2;
    cfg.freqGhz = 1.0;
    cfg.truth.machineIdleW = 10.0;
    cfg.truth.chipMaintenanceW = 4.0;
    cfg.truth.coreBusyW = 6.0;
    cfg.truth.insW = 2.0;
    return cfg;
}

/** Exact model for machineConfig (no calibration error). */
std::shared_ptr<core::LinearPowerModel>
makeModel()
{
    auto model = std::make_shared<core::LinearPowerModel>();
    model->setCoefficient(core::Metric::Core, 6.0);
    model->setCoefficient(core::Metric::Ins, 2.0);
    model->setCoefficient(core::Metric::ChipShare, 4.0);
    return model;
}

double
readMetric(telemetry::Registry &registry, const std::string &name)
{
    for (const auto &e : registry.entries()) {
        if (e.name != name)
            continue;
        switch (e.kind) {
          case telemetry::InstrumentKind::Counter:
            return static_cast<double>(e.counter->value());
          case telemetry::InstrumentKind::Gauge:
            return e.gauge->value();
          case telemetry::InstrumentKind::Histogram:
            return static_cast<double>(e.histogram->count());
        }
    }
    return 0;
}

} // namespace

int
main()
{
    sim::Simulation sim;
    hw::Machine machine(sim, machineConfig());
    os::RequestContextManager requests;
    os::Kernel kernel(machine, requests);
    core::ContainerManager manager(kernel, makeModel());
    kernel.addHooks(&manager);

    trace::SpanCollector spans;
    trace::SpanTracer tracer(kernel, manager, spans, 0);
    tracer.traceAll();
    kernel.addHooks(&tracer);

    // The live half: subscribed before anything runs, so every
    // rollup below is maintained incrementally, never rebuilt.
    obs::EnergyIndex index;
    index.attach(spans);

    telemetry::Registry registry;
    obs::Journal journal(4096);

    // Any busy container blows a 1 W cap; a short grace window keeps
    // the demo quick while still proving episode debouncing.
    obs::WatchdogConfig wcfg;
    wcfg.powerCapW = util::Watts(1.0);
    wcfg.capViolationAfter = sim::msec(20);
    // The workload drains well before the run ends; give the
    // progress probe more stale ticks than that idle tail so the
    // only alerts below are genuine cap episodes.
    wcfg.stuckAfterTicks = 64;
    obs::WatchdogSet dogs(journal, registry, kernel, wcfg);
    dogs.watchContainers(manager);
    std::uint64_t completed = 0;
    dogs.addProgressProbe("requests_completed",
                          [&completed] { return completed; });
    dogs.installCollector();

    telemetry::Sampler sampler(sim, registry,
                               {sim::msec(10), 1u << 12});
    sampler.start();

    using hw::ActivityVector;
    using os::Op;
    using os::OpResult;
    using os::ScriptedLogic;
    using os::Task;
    const ActivityVector act{1, 0, 0, 0};

    // Six staggered requests: heavy checkouts, light browses.
    constexpr int kRequests = 6;
    std::vector<os::RequestId> ids;
    std::vector<os::RequestId> checkouts;
    for (int i = 0; i < kRequests; ++i) {
        sim.schedule(sim::msec(30) * i, [&, i] {
            bool heavy = i % 2 == 0;
            os::RequestId r = requests.create(
                heavy ? "checkout" : "browse", sim.now());
            ids.push_back(r);
            if (heavy)
                checkouts.push_back(r);
            double cycles = heavy ? 5e7 : 5e6;
            auto logic = std::make_shared<ScriptedLogic>(
                std::vector<ScriptedLogic::Step>{
                    [act, cycles](os::Kernel &, Task &,
                                  const OpResult &) -> Op {
                        return os::ComputeOp{act, cycles};
                    },
                    [&requests, &sim, &completed, r](
                        os::Kernel &, Task &,
                        const OpResult &) -> Op {
                        requests.complete(r, sim.now());
                        ++completed;
                        return os::ExitOp{};
                    }});
            kernel.spawn(logic, heavy ? "checkout" : "browse", r, 0);
        });
    }

    sim.run(sim::msec(500));

    // --- the live-index guarantees ---------------------------------

    check(ids.size() == kRequests, "all requests were created");
    for (os::RequestId r : ids)
        check(requests.completed(r), "request ran to completion");
    check(index.requests().size() == kRequests,
          "index saw every request");
    check(index.openSpanCount() == 0, "every indexed span closed");

    // Exact equality: the incremental rollups perform the same
    // floating-point additions as the collector's own scans.
    for (os::RequestId r : ids)
        check(index.requestEnergyJ(r) == spans.requestEnergyJ(r),
              "live rollup matches the collector scan exactly");
    check(index.totalEnergyJ().value() > 0, "energy was attributed");

    std::vector<os::RequestId> top = index.topRequests(1);
    check(top.size() == 1 &&
              index.rootName(top[0]) == "checkout",
          "a heavy checkout ranks first");

    // A budget between the two request weights separates them.
    double budget = index.requestEnergyJ(checkouts[0]).value() / 2;
    std::map<std::string, double> budgets{{"checkout", budget},
                                          {"browse", budget}};
    std::size_t over = 0;
    for (const obs::QuotaHeadroom &row : index.quotaHeadroom(budgets))
        if (row.overBudget) {
            ++over;
            check(row.type == "checkout",
                  "only checkouts exceed the split budget");
        }
    check(over == checkouts.size(),
          "every checkout is flagged over budget");

    // --- the watchdog guarantees -----------------------------------

    check(dogs.evaluations() > 10,
          "sampler snapshots drove watchdog evaluation");
    check(dogs.alertsFired() >= 1, "the cap episode fired");
    check(journal.countByKind(obs::RecordKind::Alert) >= 1,
          "alerts were journaled");
    check(journal.jsonl().find("\"what\":\"power_cap\"") !=
              std::string::npos,
          "the journal names the cap violation");
    check(readMetric(registry, "obs.watchdog.cap_alerts_total") >= 1,
          "obs.watchdog.cap_alerts_total advanced");
    check(readMetric(registry, "obs.watchdog.alerts_total") ==
              static_cast<double>(dogs.alertsFired()),
          "registry alert counter matches the set");
    check(journal.jsonl() == journal.jsonl(),
          "journal rendering is byte-stable");

    // --- artifacts --------------------------------------------------

    journal.writeJsonl("obs_query_journal.jsonl");
    sampler.stop();
    sampler.writeCsv("obs_query_sampler.csv");

    std::printf("requests %zu  total energy %.6f J  alerts %llu  "
                "journal records %zu\n",
                ids.size(), index.totalEnergyJ().value(),
                static_cast<unsigned long long>(dogs.alertsFired()),
                journal.size());
    index.detach();
    if (failures == 0)
        std::puts("obs_query_demo: all checks passed");
    return failures == 0 ? 0 : 1;
}
