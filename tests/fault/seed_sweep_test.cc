/**
 * @file
 * Multi-seed determinism sweep: the whole pipeline — workload,
 * meters, recalibration, container accounting, fault injection — is
 * one deterministic function of its seeds. Running the same
 * configuration twice must produce byte-identical ledgers (request
 * records, energies, fault tallies), with faults and without, and
 * the invariant auditor must stay clean throughout. ZeroPerturbation
 * requires the same ledgers with observers reading the machine
 * throughout, and CompressedRefit replays every refit of the same
 * worlds against the uncompressed refit design.
 */

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#ifndef PCON_TEST_DATA_DIR
#error "PCON_TEST_DATA_DIR must point at the committed fixtures"
#endif

#include "audit/invariant_auditor.h"
#include "fault/fault_injector.h"
#include "linalg/least_squares.h"
#include "obs/energy_index.h"
#include "obs/watchdog.h"
#include "telemetry/instrumentation.h"
#include "telemetry/perfetto.h"
#include "telemetry/sampler.h"
#include "trace/span_tracer.h"
#include "workloads/apps.h"
#include "workloads/client.h"
#include "workloads/experiment.h"
#include "workloads/microbench.h"

namespace pcon {
namespace {

using sim::sec;

const core::Calibrator &
calibrator()
{
    static const core::Calibrator cal = [] {
        wl::CalibrationRunConfig cfg;
        cfg.duration = sec(1);
        return wl::calibrateMachine(hw::sandyBridgeConfig(), cfg);
    }();
    return cal;
}

/** A reduced canonical plan sized for a short sweep run. */
fault::FaultPlan
sweepPlan()
{
    fault::FaultPlan plan;
    plan.meter.dropProbability = 0.1;
    plan.meter.outages.push_back({sec(1), sim::msec(500)});
    plan.sockets.lossProbability = 0.01;
    return plan;
}

/** What an `observe` callback attached; released before the world. */
using Observers = std::shared_ptr<void>;

/**
 * Run one seeded pipeline and fold everything observable into a
 * fingerprint string. Byte-identical fingerprints == identical runs.
 * `observe`, when given, sees the world once its recalibrator is
 * attached, before anything runs; what it returns lives as long as
 * the run.
 */
std::string
runFingerprint(
    std::uint64_t seed, bool with_faults,
    const std::function<Observers(wl::ServerWorld &)> &observe = {})
{
    auto model = std::make_shared<core::LinearPowerModel>(
        calibrator().fit(core::ModelKind::WithChipShare));
    wl::ServerWorld world(hw::sandyBridgeConfig(), model);
    world.attachRecalibration(
        wl::toActiveSamples(calibrator(), model->idleW()));
    Observers observers;
    if (observe)
        observers = observe(world);

    fault::FaultPlan plan = sweepPlan();
    fault::FaultInjector injector(world.sim(), plan);
    if (with_faults) {
        injector.attachMeter(world.onChipMeter());
        injector.attachSockets(world.kernel());
        injector.attachTasks(world.kernel());
        injector.arm();
    }

    audit::InvariantAuditor auditor(world.kernel());
    auditor.watch(world.manager());

    auto app = wl::makeApp("WeBWorK", seed);
    app->deploy(world.kernel());
    wl::LoadClient client(*app, world.kernel(),
                          wl::LoadClient::forUtilization(
                              *app, world.kernel(), 0.5, seed + 1));
    client.start();
    world.run(sec(3));
    client.stop();
    auditor.checkNow();
    EXPECT_EQ(auditor.violationsDetected(), 0u);

    std::ostringstream out;
    out.precision(17);
    out << "machineJ=" << world.machine().machineEnergyJ()
        << " accountedJ=" << world.manager().accountedEnergyJ()
        << " backgroundJ="
        << world.manager().background().totalEnergyJ()
        << " live=" << world.manager().live().size()
        << " refits=" << world.recalibrator()->refits()
        << " skipped=" << world.recalibrator()->refitsSkipped()
        << " rejected=" << world.recalibrator()->refitsRejected()
        << " lowconf="
        << world.recalibrator()->lowConfidenceAlignments()
        << " faults=" << injector.counts().total()
        << " meterDrop=" << injector.counts().meterDropped
        << " segLost=" << injector.counts().segmentsLost << "\n";
    for (const core::RequestRecord &r : world.manager().records())
        out << r.id << ":" << r.type << ":" << r.cpuEnergyJ << ":"
            << r.ioEnergyJ << ":" << r.cpuTimeNs << ":" << r.completed
            << "\n";
    return out.str();
}

class SeedSweep : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(SeedSweep, LedgersAreReproducibleWithAndWithoutFaults)
{
    std::uint64_t seed = GetParam();
    std::string faulted1 = runFingerprint(seed, true);
    std::string faulted2 = runFingerprint(seed, true);
    std::string clean1 = runFingerprint(seed, false);
    std::string clean2 = runFingerprint(seed, false);

    // Identical seeds produce byte-identical ledgers, faulted or not.
    EXPECT_EQ(faulted1, faulted2);
    EXPECT_EQ(clean1, clean2);

    // The ledgers are not trivially empty...
    EXPECT_GT(faulted1.size(), 100u);
    EXPECT_NE(clean1.find("faults=0"), std::string::npos);

    // ...and faults really perturb the run — otherwise the injector
    // is silently disconnected and the sweep proves nothing.
    EXPECT_NE(faulted1, clean1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(401, 402, 403));

/**
 * Cross-build regression: the seeds-401..403 fingerprints are pinned
 * byte-for-byte against a committed fixture, so a hot-path rewrite
 * (event queue, container ledgers, span and segment storage) can never
 * silently drift attribution. Together with the golden trace /
 * flamegraph / span-dump fixtures this locks the observable output
 * of the whole pipeline across optimization PRs. Regenerate with
 * PCON_UPDATE_GOLDEN=1 only for a deliberate accounting change.
 */
TEST(SeedSweepGolden, FingerprintsMatchCommittedFixture)
{
    std::ostringstream all;
    for (std::uint64_t seed : {401u, 402u, 403u}) {
        all << "# seed " << seed << " clean\n"
            << runFingerprint(seed, false);
        all << "# seed " << seed << " faulted\n"
            << runFingerprint(seed, true);
    }
    std::string fingerprints = all.str();
    ASSERT_GT(fingerprints.size(), 300u);

    std::string path = std::string(PCON_TEST_DATA_DIR) +
        "/golden_ledger_fingerprints.txt";
    if (std::getenv("PCON_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::trunc);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << fingerprints;
        GTEST_SKIP() << "fixture regenerated at " << path;
    }

    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing fixture " << path
                    << " — regenerate with PCON_UPDATE_GOLDEN=1";
    std::ostringstream buf;
    buf << in.rdbuf();
    ASSERT_EQ(fingerprints, buf.str())
        << "ledger fingerprints drifted from the committed fixture; "
           "an optimization changed attribution. If the change is "
           "intentional, regenerate with PCON_UPDATE_GOLDEN=1 and "
           "commit the diff";
}

/**
 * Read the machine's energy and every core's counters every 0.7 ms
 * from now on. That is not a multiple of the world's 1 ms meter period
 * or timeslice, so most reads fall at instants nothing else touches.
 */
void
readMachineEvery700us(hw::Machine &machine)
{
    machine.simulation().schedule(sim::usec(700), [&machine] {
        (void)machine.machineEnergyJ();
        for (int core = 0; core < machine.totalCores(); ++core)
            (void)machine.readCounters(core);
        readMachineEvery700us(machine);
    });
}

/**
 * The observability stack beside the run: SystemTelemetry on the
 * manager and recalibrator, host timing of every hook set, the
 * ground-truth and recalibration watchdogs, and a Sampler driving
 * them every 7.3 ms (not a multiple of the 1 ms meter period, so most
 * ticks fall between meter samples).
 */
struct Watchers
{
    os::Kernel &kernel;
    telemetry::Registry registry;
    obs::Journal journal{4096};
    std::unique_ptr<telemetry::SystemTelemetry> telemetry;
    std::unique_ptr<obs::WatchdogSet> dogs;
    std::unique_ptr<telemetry::Sampler> sampler;

    Watchers(const Watchers &) = delete;
    Watchers &operator=(const Watchers &) = delete;

    /** The hook timer writes into `registry`: stop it first. */
    ~Watchers()
    {
        EXPECT_GT(registry.counter("overhead.hook_calls").value(), 0u);
        kernel.timeHooks({});
    }

    explicit Watchers(wl::ServerWorld &world) : kernel(world.kernel())
    {
        telemetry = std::make_unique<telemetry::SystemTelemetry>(
            registry, world.kernel());
        telemetry::profileHooks(registry, world.kernel(),
                                world.machine().config().freqGhz * 1e9);
        telemetry->watch(world.manager());
        telemetry->watch(*world.recalibrator());
        dogs = std::make_unique<obs::WatchdogSet>(journal, registry,
                                                  world.kernel());
        dogs->watchGroundTruth(world.manager(), world.machine());
        dogs->watchRecalibration(*world.recalibrator());
        dogs->installCollector();
        sampler = std::make_unique<telemetry::Sampler>(
            world.sim(), registry,
            telemetry::SamplerConfig{sim::usec(7300), 1u << 12});
        sampler->start();
    }
};

/**
 * Request tracing beside the run: a traceAll() SpanTracer charging
 * spans from the manager's stream, inside its sampleCore, into a live
 * EnergyIndex, and a PerfettoExporter on the same kernel.
 */
struct Tracing
{
    trace::SpanCollector spans;
    obs::EnergyIndex index;
    trace::SpanTracer tracer;
    telemetry::PerfettoExporter perfetto;

    Tracing(const Tracing &) = delete;
    Tracing &operator=(const Tracing &) = delete;

    ~Tracing()
    {
        EXPECT_GT(index.totalEnergyJ().value(), 0.0);
        EXPECT_GT(perfetto.sliceCount(), 0u);
    }

    explicit Tracing(wl::ServerWorld &world)
        : tracer(world.kernel(), world.manager(), spans, 0),
          perfetto(world.kernel())
    {
        index.attach(spans);
        tracer.traceAll();
        world.kernel().addHooks(&tracer);
        world.kernel().addHooks(&perfetto);
    }
};

/**
 * Reading the machine must not change the run. Every sweep world,
 * clean and faulted, must give the plain run's fingerprint byte for
 * byte with `observe` attached. The worlds hold every reader of the
 * machine the pipeline has: meters, recalibrator, auditor and faults.
 */
void
expectUnperturbed(
    const std::function<Observers(wl::ServerWorld &)> &observe)
{
    for (std::uint64_t seed : {401u, 402u, 403u}) {
        for (bool faults : {false, true}) {
            SCOPED_TRACE(::testing::Message()
                         << "seed " << seed
                         << (faults ? " faulted" : " clean"));
            EXPECT_EQ(runFingerprint(seed, faults),
                      runFingerprint(seed, faults, observe));
        }
    }
}

TEST(ZeroPerturbation, MachineReadsLeaveTheLedgersUnchanged)
{
    expectUnperturbed([](wl::ServerWorld &world) {
        readMachineEvery700us(world.machine());
        return Observers();
    });
}

TEST(ZeroPerturbation, TelemetryAndWatchdogsLeaveTheLedgersUnchanged)
{
    expectUnperturbed([](wl::ServerWorld &world) {
        return Observers(std::make_shared<Watchers>(world));
    });
}

TEST(ZeroPerturbation, SpanTracingLeavesTheLedgersUnchanged)
{
    expectUnperturbed([](wl::ServerWorld &world) {
        return Observers(std::make_shared<Tracing>(world));
    });
}

/**
 * The refit the recalibrator solved before its design was compressed,
 * kept as this test's reference: every offline sample and every ring
 * sample as one row, the online group up-weighted to the offline
 * group's size while it is smaller (RecalibratorConfig::balanceGroups).
 */
linalg::LsqResult
fullDesignRefit(const core::OnlineRecalibrator &recal,
                const std::vector<core::Metric> &cols)
{
    const auto &offline = recal.offlineSamples();
    const auto &online = recal.onlineSamples();
    double online_scale = 1.0;
    if (!offline.empty() && online.size() < offline.size())
        online_scale = std::sqrt(static_cast<double>(offline.size()) /
                                 static_cast<double>(online.size()));
    linalg::Matrix design(offline.size() + online.size(), cols.size());
    linalg::Vector target(design.rows());
    std::size_t r = 0;
    auto add = [&](const core::CalibrationSample &s, double scale) {
        for (std::size_t c = 0; c < cols.size(); ++c)
            design(r, c) = s.metrics.get(cols[c]) * scale;
        target[r++] = s.measuredFullW * scale;
    };
    for (const core::CalibrationSample &s : offline)
        add(s, 1.0);
    for (const core::CalibrationSample &s : online)
        add(s, online_scale);
    return linalg::solveNonNegativeLeastSquares(design, target);
}

/** What checkEveryRefit saw, over every world it watched. */
struct RefitReplay
{
    /** Relative tolerance on each coefficient, against the larger. */
    double tolerance = 0;
    std::size_t replayed = 0;
    std::size_t rankDeficient = 0;
    std::size_t mostRows = 0;
    double worst = 0.0;

    void
    print() const
    {
        std::cout << "[ compressed ] " << replayed << " refits replayed ("
                  << rankDeficient
                  << " rank deficient); largest relative coefficient "
                     "difference "
                  << worst << " (tolerance " << tolerance
                  << "); largest stack " << mostRows << " rows\n";
    }
};

/**
 * Replay every refit of `world` through fullDesignRefit, from a refit
 * observer: the compressed stack has the full design's Gram matrix,
 * so the two fits agree to rounding. The reference must pass the
 * sanity bounds the recalibrator's fit passed (the same accept
 * decision), set the same rank-deficiency flag, and give coefficients
 * within replay.tolerance. Skipped and rejected refits never reach
 * refit observers.
 */
void
checkEveryRefit(wl::ServerWorld &world, RefitReplay &replay)
{
    core::OnlineRecalibrator &recal = *world.recalibrator();
    std::shared_ptr<core::LinearPowerModel> model = world.model();
    std::vector<core::Metric> cols;
    for (std::size_t i = 0; i < core::NumMetrics; ++i)
        if (model->usesMetric(static_cast<core::Metric>(i)))
            cols.push_back(static_cast<core::Metric>(i));
    const double bound = core::RecalibratorConfig{}.maxCoefficientW;
    recal.onRefit([&recal, &replay, model, cols, bound](
                      const core::OnlineRecalibrator::RefitEvent &event) {
        ++replay.replayed;
        replay.rankDeficient += event.rankDeficient ? 1 : 0;
        replay.mostRows = std::max(replay.mostRows, event.solverRows);
        linalg::LsqResult want = fullDesignRefit(recal, cols);
        EXPECT_EQ(event.rankDeficient, want.rankDeficient)
            << "refit " << event.index;
        for (std::size_t c = 0; c < cols.size(); ++c) {
            double got = model->coefficient(cols[c]);
            double ref = want.coefficients[c];
            EXPECT_TRUE(std::isfinite(ref) && ref >= 0.0 && ref <= bound)
                << "the full design's refit " << event.index
                << " would be rejected: " << ref;
            double scale = std::max(std::abs(got), std::abs(ref));
            double diff = scale > 0.0 ? std::abs(got - ref) / scale : 0.0;
            replay.worst = std::max(replay.worst, diff);
            EXPECT_LE(diff, replay.tolerance)
                << "refit " << event.index << " coefficient "
                << core::Metrics::name(cols[c]) << ": " << got
                << " compressed vs " << ref << " full";
        }
    });
}

/**
 * Every refit of the sweep worlds (the SeedSweepGolden runs, clean and
 * under the sweep plan) against the uncompressed design built from
 * the same samples: ~3,000 rows by the end of a run. The online group
 * is up-weighted for the first ~60 refits, so scaled block factors
 * are covered. SeedSweepGolden pins the skipped and rejected counts (0
 * in every sweep world) at the values the uncompressed refits gave.
 * Every design here has full rank; solving the full design with its
 * rows in reverse order moves its own coefficients by up to 2e-12.
 */
TEST(CompressedRefit, MatchesTheFullDesignOnEverySweepRefit)
{
    RefitReplay replay;
    replay.tolerance = 1e-10;
    for (std::uint64_t seed : {401u, 402u, 403u}) {
        for (bool faults : {false, true}) {
            SCOPED_TRACE(::testing::Message()
                         << "seed " << seed
                         << (faults ? " faulted" : " clean"));
            std::size_t before = replay.replayed;
            std::uint64_t refits = 0;
            runFingerprint(seed, faults, [&](wl::ServerWorld &world) {
                checkEveryRefit(world, replay);
                // The world, and its refits(), end with the run.
                world.recalibrator()->onRefit(
                    [&refits](const auto &event) { refits = event.index; });
                return Observers();
            });
            EXPECT_GT(replay.replayed - before, 200u);
            EXPECT_EQ(replay.replayed - before, refits);
        }
    }
    replay.print();
}

/**
 * A world the sweep does not reach: a full 4,096-sample ring, so each
 * refit's oldest block is partly evicted and closed blocks leave the
 * stack, and no offline samples with a compute-only workload, so the
 * Disk and Net columns are zero and every refit takes the ridge
 * fallback, whose penalty must use the represented row count. The
 * ridge solves normal equations whose penalty is 1e-6 of the mean
 * squared feature, so rounding is amplified: the full design solved
 * with its rows in reverse order moves its own coefficients by up to
 * 4.5e-9 here, hence the wider tolerance.
 */
TEST(CompressedRefit, MatchesTheFullDesignThroughEvictionAndRidge)
{
    auto model = std::make_shared<core::LinearPowerModel>(
        calibrator().fit(core::ModelKind::WithChipShare));
    wl::ServerWorld world(hw::sandyBridgeConfig(), model);
    world.attachRecalibration({});
    RefitReplay replay;
    replay.tolerance = 1e-7;
    checkEveryRefit(world, replay);

    auto app = wl::makeApp("RSA-crypto", 404);
    app->deploy(world.kernel());
    wl::LoadClient client(*app, world.kernel(),
                          wl::LoadClient::forUtilization(
                              *app, world.kernel(), 0.5, 405));
    client.start();
    world.run(sec(5));
    client.stop();

    replay.print();
    EXPECT_EQ(world.recalibrator()->onlineSampleCount(), 4096u);
    EXPECT_EQ(replay.replayed, world.recalibrator()->refits());
    EXPECT_GT(replay.replayed, 400u);
    EXPECT_EQ(replay.rankDeficient, replay.replayed);
}

/**
 * The closed blocks' two-stack window over more than three ring
 * lengths of online samples: blocks leave the ring through the front
 * stack, which is refilled from the back stack three times, and each
 * refit stacks the merged factors of both. The sweep's world and
 * tolerance, with every refit replayed through the uncompressed
 * design. Once the ring is full, the stack is the offline factor, at
 * most two merged factors and at most one block of raw rows.
 */
TEST(CompressedRefit, MatchesTheFullDesignAcrossFlips)
{
    auto model = std::make_shared<core::LinearPowerModel>(
        calibrator().fit(core::ModelKind::WithChipShare));
    wl::ServerWorld world(hw::sandyBridgeConfig(), model);
    world.attachRecalibration(
        wl::toActiveSamples(calibrator(), model->idleW()));
    core::OnlineRecalibrator &recal = *world.recalibrator();
    RefitReplay replay;
    replay.tolerance = 1e-10;
    checkEveryRefit(world, replay);
    const std::size_t ring = core::RecalibratorConfig{}.maxOnlineSamples;
    std::size_t full_ring_refits = 0;
    std::size_t most_full_ring_rows = 0;
    recal.onRefit(
        [&](const core::OnlineRecalibrator::RefitEvent &event) {
            if (event.onlineSamples < ring)
                return;
            ++full_ring_refits;
            most_full_ring_rows =
                std::max(most_full_ring_rows, event.solverRows);
        });

    auto app = wl::makeApp("WeBWorK", 406);
    app->deploy(world.kernel());
    wl::LoadClient client(*app, world.kernel(),
                          wl::LoadClient::forUtilization(
                              *app, world.kernel(), 0.5, 407));
    client.start();
    world.run(sec(13));
    client.stop();

    replay.print();
    EXPECT_GT(recal.onlineSamplesAbsorbed(), 3 * ring);
    EXPECT_EQ(replay.replayed, recal.refits());
    EXPECT_GT(full_ring_refits, 800u);
    std::size_t n = 0;
    for (std::size_t i = 0; i < core::NumMetrics; ++i)
        n += model->usesMetric(static_cast<core::Metric>(i)) ? 1 : 0;
    EXPECT_LE(most_full_ring_rows,
              3 * (n + 1) + core::OnlineRecalibrator::kRefitBlockRows);
}

} // namespace
} // namespace pcon
