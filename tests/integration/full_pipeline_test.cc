/**
 * @file
 * Whole-system integration: the full Approach-3 pipeline (calibrated
 * model + noisy delayed meter + alignment + online recalibration)
 * running together with fair power conditioning, energy quotas,
 * anomaly detection, and request tracing on the GAE-Hybrid cloud
 * workload — everything the facility does, at once.
 */

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/anomaly.h"
#include "core/conditioning.h"
#include "core/energy_quota.h"
#include "trace/span_tracer.h"
#include "workloads/apps.h"
#include "workloads/client.h"
#include "workloads/experiment.h"
#include "workloads/microbench.h"

namespace pcon {
namespace {

using sim::msec;
using sim::sec;

/** Calibrate once per process; reuse across tests. */
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

TEST(FullPipeline, RecalibrationSurvivesMeterNoise)
{
    // A noisy on-chip meter must not break alignment or refitting.
    // (The workload must fluctuate — alignment locks onto power
    // transitions, the paper's own premise; GAE-Hybrid at partial
    // load provides them and carries the viruses' unmodeled
    // cache*memory residual that recalibration must absorb.)
    hw::MachineConfig cfg = hw::sandyBridgeConfig();
    cfg.onChipMeter.noiseStddevW = 0.8;
    auto model = std::make_shared<core::LinearPowerModel>(
        calibrator().fit(core::ModelKind::WithChipShare));
    wl::ServerWorld world(cfg, model);
    world.attachRecalibration(wl::toActiveSamples(
        calibrator(), model->idleW()));

    auto app = wl::makeApp("GAE-Hybrid", 211);
    app->deploy(world.kernel());
    wl::LoadClient client(*app, world.kernel(),
                          wl::LoadClient::forUtilization(
                              *app, world.kernel(), 0.6, 212));
    client.start();
    world.run(sec(3));
    world.beginWindow();
    world.run(sec(8));
    client.stop();

    ASSERT_NE(world.recalibrator(), nullptr);
    EXPECT_TRUE(world.recalibrator()->aligned());
    EXPECT_EQ(world.recalibrator()->estimatedDelay(), msec(1));
    EXPECT_GT(world.recalibrator()->refits(), 0u);
    EXPECT_LT(world.validationError(), 0.08);
}

TEST(FullPipeline, AllFacilitiesComposeOnGaeHybrid)
{
    auto model = std::make_shared<core::LinearPowerModel>(
        calibrator().fit(core::ModelKind::WithChipShare));
    wl::ServerWorld world(hw::sandyBridgeConfig(), model);
    world.attachRecalibration(wl::toActiveSamples(
        calibrator(), model->idleW()));

    core::PowerConditioner conditioner(
        world.kernel(), world.manager(),
        core::ConditionerConfig{50.0, 1});
    world.kernel().addHooks(&conditioner);
    conditioner.install();
    conditioner.enable();

    trace::SpanCollector spans;
    trace::SpanTracer tracer(world.kernel(), world.manager(), spans, 0);
    world.kernel().addHooks(&tracer);

    core::AnomalyDetectorConfig det_cfg;
    det_cfg.minBaselineSamples = 50;
    // Online recalibration shifts estimates by a watt or two while
    // it converges; widen the floor so benign drift stays silent.
    det_cfg.minStddevW = 0.8;
    core::PowerAnomalyDetector detector(world.manager(), det_cfg);

    wl::GaeHybridApp app(213);
    app.deploy(world.kernel());
    wl::ClientConfig ccfg;
    ccfg.mode = wl::ClientConfig::Mode::ClosedLoop;
    ccfg.concurrency = 8;
    ccfg.seed = 214;
    ccfg.typeMix = {{"vosao-read", 0.9}, {"vosao-write", 0.1}};
    wl::LoadClient client(app, world.kernel(), ccfg);
    client.start();
    world.run(sec(4));
    detector.scan(); // baseline from the normal fleet

    // Inject and trace one power virus.
    os::RequestId virus = world.requests().create(
        wl::GaeHybridApp::virusType(), world.sim().now());
    tracer.trace(virus);
    app.submit(virus, wl::GaeHybridApp::virusType());
    world.beginWindow();
    world.run(sec(4));
    client.stop();

    // 1. The virus completed, is in the records, and was traced:
    // its spans are closed and partition its ledger.
    const core::RequestRecord *virus_record = nullptr;
    for (const core::RequestRecord &r : world.manager().records())
        if (r.id == virus)
            virus_record = &r;
    ASSERT_NE(virus_record, nullptr);
    std::vector<trace::SpanId> virus_spans = spans.requestSpans(virus);
    ASSERT_FALSE(virus_spans.empty());
    for (trace::SpanId id : virus_spans)
        EXPECT_FALSE(spans.span(id).open) << "span " << id;
    EXPECT_NEAR(spans.requestEnergyJ(virus).value(),
                virus_record->totalEnergyJ().value(), 1e-9);

    // 2. The detector flagged it (and only power-hungry requests).
    std::vector<core::PowerAnomaly> anomalies = detector.scan();
    bool virus_flagged = false;
    for (const core::PowerAnomaly &a : anomalies) {
        EXPECT_EQ(a.type, wl::GaeHybridApp::virusType());
        virus_flagged |= a.id == virus;
    }
    EXPECT_TRUE(virus_flagged);

    // 3. The conditioner throttled it while sparing normal requests.
    const auto &stats = conditioner.stats();
    ASSERT_TRUE(stats.count(virus));
    EXPECT_LT(stats.at(virus).meanDutyFraction, 0.9);
    double normal_duty = 0;
    std::size_t normal_n = 0;
    for (const auto &[id, s] : stats) {
        if (s.type.rfind("vosao", 0) == 0) {
            normal_duty += s.meanDutyFraction;
            ++normal_n;
        }
    }
    ASSERT_GT(normal_n, 0u);
    EXPECT_GT(normal_duty / normal_n, 0.95);

    // 4. Accounting still validates under all the control activity.
    EXPECT_LT(world.validationError(), 0.10);
}

TEST(FullPipeline, QuotaAndDetectorAgreeOnTheCulprit)
{
    auto model = std::make_shared<core::LinearPowerModel>(
        calibrator().fit(core::ModelKind::WithChipShare));
    wl::ServerWorld world(hw::sandyBridgeConfig(), model);

    core::EnergyQuotaConfig qcfg;
    qcfg.budgetJ[wl::GaeHybridApp::virusType()] = 0.5;
    core::EnergyQuotaPolicy quota(world.kernel(), world.manager(),
                                  qcfg);
    world.kernel().addHooks(&quota);
    quota.install();
    quota.enable();

    core::AnomalyDetectorConfig det_cfg;
    det_cfg.minBaselineSamples = 40;
    core::PowerAnomalyDetector detector(world.manager(), det_cfg);

    wl::GaeHybridApp app(215);
    app.deploy(world.kernel());
    wl::ClientConfig ccfg;
    ccfg.concurrency = 6;
    ccfg.seed = 216;
    ccfg.typeMix = {{"vosao-read", 1.0}};
    wl::LoadClient client(app, world.kernel(), ccfg);
    client.start();
    world.run(sec(3));
    detector.scan();

    os::RequestId virus = world.requests().create(
        wl::GaeHybridApp::virusType(), world.sim().now());
    app.submit(virus, wl::GaeHybridApp::virusType());
    world.run(sec(3));
    client.stop();

    // The virus (~2 J unthrottled) exceeded its 0.5 J budget...
    EXPECT_TRUE(quota.overBudget(virus));
    // ...and the detector independently flagged the same request.
    bool flagged = false;
    for (const core::PowerAnomaly &a : detector.scan())
        flagged |= a.id == virus;
    EXPECT_TRUE(flagged);
}

} // namespace
} // namespace pcon
