/**
 * @file
 * Section 4.1: offline power model calibration. Runs the calibration
 * microbenchmark suite on each machine and prints the coefficient
 * table in the paper's C * Mmax form (the maximum active power impact
 * of each metric, in Watts), plus the fit RMSE.
 */

#include "bench_util.h"
#include "workloads/microbench.h"

namespace {

using namespace pcon;

void
calibrateAndPrint(const hw::MachineConfig &cfg)
{
    bench::section(cfg.name);
    wl::CalibrationRunConfig run_cfg;
    std::vector<std::string> labels;
    core::Calibrator calibrator =
        wl::calibrateMachine(cfg, run_cfg, &labels);
    double rmse = 0.0;
    core::LinearPowerModel model =
        calibrator.fit(core::ModelKind::WithChipShare, &rmse);
    core::Metrics mmax = calibrator.maxObserved();

    bench::row("C_idle", {bench::num(model.idleW()) + " W"});
    for (std::size_t i = 0; i < core::NumMetrics; ++i) {
        core::Metric metric = static_cast<core::Metric>(i);
        double impact =
            model.coefficient(metric) * mmax.get(metric);
        bench::row("C_" + core::Metrics::name(metric) + " * Mmax",
                   {bench::num(impact) + " W"});
    }
    bench::row("fit RMSE", {bench::num(rmse) + " W"});
    bench::row("calibration samples",
               {std::to_string(calibrator.sampleCount())});

    // Residual diagnostics: which microbenchmark regimes the linear
    // model fits worst (McCullough et al.'s blind spots).
    core::CalibrationReport report = core::evaluateCalibration(
        model, calibrator.samples(), labels);
    std::printf("  worst-fit regimes:");
    for (std::size_t i = 0; i < 3 && i < report.groups.size(); ++i)
        std::printf(" %s (rmse %.2f W)",
                    report.groups[i].label.c_str(),
                    report.groups[i].rmseW);
    std::printf("\n");
}

} // namespace

int
main()
{
    bench::header(
        "Section 4.1: calibrated power model coefficients",
        "Least-squares fit over 8 microbenchmarks x 4 load levels; "
        "C*Mmax = max active-power impact");
    calibrateAndPrint(hw::sandyBridgeConfig());
    calibrateAndPrint(hw::woodcrestConfig());
    calibrateAndPrint(hw::westmereConfig());
    std::printf("\nPaper's SandyBridge reference: idle 26.1 W, "
                "core 33.1 W, ins 12.4 W,\ncache 13.9 W, mem 8.2 W, "
                "chipshare 5.6 W, disk 1.7 W, net 5.8 W.\n");
    return 0;
}
