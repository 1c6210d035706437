/**
 * @file
 * Section 4.1: offline power model calibration. Runs the calibration
 * microbenchmark suite on each machine and reports the coefficient
 * table in the paper's C * Mmax form (the maximum active power impact
 * of each metric, in Watts), plus the fit RMSE and the microbenchmark
 * regimes the linear model fits worst.
 *
 * Paper's SandyBridge reference: idle 26.1 W, core 33.1 W, ins
 * 12.4 W, cache 13.9 W, mem 8.2 W, chipshare 5.6 W, disk 1.7 W, net
 * 5.8 W.
 */

#include "paper.h"
#include "workloads/microbench.h"

namespace pcon {
namespace paper {

Tables
sec41()
{
    Table coefficients{"sec41_calibration", {"machine", "term", "value"},
                       {}};
    Table worst{"sec41_worst_fit", {"machine", "regime", "rmse_w"}, {}};
    for (const hw::MachineConfig &cfg :
         {hw::sandyBridgeConfig(), hw::woodcrestConfig(),
          hw::westmereConfig()}) {
        std::vector<std::string> labels;
        core::Calibrator calibrator =
            wl::calibrateMachine(cfg, wl::CalibrationRunConfig{}, &labels);
        double rmse = 0.0;
        core::LinearPowerModel model =
            calibrator.fit(core::ModelKind::WithChipShare, &rmse);
        core::Metrics mmax = calibrator.maxObserved();

        auto add = [&](std::string term, Cell cell) {
            coefficients.rows.push_back({{cfg.name, std::move(term)}, {cell}});
        };
        add("C_idle (W)", num(model.idleW()));
        for (std::size_t i = 0; i < core::NumMetrics; ++i) {
            core::Metric metric = static_cast<core::Metric>(i);
            add("C_" + core::Metrics::name(metric) + " * Mmax (W)",
                num(model.coefficient(metric) * mmax.get(metric)));
        }
        add("fit RMSE (W)", num(rmse));
        add("calibration samples", num(calibrator.sampleCount(), 0));

        // Residual diagnostics: which microbenchmark regimes the
        // linear model fits worst (McCullough et al.'s blind spots).
        core::CalibrationReport report = core::evaluateCalibration(
            model, calibrator.samples(), labels);
        for (std::size_t i = 0; i < 3 && i < report.groups.size(); ++i)
            worst.rows.push_back({{cfg.name, report.groups[i].label},
                                  {num(report.groups[i].rmseW)}});
    }
    return {coefficients, worst};
}

} // namespace paper
} // namespace pcon
