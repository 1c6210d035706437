/**
 * @file
 * Measurement-aligned online model recalibration (Section 3.2).
 *
 * ModelPowerSampler periodically reads all cores' counters (plus
 * device busy times) to form machine-level metric windows and the
 * model's power-estimate series. OnlineRecalibrator subscribes to a
 * (delayed) power meter, recovers the delivery delay by
 * cross-correlation against the model series, pairs aligned
 * measurement/metric windows into online calibration samples, and
 * periodically refits the shared model — offline and online samples
 * weighed equally, as in the paper.
 *
 * A refit solves the non-negative least-squares problem over every
 * offline sample and the whole online ring (4,672 rows at the
 * defaults), but not as 4,672 rows: the offline set is reduced once to
 * its triangular factor (linalg::triangularFactor), and so is each
 * closed block of kRefitBlockRows consecutive online samples, when it
 * fills. The closed blocks' factors are kept merged
 * (linalg::mergeFactors) in a two-stack sliding window, so a refit
 * stacks the offline factor, at most two merged factors and the raw
 * rows of the block still filling and of the oldest one, which the
 * ring has partly evicted: ~59 rows at steady state. The stack has
 * the Gram matrix of the full design, so the fit is the full design's
 * up to rounding (docs/PERFORMANCE.md "Compressed refits" and
 * "Two-stack refits").
 */

#ifndef PCON_CORE_RECALIBRATION_H
#define PCON_CORE_RECALIBRATION_H

#include <deque>
#include <memory>
#include <vector>

#include "core/calibration.h"
#include "core/metrics.h"
#include "core/power_model.h"
#include "hw/power_meter.h"
#include "linalg/matrix.h"
#include "os/kernel.h"
#include "util/units.h"

namespace pcon {
namespace core {

/**
 * Periodic machine-level metric and model-power sampler. Keeps a
 * bounded history of (window end, metrics, modeled power) entries.
 */
class ModelPowerSampler
{
  public:
    /** One sampled window. */
    struct Window
    {
        sim::SimTime end = 0;
        Metrics metrics;
        /** Modeled active power over the window, Watts. */
        double modeledActiveW = 0;
    };

    /**
     * @param kernel Kernel whose machine to sample.
     * @param model Model used for the power-estimate series.
     * @param period Sampling period (match the meter under study).
     * @param max_windows History bound.
     */
    ModelPowerSampler(os::Kernel &kernel,
                      std::shared_ptr<LinearPowerModel> model,
                      sim::SimTime period,
                      std::size_t max_windows = 1 << 16);

    /** Begin sampling at the current time. */
    void start();

    /** Stop sampling. */
    void stop();

    /** Sampled windows, oldest first. */
    const std::deque<Window> &windows() const { return windows_; }

    /** Modeled active power values, oldest first. */
    std::vector<double> modeledSeries() const;

    /** Sampling period. */
    sim::SimTime period() const { return period_; }

    /** Kernel being sampled. */
    os::Kernel &kernel() { return kernel_; }

    /** Drop all history. */
    void clear() { windows_.clear(); }

  private:
    void tick();

    os::Kernel &kernel_;
    std::shared_ptr<LinearPowerModel> model_;
    sim::SimTime period_;
    std::size_t maxWindows_;
    bool running_ = false;
    sim::EventId pending_ = sim::InvalidEventId;
    std::vector<hw::CounterSnapshot> lastCounters_;
    sim::SimTime lastDiskBusy_ = 0;
    sim::SimTime lastNetBusy_ = 0;
    std::deque<Window> windows_;
};

/** Tunables of the online recalibrator. */
struct RecalibratorConfig
{
    /** Largest measurement delay scanned, in meter periods. */
    long maxDelaySamples = 64;
    /** How often the delay estimate is refreshed. */
    sim::SimTime alignEvery = sim::msec(500);
    /** How often the model is refit from accumulated samples. */
    sim::SimTime refitEvery = sim::msec(10);
    /** Online samples required before the first refit. */
    std::size_t minOnlineSamples = 24;
    /** Online sample ring bound. */
    std::size_t maxOnlineSamples = 4096;
    /**
     * Baseline subtracted from meter readings to obtain active power
     * (machine idle for a wall meter, package idle for the on-chip
     * meter — measured once while the machine idles).
     */
    double baselineW = 0;
    /**
     * Balance the offline and online sample *groups* in the refit:
     * when the online set is smaller than the offline set, each
     * online sample is up-weighted so current measurements can move
     * the fit even under a slow (1 Hz wall) meter. False weighs every
     * sample equally regardless of group size.
     */
    bool balanceGroups = true;
    /**
     * Smallest alignment confidence (peak Pearson coefficient, see
     * AlignmentScan::confidence) at which a scanned delay replaces
     * the current estimate. Below it the scan is counted as
     * low-confidence and the last good delay is kept — a flat or
     * fault-riddled signal must not fabricate an alignment.
     */
    double minAlignmentConfidence = 0.35;
    /**
     * Upper sanity bound on any single refit coefficient, Watts per
     * unit metric. A fit that exceeds it (degenerate design under
     * faults, runaway extrapolation) is rejected wholesale and the
     * last good model kept.
     */
    double maxCoefficientW = 1000.0;
};

/**
 * Aligns delayed meter samples with model estimates and refits the
 * model's active coefficients online. The idle term is left alone;
 * offline calibration samples participate with equal weight.
 */
class OnlineRecalibrator
{
  public:
    /** What a completed refit looked like (observer payload). */
    struct RefitEvent
    {
        /** Simulated time of the refit. */
        sim::SimTime time = 0;
        /** 1-based refit ordinal (equals refits() afterwards). */
        std::uint64_t index = 0;
        /** Online samples that participated. */
        std::size_t onlineSamples = 0;
        /** Rows of the compressed stack the solver saw. */
        std::size_t solverRows = 0;
        /** The solver took its rank-deficient (ridge) fallback. */
        bool rankDeficient = false;
    };

    using RefitObserver = std::function<void(const RefitEvent &)>;

    /**
     * Online samples per closed block: each block is reduced to its
     * triangular factor once, when its last sample arrives, and merged
     * into the sliding window's back aggregate; it goes back to raw
     * rows when the ring evicts its first sample.
     */
    static constexpr std::size_t kRefitBlockRows = 32;

    /**
     * @param sampler Metric/model-series source (must be started).
     * @param meter Measurement source (must be started).
     * @param model Shared model whose coefficients are updated.
     * @param offline_active Offline calibration samples expressed as
     *        (metrics, active watts) pairs.
     * @param cfg Tunables.
     */
    OnlineRecalibrator(ModelPowerSampler &sampler,
                       hw::PowerMeter &meter,
                       std::shared_ptr<LinearPowerModel> model,
                       std::vector<CalibrationSample> offline_active,
                       const RecalibratorConfig &cfg);

    /** Begin aligning and refitting. */
    void start();

    /**
     * Stop: cancel the pending align and refit ticks and ignore meter
     * deliveries until the next start().
     */
    void stop();

    /** Current measurement-delay estimate (0 until first alignment). */
    sim::SimTime estimatedDelay() const { return delay_; }

    /** True once at least one alignment succeeded. */
    bool aligned() const { return aligned_; }

    /** Number of refits performed. */
    std::uint64_t refits() const { return refits_; }

    /** Number of online samples currently held. */
    std::size_t onlineSampleCount() const { return online_.size(); }

    /** Online samples ever absorbed, evicted ones included. */
    std::uint64_t onlineSamplesAbsorbed() const { return absorbed_; }

    /** Offline samples every refit includes (active watts). */
    const std::vector<CalibrationSample> &offlineSamples() const
    {
        return offline_;
    }

    /** The online sample ring, oldest first (active watts). */
    const std::deque<CalibrationSample> &onlineSamples() const
    {
        return online_;
    }

    // --- Graceful-degradation observability -------------------------

    /** Refit ticks skipped: data present but insufficient/degenerate. */
    std::uint64_t refitsSkipped() const { return refitsSkipped_; }

    /** Refits whose solution failed sanity bounds and was discarded. */
    std::uint64_t refitsRejected() const { return refitsRejected_; }

    /** Meter samples discarded (non-finite or unmatched windows). */
    std::uint64_t samplesRejected() const { return samplesRejected_; }

    /** Alignment scans discarded for low confidence. */
    std::uint64_t lowConfidenceAlignments() const
    {
        return lowConfidenceAlignments_;
    }

    /** Confidence of the most recent alignment scan (0 before any). */
    double lastAlignmentConfidence() const
    {
        return lastAlignmentConfidence_;
    }

    /**
     * Subscribe to completed refits (telemetry/trace export).
     * Observers run in subscription order after the model updates.
     */
    void onRefit(RefitObserver fn);

  private:
    struct MeasuredSample
    {
        sim::SimTime arrivedAt = 0;
        util::Watts watts{0};
    };

    /** A closed block of online samples in the sliding window. */
    struct ClosedBlock
    {
        /** Absorption ordinal of the block's first sample. */
        std::uint64_t first = 0;
        /**
         * Unscaled factor: on the back stack the block's own
         * (linalg::triangularFactor of its rows); on the front stack
         * the block's merged with every newer block's on that stack.
         */
        linalg::Matrix factor;
    };

    void onMeterSample(const hw::PowerMeter::Sample &sample);
    void scheduleAlignTick();
    void scheduleRefitTick();
    void alignNow();
    void absorbAlignedSamples();
    void addOnlineSample(const CalibrationSample &sample);
    void flipBlocks();
    void refitNow();

    ModelPowerSampler &sampler_;
    hw::PowerMeter &meter_;
    std::shared_ptr<LinearPowerModel> model_;
    std::vector<CalibrationSample> offline_;
    RecalibratorConfig cfg_;

    bool running_ = false;
    sim::SimTime delay_ = 0;
    bool aligned_ = false;
    std::uint64_t refits_ = 0;
    std::uint64_t refitsSkipped_ = 0;
    std::uint64_t refitsRejected_ = 0;
    std::uint64_t samplesRejected_ = 0;
    std::uint64_t lowConfidenceAlignments_ = 0;
    double lastAlignmentConfidence_ = 0;
    std::deque<MeasuredSample> measurements_;
    /** Arrival time of the newest measurement already absorbed. */
    sim::SimTime absorbedUpTo_ = -1;
    std::deque<CalibrationSample> online_;
    /** Online samples ever absorbed: the next sample's ordinal. */
    std::uint64_t absorbed_ = 0;
    /** The refit's columns: the model's metrics at construction. */
    std::vector<Metric> cols_;
    /** Factor of the offline samples (no rows when there are none). */
    linalg::Matrix offlineFactor_;
    /**
     * Closed blocks whose first sample is still in the ring, as a
     * two-stack queue. front_ holds the older blocks, the oldest on
     * top (last); back_ the blocks closed since it was last refilled,
     * oldest first, and backFactor_ their merged factor (no rows while
     * back_ is empty). So the top of front_ and backFactor_ together
     * stand for every closed block.
     */
    std::vector<ClosedBlock> front_;
    std::vector<ClosedBlock> back_;
    linalg::Matrix backFactor_;
    std::vector<RefitObserver> refitObservers_;
    sim::EventId alignEvent_ = sim::InvalidEventId;
    sim::EventId refitEvent_ = sim::InvalidEventId;
};

} // namespace core
} // namespace pcon

#endif // PCON_CORE_RECALIBRATION_H
