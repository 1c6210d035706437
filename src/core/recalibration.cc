#include "recalibration.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/alignment.h"
#include "linalg/least_squares.h"
#include "util/audit.h"
#include "util/logging.h"

namespace pcon {
namespace core {

// ------------------------- ModelPowerSampler -----------------------

ModelPowerSampler::ModelPowerSampler(
    os::Kernel &kernel, std::shared_ptr<LinearPowerModel> model,
    sim::SimTime period, std::size_t max_windows)
    : kernel_(kernel), model_(std::move(model)), period_(period),
      maxWindows_(max_windows)
{
    util::fatalIf(period <= 0, "sampler period must be positive");
    util::fatalIf(!model_, "sampler needs a model");
    lastCounters_.resize(
        static_cast<std::size_t>(kernel.machine().totalCores()));
}

void
ModelPowerSampler::start()
{
    if (running_)
        return;
    running_ = true;
    for (int c = 0; c < kernel_.machine().totalCores(); ++c)
        lastCounters_[c] = kernel_.machine().readCounters(c);
    lastDiskBusy_ = kernel_.deviceBusyTime(hw::DeviceKind::Disk);
    lastNetBusy_ = kernel_.deviceBusyTime(hw::DeviceKind::Net);
    pending_ = kernel_.simulation().schedule(period_,
                                             [this] { tick(); });
}

void
ModelPowerSampler::stop()
{
    if (!running_)
        return;
    running_ = false;
    kernel_.simulation().cancel(pending_);
    pending_ = sim::InvalidEventId;
}

std::vector<double>
ModelPowerSampler::modeledSeries() const
{
    std::vector<double> series;
    series.reserve(windows_.size());
    for (const Window &w : windows_)
        series.push_back(w.modeledActiveW);
    return series;
}

void
ModelPowerSampler::tick()
{
    if (!running_)
        return;
    hw::Machine &machine = kernel_.machine();
    const hw::MachineConfig &mc = machine.config();
    int cores = machine.totalCores();

    // Per-core utilizations for the chip-share aggregation; summed
    // machine-level event metrics.
    std::vector<double> utils(static_cast<std::size_t>(cores), 0.0);
    Metrics machine_metrics;
    for (int c = 0; c < cores; ++c) {
        hw::CounterSnapshot now_counters = machine.readCounters(c);
        hw::CounterSnapshot delta =
            now_counters.minus(lastCounters_[c]);
        lastCounters_[c] = now_counters;
        Metrics per_core = Metrics::fromCounterDelta(delta);
        utils[c] = per_core.get(Metric::Core);
        machine_metrics.accumulate(per_core);
    }

    // Equation 3 aggregated over the machine: each core's share uses
    // this synchronized window's sibling utilizations.
    double chip_share_sum = 0.0;
    for (int c = 0; c < cores; ++c) {
        if (utils[c] <= 0.0)
            continue;
        int chip = mc.chipOf(c);
        int first = chip * mc.coresPerChip;
        double siblings = 0.0;
        for (int i = first; i < first + mc.coresPerChip; ++i)
            if (i != c)
                siblings += utils[i];
        chip_share_sum += utils[c] / (1.0 + siblings);
    }
    machine_metrics.set(Metric::ChipShare, chip_share_sum);

    sim::SimTime disk_busy =
        kernel_.deviceBusyTime(hw::DeviceKind::Disk);
    sim::SimTime net_busy = kernel_.deviceBusyTime(hw::DeviceKind::Net);
    double period_s = sim::toSeconds(period_);
    machine_metrics.set(Metric::Disk,
                        sim::toSeconds(disk_busy - lastDiskBusy_) /
                            period_s);
    machine_metrics.set(Metric::Net,
                        sim::toSeconds(net_busy - lastNetBusy_) /
                            period_s);
    lastDiskBusy_ = disk_busy;
    lastNetBusy_ = net_busy;

    Window window;
    window.end = kernel_.simulation().now();
    window.metrics = machine_metrics;
    window.modeledActiveW = model_->estimateActiveW(machine_metrics);
    windows_.push_back(window);
    if (windows_.size() > maxWindows_)
        windows_.pop_front();

    pending_ = kernel_.simulation().schedule(period_,
                                             [this] { tick(); });
}

// ------------------------- OnlineRecalibrator ----------------------

namespace {

/**
 * linalg::triangularFactor of `count` samples from `first`, unscaled:
 * the refit's columns, active watts as the target.
 */
template <typename It>
linalg::Matrix
factorSamples(It first, std::size_t count, const std::vector<Metric> &cols)
{
    linalg::Matrix a(count, cols.size());
    linalg::Vector b(count);
    for (std::size_t i = 0; i < count; ++i, ++first) {
        for (std::size_t c = 0; c < cols.size(); ++c)
            a(i, c) = first->metrics.get(cols[c]);
        b[i] = first->measuredFullW;
    }
    return linalg::triangularFactor(a, b);
}

} // namespace

OnlineRecalibrator::OnlineRecalibrator(
    ModelPowerSampler &sampler, hw::PowerMeter &meter,
    std::shared_ptr<LinearPowerModel> model,
    std::vector<CalibrationSample> offline_active,
    const RecalibratorConfig &cfg)
    : sampler_(sampler), meter_(meter), model_(std::move(model)),
      offline_(std::move(offline_active)), cfg_(cfg)
{
    util::fatalIf(!model_, "recalibrator needs a model");
    util::fatalIf(cfg.maxDelaySamples < 1, "bad delay scan range");
    // Columns: all active features the model uses (no intercept; the
    // targets are already active power).
    for (std::size_t i = 0; i < NumMetrics; ++i) {
        Metric m = static_cast<Metric>(i);
        if (model_->usesMetric(m))
            cols_.push_back(m);
    }
    if (!offline_.empty())
        offlineFactor_ =
            factorSamples(offline_.begin(), offline_.size(), cols_);
    meter_.subscribe([this](const hw::PowerMeter::Sample &s) {
        onMeterSample(s);
    });
}

void
OnlineRecalibrator::start()
{
    if (running_)
        return;
    running_ = true;
    scheduleAlignTick();
    scheduleRefitTick();
}

void
OnlineRecalibrator::scheduleAlignTick()
{
    alignEvent_ = sampler_.kernel().simulation().schedule(
        cfg_.alignEvery, [this] {
            if (!running_)
                return;
            alignNow();
            scheduleAlignTick();
        });
}

void
OnlineRecalibrator::scheduleRefitTick()
{
    refitEvent_ = sampler_.kernel().simulation().schedule(
        cfg_.refitEvery, [this] {
            if (!running_)
                return;
            absorbAlignedSamples();
            refitNow();
            scheduleRefitTick();
        });
}

void
OnlineRecalibrator::stop()
{
    if (!running_)
        return;
    running_ = false;
    // A start() before these fire must not leave a second tick chain.
    sim::Simulation &simulation = sampler_.kernel().simulation();
    simulation.cancel(alignEvent_);
    simulation.cancel(refitEvent_);
    alignEvent_ = sim::InvalidEventId;
    refitEvent_ = sim::InvalidEventId;
}

void
OnlineRecalibrator::onMeterSample(const hw::PowerMeter::Sample &sample)
{
    if (!running_)
        return;
    PCON_AUDIT_MSG(measurements_.empty() ||
                       sample.deliveredAt >= measurements_.back().arrivedAt,
                   "meter sample delivered at ", sample.deliveredAt,
                   " after one delivered at ",
                   measurements_.back().arrivedAt);
    measurements_.push_back(
        MeasuredSample{sample.deliveredAt, sample.watts});
    std::size_t bound = static_cast<std::size_t>(
        cfg_.maxDelaySamples * 4 + 256);
    while (measurements_.size() > bound)
        measurements_.pop_front();
}

void
OnlineRecalibrator::alignNow()
{
    if (measurements_.size() < 8 || sampler_.windows().size() < 8)
        return;
    sim::SimTime period = meter_.period();
    util::panicIf(period != sampler_.period(),
                  "sampler and meter periods must match");

    // Faults can drop, duplicate, or jitter deliveries, so arrivals
    // are not necessarily one per period: grid the measurements onto
    // period-spaced slots by arrival time and mask out the holes
    // instead of assuming sample i arrived i periods after the first.
    sim::SimTime tm0 = measurements_.front().arrivedAt;
    for (const MeasuredSample &m : measurements_)
        tm0 = std::min(tm0, m.arrivedAt);
    auto slot = [&](const MeasuredSample &m) {
        return static_cast<long>(
            std::llround(static_cast<double>(m.arrivedAt - tm0) /
                         static_cast<double>(period)));
    };
    long span = 0;
    for (const MeasuredSample &m : measurements_)
        span = std::max(span, slot(m));
    if (span + 1 > (1L << 20))
        return; // pathological spread; keep the last good alignment
    std::vector<double> measured(static_cast<std::size_t>(span + 1),
                                 0.0);
    std::vector<bool> have(static_cast<std::size_t>(span + 1), false);
    for (const MeasuredSample &m : measurements_) {
        std::size_t idx = static_cast<std::size_t>(slot(m));
        // First delivery wins a slot: duplicates are ignored here.
        if (!have[idx] && std::isfinite(m.watts.value())) {
            measured[idx] = m.watts.value();
            have[idx] = true;
        }
    }
    // The two series start at different wall-clock times; fold the
    // start offset into the scanned delay so the reported delay is
    // the physical measurement lag.
    const std::deque<ModelPowerSampler::Window> &windows =
        sampler_.windows();
    sim::SimTime tj0 = windows.front().end;
    long start_offset = static_cast<long>(
        std::llround(static_cast<double>(tm0 - tj0) /
                     static_cast<double>(period)));
    long min_d = -start_offset;
    long max_d = cfg_.maxDelaySamples - start_offset;
    if (min_d > max_d)
        return;

    // No scanned delay pairs a measurement with a window before index
    // -max_d, and the sampler keeps up to 65,536 windows: copy the
    // modeled series from there on and shift the scanned delays by as
    // much, which leaves every scanned pair as it was.
    long skip = std::clamp(-max_d, 0L,
                           static_cast<long>(windows.size()) - 2);
    std::vector<double> modeled;
    modeled.reserve(windows.size() - static_cast<std::size_t>(skip));
    for (auto w = windows.begin() + skip; w != windows.end(); ++w)
        modeled.push_back(w->modeledActiveW);

    AlignmentScan scan = scanAlignmentSparse(measured, have, modeled,
                                             period, min_d + skip,
                                             max_d + skip, true);
    lastAlignmentConfidence_ = scan.confidence;
    if (scan.confidence < cfg_.minAlignmentConfidence) {
        // Report, don't fabricate: a flat or fault-riddled signal
        // keeps the previous delay estimate (and stays unaligned if
        // no scan ever succeeded).
        ++lowConfidenceAlignments_;
        return;
    }
    delay_ = (scan.bestDelaySamples - skip + start_offset) * period;
    aligned_ = true;
}

void
OnlineRecalibrator::absorbAlignedSamples()
{
    if (!aligned_)
        return;
    const std::deque<ModelPowerSampler::Window> &windows =
        sampler_.windows();
    if (windows.empty())
        return;
    sim::SimTime period = sampler_.period();
    sim::SimTime first_end = windows.front().end;

    // Arrivals are in delivery order: start after the absorbed ones.
    auto next = std::partition_point(
        measurements_.begin(), measurements_.end(),
        [this](const MeasuredSample &m) {
            return m.arrivedAt <= absorbedUpTo_;
        });
    for (; next != measurements_.end(); ++next) {
        const MeasuredSample &m = *next;
        if (m.arrivedAt <= absorbedUpTo_)
            continue; // delivered together with the one just absorbed
        sim::SimTime physical_end = m.arrivedAt - delay_;
        long idx = static_cast<long>(std::llround(
            static_cast<double>(physical_end - first_end) /
            static_cast<double>(period)));
        if (idx >= static_cast<long>(windows.size()))
            continue; // window not sampled yet; retry next tick
        if (idx < 0 || !std::isfinite(m.watts.value())) {
            // Permanently unmatchable (pre-history) or corrupt:
            // consume it so a faulty meter cannot wedge absorption.
            ++samplesRejected_;
            absorbedUpTo_ = m.arrivedAt;
            continue;
        }
        const ModelPowerSampler::Window &w =
            windows[static_cast<std::size_t>(idx)];
        if (std::llabs(w.end - physical_end) > period / 2) {
            ++samplesRejected_;
            absorbedUpTo_ = m.arrivedAt;
            continue;
        }
        CalibrationSample sample;
        sample.metrics = w.metrics;
        sample.measuredFullW = m.watts.value() - cfg_.baselineW; // active W
        addOnlineSample(sample);
        absorbedUpTo_ = m.arrivedAt;
    }
}

void
OnlineRecalibrator::addOnlineSample(const CalibrationSample &sample)
{
    online_.push_back(sample);
    ++absorbed_;
    if (online_.size() > cfg_.maxOnlineSamples)
        online_.pop_front();
    // A block whose first sample left the ring is raw rows again. The
    // oldest block is on top of front_, which is refilled from back_
    // when empty.
    const std::uint64_t oldest = absorbed_ - online_.size();
    for (;;) {
        if (front_.empty()) {
            if (back_.empty() || back_.front().first >= oldest)
                break;
            flipBlocks();
        }
        if (front_.back().first >= oldest)
            break;
        front_.pop_back();
    }
    if (absorbed_ % kRefitBlockRows == 0 &&
        online_.size() >= kRefitBlockRows) {
        linalg::Matrix factor = factorSamples(
            online_.end() - kRefitBlockRows, kRefitBlockRows, cols_);
        backFactor_ = back_.empty()
            ? factor
            : linalg::mergeFactors(backFactor_, factor);
        back_.push_back(
            ClosedBlock{absorbed_ - kRefitBlockRows, std::move(factor)});
    }
}

void
OnlineRecalibrator::flipBlocks()
{
    PCON_AUDIT_MSG(front_.empty(), "flipping onto ", front_.size(),
                   " front blocks");
    // Newest first, so each block's factor is merged over the newer
    // ones' and the oldest block, on top, stands for all of them.
    for (auto block = back_.rbegin(); block != back_.rend(); ++block) {
        if (!front_.empty())
            block->factor =
                linalg::mergeFactors(block->factor, front_.back().factor);
        front_.push_back(std::move(*block));
    }
    back_.clear();
    backFactor_ = linalg::Matrix();
}

void
OnlineRecalibrator::refitNow()
{
    if (online_.size() < cfg_.minOnlineSamples) {
        // Degrade by refusing: with too little aligned data the
        // last-good model keeps serving. Counted only once data has
        // started flowing so an idle warm-up is not noise.
        if (!online_.empty())
            ++refitsSkipped_;
        return;
    }

    // Group balancing: scale online rows by sqrt(w) so the online
    // group carries at least as much total weight as the offline
    // group (weighted least squares by row scaling). One scale per
    // group, so scaling a block's factor scales its Gram matrix the
    // same way.
    double online_weight = 1.0;
    if (cfg_.balanceGroups && !offline_.empty() &&
        online_.size() < offline_.size()) {
        online_weight = static_cast<double>(offline_.size()) /
            static_cast<double>(online_.size());
    }
    double online_scale = std::sqrt(online_weight);

    const std::size_t represented = offline_.size() + online_.size();
    const std::size_t n = cols_.size();
    if (represented < n + 1) {
        ++refitsSkipped_;
        return;
    }

    // The compressed stack, in ring order: the offline factor, the raw
    // rows of the partly evicted oldest block, the closed blocks as the
    // front and back stacks' merged factors, and the raw rows of the
    // block still filling. The closed blocks are consecutive.
    std::uint64_t first_closed = absorbed_;
    if (!front_.empty())
        first_closed = front_.back().first;
    else if (!back_.empty())
        first_closed = back_.front().first;
    const std::size_t evicted_raw = static_cast<std::size_t>(
        first_closed - (absorbed_ - online_.size()));
    const std::size_t closed =
        (front_.size() + back_.size()) * kRefitBlockRows;
    const std::size_t rows = offlineFactor_.rows() +
        (front_.empty() ? 0 : n + 1) + backFactor_.rows() +
        (online_.size() - closed);
    linalg::Matrix design(rows, n);
    linalg::Vector target(rows);
    std::size_t r = 0;
    auto add_factor = [&](const linalg::Matrix &factor, double scale) {
        for (std::size_t i = 0; i < factor.rows(); ++i) {
            for (std::size_t c = 0; c < n; ++c)
                design(r, c) = factor(i, c) * scale;
            target[r++] = factor(i, n) * scale;
        }
    };
    auto add_raw = [&](std::size_t from, std::size_t to) {
        for (std::size_t i = from; i < to; ++i) {
            const CalibrationSample &s = online_[i];
            for (std::size_t c = 0; c < n; ++c)
                design(r, c) = s.metrics.get(cols_[c]) * online_scale;
            target[r++] = s.measuredFullW * online_scale; // active watts
        }
    };
    add_factor(offlineFactor_, 1.0);
    add_raw(0, evicted_raw);
    if (!front_.empty())
        add_factor(front_.back().factor, online_scale);
    add_factor(backFactor_, online_scale);
    add_raw(evicted_raw + closed, online_.size());
    PCON_AUDIT_MSG(r == rows, "refit stack filled ", r, " of ", rows,
                   " rows");

    linalg::LsqResult fit =
        linalg::solveNonNegativeLeastSquares(design, target, represented);
    // Sanity-check the whole solution before applying any of it: a
    // self-calibrating model that drifts negative, non-finite, or
    // absurdly large silently corrupts every downstream attribution
    // (the SmartWatts failure mode). Under fault injection a
    // degenerate design can legitimately produce such a fit — reject
    // it wholesale and keep serving the last good model.
    for (std::size_t i = 0; i < n; ++i) {
        double c = fit.coefficients[i];
        if (!std::isfinite(c) || c < 0.0 || c > cfg_.maxCoefficientW) {
            ++refitsRejected_;
            util::warn("refit rejected: coefficient ", c,
                       " for metric ", Metrics::name(cols_[i]),
                       " fails sanity bounds; keeping last good "
                       "model");
            return;
        }
    }
    for (std::size_t i = 0; i < n; ++i)
        model_->setCoefficient(cols_[i], fit.coefficients[i]);
    ++refits_;
    if (!refitObservers_.empty()) {
        RefitEvent event;
        event.time = sampler_.kernel().simulation().now();
        event.index = refits_;
        event.onlineSamples = online_.size();
        event.solverRows = rows;
        event.rankDeficient = fit.rankDeficient;
        for (const RefitObserver &fn : refitObservers_)
            fn(event);
    }
}

void
OnlineRecalibrator::onRefit(RefitObserver fn)
{
    util::fatalIf(!fn, "null refit observer");
    refitObservers_.push_back(std::move(fn));
}

} // namespace core
} // namespace pcon
