#include "anomaly.h"

#include <algorithm>

#include "util/logging.h"

namespace pcon {
namespace core {

PowerAnomalyDetector::PowerAnomalyDetector(
    ContainerManager &manager, const AnomalyDetectorConfig &cfg)
    : manager_(manager), cfg_(cfg)
{
    util::fatalIf(cfg.sigmaThreshold <= 0,
                  "sigma threshold must be positive");
}

bool
PowerAnomalyDetector::overThreshold(util::Watts mean_power) const
{
    if (fleet_.count() < cfg_.minBaselineSamples)
        return false;
    double limit = fleet_.mean() +
        cfg_.sigmaThreshold *
            std::max(fleet_.stddev(), cfg_.minStddevW);
    if (cfg_.absoluteFloorW > 0)
        limit = std::max(limit, cfg_.absoluteFloorW);
    return mean_power.value() > limit;
}

std::vector<PowerAnomaly>
PowerAnomalyDetector::scan()
{
    std::vector<PowerAnomaly> fresh;
    const std::vector<RequestRecord> &records = manager_.records();

    // New completions first: they both update the baseline and are
    // candidates themselves. A record is judged against the baseline
    // *excluding* itself so a lone virus cannot hide in its own
    // statistics.
    for (; recordsSeen_ < records.size(); ++recordsSeen_) {
        const RequestRecord &r = records[recordsSeen_];
        if (r.cpuTimeNs >= cfg_.minCpuTimeNs &&
            overThreshold(r.meanPowerW) &&
            reported_.insert(r.id).second) {
            PowerAnomaly anomaly;
            anomaly.id = r.id;
            anomaly.type = r.type;
            anomaly.meanPowerW = r.meanPowerW;
            anomaly.fleetMeanW = fleet_.mean();
            anomaly.fleetStddevW = fleet_.stddev();
            anomaly.live = false;
            fresh.push_back(anomaly);
        }
        fleet_.add(r.meanPowerW.value());
    }

    // Live requests: catch a virus while it still runs. Sorted id
    // order: live() is an unordered map, and callers journal the
    // detections in the order returned.
    std::vector<os::RequestId> ids;
    ids.reserve(manager_.live().size());
    // pcon-lint: allow(unordered-iteration) sorted before use
    for (const auto &kv : manager_.live())
        ids.push_back(kv.first);
    std::sort(ids.begin(), ids.end());
    for (os::RequestId id : ids) {
        const PowerContainer *container = manager_.container(id);
        if (container->cpuTimeNs() < cfg_.minCpuTimeNs)
            continue;
        util::Watts mean = container->meanPowerW();
        if (overThreshold(mean) && reported_.insert(id).second) {
            PowerAnomaly anomaly;
            anomaly.id = id;
            anomaly.type = container->type();
            anomaly.meanPowerW = mean;
            anomaly.fleetMeanW = fleet_.mean();
            anomaly.fleetStddevW = fleet_.stddev();
            anomaly.live = true;
            fresh.push_back(anomaly);
        }
    }

    flagged_.insert(flagged_.end(), fresh.begin(), fresh.end());
    return fresh;
}

} // namespace core
} // namespace pcon
