#include "client.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace pcon {
namespace wl {

LoadClient::LoadClient(ServerApp &app, os::Kernel &kernel,
                       const ClientConfig &cfg)
    : app_(app), kernel_(kernel), cfg_(cfg), rng_(cfg.seed)
{
    util::fatalIf(cfg.mode == ClientConfig::Mode::OpenLoop &&
                      cfg.ratePerSec <= 0,
                  "open-loop client needs a positive rate");
    util::fatalIf(cfg.mode == ClientConfig::Mode::ClosedLoop &&
                      cfg.concurrency <= 0,
                  "closed-loop client needs positive concurrency");
    // Completion notifications: track response times per type. The
    // kernel's completion stream also carries other sources' requests.
    kernel_.requests().onComplete([this](const os::RequestInfo &info) {
        if (outstanding_.erase(info.id) == 0)
            return;
        ++completed_;
        double seconds =
            sim::toSeconds(info.completed - info.created);
        responseStats_[info.type].add(seconds);
        overallResponse_.add(seconds);
        std::vector<double> &samples = responseSamples_[info.type];
        if (samples.size() < kMaxSamples)
            samples.push_back(seconds);
        if (running_ && cfg_.mode == ClientConfig::Mode::ClosedLoop)
            submitOne();
    });
}

void
LoadClient::start()
{
    if (running_)
        return;
    running_ = true;
    if (cfg_.mode == ClientConfig::Mode::ClosedLoop) {
        for (int i = 0; i < cfg_.concurrency; ++i)
            submitOne();
    } else {
        scheduleNextArrival();
    }
}

void
LoadClient::stop()
{
    running_ = false;
}

void
LoadClient::clearStats()
{
    responseStats_.clear();
    overallResponse_.reset();
    responseSamples_.clear();
}

double
LoadClient::responsePercentile(double q) const
{
    std::vector<double> all;
    for (const auto &[type, samples] : responseSamples_)
        all.insert(all.end(), samples.begin(), samples.end());
    util::fatalIf(all.empty(), "no completions recorded");
    return util::quantile(std::move(all), q);
}

double
LoadClient::responsePercentile(const std::string &type,
                               double q) const
{
    auto it = responseSamples_.find(type);
    util::fatalIf(it == responseSamples_.end() || it->second.empty(),
                  "no completions recorded for type '", type, "'");
    return util::quantile(it->second, q);
}

void
LoadClient::submitOne()
{
    std::string type;
    if (!cfg_.typeMix.empty()) {
        std::vector<double> weights;
        std::vector<const std::string *> names;
        for (const auto &[name, weight] : cfg_.typeMix) {
            names.push_back(&name);
            weights.push_back(weight);
        }
        type = *names[rng_.weightedIndex(weights)];
    } else {
        type = app_.sampleType(rng_);
    }
    os::RequestId id = kernel_.requests().create(
        type, kernel_.simulation().now());
    outstanding_.insert(id);
    ++submitted_;
    app_.submit(id, type);
}

void
LoadClient::scheduleNextArrival()
{
    if (!running_)
        return;
    sim::SimTime gap =
        sim::secF(rng_.exponential(1.0 / cfg_.ratePerSec));
    kernel_.simulation().schedule(gap, [this] {
        if (!running_)
            return;
        submitOne();
        scheduleNextArrival();
    });
}

ClientConfig
LoadClient::forUtilization(ServerApp &app, os::Kernel &kernel,
                           double utilization, std::uint64_t seed)
{
    util::fatalIf(utilization <= 0, "utilization must be positive");
    ClientConfig cfg;
    cfg.seed = seed;
    int cores = kernel.machine().totalCores();
    if (utilization >= 0.95) {
        // Peak: closed loop with enough outstanding requests to keep
        // every core busy through blocking stages.
        cfg.mode = ClientConfig::Mode::ClosedLoop;
        cfg.concurrency = 2 * cores;
        return cfg;
    }
    // Partial load: Poisson arrivals at the matching fraction of the
    // service capacity.
    cfg.mode = ClientConfig::Mode::OpenLoop;
    double cycles_per_sec =
        kernel.machine().config().freqGhz * 1e9 * cores;
    cfg.ratePerSec =
        utilization * cycles_per_sec / app.meanServiceCycles();
    return cfg;
}

} // namespace wl
} // namespace pcon
