/**
 * @file
 * Load generation (the "test client that can send concurrent requests
 * to the server at a desired load level", Section 4.2). Two modes:
 *
 *  - ClosedLoop: a fixed number of outstanding requests; a completion
 *    triggers the next submission. Used for "peak load" (the server
 *    stays fully utilized without unbounded queues).
 *  - OpenLoop: Poisson arrivals at a fixed rate. Used for partial
 *    load levels ("half load" = ~50% utilization).
 */

#ifndef PCON_WORKLOADS_CLIENT_H
#define PCON_WORKLOADS_CLIENT_H

#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "os/kernel.h"
#include "sim/rng.h"
#include "util/stats.h"
#include "workloads/app.h"

namespace pcon {
namespace wl {

/** Client behaviour. */
struct ClientConfig
{
    enum class Mode { OpenLoop, ClosedLoop };

    Mode mode = Mode::ClosedLoop;
    /** Poisson arrival rate, requests/second (OpenLoop). */
    double ratePerSec = 0;
    /** Outstanding request count (ClosedLoop). */
    int concurrency = 8;
    /** RNG seed (arrivals and type sampling). */
    std::uint64_t seed = 7;
    /**
     * Optional explicit request-type mix (type -> weight). When
     * non-empty it overrides the app's own sampleType() — used to
     * drive *new* request compositions (Figure 10).
     */
    std::map<std::string, double> typeMix;
};

/**
 * Drives one ServerApp. start() begins generation; stop() stops new
 * submissions (in-flight requests drain naturally). Per-type
 * completion statistics accumulate for the experiment drivers.
 * A client counts, records and (closed loop) resubmits on completions
 * of its own requests only, so other sources may share the kernel.
 */
class LoadClient
{
  public:
    /**
     * @param app Deployed application to drive.
     * @param cfg Load level and mode.
     */
    LoadClient(ServerApp &app, os::Kernel &kernel,
               const ClientConfig &cfg);

    /** Begin submitting requests. */
    void start();

    /** Stop submitting new requests. */
    void stop();

    /** Requests submitted so far. */
    std::uint64_t submitted() const { return submitted_; }

    /** Requests of this client completed so far. */
    std::uint64_t completed() const { return completed_; }

    /** Response-time statistics per request type (seconds). */
    const std::map<std::string, util::RunningStat> &
    responseStats() const
    {
        return responseStats_;
    }

    /** Response-time statistics across all types (seconds). */
    const util::RunningStat &overallResponse() const
    {
        return overallResponse_;
    }

    /**
     * Response-time percentile across all completions (seconds),
     * q in [0, 1]. Computed from retained samples (capped at
     * kMaxSamples; beyond that the estimate covers the earliest
     * completions). fatal() when no completions were recorded.
     */
    double responsePercentile(double q) const;

    /** Per-type response-time percentile (seconds). */
    double responsePercentile(const std::string &type,
                              double q) const;

    /** Reset completion statistics (e.g. after warm-up). */
    void clearStats();

    /**
     * Convenience: the closed-loop concurrency or open-loop rate for
     * a utilization target, sized from the app's mean service cycles.
     */
    static ClientConfig forUtilization(ServerApp &app,
                                       os::Kernel &kernel,
                                       double utilization,
                                       std::uint64_t seed = 7);

  private:
    void submitOne();
    void scheduleNextArrival();

    ServerApp &app_;
    os::Kernel &kernel_;
    ClientConfig cfg_;
    sim::Rng rng_;
    bool running_ = false;
    std::uint64_t submitted_ = 0;
    std::uint64_t completed_ = 0;
    /** This client's requests that have not completed. */
    std::unordered_set<os::RequestId> outstanding_;
    std::map<std::string, util::RunningStat> responseStats_;
    util::RunningStat overallResponse_;
    std::map<std::string, std::vector<double>> responseSamples_;

    /** Retained-sample cap per type (percentile accuracy bound). */
    static constexpr std::size_t kMaxSamples = 200000;
};

} // namespace wl
} // namespace pcon

#endif // PCON_WORKLOADS_CLIENT_H
