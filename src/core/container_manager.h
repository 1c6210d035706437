/**
 * @file
 * The power-container facility's kernel-side engine (Section 3.3):
 * samples per-core counters at request context switches and periodic
 * interrupts, estimates the running request's power with the
 * chip-share model (Equations 2 and 3), compensates the observer
 * effect of its own sampling (Section 3.5), attributes device energy
 * at I/O interrupts, and maintains one PowerContainer per request
 * plus a background container for unbound activity.
 */

#ifndef PCON_CORE_CONTAINER_MANAGER_H
#define PCON_CORE_CONTAINER_MANAGER_H

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/container.h"
#include "core/metrics.h"
#include "core/power_model.h"
#include "os/hooks.h"
#include "os/kernel.h"

namespace pcon {
namespace core {

/** Tunables of the accounting engine. */
struct ContainerManagerConfig
{
    /**
     * Attribute shared chip maintenance power via Equation 3
     * (Approach 2/3). False reproduces Approach 1 (Equation 1).
     */
    bool useChipShare = true;
    /**
     * Model the sampling code's own perturbation by injecting its
     * event counts into the hardware counters (the observer effect).
     */
    bool injectObserverEffect = true;
    /**
     * Subtract the maintenance-induced event counts from each
     * sampling window (Section 3.5's mitigation).
     */
    bool compensateObserverEffect = true;
    /**
     * Treat a sibling whose core currently schedules the idle task as
     * zero-activity regardless of its (stale) last sample — the
     * Equation 3 staleness correction. Ablation switch.
     */
    bool idleSiblingCheck = true;
    /**
     * Event cost of one container maintenance operation, as measured
     * in Section 3.5 (2948 cycles, 1656 instructions, 16 FP ops,
     * 3 LLC references, no memory transactions).
     */
    hw::CounterSnapshot observerCost{0, 2948, 1656, 16, 3, 0};
};

/** One CPU attribution window, as sampleCore committed it. */
struct WindowCharge
{
    /** Core the window ran on. */
    int core = 0;
    /** Task that ran the window. */
    const os::Task *task = nullptr;
    /** Request charged; NoRequest for the background container. */
    os::RequestId request = os::NoRequest;
    /** Modeled energy of the window. */
    util::Joules energy{0};
    /** On-CPU (non-halt) time, nanoseconds. */
    double cpuNs = 0;
    /** Counter delta, less the injected observer events when
     *  compensation is on. */
    hw::CounterSnapshot delta{};
    /** Modeled power over the window. */
    util::Watts power{0};
};

/** Device energy attributed at one I/O completion. */
struct IoCharge
{
    hw::DeviceKind device = hw::DeviceKind::Disk;
    /** Request charged; NoRequest for the background container. */
    os::RequestId request = os::NoRequest;
    util::Joules energy{0};
    /** Device service time the energy covers. */
    sim::SimTime busyTime = 0;
    double bytes = 0;
};

/**
 * Implements the kernel hooks that maintain per-request power and
 * energy accounting online. Create one per kernel, register with
 * kernel.addHooks(), and it begins accounting immediately.
 *
 * Everything it charges is also published, once, to subscribers:
 * each committed CPU window, each I/O charge and each completed
 * request's record. A consumer that needs per-request energy reads
 * this stream instead of polling container totals, so it sees every
 * charge whatever its hook set's place in the kernel's list. With no
 * subscriber nothing is built.
 */
class ContainerManager : public os::KernelHooks
{
  public:
    /**
     * @param kernel Kernel to instrument (hooks must be registered by
     *        the caller: kernel.addHooks(&manager)).
     * @param model Shared power model; the online recalibrator may
     *        update its coefficients concurrently.
     * @param cfg Engine tunables.
     */
    ContainerManager(os::Kernel &kernel,
                     std::shared_ptr<LinearPowerModel> model,
                     const ContainerManagerConfig &cfg = {});

    // --- KernelHooks ---
    void onContextSwitch(int core, os::Task *prev,
                         os::Task *next) override;
    void onContextRebind(os::Task &task, os::RequestId old_ctx,
                         os::RequestId new_ctx) override;
    void onSamplingInterrupt(int core) override;
    void onIoComplete(hw::DeviceKind device, os::RequestId context,
                      sim::SimTime busy_time, double bytes) override;

    using WindowListener = std::function<void(const WindowCharge &)>;
    using IoListener = std::function<void(const IoCharge &)>;
    using RecordListener = std::function<void(const RequestRecord &)>;

    /**
     * Subscribe to CPU windows. Each is published from inside
     * sampleCore as soon as it is folded into its container and
     * accountedEnergyJ(): a listener may read the manager, but must
     * not make it sample (sampleNow(), a stats tag).
     */
    void onWindowCharge(WindowListener fn)
    {
        windowListeners_.push_back(std::move(fn));
    }

    /** Subscribe to device-energy charges at I/O completions. */
    void onIoCharge(IoListener fn) { ioListeners_.push_back(std::move(fn)); }

    /**
     * Subscribe to completed requests' records, published after the
     * request's final windows, from the manager's own completion
     * listener.
     */
    void onRecord(RecordListener fn)
    {
        recordListeners_.push_back(std::move(fn));
    }

    /** Container of a live request; nullptr when unknown. */
    PowerContainer *container(os::RequestId id);

    /**
     * Container a task bound to `id` is charged to: the request's
     * container, or the background container for unbound or unknown
     * contexts (e.g. GAE's untraceable background work, Figure 9).
     */
    PowerContainer &containerOrBackground(os::RequestId id);

    /** The background container. */
    PowerContainer &background() { return *background_; }

    /** Live (incomplete) request containers. */
    const std::unordered_map<os::RequestId,
                             std::shared_ptr<PowerContainer>> &
    live() const
    {
        return containers_;
    }

    /** Records of completed requests, oldest first. */
    const std::vector<RequestRecord> &records() const
    {
        return records_;
    }

    /** Drop completed-request records (experiment phase reset). */
    void clearRecords() { records_.clear(); }

    /**
     * Total energy of every request completed so far: a running sum
     * of the records' totalEnergyJ(), not reset by clearRecords().
     */
    util::Joules completedEnergyJ() const { return completedEnergyJ_; }

    /**
     * Total energy attributed to any container so far (requests +
     * background + I/O) — the numerator of the Figure 8 validation.
     */
    util::Joules accountedEnergyJ() const { return accountedEnergyJ_; }

    /** Number of container maintenance operations performed. */
    std::uint64_t maintenanceOps() const { return maintenanceOps_; }

    /** The model in use. */
    LinearPowerModel &model() { return *model_; }

    /** Engine configuration. */
    const ContainerManagerConfig &config() const { return cfg_; }

    /**
     * Run one maintenance sample on a core outside any hook (used by
     * the overhead microbenchmark to time the operation itself).
     */
    void sampleNow(int core) { sampleCore(core); }

  private:
    struct CoreAccounting
    {
        /** Counter values at the last sample boundary. */
        hw::CounterSnapshot lastSnapshot{};
        /** Observer events injected since the last boundary. */
        hw::CounterSnapshot pendingObserver{};
        /** Utilization of the most recent completed window. */
        double recentUtil = 0;
        /** When that window ended. */
        sim::SimTime recentUtilTime = 0;
        /** Container charged for the current window (may be null). */
        std::shared_ptr<PowerContainer> active;
        /** Start of the current window. */
        sim::SimTime windowStart = 0;
    };

    /** Close the current window on a core and attribute it. */
    void sampleCore(int core);

    /** Equation 3: the running task's share of chip maintenance. */
    double chipShare(int core, double my_util);

    void requestCreated(const os::RequestInfo &info);
    void requestCompleted(const os::RequestInfo &info);

    os::Kernel &kernel_;
    std::shared_ptr<LinearPowerModel> model_;
    ContainerManagerConfig cfg_;
    std::vector<CoreAccounting> cores_;
    std::unordered_map<os::RequestId, std::shared_ptr<PowerContainer>>
        containers_;
    std::shared_ptr<PowerContainer> background_;
    std::vector<RequestRecord> records_;
    util::Joules completedEnergyJ_{0};
    util::Joules accountedEnergyJ_{0};
    std::uint64_t maintenanceOps_ = 0;
    std::vector<WindowListener> windowListeners_;
    std::vector<IoListener> ioListeners_;
    std::vector<RecordListener> recordListeners_;
};

} // namespace core
} // namespace pcon

#endif // PCON_CORE_CONTAINER_MANAGER_H
