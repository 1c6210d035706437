/**
 * @file
 * Cross-module invariant auditing (the runtime half of the audit
 * layer; src/util/audit.h is the compile-time half).
 *
 * InvariantAuditor verifies, at a configurable event cadence, the
 * physical contracts the paper's claims rest on: container energy
 * conservation against the machine's measured energy (the Figure 8
 * validation as a live invariant), counter and clock monotonicity,
 * duty-cycle and DVFS bounds, and non-negative model coefficients
 * after recalibration. A violation panics (throws util::PanicError)
 * with a message naming the violated invariant, so fuzzing and long
 * experiments fail near the cause instead of at end-of-run asserts.
 */

#ifndef PCON_AUDIT_INVARIANT_AUDITOR_H
#define PCON_AUDIT_INVARIANT_AUDITOR_H

#include <cstdint>
#include <vector>

#include "core/container_manager.h"
#include "core/power_model.h"
#include "hw/counters.h"
#include "os/kernel.h"
#include "sim/simulation.h"
#include "util/units.h"

namespace pcon {
namespace audit {

/**
 * Audit cadence and the conservation check's tolerance. Every check
 * always runs: counters (monotone, non-halt <= elapsed), actuator
 * bounds, machine/package energy (monotone, finite), watched models
 * (coefficients finite and non-negative), and for watched managers
 * the attribution sum and energy conservation.
 */
struct InvariantAuditorConfig
{
    /** Event cadence of periodic checks (passed to addAuditor). */
    std::uint64_t everyEvents = 4096;
    /**
     * Relative tolerance of the conservation check: accounted energy
     * tracks the machine's measured active energy (Equations 1-3).
     * Loose by default for approximate models; tighten it when the
     * model is near-exact.
     */
    double conservationRelTol = 0.25;
    /** Absolute slack of the conservation check, Joules. */
    double conservationSlackJ = 1.0;
};

/**
 * A sim::Auditor that watches one kernel (machine + scheduler) and
 * optionally any number of container managers and power models.
 * Registers itself with the kernel's simulation on construction and
 * deregisters on destruction.
 */
class InvariantAuditor : public sim::Auditor
{
  public:
    /**
     * @param kernel Kernel whose machine and actuators are audited.
     * @param cfg Audit cadence and conservation tolerance.
     */
    explicit InvariantAuditor(os::Kernel &kernel,
                              const InvariantAuditorConfig &cfg = {});

    ~InvariantAuditor() override;

    InvariantAuditor(const InvariantAuditor &) = delete;
    InvariantAuditor &operator=(const InvariantAuditor &) = delete;

    /**
     * Audit a container manager's attribution bookkeeping and energy
     * conservation; also watches its model.
     */
    void watch(core::ContainerManager &manager);

    /** Audit a model's coefficients (finite, non-negative). */
    void watchModel(const core::LinearPowerModel &model);

    // --- sim::Auditor ---
    void audit(sim::SimTime now) override;

    /** Run every check immediately (tests, breakpoints). */
    void checkNow();

    /** Number of audit passes performed so far. */
    std::uint64_t auditsRun() const { return auditsRun_; }

    /**
     * Number of audit passes that detected a violation (each also
     * threw util::PanicError; nonzero only when a caller caught it
     * and carried on, e.g. a fuzzer or a telemetry-observed soak).
     */
    std::uint64_t violationsDetected() const { return violations_; }

  private:
    struct ManagerState
    {
        core::ContainerManager *manager;
        /** accountedEnergyJ at the watch() baseline. */
        double baseAccountedJ;
        /** Machine energy at the watch() baseline. */
        double baseMachineJ;
        /** Time of the watch() baseline. */
        sim::SimTime baseTime;
    };

    void checkClockMonotone(sim::SimTime now);
    void checkCounterInvariants();
    void checkActuatorBounds();
    void checkEnergyAccounts();
    void checkModels();
    void checkManager(const ManagerState &state);

    os::Kernel &kernel_;
    InvariantAuditorConfig cfg_;
    sim::SimTime lastNow_;
    std::vector<hw::CounterSnapshot> lastCounters_;
    util::Joules lastMachineEnergyJ_{0};
    std::vector<util::Joules> lastPackageEnergyJ_;
    std::vector<ManagerState> managers_;
    std::vector<const core::LinearPowerModel *> models_;
    std::uint64_t auditsRun_ = 0;
    std::uint64_t violations_ = 0;
};

} // namespace audit
} // namespace pcon

#endif // PCON_AUDIT_INVARIANT_AUDITOR_H
