#include "invariant_auditor.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/logging.h"

namespace pcon {
namespace audit {

using util::panic;

namespace {

/** Relative tolerance of the attribution-sum check. */
constexpr double kAttributionRelTol = 0.05;
/** Absolute slack of the attribution-sum check, Joules. */
constexpr double kAttributionSlackJ = 0.5;

/** Finite and not NaN. */
bool
finite(double x)
{
    return std::isfinite(x);
}

} // namespace

InvariantAuditor::InvariantAuditor(os::Kernel &kernel,
                                   const InvariantAuditorConfig &cfg)
    : kernel_(kernel), cfg_(cfg),
      lastNow_(kernel.simulation().now())
{
    hw::Machine &machine = kernel_.machine();
    lastCounters_.reserve(
        static_cast<std::size_t>(machine.totalCores()));
    for (int c = 0; c < machine.totalCores(); ++c)
        lastCounters_.push_back(machine.readCounters(c));
    lastMachineEnergyJ_ = machine.machineEnergyJ();
    lastPackageEnergyJ_.reserve(
        static_cast<std::size_t>(machine.config().chips));
    for (int chip = 0; chip < machine.config().chips; ++chip)
        lastPackageEnergyJ_.push_back(machine.packageEnergyJ(chip));
    kernel_.simulation().addAuditor(this, cfg_.everyEvents);
}

InvariantAuditor::~InvariantAuditor()
{
    kernel_.simulation().removeAuditor(this);
}

void
InvariantAuditor::watch(core::ContainerManager &manager)
{
    ManagerState state;
    state.manager = &manager;
    state.baseAccountedJ = manager.accountedEnergyJ().value();
    state.baseMachineJ = kernel_.machine().machineEnergyJ().value();
    state.baseTime = kernel_.simulation().now();
    managers_.push_back(state);
    watchModel(manager.model());
}

void
InvariantAuditor::watchModel(const core::LinearPowerModel &model)
{
    for (const core::LinearPowerModel *m : models_)
        if (m == &model)
            return;
    models_.push_back(&model);
}

void
InvariantAuditor::audit(sim::SimTime now)
{
    try {
        checkClockMonotone(now);
        checkCounterInvariants();
        checkActuatorBounds();
        checkEnergyAccounts();
        checkModels();
        for (const ManagerState &state : managers_)
            checkManager(state);
    } catch (const util::PanicError &) {
        // Count the violation (telemetry) and re-raise: catching is
        // the caller's decision, visibility is not.
        ++violations_;
        ++auditsRun_;
        throw;
    }
    ++auditsRun_;
}

void
InvariantAuditor::checkNow()
{
    audit(kernel_.simulation().now());
}

void
InvariantAuditor::checkClockMonotone(sim::SimTime now)
{
    if (now < lastNow_)
        panic("invariant 'clock-monotonicity' violated: simulated "
              "time went backwards from ",
              lastNow_, " to ", now);
    lastNow_ = now;
}

void
InvariantAuditor::checkCounterInvariants()
{
    hw::Machine &machine = kernel_.machine();
    for (int c = 0; c < machine.totalCores(); ++c) {
        hw::CounterSnapshot now = machine.readCounters(c);
        const hw::CounterSnapshot &last =
            lastCounters_[static_cast<std::size_t>(c)];
        if (!finite(now.elapsedCycles) || !finite(now.nonhaltCycles) ||
            !finite(now.instructions) || !finite(now.flops) ||
            !finite(now.llcRefs) || !finite(now.memTxns))
            panic("invariant 'counter-finiteness' violated: core ", c,
                  " has a non-finite counter");
        if (now.elapsedCycles < last.elapsedCycles ||
            now.nonhaltCycles < last.nonhaltCycles ||
            now.instructions < last.instructions ||
            now.flops < last.flops || now.llcRefs < last.llcRefs ||
            now.memTxns < last.memTxns)
            panic("invariant 'counter-monotonicity' violated: a "
                  "counter on core ",
                  c, " decreased between audits");
        // Non-halt cycles cannot outrun the elapsed reference.
        // Injected observer-effect events add non-halt cycles without
        // elapsed time (Section 3.5), so they are left out.
        if (now.nonhaltCycles - machine.injectedNonhaltCycles(c) >
            now.elapsedCycles * 1.05 + 1e7)
            panic("invariant 'counter-nonhalt-bound' violated: core ",
                  c, " non-halt cycles ", now.nonhaltCycles,
                  " exceed elapsed cycles ", now.elapsedCycles);
        lastCounters_[static_cast<std::size_t>(c)] = now;
    }
}

void
InvariantAuditor::checkActuatorBounds()
{
    hw::Machine &machine = kernel_.machine();
    const hw::MachineConfig &cfg = machine.config();
    for (int c = 0; c < machine.totalCores(); ++c) {
        int duty = machine.dutyLevel(c);
        if (duty < 1 || duty > cfg.dutyDenom)
            panic("invariant 'duty-level-bounds' violated: core ", c,
                  " duty level ", duty, " outside 1..", cfg.dutyDenom);
        int pstate = machine.pstate(c);
        if (pstate < 0 ||
            pstate >= static_cast<int>(cfg.pstates.size()))
            panic("invariant 'pstate-bounds' violated: core ", c,
                  " P-state ", pstate, " outside 0..",
                  cfg.pstates.size() - 1);
    }
}

void
InvariantAuditor::checkEnergyAccounts()
{
    hw::Machine &machine = kernel_.machine();
    util::Joules now_j = machine.machineEnergyJ();
    if (!finite(now_j.value()) || now_j < lastMachineEnergyJ_)
        panic("invariant 'machine-energy-monotonicity' violated: "
              "cumulative machine energy went from ",
              lastMachineEnergyJ_, " J to ", now_j, " J");
    lastMachineEnergyJ_ = now_j;
    for (int chip = 0; chip < machine.config().chips; ++chip) {
        util::Joules chip_j = machine.packageEnergyJ(chip);
        util::Joules &last = lastPackageEnergyJ_[
            static_cast<std::size_t>(chip)];
        if (!finite(chip_j.value()) || chip_j < last)
            panic("invariant 'package-energy-monotonicity' violated: "
                  "chip ",
                  chip, " energy went from ", last, " J to ", chip_j,
                  " J");
        last = chip_j;
    }
}

void
InvariantAuditor::checkModels()
{
    for (const core::LinearPowerModel *model : models_) {
        if (!finite(model->idleW()) || model->idleW() < 0.0)
            panic("invariant 'model-idle-nonnegative' violated: idle "
                  "term is ",
                  model->idleW(), " W");
        for (std::size_t i = 0; i < core::NumMetrics; ++i) {
            core::Metric m = static_cast<core::Metric>(i);
            if (!model->usesMetric(m))
                continue;
            double c = model->coefficient(m);
            if (!finite(c) || c < 0.0)
                panic("invariant 'model-coefficient-nonnegative' "
                      "violated: coefficient of ",
                      core::Metrics::name(m), " is ", c,
                      " W after recalibration");
        }
    }
}

void
InvariantAuditor::checkManager(const ManagerState &state)
{
    core::ContainerManager &manager = *state.manager;
    double accounted = manager.accountedEnergyJ().value();
    if (!finite(accounted) || accounted < 0.0)
        panic("invariant 'accounted-energy-nonnegative' violated: "
              "accounted energy is ",
              accounted, " J");

    auto check_container = [](const core::PowerContainer &c) {
        if (!finite(c.cpuEnergyJ().value()) ||
            c.cpuEnergyJ().value() < 0.0 ||
            !finite(c.ioEnergyJ().value()) ||
            c.ioEnergyJ().value() < 0.0)
            panic("invariant 'container-energy-nonnegative' "
                  "violated: container ",
                  c.id(), " (", c.type().empty() ? "request" : c.type(),
                  ") holds cpu=", c.cpuEnergyJ(), " J io=", c.ioEnergyJ(),
                  " J");
        if (!finite(c.cpuTimeNs()) || c.cpuTimeNs() < 0.0)
            panic("invariant 'container-cputime-nonnegative' "
                  "violated: container ",
                  c.id(), " cpu time is ", c.cpuTimeNs(), " ns");
    };
    check_container(manager.background());
    // Sum in id order: live() is an unordered map, so hash order
    // would decide the sum's last bits.
    std::vector<os::RequestId> ids;
    ids.reserve(manager.live().size());
    // pcon-lint: allow(unordered-iteration) sorted before use
    for (const auto &entry : manager.live())
        ids.push_back(entry.first);
    std::sort(ids.begin(), ids.end());
    double live_j = manager.background().totalEnergyJ().value();
    for (os::RequestId id : ids) {
        const core::PowerContainer &c = *manager.container(id);
        check_container(c);
        live_j += c.totalEnergyJ().value();
    }

    // Completed-record energy is a running total, so the sum stays
    // comparable to the monotone accountedEnergyJ counter across
    // clearRecords() resets.
    double completed_j = manager.completedEnergyJ().value();
    double sum = live_j + completed_j;
    double attribution_slack = kAttributionSlackJ +
        kAttributionRelTol * std::max(std::abs(accounted), std::abs(sum));
    if (std::abs(accounted - sum) > attribution_slack)
        panic("invariant 'container-energy-conservation' "
              "violated: accounted ",
              accounted, " J but containers hold ", sum,
              " J (live+background ", live_j, " J, completed ",
              completed_j, " J)");

    hw::Machine &machine = kernel_.machine();
    double machine_j =
        machine.machineEnergyJ().value() - state.baseMachineJ;
    double idle_j = machine.config().truth.machineIdleW *
        sim::toSeconds(kernel_.simulation().now() - state.baseTime);
    double active_j = machine_j - idle_j;
    double accounted_j = accounted - state.baseAccountedJ;
    double slack = cfg_.conservationSlackJ +
        cfg_.conservationRelTol * std::max(active_j, 0.0);
    if (std::abs(accounted_j - active_j) > slack)
        panic("invariant 'chip-energy-conservation' violated: "
              "containers accounted ",
              accounted_j, " J but the machine measured ", active_j,
              " J of active energy (tolerance ", slack, " J)");
}

} // namespace audit
} // namespace pcon
