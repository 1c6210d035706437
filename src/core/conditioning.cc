#include "conditioning.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace pcon {
namespace core {

PowerConditioner::PowerConditioner(os::Kernel &kernel,
                                   ContainerManager &manager,
                                   const ConditionerConfig &cfg)
    : kernel_(kernel), manager_(manager), cfg_(cfg)
{
    util::fatalIf(cfg.systemActiveTargetW <= 0,
                  "power target must be positive");
    util::fatalIf(cfg.minDutyLevel < 1, "bad minimum duty level");
}

void
PowerConditioner::install()
{
    if (cfg_.actuator == Actuator::DutyCycle) {
        kernel_.setDutyPolicy([this](const os::Task &task) {
            return levelFor(task.context);
        });
    } else {
        kernel_.setPStatePolicy([this](const os::Task &task) {
            return pstateFor(task.context);
        });
    }
}

int
PowerConditioner::levelFor(os::RequestId id) const
{
    if (!enabled_)
        return kernel_.machine().config().dutyDenom;
    auto it = desiredLevel_.find(id);
    return it == desiredLevel_.end()
               ? kernel_.machine().config().dutyDenom
               : it->second;
}

int
PowerConditioner::pstateFor(os::RequestId id) const
{
    if (!enabled_)
        return 0;
    auto it = desiredPState_.find(id);
    return it == desiredPState_.end() ? 0 : it->second;
}

void
PowerConditioner::onSamplingInterrupt(int core)
{
    if (enabled_)
        adjust(core);
}

int
PowerConditioner::busyCores() const
{
    const hw::Machine &machine = kernel_.machine();
    int busy = 0;
    for (int c = 0; c < machine.totalCores(); ++c)
        if (machine.isBusy(c))
            ++busy;
    return busy;
}

void
PowerConditioner::adjust(int core)
{
    os::Task *task = kernel_.runningTask(core);
    if (task == nullptr)
        return;
    PowerContainer &container =
        manager_.containerOrBackground(task->context);
    if (container.sampleCount() == 0)
        return;

    hw::Machine &machine = kernel_.machine();
    // Recover the request's full-speed power from the current
    // actuator setting. The estimate comes from the event-linear
    // model, and event rates scale linearly with both the duty
    // fraction and the frequency ratio — so divide by that linear
    // scale (the *physical* DVFS power scale enters only when
    // predicting the effect of a candidate P-state).
    double scale =
        machine.dutyFraction(core) * machine.pstateRatio(core);
    double full_speed_w = container.lastPowerW().value() / scale;

    int busy = std::max(1, busyCores());
    double budget_w = cfg_.systemActiveTargetW / busy;

    if (cfg_.actuator == Actuator::DutyCycle)
        adjustDuty(core, task->context, full_speed_w, budget_w);
    else
        adjustPState(core, task->context, full_speed_w, budget_w);
}

void
PowerConditioner::adjustDuty(int core, os::RequestId context,
                             double full_speed_w, double budget_w)
{
    hw::Machine &machine = kernel_.machine();
    int denom = machine.config().dutyDenom;
    int level = denom;
    if (full_speed_w > budget_w) {
        level = static_cast<int>(
            std::floor(budget_w / full_speed_w * denom));
        level = std::clamp(level, cfg_.minDutyLevel, denom);
    }
    desiredLevel_[context] = level;
    if (machine.dutyLevel(core) != level)
        kernel_.setDutyLevel(core, level);
    recordStats(context, full_speed_w,
                static_cast<double>(level) / denom);
}

void
PowerConditioner::adjustPState(int core, os::RequestId context,
                               double full_speed_w, double budget_w)
{
    hw::Machine &machine = kernel_.machine();
    const std::vector<double> &pstates = machine.config().pstates;
    // Fastest P-state whose power multiplier fits the budget; the
    // deepest one when nothing fits.
    int chosen = static_cast<int>(pstates.size()) - 1;
    for (std::size_t p = 0; p < pstates.size(); ++p) {
        if (full_speed_w * hw::Machine::pstatePowerScale(pstates[p]) <=
            budget_w) {
            chosen = static_cast<int>(p);
            break;
        }
    }
    desiredPState_[context] = chosen;
    if (machine.pstate(core) != chosen)
        kernel_.setPState(core, chosen);
    recordStats(context, full_speed_w, pstates[chosen]);
}

void
PowerConditioner::recordStats(os::RequestId context,
                              double full_speed_w,
                              double speed_fraction)
{
    ThrottleStats &stats = stats_[context];
    if (stats.observations == 0) {
        stats.id = context;
        if (kernel_.requests().live(context))
            stats.type = kernel_.requests().info(context).type;
    }
    double n = static_cast<double>(stats.observations);
    stats.originalPowerW = util::Watts(
        (stats.originalPowerW.value() * n + full_speed_w) / (n + 1));
    stats.meanDutyFraction =
        (stats.meanDutyFraction * n + speed_fraction) / (n + 1);
    ++stats.observations;
}

void
PowerConditioner::reset()
{
    desiredLevel_.clear();
    desiredPState_.clear();
    stats_.clear();
}

int
uniformThrottleLevel(double unthrottled_active_w, double target_w,
                     int duty_denom)
{
    util::fatalIf(duty_denom < 2, "bad duty denominator");
    if (unthrottled_active_w <= target_w || unthrottled_active_w <= 0)
        return duty_denom;
    int level = static_cast<int>(
        std::floor(target_w / unthrottled_active_w * duty_denom));
    return std::clamp(level, 1, duty_denom);
}

} // namespace core
} // namespace pcon
