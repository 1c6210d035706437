#include "energy_index.h"

#include <algorithm>

#include "util/audit.h"

namespace pcon {
namespace obs {

EnergyIndex::~EnergyIndex()
{
    detach();
}

void
EnergyIndex::attach(trace::SpanCollector &collector)
{
    detach();
    collector_ = &collector;
    // Absorb already-recorded spans in id order — the same
    // floating-point addition sequence the collector's own
    // per-request sums perform, so rebuilt rollups match them
    // bit-for-bit (the byte-identity contract of obs/report.h).
    for (const trace::Span &s : collector.spans()) {
        absorbOpen(s);
        if (!s.open)
            absorbClose(s);
    }
    collector.setObserver(this);
}

void
EnergyIndex::detach()
{
    if (collector_ != nullptr)
        collector_->setObserver(nullptr);
    collector_ = nullptr;
    requests_.clear();
    spanEntries_.clear();
    ranking_.clear();
    unranked_.clear();
    machineEnergy_.clear();
    totalEnergyJ_ = util::Joules{0};
    spanCount_ = 0;
    openSpans_ = 0;
}

EnergyIndex::PerRequest &
EnergyIndex::entryFor(os::RequestId request)
{
    auto [it, fresh] = requests_.try_emplace(request);
    if (fresh)
        it->second.rankPos =
            ranking_.insert(RankKey{util::Joules{0}, request}).first;
    return it->second;
}

const EnergyIndex::PerRequest *
EnergyIndex::find(os::RequestId request) const
{
    auto it = requests_.find(request);
    return it == requests_.end() ? nullptr : &it->second;
}

void
EnergyIndex::markUnranked(PerRequest &entry)
{
    if (entry.unranked || entry.energyJ == entry.rankPos->energyJ)
        return;
    entry.unranked = true;
    unranked_.push_back(&entry);
}

void
EnergyIndex::rankChanged() const
{
    for (PerRequest *entry : unranked_) {
        entry->unranked = false;
        if (entry->energyJ == entry->rankPos->energyJ)
            continue;
        // Re-key the request's own node, found through its stored
        // position: no search and no allocation per re-rank.
        auto node = ranking_.extract(entry->rankPos);
        node.value().energyJ = entry->energyJ;
        entry->rankPos = ranking_.insert(std::move(node)).position;
    }
    unranked_.clear();
}

void
EnergyIndex::absorbOpen(const trace::Span &span)
{
    PerRequest &entry = entryFor(span.request);
    // The collector hands out dense ids in order (open and addSpan
    // enforce it), so the span's slot is the next one.
    PCON_AUDIT_MSG(span.id == spanEntries_.size() + 1,
                   "EnergyIndex: non-dense span id ", span.id);
    spanEntries_.push_back(&entry);
    ++entry.spanCount;
    ++entry.open;
    ++openSpans_;
    ++spanCount_;
    if (span.kind == trace::SpanKind::Root)
        entry.rootName = span.name;
    // The reload path delivers fully-formed spans: fold their
    // accumulated totals here (zeros on the live path, where open
    // precedes every charge).
    entry.energyJ += span.energyJ;
    entry.cpuTimeNs += span.cpuTimeNs;
    auto slot = std::find_if(
        entry.machineEnergy.begin(), entry.machineEnergy.end(),
        [&span](const std::pair<int, util::Joules> &p) {
            return p.first == span.machine;
        });
    if (slot == entry.machineEnergy.end()) {
        entry.machineEnergy.emplace_back(span.machine, span.energyJ);
        std::sort(entry.machineEnergy.begin(),
                  entry.machineEnergy.end(),
                  [](const std::pair<int, util::Joules> &a,
                     const std::pair<int, util::Joules> &b) {
                      return a.first < b.first;
                  });
    } else {
        slot->second += span.energyJ;
    }
    machineEnergy_[span.machine] += span.energyJ;
    totalEnergyJ_ += span.energyJ;
    markUnranked(entry);
}

void
EnergyIndex::absorbClose(const trace::Span &span)
{
    PerRequest &entry =
        *spanEntries_[static_cast<std::size_t>(span.id) - 1];
    if (entry.open > 0)
        --entry.open;
    if (openSpans_ > 0)
        --openSpans_;
    if (!entry.anyClosed || span.openedAt < entry.firstOpen)
        entry.firstOpen = span.openedAt;
    if (!entry.anyClosed || span.closedAt > entry.lastClose)
        entry.lastClose = span.closedAt;
    entry.anyClosed = true;
}

void
EnergyIndex::onSpanOpened(const trace::Span &span)
{
    absorbOpen(span);
}

void
EnergyIndex::onSpanClosed(const trace::Span &span)
{
    absorbClose(span);
}

void
EnergyIndex::onSpanCharged(const trace::Span &span,
                           util::Joules energy_delta,
                           double cpu_delta_ns)
{
    PerRequest &entry =
        *spanEntries_[static_cast<std::size_t>(span.id) - 1];
    entry.energyJ += energy_delta;
    entry.cpuTimeNs += cpu_delta_ns;
    auto slot = std::find_if(
        entry.machineEnergy.begin(), entry.machineEnergy.end(),
        [&span](const std::pair<int, util::Joules> &p) {
            return p.first == span.machine;
        });
    if (slot != entry.machineEnergy.end())
        slot->second += energy_delta;
    machineEnergy_[span.machine] += energy_delta;
    totalEnergyJ_ += energy_delta;
    markUnranked(entry);
}

std::vector<os::RequestId>
EnergyIndex::requests() const
{
    std::vector<os::RequestId> out;
    out.reserve(requests_.size());
    for (const auto &kv : requests_)
        out.push_back(kv.first);
    return out;
}

std::vector<os::RequestId>
EnergyIndex::ranked() const
{
    rankChanged();
    std::vector<os::RequestId> out;
    out.reserve(ranking_.size());
    for (const RankKey &key : ranking_)
        out.push_back(key.id);
    return out;
}

std::vector<os::RequestId>
EnergyIndex::topRequests(std::size_t n) const
{
    rankChanged();
    std::vector<os::RequestId> out;
    for (const RankKey &key : ranking_) {
        if (out.size() >= n)
            break;
        out.push_back(key.id);
    }
    return out;
}

bool
EnergyIndex::known(os::RequestId request) const
{
    return find(request) != nullptr;
}

RequestRollup
EnergyIndex::rollup(os::RequestId request) const
{
    RequestRollup out;
    out.id = request;
    const PerRequest *entry = find(request);
    if (entry == nullptr)
        return out;
    out.rootName = entry->rootName;
    out.spanCount = entry->spanCount;
    out.openSpans = entry->open;
    out.energyJ = entry->energyJ;
    out.cpuTimeNs = entry->cpuTimeNs;
    out.machineCount = entry->machineEnergy.size();
    out.wall = entry->anyClosed ? entry->lastClose - entry->firstOpen
                                : 0;
    return out;
}

util::Joules
EnergyIndex::requestEnergyJ(os::RequestId request) const
{
    const PerRequest *entry = find(request);
    return entry != nullptr ? entry->energyJ : util::Joules{0};
}

util::Watts
EnergyIndex::requestAvgPowerW(os::RequestId request) const
{
    const PerRequest *entry = find(request);
    if (entry == nullptr || entry->cpuTimeNs <= 0)
        return util::Watts{0};
    return entry->energyJ / util::SimSeconds(entry->cpuTimeNs * 1e-9);
}

std::vector<trace::SpanId>
EnergyIndex::requestSpans(os::RequestId request) const
{
    const trace::SpanCollector *spans = collector();
    return spans != nullptr ? spans->requestSpans(request)
                            : std::vector<trace::SpanId>{};
}

std::string
EnergyIndex::rootName(os::RequestId request) const
{
    const PerRequest *entry = find(request);
    return entry != nullptr ? entry->rootName : "?";
}

util::Joules
EnergyIndex::machineEnergyJ(os::RequestId request, int machine) const
{
    const PerRequest *entry = find(request);
    if (entry == nullptr)
        return util::Joules{0};
    for (const auto &slot : entry->machineEnergy)
        if (slot.first == machine)
            return slot.second;
    return util::Joules{0};
}

std::vector<int>
EnergyIndex::machines() const
{
    std::vector<int> out;
    out.reserve(machineEnergy_.size());
    for (const auto &kv : machineEnergy_)
        out.push_back(kv.first);
    return out;
}

util::Joules
EnergyIndex::machineTotalEnergyJ(int machine) const
{
    auto it = machineEnergy_.find(machine);
    return it == machineEnergy_.end() ? util::Joules{0} : it->second;
}

std::vector<QuotaHeadroom>
EnergyIndex::quotaHeadroom(
    const std::map<std::string, double> &budget_j_by_type,
    double default_budget_j) const
{
    std::vector<QuotaHeadroom> out;
    out.reserve(requests_.size());
    for (const auto &kv : requests_) {
        QuotaHeadroom row;
        row.id = kv.first;
        row.type = kv.second.rootName;
        row.usedJ = kv.second.energyJ;
        auto it = budget_j_by_type.find(row.type);
        double budget = it != budget_j_by_type.end()
                            ? it->second
                            : default_budget_j;
        row.budgetJ = util::Joules(budget);
        if (budget > 0) {
            row.headroomJ = row.budgetJ - row.usedJ;
            row.overBudget = row.usedJ > row.budgetJ;
        }
        out.push_back(row);
    }
    return out;
}

} // namespace obs
} // namespace pcon
