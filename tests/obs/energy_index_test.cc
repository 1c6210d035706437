/**
 * @file
 * EnergyIndex tests: live incremental maintenance must agree with
 * the collector's own per-request queries, attach() must absorb an
 * already-populated collector exactly (same floating-point order,
 * so bitwise-equal totals), and the ranking/quota views must track
 * charges as they land — the lazy ranking in the same order as a
 * sort from scratch.
 */

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/energy_index.h"

namespace pcon::obs {
namespace {

using sim::msec;
using trace::NoSpan;
using trace::SpanCollector;
using trace::SpanId;
using trace::SpanKind;

/** Two requests across two machines with distinct energies. */
void
populate(SpanCollector &c)
{
    SpanId r1 = c.open(1, 0, "checkout", SpanKind::Root, NoSpan, 0);
    SpanId s1 = c.open(1, 1, "worker", SpanKind::Remote, r1, msec(1));
    SpanId r2 = c.open(2, 0, "browse", SpanKind::Root, NoSpan,
                       msec(1));
    c.charge(r1, util::Joules(0.25), 1e6, util::Cycles(1e6), 5e5);
    c.charge(s1, util::Joules(0.125), 5e5, util::Cycles(5e5), 2e5);
    c.charge(r2, util::Joules(0.0625), 2e5, util::Cycles(2e5), 1e5);
    c.close(s1, msec(3));
    c.close(r1, msec(4));
    c.close(r2, msec(5));
}

TEST(EnergyIndex, LiveIncrementalMatchesCollectorScans)
{
    SpanCollector c;
    EnergyIndex index;
    index.attach(c); // before any span exists: pure live path
    populate(c);

    EXPECT_EQ(index.requests(), c.requests());
    EXPECT_EQ(index.machines(), c.machines());
    EXPECT_EQ(index.spanCount(), c.size());
    EXPECT_EQ(index.openSpanCount(), c.openCount());
    for (os::RequestId r : c.requests()) {
        EXPECT_DOUBLE_EQ(index.requestEnergyJ(r).value(),
                         c.requestEnergyJ(r).value());
        for (int m : c.machines())
            EXPECT_DOUBLE_EQ(index.machineEnergyJ(r, m).value(),
                             c.machineEnergyJ(r, m).value());
        EXPECT_EQ(index.requestSpans(r), c.requestSpans(r));
    }
}

TEST(EnergyIndex, AttachAbsorbsExistingSpansExactly)
{
    SpanCollector c;
    populate(c);
    EnergyIndex index;
    index.attach(c); // rebuild path: absorb in id order

    // Id-order absorption replays the collector's own accumulation
    // order, so equality is exact, not approximate.
    for (os::RequestId r : c.requests()) {
        EXPECT_EQ(index.requestEnergyJ(r).value(),
                  c.requestEnergyJ(r).value());
        for (int m : c.machines())
            EXPECT_EQ(index.machineEnergyJ(r, m).value(),
                      c.machineEnergyJ(r, m).value());
    }
    EXPECT_EQ(index.spanCount(), c.size());
    EXPECT_EQ(index.openSpanCount(), 0u);
    EXPECT_EQ(index.rootName(1), "checkout");
    EXPECT_EQ(index.rootName(2), "browse");
    EXPECT_EQ(index.rootName(99), "?");
}

TEST(EnergyIndex, RankingTracksChargesAsTheyLand)
{
    SpanCollector c;
    EnergyIndex index;
    index.attach(c);
    SpanId a = c.open(1, 0, "a", SpanKind::Root, NoSpan, 0);
    SpanId b = c.open(2, 0, "b", SpanKind::Root, NoSpan, 0);
    c.charge(a, util::Joules(0.5), 0, util::Cycles(0), 0);
    c.charge(b, util::Joules(0.25), 0, util::Cycles(0), 0);
    EXPECT_EQ(index.ranked(), (std::vector<os::RequestId>{1, 2}));
    // A later charge flips the order.
    c.charge(b, util::Joules(0.5), 0, util::Cycles(0), 0);
    EXPECT_EQ(index.ranked(), (std::vector<os::RequestId>{2, 1}));
    EXPECT_EQ(index.topRequests(1),
              (std::vector<os::RequestId>{2}));
    EXPECT_EQ(index.topRequests(0).size(), 0u);
    c.close(a, msec(1));
    c.close(b, msec(1));
}

/** The ranking contract computed from scratch: every request by the
 * collector's own span sum, energy descending, then id ascending. */
std::vector<os::RequestId>
referenceRanking(const SpanCollector &c)
{
    std::vector<os::RequestId> ids = c.requests();
    std::sort(ids.begin(), ids.end(),
              [&c](os::RequestId a, os::RequestId b) {
                  double ea = c.requestEnergyJ(a).value();
                  double eb = c.requestEnergyJ(b).value();
                  return ea != eb ? ea > eb : a < b;
              });
    return ids;
}

TEST(EnergyIndex, LazyRankingMatchesAReferenceSort)
{
    // Every charge is a multiple of 1/8 J, so every sum is exact in
    // any order: the index's charge-order totals equal the
    // collector's id-order sums, and equal energies really tie.
    SpanCollector c;
    EnergyIndex index;
    index.attach(c);
    std::mt19937 rng(1213);
    auto pick = [&rng](std::size_t n) {
        return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
    };
    auto expectRanked = [&](const std::string &when) {
        std::vector<os::RequestId> want = referenceRanking(c);
        EXPECT_EQ(index.ranked(), want) << when;
        std::size_t n = pick(want.size() + 2);
        std::vector<os::RequestId> top(
            want.begin(), want.begin() + std::min(n, want.size()));
        EXPECT_EQ(index.topRequests(n), top) << when << ", n=" << n;
    };
    auto charge = [&c](SpanId span, double joules) {
        c.charge(span, util::Joules(joules), 0, util::Cycles(0), 0);
    };

    std::vector<SpanId> spans;
    os::RequestId next = 1;
    for (int step = 0; step < 3000; ++step) {
        std::size_t op = pick(16);
        if (spans.empty() || (op == 0 && next <= 50)) {
            spans.push_back(
                c.open(next++, 0, "r", SpanKind::Root, NoSpan, 0));
        } else if (op == 1) {
            SpanId parent = spans[pick(spans.size())];
            spans.push_back(c.open(c.span(parent).request, 0, "s",
                                   SpanKind::Stage, parent, 0));
        } else if (op < 14) {
            // One charge in four is a zero delta.
            charge(spans[pick(spans.size())],
                   static_cast<double>(pick(4)) / 8);
        } else {
            expectRanked("step " + std::to_string(step));
        }
        if (step == 1500) {
            index.detach();
            EXPECT_TRUE(index.ranked().empty());
            index.attach(c);
            expectRanked("after re-attach");
        }
    }
    ASSERT_EQ(c.requests().size(), 50u);

    // Two charges that return the last-ranked request to the total
    // it was ranked at: queued, then found unchanged.
    std::vector<os::RequestId> before = index.ranked();
    SpanId last = c.rootOf(before.back());
    charge(last, 0.5);
    charge(last, -0.5);
    EXPECT_EQ(index.ranked(), before);
    // The same round trip with a query in between.
    charge(last, 1000);
    EXPECT_EQ(index.topRequests(1),
              std::vector<os::RequestId>{before.back()});
    charge(last, -1000);
    EXPECT_EQ(index.ranked(), before);
    expectRanked("after the round trips");
}

TEST(EnergyIndex, RollupCarriesCountsEnvelopeAndMachines)
{
    SpanCollector c;
    populate(c);
    EnergyIndex index;
    index.attach(c);
    RequestRollup r1 = index.rollup(1);
    EXPECT_EQ(r1.rootName, "checkout");
    EXPECT_EQ(r1.spanCount, 2u);
    EXPECT_EQ(r1.openSpans, 0u);
    EXPECT_EQ(r1.machineCount, 2u);
    EXPECT_EQ(r1.wall, msec(4)); // first open 0, last close 4 ms
    EXPECT_DOUBLE_EQ(r1.energyJ.value(), 0.375);
    // Unknown requests roll up to zeros.
    RequestRollup unknown = index.rollup(99);
    EXPECT_EQ(unknown.spanCount, 0u);
    EXPECT_EQ(unknown.rootName, "?");
}

TEST(EnergyIndex, QuotaHeadroomAppliesTypeBudgets)
{
    SpanCollector c;
    populate(c);
    EnergyIndex index;
    index.attach(c);
    std::map<std::string, double> budgets{{"checkout", 0.5},
                                          {"browse", 0.05}};
    std::vector<QuotaHeadroom> rows = index.quotaHeadroom(budgets);
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].id, 1u);
    EXPECT_EQ(rows[0].type, "checkout");
    EXPECT_FALSE(rows[0].overBudget);
    EXPECT_DOUBLE_EQ(rows[0].headroomJ.value(), 0.5 - 0.375);
    // browse used 0.0625 J against a 0.05 J budget: over.
    EXPECT_TRUE(rows[1].overBudget);
    // Unlimited default budget: no headroom math, never over.
    std::vector<QuotaHeadroom> unlimited = index.quotaHeadroom({});
    EXPECT_FALSE(unlimited[0].overBudget);
    EXPECT_DOUBLE_EQ(unlimited[0].headroomJ.value(), 0.0);
}

TEST(EnergyIndex, DetachDropsStateAndReattachRebuilds)
{
    SpanCollector c;
    populate(c);
    EnergyIndex index;
    index.attach(c);
    EXPECT_NE(index.collector(), nullptr);
    index.detach();
    EXPECT_EQ(index.collector(), nullptr);
    EXPECT_EQ(index.spanCount(), 0u);
    EXPECT_FALSE(index.known(1));
    index.attach(c);
    EXPECT_EQ(index.spanCount(), c.size());
    EXPECT_TRUE(index.known(1));
}

TEST(EnergyIndex, DestructionUnsubscribesFromTheCollector)
{
    SpanCollector c;
    {
        EnergyIndex index;
        index.attach(c);
    }
    // The destroyed index must have unhooked itself: further span
    // activity would otherwise call into freed memory.
    SpanId r = c.open(5, 0, "after", SpanKind::Root, NoSpan, 0);
    c.charge(r, util::Joules(0.125), 0, util::Cycles(0), 0);
    c.close(r, msec(1));
    EXPECT_EQ(c.requestEnergyJ(5).value(), 0.125);
}

TEST(EnergyIndex, AvgPowerDividesEnergyByCpuTime)
{
    SpanCollector c;
    EnergyIndex index;
    index.attach(c);
    SpanId r = c.open(1, 0, "r", SpanKind::Root, NoSpan, 0);
    // 0.5 J over 2 ms of CPU time = 250 W.
    c.charge(r, util::Joules(0.5), 2e6, util::Cycles(0), 0);
    EXPECT_DOUBLE_EQ(index.requestAvgPowerW(1).value(), 250.0);
    EXPECT_DOUBLE_EQ(index.requestAvgPowerW(9).value(), 0.0);
    c.close(r, msec(1));
}

} // namespace
} // namespace pcon::obs
