/**
 * @file
 * EnergyIndex tests: live incremental maintenance must agree with
 * the collector's own per-request queries, attach() must absorb an
 * already-populated collector exactly (same floating-point order,
 * so bitwise-equal totals), and the ranking/quota views must track
 * charges as they land — the lazy ranking in the same order as a
 * sort from scratch — including after a re-attach to another
 * collector.
 */

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <numeric>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/energy_index.h"
#include "trace/span_json.h"

namespace pcon::obs {
namespace {

using sim::msec;
using trace::NoSpan;
using trace::Span;
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

/**
 * Seeded opens, closes and charges over the requests of `order`,
 * whose roots open in that order, interleaved with the rest. Spans
 * land on three machines and three root types. Every charge is a
 * multiple of 1/8 J and a whole number of ns, so every sum is exact
 * in any order.
 */
class SpanStream
{
  public:
    SpanStream(SpanCollector &c, unsigned seed,
               std::vector<os::RequestId> order)
        : c_(c), rng_(seed), order_(std::move(order))
    {
        std::shuffle(order_.begin(), order_.end(), rng_);
    }

    void
    run(int steps)
    {
        for (int step = 0; step < steps; ++step) {
            now_ += sim::usec(1 + static_cast<int>(pick(50)));
            std::size_t op = pick(16);
            int machine = static_cast<int>(pick(3));
            if (spans_.empty() ||
                (op == 0 && next_ < order_.size())) {
                std::string type = "type" + std::to_string(pick(3));
                spans_.push_back(c_.open(order_[next_++], machine, type,
                                         SpanKind::Root, NoSpan, now_));
            } else if (op < 3) {
                SpanId parent = spans_[pick(spans_.size())];
                spans_.push_back(c_.open(c_.span(parent).request,
                                         machine, "stage",
                                         SpanKind::Stage, parent, now_));
            } else if (op < 5) {
                c_.close(spans_[pick(spans_.size())], now_);
            } else {
                c_.charge(spans_[pick(spans_.size())],
                          util::Joules(static_cast<double>(pick(8)) / 8),
                          static_cast<double>(pick(1000)),
                          util::Cycles(0), 0);
            }
        }
    }

  private:
    std::size_t
    pick(std::size_t n)
    {
        return std::uniform_int_distribution<std::size_t>(0, n - 1)(
            rng_);
    }

    SpanCollector &c_;
    std::mt19937 rng_;
    std::vector<os::RequestId> order_;
    std::size_t next_ = 0;
    std::vector<SpanId> spans_;
    sim::SimTime now_ = 0;
};

std::vector<os::RequestId>
requestIds(os::RequestId first, std::size_t count)
{
    std::vector<os::RequestId> ids(count);
    std::iota(ids.begin(), ids.end(), first);
    return ids;
}

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

std::uint64_t
bits(util::Joules v)
{
    return bits(v.value());
}

/** A request's rollup summed from the collector's own spans. */
RequestRollup
collectorRollup(const SpanCollector &c, os::RequestId request)
{
    RequestRollup out;
    out.id = request;
    if (c.rootOf(request) != NoSpan)
        out.rootName = c.span(c.rootOf(request)).name;
    std::vector<int> machines;
    bool closed = false;
    sim::SimTime first = 0;
    sim::SimTime last = 0;
    for (SpanId id : c.requestSpans(request)) {
        const Span &s = c.span(id);
        ++out.spanCount;
        if (s.open)
            ++out.openSpans;
        out.cpuTimeNs += s.cpuTimeNs;
        if (std::find(machines.begin(), machines.end(), s.machine) ==
            machines.end())
            machines.push_back(s.machine);
        if (s.open)
            continue;
        first = closed ? std::min(first, s.openedAt) : s.openedAt;
        last = closed ? std::max(last, s.closedAt) : s.closedAt;
        closed = true;
    }
    out.energyJ = c.requestEnergyJ(request);
    out.machineCount = machines.size();
    out.wall = closed ? last - first : 0;
    return out;
}

void
expectSameRollup(const RequestRollup &got, const RequestRollup &want,
                 const std::string &what)
{
    EXPECT_EQ(got.id, want.id) << what;
    EXPECT_EQ(got.rootName, want.rootName) << what;
    EXPECT_EQ(got.spanCount, want.spanCount) << what;
    EXPECT_EQ(got.openSpans, want.openSpans) << what;
    EXPECT_EQ(bits(got.energyJ), bits(want.energyJ)) << what;
    EXPECT_EQ(bits(got.cpuTimeNs), bits(want.cpuTimeNs)) << what;
    EXPECT_EQ(got.machineCount, want.machineCount) << what;
    EXPECT_EQ(got.wall, want.wall) << what;
}

/**
 * Every query of `index` (attached to `c`) bit for bit against two
 * references: an index attached after the fact to a reload of `c`'s
 * dump, and `c`'s own sums.
 */
void
expectMatchesReferences(const EnergyIndex &index, const SpanCollector &c,
                        const std::string &when)
{
    SpanCollector copy = trace::parseSpanJson(trace::renderSpanJson(c));
    EnergyIndex fresh;
    fresh.attach(copy);

    EXPECT_EQ(index.requests(), fresh.requests()) << when;
    EXPECT_EQ(index.requests(), c.requests()) << when;
    std::vector<os::RequestId> want = referenceRanking(c);
    EXPECT_EQ(index.ranked(), fresh.ranked()) << when;
    EXPECT_EQ(index.ranked(), want) << when;
    want.resize(std::min<std::size_t>(want.size(), 5));
    EXPECT_EQ(index.topRequests(5), fresh.topRequests(5)) << when;
    EXPECT_EQ(index.topRequests(5), want) << when;
    EXPECT_EQ(index.machines(), c.machines()) << when;
    EXPECT_EQ(index.spanCount(), c.size()) << when;
    EXPECT_EQ(index.openSpanCount(), c.openCount()) << when;
    EXPECT_EQ(bits(index.totalEnergyJ()), bits(fresh.totalEnergyJ()))
        << when;
    for (os::RequestId r : c.requests()) {
        std::string what = when + ", request " + std::to_string(r);
        expectSameRollup(index.rollup(r), fresh.rollup(r), what);
        expectSameRollup(index.rollup(r), collectorRollup(c, r), what);
        for (int m : c.machines()) {
            EXPECT_EQ(bits(index.machineEnergyJ(r, m)),
                      bits(fresh.machineEnergyJ(r, m)))
                << what << ", machine " << m;
            EXPECT_EQ(bits(index.machineEnergyJ(r, m)),
                      bits(c.machineEnergyJ(r, m)))
                << what << ", machine " << m;
        }
    }
    for (int m : c.machines())
        EXPECT_EQ(bits(index.machineTotalEnergyJ(m)),
                  bits(fresh.machineTotalEnergyJ(m)))
            << when << ", machine " << m;

    std::map<std::string, double> budgets{{"type0", 2.5},
                                          {"type1", 0.5}};
    std::vector<QuotaHeadroom> got = index.quotaHeadroom(budgets, 4);
    std::vector<QuotaHeadroom> ref = fresh.quotaHeadroom(budgets, 4);
    ASSERT_EQ(got.size(), ref.size()) << when;
    ASSERT_EQ(got.size(), c.requests().size()) << when;
    for (std::size_t i = 0; i < got.size(); ++i) {
        os::RequestId r = c.requests()[i];
        EXPECT_EQ(got[i].id, ref[i].id) << when;
        EXPECT_EQ(got[i].id, r) << when;
        EXPECT_EQ(got[i].type, ref[i].type) << when;
        EXPECT_EQ(got[i].type, collectorRollup(c, r).rootName) << when;
        EXPECT_EQ(bits(got[i].usedJ), bits(ref[i].usedJ)) << when;
        EXPECT_EQ(bits(got[i].usedJ), bits(c.requestEnergyJ(r))) << when;
        EXPECT_EQ(bits(got[i].budgetJ), bits(ref[i].budgetJ)) << when;
        EXPECT_EQ(bits(got[i].headroomJ), bits(ref[i].headroomJ)) << when;
        EXPECT_EQ(got[i].overBudget, ref[i].overBudget) << when;
    }
}

TEST(EnergyIndex, ReattachToAnotherCollectorStaysExact)
{
    // B is recorded first, unobserved. Its span ids belong to other
    // requests than A's: the same 50 ids, in another first-seen order.
    SpanCollector a;
    SpanCollector b;
    SpanStream stream_b(b, 77, requestIds(1, 50));
    stream_b.run(3000);
    ASSERT_EQ(b.requests().size(), 50u);

    EnergyIndex index;
    index.attach(a);
    SpanStream stream_a(a, 1213, requestIds(1, 50));
    stream_a.run(3000);
    ASSERT_EQ(a.requests().size(), 50u);
    ASSERT_NE(a.span(1).request, b.span(1).request);
    expectMatchesReferences(index, a, "live on A");

    // Re-attaching must rebuild the span-id table from B, or B's
    // charges land on the requests A's spans belonged to.
    index.detach();
    index.attach(b);
    expectMatchesReferences(index, b, "re-attached to B");
    stream_b.run(3000);
    expectMatchesReferences(index, b, "charged on B");
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
