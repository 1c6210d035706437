#include <gtest/gtest.h>

#include "trace/span.h"
#include "util/logging.h"

namespace pcon::trace {
namespace {

using os::RequestId;
using sim::msec;

TEST(SpanKindNames, RoundTrip)
{
    for (SpanKind k :
         {SpanKind::Root, SpanKind::Stage, SpanKind::Fork,
          SpanKind::Remote, SpanKind::Io})
        EXPECT_EQ(spanKindFromName(spanKindName(k)), k);
    EXPECT_THROW(spanKindFromName("bogus"), util::PanicError);
}

TEST(SpanCollector, OpenAssignsDenseIdsAndTracksRoots)
{
    SpanCollector c;
    SpanId root = c.open(1, 0, "req", SpanKind::Root, NoSpan, 0);
    SpanId stage = c.open(1, 0, "work", SpanKind::Stage, root,
                          msec(1));
    EXPECT_EQ(root, 1u);
    EXPECT_EQ(stage, 2u);
    EXPECT_EQ(c.size(), 2u);
    EXPECT_EQ(c.openCount(), 2u);
    EXPECT_EQ(c.rootOf(1), root);
    EXPECT_EQ(c.rootOf(99), NoSpan);
    EXPECT_TRUE(c.valid(stage));
    EXPECT_FALSE(c.valid(NoSpan));
    EXPECT_FALSE(c.valid(3));
    EXPECT_EQ(c.span(stage).parent, root);
    EXPECT_THROW(c.span(3), util::PanicError);
}

TEST(SpanCollector, CloseIsIdempotentAndClampsToOpenTime)
{
    SpanCollector c;
    SpanId s = c.open(1, 0, "a", SpanKind::Stage, NoSpan, msec(5));
    c.close(s, msec(3)); // earlier than open: clamped
    EXPECT_FALSE(c.span(s).open);
    EXPECT_EQ(c.span(s).closedAt, msec(5));
    EXPECT_EQ(c.span(s).duration(), 0);
    c.close(s, msec(9)); // second close is a no-op
    EXPECT_EQ(c.span(s).closedAt, msec(5));
    EXPECT_EQ(c.openCount(), 0u);
}

TEST(SpanCollector, ChargeAndIoBytesAccumulate)
{
    SpanCollector c;
    SpanId s = c.open(1, 0, "a", SpanKind::Stage, NoSpan, 0);
    c.charge(s, util::Joules(0.5), 1e6, util::Cycles(2e6), 1e6);
    c.charge(s, util::Joules(0.25), 1e6, util::Cycles(0), 0);
    c.addIoBytes(s, 4096);
    const Span &span = c.span(s);
    EXPECT_DOUBLE_EQ(span.energyJ.value(), 0.75);
    EXPECT_DOUBLE_EQ(span.cpuTimeNs, 2e6);
    EXPECT_DOUBLE_EQ(span.cycles.value(), 2e6);
    EXPECT_DOUBLE_EQ(span.ioBytes, 4096);
    EXPECT_DOUBLE_EQ(span.avgPowerW().value(), 0.75 / 2e-3);
}

TEST(SpanCollector, SpanReferencesSurviveGrowth)
{
    // Tracers and observers hold span() references while later
    // open()s grow the store; growth must never move a span.
    SpanCollector c;
    SpanId first = c.open(1, 2, "req", SpanKind::Root, NoSpan, msec(1));
    c.charge(first, util::Joules(0.5), 1e6, util::Cycles(3e6), 4e6);
    const Span &held = c.span(first);
    const Span *address = &held;
    for (int i = 0; i < 5000; ++i)
        c.open(1, 0, "stage", SpanKind::Stage, first, msec(2));
    EXPECT_EQ(c.size(), 5001u);
    EXPECT_EQ(&c.span(first), address);
    EXPECT_EQ(held.id, first);
    EXPECT_EQ(held.request, 1u);
    EXPECT_EQ(held.machine, 2);
    EXPECT_EQ(held.name, "req");
    EXPECT_EQ(held.kind, SpanKind::Root);
    EXPECT_EQ(held.openedAt, msec(1));
    EXPECT_DOUBLE_EQ(held.energyJ.value(), 0.5);
    EXPECT_DOUBLE_EQ(held.instructions, 4e6);
}

TEST(Span, PacksFourToADequeBlock)
{
    // kind and open share machine's word; with libstdc++'s 32-byte
    // string a span is 128 bytes, four to a 512-byte deque block.
    static_assert(sizeof(SpanKind) == 1);
    EXPECT_LE(sizeof(Span), 128u);
}

TEST(SpanCollector, ReparentRewiresTheCausalEdge)
{
    SpanCollector c;
    SpanId root = c.open(1, 0, "req", SpanKind::Root, NoSpan, 0);
    SpanId a = c.open(1, 0, "a", SpanKind::Stage, root, 0);
    SpanId b = c.open(1, 1, "b", SpanKind::Stage, root, 0);
    c.reparent(b, a, SpanKind::Remote, a);
    EXPECT_EQ(c.span(b).parent, a);
    EXPECT_EQ(c.span(b).remoteParent, a);
    EXPECT_EQ(c.span(b).kind, SpanKind::Remote);
    // Roots stay parentless; self-edges and bad targets are bugs.
    EXPECT_THROW(c.reparent(root, a, SpanKind::Stage),
                 util::PanicError);
    EXPECT_THROW(c.reparent(a, a, SpanKind::Stage),
                 util::PanicError);
    EXPECT_THROW(c.reparent(a, 99, SpanKind::Stage),
                 util::PanicError);
}

TEST(SpanCollector, RequestAndMachineQueries)
{
    SpanCollector c;
    SpanId r1 = c.open(1, 0, "req1", SpanKind::Root, NoSpan, 0);
    SpanId s1 = c.open(1, 0, "a", SpanKind::Stage, r1, 0);
    SpanId s2 = c.open(1, 1, "b", SpanKind::Remote, s1, 0);
    SpanId r2 = c.open(2, 1, "req2", SpanKind::Root, NoSpan, 0);
    c.charge(s1, util::Joules(1.0), 1e6, util::Cycles(0), 0);
    c.charge(s2, util::Joules(0.5), 1e6, util::Cycles(0), 0);

    EXPECT_EQ(c.requestSpans(1),
              (std::vector<SpanId>{r1, s1, s2}));
    EXPECT_EQ(c.span(s1).parent, r1);
    EXPECT_EQ(c.span(s2).parent, s1);
    EXPECT_EQ(c.requests(), (std::vector<RequestId>{1, 2}));
    EXPECT_DOUBLE_EQ(c.requestEnergyJ(1).value(), 1.5);
    EXPECT_DOUBLE_EQ(c.requestEnergyJ(2).value(), 0.0);
    EXPECT_DOUBLE_EQ(c.machineEnergyJ(1, 0).value(), 1.0);
    EXPECT_DOUBLE_EQ(c.machineEnergyJ(1, 1).value(), 0.5);
    EXPECT_EQ(c.machines(), (std::vector<int>{0, 1}));
    (void)r2;
}

TEST(SpanCollector, CriticalPathEndsAtTheLatestClosingSpan)
{
    SpanCollector c;
    SpanId root = c.open(1, 0, "req", SpanKind::Root, NoSpan, 0);
    SpanId a = c.open(1, 0, "a", SpanKind::Stage, root, 0);
    SpanId b = c.open(1, 1, "b", SpanKind::Remote, a, msec(1));
    SpanId side = c.open(1, 0, "side", SpanKind::Stage, root, 0);
    c.close(side, msec(2));
    c.close(a, msec(3));
    c.close(b, msec(4));
    c.close(root, msec(4));
    // Root and b close at the same instant; the tie breaks leaf-ward
    // so the path ends at the deepest final stage, not the root.
    EXPECT_EQ(c.criticalPath(1),
              (std::vector<SpanId>{root, a, b}));
    EXPECT_TRUE(c.criticalPath(42).empty());
}

TEST(SpanCollector, CriticalPathIgnoresOpenSpans)
{
    SpanCollector c;
    SpanId root = c.open(1, 0, "req", SpanKind::Root, NoSpan, 0);
    SpanId a = c.open(1, 0, "a", SpanKind::Stage, root, 0);
    c.close(root, msec(5));
    // `a` never closed: only the root is eligible.
    EXPECT_EQ(c.criticalPath(1), std::vector<SpanId>{root});
    (void)a;
}

TEST(SpanCollector, AddSpanRequiresDenseIds)
{
    SpanCollector c;
    Span s;
    s.id = 1;
    s.request = 7;
    s.kind = SpanKind::Root;
    s.name = "req";
    s.open = false;
    c.addSpan(s);
    EXPECT_EQ(c.rootOf(7), 1u);
    Span sparse;
    sparse.id = 5; // must be size() + 1 == 2
    sparse.request = 7;
    EXPECT_THROW(c.addSpan(sparse), util::PanicError);
}

} // namespace
} // namespace pcon::trace
