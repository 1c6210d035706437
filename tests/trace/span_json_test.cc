#include <initializer_list>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "trace/span_json.h"
#include "util/logging.h"

namespace pcon::trace {
namespace {

SpanCollector
sampleTree()
{
    SpanCollector c;
    SpanId root = c.open(7, 0, "report", SpanKind::Root, NoSpan, 0);
    SpanId stage = c.open(7, 0, "frontend", SpanKind::Stage, root,
                          sim::msec(1));
    SpanId remote = c.open(7, 1, "worker \"w\"", SpanKind::Remote,
                           stage, sim::msec(2));
    c.reparent(remote, stage, SpanKind::Remote, stage);
    SpanId io = c.open(7, 1, "disk", SpanKind::Io, remote,
                       sim::msec(3));
    c.charge(stage, util::Joules(0.125), 1e6, util::Cycles(2e6), 1.5e6);
    c.charge(remote, util::Joules(0.0625), 5e5, util::Cycles(1e6), 7.5e5);
    c.addIoBytes(io, 4096);
    c.close(io, sim::msec(4));
    c.close(remote, sim::msec(5));
    c.close(stage, sim::msec(6));
    c.close(root, sim::msec(6));
    return c;
}

TEST(SpanJson, RoundTripReproducesTheCollectorExactly)
{
    SpanCollector original = sampleTree();
    std::string json = renderSpanJson(original);
    SpanCollector reloaded = parseSpanJson(json);

    ASSERT_EQ(reloaded.size(), original.size());
    for (SpanId id = 1; id <= original.size(); ++id) {
        const Span &a = original.span(id);
        const Span &b = reloaded.span(id);
        EXPECT_EQ(b.id, a.id);
        EXPECT_EQ(b.parent, a.parent);
        EXPECT_EQ(b.remoteParent, a.remoteParent);
        EXPECT_EQ(b.request, a.request);
        EXPECT_EQ(b.machine, a.machine);
        EXPECT_EQ(b.name, a.name);
        EXPECT_EQ(b.kind, a.kind);
        EXPECT_EQ(b.openedAt, a.openedAt);
        EXPECT_EQ(b.closedAt, a.closedAt);
        EXPECT_EQ(b.open, a.open);
        EXPECT_DOUBLE_EQ(b.energyJ.value(), a.energyJ.value());
        EXPECT_DOUBLE_EQ(b.cpuTimeNs, a.cpuTimeNs);
        EXPECT_DOUBLE_EQ(b.cycles.value(), a.cycles.value());
        EXPECT_DOUBLE_EQ(b.instructions, a.instructions);
        EXPECT_DOUBLE_EQ(b.ioBytes, a.ioBytes);
    }
    EXPECT_EQ(reloaded.rootOf(7), original.rootOf(7));
    EXPECT_DOUBLE_EQ(reloaded.requestEnergyJ(7).value(),
                     original.requestEnergyJ(7).value());
    // Render is a fixed point: dump -> load -> dump is byte-equal.
    EXPECT_EQ(renderSpanJson(reloaded), json);
}

TEST(SpanJson, EmptyCollectorRoundTrips)
{
    SpanCollector empty;
    std::string json = renderSpanJson(empty);
    SpanCollector reloaded = parseSpanJson(json);
    EXPECT_EQ(reloaded.size(), 0u);
    EXPECT_EQ(renderSpanJson(reloaded), json);
}

TEST(SpanJson, RejectsMalformedInput)
{
    EXPECT_THROW(parseSpanJson(""), util::FatalError);
    EXPECT_THROW(parseSpanJson("{}"), util::FatalError);
    EXPECT_THROW(parseSpanJson("{\"spans\":}"), util::FatalError);
    EXPECT_THROW(parseSpanJson("{\"spans\":[{}]}"),
                 util::FatalError);
    // Trailing garbage after a valid document.
    std::string json = renderSpanJson(sampleTree());
    EXPECT_THROW(parseSpanJson(json + "x"), util::FatalError);
    // Sparse ids cannot reload (density is a dump invariant).
    EXPECT_THROW(
        parseSpanJson(
            "{\"spans\":[\n"
            "{\"id\":2,\"parent\":0,\"remote_parent\":0,"
            "\"request\":1,\"machine\":0,\"kind\":\"root\","
            "\"name\":\"r\",\"opened_ns\":0,\"closed_ns\":0,"
            "\"open\":false,\"energy_j\":0,\"cpu_time_ns\":0,"
            "\"cycles\":0,\"instructions\":0,\"io_bytes\":0}\n"
            "]}\n"),
        util::FatalError);
    // A duplicated field is as corrupt as a missing one.
    EXPECT_THROW(
        parseSpanJson(
            "{\"spans\":[\n"
            "{\"id\":1,\"id\":1,\"parent\":0,\"remote_parent\":0,"
            "\"request\":1,\"machine\":0,\"kind\":\"root\","
            "\"name\":\"r\",\"opened_ns\":0,\"closed_ns\":0,"
            "\"open\":false,\"energy_j\":0,\"cpu_time_ns\":0,"
            "\"cycles\":0,\"instructions\":0,\"io_bytes\":0}\n"
            "]}\n"),
        util::FatalError);
}

/** One dump object: a closed span with zero totals. */
std::string
spanObject(SpanId id, SpanId parent, os::RequestId request,
           const std::string &kind, SpanId remote_parent = NoSpan)
{
    return "{\"id\":" + std::to_string(id) +
           ",\"parent\":" + std::to_string(parent) +
           ",\"remote_parent\":" + std::to_string(remote_parent) +
           ",\"request\":" + std::to_string(request) +
           ",\"machine\":0,\"kind\":\"" + kind +
           "\",\"name\":\"s\",\"opened_ns\":0,\"closed_ns\":0,"
           "\"open\":false,\"energy_j\":0,\"cpu_time_ns\":0,"
           "\"cycles\":0,\"instructions\":0,\"io_bytes\":0}";
}

/** A dump of the given span objects, in order. */
std::string
dump(std::initializer_list<std::string> spans)
{
    std::string out = "{\"spans\":[";
    const char *sep = "\n";
    for (const std::string &s : spans) {
        out += sep;
        out += s;
        sep = ",\n";
    }
    return out + "\n]}\n";
}

TEST(SpanJson, RejectsDumpsThatBreakCollectorInvariants)
{
    std::string root = spanObject(1, NoSpan, 1, "root");
    // Each input would otherwise panic inside the collector, or load
    // and make criticalPath() panic later; the loader's contract is
    // a FatalError for any corrupt dump.
    EXPECT_THROW(parseSpanJson(dump({spanObject(1, NoSpan, 1, "bogus")})),
                 util::FatalError);
    EXPECT_THROW(parseSpanJson(dump({spanObject(1, NoSpan, 0, "root")})),
                 util::FatalError);
    EXPECT_THROW(
        parseSpanJson(dump({root, spanObject(2, NoSpan, 1, "root")})),
        util::FatalError);
    EXPECT_THROW(parseSpanJson(dump({root, spanObject(2, 99, 1, "stage")})),
                 util::FatalError);
    EXPECT_THROW(
        parseSpanJson(dump({root, spanObject(2, 1, 1, "remote", 99)})),
        util::FatalError);
    EXPECT_THROW(parseSpanJson(dump({root, spanObject(2, 2, 1, "stage")})),
                 util::FatalError);
    EXPECT_THROW(parseSpanJson(dump({root, spanObject(2, 3, 1, "stage"),
                                     spanObject(3, 2, 1, "stage")})),
                 util::FatalError);
}

TEST(SpanJson, AcceptsAParentWithALaterId)
{
    // Reparenting (a fork discovered after the child was switched
    // in) can point a span at a later id; that dump is valid.
    SpanCollector c = parseSpanJson(
        dump({spanObject(1, NoSpan, 1, "root"),
              spanObject(2, 3, 1, "fork"), spanObject(3, 1, 1, "stage")}));
    EXPECT_EQ(c.span(2).parent, 3u);
    EXPECT_EQ(c.criticalPath(1), (std::vector<SpanId>{1, 3, 2}));
}

TEST(SpanJson, EscapesNamesLosslessly)
{
    SpanCollector c;
    SpanId s = c.open(1, 0, "a\"b\\c\nd\te", SpanKind::Root, NoSpan,
                      0);
    c.close(s, 1);
    SpanCollector reloaded = parseSpanJson(renderSpanJson(c));
    EXPECT_EQ(reloaded.span(s).name, "a\"b\\c\nd\te");
}

} // namespace
} // namespace pcon::trace
