#include "span_json.h"

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "util/json.h"
#include "util/logging.h"

namespace pcon {
namespace trace {

namespace {

/** Minimal recursive-descent parser over the dump schema. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    SpanCollector
    parse()
    {
        SpanCollector out;
        expect('{');
        expectKey("spans");
        expect('[');
        skipWs();
        if (peek() == ']') {
            ++pos_;
        } else {
            while (true) {
                Span s = parseSpan();
                // The collector's invariants, checked here so a
                // corrupt input is a parse error, not a panic.
                failIf(s.id != out.size() + 1,
                       "non-dense span id in dump");
                failIf(s.request == os::NoRequest,
                       "span without a request");
                failIf(s.kind == SpanKind::Root &&
                           out.rootOf(s.request) != NoSpan,
                       "second root span for a request");
                out.addSpan(s);
                skipWs();
                char c = next();
                if (c == ']')
                    break;
                failIf(c != ',', "expected ',' or ']' in span list");
            }
        }
        expect('}');
        skipWs();
        failIf(pos_ != text_.size(), "trailing data after span dump");
        checkParents(out);
        return out;
    }

  private:
    /**
     * Parent edges, checked once the whole list is read (reparenting
     * can point a span at a later id): each parent and remote parent
     * is 0 or a span of the dump, and no parent chain loops. O(spans):
     * each span's chain is walked once.
     */
    void
    checkParents(const SpanCollector &spans)
    {
        enum class Walk : unsigned char { Unseen, OnPath, Done };
        std::vector<Walk> walk(spans.size(), Walk::Unseen);
        for (const Span &s : spans.spans()) {
            failIf(s.parent != NoSpan && !spans.valid(s.parent),
                   "parent names no span in the dump");
            failIf(s.remoteParent != NoSpan &&
                       !spans.valid(s.remoteParent),
                   "remote_parent names no span in the dump");
        }
        for (SpanId start = 1; start <= spans.size(); ++start) {
            SpanId id = start;
            while (id != NoSpan && walk[id - 1] == Walk::Unseen) {
                walk[id - 1] = Walk::OnPath;
                id = spans.span(id).parent;
            }
            failIf(id != NoSpan && walk[id - 1] == Walk::OnPath,
                   "span parent cycle");
            for (id = start; id != NoSpan && walk[id - 1] == Walk::OnPath;
                 id = spans.span(id).parent)
                walk[id - 1] = Walk::Done;
        }
    }

    /** A span kind by name; unknown names are a parse error. */
    SpanKind
    parseKind()
    {
        std::string name = parseString();
        for (SpanKind kind :
             {SpanKind::Root, SpanKind::Stage, SpanKind::Fork,
              SpanKind::Remote, SpanKind::Io})
            if (name == spanKindName(kind))
                return kind;
        fail("unknown span kind");
    }

    [[noreturn]] void
    fail(const char *why)
    {
        util::fatal("span json parse error at byte ", pos_, ": ", why);
    }

    void
    failIf(bool cond, const char *why)
    {
        if (cond)
            fail(why);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    char
    peek()
    {
        failIf(pos_ >= text_.size(), "unexpected end of input");
        return text_[pos_];
    }

    char
    next()
    {
        char c = peek();
        ++pos_;
        return c;
    }

    void
    expect(char c)
    {
        skipWs();
        failIf(next() != c, "unexpected character");
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            char c = next();
            if (c == '"')
                return out;
            if (c == '\\') {
                char esc = next();
                switch (esc) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case 'n': out += '\n'; break;
                  case 't': out += '\t'; break;
                  case 'r': out += '\r'; break;
                  case 'u': {
                    failIf(pos_ + 4 > text_.size(),
                           "truncated \\u escape");
                    unsigned value = static_cast<unsigned>(std::strtoul(
                        text_.substr(pos_, 4).c_str(), nullptr, 16));
                    pos_ += 4;
                    failIf(value > 0x7f,
                           "non-ascii \\u escape unsupported");
                    out += static_cast<char>(value);
                    break;
                  }
                  default:
                    fail("unknown escape");
                }
            } else {
                out += c;
            }
        }
    }

    void
    expectKey(const char *key)
    {
        failIf(parseString() != key, "unexpected object key");
        expect(':');
    }

    double
    parseNumber()
    {
        skipWs();
        const char *start = text_.c_str() + pos_;
        char *end = nullptr;
        double v = std::strtod(start, &end);
        failIf(end == start, "expected a number");
        pos_ += static_cast<std::size_t>(end - start);
        return v;
    }

    bool
    parseBool()
    {
        skipWs();
        if (text_.compare(pos_, 4, "true") == 0) {
            pos_ += 4;
            return true;
        }
        if (text_.compare(pos_, 5, "false") == 0) {
            pos_ += 5;
            return false;
        }
        fail("expected true/false");
    }

    Span
    parseSpan()
    {
        static const char *const kFields[] = {
            "id", "parent", "remote_parent", "request", "machine",
            "kind", "name", "opened_ns", "closed_ns", "open",
            "energy_j", "cpu_time_ns", "cycles", "instructions",
            "io_bytes"};
        constexpr unsigned kFieldCount =
            sizeof(kFields) / sizeof(kFields[0]);
        Span s;
        expect('{');
        bool first = true;
        unsigned seen = 0;
        while (true) {
            skipWs();
            if (peek() == '}') {
                ++pos_;
                break;
            }
            if (!first)
                expect(',');
            first = false;
            std::string key = parseString();
            expect(':');
            for (unsigned i = 0; i < kFieldCount; ++i) {
                if (key != kFields[i])
                    continue;
                failIf((seen & (1u << i)) != 0,
                       "duplicate span field");
                seen |= 1u << i;
                break;
            }
            if (key == "id")
                s.id = static_cast<SpanId>(parseNumber());
            else if (key == "parent")
                s.parent = static_cast<SpanId>(parseNumber());
            else if (key == "remote_parent")
                s.remoteParent = static_cast<SpanId>(parseNumber());
            else if (key == "request")
                s.request =
                    static_cast<os::RequestId>(parseNumber());
            else if (key == "machine")
                s.machine = static_cast<int>(parseNumber());
            else if (key == "kind")
                s.kind = parseKind();
            else if (key == "name")
                s.name = parseString();
            else if (key == "opened_ns")
                s.openedAt =
                    static_cast<sim::SimTime>(parseNumber());
            else if (key == "closed_ns")
                s.closedAt =
                    static_cast<sim::SimTime>(parseNumber());
            else if (key == "open")
                s.open = parseBool();
            else if (key == "energy_j")
                s.energyJ = util::Joules(parseNumber());
            else if (key == "cpu_time_ns")
                s.cpuTimeNs = parseNumber();
            else if (key == "cycles")
                s.cycles = util::Cycles(parseNumber());
            else if (key == "instructions")
                s.instructions = parseNumber();
            else if (key == "io_bytes")
                s.ioBytes = parseNumber();
            else
                fail("unknown span field");
        }
        // Every dump field exactly once — a span object missing any
        // of them is a corrupt or truncated dump.
        failIf(seen != (1u << kFieldCount) - 1,
               "incomplete span object");
        return s;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

} // namespace

std::string
renderSpanJson(const SpanCollector &collector)
{
    std::ostringstream out;
    out << "{\"spans\":[";
    bool first = true;
    for (const Span &s : collector.spans()) {
        out << (first ? "\n" : ",\n");
        first = false;
        out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
            << ",\"remote_parent\":" << s.remoteParent
            << ",\"request\":" << s.request
            << ",\"machine\":" << s.machine << ",\"kind\":\""
            << spanKindName(s.kind) << "\",\"name\":\""
            << util::jsonEscape(s.name) << "\",\"opened_ns\":" << s.openedAt
            << ",\"closed_ns\":" << s.closedAt << ",\"open\":"
            << (s.open ? "true" : "false")
            << ",\"energy_j\":" << util::jsonNumber(s.energyJ.value())
            << ",\"cpu_time_ns\":" << util::jsonNumber(s.cpuTimeNs)
            << ",\"cycles\":" << util::jsonNumber(s.cycles.value())
            << ",\"instructions\":" << util::jsonNumber(s.instructions)
            << ",\"io_bytes\":" << util::jsonNumber(s.ioBytes) << "}";
    }
    out << "\n]}\n";
    return out.str();
}

void
writeSpanJson(const SpanCollector &collector, const std::string &path)
{
    std::ofstream out(path, std::ios::trunc);
    util::fatalIf(!out, "cannot open '", path, "' for writing");
    out << renderSpanJson(collector);
}

SpanCollector
parseSpanJson(const std::string &json)
{
    return Parser(json).parse();
}

SpanCollector
loadSpanJson(const std::string &path)
{
    std::ifstream in(path);
    util::fatalIf(!in, "cannot open '", path, "' for reading");
    std::ostringstream buf;
    buf << in.rdbuf();
    return parseSpanJson(buf.str());
}

} // namespace trace
} // namespace pcon
