#include "journal.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/json.h"
#include "util/logging.h"

namespace pcon {
namespace obs {

namespace {

std::string
fmt(const char *format, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), format, v);
    return buf;
}

void
copyTruncated(char *dst, std::size_t cap, const std::string &src)
{
    std::size_t n = src.size() < cap - 1 ? src.size() : cap - 1;
    std::memcpy(dst, src.data(), n);
    dst[n] = '\0';
}

} // namespace

const char *
severityName(Severity severity)
{
    switch (severity) {
      case Severity::Info: return "info";
      case Severity::Warn: return "warn";
      case Severity::Error: return "error";
    }
    return "info";
}

const char *
recordKindName(RecordKind kind)
{
    switch (kind) {
      case RecordKind::Throttle: return "throttle";
      case RecordKind::Rebind: return "rebind";
      case RecordKind::Refit: return "refit";
      case RecordKind::Fault: return "fault";
      case RecordKind::Alert: return "alert";
    }
    return "alert";
}

Journal::Journal(std::size_t capacity)
    : ring_(capacity == 0 ? 1 : capacity)
{
}

void
Journal::append(RecordKind kind, Severity severity, sim::SimTime at,
                os::RequestId container, os::RequestId request,
                const std::string &what, const std::string &detail,
                double value)
{
    JournalRecord &slot = ring_[total_ % ring_.size()];
    slot.seq = total_;
    slot.at = at;
    slot.kind = kind;
    slot.severity = severity;
    slot.container = container;
    slot.request = request;
    slot.value = value;
    copyTruncated(slot.what, sizeof(slot.what), what);
    copyTruncated(slot.detail, sizeof(slot.detail), detail);
    ++total_;
    if (live_ < ring_.size())
        ++live_;
    else
        ++dropped_; // overwrote the oldest retained record
    ++bySeverity_[static_cast<std::size_t>(severity)];
    ++byKind_[static_cast<std::size_t>(kind)];
}

std::vector<JournalRecord>
Journal::snapshot() const
{
    std::vector<JournalRecord> out;
    out.reserve(live_);
    for (std::uint64_t seq = total_ - live_; seq < total_; ++seq)
        out.push_back(ring_[seq % ring_.size()]);
    return out;
}

std::string
Journal::jsonl() const
{
    std::ostringstream out;
    for (const JournalRecord &r : snapshot()) {
        out << "{\"seq\":" << r.seq << ",\"t_ms\":"
            << fmt("%.3f", static_cast<double>(r.at) * 1e-6)
            << ",\"kind\":\"" << recordKindName(r.kind)
            << "\",\"severity\":\"" << severityName(r.severity)
            << "\",\"container\":" << r.container << ",\"request\":"
            << r.request << ",\"what\":\"" << util::jsonEscape(r.what)
            << "\",\"detail\":\"" << util::jsonEscape(r.detail)
            << "\",\"value\":" << fmt("%.6f", r.value) << "}\n";
    }
    return out.str();
}

void
Journal::writeJsonl(const std::string &path) const
{
    std::ofstream out(path, std::ios::trunc);
    util::fatalIf(!out, "cannot open '", path, "' for writing");
    out << jsonl();
}

} // namespace obs
} // namespace pcon
