/**
 * @file
 * Structured event journal: a bounded ring of typed
 * records (cap throttles, context rebinds, model refits, injected
 * faults, watchdog alerts) with severity, simulated timestamp, and
 * container/request ids. The journal is the "what happened and when"
 * companion to the registry's "how much": counters say a watchdog
 * fired three times, the journal says which container, at what sim
 * time, and why. Rendering is byte-stable JSONL (one record per
 * line, fixed field order and precision) plus a Perfetto "journal"
 * instant track (obs/feeds.h), so two identical runs produce
 * identical bytes.
 *
 * Records are fixed-size; the ring is one vector sized at
 * construction that never grows, so appends touch no allocator and
 * the oldest records are overwritten once the ring wraps (dropped()
 * counts the overwrites).
 */

#ifndef PCON_OBS_JOURNAL_H
#define PCON_OBS_JOURNAL_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "os/request_context.h"
#include "sim/time.h"

namespace pcon {
namespace obs {

/** How urgent a journal record is. */
enum class Severity
{
    Info,
    Warn,
    Error,
};

/** Stable lower-case severity name ("info", "warn", "error"). */
const char *severityName(Severity severity);

/** What family of event a record describes. */
enum class RecordKind
{
    /** A power-cap actuation (duty/P-state write). */
    Throttle,
    /** A task's request binding changed. */
    Rebind,
    /** The online recalibrator refit the model. */
    Refit,
    /** Injected fault activity (fault.* counter movement). */
    Fault,
    /** A watchdog fired. */
    Alert,
};

/** Stable lower-case kind name ("throttle", "rebind", ...). */
const char *recordKindName(RecordKind kind);

/**
 * One journal entry. Fixed-size (fixed char buffers, no heap), so an
 * append overwrites a slot in place.
 */
struct JournalRecord
{
    /** Monotone sequence number across the journal's lifetime. */
    std::uint64_t seq = 0;
    /** Simulated time of the event. */
    sim::SimTime at = 0;
    RecordKind kind = RecordKind::Alert;
    Severity severity = Severity::Info;
    /** Container the event concerns (os::NoRequest when none). */
    os::RequestId container = os::NoRequest;
    /** Request the event concerns (os::NoRequest when none). */
    os::RequestId request = os::NoRequest;
    /** Numeric payload (watts, duty level, counter delta, ...). */
    double value = 0;
    /** Short machine-oriented label ("power_cap", "refit", ...). */
    char what[32] = {};
    /** Free-form human detail; truncated to fit. */
    char detail[96] = {};
};

/** The bounded journal. */
class Journal
{
  public:
    /** Default ring capacity (records retained). */
    static constexpr std::size_t kDefaultCapacity = 1024;

    explicit Journal(std::size_t capacity = kDefaultCapacity);

    Journal(const Journal &) = delete;
    Journal &operator=(const Journal &) = delete;

    /**
     * Append one record; `what` and `detail` are truncated to the
     * record's fixed buffers. Overwrites the oldest record once the
     * ring is full.
     */
    void append(RecordKind kind, Severity severity, sim::SimTime at,
                os::RequestId container, os::RequestId request,
                const std::string &what, const std::string &detail,
                double value = 0);

    /** Retained records, oldest first (seq order). */
    std::vector<JournalRecord> snapshot() const;

    /**
     * Byte-stable JSONL: one record per line, oldest first, fixed
     * field order (seq, t_ms, kind, severity, container, request,
     * what, detail, value) and fixed precision (t_ms %.3f, value
     * %.6f). Empty string when no records were retained.
     */
    std::string jsonl() const;

    /** Write jsonl() to a file (fatal on open failure). */
    void writeJsonl(const std::string &path) const;

    /** Ring capacity. */
    std::size_t capacity() const { return ring_.size(); }

    /** Records currently retained (<= capacity). */
    std::size_t size() const { return live_; }

    /** Records ever appended. */
    std::uint64_t totalAppended() const { return total_; }

    /** Retained records overwritten by a later append once the ring
     * was full (records removed by clear() are not counted). */
    std::uint64_t dropped() const { return dropped_; }

    /** Appends seen with the given severity (includes dropped). */
    std::uint64_t
    countBySeverity(Severity severity) const
    {
        return bySeverity_[static_cast<std::size_t>(severity)];
    }

    /** Appends seen with the given kind (includes dropped). */
    std::uint64_t
    countByKind(RecordKind kind) const
    {
        return byKind_[static_cast<std::size_t>(kind)];
    }

    /** Drop every retained record (counts keep accumulating). */
    void clear() { live_ = 0; }

  private:
    /** The ring slots; sized once, never resized. */
    std::vector<JournalRecord> ring_;
    /** Records ever appended; head slot is total_ % capacity(). */
    std::uint64_t total_ = 0;
    /** Retained count (== min(total_, capacity()) unless cleared). */
    std::size_t live_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint64_t bySeverity_[3] = {};
    std::uint64_t byKind_[5] = {};
};

} // namespace obs
} // namespace pcon

#endif // PCON_OBS_JOURNAL_H
