#include "feeds.h"

#include <string>

namespace pcon {
namespace obs {

void
exportJournalToPerfetto(const Journal &journal,
                        telemetry::PerfettoExporter &exporter)
{
    for (const JournalRecord &r : journal.snapshot()) {
        std::string label = std::string(severityName(r.severity)) +
            " " + recordKindName(r.kind) + " " + r.what;
        exporter.noteJournal(r.at, label, r.value);
    }
}

} // namespace obs
} // namespace pcon
