/**
 * @file
 * Journal feeds: exportJournalToPerfetto() renders a journal's
 * retained records as instants on the Perfetto "journal" track
 * (pid 6), which appears only when the journal was used.
 */

#ifndef PCON_OBS_FEEDS_H
#define PCON_OBS_FEEDS_H

#include "obs/journal.h"
#include "telemetry/perfetto.h"

namespace pcon {
namespace obs {

/**
 * Render every retained record as an instant on the exporter's
 * "journal" track. Call after the run (record timestamps are used,
 * not the current sim time).
 */
void exportJournalToPerfetto(const Journal &journal,
                             telemetry::PerfettoExporter &exporter);

} // namespace obs
} // namespace pcon

#endif // PCON_OBS_FEEDS_H
