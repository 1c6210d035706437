/**
 * @file
 * Journal byte-stability goldens: a fixed scripted append sequence
 * covering every record kind and severity must render to exactly the
 * committed JSONL fixture, and the same sequence replayed into a
 * second journal must produce identical bytes (the determinism
 * contract dashboards and diff-based tooling rely on). Also proves
 * the Perfetto "journal" track (pid 6) materializes from retained
 * records and only then.
 */

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "hw/machine.h"
#include "obs/feeds.h"
#include "obs/journal.h"
#include "os/kernel.h"
#include "sim/simulation.h"

namespace pcon::obs {
namespace {

using sim::msec;

std::string
fixturePath(const std::string &file)
{
    return std::string(PCON_TEST_DATA_DIR) + "/" + file;
}

void
compareOrUpdate(const std::string &rendered, const char *file)
{
    std::string path = fixturePath(file);
    if (std::getenv("PCON_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::trunc);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << rendered;
        GTEST_SKIP() << "fixture regenerated at " << path;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing fixture " << path
                    << " — regenerate with PCON_UPDATE_GOLDEN=1";
    std::ostringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(rendered.size(), buf.str().size());
    ASSERT_EQ(rendered, buf.str())
        << file
        << " drifted from the committed fixture; if intentional, "
           "regenerate with PCON_UPDATE_GOLDEN=1 and commit the diff";
}

/**
 * The canonical scripted sequence: one record of every kind, every
 * severity, both id fields exercised, fractional timestamps and
 * values that stress the fixed %.3f/%.6f rendering.
 */
void
script(Journal &journal)
{
    journal.append(RecordKind::Rebind, Severity::Info, msec(1), 3, 7,
                   "rebind", "task web.0: request 3 -> 7");
    journal.append(RecordKind::Throttle, Severity::Info,
                   msec(2) + 500000, 7, os::NoRequest, "throttle",
                   "core 1 duty 6/8 pstate 2", 0.75);
    journal.append(RecordKind::Refit, Severity::Info, msec(10),
                   os::NoRequest, os::NoRequest, "refit",
                   "online refit #1", 48);
    journal.append(RecordKind::Fault, Severity::Warn, msec(12),
                   os::NoRequest, os::NoRequest, "fault_injection",
                   "fault.* counters advanced by 2", 2);
    journal.append(RecordKind::Alert, Severity::Error, msec(15), 7,
                   os::NoRequest, "power_cap",
                   "container 7 over cap 40.000000 W", 61.5);
}

TEST(JournalGolden, ScriptedSequenceMatchesTheCommittedFixture)
{
    Journal journal(64);
    script(journal);
    compareOrUpdate(journal.jsonl(), "golden_journal.jsonl");
}

TEST(JournalGolden, TwoIdenticalRunsRenderIdenticalBytes)
{
    Journal first(64);
    Journal second(64);
    script(first);
    script(second);
    ASSERT_FALSE(first.jsonl().empty());
    EXPECT_EQ(first.jsonl(), second.jsonl());
}

TEST(JournalGolden, ExportMaterializesThePerfettoJournalTrack)
{
    sim::Simulation sim;
    hw::MachineConfig mcfg;
    mcfg.chips = 1;
    mcfg.coresPerChip = 1;
    hw::Machine machine(sim, mcfg);
    os::RequestContextManager requests;
    os::Kernel kernel(machine, requests);

    // A journal-free export leaves the trace without the track.
    telemetry::PerfettoExporter bare(kernel);
    Journal empty(8);
    exportJournalToPerfetto(empty, bare);
    EXPECT_EQ(bare.journalCount(), 0u);
    EXPECT_EQ(bare.json().find("\"journal\""), std::string::npos);

    telemetry::PerfettoExporter exporter(kernel);
    Journal journal(64);
    script(journal);
    exportJournalToPerfetto(journal, exporter);
    EXPECT_EQ(exporter.journalCount(), journal.size());
    std::string json = exporter.json();
    EXPECT_NE(json.find("\"journal\""), std::string::npos);
    // Record labels ride along as instant names.
    EXPECT_NE(json.find("power_cap"), std::string::npos);
}

} // namespace
} // namespace pcon::obs
