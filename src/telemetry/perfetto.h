/**
 * @file
 * Chrome trace-event (Perfetto-loadable) export of a simulated run:
 * per-core scheduling slices, request-context rebinds, device I/O,
 * duty-cycle/P-state actuations, per-container power and energy
 * counter tracks, and recalibration refit markers. The emitted JSON
 * loads directly in ui.perfetto.dev (or chrome://tracing) with one
 * track per core plus one counter track per container.
 *
 * Track layout (trace-event pid/tid namespaces):
 *   pid 1 "cores"          tid = core index; "X" slices per scheduled
 *                          task, "i" instants for rebinds, "C"
 *                          counters `core<N>.duty` / `core<N>.pstate`.
 *   pid 2 "containers"     "C" counter tracks
 *                          `container.<id>.power_w` and
 *                          `container.<id>.energy_j` (id 0 is the
 *                          background container).
 *   pid 3 "devices"        tid 0 disk, tid 1 net; "i" instants per
 *                          completed I/O with byte counts.
 *   pid 4 "recalibration"  tid 0; "i" instants per model refit.
 *   pid 5 "faults"         tid 0; "i" instants per injected fault
 *                          (only when faults fired).
 *   pid 6 "journal"        tid 0; "i" instants per obs::Journal
 *                          record (only when the journal was
 *                          exported — see obs/feeds.h).
 *   pid 10+M "machineM.spans"  one thread per overlap lane; "X"
 *                          slices per request span and "s"/"f" flow
 *                          events stitching cross-machine spans
 *                          (trace::exportSpansToPerfetto; the tracks
 *                          only appear when spans were exported).
 */

#ifndef PCON_TELEMETRY_PERFETTO_H
#define PCON_TELEMETRY_PERFETTO_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/container_manager.h"
#include "os/hooks.h"
#include "os/kernel.h"

namespace pcon {
namespace telemetry {

/** Exporter limits. Every event family is always recorded. */
struct PerfettoConfig
{
    /** Event cap; recording stops silently past it (0 = unbounded). */
    std::size_t maxEvents = 1 << 22;
};

/**
 * Records kernel and facility activity as trace events. Register with
 * kernel.addHooks(), in any place: its hooks read no container
 * state. Call samplePower() periodically — e.g. from a registry
 * collector — for container counter tracks, and finish() before
 * rendering so open scheduling slices are closed.
 */
class PerfettoExporter : public os::KernelHooks
{
  public:
    explicit PerfettoExporter(os::Kernel &kernel,
                              const PerfettoConfig &cfg = {});

    // --- KernelHooks ---
    void onContextSwitch(int core, os::Task *prev,
                         os::Task *next) override;
    void onContextRebind(os::Task &task, os::RequestId old_ctx,
                         os::RequestId new_ctx) override;
    void onIoComplete(hw::DeviceKind device, os::RequestId context,
                      sim::SimTime busy_time, double bytes) override;
    void onActuation(int core, int duty_level, int pstate) override;

    /**
     * Append one power/energy counter sample per live container
     * (plus the background container), in ascending container id
     * order. Call at a steady cadence for readable counter tracks.
     */
    void samplePower(core::ContainerManager &manager);

    /** Record a model refit marker (wire to OnlineRecalibrator). */
    void noteRefit(std::uint64_t refit_index,
                   std::size_t online_samples);

    /**
     * Record a fault-injection marker (wire to fault::FaultInjector).
     * The "faults" process track (pid 5) appears in the rendered
     * trace only when at least one fault was recorded, so fault-free
     * traces stay byte-identical to pre-fault-subsystem ones.
     */
    void noteFault(const std::string &kind, double magnitude);

    /**
     * Record one journal-record marker at an explicit timestamp
     * (obs::exportJournalToPerfetto drives this after the run, so
     * the record's own sim time is used, not the current time). The
     * "journal" process track (pid 6) appears in the rendered trace
     * only when at least one record was noted, keeping journal-free
     * traces byte-identical to earlier ones.
     */
    void noteJournal(sim::SimTime ts, const std::string &label,
                     double value);

    /**
     * Append one request-span slice on the span process of `machine`
     * (pid 10+machine, tid = overlap lane). The span tracks and their
     * metadata appear only when at least one slice or flow was added,
     * so span-free traces stay byte-identical to earlier ones.
     * trace::exportSpansToPerfetto drives this.
     */
    void addSpanSlice(int machine, int lane, sim::SimTime start,
                      sim::SimTime dur, const std::string &name,
                      const std::string &arg_name, double arg_value);

    /**
     * Append one flow endpoint linking span slices across tracks:
     * `start` selects ph:"s" (at the sender slice) versus ph:"f"
     * with bp:"e" (at the receiver slice). Both endpoints of one
     * `flow_id` draw a single arrow in the Perfetto UI.
     */
    void addSpanFlow(std::uint64_t flow_id, bool start, int machine,
                     int lane, sim::SimTime ts);

    /** Close slices still open (cores running at capture end). */
    void finish();

    /** Render the full trace as Chrome trace-event JSON. */
    std::string json() const;

    /** Write json() to a file. */
    void write(const std::string &path) const;

    /** Completed scheduling slices recorded. */
    std::size_t sliceCount() const { return slices_; }

    /** Instant events recorded (rebinds + I/O + refits + faults). */
    std::size_t instantCount() const { return instants_; }

    /** Fault-injection instants recorded. */
    std::size_t faultCount() const { return faults_; }

    /** Journal-record instants recorded. */
    std::size_t journalCount() const { return journal_; }

    /** Counter samples recorded (actuations + container power). */
    std::size_t counterCount() const { return counters_; }

    /** Flow endpoints recorded (span stitches). */
    std::size_t flowCount() const { return flows_; }

    /** Request-span slices recorded. */
    std::size_t spanSliceCount() const { return spanSlices_; }

    /** All recorded events (excludes track metadata). */
    std::size_t eventCount() const { return events_.size(); }

    /**
     * Distinct tracks the render will declare: one per core, one per
     * device, one for refits, plus one counter track per
     * container/actuator counter name seen.
     */
    std::size_t trackCount() const;

  private:
    struct Event
    {
        enum class Phase
        {
            Slice,
            Instant,
            Counter,
            FlowStart,
            FlowFinish
        };
        Phase phase = Phase::Instant;
        /** Start (slices) or sample time, nanoseconds. */
        sim::SimTime ts = 0;
        /** Slice duration, nanoseconds. */
        sim::SimTime dur = 0;
        std::int32_t pid = 1;
        std::int32_t tid = 0;
        std::string name;
        /** Trace-event category; empty selects the phase default. */
        std::string category;
        /** Flow binding id (FlowStart/FlowFinish). */
        std::uint64_t flowId = 0;
        /** Single numeric argument: {argName: argValue}. */
        std::string argName;
        double argValue = 0;
        bool hasArg = false;
    };

    struct OpenSlice
    {
        bool open = false;
        sim::SimTime start = 0;
        std::string name;
        os::RequestId context = os::NoRequest;
    };

    bool full() const;
    void push(Event e);
    void closeSlice(int core, sim::SimTime end);

    os::Kernel &kernel_;
    PerfettoConfig cfg_;
    std::vector<Event> events_;
    std::vector<OpenSlice> open_;
    /** Counter track names seen -> declared once in metadata. */
    std::map<std::string, bool> counterTracks_;
    /** Container ids seen by samplePower (track bookkeeping). */
    std::map<os::RequestId, std::string> containersSeen_;
    /** Machine index -> overlap lanes used (span track metadata). */
    std::map<int, int> spanLanes_;
    std::size_t slices_ = 0;
    std::size_t instants_ = 0;
    std::size_t counters_ = 0;
    std::size_t faults_ = 0;
    std::size_t journal_ = 0;
    std::size_t flows_ = 0;
    std::size_t spanSlices_ = 0;
};

} // namespace telemetry
} // namespace pcon

#endif // PCON_TELEMETRY_PERFETTO_H
