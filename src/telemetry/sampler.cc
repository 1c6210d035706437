#include "sampler.h"

#include <fstream>
#include <map>
#include <sstream>

#include "util/csv.h"
#include "util/json.h"
#include "util/logging.h"

namespace pcon {
namespace telemetry {

Sampler::Sampler(sim::Simulation &sim, Registry &registry,
                 const SamplerConfig &cfg)
    : sim_(sim), registry_(registry), cfg_(cfg)
{
    util::fatalIf(cfg_.period <= 0, "sampler period must be > 0, got ",
                  cfg_.period);
    util::fatalIf(cfg_.maxSnapshots == 0,
                  "sampler needs room for at least one snapshot");
}

Sampler::~Sampler()
{
    stop();
}

void
Sampler::start()
{
    if (running_)
        return;
    running_ = true;
    pending_ = sim_.schedule(cfg_.period, [this] { tick(); });
}

void
Sampler::stop()
{
    running_ = false;
    if (pending_ != sim::InvalidEventId) {
        sim_.cancel(pending_);
        pending_ = sim::InvalidEventId;
    }
}

void
Sampler::tick()
{
    pending_ = sim::InvalidEventId;
    if (!running_)
        return;
    snapshotNow();
    pending_ = sim_.schedule(cfg_.period, [this] { tick(); });
}

void
Sampler::flatten(const Registry::Entry &entry,
                 std::vector<std::pair<std::string, double>> &out)
{
    switch (entry.kind) {
      case InstrumentKind::Counter:
        out.emplace_back(entry.name,
                         static_cast<double>(entry.counter->value()));
        break;
      case InstrumentKind::Gauge:
        out.emplace_back(entry.name, entry.gauge->value());
        break;
      case InstrumentKind::Histogram: {
        const Histogram &h = *entry.histogram;
        out.emplace_back(entry.name + ".count",
                         static_cast<double>(h.count()));
        out.emplace_back(entry.name + ".sum", h.sum());
        out.emplace_back(entry.name + ".mean", h.mean());
        out.emplace_back(entry.name + ".p50", h.quantile(0.50));
        out.emplace_back(entry.name + ".p95", h.quantile(0.95));
        out.emplace_back(entry.name + ".p99", h.quantile(0.99));
        break;
      }
    }
}

void
Sampler::snapshotNow()
{
    registry_.collect();
    Snapshot snap;
    snap.time = sim_.now();
    for (const Registry::Entry &entry : registry_.entries())
        flatten(entry, snap.values);
    snapshots_.push_back(std::move(snap));
    if (snapshots_.size() > cfg_.maxSnapshots)
        snapshots_.pop_front();
}

void
Sampler::writeCsv(const std::string &path) const
{
    // Union of all columns ever seen, in sorted order. Snapshots are
    // individually sorted already (registry order), so a map keyed by
    // column name gives a stable schema.
    std::map<std::string, std::size_t> columns;
    for (const Snapshot &snap : snapshots_)
        for (const auto &kv : snap.values)
            columns.emplace(kv.first, 0);
    std::size_t index = 0;
    for (auto &kv : columns)
        kv.second = index++;

    util::CsvWriter csv(path);
    std::vector<std::string> header;
    header.reserve(columns.size() + 1);
    header.push_back("time_ms");
    for (const auto &kv : columns)
        header.push_back(kv.first);
    csv.writeRow(header);

    for (const Snapshot &snap : snapshots_) {
        std::vector<std::string> row(columns.size() + 1);
        row[0] = util::jsonNumber(sim::toMillis(snap.time));
        for (const auto &kv : snap.values)
            row[columns.at(kv.first) + 1] = util::jsonNumber(kv.second);
        csv.writeRow(row);
    }
}

std::string
Sampler::json() const
{
    std::ostringstream out;
    out << "{\"period_ms\":" << util::jsonNumber(sim::toMillis(cfg_.period))
        << ",\"snapshots\":[";
    bool first_snap = true;
    for (const Snapshot &snap : snapshots_) {
        if (!first_snap)
            out << ",";
        first_snap = false;
        out << "{\"t_ms\":" << util::jsonNumber(sim::toMillis(snap.time))
            << ",\"values\":{";
        bool first_val = true;
        for (const auto &kv : snap.values) {
            if (!first_val)
                out << ",";
            first_val = false;
            // Metric names obey [a-z0-9_.]+, so no escaping needed.
            out << "\"" << kv.first << "\":" << util::jsonNumber(kv.second);
        }
        out << "}}";
    }
    out << "]}";
    return out.str();
}

void
Sampler::writeJson(const std::string &path) const
{
    std::ofstream out(path, std::ios::trunc);
    util::fatalIf(!out, "cannot open '", path, "' for writing");
    out << json() << "\n";
}

} // namespace telemetry
} // namespace pcon
