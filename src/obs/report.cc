#include "report.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <vector>

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

/** Energy in joules with microjoule precision. */
std::string
joules(double j)
{
    return fmt("%.6f", j);
}

std::string
millis(sim::SimTime t)
{
    return fmt("%.3f", static_cast<double>(t) * 1e-6);
}

const trace::SpanCollector &
detail(const EnergyIndex &index)
{
    const trace::SpanCollector *collector = index.collector();
    util::panicIf(collector == nullptr,
                  "span-detail report on a detached EnergyIndex");
    return *collector;
}

} // namespace

std::string
reportTopRequests(const EnergyIndex &index, std::size_t top_n)
{
    std::ostringstream out;
    out << "top requests by energy\n"
        << "rank request name spans machines energy_j wall_ms\n";
    std::vector<os::RequestId> ids = index.ranked();
    std::size_t shown = 0;
    for (os::RequestId id : ids) {
        if (shown >= top_n)
            break;
        ++shown;
        RequestRollup r = index.rollup(id);
        out << shown << " " << id << " " << r.rootName << " "
            << r.spanCount << " " << r.machineCount << " "
            << joules(r.energyJ.value()) << " " << millis(r.wall)
            << "\n";
    }
    if (shown == 0)
        out << "(no spans)\n";
    return out.str();
}

std::string
reportStageBreakdown(const EnergyIndex &index, os::RequestId request)
{
    const trace::SpanCollector &collector = detail(index);
    std::ostringstream out;
    out << "stages of request " << request << " ("
        << index.rootName(request) << ")\n"
        << "span parent kind machine name energy_j avg_power_w"
        << " cpu_ms io_bytes\n";
    util::Joules total{0};
    for (trace::SpanId id : index.requestSpans(request)) {
        const trace::Span &s = collector.span(id);
        out << s.id << " " << s.parent << " "
            << trace::spanKindName(s.kind) << " m" << s.machine << " "
            << s.name << " " << joules(s.energyJ.value()) << " "
            << fmt("%.3f", s.avgPowerW().value()) << " "
            << fmt("%.3f", s.cpuTimeNs * 1e-6) << " "
            << fmt("%.0f", s.ioBytes) << "\n";
        total += s.energyJ;
    }
    out << "total " << joules(total.value()) << "\n";
    return out.str();
}

std::string
reportCriticalPath(const EnergyIndex &index, os::RequestId request)
{
    const trace::SpanCollector &collector = detail(index);
    std::ostringstream out;
    out << "critical path of request " << request << "\n"
        << "span kind machine name open_ms close_ms energy_j\n";
    std::vector<trace::SpanId> path = collector.criticalPath(request);
    for (trace::SpanId id : path) {
        const trace::Span &s = collector.span(id);
        out << s.id << " " << trace::spanKindName(s.kind) << " m"
            << s.machine << " " << s.name << " " << millis(s.openedAt)
            << " " << millis(s.closedAt) << " "
            << joules(s.energyJ.value())
            << "\n";
    }
    if (path.empty())
        out << "(no closed spans)\n";
    return out.str();
}

std::string
reportMachineImbalance(const EnergyIndex &index)
{
    std::ostringstream out;
    out << "cross-machine energy imbalance\n"
        << "request name";
    std::vector<int> machines = index.machines();
    for (int m : machines)
        out << " m" << m << "_j";
    out << " dominant_share\n";
    std::vector<os::RequestId> ids = index.requests();
    for (os::RequestId id : ids) {
        double total = index.requestEnergyJ(id).value();
        double peak = 0;
        out << id << " " << index.rootName(id);
        for (int m : machines) {
            double e = index.machineEnergyJ(id, m).value();
            peak = std::max(peak, e);
            out << " " << joules(e);
        }
        out << " " << fmt("%.3f", total > 0 ? peak / total : 0.0)
            << "\n";
    }
    if (ids.empty())
        out << "(no spans)\n";
    return out.str();
}

std::string
fullReport(const EnergyIndex &index, const ReportOptions &opts)
{
    std::ostringstream out;
    out << reportTopRequests(index, opts.topN);
    std::vector<os::RequestId> ids = index.topRequests(opts.topN);
    for (os::RequestId id : ids) {
        if (opts.stageBreakdown)
            out << "\n" << reportStageBreakdown(index, id);
        if (opts.criticalPath)
            out << "\n" << reportCriticalPath(index, id);
    }
    if (opts.machineImbalance)
        out << "\n" << reportMachineImbalance(index);
    return out.str();
}

std::string
reportJson(const EnergyIndex &index, const ReportOptions &opts)
{
    std::ostringstream out;
    out << "{\"schema\":\"pcon-trace-report-v1\",\"requests\":[";
    std::vector<os::RequestId> ids = index.topRequests(opts.topN);
    bool first_req = true;
    for (os::RequestId id : ids) {
        if (!first_req)
            out << ",";
        first_req = false;
        RequestRollup r = index.rollup(id);
        out << "{\"request\":" << id << ",\"root\":\""
            << util::jsonEscape(r.rootName) << "\",\"spans\":"
            << r.spanCount << ",\"machines\":" << r.machineCount
            << ",\"energy_j\":" << joules(r.energyJ.value())
            << ",\"wall_ms\":" << millis(r.wall);
        if (opts.stageBreakdown) {
            const trace::SpanCollector &collector = detail(index);
            out << ",\"stages\":[";
            bool first = true;
            for (trace::SpanId sp : index.requestSpans(id)) {
                const trace::Span &s = collector.span(sp);
                if (!first)
                    out << ",";
                first = false;
                out << "{\"span\":" << s.id << ",\"parent\":"
                    << s.parent << ",\"kind\":\""
                    << trace::spanKindName(s.kind) << "\",\"machine\":"
                    << s.machine << ",\"name\":\""
                    << util::jsonEscape(s.name) << "\",\"energy_j\":"
                    << joules(s.energyJ.value())
                    << ",\"avg_power_w\":"
                    << fmt("%.3f", s.avgPowerW().value())
                    << ",\"cpu_ms\":"
                    << fmt("%.3f", s.cpuTimeNs * 1e-6)
                    << ",\"io_bytes\":" << fmt("%.0f", s.ioBytes)
                    << "}";
            }
            out << "]";
        }
        if (opts.criticalPath) {
            const trace::SpanCollector &collector = detail(index);
            out << ",\"critical_path\":[";
            bool first = true;
            for (trace::SpanId sp : collector.criticalPath(id)) {
                const trace::Span &s = collector.span(sp);
                if (!first)
                    out << ",";
                first = false;
                out << "{\"span\":" << s.id << ",\"kind\":\""
                    << trace::spanKindName(s.kind) << "\",\"machine\":"
                    << s.machine << ",\"name\":\""
                    << util::jsonEscape(s.name) << "\",\"open_ms\":"
                    << millis(s.openedAt) << ",\"close_ms\":"
                    << millis(s.closedAt) << ",\"energy_j\":"
                    << joules(s.energyJ.value()) << "}";
            }
            out << "]";
        }
        out << "}";
    }
    out << "]";
    if (opts.machineImbalance) {
        out << ",\"machine_imbalance\":[";
        std::vector<int> machines = index.machines();
        bool first = true;
        for (os::RequestId id : index.requests()) {
            if (!first)
                out << ",";
            first = false;
            double total = index.requestEnergyJ(id).value();
            double peak = 0;
            out << "{\"request\":" << id << ",\"root\":\""
                << util::jsonEscape(index.rootName(id))
                << "\",\"per_machine_j\":{";
            bool first_m = true;
            for (int m : machines) {
                double e = index.machineEnergyJ(id, m).value();
                peak = std::max(peak, e);
                if (!first_m)
                    out << ",";
                first_m = false;
                out << "\"m" << m << "\":" << joules(e);
            }
            out << "},\"dominant_share\":"
                << fmt("%.3f", total > 0 ? peak / total : 0.0)
                << "}";
        }
        out << "]";
    }
    out << "}";
    return out.str();
}

} // namespace obs
} // namespace pcon
