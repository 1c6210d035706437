#include "registry.h"

#include <algorithm>

#include "util/logging.h"

namespace pcon {
namespace telemetry {

const char *
instrumentKindName(InstrumentKind kind)
{
    switch (kind) {
      case InstrumentKind::Counter: return "counter";
      case InstrumentKind::Gauge: return "gauge";
      case InstrumentKind::Histogram: return "histogram";
    }
    return "?";
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds))
{
    util::fatalIf(bounds_.empty(),
                  "histogram needs at least one bucket bound");
    for (std::size_t i = 1; i < bounds_.size(); ++i)
        util::fatalIf(bounds_[i] <= bounds_[i - 1],
                      "histogram bounds must be strictly ascending: ",
                      bounds_[i - 1], " then ", bounds_[i]);
    counts_.assign(bounds_.size() + 1, 0);
}

void
Histogram::observe(double v)
{
    auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
    ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
    if (count_ == 0) {
        min_ = v;
        max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    ++count_;
    sum_ += v;
}

double
Histogram::quantile(double q) const
{
    util::fatalIf(q < 0.0 || q > 1.0, "quantile ", q,
                  " outside [0, 1]");
    if (count_ == 0)
        return 0.0;
    double target = q * static_cast<double>(count_);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        if (counts_[i] == 0)
            continue;
        double before = static_cast<double>(seen);
        seen += counts_[i];
        if (static_cast<double>(seen) < target)
            continue;
        // Interpolate within bucket i between its lower and upper
        // edges; the first populated bucket starts at the observed
        // min and the overflow bucket ends at the observed max.
        double lo = i == 0 ? min_ : bounds_[i - 1];
        double hi = i < bounds_.size() ? bounds_[i] : max_;
        lo = std::max(lo, min_);
        hi = std::min(hi, max_);
        if (hi < lo)
            hi = lo;
        double frac = (target - before) /
            static_cast<double>(counts_[i]);
        return lo + frac * (hi - lo);
    }
    return max_;
}

bool
Registry::validName(const std::string &name)
{
    if (name.empty())
        return false;
    for (char c : name) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                  c == '_' || c == '.';
        if (!ok)
            return false;
    }
    return true;
}

Registry::Instrument &
Registry::findOrCreate(const std::string &name, InstrumentKind kind)
{
    util::fatalIf(!validName(name), "telemetry metric name '", name,
                  "' violates the grammar [a-z0-9_.]+");
    auto it = instruments_.find(name);
    if (it == instruments_.end()) {
        Instrument inst;
        inst.kind = kind;
        it = instruments_.emplace(name, std::move(inst)).first;
    } else {
        util::fatalIf(it->second.kind != kind, "telemetry metric '",
                      name, "' already registered as ",
                      instrumentKindName(it->second.kind),
                      ", cannot re-register as ",
                      instrumentKindName(kind));
    }
    return it->second;
}

Counter &
Registry::counter(const std::string &name)
{
    return findOrCreate(name, InstrumentKind::Counter).counter;
}

Gauge &
Registry::gauge(const std::string &name)
{
    return findOrCreate(name, InstrumentKind::Gauge).gauge;
}

Histogram &
Registry::histogram(const std::string &name,
                    std::vector<double> upper_bounds)
{
    Instrument &inst = findOrCreate(name, InstrumentKind::Histogram);
    if (!inst.histogram) {
        inst.histogram =
            std::make_unique<Histogram>(std::move(upper_bounds));
    } else {
        util::fatalIf(inst.histogram->upperBounds() != upper_bounds,
                      "telemetry histogram '", name,
                      "' re-registered with different bucket bounds");
    }
    return *inst.histogram;
}

bool
Registry::has(const std::string &name) const
{
    return instruments_.find(name) != instruments_.end();
}

InstrumentKind
Registry::kindOf(const std::string &name) const
{
    auto it = instruments_.find(name);
    util::fatalIf(it == instruments_.end(),
                  "unknown telemetry metric '", name, "'");
    return it->second.kind;
}

std::size_t
Registry::size() const
{
    return instruments_.size();
}

std::vector<Registry::Entry>
Registry::entries() const
{
    std::vector<Entry> out;
    out.reserve(instruments_.size());
    for (const auto &kv : instruments_) {
        Entry e;
        e.name = kv.first;
        e.kind = kv.second.kind;
        switch (kv.second.kind) {
          case InstrumentKind::Counter:
            e.counter = &kv.second.counter;
            break;
          case InstrumentKind::Gauge:
            e.gauge = &kv.second.gauge;
            break;
          case InstrumentKind::Histogram:
            e.histogram = kv.second.histogram.get();
            break;
        }
        out.push_back(std::move(e));
    }
    return out;
}

void
Registry::addCollector(std::function<void()> fn)
{
    util::fatalIf(!fn, "null telemetry collector");
    collectors_.push_back(std::move(fn));
}

void
Registry::collect()
{
    // Run a snapshot: a collector that registers another collector
    // must not reallocate the vector under the running callback.
    std::vector<std::function<void()>> fns = collectors_;
    for (auto &fn : fns)
        fn();
}

} // namespace telemetry
} // namespace pcon
