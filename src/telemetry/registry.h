/**
 * @file
 * The telemetry metrics registry: named counters, gauges, and
 * fixed-bucket histograms with O(1) hot-path updates and
 * deterministic (name-sorted) iteration order.
 *
 * Instruments are registered once by name (registration is O(log n);
 * keep the returned reference for the hot path, where every update is
 * O(1) in the number of instruments) and live as long as the
 * registry. Metric names are stable keys for downstream dashboards
 * and must match `[a-z0-9_.]+`; dots form the conventional hierarchy
 * (`kernel.context_switches`, `overhead.rebind_cycles`).
 */

#ifndef PCON_TELEMETRY_REGISTRY_H
#define PCON_TELEMETRY_REGISTRY_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace pcon {
namespace telemetry {

/** What kind of instrument a registry entry is. */
enum class InstrumentKind {
    Counter,
    Gauge,
    Histogram,
};

/** Human-readable kind name ("counter", "gauge", "histogram"). */
const char *instrumentKindName(InstrumentKind kind);

/** A monotonically increasing event count. */
class Counter
{
  public:
    /** Add `n` events (hot path; O(1)). */
    void add(std::uint64_t n = 1) { value_ += n; }

    /** Current cumulative count. */
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/** A point-in-time value that can move both ways. */
class Gauge
{
  public:
    /** Replace the value (hot path; O(1)). */
    void set(double v) { value_ = v; }

    /** Adjust the value by a (possibly negative) delta. */
    void add(double delta) { value_ += delta; }

    /** Current value. */
    double value() const { return value_; }

  private:
    double value_ = 0.0;
};

/**
 * A fixed-bucket histogram. Bucket upper bounds are set at
 * registration and never change; observations above the last bound
 * land in an implicit overflow bucket. Updates cost one binary search
 * over the (small, fixed) bound set — constant for a given
 * configuration.
 */
class Histogram
{
  public:
    /**
     * @param upper_bounds Inclusive bucket upper bounds, strictly
     *        ascending, at least one. Bucket i counts observations v
     *        with bounds[i-1] < v <= bounds[i].
     */
    explicit Histogram(std::vector<double> upper_bounds);

    /** Record one observation. */
    void observe(double v);

    /** Number of observations. */
    std::uint64_t count() const { return count_; }

    /** Sum of all observations. */
    double sum() const { return sum_; }

    /** Mean observation (0 before any observation). */
    double
    mean() const
    {
        return count_ ? sum_ / static_cast<double>(count_) : 0.0;
    }

    /** Smallest observation (0 before any observation). */
    double min() const { return count_ ? min_ : 0.0; }

    /** Largest observation (0 before any observation). */
    double max() const { return count_ ? max_ : 0.0; }

    /**
     * Estimated q-quantile (q in [0, 1]): linear interpolation within
     * the bucket containing the target rank, clamped to the observed
     * min/max. 0 before any observation.
     */
    double quantile(double q) const;

    /** The registered bucket upper bounds (immutable after ctor). */
    const std::vector<double> &upperBounds() const { return bounds_; }

    /**
     * Per-bucket counts; one extra trailing overflow bucket. The
     * reference stays valid for the histogram's lifetime.
     */
    const std::vector<std::uint64_t> &bucketCounts() const
    {
        return counts_;
    }

  private:
    /** Immutable after construction. */
    std::vector<double> bounds_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t count_ = 0;
    double sum_ = 0;
    double min_ = 0;
    double max_ = 0;
};

/**
 * Owns all instruments. References returned by counter()/gauge()/
 * histogram() stay valid for the registry's lifetime. Re-registering
 * an existing name with the same kind (and, for histograms, the same
 * bounds) returns the existing instrument; a kind or bound mismatch
 * is a caller error (util::fatal).
 */
class Registry
{
  public:
    /** One registry entry, for iteration/export. */
    struct Entry
    {
        std::string name;
        InstrumentKind kind = InstrumentKind::Counter;
        const Counter *counter = nullptr;
        const Gauge *gauge = nullptr;
        const Histogram *histogram = nullptr;
    };

    /** Register (or look up) a counter. */
    Counter &counter(const std::string &name);

    /** Register (or look up) a gauge. */
    Gauge &gauge(const std::string &name);

    /** Register (or look up) a histogram with these bucket bounds. */
    Histogram &histogram(const std::string &name,
                         std::vector<double> upper_bounds);

    /** True when an instrument of any kind is registered. */
    bool has(const std::string &name) const;

    /** Kind of a registered instrument; fatal on unknown name. */
    InstrumentKind kindOf(const std::string &name) const;

    /** All entries in deterministic, name-sorted order. */
    std::vector<Entry> entries() const;

    /** Number of registered instruments. */
    std::size_t size() const;

    /** True when `name` matches the metric grammar [a-z0-9_.]+. */
    static bool validName(const std::string &name);

    /**
     * Register a collector: a callback run by collect() (and thus by
     * each Sampler snapshot) to refresh pull-style instruments from
     * the objects they observe.
     */
    void addCollector(std::function<void()> fn);

    /**
     * Run all collectors in registration order. A collector may
     * register instruments, or further collectors (those first run
     * on the next collect()).
     */
    void collect();

  private:
    struct Instrument
    {
        InstrumentKind kind;
        Counter counter;
        Gauge gauge;
        std::unique_ptr<Histogram> histogram;
    };

    Instrument &findOrCreate(const std::string &name,
                             InstrumentKind kind);

    /** std::map: deterministic order and stable node addresses. */
    std::map<std::string, Instrument> instruments_;
    std::vector<std::function<void()>> collectors_;
};

} // namespace telemetry
} // namespace pcon

#endif // PCON_TELEMETRY_REGISTRY_H
