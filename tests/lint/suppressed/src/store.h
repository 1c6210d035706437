// Fixture: the same hazards as violation/, each silenced the
// documented way — the scan must be clean even under --strict
// (every marker below suppresses something, so none is stale).
#ifndef FIXTURE_STORE_H
#define FIXTURE_STORE_H

#include <atomic>
#include <mutex>

namespace fx {

class Store
{
  public:
    void put(int v);

  private:
    // pcon-lint: allow(concurrency-primitives) fixture: marker on the line above
    std::mutex mu_;
    std::atomic<int> hits_{0}; // pcon-lint: allow(concurrency-primitives) fixture: same-line marker
};

} // namespace fx

#endif // FIXTURE_STORE_H
