// Fixture: the concurrency-primitives rule must fire on this tree.
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
    // The simulator is single-threaded by contract: src/ names no
    // lock, thread or atomic type.
    std::mutex mu_;
    std::atomic<int> hits_{0};
};

} // namespace fx

#endif // FIXTURE_STORE_H
