// A figure driver timing itself: host time belongs in a Google
// Benchmark benchmark::State loop or in perfbench. The std::chrono
// read and the C clock() read must each be reported; the justified
// cycle-counter read is allowed.
#include <chrono>
#include <ctime>
#include <x86intrin.h>

double hostSecondsSinceStart()
{
    return static_cast<double>(clock()) / CLOCKS_PER_SEC;
}

long long hostNanoseconds()
{
    auto now = std::chrono::steady_clock::now();
    return now.time_since_epoch().count();
}

unsigned long long hostCycles()
{
    // pcon-lint: allow(wall-clock) documents the host API's own cost
    return __rdtsc();
}
