// A figure driver timing itself with the C clock: host time belongs
// in a Google Benchmark benchmark::State loop or in perfbench. Must
// be reported.
#include <ctime>
double
hostSecondsSinceStart()
{
    return static_cast<double>(clock()) / CLOCKS_PER_SEC;
}
