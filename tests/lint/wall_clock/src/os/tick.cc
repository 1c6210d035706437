// A host clock in src/ outside the kernel's hook timer: a latent
// determinism bug. Must be reported.
#include <chrono>

namespace pcon::os {

double hostSeconds()
{
    auto now = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(now.time_since_epoch())
        .count();
}

}  // namespace pcon::os
