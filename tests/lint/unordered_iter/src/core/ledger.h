// An accessor that returns an unordered container: range-fors over
// a call to it, anywhere in the scanned tree, walk hash order.
#include <unordered_map>
#include <vector>

namespace pcon::core {

class Ledger
{
  public:
    const std::unordered_map<int,
                             double> &
    byId() const;

    // A vector: walking it is reproducible.
    std::vector<int> ids() const;
};

}  // namespace pcon::core
