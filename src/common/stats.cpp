#include "common/stats.h"

namespace ironman {

uint64_t
StatSet::get(const std::string &name) const
{
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
}

void
StatSet::merge(const StatSet &o)
{
    // Self-merge is a no-op, not a doubling: iterating a map while
    // inserting into it is also UB-adjacent, so bail out first.
    if (&o == this)
        return;
    for (const auto &[name, value] : o.counters)
        counters[name] += value;
}

} // namespace ironman
