#ifndef PERFBENCH_ALLOC_COUNT_H_
#define PERFBENCH_ALLOC_COUNT_H_

#include <cstdint>

namespace perfbench {

/// Global operator new calls made by this process so far.
std::uint64_t AllocCount();

}  // namespace perfbench

#endif  // PERFBENCH_ALLOC_COUNT_H_
