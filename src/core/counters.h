// Operation counters for the Table 6 reproduction.
//
// The paper obtains its global-memory load/store and floating-point
// operation counts "by implementing counters in each kernel" (§5,
// Table 6, footnote 2). Here the ops::count_* functions
// (ops/instrumented.h) walk each kernel's index space analytically and
// return an OpCounters tally; callers sum them with operator+=. No
// kernel writes a counter at run time, so inference pays nothing.
#pragma once

#include <cstdint>
#include <string>

#include "core/types.h"

namespace ccovid {

struct OpCounters {
  std::uint64_t global_loads = 0;   ///< reads from tensor storage
  std::uint64_t global_stores = 0;  ///< writes to tensor storage
  std::uint64_t flops = 0;          ///< floating-point mul/add/div/cmp ops

  OpCounters& operator+=(const OpCounters& o) {
    global_loads += o.global_loads;
    global_stores += o.global_stores;
    flops += o.flops;
    return *this;
  }
  void reset() { *this = OpCounters{}; }

  std::string str() const;
};

}  // namespace ccovid
