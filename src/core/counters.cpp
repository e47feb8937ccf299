#include "core/counters.h"

#include <sstream>

namespace ccovid {

std::string OpCounters::str() const {
  std::ostringstream os;
  os << "loads=" << global_loads << " stores=" << global_stores
     << " flops=" << flops;
  return os.str();
}

}  // namespace ccovid
