#include "tricount/core/config.hpp"

#include <sstream>

namespace tricount::core {

const char* to_string(Enumeration e) {
  return e == Enumeration::kJIK ? "jik" : "ijk";
}

std::string Config::describe() const {
  std::ostringstream os;
  os << "enum=" << to_string(enumeration)
     << " kernel=" << kernels::to_string(kernel)
     << " degree_ordering=" << (degree_ordering ? "on" : "off")
     << " doubly_sparse=" << (doubly_sparse ? "on" : "off")
     << " modified_hashing=" << (modified_hashing ? "on" : "off")
     << " backward_early_exit=" << (backward_early_exit ? "on" : "off")
     << " blob_comm=" << (blob_comm ? "on" : "off")
     << " overlap=" << (overlap ? "on" : "off");
  return os.str();
}

}  // namespace tricount::core
