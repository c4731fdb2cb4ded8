#include "econ/utility.h"

#include <cmath>

#include "util/error.h"

namespace aw4a::econ {

double utility(const UserParams& user, double page_size, double accesses) {
  AW4A_EXPECTS(user.quality_weight > 0.0 && user.access_weight > 0.0);
  AW4A_EXPECTS(page_size > 0.0 && accesses > 0.0);
  return user.quality_weight * std::log(page_size) + user.access_weight * std::log(accesses);
}

}  // namespace aw4a::econ
