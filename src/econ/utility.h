// The paper's economic model of the quality-access trade-off (§4.1).
//
// User utility is Cobb-Douglas in page quality (proxied by page size W) and
// the number of affordable Web accesses A:
//     U(W, A) = a log W + b log A,   a, b > 0.
#pragma once

namespace aw4a::econ {

/// Preference weights of one user.
struct UserParams {
  double quality_weight = 0.5;  ///< a
  double access_weight = 0.5;   ///< b
};

/// U(W, A) = a log W + b log A. Requires W > 0, A > 0.
double utility(const UserParams& user, double page_size, double accesses);

}  // namespace aw4a::econ
