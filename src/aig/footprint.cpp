#include "aig/footprint.hpp"

namespace bg::aig::detail {

constinit thread_local ReadFootprint* active_footprint = nullptr;

}  // namespace bg::aig::detail
