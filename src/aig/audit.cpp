#include "aig/audit.hpp"

namespace bg::aig::audit::detail {

constinit thread_local ShadowSet* active_shadow = nullptr;

}  // namespace bg::aig::audit::detail
