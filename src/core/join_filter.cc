#include "core/join_filter.h"

#include "common/settings.h"

namespace rapid::core {

JoinFilterMode JoinFilterActive() {
  return static_cast<JoinFilterMode>(SettingValue(Setting::kJoinFilter));
}

JoinFilterMode ForceJoinFilter(JoinFilterMode mode) {
  return static_cast<JoinFilterMode>(
      ForceSetting(Setting::kJoinFilter, static_cast<int>(mode)));
}

}  // namespace rapid::core
