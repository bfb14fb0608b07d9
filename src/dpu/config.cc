#include "dpu/config.h"

#include "common/settings.h"

namespace rapid::dpu {

DpuConfig DpuConfig::Default() {
  DpuConfig config;
  config.num_cores = SettingValue(Setting::kCores);
  return config;
}

}  // namespace rapid::dpu
