#include "common/simd.h"

#include "common/settings.h"

namespace rapid {
namespace {

SimdLevel ProbeSupported() {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("sse4.2")) {
    return SimdLevel::kAvx2;
  }
#endif
  return SimdLevel::kScalar;
}

}  // namespace

SimdLevel SimdLevelSupported() {
  static const SimdLevel supported = ProbeSupported();
  return supported;
}

SimdLevel SimdLevelActive() {
  return static_cast<SimdLevel>(SettingValue(Setting::kSimd));
}

SimdLevel ForceSimdLevel(SimdLevel level) {
  return static_cast<SimdLevel>(
      ForceSetting(Setting::kSimd, static_cast<int>(level)));
}

const char* SimdLevelName(SimdLevel level) {
  return SettingValueName(Setting::kSimd, static_cast<int>(level));
}

}  // namespace rapid
