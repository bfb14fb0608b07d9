#include "common/settings.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <mutex>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/simd.h"

namespace rapid {
namespace internal {

constinit std::atomic<int> g_setting_values[kNumSettings] = {
#define RAPID_SETTING_UNRESOLVED(...) -1,
    RAPID_SETTINGS(RAPID_SETTING_UNRESOLVED)
#undef RAPID_SETTING_UNRESOLVED
};

}  // namespace internal

namespace {

// One entry's `values` text, split once: enum names in value order plus
// aliases, or integer bounds.
struct ValueSyntax {
  std::vector<std::string> names;
  std::vector<std::pair<std::string, int>> aliases;
  long lo = 0;
  long hi = 0;
};

const ValueSyntax& SyntaxOf(Setting id) {
  static const std::vector<ValueSyntax> table = [] {
    std::vector<ValueSyntax> out(kNumSettings);
    for (int i = 0; i < kNumSettings; ++i) {
      const std::string values = kSettingSpecs[i].values;
      ValueSyntax& syntax = out[i];
      if (kSettingSpecs[i].kind == SettingKind::kInt) {
        const size_t dots = values.find("..");
        syntax.lo = std::stol(values.substr(0, dots));
        syntax.hi = std::stol(values.substr(dots + 2));
      } else if (kSettingSpecs[i].kind == SettingKind::kEnum) {
        size_t start = 0;
        while (start <= values.size()) {
          const size_t end = std::min(values.find('|', start), values.size());
          const std::string token = values.substr(start, end - start);
          const size_t eq = token.find('=');
          if (eq == std::string::npos) {
            syntax.names.push_back(token);
          } else {
            const auto target = std::find(syntax.names.begin(),
                                          syntax.names.end(),
                                          token.substr(eq + 1));
            RAPID_CHECK(target != syntax.names.end());
            syntax.aliases.emplace_back(
                token.substr(0, eq),
                static_cast<int>(target - syntax.names.begin()));
          }
          start = end + 1;
        }
      }
    }
    return out;
  }();
  return table[static_cast<int>(id)];
}

// Applies the bounds a parsed or forced value must respect.
int Cap(Setting id, int value) {
  if (id == Setting::kSimd) {
    return std::min(value, static_cast<int>(SimdLevelSupported()));
  }
  if (SpecOf(id).kind == SettingKind::kInt) {
    const ValueSyntax& syntax = SyntaxOf(id);
    return static_cast<int>(std::clamp<long>(value, syntax.lo, syntax.hi));
  }
  return value;
}

std::string& TracePathText() {
  static std::string text;
  return text;
}

MetricGauge* g_gauges[kNumSettings] = {};

// Reads the environment once: stores every value, then logs any
// warnings and the one startup line (logging reads RAPID_LOG_LEVEL,
// which is stored by then).
void ResolveAll() {
  static std::once_flag once;
  std::call_once(once, [] {
    std::vector<std::string> warnings;
    for (int i = 0; i < kNumSettings; ++i) {
      const SettingSpec& spec = kSettingSpecs[i];
      const char* env = std::getenv(spec.name);
      const std::string_view text = env != nullptr ? env : "";
      const int value = ParseSetting(static_cast<Setting>(i), text, &warnings);
      if (spec.kind == SettingKind::kPath) TracePathText() = text;
      // "RAPID_TRACE_PATH" -> "rapid.setting.trace_path".
      std::string gauge = std::string(spec.name).substr(sizeof("RAPID_") - 1);
      std::transform(gauge.begin(), gauge.end(), gauge.begin(),
                     [](unsigned char c) { return std::tolower(c); });
      g_gauges[i] = MetricsRegistry::Instance().Gauge("rapid.setting." + gauge);
      g_gauges[i]->Set(value);
      internal::g_setting_values[i].store(value, std::memory_order_release);
    }
    for (const std::string& warning : warnings) {
      RAPID_LOG(kWarn, "%s", warning.c_str());
    }
    RAPID_LOG(kInfo, "settings %s", SettingsSummary().c_str());
  });
}

}  // namespace

int ParseSetting(Setting id, std::string_view text,
                 std::vector<std::string>* warnings) {
  const SettingSpec& spec = SpecOf(id);
  if (text.empty()) text = spec.fallback;
  const ValueSyntax& syntax = SyntaxOf(id);
  switch (spec.kind) {
    case SettingKind::kPath:
      return text.empty() ? 0 : 1;
    case SettingKind::kInt: {
      const std::string digits(text);
      char* end = nullptr;
      const long parsed = std::strtol(digits.c_str(), &end, 10);
      if (end != digits.c_str() && *end == '\0' && parsed >= syntax.lo) {
        return static_cast<int>(std::min(parsed, syntax.hi));
      }
      break;
    }
    case SettingKind::kEnum:
      for (size_t v = 0; v < syntax.names.size(); ++v) {
        if (syntax.names[v] == text) return Cap(id, static_cast<int>(v));
      }
      for (const auto& [alias, v] : syntax.aliases) {
        if (alias == text) return Cap(id, v);
      }
      break;
  }
  // The default must parse, or this would recurse forever.
  RAPID_CHECK(text != spec.fallback);
  if (warnings != nullptr) {
    warnings->push_back("unknown " + std::string(spec.name) + " value '" +
                        std::string(text) + "' (want " + spec.values +
                        "); using " + spec.fallback);
  }
  return ParseSetting(id, spec.fallback, nullptr);
}

namespace internal {

int ResolveSetting(Setting id) {
  ResolveAll();
  return g_setting_values[static_cast<int>(id)].load(
      std::memory_order_acquire);
}

}  // namespace internal

int ForceSetting(Setting id, int value) {
  RAPID_CHECK(SpecOf(id).kind != SettingKind::kPath);
  ResolveAll();
  const int i = static_cast<int>(id);
  value = Cap(id, value);
  g_gauges[i]->Set(value);
  return internal::g_setting_values[i].exchange(value,
                                                std::memory_order_acq_rel);
}

const char* SettingValueName(Setting id, int value) {
  const std::vector<std::string>& names = SyntaxOf(id).names;
  if (value < 0 || value >= static_cast<int>(names.size())) return "?";
  return names[static_cast<size_t>(value)].c_str();
}

const std::string& TracePath() {
  ResolveAll();
  return TracePathText();
}

std::string SettingsSummary() {
  std::string out;
  for (int i = 0; i < kNumSettings; ++i) {
    const Setting id = static_cast<Setting>(i);
    const int value = SettingValue(id);
    if (i > 0) out += ' ';
    out += kSettingSpecs[i].name;
    out += '=';
    switch (kSettingSpecs[i].kind) {
      case SettingKind::kEnum:
        out += SettingValueName(id, value);
        break;
      case SettingKind::kInt:
        out += std::to_string(value);
        break;
      case SettingKind::kPath:
        out += TracePathText();  // resolved by SettingValue above
        break;
    }
  }
  return out;
}

}  // namespace rapid
