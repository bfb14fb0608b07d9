// The runtime settings table (common/settings.h): every RAPID_SETTINGS
// entry parses its accepted values and aliases, falls back to its
// default on empty or unknown text (with exactly one warning for the
// latter), and round-trips through its Force override. Parsing goes
// through the pure ParseSetting, so no test touches the environment.

#include <algorithm>
#include <cctype>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/arena.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/settings.h"
#include "common/simd.h"
#include "common/trace.h"
#include "core/join_filter.h"
#include "dpu/config.h"
#include "dpu/work_queue.h"
#include "storage/encoding_stack.h"

namespace rapid {
namespace {

struct ParseCase {
  Setting id;
  const char* text;
  int value;
  size_t warnings;
};

TEST(SettingsTest, EveryEntryParsesValuesAliasesDefaultsAndUnknowns) {
  const int simd_max = static_cast<int>(SimdLevelSupported());
  const ParseCase cases[] = {
      {Setting::kSimd, "scalar", 0, 0},
      {Setting::kSimd, "off", 0, 0},
      {Setting::kSimd, "avx2", simd_max, 0},
      {Setting::kSimd, "auto", simd_max, 0},
      {Setting::kSimd, "", simd_max, 0},
      {Setting::kSimd, "sse42", simd_max, 1},
      {Setting::kSched, "static", 0, 0},
      {Setting::kSched, "morsel", 1, 0},
      {Setting::kSched, "dynamic", 1, 0},
      {Setting::kSched, "", 1, 0},
      {Setting::kSched, "lifo", 1, 1},
      {Setting::kCores, "1", 1, 0},
      {Setting::kCores, "4", 4, 0},
      {Setting::kCores, "1024", 1024, 0},
      {Setting::kCores, "2000", 1024, 0},
      {Setting::kCores, "", 32, 0},
      {Setting::kCores, "0", 32, 1},
      {Setting::kCores, "-1", 32, 1},
      {Setting::kCores, "4x", 32, 1},
      {Setting::kEncodedScan, "off", 0, 0},
      {Setting::kEncodedScan, "auto", 1, 0},
      {Setting::kEncodedScan, "", 1, 0},
      {Setting::kEncodedScan, "on", 1, 1},
      {Setting::kJoinFilter, "off", 0, 0},
      {Setting::kJoinFilter, "auto", 1, 0},
      {Setting::kJoinFilter, "", 1, 0},
      {Setting::kJoinFilter, "bloom", 1, 1},
      {Setting::kTilePool, "off", 0, 0},
      {Setting::kTilePool, "on", 1, 0},
      {Setting::kTilePool, "", 1, 0},
      {Setting::kTilePool, "1", 1, 1},
      {Setting::kTrace, "off", 0, 0},
      {Setting::kTrace, "summary", 1, 0},
      {Setting::kTrace, "full", 2, 0},
      {Setting::kTrace, "", 0, 0},
      {Setting::kTrace, "verbose", 0, 1},
      {Setting::kTracePath, "", 0, 0},
      {Setting::kTracePath, "trace.json", 1, 0},
      {Setting::kLogLevel, "error", 0, 0},
      {Setting::kLogLevel, "warn", 1, 0},
      {Setting::kLogLevel, "info", 2, 0},
      {Setting::kLogLevel, "debug", 3, 0},
      {Setting::kLogLevel, "", 1, 0},
      {Setting::kLogLevel, "loud", 1, 1},
  };
  std::set<int> covered;
  for (const ParseCase& c : cases) {
    const char* name = SpecOf(c.id).name;
    std::vector<std::string> warnings;
    EXPECT_EQ(ParseSetting(c.id, c.text, &warnings), c.value)
        << name << "='" << c.text << "'";
    ASSERT_EQ(warnings.size(), c.warnings) << name << "='" << c.text << "'";
    if (c.warnings > 0) {
      EXPECT_NE(warnings[0].find(name), std::string::npos) << warnings[0];
      EXPECT_NE(warnings[0].find(c.text), std::string::npos) << warnings[0];
    }
    covered.insert(static_cast<int>(c.id));
  }
  EXPECT_EQ(covered.size(), static_cast<size_t>(kNumSettings));

  // Each enum entry's canonical names parse back to their own value.
  for (int i = 0; i < kNumSettings; ++i) {
    const Setting id = static_cast<Setting>(i);
    if (kSettingSpecs[i].kind != SettingKind::kEnum) continue;
    for (int v = 0; std::string(SettingValueName(id, v)) != "?"; ++v) {
      const int expected = id == Setting::kSimd ? std::min(v, simd_max) : v;
      EXPECT_EQ(ParseSetting(id, SettingValueName(id, v), nullptr), expected)
          << kSettingSpecs[i].name << "=" << SettingValueName(id, v);
    }
  }
}

TEST(SettingsTest, ForceReturnsPreviousValueAndRestores) {
  const SimdLevel simd = SimdLevelActive();
  EXPECT_EQ(ForceSimdLevel(SimdLevel::kScalar), simd);
  EXPECT_EQ(SimdLevelActive(), SimdLevel::kScalar);
  EXPECT_EQ(ForceSimdLevel(simd), SimdLevel::kScalar);
  EXPECT_EQ(SimdLevelActive(), simd);

  const dpu::SchedMode sched = dpu::SchedModeActive();
  EXPECT_EQ(dpu::ForceSchedMode(dpu::SchedMode::kStatic), sched);
  EXPECT_EQ(dpu::SchedModeActive(), dpu::SchedMode::kStatic);
  EXPECT_EQ(dpu::ForceSchedMode(sched), dpu::SchedMode::kStatic);
  EXPECT_EQ(dpu::SchedModeActive(), sched);

  const storage::EncodedScanMode encoded = storage::EncodedScanActive();
  EXPECT_EQ(storage::ForceEncodedScan(storage::EncodedScanMode::kOff),
            encoded);
  EXPECT_EQ(storage::EncodedScanActive(), storage::EncodedScanMode::kOff);
  EXPECT_EQ(storage::ForceEncodedScan(encoded), storage::EncodedScanMode::kOff);
  EXPECT_EQ(storage::EncodedScanActive(), encoded);

  const core::JoinFilterMode filter = core::JoinFilterActive();
  EXPECT_EQ(core::ForceJoinFilter(core::JoinFilterMode::kOff), filter);
  EXPECT_EQ(core::JoinFilterActive(), core::JoinFilterMode::kOff);
  EXPECT_EQ(core::ForceJoinFilter(filter), core::JoinFilterMode::kOff);
  EXPECT_EQ(core::JoinFilterActive(), filter);

  const bool bypass = TileBufferPool::BypassActive();
  EXPECT_EQ(TileBufferPool::ForceBypass(!bypass), bypass);
  EXPECT_EQ(TileBufferPool::BypassActive(), !bypass);
  EXPECT_EQ(TileBufferPool::ForceBypass(bypass), !bypass);
  EXPECT_EQ(TileBufferPool::BypassActive(), bypass);

  const TraceMode trace = TraceModeActive();
  EXPECT_EQ(ForceTraceMode(TraceMode::kSummary), trace);
  EXPECT_EQ(TraceModeActive(), TraceMode::kSummary);
  EXPECT_EQ(ForceTraceMode(trace), TraceMode::kSummary);
  EXPECT_EQ(TraceModeActive(), trace);

  const LogLevel log = LogLevelActive();
  EXPECT_EQ(ForceLogLevel(LogLevel::kDebug), log);
  EXPECT_EQ(LogLevelActive(), LogLevel::kDebug);
  EXPECT_EQ(ForceLogLevel(log), LogLevel::kDebug);
  EXPECT_EQ(LogLevelActive(), log);

  // RAPID_CORES has no typed Force; the generic one clamps like the
  // parser, and DpuConfig::Default() follows it.
  const int cores = SettingValue(Setting::kCores);
  EXPECT_EQ(ForceSetting(Setting::kCores, 2000), cores);
  EXPECT_EQ(dpu::DpuConfig::Default().num_cores, 1024);
  EXPECT_EQ(MetricsRegistry::Instance().Gauge("rapid.setting.cores")->value(),
            1024);
  EXPECT_EQ(ForceSetting(Setting::kCores, cores), 1024);
  EXPECT_EQ(dpu::DpuConfig::Default().num_cores, cores);
}

TEST(SettingsTest, SummaryAndGaugesCoverEveryEntry) {
  const std::string summary = SettingsSummary();
  for (int i = 0; i < kNumSettings; ++i) {
    const std::string name = kSettingSpecs[i].name;
    EXPECT_NE(summary.find(name + "="), std::string::npos) << name;
    std::string gauge = "rapid.setting." + name.substr(6);
    std::transform(gauge.begin(), gauge.end(), gauge.begin(),
                   [](unsigned char ch) { return std::tolower(ch); });
    EXPECT_EQ(MetricsRegistry::Instance().Gauge(gauge)->value(),
              SettingValue(static_cast<Setting>(i)))
        << gauge;
  }
}

}  // namespace
}  // namespace rapid
