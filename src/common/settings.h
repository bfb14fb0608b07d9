// One table of runtime settings.
//
// Every RAPID_* environment variable the engine reads is declared once,
// in RAPID_SETTINGS below, and read nowhere else. The table drives one
// code path each for parsing (once per process, on first use), the
// in-process Force override tests and benches use, the value-name
// lookup, the startup log line, the EXPLAIN ANALYZE header and the
// `rapid.setting.<name>` gauges. The typed accessors each module keeps
// (SimdLevelActive, ForceSchedMode, TraceModeName, ...) are thin casts
// over SettingValue / ForceSetting / SettingValueName.
//
// A resolved value is one int per setting, held in an atomic, so a
// typed *Active() read is a single atomic load.

#ifndef RAPID_COMMON_SETTINGS_H_
#define RAPID_COMMON_SETTINGS_H_

#include <atomic>
#include <string>
#include <string_view>
#include <vector>

namespace rapid {

// X(id, env name, kind, values, default, what it gates)
//
//   kEnum: `values` lists the canonical names in value order ("a|b":
//          a = 0, b = 1), then any aliases as "alias=canonical".
//   kInt:  `values` is "lo..hi"; larger numbers clamp to hi, anything
//          that is not an integer >= lo falls back to the default.
//   kPath: any text; the value is 1 when a path is set, else 0.
//
// Unknown or malformed text falls back to the default with one warning.
// RAPID_SIMD is further capped at the tier the CPU supports.
#define RAPID_SETTINGS(X)                                                    \
  X(kSimd, "RAPID_SIMD", kEnum, "scalar|avx2|off=scalar|auto=avx2", "auto",  \
    "SIMD kernel tier, capped at the CPU's (avx2 needs AVX2 and SSE4.2)")    \
  X(kSched, "RAPID_SCHED", kEnum, "static|morsel|dynamic=morsel", "morsel",  \
    "dpCore scheduling: round-robin striding, or LPT morsels with stealing") \
  X(kCores, "RAPID_CORES", kInt, "1..1024", "32",                            \
    "simulated dpCore count (the paper's DPU has 32)")                       \
  X(kEncodedScan, "RAPID_ENCODED_SCAN", kEnum, "off|auto", "auto",           \
    "RLE columns cross the DMS encoded when the cost model says so")         \
  X(kJoinFilter, "RAPID_JOIN_FILTER", kEnum, "off|auto", "auto",             \
    "build-side Bloom filters prune probe rows when the cost model says so") \
  X(kTilePool, "RAPID_TILE_POOL", kEnum, "off|on", "on",                     \
    "tile buffers recycle through the per-core pool (off: one heap "         \
    "allocation per tile)")                                                  \
  X(kTrace, "RAPID_TRACE", kEnum, "off|summary|full", "off",                 \
    "virtual-time tracing of each query")                                    \
  X(kTracePath, "RAPID_TRACE_PATH", kPath, "<path>", "",                     \
    "file each traced query's Chrome trace JSON is written to")              \
  X(kLogLevel, "RAPID_LOG_LEVEL", kEnum, "error|warn|info|debug", "warn",    \
    "lowest RAPID_LOG level written to stderr")

enum class Setting : int {
#define RAPID_SETTING_ID(id, ...) id,
  RAPID_SETTINGS(RAPID_SETTING_ID)
#undef RAPID_SETTING_ID
};

enum class SettingKind { kEnum, kInt, kPath };

struct SettingSpec {
  const char* name;     // environment variable
  SettingKind kind;
  const char* values;   // accepted values, in the table's syntax
  const char* fallback; // default text
  const char* gates;    // what the setting controls
};

inline constexpr SettingSpec kSettingSpecs[] = {
#define RAPID_SETTING_SPEC(id, name, kind, values, fallback, gates) \
  {name, SettingKind::kind, values, fallback, gates},
    RAPID_SETTINGS(RAPID_SETTING_SPEC)
#undef RAPID_SETTING_SPEC
};

inline constexpr int kNumSettings =
    static_cast<int>(sizeof(kSettingSpecs) / sizeof(kSettingSpecs[0]));

inline const SettingSpec& SpecOf(Setting id) {
  return kSettingSpecs[static_cast<int>(id)];
}

// Parses `text` as setting `id` without touching the environment: the
// empty string gives the default, and text the table does not accept
// gives the default plus one message appended to `warnings`.
int ParseSetting(Setting id, std::string_view text,
                 std::vector<std::string>* warnings);

namespace internal {
// -1 until the table is resolved from the environment.
extern std::atomic<int> g_setting_values[kNumSettings];
int ResolveSetting(Setting id);
}  // namespace internal

// The value in force: a Force override if one was made, else the
// environment's, parsed once. One atomic load once resolved.
inline int SettingValue(Setting id) {
  const int value = internal::g_setting_values[static_cast<int>(id)].load(
      std::memory_order_acquire);
  return value >= 0 ? value : internal::ResolveSetting(id);
}

// Pins enum or int setting `id` to `value` (capped like a parsed value)
// and returns the value it replaces, so callers can restore it.
int ForceSetting(Setting id, int value);

// Canonical name of enum setting `id`'s `value` ("avx2", "morsel",
// ...); "?" when out of range.
const char* SettingValueName(Setting id, int value);

// The RAPID_TRACE_PATH text ("" when unset).
const std::string& TracePath();

// "RAPID_SIMD=avx2 RAPID_SCHED=morsel ...": every entry with the value
// in force, in table order.
std::string SettingsSummary();

}  // namespace rapid

#endif  // RAPID_COMMON_SETTINGS_H_
