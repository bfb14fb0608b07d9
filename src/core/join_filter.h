// Runtime gate of the join-filter pushdown (sideways information
// passing): RAPID_JOIN_FILTER=off|auto, default auto. The gate is
// consulted only at *runtime* — the planner attaches filter references
// and the fusion pass shapes pipelines identically in both modes, so
// toggling the gate never changes plan shape, DMEM allocation counts
// or fault-poll ordinals; it only decides whether the referenced
// filter is actually built and evaluated.

#ifndef RAPID_CORE_JOIN_FILTER_H_
#define RAPID_CORE_JOIN_FILTER_H_

namespace rapid::core {

enum class JoinFilterMode { kOff = 0, kAuto = 1 };

// Active mode: a ForceJoinFilter override if set, else the
// RAPID_JOIN_FILTER entry of common/settings.h.
JoinFilterMode JoinFilterActive();

// Test hook: pins the mode for the process and returns the previous
// active mode so tests can restore it.
JoinFilterMode ForceJoinFilter(JoinFilterMode mode);

}  // namespace rapid::core

#endif  // RAPID_CORE_JOIN_FILTER_H_
