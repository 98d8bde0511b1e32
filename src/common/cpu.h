#ifndef VISUALROAD_COMMON_CPU_H_
#define VISUALROAD_COMMON_CPU_H_

#include <string>

namespace visualroad {

/// SIMD levels the kernel layer dispatches between. Levels are ordered: a CPU
/// that supports a level supports every lower one, and the dispatcher picks
/// the widest supported level unless the VR_SIMD environment variable pins it
/// down.
enum class SimdLevel : int {
  kScalar = 0,
  kAvx2 = 1,
};

/// Widest SIMD level this CPU supports, probed once via CPUID. On non-x86
/// targets this is kScalar.
SimdLevel DetectedSimdLevel();

/// Parses "scalar" / "avx2" (case-insensitive). Returns false and leaves
/// `out` untouched on anything else.
bool ParseSimdLevel(const std::string& text, SimdLevel* out);

/// Lower-case level name ("scalar", "avx2").
const char* SimdLevelName(SimdLevel level);

/// The level requested by the environment: VR_SIMD=scalar|avx2, clamped to
/// DetectedSimdLevel() so a pin can only narrow, never widen. Unset or
/// unparseable VR_SIMD yields DetectedSimdLevel().
SimdLevel RequestedSimdLevel();

}  // namespace visualroad

#endif  // VISUALROAD_COMMON_CPU_H_
