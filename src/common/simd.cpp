#include "common/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"

namespace dbaugur::simd {
namespace {

// Widest tier this *build* contains kernels for. The per-tier TUs are only
// compiled when CMake verifies the compiler accepts the -m<isa> flags
// (DBAUGUR_SIMD_HAS_* are PUBLIC defines on dbaugur_common), so dispatch must
// never select a tier whose symbols were not emitted.
Tier MaxCompiledTier() {
#if defined(DBAUGUR_SIMD_HAS_AVX2)
  return Tier::kAvx2;
#elif defined(DBAUGUR_SIMD_HAS_SSE2)
  return Tier::kSse2;
#else
  return Tier::kScalar;
#endif
}

Tier MaxCpuTier() {
#if DBAUGUR_SIMD_X86
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return Tier::kAvx2;
  }
  if (__builtin_cpu_supports("sse2")) {
    return Tier::kSse2;
  }
#endif
  return Tier::kScalar;
}

// Parses DBAUGUR_SIMD. Returns the cap, or kAvx2 (no cap) when unset;
// unknown values warn once and impose no cap.
Tier EnvCap() {
  const char* env = std::getenv("DBAUGUR_SIMD");
  if (env == nullptr || *env == '\0') return Tier::kAvx2;
  if (std::strcmp(env, "off") == 0 || std::strcmp(env, "scalar") == 0) {
    return Tier::kScalar;
  }
  if (std::strcmp(env, "sse2") == 0) return Tier::kSse2;
  if (std::strcmp(env, "avx2") == 0) return Tier::kAvx2;
  DBAUGUR_WARN("ignoring unknown DBAUGUR_SIMD value '"
               << env << "' (want off|scalar|sse2|avx2)");
  return Tier::kAvx2;
}

// -1 = no override; otherwise the forced tier. Relaxed is enough: the value
// is set once by test/bench setup before kernels run on other threads.
std::atomic<int> g_forced_tier{-1};

}  // namespace

Tier MaxSupportedTier() {
  static const Tier tier = [] {
    const Tier cpu = MaxCpuTier();
    const Tier compiled = MaxCompiledTier();
    return cpu < compiled ? cpu : compiled;
  }();
  return tier;
}

Tier ActiveTier() {
  const int forced = g_forced_tier.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<Tier>(forced);
  static const Tier auto_tier = [] {
    const Tier cap = EnvCap();
    const Tier max = MaxSupportedTier();
    return cap < max ? cap : max;
  }();
  return auto_tier;
}

bool ForceTier(Tier t) {
  if (t < Tier::kScalar || t > MaxSupportedTier()) return false;
  g_forced_tier.store(static_cast<int>(t), std::memory_order_relaxed);
  return true;
}

void ResetForcedTier() {
  g_forced_tier.store(-1, std::memory_order_relaxed);
}

int SupportedTiers(Tier out[3]) {
  const int max = static_cast<int>(MaxSupportedTier());
  for (int t = 0; t <= max; ++t) out[t] = static_cast<Tier>(t);
  return max + 1;
}

const char* TierName(Tier t) {
  switch (t) {
    case Tier::kScalar:
      return "scalar";
    case Tier::kSse2:
      return "sse2";
    case Tier::kAvx2:
      return "avx2";
  }
  return "unknown";
}

std::string CpuFeatures() {
  std::string features;
  auto add = [&features](bool has, const char* name) {
    if (!has) return;
    if (!features.empty()) features += ' ';
    features += name;
  };
#if DBAUGUR_SIMD_X86
  add(__builtin_cpu_supports("sse2"), "sse2");
  add(__builtin_cpu_supports("sse4.2"), "sse4.2");
  add(__builtin_cpu_supports("avx"), "avx");
  add(__builtin_cpu_supports("avx2"), "avx2");
  add(__builtin_cpu_supports("fma"), "fma");
  add(__builtin_cpu_supports("avx512f"), "avx512f");
  add(__builtin_cpu_supports("avx512dq"), "avx512dq");
  add(__builtin_cpu_supports("avx512vl"), "avx512vl");
  add(__builtin_cpu_supports("avx512bw"), "avx512bw");
#else
  add(true, "non-x86");
#endif
  if (features.empty()) features = "none";
  return features;
}

}  // namespace dbaugur::simd
