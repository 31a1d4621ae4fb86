// Table selection.  One detection on the first active() call (CPUID +
// the SA_KERNEL_ISA override), then every kernel call is a single
// relaxed-cost atomic load — cheap enough for BLAS-1 call sites.
//
// The lazy init races benignly: concurrent first calls each run
// detect() (idempotent, allocation-free) and store the same pointer.
// set_kernel_isa() publishes with release semantics so a table is
// fully visible before any thread dereferences it.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "la/simd/kernels.hpp"
#include "la/simd/simd.hpp"

namespace sa::la::simd {

namespace {

std::atomic<const KernelTable*> g_active{nullptr};

bool cpu_has_avx2_fma() {
#if SA_SIMD_X86 && defined(__GNUC__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

/// libgcc (and compiler-rt) report avx512f only when XCR0 also shows the
/// OS saving the opmask and ZMM state (the 0xe6 mask in gcc 12's
/// get_available_features), so this one test covers CPU and OS.
bool cpu_has_avx512f() {
#if SA_SIMD_X86 && defined(__GNUC__)
  return __builtin_cpu_supports("avx512f");
#else
  return false;
#endif
}

const KernelTable* table_for(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return scalar_table();
    case Isa::kSse2:
      return sse2_table();
    case Isa::kAvx2:
      // Same bits either way; the zmm gram_tile is the faster one.
      if (cpu_has_avx512f() && avx2_zmm_table() != nullptr)
        return avx2_zmm_table();
      return avx2_table();
  }
  return nullptr;
}

const KernelTable* detect() {
  const char* env = std::getenv("SA_KERNEL_ISA");
  if (env != nullptr && env[0] != '\0') {
    Isa requested;
    if (!parse_isa(env, requested)) {
      std::fprintf(stderr,
                   "sa: SA_KERNEL_ISA=%s is not one of "
                   "{scalar, sse2, avx2}; using auto-detection\n",
                   env);
    } else if (!isa_available(requested)) {
      std::fprintf(stderr,
                   "sa: SA_KERNEL_ISA=%s is not available on this "
                   "build/machine; using auto-detection\n",
                   env);
    } else {
      return table_for(requested);
    }
  }
  return table_for(best_isa());
}

}  // namespace

const char* to_cstring(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kSse2:
      return "sse2";
    case Isa::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool parse_isa(const char* name, Isa& out) {
  if (name == nullptr) return false;
  if (std::strcmp(name, "scalar") == 0) {
    out = Isa::kScalar;
    return true;
  }
  if (std::strcmp(name, "sse2") == 0) {
    out = Isa::kSse2;
    return true;
  }
  if (std::strcmp(name, "avx2") == 0) {
    out = Isa::kAvx2;
    return true;
  }
  return false;
}

bool isa_available(Isa isa) {
  const KernelTable* t = table_for(isa);
  if (t == nullptr) return false;
  if (isa == Isa::kAvx2 && !cpu_has_avx2_fma()) return false;
  return true;
}

Isa best_isa() {
  if (isa_available(Isa::kAvx2)) return Isa::kAvx2;
  if (isa_available(Isa::kSse2)) return Isa::kSse2;
  return Isa::kScalar;
}

const KernelTable& active() {
  const KernelTable* t = g_active.load(std::memory_order_acquire);
  if (t == nullptr) {
    t = detect();
    g_active.store(t, std::memory_order_release);
  }
  return *t;
}

Isa active_isa() { return active().isa; }

bool set_kernel_isa(Isa isa) {
  if (!isa_available(isa)) return false;
  g_active.store(table_for(isa), std::memory_order_release);
  return true;
}

}  // namespace sa::la::simd
