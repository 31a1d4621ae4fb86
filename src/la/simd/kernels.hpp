// Internal seam between the dispatcher and the per-ISA kernel TUs.
//
// Each accessor is defined in its own translation unit, compiled with
// that ISA's *pinned* flags (see the src/la/simd block in CMakeLists):
// the dispatcher must never cause, say, the SSE2 table to be emitted
// with AVX2 instructions just because the build passed -march=native.
// Accessors return nullptr when the build target cannot emit the ISA
// at all (non-x86); hardware gating (CPUID) is the dispatcher's job.
#pragma once

#include "la/simd/simd.hpp"

namespace sa::la::simd {

/// The pre-dispatch kernels, verbatim, at the portable baseline.
const KernelTable* scalar_table();

/// 2-lane SSE2 kernels; nullptr on non-x86 builds.
const KernelTable* sse2_table();

/// 4-lane AVX2+FMA kernels; nullptr when the toolchain could not
/// compile them.  Callers must still check CPUID before executing.
const KernelTable* avx2_table();

/// avx2_table() with gram_tile on 512-bit registers, bitwise the same
/// results; nullptr when the toolchain could not compile it.  Callers
/// must check that the CPU and the OS support AVX-512F.
const KernelTable* avx2_zmm_table();

}  // namespace sa::la::simd
