// Run-time instruction-set detection for the host kernels that are compiled
// in several variants (the gemm micro-kernel, the BLCO MTTKRP kernels) and
// for the BMI2 bit extract/deposit of the linearized coordinates.
#pragma once

namespace cstf {

/// Vector instruction-set levels the multi-variant host kernels are
/// compiled for. A kernel that also needs BMI2 checks cpu_has_bmi2() itself.
/// Every variant of a kernel yields bitwise-identical results; the level
/// only decides how fast.
enum class Isa { kPortable, kAvx2, kAvx512f };

/// Whether this CPU can run code compiled for `isa` (kPortable: always).
bool isa_supported(Isa isa);

/// The widest level this CPU supports (detected once).
Isa widest_isa();

/// Whether this CPU has the BMI2 PEXT/PDEP instructions (detected once).
bool cpu_has_bmi2();

}  // namespace cstf
