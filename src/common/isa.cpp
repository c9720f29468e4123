#include "common/isa.hpp"

#include <initializer_list>

namespace cstf {

bool cpu_has_bmi2() {
#if defined(__x86_64__) && defined(__GNUC__)
  static const bool has = __builtin_cpu_supports("bmi2");
  return has;
#else
  return false;
#endif
}

bool isa_supported(Isa isa) {
  switch (isa) {
    case Isa::kPortable: return true;
#if defined(__x86_64__) && defined(__GNUC__)
    case Isa::kAvx2: return __builtin_cpu_supports("avx2");
    case Isa::kAvx512f: return __builtin_cpu_supports("avx512f");
#else
    case Isa::kAvx2:
    case Isa::kAvx512f: return false;
#endif
  }
  return false;
}

Isa widest_isa() {
  static const Isa widest = [] {
    for (auto isa : {Isa::kAvx512f, Isa::kAvx2}) {
      if (isa_supported(isa)) return isa;
    }
    return Isa::kPortable;
  }();
  return widest;
}

}  // namespace cstf
