#include "formats/linearize.hpp"

#include "common/error.hpp"
#include "common/isa.hpp"
#include "formats/bitpack.hpp"

namespace cstf {

LinearizedEncoding::LinearizedEncoding(const std::vector<index_t>& dims,
                                       BitOrder order)
    : dims_(dims), order_(order) {
  CSTF_CHECK(!dims_.empty());
  const int modes = num_modes();
  bits_.resize(static_cast<std::size_t>(modes));
  masks_.assign(static_cast<std::size_t>(modes), 0);
  int total = 0;
  for (int m = 0; m < modes; ++m) {
    bits_[static_cast<std::size_t>(m)] =
        bits_for(static_cast<std::uint64_t>(dims_[static_cast<std::size_t>(m)]));
    total += bits_[static_cast<std::size_t>(m)];
  }
  CSTF_CHECK_MSG(total <= 64, "linearized coordinate needs " << total
                                                             << " bits (max 64)");
  total_bits_ = total;

  if (order_ == BitOrder::kInterleaved) {
    // Round-robin interleave from the LSB: repeatedly give the next bit
    // position to each mode that still has unassigned bits.
    std::vector<int> assigned(static_cast<std::size_t>(modes), 0);
    int pos = 0;
    bool any = true;
    while (any) {
      any = false;
      for (int m = 0; m < modes; ++m) {
        auto mi = static_cast<std::size_t>(m);
        if (assigned[mi] < bits_[mi]) {
          masks_[mi] |= lco_t{1} << pos;
          ++pos;
          ++assigned[mi];
          any = true;
        }
      }
    }
  } else {
    // Mode-major: last mode in the low bits, mode 0 on top — the linearized
    // order coincides with a mode-0-first lexicographic sort.
    int pos = 0;
    for (int m = modes - 1; m >= 0; --m) {
      auto mi = static_cast<std::size_t>(m);
      for (int b = 0; b < bits_[mi]; ++b) {
        masks_[mi] |= lco_t{1} << pos;
        ++pos;
      }
    }
  }
}

namespace {

template <bool kBmi2>
lco_t deposit_all(const std::vector<lco_t>& masks, const index_t* coords) {
  lco_t lco = 0;
  for (std::size_t m = 0; m < masks.size(); ++m) {
    lco |= pdep<kBmi2>(static_cast<lco_t>(coords[m]), masks[m]);
  }
  return lco;
}

template <bool kBmi2>
void extract_all(const std::vector<lco_t>& masks, lco_t lco, index_t* coords) {
  for (std::size_t m = 0; m < masks.size(); ++m) {
    coords[m] = static_cast<index_t>(pext<kBmi2>(lco, masks[m]));
  }
}

}  // namespace

lco_t LinearizedEncoding::encode(const index_t* coords) const {
  return cpu_has_bmi2() ? deposit_all<true>(masks_, coords)
                        : deposit_all<false>(masks_, coords);
}

index_t LinearizedEncoding::decode(lco_t lco, int mode) const {
  const lco_t mask = mode_mask(mode);
  return static_cast<index_t>(cpu_has_bmi2() ? pext<true>(lco, mask)
                                             : pext<false>(lco, mask));
}

void LinearizedEncoding::decode_all(lco_t lco, index_t* coords) const {
  if (cpu_has_bmi2()) {
    extract_all<true>(masks_, lco, coords);
  } else {
    extract_all<false>(masks_, lco, coords);
  }
}

}  // namespace cstf
