// Mode-agnostic bit linearization of tensor coordinates, shared by the ALTO
// and BLCO formats.
//
// Each mode m gets ceil(log2(dim_m)) bits; bits are interleaved round-robin
// from the least significant position (ALTO's adaptive ordering), so nearby
// linearized values are nearby in *every* mode — the locality property both
// formats exploit.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "tensor/coo.hpp"

namespace cstf {

/// How mode bits are laid out within the linearized value.
enum class BitOrder {
  /// Round-robin interleave from the LSB (ALTO's adaptive ordering):
  /// nearby linearized values are nearby in every mode.
  kInterleaved,
  /// Each mode's bits contiguous, mode 0 most significant: equivalent to a
  /// mode-0-major lexicographic sort. Preserves locality only in mode 0 —
  /// kept as the ablation baseline for the interleaving design choice.
  kModeMajor,
};

/// Bit layout mapping N-mode coordinates to/from a single 64-bit value.
class LinearizedEncoding {
 public:
  /// Builds the layout for the given dimensions. Throws if the combined bit
  /// budget exceeds 64.
  explicit LinearizedEncoding(const std::vector<index_t>& dims,
                              BitOrder order = BitOrder::kInterleaved);

  BitOrder order() const { return order_; }

  int num_modes() const { return static_cast<int>(dims_.size()); }
  const std::vector<index_t>& dims() const { return dims_; }

  /// Total bits used by one linearized coordinate.
  int total_bits() const { return total_bits_; }

  /// Bits assigned to one mode.
  int mode_bits(int mode) const { return bits_[static_cast<std::size_t>(mode)]; }

  /// Bitmask of the positions holding `mode`'s bits.
  lco_t mode_mask(int mode) const { return masks_[static_cast<std::size_t>(mode)]; }

  /// Packs coordinates into a linearized value: each coordinate's bits are
  /// deposited (PDEP) at its mode's mask positions.
  lco_t encode(const index_t* coords) const;

  /// Extracts one mode's coordinate from a linearized value (PEXT of the
  /// mode's mask).
  index_t decode(lco_t lco, int mode) const;

  /// Extracts all coordinates (coords must hold num_modes() entries).
  void decode_all(lco_t lco, index_t* coords) const;

 private:
  std::vector<index_t> dims_;
  BitOrder order_;
  std::vector<int> bits_;
  // Both bit orders give bit b of a mode's coordinate the b-th lowest set
  // position of its mask, so the masks alone define the layout and encode/
  // decode are exactly PDEP/PEXT (formats/bitpack.hpp).
  std::vector<lco_t> masks_;
  int total_bits_ = 0;
};

}  // namespace cstf
