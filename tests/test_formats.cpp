// Unit tests for src/formats: bit packing, linearization, CSF, ALTO, BLCO.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/isa.hpp"
#include "formats/alto.hpp"
#include "formats/bitpack.hpp"
#include "formats/blco.hpp"
#include "formats/csf.hpp"
#include "formats/linearize.hpp"
#include "tensor/generate.hpp"

namespace cstf {
namespace {

SparseTensor random_tensor(std::vector<index_t> dims, index_t nnz,
                           std::uint64_t seed) {
  RandomTensorParams params;
  params.dims = std::move(dims);
  params.target_nnz = nnz;
  params.seed = seed;
  return generate_random(params);
}

// Collects (coords -> value) from a COO tensor for set-equality checks.
std::map<std::vector<index_t>, real_t> as_map(const SparseTensor& t) {
  std::map<std::vector<index_t>, real_t> out;
  for (index_t i = 0; i < t.nnz(); ++i) {
    std::vector<index_t> coords(static_cast<std::size_t>(t.num_modes()));
    for (int m = 0; m < t.num_modes(); ++m) {
      coords[static_cast<std::size_t>(m)] =
          t.indices(m)[static_cast<std::size_t>(i)];
    }
    out[coords] += t.values()[static_cast<std::size_t>(i)];
  }
  return out;
}

TEST(BitPack, BitsForBoundaries) {
  EXPECT_EQ(bits_for(1), 1);
  EXPECT_EQ(bits_for(2), 1);
  EXPECT_EQ(bits_for(3), 2);
  EXPECT_EQ(bits_for(4), 2);
  EXPECT_EQ(bits_for(5), 3);
  EXPECT_EQ(bits_for(1ULL << 32), 32);
  EXPECT_EQ(bits_for((1ULL << 32) + 1), 33);
}

TEST(BitPack, RoundTripNarrowWidth) {
  BitWriter w(5);
  for (std::uint64_t v = 0; v < 32; ++v) w.push(v);
  const auto words = w.take();
  BitReader r(words.data(), 5);
  for (std::uint64_t v = 0; v < 32; ++v) EXPECT_EQ(r.get(v), v);
}

TEST(BitPack, RoundTripAcrossWordBoundaries) {
  // width 13 guarantees codes straddling 64-bit word boundaries.
  BitWriter w(13);
  std::vector<std::uint64_t> values;
  Rng rng(2);
  for (int i = 0; i < 500; ++i) {
    values.push_back(rng.uniform_index(1u << 13));
    w.push(values.back());
  }
  const auto words = w.take();
  BitReader r(words.data(), 13);
  for (std::size_t i = 0; i < values.size(); ++i) EXPECT_EQ(r.get(i), values[i]);
}

TEST(BitPack, RoundTripFullWidth64) {
  BitWriter w(64);
  const std::uint64_t big = ~std::uint64_t{0} - 5;
  w.push(big);
  w.push(0);
  w.push(12345);
  const auto words = w.take();
  BitReader r(words.data(), 64);
  EXPECT_EQ(r.get(0), big);
  EXPECT_EQ(r.get(1), 0u);
  EXPECT_EQ(r.get(2), 12345u);
}

TEST(BitPack, OverwideValueThrows) {
  BitWriter w(3);
  EXPECT_THROW(w.push(8), Error);
}

// PEXT/PDEP by definition: the k-th lowest set bit of `mask` holds bit k of
// the packed value.
std::uint64_t reference_pext(std::uint64_t x, std::uint64_t mask) {
  std::uint64_t out = 0;
  for (int pos = 0, k = 0; pos < 64; ++pos) {
    if ((mask >> pos) & 1u) out |= ((x >> pos) & 1u) << k++;
  }
  return out;
}

std::uint64_t reference_pdep(std::uint64_t x, std::uint64_t mask) {
  std::uint64_t out = 0;
  for (int pos = 0, k = 0; pos < 64; ++pos) {
    if ((mask >> pos) & 1u) out |= ((x >> k++) & 1u) << pos;
  }
  return out;
}

TEST(BitPack, PextPdepMatchTheDefinitionOnBothPaths) {
  Rng rng(17);
  std::vector<std::uint64_t> masks = {0, ~std::uint64_t{0}, 1,
                                      std::uint64_t{1} << 63,
                                      0x5555555555555555ULL,
                                      0xF0F0F0F00000FFFFULL};
  for (int i = 0; i < 200; ++i) {
    masks.push_back(rng() & rng());
  }
  for (const std::uint64_t mask : masks) {
    for (int j = 0; j < 20; ++j) {
      const std::uint64_t x = j == 0 ? ~std::uint64_t{0} : rng();
      const std::uint64_t ext = reference_pext(x, mask);
      const std::uint64_t dep = reference_pdep(x, mask);
      ASSERT_EQ(pext<false>(x, mask), ext) << std::hex << x << " " << mask;
      ASSERT_EQ(pdep<false>(x, mask), dep) << std::hex << x << " " << mask;
      if (cpu_has_bmi2()) {
        ASSERT_EQ(pext<true>(x, mask), ext) << std::hex << x << " " << mask;
        ASSERT_EQ(pdep<true>(x, mask), dep) << std::hex << x << " " << mask;
      }
    }
  }
}

TEST(Linearize, RoundTripsBothOrdersUpTo64Bits) {
  // The 4 x 16-bit layout fills all 64 bits; the others leave gaps and
  // uneven mode widths.
  const std::vector<std::vector<index_t>> shapes = {
      {65536, 65536, 65536, 65536}, {5, 9, 3}, {1 << 20, 7, 300, 2, 1000}};
  Rng rng(23);
  for (const auto& dims : shapes) {
    for (BitOrder order : {BitOrder::kInterleaved, BitOrder::kModeMajor}) {
      const LinearizedEncoding enc(dims, order);
      const int modes = enc.num_modes();
      int bits = 0;
      for (int m = 0; m < modes; ++m) bits += enc.mode_bits(m);
      ASSERT_EQ(enc.total_bits(), bits);
      index_t coords[kMaxModes], back[kMaxModes];
      for (int i = 0; i < 500; ++i) {
        lco_t want = 0;
        for (int m = 0; m < modes; ++m) {
          // The first two draws are the corners 0 and dim - 1.
          const auto dim =
              static_cast<std::uint64_t>(dims[static_cast<std::size_t>(m)]);
          coords[m] = static_cast<index_t>(
              i == 0 ? 0 : i == 1 ? dim - 1 : rng.uniform_index(dim));
          want |= reference_pdep(static_cast<lco_t>(coords[m]),
                                 enc.mode_mask(m));
        }
        const lco_t lco = enc.encode(coords);
        ASSERT_EQ(lco, want);
        enc.decode_all(lco, back);
        for (int m = 0; m < modes; ++m) {
          ASSERT_EQ(back[m], coords[m]) << "mode " << m;
          ASSERT_EQ(enc.decode(lco, m), coords[m]) << "mode " << m;
        }
      }
    }
  }
}

TEST(Linearize, RoundTripsEveryCoordinate) {
  LinearizedEncoding enc({5, 9, 3});
  index_t coords[3], back[3];
  std::set<lco_t> seen;
  for (coords[0] = 0; coords[0] < 5; ++coords[0]) {
    for (coords[1] = 0; coords[1] < 9; ++coords[1]) {
      for (coords[2] = 0; coords[2] < 3; ++coords[2]) {
        const lco_t lco = enc.encode(coords);
        EXPECT_TRUE(seen.insert(lco).second) << "lco collision";
        enc.decode_all(lco, back);
        EXPECT_EQ(back[0], coords[0]);
        EXPECT_EQ(back[1], coords[1]);
        EXPECT_EQ(back[2], coords[2]);
      }
    }
  }
}

TEST(Linearize, BitBudgetMatchesDims) {
  LinearizedEncoding enc({1024, 17, 2});
  EXPECT_EQ(enc.mode_bits(0), 10);
  EXPECT_EQ(enc.mode_bits(1), 5);
  EXPECT_EQ(enc.mode_bits(2), 1);
  EXPECT_EQ(enc.total_bits(), 16);
  // Masks are disjoint and cover total_bits positions.
  lco_t all = 0;
  for (int m = 0; m < 3; ++m) {
    EXPECT_EQ(all & enc.mode_mask(m), 0u);
    all |= enc.mode_mask(m);
  }
  EXPECT_EQ(__builtin_popcountll(all), 16);
}

TEST(Linearize, OverflowingBitBudgetThrows) {
  // 4 modes x 17 bits = 68 bits > 64.
  EXPECT_THROW(LinearizedEncoding({100000, 100000, 100000, 100000}),
               Error);
}

TEST(Linearize, InterleavingPreservesLocality) {
  // Adjacent coordinates in any single mode must differ only in that mode's
  // mask bits.
  LinearizedEncoding enc({64, 64});
  index_t a[2] = {10, 20};
  index_t b[2] = {11, 20};
  EXPECT_EQ((enc.encode(a) ^ enc.encode(b)) & ~enc.mode_mask(0), 0u);
}

TEST(Linearize, ModeMajorRoundTripsEveryCoordinate) {
  LinearizedEncoding enc({5, 9, 3}, BitOrder::kModeMajor);
  index_t coords[3], back[3];
  for (coords[0] = 0; coords[0] < 5; ++coords[0]) {
    for (coords[1] = 0; coords[1] < 9; ++coords[1]) {
      for (coords[2] = 0; coords[2] < 3; ++coords[2]) {
        enc.decode_all(enc.encode(coords), back);
        EXPECT_EQ(back[0], coords[0]);
        EXPECT_EQ(back[1], coords[1]);
        EXPECT_EQ(back[2], coords[2]);
      }
    }
  }
}

TEST(Linearize, ModeMajorOrderMatchesLexicographic) {
  // Mode-major linearized values sort exactly like mode-0-first
  // lexicographic coordinates.
  LinearizedEncoding enc({4, 4, 4}, BitOrder::kModeMajor);
  index_t a[3] = {1, 3, 3};
  index_t b[3] = {2, 0, 0};
  EXPECT_LT(enc.encode(a), enc.encode(b));
  index_t c[3] = {1, 2, 3};
  index_t d[3] = {1, 3, 0};
  EXPECT_LT(enc.encode(c), enc.encode(d));
}

TEST(Blco, BothBitOrdersReconstructIdentically) {
  SparseTensor t = random_tensor({50, 40, 30}, 2000, 12);
  for (BitOrder order : {BitOrder::kInterleaved, BitOrder::kModeMajor}) {
    const BlcoTensor blco(t, 256, order);
    EXPECT_EQ(blco.nnz(), t.nnz());
    auto want = as_map(t);
    index_t coords[kMaxModes];
    for (index_t b = 0; b < blco.num_blocks(); ++b) {
      const BlcoBlock& blk = blco.block(b);
      for (index_t i = 0; i < blk.count; ++i) {
        blco.encoding().decode_all(blco.element_lco(blk, i), coords);
        std::vector<index_t> key(coords, coords + 3);
        ASSERT_TRUE(want.count(key));
      }
    }
  }
}

TEST(Csf, BuildsCorrectTreeForKnownTensor) {
  SparseTensor t({3, 2, 2});
  t.append({0, 0, 0}, 1.0);
  t.append({0, 1, 0}, 2.0);
  t.append({0, 1, 1}, 3.0);
  t.append({2, 0, 1}, 4.0);
  CsfTensor csf(t, /*root_mode=*/0);
  EXPECT_EQ(csf.num_modes(), 3);
  EXPECT_EQ(csf.nnz(), 4);
  // Two distinct root indices: 0 and 2.
  ASSERT_EQ(csf.num_nodes(0), 2);
  EXPECT_EQ(csf.fids(0)[0], 0);
  EXPECT_EQ(csf.fids(0)[1], 2);
  // Root 0 has mid-level children {0,1}; root 2 has {0}.
  ASSERT_EQ(csf.num_nodes(1), 3);
  EXPECT_EQ(csf.fptr(0)[0], 0);
  EXPECT_EQ(csf.fptr(0)[1], 2);
  EXPECT_EQ(csf.fptr(0)[2], 3);
  // Leaf level holds all 4 entries.
  ASSERT_EQ(csf.num_nodes(2), 4);
  EXPECT_EQ(csf.fptr(1).back(), 4);
}

TEST(Csf, RootModeSelectionReordersModes) {
  SparseTensor t = random_tensor({10, 20, 5}, 200, 3);
  CsfTensor csf(t, /*root_mode=*/2);
  EXPECT_EQ(csf.root_mode(), 2);
  EXPECT_EQ(csf.mode_order()[0], 2);
  EXPECT_EQ(csf.mode_order()[1], 0);
  EXPECT_EQ(csf.mode_order()[2], 1);
  // Root fids must be strictly increasing (distinct, sorted).
  const auto& roots = csf.fids(0);
  for (std::size_t i = 1; i < roots.size(); ++i) {
    EXPECT_LT(roots[i - 1], roots[i]);
  }
}

TEST(Csf, ChildRangesPartitionEachLevel) {
  SparseTensor t = random_tensor({30, 40, 20, 10}, 1000, 4);
  CsfTensor csf(t, 1);
  for (int l = 0; l < csf.num_modes() - 1; ++l) {
    const auto& fptr = csf.fptr(l);
    ASSERT_EQ(static_cast<index_t>(fptr.size()), csf.num_nodes(l) + 1);
    EXPECT_EQ(fptr.front(), 0);
    EXPECT_EQ(fptr.back(), csf.num_nodes(l + 1));
    for (std::size_t i = 1; i < fptr.size(); ++i) {
      EXPECT_LT(fptr[i - 1], fptr[i]);  // every node has >= 1 child
    }
  }
}

TEST(Csf, StorageSmallerThanCooForClusteredTensors) {
  // Heavy skew -> long fibers -> CSF compresses the upper levels.
  RandomTensorParams params;
  params.dims = {100, 100, 100};
  params.target_nnz = 20000;
  params.mode_dist = {{1.5}, {1.5}, {1.5}};
  params.seed = 5;
  SparseTensor t = generate_random(params);
  CsfTensor csf(t, 0);
  const double coo_bytes =
      static_cast<double>(t.nnz()) * (3 * sizeof(index_t) + sizeof(real_t));
  EXPECT_LT(csf.storage_bytes(), coo_bytes);
}

TEST(Alto, PreservesAllNonzeros) {
  SparseTensor t = random_tensor({50, 30, 20}, 2000, 6);
  AltoTensor alto(t);
  EXPECT_EQ(alto.nnz(), t.nnz());  // generator already merged duplicates
  EXPECT_EQ(as_map(t).size(), static_cast<std::size_t>(alto.nnz()));
  // Decode every element and compare against the COO content.
  auto want = as_map(t);
  index_t coords[kMaxModes];
  for (index_t i = 0; i < alto.nnz(); ++i) {
    alto.encoding().decode_all(alto.linearized()[static_cast<std::size_t>(i)],
                               coords);
    std::vector<index_t> key(coords, coords + 3);
    ASSERT_TRUE(want.count(key));
    EXPECT_DOUBLE_EQ(want[key], alto.values()[static_cast<std::size_t>(i)]);
  }
}

TEST(Alto, LinearizedStreamIsSorted) {
  SparseTensor t = random_tensor({64, 64, 64}, 3000, 7);
  AltoTensor alto(t);
  const auto& lcos = alto.linearized();
  for (std::size_t i = 1; i < lcos.size(); ++i) {
    EXPECT_LT(lcos[i - 1], lcos[i]);  // strictly: duplicates were merged
  }
}

TEST(Alto, MergesDuplicateCoordinates) {
  SparseTensor t({4, 4});
  t.append({1, 2}, 1.0);
  t.append({1, 2}, 2.0);
  t.append({0, 0}, 5.0);
  AltoTensor alto(t);
  EXPECT_EQ(alto.nnz(), 2);
  EXPECT_DOUBLE_EQ(alto.values()[0], 5.0);  // (0,0) linearizes lowest
  EXPECT_DOUBLE_EQ(alto.values()[1], 3.0);
}

TEST(Blco, ReconstructsEveryElement) {
  SparseTensor t = random_tensor({40, 60, 25}, 3000, 8);
  BlcoTensor blco(t, /*block_capacity=*/256);
  auto want = as_map(t);
  index_t coords[kMaxModes];
  index_t seen = 0;
  for (index_t b = 0; b < blco.num_blocks(); ++b) {
    const BlcoBlock& blk = blco.block(b);
    for (index_t i = 0; i < blk.count; ++i) {
      blco.encoding().decode_all(blco.element_lco(blk, i), coords);
      std::vector<index_t> key(coords, coords + 3);
      ASSERT_TRUE(want.count(key));
      EXPECT_DOUBLE_EQ(
          want[key],
          blco.values()[static_cast<std::size_t>(blk.value_offset + i)]);
      ++seen;
    }
  }
  EXPECT_EQ(seen, blco.nnz());
  EXPECT_EQ(blco.nnz(), t.nnz());
}

TEST(Blco, BlockCapacityIsRespected) {
  SparseTensor t = random_tensor({100, 100}, 5000, 9);
  BlcoTensor blco(t, 128);
  EXPECT_EQ(blco.num_blocks(), (blco.nnz() + 127) / 128);
  for (index_t b = 0; b < blco.num_blocks(); ++b) {
    EXPECT_LE(blco.block(b).count, 128);
    EXPECT_GT(blco.block(b).count, 0);
  }
}

TEST(Blco, DeltaCompressionShrinksStorage) {
  SparseTensor t = random_tensor({256, 256, 256}, 30000, 10);
  BlcoTensor blco(t, 4096);
  const double coo_index_bytes =
      static_cast<double>(t.nnz()) * 3 * sizeof(index_t);
  const double value_bytes = static_cast<double>(t.nnz()) * sizeof(real_t);
  // Delta-packed indices must be much smaller than 3x8-byte COO indices.
  EXPECT_LT(blco.storage_bytes() - value_bytes, 0.5 * coo_index_bytes);
}

TEST(Blco, SingleBlockDegenerateCase) {
  SparseTensor t({8, 8});
  t.append({0, 0}, 1.0);
  t.append({7, 7}, 2.0);
  BlcoTensor blco(t, 4096);
  EXPECT_EQ(blco.num_blocks(), 1);
  EXPECT_EQ(blco.block(0).count, 2);
}

TEST(Blco, VastLikeTwoLengthModeSurvives) {
  // Mirrors the Vast tensor's mode of length 2.
  SparseTensor t = random_tensor({500, 100, 2}, 2000, 11);
  BlcoTensor blco(t, 512);
  index_t coords[kMaxModes];
  for (index_t b = 0; b < blco.num_blocks(); ++b) {
    const BlcoBlock& blk = blco.block(b);
    for (index_t i = 0; i < blk.count; ++i) {
      blco.encoding().decode_all(blco.element_lco(blk, i), coords);
      ASSERT_GE(coords[2], 0);
      ASSERT_LT(coords[2], 2);
    }
  }
}

}  // namespace
}  // namespace cstf
