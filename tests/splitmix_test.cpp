// Known-answer tests for core/splitmix.hpp. The chaos and kill matrices
// compare runs within one build, so a drifted constant or a reordered key
// would re-roll every fault schedule and re-shard every session without
// failing them. These values pin the mixer, the shard placement and the
// first 64 decisions of each coin shape the tree uses.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "core/splitmix.hpp"
#include "fleet/model_registry.hpp"
#include "fleet/session_table.hpp"

namespace sift::core {
namespace {

// Bit i is the decision for position i at probability 0.5.
template <typename Coin>
std::uint64_t first_64(Coin coin_at) {
  std::uint64_t bits = 0;
  for (std::uint64_t i = 0; i < 64; ++i) {
    if (coin_at(i)) bits |= std::uint64_t{1} << i;
  }
  return bits;
}

TEST(SplitmixKat, Splitmix64MatchesReference) {
  EXPECT_EQ(splitmix64(0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(splitmix64(1), 0x910a2dec89025cc1ULL);
  EXPECT_EQ(splitmix64(42), 0xbdd732262feb6e95ULL);
  EXPECT_EQ(splitmix64(0xdeadbeef), 0x4adfb90f68c9eb9bULL);
  EXPECT_EQ(splitmix64(~std::uint64_t{0}), 0xe4d971771b652c20ULL);
  EXPECT_EQ(mix64(0), 0u) << "the finaliser has no additive step";
}

TEST(SplitmixKat, ShardPlacementIsPinned) {
  fleet::ModelRegistry registry(
      [](int) { return std::make_shared<const UserModel>(); }, 4);
  fleet::SessionTable table(16, registry, wiot::BaseStation::Config{});
  EXPECT_EQ(table.shard_of(0), 0u);
  EXPECT_EQ(table.shard_of(1), 5u);
  EXPECT_EQ(table.shard_of(7), 4u);
  EXPECT_EQ(table.shard_of(1000), 7u);
  EXPECT_EQ(table.shard_of(-1), 12u);
}

TEST(SplitmixKat, FaultCoinsArePinned) {
  constexpr std::uint64_t kSeed = 42;
  // Fleet injector: (seed, user, seq, kind).
  EXPECT_EQ(first_64([](std::uint64_t seq) {
              return coin(0.5, kSeed, 7, seq, 1);
            }),
            0x111d0a322fc12903ULL);
  // Wire shim: (seed, conn, byte offset, kind).
  EXPECT_EQ(first_64([](std::uint64_t i) {
              return coin(0.5, kSeed, 3, i * 1000, 5);
            }),
            0xa2ac9cee4c00922bULL);
  // Stream attack: (seed, packet index, kind).
  EXPECT_EQ(first_64([](std::uint64_t index) {
              return coin(0.5, kSeed, index, 1);
            }),
            0x28b66e3e71c4063eULL);
}

TEST(SplitmixKat, CoinEdgeProbabilities) {
  for (std::uint64_t i = 0; i < 256; ++i) {
    EXPECT_FALSE(coin(0.0, 1, i, 1));
    EXPECT_FALSE(coin(-1.0, 1, i, 1));
    EXPECT_TRUE(coin(1.0, 1, i, 1)) << "uniform01 < 1 always holds";
  }
}

}  // namespace
}  // namespace sift::core
