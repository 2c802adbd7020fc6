// Tests for CSV trace interchange, user-model persistence, the frame
// checksum and the binary state codec.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "io/csv.hpp"
#include "io/framed.hpp"
#include "io/model_file.hpp"
#include "io/state.hpp"
#include "net/wire.hpp"
#include "physio/user_profile.hpp"

namespace sift::io {
namespace {

class IoTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const auto cohort = physio::synthetic_cohort(3, 606);
    records_ = new std::vector(physio::generate_cohort_records(cohort, 30.0));
    core::SiftConfig config;
    model_ = new core::UserModel(core::train_user_model(
        (*records_)[0], std::span(*records_).subspan(1), config));
  }
  static void TearDownTestSuite() {
    delete records_;
    delete model_;
    records_ = nullptr;
    model_ = nullptr;
  }
  static std::vector<physio::Record>* records_;
  static core::UserModel* model_;
};

std::vector<physio::Record>* IoTest::records_ = nullptr;
core::UserModel* IoTest::model_ = nullptr;

// --- CSV ------------------------------------------------------------------------

TEST_F(IoTest, CsvRoundTripPreservesEverything) {
  const physio::Record& original = (*records_)[0];
  std::stringstream ss;
  write_record_csv(ss, original);
  const physio::Record restored = read_record_csv(ss);

  EXPECT_DOUBLE_EQ(restored.ecg.sample_rate_hz(),
                   original.ecg.sample_rate_hz());
  ASSERT_EQ(restored.ecg.size(), original.ecg.size());
  for (std::size_t i = 0; i < original.ecg.size(); ++i) {
    EXPECT_NEAR(restored.ecg[i], original.ecg[i], 1e-9);
    EXPECT_NEAR(restored.abp[i], original.abp[i], 1e-6);
  }
  EXPECT_EQ(restored.r_peaks, original.r_peaks);
  EXPECT_EQ(restored.systolic_peaks, original.systolic_peaks);
}

TEST_F(IoTest, CsvRejectsMalformedInput) {
  // Missing rate header.
  {
    std::stringstream ss("sample,ecg,abp,r_peak,systolic_peak\n0,1,2,0,0\n");
    EXPECT_THROW(read_record_csv(ss), std::runtime_error);
  }
  // Bad column header.
  {
    std::stringstream ss("# sample_rate_hz=360\nsample,ecg\n");
    EXPECT_THROW(read_record_csv(ss), std::runtime_error);
  }
  // Wrong column count.
  {
    std::stringstream ss(
        "# sample_rate_hz=360\nsample,ecg,abp,r_peak,systolic_peak\n0,1,2\n");
    EXPECT_THROW(read_record_csv(ss), std::runtime_error);
  }
  // Non-numeric cell.
  {
    std::stringstream ss(
        "# sample_rate_hz=360\nsample,ecg,abp,r_peak,systolic_peak\n"
        "0,x,2,0,0\n");
    EXPECT_THROW(read_record_csv(ss), std::runtime_error);
  }
  // Skipped index.
  {
    std::stringstream ss(
        "# sample_rate_hz=360\nsample,ecg,abp,r_peak,systolic_peak\n"
        "0,1,2,0,0\n2,1,2,0,0\n");
    EXPECT_THROW(read_record_csv(ss), std::runtime_error);
  }
  // Zero rate.
  {
    std::stringstream ss(
        "# sample_rate_hz=0\nsample,ecg,abp,r_peak,systolic_peak\n");
    EXPECT_THROW(read_record_csv(ss), std::runtime_error);
  }
}

TEST_F(IoTest, CsvRejectsNonFiniteCells) {
  // std::stod happily parses "nan" and "inf"; the importer must not let
  // either poison a Record.
  for (const char* bad : {"nan", "inf", "-inf", "NAN", "Infinity"}) {
    std::stringstream ss(std::string("# sample_rate_hz=360\n"
                                     "sample,ecg,abp,r_peak,systolic_peak\n"
                                     "0,") +
                         bad + ",2,0,0\n");
    EXPECT_THROW(read_record_csv(ss), CsvError) << bad;
  }
  // Also in the ABP column and the rate header.
  {
    std::stringstream ss(
        "# sample_rate_hz=360\nsample,ecg,abp,r_peak,systolic_peak\n"
        "0,1,inf,0,0\n");
    EXPECT_THROW(read_record_csv(ss), CsvError);
  }
  {
    std::stringstream ss(
        "# sample_rate_hz=nan\nsample,ecg,abp,r_peak,systolic_peak\n");
    EXPECT_THROW(read_record_csv(ss), CsvError);
  }
}

TEST_F(IoTest, CsvErrorCarriesLineAndReason) {
  // A truncated row (ragged write, e.g. power loss mid-dump) reports the
  // exact line so the operator can find it.
  std::stringstream ss(
      "# sample_rate_hz=360\nsample,ecg,abp,r_peak,systolic_peak\n"
      "0,1,2,0,0\n1,3,4\n");
  try {
    read_record_csv(ss);
    FAIL() << "truncated row must throw";
  } catch (const CsvError& e) {
    EXPECT_EQ(e.line(), 4u);
    EXPECT_NE(e.reason().find("5 columns"), std::string::npos) << e.reason();
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos)
        << e.what();
  }
}

TEST_F(IoTest, CsvFileRoundTrip) {
  const std::string path = "io_test_trace.csv";
  save_record_csv(path, (*records_)[1]);
  const physio::Record restored = load_record_csv(path);
  EXPECT_EQ(restored.r_peaks, (*records_)[1].r_peaks);
  EXPECT_THROW(load_record_csv("definitely/not/here.csv"),
               std::runtime_error);
}

// --- user model file --------------------------------------------------------------

TEST_F(IoTest, UserModelRoundTripPredictsIdentically) {
  std::stringstream ss;
  write_user_model(ss, *model_);
  const core::UserModel restored = read_user_model(ss);

  EXPECT_EQ(restored.user_id, model_->user_id);
  EXPECT_EQ(restored.config.version, model_->config.version);
  EXPECT_EQ(restored.config.arithmetic, model_->config.arithmetic);
  EXPECT_DOUBLE_EQ(restored.config.window_s, model_->config.window_s);
  EXPECT_EQ(restored.config.grid_n, model_->config.grid_n);
  EXPECT_EQ(restored.svm.w, model_->svm.w);

  const core::Detector a(*model_);
  const core::Detector b(restored);
  const auto va = a.classify_record((*records_)[0]);
  const auto vb = b.classify_record((*records_)[0]);
  ASSERT_EQ(va.size(), vb.size());
  for (std::size_t i = 0; i < va.size(); ++i) {
    EXPECT_EQ(va[i].altered, vb[i].altered);
    EXPECT_DOUBLE_EQ(va[i].decision_value, vb[i].decision_value);
  }
}

TEST_F(IoTest, UserModelAllEnumValuesRoundTrip) {
  for (auto version : {core::DetectorVersion::kOriginal,
                       core::DetectorVersion::kSimplified,
                       core::DetectorVersion::kReduced}) {
    for (auto arith : {core::Arithmetic::kDouble, core::Arithmetic::kFloat32,
                       core::Arithmetic::kFixedQ16}) {
      core::SiftConfig config;
      config.version = version;
      config.arithmetic = arith;
      const auto model = core::train_user_model(
          (*records_)[0], std::span(*records_).subspan(1), config);
      std::stringstream ss;
      write_user_model(ss, model);
      const auto restored = read_user_model(ss);
      EXPECT_EQ(restored.config.version, version);
      EXPECT_EQ(restored.config.arithmetic, arith);
    }
  }
}

TEST_F(IoTest, UserModelFileRoundTrip) {
  const std::string path = "io_test_model.txt";
  save_user_model(path, *model_);
  const core::UserModel restored = load_user_model(path);
  EXPECT_EQ(restored.svm.w, model_->svm.w);
  EXPECT_THROW(load_user_model("no/such/model.txt"), std::runtime_error);
  EXPECT_THROW(save_user_model("no/such/dir/model.txt", *model_),
               std::runtime_error);
}

TEST_F(IoTest, UserModelRejectsCorruption) {
  std::stringstream ss;
  write_user_model(ss, *model_);
  const std::string good = ss.str();

  EXPECT_THROW(read_user_model(*std::make_unique<std::stringstream>("")),
               std::runtime_error);
  {
    std::stringstream bad("wrong-magic v1\n");
    EXPECT_THROW(read_user_model(bad), std::runtime_error);
  }
  {
    std::string text = good;
    text.replace(text.find("version Original"), 16, "version Quantum!");
    std::stringstream bad(text);
    EXPECT_THROW(read_user_model(bad), std::runtime_error);
  }
  {
    // Version/weight-count mismatch: claim Reduced (5 features) with an
    // 8-weight body.
    std::string text = good;
    text.replace(text.find("version Original"), 16, "version Reduced ");
    std::stringstream bad(text);
    EXPECT_THROW(read_user_model(bad), std::runtime_error);
  }
}

TEST_F(IoTest, UserModelV2CarriesIntegrityHeader) {
  std::stringstream ss;
  write_user_model(ss, *model_);
  const std::string text = ss.str();
  EXPECT_EQ(text.rfind("sift-user-model v2\n", 0), 0u);
  EXPECT_NE(text.find("\ncrc32 "), std::string::npos);
}

TEST_F(IoTest, UserModelCrcCatchesBitFlips) {
  std::stringstream ss;
  write_user_model(ss, *model_);
  const std::string good = ss.str();
  const std::size_t payload = good.find('\n', good.find("crc32 ")) + 1;

  // Flip a byte deep in the weight block — without the checksum this would
  // load as a subtly different model.
  std::string text = good;
  const std::size_t pos = payload + (good.size() - payload) * 3 / 4;
  text[pos] = static_cast<char>(text[pos] ^ 0x04);
  std::stringstream bad(text);
  try {
    (void)read_user_model(bad);
    FAIL() << "corrupted payload loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("crc32"), std::string::npos);
  }
}

TEST_F(IoTest, UserModelCrcCatchesTruncation) {
  std::stringstream ss;
  write_user_model(ss, *model_);
  const std::string good = ss.str();
  for (const double fraction : {0.25, 0.5, 0.9, 0.99}) {
    std::stringstream bad(
        good.substr(0, static_cast<std::size_t>(good.size() * fraction)));
    EXPECT_THROW(read_user_model(bad), std::runtime_error) << fraction;
  }
}

TEST_F(IoTest, UserModelV1FilesAreRejected) {
  // Unchecksummed v1 artefacts are no longer read: swapping the v2 framing
  // for the v1 magic must fail on the magic line, not load the body.
  std::stringstream ss;
  write_user_model(ss, *model_);
  const std::string v2 = ss.str();
  const std::size_t payload = v2.find('\n', v2.find("crc32 ")) + 1;
  std::stringstream v1("sift-user-model v1\n" + v2.substr(payload));
  try {
    (void)read_user_model(v1);
    FAIL() << "v1 model loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos)
        << e.what();
  }
}

TEST_F(IoTest, UserModelRejectsHostileCrcHeaders) {
  // The header is outside input: a non-hex crc, a size past the end of the
  // stream or one that overflows must fail typed, before any allocation
  // sized by it.
  for (const char* header : {"crc32 zzzzzzzz 10",
                             "crc32 00000000 18446744073709551615",
                             "crc32 00000000 4000000000",
                             "crc32 0x000000 10", "crc32 00000000 -1",
                             "crc32 00000000 99999999999999999999"}) {
    std::stringstream bad(std::string("sift-user-model v2\n") + header +
                          "\nuser_id 1\n");
    EXPECT_THROW((void)read_user_model(bad), std::runtime_error) << header;
  }
}

// --- Frame checksum ------------------------------------------------------------

/// One byte of the textbook bit-at-a-time CRC-32 (no tables) on the
/// pre-inverted register: the reference both library paths must match.
std::uint32_t bytewise_step(std::uint32_t c, std::uint8_t b) {
  c ^= b;
  for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  return c;
}

std::vector<std::uint8_t> pseudo_random_bytes(std::size_t n) {
  std::vector<std::uint8_t> out(n);
  std::uint32_t x = 0x9E3779B9u;
  for (auto& b : out) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  return out;
}

std::string hex(std::span<const std::uint8_t> bytes) {
  std::string out;
  char buf[3];
  for (const std::uint8_t b : bytes) {
    std::snprintf(buf, sizeof buf, "%02x", b);
    out += buf;
  }
  return out;
}

using Crc32Fn = std::uint32_t (*)(std::span<const std::uint8_t>,
                                  std::uint32_t) noexcept;

/// Every length 0..4096 at offsets 0..15, unseeded and seeded: the fold's
/// 64-byte entry, its 16-byte steps and every tail length, at every
/// alignment. The reference register advances one byte per length.
void expect_matches_bytewise_reference(Crc32Fn crc) {
  constexpr std::size_t kMaxLen = 4096;
  constexpr std::uint32_t kSeed = 0xDEADBEEFu;
  const auto bytes = pseudo_random_bytes(kMaxLen + 16);
  const std::span<const std::uint8_t> all(bytes);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    std::uint32_t plain = 0xFFFFFFFFu;
    std::uint32_t seeded = kSeed ^ 0xFFFFFFFFu;
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      if (len > 0) {
        plain = bytewise_step(plain, all[offset + len - 1]);
        seeded = bytewise_step(seeded, all[offset + len - 1]);
      }
      const auto slice = all.subspan(offset, len);
      ASSERT_EQ(crc(slice, 0), plain ^ 0xFFFFFFFFu)
          << "offset " << offset << " len " << len;
      ASSERT_EQ(crc(slice, kSeed), seeded ^ 0xFFFFFFFFu)
          << "seeded, offset " << offset << " len " << len;
    }
  }
}

/// A packet-sized input chained through the seed at every split point,
/// so pieces start and end on either side of the 16- and 64-byte edges.
void expect_seed_chains_at_every_split(Crc32Fn crc) {
  const auto bytes = pseudo_random_bytes(1468);
  const std::span<const std::uint8_t> all(bytes);
  const std::uint32_t whole = crc(all, 0);
  for (std::size_t split = 0; split <= all.size(); ++split) {
    ASSERT_EQ(crc(all.subspan(split), crc(all.first(split), 0)), whole)
        << "split " << split;
  }
}

TEST(FramedCrcTest, KnownAnswers) {
  const std::string check = "123456789";
  const std::span<const std::uint8_t> bytes(
      reinterpret_cast<const std::uint8_t*>(check.data()), check.size());
  EXPECT_EQ(crc32(bytes), 0xCBF43926u);
  EXPECT_EQ(detail::crc32_sliced(bytes), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(FramedCrcTest, SeedChainsAtEverySplitPoint) {
  expect_seed_chains_at_every_split(detail::crc32_sliced);
}

TEST(FramedCrcTest, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  expect_matches_bytewise_reference(detail::crc32_sliced);
}

TEST(FramedCrcTest, FoldedPathMatchesBytewiseReferenceAndChains) {
  if (!detail::crc32_fold_supported()) {
    GTEST_SKIP() << "no PCLMULQDQ on this host: crc32 runs the sliced path";
  }
  expect_matches_bytewise_reference(detail::crc32_folded);
  expect_seed_chains_at_every_split(detail::crc32_folded);
  // The public entry point is the folded path on this host.
  expect_seed_chains_at_every_split(crc32);
}

TEST(FramedCrcTest, WirePacketFrameBytesArePinned) {
  // One PACKET frame as the wire encoder emits it: header, CRC and body.
  // Any change to the checksum, the frame layout or the sample encoding
  // breaks this string — and with it every journal, checkpoint and peer.
  wiot::Packet packet;
  packet.kind = wiot::ChannelKind::kAbp;
  packet.seq = 7;
  packet.sample_rate_hz = 360.0;
  for (int i = 0; i < 13; ++i) packet.samples.push_back(i * 0.25 - 1.5);
  packet.peaks = {1, 5, 11};
  net::wire::Encoder encoder;
  std::vector<std::uint8_t> frame;
  encoder.packet(frame, 42, packet);
  EXPECT_EQ(hex(frame),
            "8e000000d2aa33ac022a000000010700000000000000008076400d0000000000"
            "00000000f8bf000000000000f4bf000000000000f0bf000000000000e8bf0000"
            "00000000e0bf000000000000d0bf0000000000000000000000000000d03f0000"
            "00000000e03f000000000000e83f000000000000f03f000000000000f43f0000"
            "00000000f83f0300000001000000050000000b000000");
}

// --- State codec ----------------------------------------------------------------

std::vector<double> awkward_doubles() {
  constexpr double inf = std::numeric_limits<double>::infinity();
  return {0.0,
          -0.0,
          1.5,
          -2.25e300,
          std::numeric_limits<double>::denorm_min(),
          -std::numeric_limits<double>::denorm_min() * 12345.0,
          inf,
          -inf,
          std::bit_cast<double>(std::uint64_t{0x7FF8000000000001}),  // qNaN
          std::bit_cast<double>(std::uint64_t{0xFFF4000000C0FFEE}),  // sNaN
          std::bit_cast<double>(std::uint64_t{0x7FFFFFFFFFFFFFFF})};
}

TEST(StateCodecTest, BulkWriteMatchesPerFieldWrites) {
  const auto values = awkward_doubles();
  std::vector<std::uint8_t> bulk{0xAB}, per_field{0xAB};
  StateWriter(bulk).f64s(values);
  StateWriter w(per_field);
  for (const double v : values) w.f64(v);
  EXPECT_EQ(bulk, per_field);
}

TEST(StateCodecTest, BulkReadRoundTripsEveryBitPattern) {
  const auto values = awkward_doubles();
  std::vector<std::uint8_t> bytes;
  StateWriter w(bytes);
  w.u8(0x5A);  // an odd lead so the doubles sit unaligned in the buffer
  w.f64s(values);
  StateReader r(bytes);
  EXPECT_EQ(r.u8(), 0x5A);
  std::vector<double> back(values.size());
  r.f64s(back);
  EXPECT_TRUE(r.exhausted());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back[i]),
              std::bit_cast<std::uint64_t>(values[i]))
        << "element " << i;
  }
}

TEST(StateCodecTest, EmptySpanIsANoOp) {
  std::vector<std::uint8_t> bytes{1, 2, 3};
  StateWriter(bytes).f64s({});
  EXPECT_EQ(bytes.size(), 3u);
  StateReader r(bytes);
  r.f64s({});
  EXPECT_EQ(r.remaining(), 3u);
}

TEST(StateCodecTest, ShortBulkReadThrowsBeforeWriting) {
  std::vector<std::uint8_t> bytes;
  StateWriter(bytes).f64s(std::vector<double>{1.0, 2.0, 3.0});
  bytes.pop_back();
  StateReader r(bytes);
  std::vector<double> out(3, -7.0);
  EXPECT_THROW(r.f64s(out), std::runtime_error);
  EXPECT_EQ(out, std::vector<double>(3, -7.0));
  EXPECT_EQ(r.remaining(), bytes.size());
}

TEST(StateCodecTest, ShortSampleBodySurfacesAsWireError) {
  wiot::Packet packet;
  packet.samples = {1.0, 2.0, 3.0};
  net::wire::Encoder encoder;
  std::vector<std::uint8_t> frame;
  encoder.packet(frame, 9, packet);
  FrameReader reader(frame);
  const auto payload = reader.next();
  ASSERT_TRUE(payload.has_value());
  wiot::Packet decoded;
  ASSERT_EQ(net::wire::decode_packet(*payload, decoded), 9);
  // Cut the body inside the last sample (the 4-byte peak count and 7 of
  // the sample's 8 bytes).
  const auto cut = payload->first(payload->size() - 11);
  EXPECT_THROW(net::wire::decode_packet(cut, decoded), net::wire::Error);
}

}  // namespace
}  // namespace sift::io
