// Tests for CSV trace interchange and user-model persistence.
#include <gtest/gtest.h>

#include <span>
#include <sstream>

#include "core/detector.hpp"
#include "io/csv.hpp"
#include "io/model_file.hpp"
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

}  // namespace
}  // namespace sift::io
