// Tests for the Amulet Firmware Toolchain model: the Amulet-C static
// checker and the app code generator. The heavyweight test compiles the
// generated C with the system compiler, loads it with dlopen, and diffs
// its verdicts against the host detector window by window.
#include <gtest/gtest.h>

#include <dlfcn.h>

#include <cstdlib>
#include <fstream>
#include <span>

#include "amulet/amulet_c_check.hpp"
#include "amulet/app_codegen.hpp"
#include "core/detector.hpp"
#include "core/trainer.hpp"
#include "core/windows.hpp"
#include "physio/dataset.hpp"

namespace sift::amulet {
namespace {

using core::DetectorVersion;

bool has_rule(const std::vector<AmuletCViolation>& vs, AmuletCRule rule) {
  for (const auto& v : vs) {
    if (v.rule == rule) return true;
  }
  return false;
}

// --- checker -------------------------------------------------------------------

TEST(AmuletCCheck, CleanAmuletStyleCodePasses) {
  const char* src = R"(
    static double buffer[128];
    static double scale(double x) { return x * 2.0 + 1.0; }
    int process(const double in[128], int n)
    {
      int i;
      double acc = 0.0;
      for (i = 0; i < n; i = i + 1) {
        buffer[i] = scale(in[i]);
        acc = acc + buffer[i];
      }
      return acc >= 0.0 ? 1 : 0;
    }
  )";
  EXPECT_TRUE(check_amulet_c(src).empty());
}

TEST(AmuletCCheck, FlagsGoto) {
  const auto vs = check_amulet_c("void f(void) { goto out; out: ; }");
  EXPECT_TRUE(has_rule(vs, AmuletCRule::kNoGoto));
}

TEST(AmuletCCheck, FlagsPointerDeclarationsAndDereference) {
  EXPECT_TRUE(has_rule(check_amulet_c("int f(char *p);"),
                       AmuletCRule::kNoPointers));
  EXPECT_TRUE(has_rule(check_amulet_c("void f(void) { x = *p; }"),
                       AmuletCRule::kNoPointers));
  EXPECT_TRUE(has_rule(check_amulet_c("void f(void) { g(&x); }"),
                       AmuletCRule::kNoPointers));
  EXPECT_TRUE(has_rule(check_amulet_c("void f(void) { s->field = 1; }"),
                       AmuletCRule::kNoPointers));
}

TEST(AmuletCCheck, AllowsArraySyntaxAndMultiplication) {
  // "arrays can be passed to functions explicitly by reference (not as
  // pointers)" — array parameters must not be flagged, nor must a*b.
  const char* src = R"(
    double f(const double xs[16], int n)
    {
      double y = xs[0] * xs[1];
      return y && n ? y : 0.0;
    }
  )";
  EXPECT_TRUE(check_amulet_c(src).empty());
}

TEST(AmuletCCheck, FlagsRecursion) {
  const char* src = R"(
    int fact(int n) { return n <= 1 ? 1 : n * fact(n - 1); }
  )";
  EXPECT_TRUE(has_rule(check_amulet_c(src), AmuletCRule::kNoRecursion));
}

TEST(AmuletCCheck, FlagsHeapAndAsm) {
  EXPECT_TRUE(has_rule(check_amulet_c("void f(void){ p = malloc(4); }"),
                       AmuletCRule::kNoHeapAllocation));
  EXPECT_TRUE(has_rule(check_amulet_c("void f(void){ asm(\"nop\"); }"),
                       AmuletCRule::kNoInlineAssembly));
}

TEST(AmuletCCheck, MathLibraryGatedByOption) {
  const char* src = "#include <math.h>\n";
  EXPECT_TRUE(check_amulet_c(src, {.allow_math_library = true}).empty());
  EXPECT_TRUE(has_rule(check_amulet_c(src, {.allow_math_library = false}),
                       AmuletCRule::kNoMathLibrary));
}

TEST(AmuletCCheck, IgnoresBannedWordsInCommentsAndStrings) {
  const char* src = R"(
    /* goto considered harmful; char *p in prose; malloc too */
    // asm in a line comment
    static const char msg[8] = "goto";
    int f(void) { return msg[0]; }
  )";
  EXPECT_TRUE(check_amulet_c(src).empty());
}

// --- QM model emission -------------------------------------------------------------

TEST(QmModel, ContainsThreeStatesAndTransitions) {
  const std::string xml =
      emit_qm_model_xml("SiftDetector", DetectorVersion::kSimplified);
  for (const char* needle :
       {"PeaksDataCheck", "FeatureExtraction", "MLClassifier",
        "SIG_WINDOW_READY", "SIG_PEAKS_CHECKED", "SIG_FEATURES_READY",
        "<model", "</model>"}) {
    EXPECT_NE(xml.find(needle), std::string::npos) << needle;
  }
}

// --- app codegen -----------------------------------------------------------------

class CodegenTest : public ::testing::TestWithParam<DetectorVersion> {
 protected:
  static void SetUpTestSuite() {
    const auto cohort = physio::synthetic_cohort(3, 303);
    training_ =
        new std::vector(physio::generate_cohort_records(cohort, 120.0));
    test_ = new physio::Record(physio::generate_record(
        cohort[0], 60.0, physio::kDefaultRateHz, 4));
  }
  static void TearDownTestSuite() {
    delete training_;
    delete test_;
    training_ = nullptr;
    test_ = nullptr;
  }

  static core::UserModel train(DetectorVersion version) {
    core::SiftConfig config;
    config.version = version;  // double arithmetic: the codegen reference
    return core::train_user_model((*training_)[0],
                                  std::span(*training_).subspan(1), config);
  }

  static std::vector<physio::Record>* training_;
  static physio::Record* test_;
};

std::vector<physio::Record>* CodegenTest::training_ = nullptr;
physio::Record* CodegenTest::test_ = nullptr;

TEST_P(CodegenTest, GeneratedSourcePassesAmuletCCheck) {
  const core::UserModel model = train(GetParam());
  const std::string src = emit_amulet_app_c(model);
  AmuletCCheckOptions options;
  options.allow_math_library = GetParam() == DetectorVersion::kOriginal;
  const auto violations = check_amulet_c(src, options);
  for (const auto& v : violations) {
    ADD_FAILURE() << to_string(v.rule) << " at line " << v.line << ": "
                  << v.excerpt;
  }
  if (GetParam() != DetectorVersion::kOriginal) {
    EXPECT_EQ(src.find("math.h"), std::string::npos)
        << "Simplified/Reduced builds must be libm-free";
  }
}

TEST_P(CodegenTest, CompiledAppMatchesHostDetectorVerdicts) {
  const core::UserModel model = train(GetParam());
  const std::string src = emit_amulet_app_c(model);

  // Write, compile as a shared object, and load.
  const std::string tag = core::to_string(GetParam());
  const std::string c_path = "sift_gen_" + tag + ".c";
  const std::string so_path = "./libsift_gen_" + tag + ".so";
  {
    std::ofstream out(c_path);
    ASSERT_TRUE(out.good());
    out << src;
  }
  const std::string cmd =
      "cc -O2 -shared -fPIC -o " + so_path + " " + c_path + " -lm 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << "generated C failed to compile";

  void* handle = dlopen(so_path.c_str(), RTLD_NOW);
  ASSERT_NE(handle, nullptr) << dlerror();
  using Fn = int (*)(const double*, const double*, const int*, int,
                     const int*, int);
  auto fn = reinterpret_cast<Fn>(dlsym(handle, "sift_process_window"));
  ASSERT_NE(fn, nullptr) << dlerror();

  const core::Detector host(model);
  const std::size_t window = 1080;
  std::size_t checked = 0;
  for (std::size_t start = 0; start + window <= test_->ecg.size();
       start += window) {
    const auto r = core::peaks_in_range(test_->r_peaks, start, window);
    const auto s = core::peaks_in_range(test_->systolic_peaks, start, window);
    ASSERT_LE(r.size(), 32u);
    ASSERT_LE(s.size(), 32u);
    int r_arr[32] = {0};
    int s_arr[32] = {0};
    for (std::size_t i = 0; i < r.size(); ++i) {
      r_arr[i] = static_cast<int>(r[i]);
    }
    for (std::size_t i = 0; i < s.size(); ++i) {
      s_arr[i] = static_cast<int>(s[i]);
    }

    const int device = fn(test_->ecg.data().data() + start,
                          test_->abp.data().data() + start, r_arr,
                          static_cast<int>(r.size()), s_arr,
                          static_cast<int>(s.size()));
    const auto verdict =
        host.classify(core::make_window_portrait(*test_, start, window));
    EXPECT_EQ(device == 1, verdict.altered) << "window at " << start;
    ++checked;
  }
  EXPECT_EQ(checked, 20u);
  dlclose(handle);
}

TEST_P(CodegenTest, PeakCheckGuardInGeneratedCode) {
  const core::UserModel model = train(GetParam());
  const std::string src = emit_amulet_app_c(model);
  EXPECT_NE(src.find("if (n_r <= 0 || n_s <= 0) { return 1; }"),
            std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(AllVersions, CodegenTest,
                         ::testing::Values(DetectorVersion::kOriginal,
                                           DetectorVersion::kSimplified,
                                           DetectorVersion::kReduced),
                         [](const auto& info) {
                           return core::to_string(info.param);
                         });

TEST_F(CodegenTest, NonDefaultWindowAndGridParameterise) {
  // The generator must honour the model's pipeline parameters, not assume
  // the paper defaults: train at w = 2 s with a 25-cell grid and verify
  // both the emitted constants and the verdict equivalence.
  core::SiftConfig config;
  config.version = core::DetectorVersion::kSimplified;
  config.window_s = 2.0;
  config.grid_n = 25;
  const core::UserModel model = core::train_user_model(
      (*training_)[0], std::span(*training_).subspan(1), config);
  const std::string src = emit_amulet_app_c(model);
  EXPECT_NE(src.find("#define SIFT_WINDOW 720"), std::string::npos);
  EXPECT_NE(src.find("#define SIFT_GRID 25"), std::string::npos);

  const std::string c_path = "sift_gen_w2.c";
  const std::string so_path = "./libsift_gen_w2.so";
  {
    std::ofstream out(c_path);
    out << src;
  }
  ASSERT_EQ(std::system(("cc -O2 -shared -fPIC -o " + so_path + " " +
                         c_path + " -lm 2>&1")
                            .c_str()),
            0);
  void* handle = dlopen(so_path.c_str(), RTLD_NOW);
  ASSERT_NE(handle, nullptr);
  using Fn = int (*)(const double*, const double*, const int*, int,
                     const int*, int);
  auto fn = reinterpret_cast<Fn>(dlsym(handle, "sift_process_window"));
  ASSERT_NE(fn, nullptr);

  const core::Detector host(model);
  const std::size_t window = 720;
  for (std::size_t start = 0; start + window <= test_->ecg.size();
       start += window) {
    const auto r = core::peaks_in_range(test_->r_peaks, start, window);
    const auto s = core::peaks_in_range(test_->systolic_peaks, start, window);
    int r_arr[32] = {0};
    int s_arr[32] = {0};
    for (std::size_t i = 0; i < r.size(); ++i) {
      r_arr[i] = static_cast<int>(r[i]);
    }
    for (std::size_t i = 0; i < s.size(); ++i) {
      s_arr[i] = static_cast<int>(s[i]);
    }
    const int device = fn(test_->ecg.data().data() + start,
                          test_->abp.data().data() + start, r_arr,
                          static_cast<int>(r.size()), s_arr,
                          static_cast<int>(s.size()));
    const auto verdict = host.classify(
        core::make_window_portrait(*test_, start, window, config.grid_n));
    EXPECT_EQ(device == 1, verdict.altered) << "window at " << start;
  }
  dlclose(handle);
}

TEST(Codegen, RejectsUnfittedModel) {
  core::UserModel model;
  EXPECT_THROW(emit_amulet_app_c(model), std::invalid_argument);
}

}  // namespace
}  // namespace sift::amulet
