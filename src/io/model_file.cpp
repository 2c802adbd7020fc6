#include "io/model_file.hpp"

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "io/framed.hpp"
#include "ml/serialize.hpp"

namespace sift::io {
namespace {

// The integrity header makes a truncated or bit-flipped artefact fail load
// with a clear error instead of feeding garbage weights downstream:
//
//   sift-user-model v2
//   crc32 <8-hex> <payload-bytes>
//   <body>
constexpr const char* kMagic = "sift-user-model v2";

std::uint32_t body_crc(const std::string& body) noexcept {
  return crc32({reinterpret_cast<const std::uint8_t*>(body.data()),
                body.size()});
}

core::DetectorVersion version_from(const std::string& s) {
  if (s == "Original") return core::DetectorVersion::kOriginal;
  if (s == "Simplified") return core::DetectorVersion::kSimplified;
  if (s == "Reduced") return core::DetectorVersion::kReduced;
  throw std::runtime_error("model file: unknown version '" + s + "'");
}

core::Arithmetic arithmetic_from(const std::string& s) {
  if (s == "double") return core::Arithmetic::kDouble;
  if (s == "float32") return core::Arithmetic::kFloat32;
  if (s == "Q16.16") return core::Arithmetic::kFixedQ16;
  throw std::runtime_error("model file: unknown arithmetic '" + s + "'");
}

/// Parses all of @p s as an unsigned number in @p base; false on any
/// sign, prefix, stray character or overflow.
template <typename T>
bool parse_exact(const std::string& s, T& out, int base) {
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, out, base);
  return ec == std::errc() && ptr == end;
}

/// Bytes between the read position and the end of @p is, or nullopt when
/// the stream cannot report it.
std::optional<std::uint64_t> bytes_left(std::istream& is) {
  const std::istream::pos_type here = is.tellg();
  if (here == std::istream::pos_type(-1)) return std::nullopt;
  is.seekg(0, std::ios::end);
  const std::istream::pos_type end = is.tellg();
  is.seekg(here);
  if (end == std::istream::pos_type(-1) || !is) return std::nullopt;
  return static_cast<std::uint64_t>(end - here);
}

std::string expect_field(std::istream& is, const std::string& key) {
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::string k;
    std::string v;
    ss >> k >> v;
    if (k != key || v.empty()) {
      throw std::runtime_error("model file: expected '" + key + "', got '" +
                               line + "'");
    }
    return v;
  }
  throw std::runtime_error("model file: unexpected end (wanted " + key + ")");
}

}  // namespace

void write_user_model(std::ostream& os, const core::UserModel& model) {
  std::ostringstream body;
  body << "user_id " << model.user_id << '\n';
  body << "version " << core::to_string(model.config.version) << '\n';
  body << "arithmetic " << core::to_string(model.config.arithmetic) << '\n';
  body.precision(17);
  body << "window_s " << model.config.window_s << '\n';
  body << "grid_n " << model.config.grid_n << '\n';
  ml::save_model(body, {model.scaler, model.svm});

  const std::string payload = body.str();
  char crc_hex[16];
  std::snprintf(crc_hex, sizeof crc_hex, "%08x", body_crc(payload));
  os << kMagic << '\n';
  os << "crc32 " << crc_hex << ' ' << payload.size() << '\n';
  os << payload;
}

void save_user_model(const std::string& path, const core::UserModel& model) {
  std::ofstream os(path);
  if (!os.good()) throw std::runtime_error("model file: cannot open " + path);
  write_user_model(os, model);
}

namespace {

core::UserModel read_model_body(std::istream& is) {
  core::UserModel model;
  model.user_id = std::stoi(expect_field(is, "user_id"));
  model.config.version = version_from(expect_field(is, "version"));
  model.config.arithmetic = arithmetic_from(expect_field(is, "arithmetic"));
  model.config.window_s = std::stod(expect_field(is, "window_s"));
  model.config.grid_n =
      static_cast<std::size_t>(std::stoul(expect_field(is, "grid_n")));
  if (!(model.config.window_s > 0.0) || model.config.grid_n == 0) {
    throw std::runtime_error("model file: implausible pipeline parameters");
  }

  ml::ModelArtifact artifact = ml::load_model(is);
  if (artifact.svm.w.size() != core::feature_count(model.config.version)) {
    throw std::runtime_error(
        "model file: weight count does not match the detector version");
  }
  model.scaler = std::move(artifact.scaler);
  model.svm = std::move(artifact.svm);
  return model;
}

}  // namespace

core::UserModel read_user_model(std::istream& is) {
  std::string line;
  while (std::getline(is, line) && (line.empty() || line[0] == '#')) {
  }
  if (line != kMagic) {
    throw std::runtime_error("model file: bad magic '" + line + "'");
  }

  std::string crc_line;
  if (!std::getline(is, crc_line)) {
    throw std::runtime_error("model file: truncated before crc32 header");
  }
  std::istringstream ss(crc_line);
  std::string key;
  std::string hex;
  std::string size_text;
  std::uint32_t expected_crc = 0;
  std::uint64_t expected_size = 0;
  if (!(ss >> key >> hex >> size_text) || key != "crc32" || hex.size() != 8 ||
      !parse_exact(hex, expected_crc, 16) ||
      !parse_exact(size_text, expected_size, 10)) {
    throw std::runtime_error("model file: malformed crc32 header '" +
                             crc_line + "'");
  }
  // The size is outside input: check it against what the stream holds
  // before allocating, so a forged header cannot demand gigabytes.
  const std::optional<std::uint64_t> left = bytes_left(is);
  if (!left || expected_size > *left) {
    throw std::runtime_error(
        "model file: truncated body (expected " +
        std::to_string(expected_size) + " bytes, " +
        (left ? std::to_string(*left) : std::string("unknown")) + " left)");
  }

  std::string payload(static_cast<std::size_t>(expected_size), '\0');
  is.read(payload.data(), static_cast<std::streamsize>(expected_size));
  if (static_cast<std::uint64_t>(is.gcount()) != expected_size) {
    throw std::runtime_error(
        "model file: truncated body (expected " +
        std::to_string(expected_size) + " bytes, got " +
        std::to_string(is.gcount()) + ")");
  }
  if (body_crc(payload) != expected_crc) {
    throw std::runtime_error(
        "model file: crc32 mismatch — file is corrupt or was edited by hand");
  }
  std::istringstream body(payload);
  return read_model_body(body);
}

core::UserModel load_user_model(const std::string& path) {
  std::ifstream is(path);
  if (!is.good()) throw std::runtime_error("model file: cannot open " + path);
  return read_user_model(is);
}

}  // namespace sift::io
