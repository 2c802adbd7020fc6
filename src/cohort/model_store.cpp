#include "cohort/model_store.hpp"

#include <charconv>
#include <filesystem>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "io/framed.hpp"
#include "io/model_file.hpp"

namespace sift::cohort {
namespace {

constexpr char kManifestMagic[] = "sift-model-manifest v1";

}  // namespace

ModelStore::ModelStore(std::string root, std::size_t shards)
    : root_(std::move(root)), shards_(shards) {
  if (shards_ == 0) {
    throw std::invalid_argument("ModelStore: shards must be positive");
  }
}

std::string ModelStore::shard_dir(int user_id) const {
  const auto shard =
      static_cast<std::size_t>(user_id < 0 ? -user_id : user_id) % shards_;
  std::string dir = root_;
  dir += "/shard_";
  if (shard < 10) dir += '0';
  dir += std::to_string(shard);
  return dir;
}

std::string ModelStore::path_for(int user_id,
                                 core::DetectorVersion version) const {
  std::string path = shard_dir(user_id);
  path += "/u";
  path += std::to_string(user_id);
  path += '.';
  path += core::to_string(version);
  path += ".model";
  return path;
}

void ModelStore::save(const core::UserModel& model) const {
  std::filesystem::create_directories(shard_dir(model.user_id));
  io::save_user_model(path_for(model.user_id, model.config.version), model);
}

core::UserModel ModelStore::load(int user_id,
                                 core::DetectorVersion version) const {
  return io::load_user_model(path_for(user_id, version));
}

fleet::TieredModelProvider ModelStore::provider() const {
  // The provider copies the store by value (two strings), so it outlives
  // the ModelStore it was minted from.
  ModelStore store = *this;
  return [store = std::move(store)](int user_id,
                                    core::DetectorVersion version) {
    return std::make_shared<const core::UserModel>(store.load(user_id, version));
  };
}

void ModelStore::write_manifest(std::span<const int> user_ids) const {
  std::filesystem::create_directories(root_);
  std::ostringstream os;
  os << kManifestMagic << '\n' << "users " << user_ids.size() << '\n';
  for (int id : user_ids) os << id << '\n';
  const std::string text = os.str();
  io::write_file_atomic(
      root_ + "/manifest.txt",
      std::span(reinterpret_cast<const std::uint8_t*>(text.data()),
                text.size()));
}

std::vector<int> ModelStore::read_manifest() const {
  const auto bytes = io::read_file_bytes(root_ + "/manifest.txt");
  if (bytes.empty()) return {};
  std::istringstream is(
      std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size()));
  std::string line;
  if (!std::getline(is, line) || line != kManifestMagic) {
    throw std::runtime_error("ModelStore: bad manifest magic");
  }
  std::string word;
  std::size_t n = 0;
  if (!(is >> word >> n) || word != "users") {
    throw std::runtime_error("ModelStore: bad manifest header");
  }
  // Every id takes at least one byte, so a count beyond the file size is
  // corrupt: reject it before it sizes an allocation.
  if (n > bytes.size()) {
    throw std::runtime_error("ModelStore: manifest truncated");
  }
  std::vector<int> ids;
  ids.reserve(n);
  int id = 0;
  while (ids.size() < n && is >> id) ids.push_back(id);
  if (ids.size() != n) {
    throw std::runtime_error("ModelStore: manifest truncated");
  }
  return ids;
}

}  // namespace sift::cohort
