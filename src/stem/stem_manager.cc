#include "stem/stem_manager.h"

#include "spill/buffer_pool.h"

namespace stems {

StemManager::StemManager() = default;
StemManager::~StemManager() = default;

namespace {

/// Spill-configuration fragment of a pool key. Latency models are keyed by
/// identity: two RunOptions sharing a model object (or both using the
/// built-in default, nullptr) are compatible; distinct custom models are
/// not provably equivalent, so they get distinct storages.
std::string SpillKey(const SpillOptions& spill) {
  return std::to_string(spill.partitions) + ":" +
         std::to_string(spill.page_entries) + ":" +
         std::to_string(spill.pool_frames) + ":" +
         std::to_string(spill.seed) + ":" +
         std::to_string(reinterpret_cast<uintptr_t>(spill.read_latency.get())) +
         ":" +
         std::to_string(reinterpret_cast<uintptr_t>(spill.write_latency.get()));
}

}  // namespace

std::string StemManager::KeyFor(const std::string& table,
                                const std::vector<int>& index_columns,
                                const StemOptions& options, bool spill_enabled,
                                const SpillOptions& spill) {
  std::string key = table + "|";
  for (int col : index_columns) key += std::to_string(col) + ",";
  key += "|" + std::to_string(static_cast<int>(options.index_impl)) + ":" +
         std::to_string(options.adaptive_threshold) + "|";
  key += spill_enabled ? "spill:" + SpillKey(spill) : std::string("nospill");
  return key;
}

std::shared_ptr<StemStorage> StemManager::Acquire(const std::string& key,
                                                  const std::string& table,
                                                  bool* shared) {
  PurgeExpired();
  ++acquires_;
  auto it = storages_.find(key);
  if (it != storages_.end()) {
    if (std::shared_ptr<StemStorage> existing = it->second.lock()) {
      ++shared_acquires_;
      *shared = true;
      return existing;
    }
  }
  *shared = false;
  auto storage = std::make_shared<StemStorage>(table, /*pooled=*/true);
  storages_[key] = storage;
  return storage;
}

BufferPool* StemManager::SpillPool(const SpillOptions& options) {
  const std::string key = SpillKey(options);
  auto it = pools_.find(key);
  if (it == pools_.end()) {
    it = pools_.emplace(key, std::make_unique<BufferPool>(options)).first;
  }
  return it->second.get();
}

size_t StemManager::pooled_storages() {
  PurgeExpired();
  return storages_.size();
}

void StemManager::PurgeExpired() {
  for (auto it = storages_.begin(); it != storages_.end();) {
    if (it->second.expired()) {
      it = storages_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace stems
