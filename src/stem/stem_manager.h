// StemManager: the pool of shared SteM storage (paper §5), owned by the
// Engine but living in src/stem/ — it manages only StemStorage instances
// and their buffer pools, so the planner can depend on it without the
// query layer depending upward on the engine layer.
//
//
// "SteMs enable sharing of state and computation between queries": the
// manager keys StemStorage instances by (table, indexed columns, index
// implementation, spill configuration) so that PlanQuery can attach a new
// query to a SteM another live query already built, instead of paying the
// build cost and memory twice. See docs/sharing.md for the visibility
// model that keeps results exact.
//
// Lifecycle is ref-counted and lazily evicting: facades hold shared_ptrs,
// the manager holds only weak entries.
// When the last query releases a storage it is detached and the registry
// entry expires; expired entries are purged on the next acquire or stats
// call ("detach, then evict").
//
// Shared spill state needs a buffer pool that outlives any single query,
// so the manager also owns one BufferPool per distinct spill
// configuration, shared by every pooled SteM using that configuration
// (the engine-wide analogue of the per-query pool the Eddy owns).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spill/spill_options.h"
#include "stem/stem.h"
#include "stem/stem_storage.h"

namespace stems {

class BufferPool;

class StemManager {
 public:
  StemManager();
  ~StemManager();

  StemManager(const StemManager&) = delete;
  StemManager& operator=(const StemManager&) = delete;

  /// Pool key for a SteM over `table` indexing `index_columns` (sorted,
  /// from StemIndexColumns). Two queries share a storage iff their keys
  /// are equal — same table, same index needs, same index implementation,
  /// and the same spill configuration (`spill` ignored unless
  /// `spill_enabled`).
  static std::string KeyFor(const std::string& table,
                            const std::vector<int>& index_columns,
                            const StemOptions& options, bool spill_enabled,
                            const SpillOptions& spill);

  /// Returns the pooled storage for `key`, creating it (pooled mode) on
  /// first use. `*shared` is set iff the storage pre-existed — i.e. this
  /// query attaches to state another query built.
  std::shared_ptr<StemStorage> Acquire(const std::string& key,
                                       const std::string& table,
                                       bool* shared);

  /// The engine-wide buffer pool for pooled spilling SteMs with this spill
  /// configuration (created on first use; lives as long as the manager).
  BufferPool* SpillPool(const SpillOptions& options);

  /// Live pooled storages (purges expired entries first).
  size_t pooled_storages();

  uint64_t acquires() const { return acquires_; }
  /// Acquires that attached to pre-existing shared state.
  uint64_t shared_acquires() const { return shared_acquires_; }

 private:
  void PurgeExpired();

  std::map<std::string, std::weak_ptr<StemStorage>> storages_;
  std::map<std::string, std::unique_ptr<BufferPool>> pools_;
  uint64_t acquires_ = 0;
  uint64_t shared_acquires_ = 0;
};

}  // namespace stems
