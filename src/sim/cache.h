// Set-associative L1 cache timing model (Table I: 16 KiB, 4-way, for both
// I and D sides of the Rocket core).
//
// The cache tracks tags only — data always comes from Memory; the model's
// job is classifying each access as hit or miss so the core can charge the
// right latency. Replacement is LRU. Write policy is write-allocate /
// write-back (Rocket's L1D), which for a tag-only model reduces to
// allocate-on-write.
//
// Geometry is power-of-two (line size and set count), so set and tag come
// from shifts and masks. An access to the same line as the previous access
// returns a hit at once: that line already holds the newest LRU stamp in
// the cache, so skipping the stamp update leaves the relative order of
// every set, and therefore every future victim choice, unchanged.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace eric::sim {

/// Cache geometry and latencies.
struct CacheConfig {
  uint32_t size_bytes = 16 * 1024;
  uint32_t line_bytes = 64;
  uint32_t ways = 4;
  uint32_t hit_cycles = 1;    ///< added on hit (pipelined L1)
  uint32_t miss_cycles = 20;  ///< memory round-trip on miss
};

/// Per-cache counters.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;

  uint64_t accesses() const { return hits + misses; }
  double miss_rate() const {
    return accesses() == 0 ? 0.0
                           : static_cast<double>(misses) / accesses();
  }
};

/// Tag-only LRU set-associative cache.
class Cache {
 public:
  explicit Cache(const CacheConfig& config = {});

  /// Performs one access; returns cycles charged (hit or miss latency) and
  /// updates tag state + stats.
  uint32_t Access(uint64_t addr) {
    const uint64_t line_addr = addr >> line_shift_;
    if (line_addr == last_line_) [[likely]] {
      ++stats_.hits;
      return config_.hit_cycles;
    }
    return AccessSet(line_addr);
  }

  /// Invalidates all lines (program reload).
  void Flush();

  const CacheStats& stats() const { return stats_; }
  const CacheConfig& config() const { return config_; }

 private:
  struct Line {
    uint64_t tag = 0;
    uint64_t lru = 0;  // last-use stamp
    bool valid = false;
  };

  static constexpr uint64_t kNoLine = ~uint64_t{0};

  /// The set lookup and LRU update behind Access.
  uint32_t AccessSet(uint64_t line_addr);

  CacheConfig config_;
  unsigned line_shift_;  // log2(line_bytes)
  unsigned set_shift_;   // log2(number of sets)
  uint64_t set_mask_;    // number of sets - 1
  std::vector<Line> lines_;  // num_sets * ways, row-major by set
  uint64_t last_line_ = kNoLine;  // line of the previous access
  uint64_t use_counter_ = 0;
  CacheStats stats_;
};

}  // namespace eric::sim
