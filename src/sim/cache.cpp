#include "sim/cache.h"

#include <bit>
#include <cassert>

namespace eric::sim {

Cache::Cache(const CacheConfig& config) : config_(config) {
  assert(config.size_bytes % (config.line_bytes * config.ways) == 0);
  const uint32_t num_sets =
      config.size_bytes / (config.line_bytes * config.ways);
  assert(std::has_single_bit(config.line_bytes) &&
         std::has_single_bit(num_sets) && "power-of-two geometry");
  line_shift_ = static_cast<unsigned>(std::countr_zero(config.line_bytes));
  set_shift_ = static_cast<unsigned>(std::countr_zero(num_sets));
  set_mask_ = num_sets - 1;
  lines_.resize(static_cast<size_t>(num_sets) * config.ways);
}

uint32_t Cache::AccessSet(uint64_t line_addr) {
  const uint64_t set = line_addr & set_mask_;
  const uint64_t tag = line_addr >> set_shift_;
  Line* set_base = &lines_[set * config_.ways];
  last_line_ = line_addr;

  ++use_counter_;
  for (uint32_t w = 0; w < config_.ways; ++w) {
    Line& line = set_base[w];
    if (line.valid && line.tag == tag) {
      line.lru = use_counter_;
      ++stats_.hits;
      return config_.hit_cycles;
    }
  }

  // Miss: fill the LRU way.
  Line* victim = set_base;
  for (uint32_t w = 1; w < config_.ways; ++w) {
    Line& line = set_base[w];
    if (!line.valid) {
      victim = &line;
      break;
    }
    if (line.lru < victim->lru) victim = &line;
  }
  victim->valid = true;
  victim->tag = tag;
  victim->lru = use_counter_;
  ++stats_.misses;
  return config_.miss_cycles;
}

void Cache::Flush() {
  for (Line& line : lines_) line.valid = false;
  last_line_ = kNoLine;
}

}  // namespace eric::sim
