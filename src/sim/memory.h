// Sparse physical memory for the SoC model.
//
// Backed by 4 KiB pages allocated on first touch, so a 2 GiB address space
// costs only what the workload touches. All accesses are little-endian,
// matching RISC-V.
//
// Lookups resolve the page once per access. A small direct-mapped page
// cache (a software TLB indexed by the low page-number bits) sits in front
// of the page map, so a hit does no hashing; accesses that stay inside one
// page read or write it with a single fixed-size copy. Only an access that
// crosses a page boundary falls back to byte-at-a-time.
//
// Not thread-safe, const methods included: reads refill the page cache.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

namespace eric::sim {

static_assert(std::endian::native == std::endian::little,
              "in-page fast paths copy host words as little-endian");

/// Byte-addressed sparse memory.
class Memory {
 public:
  static constexpr size_t kPageBytes = 4096;
  static constexpr unsigned kPageShift = 12;

  /// Little-endian multi-byte accessors. `size` in {1,2,4,8}.
  uint64_t Read(uint64_t addr, int size) const {
    const uint64_t offset = addr & (kPageBytes - 1);
    if (offset + static_cast<uint64_t>(size) > kPageBytes) [[unlikely]] {
      return ReadCrossing(addr, size);
    }
    const uint8_t* page = FindPage(addr >> kPageShift);
    uint64_t value = 0;  // unmapped reads as zero
    // Little-endian host: the low `size` bytes of `value` are the word.
    if (page != nullptr) std::memcpy(&value, page + offset, size);
    return value;
  }

  void Write(uint64_t addr, uint64_t value, int size) {
    const uint64_t offset = addr & (kPageBytes - 1);
    if (offset + static_cast<uint64_t>(size) > kPageBytes) [[unlikely]] {
      WriteCrossing(addr, value, size);
      return;
    }
    std::memcpy(TouchPage(addr >> kPageShift) + offset, &value, size);
  }

  /// Bulk copy-in (program loading).
  void WriteBlock(uint64_t addr, std::span<const uint8_t> bytes);

  /// Bulk copy-out (result extraction in tests).
  std::vector<uint8_t> ReadBlock(uint64_t addr, size_t size) const;

  /// Number of resident pages (footprint metric).
  size_t ResidentPages() const { return pages_.size(); }

 private:
  static constexpr size_t kTlbEntries = 16;  // power of two

  struct TlbEntry {
    uint64_t page_index = ~uint64_t{0};  // never a real page index
    uint8_t* data = nullptr;
  };

  /// Resident page `page_index`, or nullptr (never allocates).
  uint8_t* FindPage(uint64_t page_index) const {
    const TlbEntry& e = tlb_[page_index & (kTlbEntries - 1)];
    if (e.page_index == page_index) [[likely]] return e.data;
    return FindPageSlow(page_index);
  }

  /// Resident page `page_index`, allocated zeroed on first touch.
  uint8_t* TouchPage(uint64_t page_index) {
    uint8_t* page = FindPage(page_index);
    return page != nullptr ? page : AllocatePage(page_index);
  }

  uint8_t* FindPageSlow(uint64_t page_index) const;
  uint8_t* AllocatePage(uint64_t page_index);
  uint64_t ReadCrossing(uint64_t addr, int size) const;
  void WriteCrossing(uint64_t addr, uint64_t value, int size);

  std::unordered_map<uint64_t, std::unique_ptr<uint8_t[]>> pages_;
  // mutable: a read that misses the page cache refills it.
  mutable std::array<TlbEntry, kTlbEntries> tlb_{};
};

}  // namespace eric::sim
