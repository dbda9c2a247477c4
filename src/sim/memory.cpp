#include "sim/memory.h"

#include <algorithm>

namespace eric::sim {

uint8_t* Memory::FindPageSlow(uint64_t page_index) const {
  const auto it = pages_.find(page_index);
  if (it == pages_.end()) return nullptr;  // not cached: stays unmapped
  tlb_[page_index & (kTlbEntries - 1)] = {page_index, it->second.get()};
  return it->second.get();
}

uint8_t* Memory::AllocatePage(uint64_t page_index) {
  // make_unique<T[]> value-initialises: a fresh page reads as zeros.
  uint8_t* page =
      (pages_[page_index] = std::make_unique<uint8_t[]>(kPageBytes)).get();
  tlb_[page_index & (kTlbEntries - 1)] = {page_index, page};
  return page;
}

uint64_t Memory::ReadCrossing(uint64_t addr, int size) const {
  uint64_t value = 0;
  for (int i = 0; i < size; ++i) {
    value |= Read(addr + static_cast<uint64_t>(i), 1) << (8 * i);
  }
  return value;
}

void Memory::WriteCrossing(uint64_t addr, uint64_t value, int size) {
  for (int i = 0; i < size; ++i) {
    Write(addr + static_cast<uint64_t>(i), value >> (8 * i), 1);
  }
}

void Memory::WriteBlock(uint64_t addr, std::span<const uint8_t> bytes) {
  size_t done = 0;
  while (done < bytes.size()) {
    const uint64_t a = addr + done;
    const size_t offset = a & (kPageBytes - 1);
    const size_t take = std::min(kPageBytes - offset, bytes.size() - done);
    std::memcpy(TouchPage(a >> kPageShift) + offset, bytes.data() + done,
                take);
    done += take;
  }
}

std::vector<uint8_t> Memory::ReadBlock(uint64_t addr, size_t size) const {
  std::vector<uint8_t> out(size);
  for (size_t i = 0; i < size; ++i) {
    out[i] = static_cast<uint8_t>(Read(addr + i, 1));
  }
  return out;
}

}  // namespace eric::sim
