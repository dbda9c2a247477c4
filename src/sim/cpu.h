// In-order RV64IMAC core with a Rocket-like timing model.
//
// Functional semantics are exact for the supported subset; timing is
// approximate but shaped like the paper's 6-stage in-order Rocket pipeline:
// CPI 1 for simple ops, fixed multiplier/divider latencies, a flush penalty
// for taken control flow, and additive L1 miss penalties. Absolute numbers
// need not match a Zedboard build — Fig 7 depends on *relative* change
// when ERIC's load-path decryption is enabled, which this model preserves.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "isa/decoder.h"
#include "isa/instruction.h"
#include "isa/isa_backend.h"
#include "sim/cache.h"
#include "sim/memory.h"
#include "support/status.h"

namespace eric::sim {

/// Why execution stopped.
enum class HaltReason {
  kNone,
  kExit,                ///< ecall exit or exit-device store
  kEbreak,              ///< hit an ebreak
  kInvalidInstruction,  ///< undecodable or unsupported encoding
  kInstructionLimit,    ///< ExecLimits::max_instructions reached
};

/// Core timing parameters (latencies beyond the 1-cycle base).
struct CpuTiming {
  uint32_t mul_extra_cycles = 3;
  uint32_t div_extra_cycles = 19;
  uint32_t taken_branch_penalty = 2;  ///< pipeline flush on redirect
  CacheConfig icache;
  CacheConfig dcache;

  CpuTiming() {
    // Pipelined L1s: hits are folded into the base CPI.
    icache.hit_cycles = 0;
    dcache.hit_cycles = 0;
  }
};

/// Execution budget.
struct ExecLimits {
  uint64_t max_instructions = 200'000'000;
};

/// Result of a run.
struct ExecStats {
  uint64_t instructions = 0;
  uint64_t cycles = 0;
  uint64_t loads = 0;
  uint64_t stores = 0;
  uint64_t branches = 0;
  uint64_t taken_branches = 0;
  CacheStats icache;
  CacheStats dcache;
  HaltReason halt_reason = HaltReason::kNone;
  int64_t exit_code = 0;
  uint64_t final_pc = 0;

  double ipc() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(instructions) / cycles;
  }
};

/// Memory-mapped I/O: the SoC declares its device window [base, limit)
/// and installs handlers for it. Only data accesses inside the window
/// reach a handler, which returns true if a device claimed the access;
/// everything else goes straight to RAM.
struct MmioHandlers {
  uint64_t base = 0;
  uint64_t limit = 0;
  std::function<bool(uint64_t addr, uint64_t value, int size)> store;
  std::function<bool(uint64_t addr, uint64_t* value, int size)> load;
};

/// The core.
///
/// The execution mode follows the ISA backend: on `kRv32I` registers keep
/// a sign-extended-32 invariant (every writeback re-canonicalizes),
/// addresses and the pc are truncated to 32 bits, shift amounts are
/// 5-bit, and compressed or RV64-only encodings halt the core with
/// kInvalidInstruction instead of silently executing. The mode is chosen
/// once per Run, not per instruction.
///
/// Fetch goes through a predecode table: one decoded `Instr` per halfword
/// of the loaded image, filled on first fetch, so the backend decodes each
/// static instruction once per run. Every store, SC and AMO that overlaps
/// a cached instruction's bytes drops that entry, so self-modifying code
/// re-decodes; fetches outside the image decode every time.
class Cpu {
 public:
  Cpu(Memory& memory, const CpuTiming& timing = {},
      isa::IsaId isa = isa::IsaId::kRv64Gc);

  /// Installs device handlers (optional).
  void set_mmio(MmioHandlers handlers) { mmio_ = std::move(handlers); }

  /// Sets the image range [base, base+bytes) the predecode table covers.
  void SetCodeRange(uint64_t base, uint64_t bytes);

  /// Resets architectural state and empties the predecode table; sets pc
  /// and sp.
  void Reset(uint64_t entry_pc, uint64_t stack_pointer);

  /// Runs until halt or limit. Registers/pc retain final state.
  ExecStats Run(const ExecLimits& limits = {});

  /// Architectural register access (tests, argument passing).
  uint64_t reg(int index) const { return regs_[static_cast<size_t>(index)]; }
  void set_reg(int index, uint64_t value) {
    if (index != 0) regs_[static_cast<size_t>(index)] = value;
  }
  uint64_t pc() const { return pc_; }

  /// Called by device models (exit device) to stop the core after the
  /// in-flight instruction completes.
  void RequestExit(int64_t code) {
    halt_ = HaltReason::kExit;
    exit_code_ = code;
  }

 private:
  /// A predecode entry; `valid` is false until first fetch and after a
  /// store over the instruction's bytes.
  struct DecodedSlot {
    isa::Instr instr;
    bool valid = false;
  };

  /// The instruction at pc_: a predecoded entry inside the image, a fresh
  /// decode outside it.
  const isa::Instr& Fetch();
  isa::Instr DecodeAt(uint64_t pc) const;

  /// Drops predecode entries whose bytes overlap [addr, addr+size).
  void NoteWrite(uint64_t addr, int size) {
    // Entries at pcs in [addr-3, addr+size) can overlap; one unsigned
    // compare rejects writes away from the image.
    if (addr + static_cast<uint64_t>(size) - 1 - code_base_ <
        code_bytes_ + static_cast<uint64_t>(size) + 2) {
      InvalidateDecoded(addr, size);
    }
  }
  void InvalidateDecoded(uint64_t addr, int size);

  bool InMmioWindow(uint64_t addr) const {
    return addr - mmio_.base < mmio_.limit - mmio_.base;
  }

  /// Runs the fetch-execute loop for one register width into `out`.
  template <bool kRv32>
  void RunLoop(ExecStats& out, uint64_t max_instructions);

  /// Executes one instruction; returns false on halt.
  template <bool kRv32>
  bool Step(ExecStats& stats);

  Memory& memory_;
  CpuTiming timing_;
  const isa::IsaBackend& backend_;
  const bool rv32_;
  Cache icache_;
  Cache dcache_;
  MmioHandlers mmio_;

  uint64_t code_base_ = 0;
  uint64_t code_bytes_ = 0;
  std::vector<DecodedSlot> decoded_;  // one per halfword of the image
  isa::Instr fetched_;                // decode of a pc outside the image

  std::array<uint64_t, 32> regs_{};
  uint64_t pc_ = 0;
  HaltReason halt_ = HaltReason::kNone;
  int64_t exit_code_ = 0;
  // LR/SC reservation (single hart: invalidated only by SC).
  uint64_t reservation_addr_ = 0;
  bool reservation_valid_ = false;
};

}  // namespace eric::sim
