#include "sim/cpu.h"

#include <algorithm>

namespace eric::sim {

using isa::Instr;
using isa::Op;
using isa::OpClass;

namespace {

/// Canonical RV32 register value: the low 32 bits sign-extended to 64.
inline uint64_t SignExtend32(uint64_t value) {
  return static_cast<uint64_t>(static_cast<int64_t>(
      static_cast<int32_t>(static_cast<uint32_t>(value))));
}

}  // namespace

Cpu::Cpu(Memory& memory, const CpuTiming& timing, isa::IsaId isa)
    : memory_(memory),
      timing_(timing),
      backend_(isa::BackendFor(isa)),
      rv32_(backend_.xlen() == 32),
      icache_(timing.icache),
      dcache_(timing.dcache) {}

void Cpu::SetCodeRange(uint64_t base, uint64_t bytes) {
  code_base_ = base;
  code_bytes_ = bytes;
  decoded_.assign((bytes + 1) / 2, DecodedSlot{});
}

void Cpu::Reset(uint64_t entry_pc, uint64_t stack_pointer) {
  std::fill(decoded_.begin(), decoded_.end(), DecodedSlot{});
  regs_.fill(0);
  regs_[2] = rv32_ ? SignExtend32(stack_pointer) : stack_pointer;
  pc_ = rv32_ ? (entry_pc & 0xFFFFFFFF) : entry_pc;
  halt_ = HaltReason::kNone;
  exit_code_ = 0;
  icache_.Flush();
  dcache_.Flush();
}

namespace {

int64_t SignedMulHigh(int64_t a, int64_t b) {
  return static_cast<int64_t>(
      (static_cast<__int128>(a) * static_cast<__int128>(b)) >> 64);
}

uint64_t UnsignedMulHigh(uint64_t a, uint64_t b) {
  return static_cast<uint64_t>(
      (static_cast<unsigned __int128>(a) * static_cast<unsigned __int128>(b)) >>
      64);
}

int64_t SignedUnsignedMulHigh(int64_t a, uint64_t b) {
  return static_cast<int64_t>(
      (static_cast<__int128>(a) * static_cast<__int128>(
                                      static_cast<unsigned __int128>(b))) >>
      64);
}

}  // namespace

Instr Cpu::DecodeAt(uint64_t pc) const {
  const uint16_t half = static_cast<uint16_t>(memory_.Read(pc, 2));
  if (isa::IsWide(half)) {
    return backend_.Decode(static_cast<uint32_t>(memory_.Read(pc, 4)));
  }
  // On ISAs without the C extension this yields kInvalid: a compressed
  // encoding halts the core instead of executing as something else.
  return backend_.DecodeCompressed(half);
}

const Instr& Cpu::Fetch() {
  const uint64_t offset = pc_ - code_base_;
  if (offset < code_bytes_ && (offset & 1) == 0) [[likely]] {
    DecodedSlot& slot = decoded_[offset >> 1];
    if (!slot.valid) [[unlikely]] {
      slot.instr = DecodeAt(pc_);
      slot.valid = true;
    }
    return slot.instr;
  }
  fetched_ = DecodeAt(pc_);
  return fetched_;
}

void Cpu::InvalidateDecoded(uint64_t addr, int size) {
  // An instruction at pc covers at most [pc, pc+4), so it overlaps the
  // write iff addr-4 < pc < addr+size. Offsets are small here: NoteWrite
  // only calls in when the write lands within 3 bytes of the image.
  const int64_t at = static_cast<int64_t>(addr - code_base_);
  const int64_t end = std::min<int64_t>(at + size,
                                        static_cast<int64_t>(code_bytes_));
  for (int64_t offset = std::max<int64_t>(at - 3, 0); offset < end;
       ++offset) {
    if ((offset & 1) == 0) {
      decoded_[static_cast<size_t>(offset) >> 1].valid = false;
    }
  }
}

template <bool kRv32>
[[gnu::always_inline]] inline bool Cpu::Step(ExecStats& stats) {
  // Fetch (I-cache) and decode. `in` refers into the predecode table: a
  // store that overwrites this very instruction only clears its entry's
  // valid flag, so the operands read below stay intact.
  stats.cycles += icache_.Access(pc_);
  const Instr& in = Fetch();

  if (in.op == Op::kInvalid) {
    halt_ = HaltReason::kInvalidInstruction;
    return false;
  }

  ++stats.instructions;
  stats.cycles += 1;  // base CPI

  const uint64_t next_pc = pc_ + static_cast<uint64_t>(in.SizeBytes());
  uint64_t redirect = 0;
  bool redirected = false;

  auto rs1 = [&] { return regs_[in.rs1]; };
  auto rs2 = [&] { return regs_[in.rs2]; };
  // RV32 writebacks re-canonicalize to the sign-extended-32 invariant:
  // 64-bit arithmetic then truncation is exactly arithmetic mod 2^32, and
  // sign-extended operands preserve both signed and unsigned ordering, so
  // the comparison ops need no special casing.
  auto wb = [&](uint64_t value) {
    if constexpr (kRv32) value = SignExtend32(value);
    if (in.rd != 0) regs_[in.rd] = value;
  };
  // Effective data address (RV32: 32-bit address space).
  auto ea = [&](uint64_t addr) {
    return kRv32 ? (addr & 0xFFFFFFFF) : addr;
  };
  // Loads and stores are typed by width: the access size and the sign or
  // zero extension (T's signedness) are constants in each case.
  auto load = [&](auto type) {
    using T = decltype(type);
    ++stats.loads;
    const uint64_t addr = ea(rs1() + static_cast<uint64_t>(in.imm));
    uint64_t value = 0;
    if (InMmioWindow(addr) && mmio_.load &&
        mmio_.load(addr, &value, sizeof(T))) {
      // Device access: uncached, constant latency.
      stats.cycles += timing_.dcache.miss_cycles;
    } else {
      stats.cycles += dcache_.Access(addr);
      value = memory_.Read(addr, sizeof(T));
    }
    wb(static_cast<uint64_t>(static_cast<int64_t>(static_cast<T>(value))));
  };
  // Returns false when the store halted the core (exit device).
  auto store = [&](auto type) {
    using T = decltype(type);
    ++stats.stores;
    const uint64_t addr = ea(rs1() + static_cast<uint64_t>(in.imm));
    if (InMmioWindow(addr) && mmio_.store &&
        mmio_.store(addr, rs2(), sizeof(T))) {
      stats.cycles += timing_.dcache.miss_cycles;
      return halt_ == HaltReason::kNone;
    }
    stats.cycles += dcache_.Access(addr);
    memory_.Write(addr, rs2(), sizeof(T));
    NoteWrite(addr, sizeof(T));
    return true;
  };

  switch (in.op) {
    case Op::kLui: wb(static_cast<uint64_t>(in.imm << 12)); break;
    case Op::kAuipc: wb(pc_ + static_cast<uint64_t>(in.imm << 12)); break;
    case Op::kJal:
      wb(next_pc);
      redirect = pc_ + static_cast<uint64_t>(in.imm);
      redirected = true;
      break;
    case Op::kJalr: {
      const uint64_t target =
          (rs1() + static_cast<uint64_t>(in.imm)) & ~uint64_t{1};
      wb(next_pc);
      redirect = target;
      redirected = true;
      break;
    }
    case Op::kBeq: case Op::kBne: case Op::kBlt: case Op::kBge:
    case Op::kBltu: case Op::kBgeu: {
      ++stats.branches;
      bool taken = false;
      switch (in.op) {
        case Op::kBeq: taken = rs1() == rs2(); break;
        case Op::kBne: taken = rs1() != rs2(); break;
        case Op::kBlt:
          taken = static_cast<int64_t>(rs1()) < static_cast<int64_t>(rs2());
          break;
        case Op::kBge:
          taken = static_cast<int64_t>(rs1()) >= static_cast<int64_t>(rs2());
          break;
        case Op::kBltu: taken = rs1() < rs2(); break;
        default: taken = rs1() >= rs2(); break;
      }
      if (taken) {
        ++stats.taken_branches;
        redirect = pc_ + static_cast<uint64_t>(in.imm);
        redirected = true;
      }
      break;
    }

    case Op::kLb: load(int8_t{}); break;
    case Op::kLh: load(int16_t{}); break;
    case Op::kLw: load(int32_t{}); break;
    case Op::kLd: load(uint64_t{}); break;
    case Op::kLbu: load(uint8_t{}); break;
    case Op::kLhu: load(uint16_t{}); break;
    case Op::kLwu: load(uint32_t{}); break;
    case Op::kSb: if (!store(uint8_t{})) return false; break;
    case Op::kSh: if (!store(uint16_t{})) return false; break;
    case Op::kSw: if (!store(uint32_t{})) return false; break;
    case Op::kSd: if (!store(uint64_t{})) return false; break;

    case Op::kAddi: wb(rs1() + static_cast<uint64_t>(in.imm)); break;
    case Op::kSlti:
      wb(static_cast<int64_t>(rs1()) < in.imm ? 1 : 0);
      break;
    case Op::kSltiu: wb(rs1() < static_cast<uint64_t>(in.imm) ? 1 : 0); break;
    case Op::kXori: wb(rs1() ^ static_cast<uint64_t>(in.imm)); break;
    case Op::kOri: wb(rs1() | static_cast<uint64_t>(in.imm)); break;
    case Op::kAndi: wb(rs1() & static_cast<uint64_t>(in.imm)); break;
    // Shifts are the one ALU family where 64-bit arithmetic plus
    // truncation is NOT mod-2^32 correct (bits shift in from above), so
    // RV32 takes explicit 32-bit paths with 5-bit shift amounts.
    case Op::kSlli:
      if constexpr (kRv32) {
        wb(static_cast<uint64_t>(static_cast<uint32_t>(rs1())
                                 << (in.imm & 31)));
      } else {
        wb(rs1() << (in.imm & 63));
      }
      break;
    case Op::kSrli:
      if constexpr (kRv32) {
        wb(static_cast<uint64_t>(static_cast<uint32_t>(rs1()) >>
                                 (in.imm & 31)));
      } else {
        wb(rs1() >> (in.imm & 63));
      }
      break;
    case Op::kSrai:
      if constexpr (kRv32) {
        wb(static_cast<uint64_t>(
            static_cast<int32_t>(static_cast<uint32_t>(rs1())) >>
            (in.imm & 31)));
      } else {
        wb(static_cast<uint64_t>(static_cast<int64_t>(rs1()) >>
                                 (in.imm & 63)));
      }
      break;

    case Op::kAdd: wb(rs1() + rs2()); break;
    case Op::kSub: wb(rs1() - rs2()); break;
    case Op::kSll:
      if constexpr (kRv32) {
        wb(static_cast<uint64_t>(static_cast<uint32_t>(rs1())
                                 << (rs2() & 31)));
      } else {
        wb(rs1() << (rs2() & 63));
      }
      break;
    case Op::kSlt:
      wb(static_cast<int64_t>(rs1()) < static_cast<int64_t>(rs2()) ? 1 : 0);
      break;
    case Op::kSltu: wb(rs1() < rs2() ? 1 : 0); break;
    case Op::kXor: wb(rs1() ^ rs2()); break;
    case Op::kSrl:
      if constexpr (kRv32) {
        wb(static_cast<uint64_t>(static_cast<uint32_t>(rs1()) >>
                                 (rs2() & 31)));
      } else {
        wb(rs1() >> (rs2() & 63));
      }
      break;
    case Op::kSra:
      if constexpr (kRv32) {
        wb(static_cast<uint64_t>(
            static_cast<int32_t>(static_cast<uint32_t>(rs1())) >>
            (rs2() & 31)));
      } else {
        wb(static_cast<uint64_t>(static_cast<int64_t>(rs1()) >>
                                 (rs2() & 63)));
      }
      break;
    case Op::kOr: wb(rs1() | rs2()); break;
    case Op::kAnd: wb(rs1() & rs2()); break;

    case Op::kAddiw:
      wb(static_cast<uint64_t>(static_cast<int32_t>(
          static_cast<uint32_t>(rs1()) + static_cast<uint32_t>(in.imm))));
      break;
    case Op::kSlliw:
      wb(static_cast<uint64_t>(static_cast<int32_t>(
          static_cast<uint32_t>(rs1()) << (in.imm & 31))));
      break;
    case Op::kSrliw:
      wb(static_cast<uint64_t>(static_cast<int32_t>(
          static_cast<uint32_t>(rs1()) >> (in.imm & 31))));
      break;
    case Op::kSraiw:
      wb(static_cast<uint64_t>(
          static_cast<int32_t>(rs1()) >> (in.imm & 31)));
      break;
    case Op::kAddw:
      wb(static_cast<uint64_t>(static_cast<int32_t>(
          static_cast<uint32_t>(rs1()) + static_cast<uint32_t>(rs2()))));
      break;
    case Op::kSubw:
      wb(static_cast<uint64_t>(static_cast<int32_t>(
          static_cast<uint32_t>(rs1()) - static_cast<uint32_t>(rs2()))));
      break;
    case Op::kSllw:
      wb(static_cast<uint64_t>(static_cast<int32_t>(
          static_cast<uint32_t>(rs1()) << (rs2() & 31))));
      break;
    case Op::kSrlw:
      wb(static_cast<uint64_t>(static_cast<int32_t>(
          static_cast<uint32_t>(rs1()) >> (rs2() & 31))));
      break;
    case Op::kSraw:
      wb(static_cast<uint64_t>(
          static_cast<int32_t>(rs1()) >> (rs2() & 31)));
      break;

    case Op::kMul:
      stats.cycles += timing_.mul_extra_cycles;
      wb(rs1() * rs2());
      break;
    case Op::kMulh:
      stats.cycles += timing_.mul_extra_cycles;
      wb(static_cast<uint64_t>(SignedMulHigh(static_cast<int64_t>(rs1()),
                                             static_cast<int64_t>(rs2()))));
      break;
    case Op::kMulhsu:
      stats.cycles += timing_.mul_extra_cycles;
      wb(static_cast<uint64_t>(
          SignedUnsignedMulHigh(static_cast<int64_t>(rs1()), rs2())));
      break;
    case Op::kMulhu:
      stats.cycles += timing_.mul_extra_cycles;
      wb(UnsignedMulHigh(rs1(), rs2()));
      break;
    case Op::kDiv: {
      stats.cycles += timing_.div_extra_cycles;
      const int64_t a = static_cast<int64_t>(rs1());
      const int64_t b = static_cast<int64_t>(rs2());
      if (b == 0) {
        wb(~uint64_t{0});
      } else if (a == INT64_MIN && b == -1) {
        wb(static_cast<uint64_t>(a));
      } else {
        wb(static_cast<uint64_t>(a / b));
      }
      break;
    }
    case Op::kDivu:
      stats.cycles += timing_.div_extra_cycles;
      wb(rs2() == 0 ? ~uint64_t{0} : rs1() / rs2());
      break;
    case Op::kRem: {
      stats.cycles += timing_.div_extra_cycles;
      const int64_t a = static_cast<int64_t>(rs1());
      const int64_t b = static_cast<int64_t>(rs2());
      if (b == 0) {
        wb(static_cast<uint64_t>(a));
      } else if (a == INT64_MIN && b == -1) {
        wb(0);
      } else {
        wb(static_cast<uint64_t>(a % b));
      }
      break;
    }
    case Op::kRemu:
      stats.cycles += timing_.div_extra_cycles;
      wb(rs2() == 0 ? rs1() : rs1() % rs2());
      break;
    case Op::kMulw:
      stats.cycles += timing_.mul_extra_cycles;
      wb(static_cast<uint64_t>(static_cast<int32_t>(
          static_cast<uint32_t>(rs1()) * static_cast<uint32_t>(rs2()))));
      break;
    case Op::kDivw: {
      stats.cycles += timing_.div_extra_cycles;
      const int32_t a = static_cast<int32_t>(rs1());
      const int32_t b = static_cast<int32_t>(rs2());
      int32_t r;
      if (b == 0) {
        r = -1;
      } else if (a == INT32_MIN && b == -1) {
        r = a;
      } else {
        r = a / b;
      }
      wb(static_cast<uint64_t>(static_cast<int64_t>(r)));
      break;
    }
    case Op::kDivuw: {
      stats.cycles += timing_.div_extra_cycles;
      const uint32_t a = static_cast<uint32_t>(rs1());
      const uint32_t b = static_cast<uint32_t>(rs2());
      const uint32_t r = (b == 0) ? ~uint32_t{0} : a / b;
      wb(static_cast<uint64_t>(static_cast<int64_t>(static_cast<int32_t>(r))));
      break;
    }
    case Op::kRemw: {
      stats.cycles += timing_.div_extra_cycles;
      const int32_t a = static_cast<int32_t>(rs1());
      const int32_t b = static_cast<int32_t>(rs2());
      int32_t r;
      if (b == 0) {
        r = a;
      } else if (a == INT32_MIN && b == -1) {
        r = 0;
      } else {
        r = a % b;
      }
      wb(static_cast<uint64_t>(static_cast<int64_t>(r)));
      break;
    }
    case Op::kRemuw: {
      stats.cycles += timing_.div_extra_cycles;
      const uint32_t a = static_cast<uint32_t>(rs1());
      const uint32_t b = static_cast<uint32_t>(rs2());
      const uint32_t r = (b == 0) ? a : a % b;
      wb(static_cast<uint64_t>(static_cast<int64_t>(static_cast<int32_t>(r))));
      break;
    }

    case Op::kLrW:
    case Op::kLrD: {
      ++stats.loads;
      const uint64_t addr = rs1();
      stats.cycles += dcache_.Access(addr);
      const int size = (in.op == Op::kLrW) ? 4 : 8;
      uint64_t value = memory_.Read(addr, size);
      if (in.op == Op::kLrW) {
        value = static_cast<uint64_t>(static_cast<int32_t>(value));
      }
      wb(value);
      reservation_addr_ = addr;
      reservation_valid_ = true;
      break;
    }
    case Op::kScW:
    case Op::kScD: {
      ++stats.stores;
      const uint64_t addr = rs1();
      stats.cycles += dcache_.Access(addr);
      if (reservation_valid_ && reservation_addr_ == addr) {
        const int size = in.op == Op::kScW ? 4 : 8;
        memory_.Write(addr, rs2(), size);
        NoteWrite(addr, size);
        wb(0);  // success
      } else {
        wb(1);  // failure
      }
      reservation_valid_ = false;
      break;
    }
    case Op::kAmoSwapW: case Op::kAmoAddW: case Op::kAmoXorW:
    case Op::kAmoAndW: case Op::kAmoOrW: case Op::kAmoMinW:
    case Op::kAmoMaxW: case Op::kAmoMinuW: case Op::kAmoMaxuW:
    case Op::kAmoSwapD: case Op::kAmoAddD: case Op::kAmoXorD:
    case Op::kAmoAndD: case Op::kAmoOrD: case Op::kAmoMinD:
    case Op::kAmoMaxD: case Op::kAmoMinuD: case Op::kAmoMaxuD: {
      ++stats.loads;
      ++stats.stores;
      const uint64_t addr = rs1();
      stats.cycles += dcache_.Access(addr) + 1;  // read-modify-write beat
      const bool is_w =
          in.op >= Op::kAmoSwapW && in.op <= Op::kAmoMaxuW;
      const int size = is_w ? 4 : 8;
      uint64_t old_raw = memory_.Read(addr, size);
      if (is_w) {
        old_raw = static_cast<uint64_t>(static_cast<int32_t>(old_raw));
      }
      const uint64_t src = rs2();
      const int64_t old_s = static_cast<int64_t>(old_raw);
      const int64_t src_s = static_cast<int64_t>(
          is_w ? static_cast<uint64_t>(static_cast<int32_t>(src)) : src);
      uint64_t result = 0;
      switch (in.op) {
        case Op::kAmoSwapW: case Op::kAmoSwapD: result = src; break;
        case Op::kAmoAddW: case Op::kAmoAddD: result = old_raw + src; break;
        case Op::kAmoXorW: case Op::kAmoXorD: result = old_raw ^ src; break;
        case Op::kAmoAndW: case Op::kAmoAndD: result = old_raw & src; break;
        case Op::kAmoOrW: case Op::kAmoOrD: result = old_raw | src; break;
        case Op::kAmoMinW: case Op::kAmoMinD:
          result = old_s < src_s ? old_raw : src;
          break;
        case Op::kAmoMaxW: case Op::kAmoMaxD:
          result = old_s > src_s ? old_raw : src;
          break;
        case Op::kAmoMinuW:
          result = static_cast<uint32_t>(old_raw) <
                           static_cast<uint32_t>(src)
                       ? old_raw
                       : src;
          break;
        case Op::kAmoMinuD: result = old_raw < src ? old_raw : src; break;
        case Op::kAmoMaxuW:
          result = static_cast<uint32_t>(old_raw) >
                           static_cast<uint32_t>(src)
                       ? old_raw
                       : src;
          break;
        case Op::kAmoMaxuD: result = old_raw > src ? old_raw : src; break;
        default: break;
      }
      memory_.Write(addr, result, size);
      NoteWrite(addr, size);
      wb(old_raw);
      break;
    }

    case Op::kFence: break;  // single hart: no-op
    case Op::kEcall:
      // Convention: a7=93 is exit(a0) (Linux-like); any other ecall also
      // halts — the bare-metal workloads only use exit.
      halt_ = HaltReason::kExit;
      exit_code_ = static_cast<int64_t>(regs_[10]);
      return false;
    case Op::kEbreak:
      halt_ = HaltReason::kEbreak;
      return false;

    case Op::kCsrrw: case Op::kCsrrs: case Op::kCsrrc:
    case Op::kCsrrwi: case Op::kCsrrsi: case Op::kCsrrci: {
      // Minimal CSR file: cycle (0xC00) and instret (0xC02) reads; writes
      // are ignored (machine-mode configuration is out of scope). instret
      // counts *retired* instructions, which excludes the reader itself.
      uint64_t value = 0;
      if (in.imm == 0xC00) value = stats.cycles;
      if (in.imm == 0xC02) value = stats.instructions - 1;
      wb(value);
      break;
    }

    case Op::kInvalid:
      halt_ = HaltReason::kInvalidInstruction;
      return false;
  }

  if (redirected) {
    stats.cycles += timing_.taken_branch_penalty;
    // RV32: jalr targets come from sign-extended registers; masking
    // recovers the true 32-bit address.
    pc_ = kRv32 ? (redirect & 0xFFFFFFFF) : redirect;
  } else {
    pc_ = next_pc;
  }
  return true;
}

template <bool kRv32>
void Cpu::RunLoop(ExecStats& out, uint64_t max_instructions) {
  // A local the core's memory writes cannot alias, so the counters stay
  // in registers across the loop.
  ExecStats stats;
  while (stats.instructions < max_instructions) {
    if (!Step<kRv32>(stats)) break;
  }
  out = stats;
}

ExecStats Cpu::Run(const ExecLimits& limits) {
  // The caches count over their lifetime; this run reports its own share.
  const CacheStats icache_before = icache_.stats();
  const CacheStats dcache_before = dcache_.stats();
  ExecStats stats;
  if (rv32_) {
    RunLoop<true>(stats, limits.max_instructions);
  } else {
    RunLoop<false>(stats, limits.max_instructions);
  }
  if (halt_ == HaltReason::kNone) halt_ = HaltReason::kInstructionLimit;
  stats.halt_reason = halt_;
  stats.exit_code = exit_code_;
  stats.final_pc = pc_;
  stats.icache = {icache_.stats().hits - icache_before.hits,
                  icache_.stats().misses - icache_before.misses};
  stats.dcache = {dcache_.stats().hits - dcache_before.hits,
                  dcache_.stats().misses - dcache_before.misses};
  return stats;
}

}  // namespace eric::sim
