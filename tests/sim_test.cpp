// Tests for the SoC simulator: functional semantics via assembly programs,
// cache behaviour, MMIO devices, timing-model invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "compiler/compiler.h"
#include "isa/assembler.h"
#include "isa/encoder.h"
#include "sim/cache.h"
#include "sim/cpu.h"
#include "sim/memory.h"
#include "sim/soc.h"
#include "workloads/workloads.h"

namespace eric::sim {
namespace {

using isa::Assemble;
using isa::EncodeProgram;

// Assembles and runs a program; returns the exec stats. Programs end with
// `ecall` (halt, exit code = a0).
ExecStats RunAsm(const std::string& source, uint64_t arg0 = 0,
                 uint64_t arg1 = 0, bool compress = false) {
  auto assembled = Assemble(source);
  EXPECT_TRUE(assembled.ok()) << assembled.status().ToString();
  std::vector<uint8_t> bytes;
  auto offsets = EncodeProgram(assembled->instructions, compress, bytes);
  EXPECT_TRUE(offsets.ok()) << offsets.status().ToString();
  Soc soc;
  soc.LoadProgram(bytes);
  return soc.Run(kRamBase, arg0, arg1);
}

TEST(MemoryTest, ReadBackWrites) {
  Memory m;
  m.Write(0x8000'0000, 0x1122334455667788ull, 8);
  EXPECT_EQ(m.Read(0x8000'0000, 8), 0x1122334455667788ull);
  EXPECT_EQ(m.Read(0x8000'0000, 4), 0x55667788ull);
  EXPECT_EQ(m.Read(0x8000'0004, 4), 0x11223344ull);
  EXPECT_EQ(m.Read(0x8000'0000, 1), 0x88ull);
}

TEST(MemoryTest, UnmappedReadsZero) {
  Memory m;
  EXPECT_EQ(m.Read(0x1234'5678, 8), 0u);
  EXPECT_EQ(m.ResidentPages(), 0u);
}

TEST(MemoryTest, CrossPageBlock) {
  Memory m;
  std::vector<uint8_t> data(10000);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<uint8_t>(i);
  m.WriteBlock(0x8000'0F00, data);
  EXPECT_EQ(m.ReadBlock(0x8000'0F00, data.size()), data);
  EXPECT_GE(m.ResidentPages(), 3u);
}

TEST(CacheTest, RepeatAccessHits) {
  Cache c;
  c.Access(0x1000);           // miss
  const uint32_t t = c.Access(0x1000);  // hit
  EXPECT_EQ(c.stats().hits, 1u);
  EXPECT_EQ(c.stats().misses, 1u);
  EXPECT_EQ(t, c.config().hit_cycles);
}

TEST(CacheTest, SameLineHits) {
  Cache c;
  c.Access(0x1000);
  c.Access(0x103F);  // same 64-byte line
  EXPECT_EQ(c.stats().hits, 1u);
}

TEST(CacheTest, LruEviction) {
  CacheConfig cfg;
  cfg.size_bytes = 4 * 64;  // 1 set x 4 ways... make sets=1
  cfg.ways = 4;
  cfg.line_bytes = 64;
  Cache c(cfg);
  // Fill 4 ways of set 0.
  for (uint64_t i = 0; i < 4; ++i) c.Access(i * 64);
  c.Access(0);          // touch line 0 (most recent)
  c.Access(4 * 64);     // evicts LRU = line 1
  EXPECT_EQ(c.Access(0), cfg.hit_cycles);           // still resident
  EXPECT_EQ(c.Access(1 * 64), cfg.miss_cycles);     // was evicted
}

TEST(CacheTest, FlushInvalidatesAll) {
  Cache c;
  c.Access(0x2000);
  c.Flush();
  c.Access(0x2000);
  EXPECT_EQ(c.stats().misses, 2u);
}

TEST(CacheTest, MissRate) {
  Cache c;
  c.Access(0);
  c.Access(0);
  c.Access(0);
  c.Access(64);
  EXPECT_DOUBLE_EQ(c.stats().miss_rate(), 0.5);
}

// --- Core functional tests -----------------------------------------------

TEST(CpuTest, ArithmeticAndExit) {
  const ExecStats stats = RunAsm(R"(
    li a0, 5
    addi a0, a0, 37
    ecall
  )");
  EXPECT_EQ(stats.halt_reason, HaltReason::kExit);
  EXPECT_EQ(stats.exit_code, 42);
}

TEST(CpuTest, ArgumentsArriveInA0A1) {
  const ExecStats stats = RunAsm(R"(
    add a0, a0, a1
    ecall
  )", 30, 12);
  EXPECT_EQ(stats.exit_code, 42);
}

TEST(CpuTest, LoopCountsCorrectly) {
  const ExecStats stats = RunAsm(R"(
    li t0, 100
    li a0, 0
  loop:
    addi a0, a0, 2
    addi t0, t0, -1
    bnez t0, loop
    ecall
  )");
  EXPECT_EQ(stats.exit_code, 200);
  EXPECT_GT(stats.taken_branches, 90u);
}

TEST(CpuTest, MemoryRoundtrip) {
  const ExecStats stats = RunAsm(R"(
    li t0, 0x1234
    sd t0, -16(sp)
    ld a0, -16(sp)
    ecall
  )");
  EXPECT_EQ(stats.exit_code, 0x1234);
}

TEST(CpuTest, ByteAndHalfAccess) {
  const ExecStats stats = RunAsm(R"(
    li t0, 0x1ff
    sb t0, -8(sp)      # stores 0xff
    lbu a0, -8(sp)
    ecall
  )");
  EXPECT_EQ(stats.exit_code, 0xFF);
}

TEST(CpuTest, SignExtendingLoads) {
  const ExecStats stats = RunAsm(R"(
    li t0, 0x80
    sb t0, -8(sp)
    lb a0, -8(sp)      # sign-extends to -128
    ecall
  )");
  EXPECT_EQ(stats.exit_code, -128);
}

TEST(CpuTest, MulDiv) {
  const ExecStats stats = RunAsm(R"(
    li t0, 6
    li t1, 7
    mul a0, t0, t1
    ecall
  )");
  EXPECT_EQ(stats.exit_code, 42);
}

TEST(CpuTest, DivByZeroFollowsSpec) {
  const ExecStats stats = RunAsm(R"(
    li t0, 5
    li t1, 0
    div a0, t0, t1     # RISC-V: -1 on divide by zero
    ecall
  )");
  EXPECT_EQ(stats.exit_code, -1);
}

TEST(CpuTest, RemByZeroReturnsDividend) {
  const ExecStats stats = RunAsm(R"(
    li t0, 5
    li t1, 0
    rem a0, t0, t1
    ecall
  )");
  EXPECT_EQ(stats.exit_code, 5);
}

TEST(CpuTest, DivOverflowCase) {
  // INT64_MIN / -1 must return INT64_MIN (no trap).
  const ExecStats stats = RunAsm(R"(
    li t0, 1
    slli t0, t0, 63    # INT64_MIN
    li t1, -1
    div a0, t0, t1
    srli a0, a0, 63    # isolate the sign bit: expect 1
    ecall
  )");
  EXPECT_EQ(stats.exit_code, 1);
}

TEST(CpuTest, CallAndReturn) {
  const ExecStats stats = RunAsm(R"(
    call double_it
    ecall
  double_it:
    slli a0, a0, 1
    ret
  )", 21);
  EXPECT_EQ(stats.exit_code, 42);
}

TEST(CpuTest, ShiftsAndLogic) {
  const ExecStats stats = RunAsm(R"(
    li t0, 0xF0
    li t1, 0x0F
    or t2, t0, t1      # 0xFF
    xor t2, t2, t1     # 0xF0
    srli a0, t2, 4     # 0x0F
    ecall
  )");
  EXPECT_EQ(stats.exit_code, 0x0F);
}

TEST(CpuTest, SltVariants) {
  const ExecStats stats = RunAsm(R"(
    li t0, -1
    li t1, 1
    slt t2, t0, t1     # 1 (signed)
    sltu t3, t0, t1    # 0 (unsigned: t0 is huge)
    slli t2, t2, 1
    or a0, t2, t3      # expect 2
    ecall
  )");
  EXPECT_EQ(stats.exit_code, 2);
}

TEST(CpuTest, WordOps32BitWrap) {
  const ExecStats stats = RunAsm(R"(
    li t0, 0x7fffffff
    addiw a0, t0, 1     # wraps to INT32_MIN, sign-extended
    srai a0, a0, 31     # all ones
    andi a0, a0, 1
    ecall
  )");
  EXPECT_EQ(stats.exit_code, 1);
}

TEST(CpuTest, EbreakHalts) {
  const ExecStats stats = RunAsm("ebreak\n");
  EXPECT_EQ(stats.halt_reason, HaltReason::kEbreak);
}

TEST(CpuTest, InvalidInstructionHalts) {
  Soc soc;
  const std::vector<uint8_t> junk = {0xFF, 0xFF, 0xFF, 0xFF};
  soc.LoadProgram(junk);
  const ExecStats stats = soc.Run();
  EXPECT_EQ(stats.halt_reason, HaltReason::kInvalidInstruction);
}

TEST(CpuTest, InstructionLimitStopsRunaway) {
  ExecLimits limits;
  limits.max_instructions = 1000;
  auto assembled = Assemble("loop: j loop\n");
  ASSERT_TRUE(assembled.ok());
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(EncodeProgram(assembled->instructions, false, bytes).ok());
  Soc soc;
  soc.LoadProgram(bytes);
  const ExecStats stats = soc.Run(kRamBase, 0, 0, limits);
  EXPECT_EQ(stats.halt_reason, HaltReason::kInstructionLimit);
  EXPECT_EQ(stats.instructions, 1000u);
}

TEST(CpuTest, CompressedProgramRunsIdentically) {
  // Straight-line only: the assembler resolves labels assuming 4-byte
  // encodings, so branchy code must use compress=false (the compiler's
  // backend, which relaxes layout, owns the compressed-branch case).
  const std::string source = R"(
    li t0, 10
    li a0, 0
    add a0, a0, t0
    addi t0, t0, -3
    add a0, a0, t0
    ecall
  )";
  const ExecStats wide = RunAsm(source, 0, 0, /*compress=*/false);
  const ExecStats narrow = RunAsm(source, 0, 0, /*compress=*/true);
  EXPECT_EQ(wide.exit_code, 17);
  EXPECT_EQ(narrow.exit_code, 17);
  EXPECT_EQ(wide.instructions, narrow.instructions);
}

// --- MMIO devices -----------------------------------------------------------

TEST(SocTest, ConsoleOutput) {
  auto assembled = Assemble(R"(
    li t0, 0x10000000
    li t1, 72          # 'H'
    sb t1, 0(t0)
    li t1, 105         # 'i'
    sb t1, 0(t0)
    ecall
  )");
  ASSERT_TRUE(assembled.ok());
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(EncodeProgram(assembled->instructions, false, bytes).ok());
  Soc soc;
  soc.LoadProgram(bytes);
  soc.Run();
  EXPECT_EQ(soc.console_output(), "Hi");
}

TEST(SocTest, ExitDeviceHaltsWithCode) {
  auto assembled = Assemble(R"(
    li t0, 0x10000000
    li t1, 7
    sd t1, 8(t0)
    li a0, 99          # never reached
    ecall
  )");
  ASSERT_TRUE(assembled.ok());
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(EncodeProgram(assembled->instructions, false, bytes).ok());
  Soc soc;
  soc.LoadProgram(bytes);
  const ExecStats stats = soc.Run();
  EXPECT_EQ(stats.halt_reason, HaltReason::kExit);
  EXPECT_EQ(stats.exit_code, 7);
}

// --- Timing model invariants -------------------------------------------------

TEST(TimingTest, CyclesAtLeastInstructions) {
  const ExecStats stats = RunAsm(R"(
    li t0, 50
  loop:
    addi t0, t0, -1
    bnez t0, loop
    ecall
  )");
  EXPECT_GE(stats.cycles, stats.instructions);
}

TEST(TimingTest, DivSlowerThanAdd) {
  const std::string adds = R"(
    li t0, 200
  loop:
    add t1, t1, t0
    addi t0, t0, -1
    bnez t0, loop
    ecall
  )";
  const std::string divs = R"(
    li t0, 200
  loop:
    div t1, t1, t0
    addi t0, t0, -1
    bnez t0, loop
    ecall
  )";
  const ExecStats a = RunAsm(adds);
  const ExecStats d = RunAsm(divs);
  EXPECT_EQ(a.instructions, d.instructions);
  EXPECT_GT(d.cycles, a.cycles);
}

TEST(TimingTest, IcacheWarmsUp) {
  const ExecStats stats = RunAsm(R"(
    li t0, 1000
  loop:
    addi t0, t0, -1
    bnez t0, loop
    ecall
  )");
  // The tight loop fits in one or two I-cache lines: hit rate near 100 %.
  EXPECT_LT(stats.icache.miss_rate(), 0.01);
}

TEST(TimingTest, ColdDcacheMissesThenHits) {
  const ExecStats stats = RunAsm(R"(
    li t0, 64
    li t1, 0x20000
  loop:
    ld t2, 0(t1)
    addi t0, t0, -1
    bnez t0, loop
    ecall
  )");
  EXPECT_EQ(stats.dcache.misses, 1u);  // one cold miss, then hits
  EXPECT_EQ(stats.dcache.hits, 63u);
}

// --- RV32I execution mode ---------------------------------------------------

// Assembles and runs a program on an RV32I core. Programs are encoded
// uncompressed (RV32I has no C extension); the base-format encodings are
// shared with RV64, so the plain encoder produces valid RV32 words for
// RV32-legal instructions.
ExecStats RunAsmRv32(const std::string& source, uint64_t arg0 = 0,
                     uint64_t arg1 = 0) {
  auto assembled = Assemble(source);
  EXPECT_TRUE(assembled.ok()) << assembled.status().ToString();
  std::vector<uint8_t> bytes;
  auto offsets =
      EncodeProgram(assembled->instructions, /*compress=*/false, bytes);
  EXPECT_TRUE(offsets.ok()) << offsets.status().ToString();
  Soc soc({}, isa::IsaId::kRv32I);
  soc.LoadProgram(bytes);
  return soc.Run(kRamBase, arg0, arg1);
}

TEST(Rv32ExecTest, ArithmeticWrapsAtThirtyTwoBits) {
  // -2^31 + -2^31 = -2^32, which is 0 mod 2^32. A 64-bit core would
  // return -2^32; the RV32 core must re-canonicalize to 0.
  const ExecStats stats = RunAsmRv32(R"(
    lui a0, -0x80000
    add a0, a0, a0
    ecall
  )");
  EXPECT_EQ(stats.halt_reason, HaltReason::kExit);
  EXPECT_EQ(stats.exit_code, 0);
}

TEST(Rv32ExecTest, RegistersHoldSignExtendedThirtyTwoBitValues) {
  // lui -0x80000 loads INT32_MIN; srai by 31 smears the sign bit.
  const ExecStats stats = RunAsmRv32(R"(
    lui a0, -0x80000
    srai a0, a0, 31
    ecall
  )");
  EXPECT_EQ(stats.halt_reason, HaltReason::kExit);
  EXPECT_EQ(stats.exit_code, -1);
}

TEST(Rv32ExecTest, LogicalShiftRightIsThirtyTwoBitWide) {
  // 0xFFFFFFFF >> 4 must be 0x0FFFFFFF on a 32-bit core. The 64-bit
  // shift-then-truncate shortcut would produce 0xFFFFFFFF (the high
  // sign-extension bits shifting back in), so this pins the explicit
  // 32-bit path.
  const ExecStats stats = RunAsmRv32(R"(
    li a0, -1
    srli a0, a0, 4
    ecall
  )");
  EXPECT_EQ(stats.halt_reason, HaltReason::kExit);
  EXPECT_EQ(stats.exit_code, 0x0FFFFFFF);
}

TEST(Rv32ExecTest, UnsignedCompareSeesThirtyTwoBitOrdering) {
  // On RV32, -1 is the largest unsigned value; sltu must agree even
  // though registers hold the sign-extended 64-bit pattern internally.
  const ExecStats stats = RunAsmRv32(R"(
    li t0, -1
    li t1, 1
    sltu a0, t1, t0
    ecall
  )");
  EXPECT_EQ(stats.halt_reason, HaltReason::kExit);
  EXPECT_EQ(stats.exit_code, 1);
}

TEST(Rv32ExecTest, WordLoadStoreRoundtrip) {
  const ExecStats stats = RunAsmRv32(R"(
    li t0, 0x20000
    lui t1, 0x12345
    addi t1, t1, 0x678
    sw t1, 0(t0)
    lw a0, 0(t0)
    ecall
  )");
  EXPECT_EQ(stats.halt_reason, HaltReason::kExit);
  EXPECT_EQ(stats.exit_code, 0x12345678);
}

TEST(Rv32ExecTest, SixtyFourBitOnlyInstructionHaltsCore) {
  // `ld` is a valid RV64 encoding but illegal on RV32I: the core must
  // halt fail-closed, never misread it as a different width.
  const ExecStats stats = RunAsmRv32(R"(
    li t1, 0x20000
    ld a0, 0(t1)
    ecall
  )");
  EXPECT_EQ(stats.halt_reason, HaltReason::kInvalidInstruction);
}

TEST(Rv32ExecTest, MultiplyInstructionHaltsCore) {
  // RV32I carries no M extension; a stray `mul` encoding is illegal.
  const ExecStats stats = RunAsmRv32(R"(
    li t0, 6
    li t1, 7
    mul a0, t0, t1
    ecall
  )");
  EXPECT_EQ(stats.halt_reason, HaltReason::kInvalidInstruction);
}

TEST(Rv32ExecTest, CompressedEncodingsHaltCore) {
  // The same program compressed for RV64GC must refuse to execute on an
  // RV32I core (no C extension): fail closed at the first 16-bit word.
  auto assembled = Assemble(R"(
    li a0, 7
    ecall
  )");
  ASSERT_TRUE(assembled.ok());
  std::vector<uint8_t> bytes;
  auto offsets =
      EncodeProgram(assembled->instructions, /*compress=*/true, bytes);
  ASSERT_TRUE(offsets.ok());
  Soc soc({}, isa::IsaId::kRv32I);
  soc.LoadProgram(bytes);
  const ExecStats stats = soc.Run(kRamBase, 0, 0);
  EXPECT_EQ(stats.halt_reason, HaltReason::kInvalidInstruction);
}

TEST(Rv32ExecTest, SameProgramMatchesRv64ForThirtyTwoBitCleanCode) {
  // A 32-bit-clean loop (sum 1..100) must compute the identical result
  // on both cores — the heterogeneity contract the mixed-fleet e2e
  // relies on.
  const std::string source = R"(
    li a0, 0
    li t0, 100
  loop:
    add a0, a0, t0
    addi t0, t0, -1
    bnez t0, loop
    ecall
  )";
  const ExecStats rv64 = RunAsm(source);
  const ExecStats rv32 = RunAsmRv32(source);
  EXPECT_EQ(rv64.halt_reason, HaltReason::kExit);
  EXPECT_EQ(rv32.halt_reason, HaltReason::kExit);
  EXPECT_EQ(rv64.exit_code, 5050);
  EXPECT_EQ(rv32.exit_code, 5050);
}

// --- Fast paths: exact counts, self-modifying code, page crossing, MMIO -----

// Full ExecStats of every workload kernel on each ISA it compiles for,
// recorded from the byte-at-a-time, decode-every-step simulator before the
// page cache, predecode table, MMIO window and same-line cache hit went
// in. Those are speed-ups only: every count must match to the unit.
struct GoldenRun {
  const char* kernel;
  isa::IsaId isa;
  uint64_t instructions, cycles, loads, stores, branches, taken_branches;
  uint64_t icache_hits, icache_misses, dcache_hits, dcache_misses;
  HaltReason halt;
  int64_t exit_code;
};

constexpr GoldenRun kGoldenRuns[] = {
    {"bitcount", isa::IsaId::kRv64Gc,
     1532741, 1814054, 428853, 484254, 53351, 3073,
     1532733, 8, 913100, 6, HaltReason::kExit, 31877},
    {"bitcount", isa::IsaId::kRv32I,
     2446383, 3149803, 428853, 484254, 321707, 164932,
     2446368, 15, 913102, 4, HaltReason::kExit, 31877},
    {"basicmath", isa::IsaId::kRv64Gc,
     392680, 674572, 127267, 117555, 12202, 1201,
     392669, 11, 244814, 7, HaltReason::kExit, 70133},
    {"basicmath", isa::IsaId::kRv32I,
     3465366, 5067708, 127267, 117555, 821320, 678593,
     3465344, 22, 244817, 4, HaltReason::kExit, 70133},
    {"crc32", isa::IsaId::kRv64Gc,
     463860, 559431, 114685, 135169, 18433, 5126,
     463852, 8, 249847, 6, HaltReason::kExit, 80307},
    {"crc32", isa::IsaId::kRv32I,
     655601, 850687, 114685, 135169, 83013, 22595,
     655587, 14, 249849, 4, HaltReason::kExit, -886989},
    {"sha", isa::IsaId::kRv64Gc,
     175163, 195128, 41993, 45070, 513, 1,
     175148, 15, 87054, 8, HaltReason::kExit, 903978},
    {"sha", isa::IsaId::kRv32I,
     270111, 351667, 41993, 45070, 39493, 11328,
     270091, 20, 87057, 5, HaltReason::kExit, -396620},
    {"qsort", isa::IsaId::kRv64Gc,
     288849, 383573, 76812, 67113, 12272, 4271,
     288834, 15, 143776, 148, HaltReason::kExit, 726557},
    {"qsort", isa::IsaId::kRv32I,
     795352, 1117018, 76812, 67113, 154139, 108953,
     795324, 28, 143849, 75, HaltReason::kExit, 726557},
    {"stringsearch", isa::IsaId::kRv64Gc,
     1730318, 2119567, 489274, 407447, 78792, 19955,
     1730308, 10, 896139, 581, HaltReason::kExit, 4090},
    {"stringsearch", isa::IsaId::kRv32I,
     2672330, 3440372, 489274, 407447, 349732, 164882,
     2672312, 18, 896586, 134, HaltReason::kExit, 4090},
    {"dijkstra", isa::IsaId::kRv64Gc,
     1431947, 1735892, 412925, 350982, 56703, 26826,
     1431919, 28, 763812, 94, HaltReason::kExit, 3473},
    {"dijkstra", isa::IsaId::kRv32I,
     2404584, 3175138, 412925, 350982, 338171, 142626,
     2404537, 47, 763859, 47, HaltReason::kExit, 3473},
    {"fft", isa::IsaId::kRv64Gc,
     106520, 186163, 31335, 29419, 1122, 18,
     106509, 11, 60731, 22, HaltReason::kExit, 356261},
    {"fft", isa::IsaId::kRv32I,
     1156534, 1719654, 31335, 29419, 303860, 222565,
     1156513, 21, 60741, 12, HaltReason::kExit, 356261},
    {"adpcm", isa::IsaId::kRv64Gc,
     445016, 633195, 124431, 132125, 17410, 9504,
     444997, 19, 256413, 142, HaltReason::kExit, 356522},
    {"adpcm", isa::IsaId::kRv32I,
     1836019, 2632815, 124431, 132125, 405554, 290316,
     1835985, 34, 256483, 72, HaltReason::kExit, 123166},
};

TEST(FastPathTest, EveryKernelMatchesGoldenExecStats) {
  size_t runs = 0;
  for (const auto& w : workloads::AllWorkloads()) {
    for (isa::IsaId id : {isa::IsaId::kRv64Gc, isa::IsaId::kRv32I}) {
      compiler::CompileOptions options;
      options.isa = id;
      auto compiled = compiler::Compile(w.source, options);
      if (!compiled.ok()) continue;
      const auto* golden = std::find_if(
          std::begin(kGoldenRuns), std::end(kGoldenRuns),
          [&](const GoldenRun& g) {
            return g.kernel == w.name && g.isa == id;
          });
      ASSERT_NE(golden, std::end(kGoldenRuns))
          << w.name << " on " << isa::IsaName(id) << " has no golden row";
      SCOPED_TRACE(w.name + " on " + std::string(isa::IsaName(id)));
      Soc soc({}, id);
      soc.LoadProgram(compiled->program.image);
      const ExecStats s = soc.Run();
      EXPECT_EQ(s.instructions, golden->instructions);
      EXPECT_EQ(s.cycles, golden->cycles);
      EXPECT_EQ(s.loads, golden->loads);
      EXPECT_EQ(s.stores, golden->stores);
      EXPECT_EQ(s.branches, golden->branches);
      EXPECT_EQ(s.taken_branches, golden->taken_branches);
      EXPECT_EQ(s.icache.hits, golden->icache_hits);
      EXPECT_EQ(s.icache.misses, golden->icache_misses);
      EXPECT_EQ(s.dcache.hits, golden->dcache_hits);
      EXPECT_EQ(s.dcache.misses, golden->dcache_misses);
      EXPECT_EQ(s.halt_reason, golden->halt);
      EXPECT_EQ(s.exit_code, golden->exit_code);
      ++runs;
    }
  }
  EXPECT_EQ(runs, std::size(kGoldenRuns));
}

// ExecStats are per run, the cache counts included: a second Run on the
// same Soc reports its own fetches, not the caches' lifetime totals.
TEST(FastPathTest, SecondRunOnOneSocReportsOnlyItsOwnCacheStats) {
  const auto& all = workloads::AllWorkloads();
  const auto bitcount = std::find_if(all.begin(), all.end(), [](const auto& w) {
    return w.name == "bitcount";
  });
  ASSERT_NE(bitcount, all.end());
  auto compiled = compiler::Compile(bitcount->source, {});
  ASSERT_TRUE(compiled.ok());
  Soc soc;
  soc.LoadProgram(compiled->program.image);
  const ExecStats first = soc.Run();
  EXPECT_EQ(first.icache.accesses(), first.instructions);

  ExecLimits limits;
  limits.max_instructions = 1000;
  const ExecStats second = soc.Run(kRamBase, 0, 0, limits);
  EXPECT_EQ(second.instructions, 1000u);
  // One I-cache access per fetched instruction, this run's only.
  EXPECT_EQ(second.icache.hits + second.icache.misses, second.instructions);
  EXPECT_LE(second.dcache.accesses(), 2 * second.instructions);
}

// I-type encoding written from the ISA field layout (an oracle independent
// of isa::Encode32): imm[11:0] | rs1 | funct3 | rd | opcode.
uint32_t EncodeIType(int32_t imm, uint32_t rs1, uint32_t funct3, uint32_t rd,
                     uint32_t opcode) {
  return (static_cast<uint32_t>(imm & 0xFFF) << 20) | (rs1 << 15) |
         (funct3 << 12) | (rd << 7) | opcode;
}

// The patch site is the instruction after the auipc. Each pass runs it,
// then overwrites it with the store given (data in a1); the second pass
// runs the patched code. Branches only go backwards, and the program is
// encoded uncompressed (the assembler lays labels out at 4 bytes each).
std::string PatchLoop(const std::string& patch_store) {
  return R"(
    li a0, 0
    li t1, 2
  loop:
    auipc t0, 0
    addi a0, a0, 1     # patch site: t0 + 4
    )" + patch_store + R"(
    addi t1, t1, -1
    bnez t1, loop
    ecall
  )";
}

constexpr uint32_t kAddiOpcode = 0x13;
constexpr uint32_t kA0 = 10;

TEST(FastPathTest, StoreOverExecutedInstructionIsRefetched) {
  // First pass adds 1; the word store rewrites the site to add 100.
  const uint32_t add100 = EncodeIType(100, kA0, 0, kA0, kAddiOpcode);
  const ExecStats stats = RunAsm(PatchLoop("sw a1, 4(t0)"), 0, add100);
  EXPECT_EQ(stats.halt_reason, HaltReason::kExit);
  EXPECT_EQ(stats.exit_code, 101);
}

TEST(FastPathTest, StoreOverSecondHalfwordIsRefetched) {
  // addi a0,a0,1 and addi a0,a0,100 differ only in imm[11:0], bits 31:20:
  // a halfword store to the site's upper half is the whole patch. The
  // cached entry sits at the site's pc, two bytes below the store.
  const uint32_t add1 = EncodeIType(1, kA0, 0, kA0, kAddiOpcode);
  const uint32_t add100 = EncodeIType(100, kA0, 0, kA0, kAddiOpcode);
  ASSERT_EQ(add1 & 0xFFFF, add100 & 0xFFFF);
  const ExecStats stats = RunAsm(PatchLoop("sh a1, 6(t0)"), 0, add100 >> 16);
  EXPECT_EQ(stats.halt_reason, HaltReason::kExit);
  EXPECT_EQ(stats.exit_code, 101);
}

TEST(FastPathTest, ByteStoreIntoInstructionIsRefetched) {
  // imm[11:4] is the top byte: a byte store at site+3 turns +1 into +65.
  const uint32_t add65 = EncodeIType(65, kA0, 0, kA0, kAddiOpcode);
  const ExecStats stats = RunAsm(PatchLoop("sb a1, 7(t0)"), 0, add65 >> 24);
  EXPECT_EQ(stats.exit_code, 66);
}

TEST(FastPathTest, CompressedSiteIsRefetched) {
  // The site as two 2-byte instructions, c.addi a0, 1 then c.nop (same
  // size, so the loop's label offsets still hold); the halfword store
  // turns the first into c.addi a0, 5.
  constexpr uint16_t kCAddiA0Imm1 = (kA0 << 7) | (1 << 2) | 0b01;
  constexpr uint16_t kCAddiA0Imm5 = (kA0 << 7) | (5 << 2) | 0b01;
  constexpr uint16_t kCNop = 0b01;
  auto assembled = Assemble(PatchLoop("sh a1, 4(t0)"));
  ASSERT_TRUE(assembled.ok()) << assembled.status().ToString();
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(EncodeProgram(assembled->instructions, false, bytes).ok());
  const size_t site = 3 * 4;  // li, li, auipc
  ASSERT_EQ(bytes[site] | bytes[site + 1] << 8,
            EncodeIType(1, kA0, 0, kA0, kAddiOpcode) & 0xFFFF);
  bytes[site] = kCAddiA0Imm1 & 0xFF;
  bytes[site + 1] = kCAddiA0Imm1 >> 8;
  bytes[site + 2] = kCNop & 0xFF;
  bytes[site + 3] = kCNop >> 8;
  Soc soc;
  soc.LoadProgram(bytes);
  const ExecStats stats = soc.Run(kRamBase, 0, kCAddiA0Imm5);
  EXPECT_EQ(stats.halt_reason, HaltReason::kExit);
  EXPECT_EQ(stats.exit_code, 6);
}

TEST(FastPathTest, RerunAfterDirectMemoryWriteSeesNewCode) {
  // Reset empties the predecode table: a program rewritten through
  // Soc::memory() between runs executes as rewritten.
  auto assembled = Assemble("li a0, 1\n ecall\n");
  ASSERT_TRUE(assembled.ok());
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(EncodeProgram(assembled->instructions, false, bytes).ok());
  Soc soc;
  soc.LoadProgram(bytes);
  EXPECT_EQ(soc.Run().exit_code, 1);
  soc.memory().Write(kRamBase, EncodeIType(9, 0, 0, kA0, kAddiOpcode), 4);
  EXPECT_EQ(soc.Run().exit_code, 9);
}

TEST(FastPathTest, PageCrossingAccessesRoundTrip) {
  Memory m;
  const uint64_t edge = kRamBase + Memory::kPageBytes;
  m.Write(edge - 3, 0x1122334455667788ull, 8);  // 3 bytes below, 5 above
  EXPECT_EQ(m.Read(edge - 3, 8), 0x1122334455667788ull);
  EXPECT_EQ(m.Read(edge - 3, 2), 0x7788ull);
  EXPECT_EQ(m.Read(edge - 1, 2), 0x5566ull);  // straddles the edge
  EXPECT_EQ(m.Read(edge, 4), 0x22334455ull);
  EXPECT_EQ(m.ResidentPages(), 2u);
  // Half-mapped: the resident side reads back, the other side as zero,
  // and reading allocates nothing.
  const uint64_t next_edge = edge + 2 * Memory::kPageBytes;
  m.Write(next_edge - 2, 0xBEEF, 2);
  EXPECT_EQ(m.Read(next_edge - 2, 4), 0xBEEFull);
  EXPECT_EQ(m.Read(next_edge - 1, 8), 0xBEull);
  EXPECT_EQ(m.ResidentPages(), 3u);

  // The core: sp = kStackTop is page aligned, so -4(sp) straddles a page.
  const ExecStats stats = RunAsm(R"(
    li t0, 0x3c
    slli t0, t0, 32
    addi t0, t0, 0x2a
    sd t0, -4(sp)
    lw t1, -4(sp)
    lw t2, 0(sp)       # bytes 4..7 of the doubleword: 0x3c
    add a0, t1, t2
    ecall
  )");
  EXPECT_EQ(stats.halt_reason, HaltReason::kExit);
  EXPECT_EQ(stats.exit_code, 0x3c + 0x2a);
}

TEST(FastPathTest, OnlyDeviceWindowAccessesReachMmioHandlers) {
  auto assembled = Assemble(R"(
    li t0, 0x10000000
    li t1, 65
    sb t1, 0(t0)       # console: a device store
    sd t1, -8(sp)      # RAM
    ld t2, -8(sp)      # RAM
    lw t3, 0(t0)       # console: a device load
    sw t1, 4(t0)       # in the window, no device: RAM
    lw t4, 4(t0)
    add a0, t2, t4
    sd a0, 8(t0)       # exit device
  )");
  ASSERT_TRUE(assembled.ok()) << assembled.status().ToString();
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(EncodeProgram(assembled->instructions, false, bytes).ok());

  Memory memory;
  memory.WriteBlock(kRamBase, bytes);
  Cpu cpu(memory);
  cpu.SetCodeRange(kRamBase, bytes.size());
  std::vector<uint64_t> seen;
  std::string console;
  MmioHandlers handlers;
  handlers.base = kConsoleAddr;
  handlers.limit = kExitAddr + 8;
  handlers.store = [&](uint64_t addr, uint64_t value, int) {
    seen.push_back(addr);
    if (addr == kConsoleAddr) console.push_back(static_cast<char>(value));
    if (addr == kExitAddr) cpu.RequestExit(static_cast<int64_t>(value));
    return addr == kConsoleAddr || addr == kExitAddr;
  };
  handlers.load = [&](uint64_t addr, uint64_t* value, int) {
    seen.push_back(addr);
    *value = 0;
    return addr == kConsoleAddr || addr == kExitAddr;
  };
  cpu.set_mmio(std::move(handlers));
  cpu.Reset(kRamBase, kStackTop);
  const ExecStats stats = cpu.Run();

  EXPECT_EQ(stats.halt_reason, HaltReason::kExit);
  EXPECT_EQ(stats.exit_code, 130);
  EXPECT_EQ(console, "A");
  // The two RAM accesses below sp never reached a handler; the window's
  // four did, including the two at kConsoleAddr+4 that no device claims.
  EXPECT_EQ(seen, (std::vector<uint64_t>{kConsoleAddr, kConsoleAddr,
                                         kConsoleAddr + 4, kConsoleAddr + 4,
                                         kExitAddr}));
  EXPECT_EQ(memory.Read(kConsoleAddr + 4, 4), 65u);
}

TEST(FastPathTest, SocDevicesStillWorkBesideRam) {
  const ExecStats stats = RunAsm(R"(
    li t0, 0x10000000
    li t1, 79          # 'O'
    sb t1, 0(t0)
    sd t1, -8(sp)
    ld a0, -8(sp)
    sd a0, 8(t0)       # exit with 79
    li a0, 1           # never runs
    ecall
  )");
  EXPECT_EQ(stats.halt_reason, HaltReason::kExit);
  EXPECT_EQ(stats.exit_code, 79);
}

}  // namespace
}  // namespace eric::sim
