// Trusted execution: HDE validation + SoC execution, end to end.
//
// This is step 5/6 of the paper's workflow (Fig 3): the package reaches
// the SoC, the HDE decrypts and validates it without the program touching
// main memory, and only a validated plaintext image enters the trusted
// zone (RAM) for execution. The HDE's cycles are charged before the first
// instruction executes — the decrypt-at-load model that gives Fig 7 its
// shape.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "core/hde.h"
#include "sim/soc.h"
#include "support/status.h"

namespace eric::core {

/// Result of one trusted run.
struct TrustedRunResult {
  sim::ExecStats exec;        ///< core execution stats
  HdeCycles hde_cycles;       ///< load-path cycles charged by the HDE
  std::string console_output;

  /// End-to-end cycles: HDE load path + execution (what Fig 7 compares).
  uint64_t total_cycles() const { return hde_cycles.total() + exec.cycles; }
};

/// A device: one SoC with an attached HDE. `isa` selects the core's
/// execution mode and the HDE's package gate: a kRv32I device runs a
/// 32-bit core and refuses RV64GC images, and vice versa.
class TrustedDevice {
 public:
  TrustedDevice(uint64_t device_seed, const crypto::KeyConfig& key_config,
                CipherKind cipher = CipherKind::kXor,
                const sim::CpuTiming& timing = {},
                isa::IsaId isa = isa::IsaId::kRv64Gc);

  /// Fab-time enrollment; returns the PUF-based key for the handshake
  /// with software sources.
  crypto::Key256 Enroll() { return hde_.EnrollAndShareKey(); }

  /// Receives a wire-format package, validates it through the HDE, and —
  /// only on success — loads and runs it: `hde().DecryptAndValidate`,
  /// then RunPlaintext on the validated image with the HDE's cycles.
  Result<TrustedRunResult> ReceiveAndRun(std::span<const uint8_t> wire_bytes,
                                         uint64_t arg0 = 0, uint64_t arg1 = 0,
                                         const sim::ExecLimits& limits = {});

  /// Runs a plaintext image directly (no HDE): the Fig 7 baseline, and
  /// the run half of ReceiveAndRun for an image the HDE already
  /// validated. `hde_cycles` is left zero.
  TrustedRunResult RunPlaintext(std::span<const uint8_t> image,
                                uint64_t arg0 = 0, uint64_t arg1 = 0,
                                const sim::ExecLimits& limits = {});

  HardwareDecryptionEngine& hde() { return hde_; }
  isa::IsaId isa() const { return isa_; }

 private:
  HardwareDecryptionEngine hde_;
  sim::CpuTiming timing_;
  isa::IsaId isa_;
};

}  // namespace eric::core
