// The traced replay: drives each target through the library calls
// DeploymentEngine::DeployOne makes, in the same order, with a span
// around each, and splits the device step on a benchmark-owned twin.
//
// Per target (trace id = release index << 32 | device):
//   target
//     fleet.sealing_context   DeviceRegistry::SealingContextFor
//     cache.get_or_build      PackageCache::GetOrBuild (memoized per key)
//     cache.get_or_build_delta  base GetOrBuild + GetOrBuildDelta
//     fleet.attempts          the retry loop (what latency_us times)
//       net.deliver           Channel::Deliver / FleetServer::Deliver
//       fleet.dispatch        DeviceRegistry::Dispatch / DispatchDelta
//       store.record_delivery DeviceRegistry::RecordDelivery
// and, outside the target's time, once per dispatched delivery:
//   twin.attempt
//     pkg.apply_delta         pkg::ApplyDelta on the twin's active slot
//     agent.apply             UpdateAgent::Apply
//       agent.health          its health callback
//         core.hde            HardwareDecryptionEngine::DecryptAndValidate
//         sim.exec            TrustedDevice::RunPlaintext
//
// The twin is a TrustedDevice + UpdateAgent with the device's seed, ISA
// and conversion mask, fed the same delivered bytes, with its slot
// manifests on the same filesystem as the registry's.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "agent/update_agent.h"
#include "core/trusted_execution.h"
#include "rig.h"

namespace perfbench {

/// What the replay observed for one target.
struct TargetReplay {
  uint64_t trace = 0;
  DeviceId device = 0;
  eric::isa::IsaId isa = eric::isa::IsaId::kRv64Gc;
  // The untraced campaign's DeviceOutcome fields the fidelity check
  // compares.
  bool ok = false;
  uint32_t attempts = 0;
  bool delta = false;
  uint64_t bytes = 0;
  int64_t exit_code = 0;
  uint64_t device_cycles = 0;
  // Twin exact counts of the delivery that ran.
  bool twin_ran = false;
  int64_t twin_exit_code = 0;
  uint64_t twin_device_cycles = 0;
  eric::sim::ExecStats exec;
  uint64_t hde_cycles = 0;
  // Delta bytes and the full package they stood in for, per delta
  // delivery made.
  uint64_t delta_bytes_shipped = 0;
  uint64_t delta_full_equivalent = 0;
};

/// Build work the replay's cache misses performed.
struct BuildRecord {
  double compile_ms = 0;  ///< 0 when the compile was a level-1 hit
  double seal_ms = 0;
};

/// Twin-level counters summed over a replay.
struct TwinTotals {
  uint64_t hde_calls = 0;
  uint64_t hde_rejects = 0;
};

class Replayer {
 public:
  /// Creates a twin for every device of `fleet`. `twin_dir` holds the
  /// twins' slot manifests; empty keeps them in memory.
  Replayer(Fleet& fleet, const std::string& twin_dir);

  /// Replays one release with the workload's worker count. Records are
  /// in target order.
  std::vector<TargetReplay> Replay(const Release& release);

  const std::vector<BuildRecord>& builds() const { return builds_; }
  const std::vector<double>& delta_encode_ms() const { return delta_encode_ms_; }
  TwinTotals twin_totals() const;

 private:
  struct Twin {
    std::unique_ptr<eric::core::TrustedDevice> device;
    std::unique_ptr<eric::agent::UpdateAgent> agent;
    uint64_t hde_calls = 0;
    uint64_t hde_rejects = 0;
  };
  struct Memo;
  struct Delivered;

  TargetReplay ReplayTarget(const eric::fleet::CampaignConfig& config,
                            const Release& release, DeviceId device,
                            Memo& memo);
  void RunTwin(Twin& twin, uint64_t trace, const Delivered& delivered,
               TargetReplay& out);

  Fleet& fleet_;
  std::map<DeviceId, Twin> twins_;  ///< fixed after construction
  std::mutex records_mutex_;
  std::vector<BuildRecord> builds_;      // guarded by records_mutex_
  std::vector<double> delta_encode_ms_;  // guarded by records_mutex_
};

}  // namespace perfbench
