// The benchmark's workloads and the fleet they run on.
//
// A workload is a fleet shape plus a deterministic train of releases,
// both derived from the seed alone: device seeds, which devices are
// RV32I, fault draws (through the campaign seed) and release mutations.
// A train repeats in laps of identical composition, so any whole number
// of laps gives the same per-target exact counts; a run measures whole
// laps until its time is up.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fleet/deployment_engine.h"
#include "net/server.h"
#include "net/sim_client.h"

namespace perfbench {

using eric::fleet::DeviceId;
using eric::fleet::GroupId;
using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
double SecondsSince(Clock::time_point start);

enum class Kind { kMibenchRollout, kDeltaTrain, kWireTrain };

/// Fleet shape and traffic parameters of one workload.
struct WorkloadSpec {
  Kind kind;
  const char* name;
  size_t groups;
  size_t devices_per_group;
  size_t rv32i_per_group;  ///< exactly this many RV32I devices per group
  size_t groups_per_release;  ///< 0 = every release targets the whole fleet
  bool durable;            ///< the registry has a state directory
  bool wire;               ///< deliveries go over loopback sockets
  const char* policy_name;
  size_t workers;          ///< campaign workers (fixed on every run)
  uint32_t max_attempts;
  double fault_rate;       ///< share of deliveries hit by a bit flip
  size_t lap;              ///< releases per lap of identical composition
  size_t setup_reps;       ///< set-ups per run (setup_s is their median)
  size_t recovery_reps;    ///< recoveries per run (recovery_s likewise)

  size_t devices() const { return groups * devices_per_group; }
  /// Transport event-loop threads the workload starts.
  size_t loop_threads() const { return wire ? 2 : 0; }
  eric::core::EncryptionPolicy policy() const;
};

/// Every workload, in the order BENCHMARK.json lists them.
const std::vector<WorkloadSpec>& AllSpecs();
/// Lookup by name; nullptr when unknown.
const WorkloadSpec* FindSpec(const std::string& name);

/// One release of a train.
struct Release {
  size_t index = 0;          ///< position in the train (base release: 0)
  std::string program;       ///< identity in the pinned-count table
  std::string source;        ///< EricC source, tagged unique per release
  std::string base_source;   ///< delta base; empty ships full packages
  std::vector<DeviceId> targets;  ///< explicit targets; empty = whole fleet
  uint64_t campaign_seed = 0;
};

/// A fleet set up for one workload: registry, cache, engine and, on the
/// wire workload, the server with one connection per device.
class Fleet {
 public:
  Fleet() = default;
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  std::string state_dir;  ///< empty for a memory-only fleet
  std::unique_ptr<eric::fleet::DeviceRegistry> registry;
  std::unique_ptr<eric::fleet::PackageCache> cache;
  std::unique_ptr<eric::fleet::DeploymentEngine> engine;
  std::unique_ptr<eric::net::FleetServer> server;
  std::unique_ptr<eric::net::SimClientFleet> clients;
  std::vector<DeviceId> devices;  ///< enrollment order, group by group

  /// Drops every device's connection and connects the fleet again: stops
  /// the simulated devices, starts a new set for the same devices and
  /// waits until each has completed its handshake. Returns the seconds
  /// from the new set's start until the last handshake.
  eric::Result<double> Reconnect();

  double enroll_s = 0;        ///< Enroll loop (PUF enrollment)
  double connect_s = 0;       ///< SimClientFleet::Start + handshakes
  int64_t rss_growth_kb = 0;  ///< resident set growth across enrollment
};

/// Enrolls the fleet (opening storage first when durable) and starts the
/// transport. Does not deliver anything.
eric::Result<std::unique_ptr<Fleet>> SetUpFleet(const WorkloadSpec& spec,
                                                uint64_t seed,
                                                const std::string& state_dir);

/// The deterministic release train of a workload.
class Train {
 public:
  Train(const WorkloadSpec& spec, uint64_t seed, const Fleet& fleet);

  /// The release applied during set-up, if the workload has one.
  bool has_base() const { return spec_.kind != Kind::kMibenchRollout; }
  const Release& base() const { return base_; }
  /// Release `index` (0-based) of the measured train.
  Release At(size_t index) const;

 private:
  std::string Tagged(const std::string& source, size_t index) const;
  int RoundsAt(size_t index) const;
  uint64_t CampaignSeed(size_t index) const;

  const WorkloadSpec& spec_;
  uint64_t seed_;
  std::vector<DeviceId> devices_;
  std::vector<int> order_;  ///< seeded permutation of the lap's programs
  Release base_;
};

/// The campaign a release runs as on `fleet`.
eric::fleet::CampaignConfig ConfigFor(const Fleet& fleet,
                                      const Release& release);

/// The per-delivery fault decision the engine makes for `config`:
/// whether delivery `delivery_index` to `device` is hit by the channel
/// fault. Derived from the public DeliverySeed, so it matches the
/// engine draw for draw.
bool DeliveryFaulted(const eric::fleet::CampaignConfig& config,
                     DeviceId device, uint32_t delivery_index);

/// Exact counts of one (program, ISA, policy) as the device runs it.
struct ProgramCounts {
  int64_t exit_code = 0;
  uint64_t device_cycles = 0;  ///< HDE + execution cycles
  uint64_t instructions = 0;   ///< retired simulated instructions
};

/// Checks delivered targets against their expected output and pinned
/// exact counts. Not thread-safe: the driver calls it between campaigns.
class OutputChecker {
 public:
  explicit OutputChecker(const WorkloadSpec& spec) : spec_(spec) {}

  /// Prepares the expectation of every ISA in `fleet` for `release`
  /// (a compile and, for synthetic releases, a plaintext run of the
  /// compiled image). Untimed: call before the release runs.
  void Prepare(const Release& release, const Fleet& fleet);

  /// Checks one delivered target, recording any mismatch.
  void Check(const Release& release, const eric::fleet::DeviceOutcome& outcome);
  /// Checks the instruction count a traced run observed for a target.
  void CheckInstructions(const Release& release, eric::isa::IsaId isa,
                         uint64_t instructions);

  size_t mismatches() const { return mismatches_; }

 private:
  struct Expected {
    ProgramCounts counts;
    std::vector<uint8_t> image;  ///< compiled image the counts belong to
  };
  Expected* Find(const Release& release, eric::isa::IsaId isa);
  void Mismatch(const std::string& what);

  const WorkloadSpec& spec_;
  std::map<std::pair<std::string, eric::isa::IsaId>, Expected> expected_;
  size_t mismatches_ = 0;
};

/// The pinned exact counts of a program, or nullptr when the table has
/// no entry (which fails the run).
const ProgramCounts* PinnedCounts(const std::string& program,
                                  eric::isa::IsaId isa,
                                  const std::string& policy);

/// Prints the pinned-count table of every workload, computed by sealing
/// each program for a solo device of each ISA and running it through the
/// device's HDE. Used to regenerate pinned.h after a deliberate change.
int PrintPins();

/// A KiB field of /proc/self/status such as "VmRSS:" (current resident
/// set) or "VmHWM:" (its peak); 0 when unavailable.
int64_t StatusKb(const std::string& field);

}  // namespace perfbench
