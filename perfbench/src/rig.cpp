#include "rig.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>

#include "compiler/compiler.h"
#include "core/trusted_execution.h"
#include "pinned.h"
#include "support/rng.h"
#include "workloads/workloads.h"

namespace perfbench {

using namespace eric;

namespace {

// The six MiBench kernels that compile for both ISAs.
constexpr const char* kKernels[] = {"bitcount", "basicmath",    "qsort",
                                    "stringsearch", "dijkstra", "fft"};

// Synthetic-release `rounds` values a lap cycles through; the delta
// train's program runs ~22-33k cycles, the wire train's is smaller.
// Three programs of different length give three latency clusters of one
// third each, so the median and the p95 fall inside a cluster. With two
// equal halves the median would sit on the gap between them, where a
// handful of samples decide it.
constexpr int kDeltaRounds[] = {4, 5, 6};
constexpr int kWireRounds[] = {2, 3, 4};

// Salts that keep the seed's derived streams independent.
constexpr uint64_t kDeviceSalt = 0xD1CE5EED;
constexpr uint64_t kOrderSalt = 0x0DE25A17;
constexpr uint64_t kCampaignSalt = 0xCA4B1A7E;

uint64_t Mix(uint64_t a, uint64_t b) {
  SplitMix64 mixer(a ^ (b * 0x9E3779B97F4A7C15ull));
  mixer.Next();
  return mixer.Next();
}

std::string SyntheticName(int rounds) {
  return "synthetic-r" + std::to_string(rounds);
}

}  // namespace

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

core::EncryptionPolicy WorkloadSpec::policy() const {
  return std::strcmp(policy_name, "partial") == 0
             ? core::EncryptionPolicy::PartialRandom(0.5)
             : core::EncryptionPolicy::Full();
}

const std::vector<WorkloadSpec>& AllSpecs() {
  // Sizes are chosen so every timed phase covers several hundred ms of
  // real work per run (see README.md, "Noise rules").
  static const std::vector<WorkloadSpec> specs = {
      {Kind::kMibenchRollout, "mibench_rollout", /*groups=*/48,
       /*devices_per_group=*/8, /*rv32i_per_group=*/2,
       /*groups_per_release=*/4, /*durable=*/true, /*wire=*/false, "partial",
       /*workers=*/2, /*max_attempts=*/2, /*fault_rate=*/0.0, /*lap=*/6,
       /*setup_reps=*/5, /*recovery_reps=*/5},
      // Memory-only: a durable fleet running this short program is
      // fsync-bound, and fsync latency on a shared virtual disk swung its
      // p95 by 44% between runs (see README.md, "Noise rules").
      {Kind::kDeltaTrain, "delta_train", 4, 64, 0, 0, false, false, "full", 2,
       3, 0.01, 3, 5, 12},
      // One worker: with two, workers plus the two loop threads occupy
      // every CPU and the p95 swung by 64% between runs.
      // A lap of six ships each of the three programs once in full and
      // once as a delta. Its recoveries are reconnects of ~0.3 ms each.
      {Kind::kWireTrain, "wire_train", 1, 4, 0, 0, false, true, "full", 1, 2,
       0.0, 6, 60, 1500},
  };
  return specs;
}

const WorkloadSpec* FindSpec(const std::string& name) {
  for (const WorkloadSpec& spec : AllSpecs()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

// --- Fleet --------------------------------------------------------------------

Fleet::~Fleet() {
  // The simulated devices stop before the server they are connected to.
  engine.reset();
  if (clients != nullptr) clients->Stop();
  if (server != nullptr) server->Stop();
  registry.reset();
}

Result<double> Fleet::Reconnect() {
  if (clients != nullptr) clients->Stop();
  const auto start = Clock::now();
  net::SimClientFleetConfig config;
  config.port = server->port();
  config.devices = devices;
  clients = std::make_unique<net::SimClientFleet>(std::move(config));
  ERIC_RETURN_IF_ERROR(clients->Start());
  // A device's new hello supersedes its old connection on the server, so
  // once every device has its acknowledgement the server delivers over
  // the new connections.
  if (!clients->WaitForHandshakes(30'000) ||
      !server->WaitForDevices(devices.size(), 30'000)) {
    return Status(ErrorCode::kUnavailable, "device handshakes timed out");
  }
  return SecondsSince(start);
}

Result<std::unique_ptr<Fleet>> SetUpFleet(const WorkloadSpec& spec,
                                          uint64_t seed,
                                          const std::string& state_dir) {
  auto fleet = std::make_unique<Fleet>();
  fleet->spec = &spec;
  fleet->seed = seed;
  fleet->registry = std::make_unique<fleet::DeviceRegistry>();
  if (spec.durable) {
    fleet->state_dir = state_dir;
    ERIC_RETURN_IF_ERROR(fleet->registry->OpenStorage(state_dir));
  }
  const int64_t rss_before = StatusKb("VmRSS:");
  const auto enroll_start = Clock::now();
  Xoshiro256 rng(Mix(seed, kDeviceSalt));
  for (size_t g = 0; g < spec.groups; ++g) {
    const GroupId group =
        fleet->registry->CreateGroup("group-" + std::to_string(g));
    // Exactly rv32i_per_group RV32I members per group, at seeded slots.
    std::vector<size_t> slots(spec.devices_per_group);
    for (size_t i = 0; i < slots.size(); ++i) slots[i] = i;
    std::shuffle(slots.begin(), slots.end(), rng);
    std::vector<bool> rv32i(spec.devices_per_group, false);
    for (size_t i = 0; i < spec.rv32i_per_group; ++i) rv32i[slots[i]] = true;
    for (size_t i = 0; i < spec.devices_per_group; ++i) {
      const auto isa_id = rv32i[i] ? isa::IsaId::kRv32I : isa::IsaId::kRv64Gc;
      auto id = fleet->registry->Enroll(rng.Next(), group, isa_id);
      if (!id.ok()) return id.status();
      fleet->devices.push_back(*id);
    }
  }
  fleet->enroll_s = SecondsSince(enroll_start);
  fleet->rss_growth_kb = StatusKb("VmRSS:") - rss_before;
  if (spec.wire) {
    // One server and one connection per device; set-up ends when every
    // device has completed its handshake.
    fleet->server = std::make_unique<net::FleetServer>();
    ERIC_RETURN_IF_ERROR(fleet->server->Start());
    auto connected = fleet->Reconnect();
    if (!connected.ok()) return connected.status();
    fleet->connect_s = *connected;
  }
  // Every release is a new program, so a cache holding more than a few
  // releases' artifacts only grows; a small one reaches its steady size
  // within a lap and keeps peak RSS independent of run length.
  fleet::PackageCacheConfig cache_config;
  cache_config.max_artifacts_per_shard = 16;
  cache_config.max_programs_per_shard = 8;
  fleet->cache = std::make_unique<fleet::PackageCache>(cache_config);
  fleet->engine =
      std::make_unique<fleet::DeploymentEngine>(*fleet->registry, *fleet->cache);
  return fleet;
}

// --- Train --------------------------------------------------------------------

Train::Train(const WorkloadSpec& spec, uint64_t seed, const Fleet& fleet)
    : spec_(spec), seed_(seed), devices_(fleet.devices) {
  order_.resize(spec.kind == Kind::kMibenchRollout ? std::size(kKernels)
                                                   : std::size(kDeltaRounds));
  for (size_t i = 0; i < order_.size(); ++i) order_[i] = static_cast<int>(i);
  // The seed orders every program of a lap but the last. The last is
  // also the base release, so every seed's set-up does the same work.
  Xoshiro256 rng(Mix(seed, kOrderSalt));
  std::shuffle(order_.begin(), order_.end() - 1, rng);
  if (has_base()) {
    // The base is the lap's last program, so the first measured release
    // makes the same transition as every later lap's first release.
    const int rounds = RoundsAt(spec.lap - 1);
    base_.index = 0;
    base_.program = SyntheticName(rounds);
    base_.source = Tagged(workloads::MakeSyntheticRelease(rounds), 0);
    base_.campaign_seed = Mix(seed, kCampaignSalt);
  }
}

std::string Train::Tagged(const std::string& source, size_t index) const {
  // A comment changes the source (so every release compiles, seals and
  // gets its own version) without changing the image or its counts.
  return source + "// release " + std::to_string(seed_) + "." +
         std::to_string(index) + "\n";
}

int Train::RoundsAt(size_t index) const {
  const int* rounds =
      spec_.kind == Kind::kDeltaTrain ? kDeltaRounds : kWireRounds;
  return rounds[order_[index % order_.size()]];
}

uint64_t Train::CampaignSeed(size_t index) const {
  // With faults on, take the first seed under which every target gets at
  // least one clean delivery within its attempt budget, so retries and
  // fallbacks happen but no target fails.
  for (uint64_t k = 0;; ++k) {
    const uint64_t candidate = Mix(Mix(seed_, kCampaignSalt + index + 1), k);
    if (spec_.fault_rate <= 0) return candidate;
    fleet::CampaignConfig config;
    config.campaign_seed = candidate;
    config.fault_rate = spec_.fault_rate;
    bool exhausts = false;
    for (DeviceId device : devices_) {
      uint32_t faulted = 0;
      for (uint32_t d = 0; d < spec_.max_attempts; ++d) {
        faulted += DeliveryFaulted(config, device, d) ? 1 : 0;
      }
      if (faulted == spec_.max_attempts) {
        exhausts = true;
        break;
      }
    }
    if (!exhausts) return candidate;
  }
}

Release Train::At(size_t index) const {
  Release release;
  release.index = index + 1;
  release.campaign_seed = CampaignSeed(index);
  if (spec_.kind == Kind::kMibenchRollout) {
    const workloads::Workload* kernel =
        workloads::FindWorkload(kKernels[order_[index % order_.size()]]);
    release.program = kernel->name;
    release.source = Tagged(kernel->source, release.index);
    // Consecutive releases roll through the groups; every group has the
    // same ISA mix, so each release has the same composition.
    const size_t per_group = spec_.devices_per_group;
    for (size_t k = 0; k < spec_.groups_per_release; ++k) {
      const size_t group =
          (index * spec_.groups_per_release + k) % spec_.groups;
      release.targets.insert(release.targets.end(),
                             devices_.begin() + group * per_group,
                             devices_.begin() + (group + 1) * per_group);
    }
    return release;
  }
  const int rounds = RoundsAt(index);
  release.program = SyntheticName(rounds);
  release.source =
      Tagged(workloads::MakeSyntheticRelease(rounds), release.index);
  // The delta train ships every release as a delta against the one
  // before; the wire train alternates a full package with a delta.
  const bool delta = spec_.kind == Kind::kDeltaTrain || index % 2 == 1;
  if (delta) {
    release.base_source =
        index == 0 ? base_.source
                   : Tagged(workloads::MakeSyntheticRelease(RoundsAt(index - 1)),
                            index);
  }
  return release;
}

fleet::CampaignConfig ConfigFor(const Fleet& fleet, const Release& release) {
  const WorkloadSpec& spec = *fleet.spec;
  fleet::CampaignConfig config;
  config.source = release.source;
  config.policy = spec.policy();
  config.devices = release.targets.empty() ? fleet.devices : release.targets;
  config.workers = spec.workers;
  config.max_attempts = spec.max_attempts;
  if (spec.fault_rate > 0) {
    config.channel.fault = net::ChannelFault::kRandomBitFlips;
    config.fault_rate = spec.fault_rate;
  }
  config.campaign_seed = release.campaign_seed;
  config.transport = fleet.server.get();
  if (!release.base_source.empty()) {
    config.delta = true;
    config.delta_base_source = release.base_source;
  }
  return config;
}

bool DeliveryFaulted(const fleet::CampaignConfig& config, DeviceId device,
                     uint32_t delivery_index) {
  Xoshiro256 draw(
      fleet::DeliverySeed(config.campaign_seed, device, delivery_index) ^
      0xFA017);
  return draw.NextDouble() < config.fault_rate;
}

// --- Output checks ------------------------------------------------------------

const ProgramCounts* PinnedCounts(const std::string& program, isa::IsaId isa,
                                  const std::string& policy) {
  for (const PinnedEntry& entry : kPinnedCounts) {
    if (program == entry.program && isa::IsaName(isa) == entry.isa &&
        policy == entry.policy) {
      return &entry.counts;
    }
  }
  return nullptr;
}

void OutputChecker::Mismatch(const std::string& what) {
  if (mismatches_ < 10) std::fprintf(stderr, "output check: %s\n", what.c_str());
  ++mismatches_;
}

OutputChecker::Expected* OutputChecker::Find(const Release& release,
                                             isa::IsaId isa) {
  auto it = expected_.find({release.program, isa});
  return it == expected_.end() ? nullptr : &it->second;
}

void OutputChecker::Prepare(const Release& release, const Fleet& fleet) {
  std::set<isa::IsaId> isas = {isa::IsaId::kRv64Gc};
  if (fleet.spec->rv32i_per_group > 0) isas.insert(isa::IsaId::kRv32I);
  for (isa::IsaId isa_id : isas) {
    compiler::CompileOptions options;
    options.isa = isa_id;
    auto compiled = compiler::Compile(release.source, options);
    if (!compiled.ok()) {
      Mismatch(release.program + ": compile failed: " +
               compiled.status().ToString());
      continue;
    }
    const std::vector<uint8_t>& image = compiled->program.image;
    Expected* known = Find(release, isa_id);
    if (known != nullptr && known->image == image) continue;
    const ProgramCounts* pinned =
        PinnedCounts(release.program, isa_id, spec_.policy_name);
    if (pinned == nullptr) {
      Mismatch("no pinned counts for " + release.program + "/" +
               std::string(isa::IsaName(isa_id)));
      continue;
    }
    Expected expected;
    expected.image = image;
    expected.counts = *pinned;
    const workloads::Workload* kernel =
        workloads::FindWorkload(release.program);
    if (kernel != nullptr) {
      // MiBench: the kernel's native reference implementation.
      expected.counts.exit_code = kernel->reference();
    } else {
      // Synthetic: a plaintext run of the same compiled image.
      core::TrustedDevice reference(1, crypto::KeyConfig{},
                                    core::CipherKind::kXor, {}, isa_id);
      const core::TrustedRunResult run = reference.RunPlaintext(image);
      expected.counts.exit_code = run.exec.exit_code;
      if (run.exec.instructions != pinned->instructions) {
        Mismatch(release.program + ": plaintext run retired " +
                 std::to_string(run.exec.instructions) +
                 " instructions, pinned " +
                 std::to_string(pinned->instructions));
      }
    }
    if (expected.counts.exit_code != pinned->exit_code) {
      Mismatch(release.program + ": reference exit code " +
               std::to_string(expected.counts.exit_code) + ", pinned " +
               std::to_string(pinned->exit_code));
    }
    expected_[{release.program, isa_id}] = std::move(expected);
  }
}

void OutputChecker::Check(const Release& release,
                          const fleet::DeviceOutcome& outcome) {
  if (!outcome.ok) return;  // counted as failed, not as wrong output
  Expected* expected = Find(release, outcome.isa);
  if (expected == nullptr) {
    Mismatch(release.program + ": no expectation prepared");
    return;
  }
  if (outcome.exit_code != expected->counts.exit_code ||
      outcome.device_cycles != expected->counts.device_cycles) {
    Mismatch(release.program + "/" + std::string(isa::IsaName(outcome.isa)) +
             " on device " + std::to_string(outcome.device) + ": exit " +
             std::to_string(outcome.exit_code) + " cycles " +
             std::to_string(outcome.device_cycles) + ", expected exit " +
             std::to_string(expected->counts.exit_code) + " cycles " +
             std::to_string(expected->counts.device_cycles));
  }
}

void OutputChecker::CheckInstructions(const Release& release, isa::IsaId isa,
                                      uint64_t instructions) {
  Expected* expected = Find(release, isa);
  if (expected == nullptr || instructions != expected->counts.instructions) {
    Mismatch(release.program + "/" + std::string(isa::IsaName(isa)) +
             ": traced run retired " + std::to_string(instructions) +
             " instructions");
  }
}

int PrintPins() {
  std::set<std::string> seen;  // program/policy pairs already printed
  for (const WorkloadSpec& spec : AllSpecs()) {
    // The program set of a lap does not depend on the seed, only its
    // order does; build a throwaway fleet shape to enumerate it.
    Fleet shape;
    shape.spec = &spec;
    shape.devices.assign(spec.devices(), 1);
    Train train(spec, 1, shape);
    std::vector<Release> releases;
    if (train.has_base()) releases.push_back(train.base());
    for (size_t i = 0; i < spec.lap; ++i) releases.push_back(train.At(i));
    for (const Release& release : releases) {
      if (!seen.insert(release.program + "/" + spec.policy_name).second) {
        continue;
      }
      for (size_t raw = 0; raw < isa::kNumIsaIds; ++raw) {
        const auto isa_id = static_cast<isa::IsaId>(raw);
        if (isa_id == isa::IsaId::kRv32I && spec.rv32i_per_group == 0) continue;
        core::TrustedDevice device(0x9105 + raw, crypto::KeyConfig{},
                                   core::CipherKind::kXor, {}, isa_id);
        const crypto::Key256 key = device.Enroll();
        fleet::PackageCache cache;
        compiler::CompileOptions options;
        options.isa = isa_id;
        auto artifact = cache.GetOrBuild(release.source, key,
                                         crypto::KeyConfig{}, spec.policy(),
                                         core::CipherKind::kXor, options);
        if (!artifact.ok()) return 1;
        auto run = device.ReceiveAndRun((*artifact)->wire);
        if (!run.ok()) return 1;
        std::printf("    {\"%s\", \"%s\", \"%s\", {%lld, %llu, %llu}},\n",
                    release.program.c_str(),
                    std::string(isa::IsaName(isa_id)).c_str(),
                    spec.policy_name,
                    static_cast<long long>(run->exec.exit_code),
                    static_cast<unsigned long long>(run->total_cycles()),
                    static_cast<unsigned long long>(run->exec.instructions));
      }
    }
  }
  return 0;
}

int64_t StatusKb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::atoll(line.c_str() + field.size());
    }
  }
  return 0;
}

}  // namespace perfbench
