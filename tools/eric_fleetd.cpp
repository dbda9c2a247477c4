// eric_fleetd — fleet deployment campaigns from the command line.
//
// Stands up a simulated fleet (registry + enrolled devices), then runs a
// deployment campaign through the encrypt-once package cache and the
// multi-threaded engine, printing per-device outcomes and aggregates.
//
//   eric_fleetd --devices 100 [--groups 4] [--workers 8] [--attempts 3]
//               [--fault none|bitflips|bytepatch|truncate|instrpatch|dup]
//               [--fault-rate 0.3] [--latency-us 1000]
//               [--mode full|partial|field|none] [--fraction 0.5]
//               [--revoke K] [--source FILE] [--workload NAME]
//               [--canary N] [--canary-threshold P] [--wave-size N]
//               [--rate R] [--burst B] [--group-concurrency N]
//               [--pause-after MS] [--pause-for MS] [--shuffle]
//               [--state-dir DIR] [--resume] [--snapshot-every N]
//               [--rotate-epoch GROUP]
//               [--delta --base-source FILE | --delta --base-workload NAME]
//               [--metrics-out FILE] [--metrics-interval SEC]
//               [--trace-out FILE]
//               [--json FILE] [--verbose]
//
// With no --source/--workload, deploys the crc32 workload. --revoke K
// revokes every K-th device before the campaign to show revocation
// handling in the report.
//
// Every campaign — plain, delta, rotation, or resumed — is one
// CampaignScheduler rollout with one report, one --json schema, and one
// exit-code rule (0 iff every non-revoked target succeeded). With no
// rollout flag the rollout is a single wave with no canary and no
// throttle. --canary N sends a canary cohort first, gated on
// --canary-threshold P (failure fraction in [0, 1], default 0.1);
// --wave-size N splits the rest into rolling waves; --shuffle samples
// the cohorts across the whole fleet; --rate R (deliveries/s, 0 =
// unlimited) and --burst B (default 1) token-bucket dispatch;
// --group-concurrency N caps in-flight deliveries per group.
// --pause-after MS pauses the rollout that long into the campaign,
// holds it --pause-for MS (default 250), then resumes; a campaign that
// ends first is never paused or held. --verbose lists
// every device's outcome under its wave.
//
// --state-dir DIR makes the fleet durable: enrollments and revocations
// are write-ahead logged (and snapshotted) under DIR, and every target's
// campaign outcome is checkpointed to DIR/campaign.wal as it finalizes.
// A daemon killed mid-campaign (kill -9 included) restarts with its
// whole fleet intact; add --resume to continue the interrupted campaign
// over exactly the targets that had no durable outcome — nothing is
// delivered twice, nothing is lost. --snapshot-every N compacts the
// registry WALs after every N logged mutations.
//
// --delta ships patch packages: a device whose durable delivery manifest
// says it runs the base release (--base-source/--base-workload) under its
// current key receives EncodeDelta(base wire, target wire) instead of
// the full sealed image; everything else — fresh devices, rotated keys,
// oversized deltas, corrupted patches — falls back to the full package
// automatically. Manifests persist through --state-dir, so a restarted
// daemon still knows what every device runs (the devices' own retained
// images are not simulated across restarts: a resumed delta campaign
// ships full packages to its remaining targets, exactly once).
//
// --rotate-epoch GROUP runs a key-epoch rotation campaign instead of a
// plain deployment: the named group's key epoch is bumped (durably
// journaled under --state-dir), the package cache drops exactly that
// group's sealed artifacts, and the group is redeployed by the same
// rollout as any other campaign, with every package sealed under the
// new epoch. Killed mid-rotation, --resume --rotate-epoch GROUP finishes
// the rotation exactly once at the journaled target epoch — stale-epoch
// artifacts are never re-delivered (the members' rotated HDEs would
// reject them anyway).
//
// --metrics-out FILE exports the process metrics registry there as a
// versioned JSON snapshot every --metrics-interval seconds (default 1),
// written atomically so pollers — and readers that outlive a kill -9 —
// never see a torn document; FILE.prom carries the same snapshot in
// Prometheus text format. --trace-out FILE enables campaign tracing and
// appends one JSON span per line: seal, cache, dispatch, channel, and
// WAL timings stitched under each campaign's trace id. Every --json
// report additionally embeds the end-of-run registry under "telemetry".
//
// --slo SPEC (repeatable) arms the fleet health watchdog: each SPEC is
// an SLO in the grammar documented in obs/health.h, e.g.
// `ratio(fleet_delivery_failures,fleet_delivery_attempts)<0.05@30s:pause`.
// A background monitor evaluates every --slo-interval seconds (default
// 1) over rolling windows of the live metrics registry; a breach emits
// a structured event and applies the spec's policy to the running
// campaign: log (report only), pause (freeze dispatch via campaign
// control), or abort (cancel the campaign). With --state-dir the breach
// is journaled before the control action, so a daemon killed -9 right
// after the watchdog acted still resumes into a paused-by-watchdog
// campaign: --resume reports the breach and exits 3 until the operator
// acknowledges it with --resume --ack-watchdog. Fatal events (WAL
// poison, checkpoint-append failure) additionally dump the event ring
// as a flight record to DIR/flight-record.json (or FILE.flight next to
// --metrics-out when no state dir is configured).
//
// --soak runs the cross-layer chaos harness instead of a single
// campaign: a seeded, hours-compressed sequence of rounds that mixes
// enroll/revoke churn, concurrent key-epoch rotation and delta
// campaigns, every channel fault mode, probabilistic agent
// crash-mid-apply, and forced health-check failures — then sweeps the
// whole fleet after every round asserting the joint invariants (no
// device holds a torn image, every recovered agent is idle, an
// epoch-current active slot always boots, a stale-epoch one never
// does). --soak-profile short (default, CI-sized) or long (nightly);
// --soak-seed reseeds the whole run. Requires --state-dir: the harness
// exists to prove the durable fleet + slot manifests survive chaos, and
// the companion resume test kill -9s the soak itself and reruns it over
// the same state dir.
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fleet/campaign_journal.h"
#include "fleet/campaign_scheduler.h"
#include "fleet/deployment_engine.h"
#include "fleet/package_cache.h"
#include "fleet/rotation_campaign.h"
#include "net/server.h"
#include "net/sim_client.h"
#include "obs/events.h"
#include "obs/export.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/record_io.h"
#include "support/bench_json.h"
#include "support/rng.h"
#include "workloads/workloads.h"

using namespace eric;

namespace {

void Usage() {
  std::fprintf(
      stderr,
      "usage: eric_fleetd --devices N [--groups G] [--workers W]\n"
      "                   [--rv32-every K]\n"
      "                   [--attempts K] [--fault KIND] [--fault-rate P]\n"
      "                   [--latency-us U] [--mode M] [--fraction F]\n"
      "                   [--revoke K] [--source FILE] [--workload NAME]\n"
      "                   [--canary N] [--canary-threshold P (0.1)]\n"
      "                   [--wave-size N] [--rate R] [--burst B (1)]\n"
      "                   [--group-concurrency N] [--pause-after MS]\n"
      "                   [--pause-for MS (250)] [--shuffle]\n"
      "                   [--state-dir DIR] [--resume] [--snapshot-every N]\n"
      "                   [--rotate-epoch GROUP] [--json FILE] [--verbose]\n"
      "                   [--delta --base-source FILE]\n"
      "                   [--delta --base-workload NAME]\n"
      "                   [--metrics-out FILE] [--metrics-interval SEC]\n"
      "                   [--trace-out FILE]\n"
      "                   [--slo SPEC]... [--slo-interval SEC]\n"
      "                   [--ack-watchdog]\n"
      "                   [--listen PORT [--sim-clients N]]\n"
      "                   [--soak [--soak-profile short|long] "
      "[--soak-seed N]]\n"
      "every campaign is one scheduled rollout; with no --canary/--wave-size/\n"
      "--rate/--group-concurrency it is a single unthrottled wave\n");
}

/// Identity of a campaign for resume matching: FNV-1a over everything
/// that decides what bytes reach a device — program, encryption policy,
/// seed, channel fault model, and retry budget. Resuming under a
/// different one must be refused, not silently blended. (Worker count
/// and simulated latency shape only timing, not bytes, and stay out.)
uint64_t CampaignFingerprint(const std::string& source,
                             const std::string& mode, double fraction,
                             uint64_t seed, const std::string& fault_name,
                             double fault_rate, uint32_t attempts,
                             uint64_t rotate_group, uint64_t rotate_epoch,
                             bool delta, uint64_t base_version) {
  eric::store::RecordWriter rec;
  // A rotation campaign is a different campaign from a plain deployment
  // of the same program: the target epoch decides the bytes sealed.
  rec.U64(rotate_group);
  rec.U64(rotate_epoch);
  rec.Str(source);
  rec.Str(mode);
  uint64_t fraction_bits;
  static_assert(sizeof(fraction_bits) == sizeof(fraction));
  std::memcpy(&fraction_bits, &fraction, sizeof(fraction_bits));
  rec.U64(fraction_bits);
  rec.U64(seed);
  rec.Str(fault_name);
  uint64_t fault_rate_bits;
  std::memcpy(&fault_rate_bits, &fault_rate, sizeof(fault_rate_bits));
  rec.U64(fault_rate_bits);
  rec.U32(attempts);
  // Appended only for delta campaigns so plain campaigns keep their
  // pre-delta fingerprints (their interrupted journals stay resumable
  // across this upgrade). A delta campaign over a different base is a
  // different campaign: the base decides which bytes each device gets.
  if (delta) {
    rec.U8(1);
    rec.U64(base_version);
  }
  return eric::store::Fnv1a64(rec.bytes());
}

/// Devices in `targets` whose manifest says they now run `version` —
/// what the crash-resume test asserts campaign completion on.
size_t CountManifestsAt(const fleet::DeviceRegistry& registry,
                        const std::vector<fleet::DeviceId>& targets,
                        uint64_t version) {
  size_t current = 0;
  for (fleet::DeviceId id : targets) {
    auto manifest = registry.DeliveredVersion(id);
    if (manifest.ok() && manifest->version == version) ++current;
  }
  return current;
}

/// End-of-run telemetry snapshot embedded in every --json report, so
/// one file carries the campaign's outcome and the telemetry that
/// explains it: the metrics registry plus the structured event ring and
/// the health watchdog's SLO report (the same composed document the
/// live exporter writes).
void WriteTelemetryJson(JsonWriter& json) {
  json.Key("telemetry");
  obs::WriteSnapshotJson(json);
}

/// Writes a finished --json document; false (after saying why) when the
/// file cannot be written.
bool WriteJsonFile(const JsonWriter& json, const std::string& path) {
  if (!json.WriteFile(path.c_str())) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

/// Per-ISA campaign slices as a JSON object keyed by ISA name. ISAs
/// the campaign never touched are omitted, so homogeneous-fleet
/// reports carry exactly one entry and pre-heterogeneity consumers
/// that ignore unknown fields keep working.
void WriteIsaJson(
    JsonWriter& json,
    const std::array<fleet::CampaignIsaStats, isa::kNumIsaIds>& by_isa) {
  json.Key("by_isa");
  json.BeginObject();
  for (size_t i = 0; i < isa::kNumIsaIds; ++i) {
    const fleet::CampaignIsaStats& slice = by_isa[i];
    if (slice.targets == 0 && slice.seal_builds == 0 &&
        slice.compile_builds == 0) {
      continue;
    }
    json.Key(isa::IsaName(static_cast<isa::IsaId>(i)));
    json.BeginObject();
    json.Field("targets", slice.targets);
    json.Field("succeeded", slice.succeeded);
    json.Field("deliveries", slice.deliveries);
    json.Field("bytes_shipped", slice.bytes_shipped);
    json.Field("seal_builds", slice.seal_builds);
    json.Field("compile_builds", slice.compile_builds);
    json.EndObject();
  }
  json.EndObject();
}

/// The console report of every campaign: one gate line per wave (with
/// per-device outcomes under --verbose), then the campaign aggregates.
void PrintReport(const fleet::ScheduledReport& report, bool verbose,
                 bool delta) {
  for (const auto& wave : report.waves) {
    std::printf("  wave %zu%s: %llu targets, %llu ok / %llu failed / %llu "
                "revoked, failure-rate %.2f%s\n",
                wave.wave_index, wave.canary ? " (canary)" : "",
                static_cast<unsigned long long>(wave.report.targets),
                static_cast<unsigned long long>(wave.report.succeeded),
                static_cast<unsigned long long>(wave.report.failed),
                static_cast<unsigned long long>(wave.report.revoked),
                wave.failure_rate,
                wave.gate_breached ? "  << GATE BREACHED" : "");
    if (!verbose) continue;
    for (const auto& outcome : wave.report.outcomes) {
      std::printf("    device %llu: %s attempts=%u %s\n",
                  static_cast<unsigned long long>(outcome.device),
                  outcome.ok ? "ok" : (outcome.revoked ? "revoked" : "FAILED"),
                  outcome.attempts,
                  outcome.ok ? "" : outcome.last_status.ToString().c_str());
    }
  }
  std::printf("\nresult: %s — %llu ok / %llu failed / %llu revoked, "
              "%llu never dispatched of %llu targets\n",
              std::string(fleet::CampaignOutcomeName(report.outcome)).c_str(),
              static_cast<unsigned long long>(report.succeeded),
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.revoked),
              static_cast<unsigned long long>(report.never_dispatched),
              static_cast<unsigned long long>(report.targets));
  std::printf("wire:   %llu deliveries (%llu retries), peak %llu in flight\n",
              static_cast<unsigned long long>(report.deliveries),
              static_cast<unsigned long long>(report.retries),
              static_cast<unsigned long long>(report.peak_in_flight));
  if (report.rejections > 0 || report.rollbacks > 0 ||
      report.health_failures > 0) {
    std::printf("agent:  %llu targets rolled back, %llu health "
                "rejections, %llu rejections by the device HDE\n",
                static_cast<unsigned long long>(report.rollbacks),
                static_cast<unsigned long long>(report.health_failures),
                static_cast<unsigned long long>(report.rejections));
  }
  if (delta) {
    const double ratio =
        report.bytes_full_equivalent == 0
            ? 0.0
            : static_cast<double>(report.bytes_shipped) /
                  static_cast<double>(report.bytes_full_equivalent);
    std::printf("delta:  %llu delta / %llu full deliveries (%llu fallbacks), "
                "%llu of %llu bytes shipped (%.2fx)\n",
                static_cast<unsigned long long>(report.delta_deliveries),
                static_cast<unsigned long long>(report.full_deliveries),
                static_cast<unsigned long long>(report.delta_fallbacks),
                static_cast<unsigned long long>(report.bytes_shipped),
                static_cast<unsigned long long>(report.bytes_full_equivalent),
                ratio);
  }
  std::printf("time:   %.1f ms wall, %.0f devices/s\n", report.wall_ms,
              report.devices_per_second);
  std::printf("cache:  %llu hits / %llu misses (%llu compiles)\n",
              static_cast<unsigned long long>(report.cache_artifact_hits),
              static_cast<unsigned long long>(report.cache_artifact_misses),
              static_cast<unsigned long long>(report.cache_compile_misses));
  size_t active_isas = 0;
  for (const auto& slice : report.by_isa) {
    if (slice.targets > 0) ++active_isas;
  }
  for (size_t i = 0; active_isas > 1 && i < isa::kNumIsaIds; ++i) {
    const fleet::CampaignIsaStats& slice = report.by_isa[i];
    if (slice.targets == 0) continue;
    std::printf(
        "isa:    %s: %llu ok of %llu targets, %llu deliveries, "
        "%llu bytes (%llu compiles, %llu seals)\n",
        std::string(isa::IsaName(static_cast<isa::IsaId>(i))).c_str(),
        static_cast<unsigned long long>(slice.succeeded),
        static_cast<unsigned long long>(slice.targets),
        static_cast<unsigned long long>(slice.deliveries),
        static_cast<unsigned long long>(slice.bytes_shipped),
        static_cast<unsigned long long>(slice.compile_builds),
        static_cast<unsigned long long>(slice.seal_builds));
  }
  // The deliveries themselves stand; the affected devices simply
  // mis-diff (and get full packages) next campaign.
  if (report.manifest_update_failures > 0) {
    std::fprintf(stderr,
                 "warning: %llu delivered manifest update(s) could not be "
                 "made durable\n",
                 static_cast<unsigned long long>(
                     report.manifest_update_failures));
  }
}

bool ParseFault(const std::string& name, net::ChannelFault* fault) {
  if (name == "none") *fault = net::ChannelFault::kNone;
  else if (name == "bitflips") *fault = net::ChannelFault::kRandomBitFlips;
  else if (name == "bytepatch") *fault = net::ChannelFault::kBytePatch;
  else if (name == "truncate") *fault = net::ChannelFault::kTruncate;
  else if (name == "instrpatch") *fault = net::ChannelFault::kInstructionPatch;
  else if (name == "dup") *fault = net::ChannelFault::kDuplicate;
  else return false;
  return true;
}

// --- Chaos soak -------------------------------------------------------------

/// One soak tier. `short` is CI-sized (seeded, well under a minute even
/// under ASan+UBSan); `long` is the nightly tier — same machinery, more
/// fleet and more rounds.
struct SoakProfile {
  const char* name;
  size_t devices;      ///< initial enrollment (churn grows it)
  size_t groups;
  size_t rounds;
  size_t workers;
  uint32_t attempts;   ///< per-device retry budget per campaign
  double crash_rate;   ///< probabilistic agent crash-mid-apply, per apply
};

constexpr SoakProfile kSoakShort{"short", 10, 2, 8, 4, 6, 0.05};
constexpr SoakProfile kSoakLong{"long", 32, 4, 40, 8, 6, 0.08};

std::string SoakFormat(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return std::string(buf);
}

/// Per-round soak summary (the --json report carries one per round).
struct SoakRound {
  size_t round = 0;
  const char* fault = "none";
  double fault_rate = 0;
  bool delta = false;
  fleet::GroupId rotated_group = fleet::kNoGroup;
  uint64_t enrolled = 0, revoked_now = 0;
  fleet::CampaignReport deploy;
  bool rotation_ran = false;
  uint64_t rotation_succeeded = 0, rotation_failed = 0;
  uint64_t rotation_new_epoch = 0;
};

/// Sweeps every device (revoked included) and appends one violation
/// string per broken joint invariant:
///   - RecoverAgent always succeeds and leaves the agent idle
///     (recovery is idempotent, so sweeping twice must change nothing);
///   - the active slot's bytes re-hash to the manifest CRC (no device
///     ever holds a torn image — no slot at all is fine, torn is not);
///   - an active slot sealed under the device's *current* key boots
///     through the HDE (every rollback leaves a runnable slot);
///   - an active slot sealed under a retired epoch NEVER executes
///     (fail-closed: the HDE must reject it like any stale package).
void SoakSweepFleet(fleet::DeviceRegistry& registry, size_t round,
                    std::vector<std::string>* violations) {
  for (fleet::DeviceId id : registry.AllDevices()) {
    auto recovered = registry.RecoverAgent(id);
    if (!recovered.ok()) {
      violations->push_back(SoakFormat(
          "round %zu device %llu: RecoverAgent failed: %s", round,
          static_cast<unsigned long long>(id),
          recovered.ToString().c_str()));
      continue;
    }
    auto inspection = registry.InspectAgent(id);
    if (!inspection.ok()) {
      violations->push_back(SoakFormat(
          "round %zu device %llu: InspectAgent failed: %s", round,
          static_cast<unsigned long long>(id),
          inspection.status().ToString().c_str()));
      continue;
    }
    if (!inspection->active_crc_valid) {
      violations->push_back(SoakFormat(
          "round %zu device %llu: TORN IMAGE (active slot CRC mismatch)",
          round, static_cast<unsigned long long>(id)));
    }
    if (inspection->state.phase != agent::ApplyPhase::kIdle) {
      violations->push_back(SoakFormat(
          "round %zu device %llu: agent not idle after recovery (%s)",
          round, static_cast<unsigned long long>(id),
          std::string(agent::ApplyPhaseName(inspection->state.phase))
              .c_str()));
    }
    const int active = inspection->state.active_slot;
    auto run = registry.RunActiveSlot(id);
    if (active < 0) {
      if (run.ok()) {
        violations->push_back(SoakFormat(
            "round %zu device %llu: no active slot but RunActiveSlot ran",
            round, static_cast<unsigned long long>(id)));
      }
      continue;
    }
    auto sealing = registry.SealingContextFor(id);
    if (!sealing.ok()) continue;  // cannot classify; CRC already checked
    const bool epoch_current =
        fleet::FingerprintKey(sealing->key) ==
        inspection->state.slots[active].key_fingerprint;
    if (epoch_current && !run.ok()) {
      violations->push_back(SoakFormat(
          "round %zu device %llu: epoch-current active slot failed to "
          "boot: %s",
          round, static_cast<unsigned long long>(id),
          run.status().ToString().c_str()));
    }
    if (!epoch_current && run.ok()) {
      violations->push_back(SoakFormat(
          "round %zu device %llu: STALE-EPOCH image executed", round,
          static_cast<unsigned long long>(id)));
    }
  }
}

/// The chaos soak: seeded rounds of churn + concurrent campaigns +
/// fault/crash injection, each followed by a full-fleet invariant sweep.
/// Returns the process exit code (0 = every invariant held every round).
int RunSoak(fleet::DeviceRegistry& registry, const SoakProfile& profile,
            uint64_t seed, size_t fleet_devices,
            const std::string& json_path) {
  Xoshiro256 rng(seed);
  registry.SetAgentCrashInjection(profile.crash_rate, seed ^ 0xC7A05);

  // Three synthetic releases cycled round-robin: each round deploys the
  // next one as a delta from the previous round's, so the delta path,
  // the fallback path, and fresh-device full packages all stay hot.
  const std::string releases[3] = {
      workloads::MakeSyntheticRelease(2),
      workloads::MakeSyntheticRelease(3),
      workloads::MakeSyntheticRelease(2, true),
  };

  // Group ids from the live fleet (a recovered fleet's groups came from
  // disk; a fresh one was just enrolled by main).
  std::vector<fleet::GroupId> group_ids;
  for (fleet::DeviceId id : registry.AllDevices()) {
    auto info = registry.Lookup(id);
    if (!info.ok() || info->group == fleet::kNoGroup) continue;
    if (std::find(group_ids.begin(), group_ids.end(), info->group) ==
        group_ids.end()) {
      group_ids.push_back(info->group);
    }
  }
  if (group_ids.empty()) {
    std::fprintf(stderr, "soak: fleet has no groups\n");
    return 1;
  }

  constexpr net::ChannelFault kFaults[] = {
      net::ChannelFault::kNone,          net::ChannelFault::kRandomBitFlips,
      net::ChannelFault::kBytePatch,     net::ChannelFault::kTruncate,
      net::ChannelFault::kInstructionPatch, net::ChannelFault::kDuplicate,
  };
  constexpr const char* kFaultNames[] = {"none",       "bitflips",
                                         "bytepatch",  "truncate",
                                         "instrpatch", "dup"};

  fleet::PackageCache cache;
  fleet::DeploymentEngine engine(registry, cache);
  std::vector<std::string> violations;
  std::vector<SoakRound> rounds;
  uint64_t enrolled_total = 0, revoked_total = 0;
  const auto t0 = std::chrono::steady_clock::now();

  for (size_t round = 0; round < profile.rounds; ++round) {
    SoakRound summary;
    summary.round = round;
    const std::string& target = releases[round % 3];
    summary.delta = round > 0;
    const std::string& base = releases[(round + 2) % 3];

    // Live (non-revoked) devices as of this round; the campaign targets
    // the whole fleet snapshot, revoked members included (the engine
    // must keep reporting them as revoked, never retry them).
    std::vector<fleet::DeviceId> all = registry.AllDevices();
    std::vector<fleet::DeviceId> live;
    for (fleet::DeviceId id : all) {
      auto info = registry.Lookup(id);
      if (info.ok() && info->status == fleet::DeviceStatus::kEnrolled) {
        live.push_back(id);
      }
    }
    if (live.empty()) break;

    // Deterministic chaos arming: one device power-cuts mid-apply at a
    // random crash point, another fails its next post-flip self-test. This
    // guarantees every soak run exercises crash recovery and rollback
    // even if the probabilistic injection draws unluckily.
    const auto crash_victim = live[rng.NextBounded(live.size())];
    (void)registry.ArmAgentCrash(
        crash_victim,
        static_cast<agent::CrashPoint>(1 + rng.NextBounded(2)));
    const auto health_victim = live[rng.NextBounded(live.size())];
    (void)registry.ArmAgentHealthFailures(health_victim, 1);

    const size_t fault_index = rng.NextBounded(6);
    summary.fault = kFaultNames[fault_index];
    summary.fault_rate =
        fault_index == 0 ? 0.0 : 0.05 + 0.25 * rng.NextDouble();

    fleet::CampaignConfig campaign;
    campaign.source = target;
    campaign.policy = core::EncryptionPolicy::PartialRandom(0.5);
    campaign.devices = all;
    campaign.workers = profile.workers;
    campaign.max_attempts = profile.attempts;
    campaign.channel.fault = kFaults[fault_index];
    campaign.fault_rate = summary.fault_rate;
    campaign.campaign_seed = seed ^ (0x50AC0000ull + round);
    campaign.delta = summary.delta;
    if (summary.delta) campaign.delta_base_source = base;

    // Concurrent chaos: every other round rotates a random group's key
    // epoch (and redeploys it) WHILE the fleet-wide campaign runs, and a
    // churn thread enrolls/revokes devices under both.
    const bool rotate = (round % 2) == 1;
    summary.rotation_ran = rotate;
    summary.rotated_group =
        rotate ? group_ids[rng.NextBounded(group_ids.size())]
               : fleet::kNoGroup;
    const uint64_t churn_births = rng.NextBounded(3);
    const bool churn_revoke =
        rng.NextDouble() < 0.2 && revoked_total + 1 < all.size() / 3;
    const auto churn_revoke_target =
        live[rng.NextBounded(live.size())];
    const uint64_t churn_group_pick = rng.NextBounded(group_ids.size());

    Result<fleet::RotationReport> rotation_result =
        Status(ErrorCode::kUnsupported, "rotation not run this round");
    std::thread rotator;
    if (rotate) {
      rotator = std::thread([&] {
        fleet::RotationConfig rotation_config;
        rotation_config.group = summary.rotated_group;
        rotation_config.campaign.source = target;
        rotation_config.campaign.policy =
            core::EncryptionPolicy::PartialRandom(0.5);
        rotation_config.campaign.workers = 2;
        rotation_config.campaign.max_attempts = profile.attempts;
        rotation_config.campaign.campaign_seed =
            seed ^ (0x40CA0000ull + round);
        fleet::RotationCampaign rotation(engine, registry, cache);
        rotation_result = rotation.Run(rotation_config);
      });
    }
    std::thread churner([&] {
      for (uint64_t b = 0; b < churn_births; ++b) {
        auto enrolled = registry.Enroll(
            0x50AD0000ull + enrolled_total + b,
            group_ids[churn_group_pick]);
        if (enrolled.ok()) ++summary.enrolled;
      }
      if (churn_revoke && registry.Revoke(churn_revoke_target).ok()) {
        ++summary.revoked_now;
      }
    });

    auto report = engine.Run(campaign);
    churner.join();
    if (rotator.joinable()) rotator.join();
    enrolled_total += summary.enrolled;
    revoked_total += summary.revoked_now;

    if (!report.ok()) {
      violations.push_back(SoakFormat("round %zu: campaign failed: %s",
                                      round,
                                      report.status().ToString().c_str()));
    } else {
      summary.deploy = std::move(*report);
      const auto& r = summary.deploy;
      // Accounting identities: every target lands in exactly one bucket,
      // and the wire totals decompose by package kind.
      if (r.succeeded + r.failed + r.revoked + r.skipped != r.targets) {
        violations.push_back(SoakFormat(
            "round %zu: outcome buckets do not partition targets "
            "(%llu+%llu+%llu+%llu != %llu)",
            round, static_cast<unsigned long long>(r.succeeded),
            static_cast<unsigned long long>(r.failed),
            static_cast<unsigned long long>(r.revoked),
            static_cast<unsigned long long>(r.skipped),
            static_cast<unsigned long long>(r.targets)));
      }
      if (r.delta_deliveries + r.full_deliveries != r.deliveries) {
        violations.push_back(SoakFormat(
            "round %zu: deliveries do not decompose by package kind",
            round));
      }
    }
    if (rotate) {
      if (rotation_result.ok()) {
        summary.rotation_succeeded = rotation_result->rollout.succeeded;
        summary.rotation_failed = rotation_result->rollout.failed;
        summary.rotation_new_epoch = rotation_result->new_epoch;
      } else {
        violations.push_back(SoakFormat(
            "round %zu: rotation campaign failed: %s", round,
            rotation_result.status().ToString().c_str()));
      }
    }

    SoakSweepFleet(registry, round, &violations);

    std::printf(
        "soak round %zu/%zu: fault=%s rate=%.2f delta=%d rotate=%s "
        "+%llu devices -%llu | %llu ok / %llu failed / %llu revoked, "
        "%llu rejections, %llu rollbacks, %llu health rejections, "
        "violations so far: %zu\n",
        round + 1, profile.rounds, summary.fault, summary.fault_rate,
        summary.delta ? 1 : 0,
        rotate ? std::to_string(summary.rotated_group).c_str() : "no",
        static_cast<unsigned long long>(summary.enrolled),
        static_cast<unsigned long long>(summary.revoked_now),
        static_cast<unsigned long long>(summary.deploy.succeeded),
        static_cast<unsigned long long>(summary.deploy.failed),
        static_cast<unsigned long long>(summary.deploy.revoked),
        static_cast<unsigned long long>(summary.deploy.rejections),
        static_cast<unsigned long long>(summary.deploy.rollbacks),
        static_cast<unsigned long long>(summary.deploy.health_failures),
        violations.size());
    rounds.push_back(std::move(summary));
  }

  // Final sweep + fleet-wide agent history. The armed crash/health
  // victims make these counters deterministic lower bounds: a soak that
  // never recovered a crash or never rolled a flip back tested nothing.
  SoakSweepFleet(registry, profile.rounds, &violations);
  agent::AgentCounters totals;
  for (fleet::DeviceId id : registry.AllDevices()) {
    auto inspection = registry.InspectAgent(id);
    if (!inspection.ok()) continue;
    const auto& c = inspection->state.counters;
    totals.applies += c.applies;
    totals.rollbacks += c.rollbacks;
    totals.health_failures += c.health_failures;
    totals.crash_recoveries += c.crash_recoveries;
    totals.persist_failures += c.persist_failures;
  }
  if (!rounds.empty() && totals.crash_recoveries == 0) {
    violations.push_back(
        "soak never exercised crash recovery (armed crashes were lost)");
  }
  if (!rounds.empty() && totals.rollbacks == 0) {
    violations.push_back(
        "soak never exercised rollback (armed health failures were lost)");
  }
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();

  for (const auto& violation : violations) {
    std::fprintf(stderr, "soak VIOLATION: %s\n", violation.c_str());
  }
  std::printf(
      "soak agents: %llu applies, %llu rollbacks, %llu health failures, "
      "%llu crash recoveries, %llu persist failures\n",
      static_cast<unsigned long long>(totals.applies),
      static_cast<unsigned long long>(totals.rollbacks),
      static_cast<unsigned long long>(totals.health_failures),
      static_cast<unsigned long long>(totals.crash_recoveries),
      static_cast<unsigned long long>(totals.persist_failures));

  if (!json_path.empty()) {
    JsonWriter json;
    json.BeginObject();
    json.Field("tool", "eric_fleetd");
    json.Field("soak", true);
    json.Field("profile", profile.name);
    json.Field("seed", seed);
    json.Field("fleet_devices", fleet_devices);
    json.Field("final_devices", registry.AllDevices().size());
    json.Field("rounds_run", rounds.size());
    json.Field("enrolled_during_soak", enrolled_total);
    json.Field("revoked_during_soak", revoked_total);
    json.Field("wall_ms", wall_ms);
    json.Key("rounds");
    json.BeginArray();
    for (const auto& r : rounds) {
      json.BeginObject();
      json.Field("round", r.round);
      json.Field("fault", r.fault);
      json.Field("fault_rate", r.fault_rate);
      json.Field("delta", r.delta);
      json.Field("targets", r.deploy.targets);
      json.Field("succeeded", r.deploy.succeeded);
      json.Field("failed", r.deploy.failed);
      json.Field("revoked", r.deploy.revoked);
      json.Field("deliveries", r.deploy.deliveries);
      json.Field("retries", r.deploy.retries);
      json.Field("delta_deliveries", r.deploy.delta_deliveries);
      json.Field("delta_fallbacks", r.deploy.delta_fallbacks);
      json.Field("rejections", r.deploy.rejections);
      json.Field("rollbacks", r.deploy.rollbacks);
      json.Field("health_failures", r.deploy.health_failures);
      json.Field("rotation_ran", r.rotation_ran);
      json.Field("rotated_group", r.rotated_group);
      json.Field("rotation_succeeded", r.rotation_succeeded);
      json.Field("rotation_failed", r.rotation_failed);
      json.Field("rotation_new_epoch", r.rotation_new_epoch);
      json.EndObject();
    }
    json.EndArray();
    json.Key("agents");
    json.BeginObject();
    json.Field("applies", totals.applies);
    json.Field("rollbacks", totals.rollbacks);
    json.Field("health_failures", totals.health_failures);
    json.Field("crash_recoveries", totals.crash_recoveries);
    json.Field("persist_failures", totals.persist_failures);
    json.EndObject();
    json.Key("violations");
    json.BeginArray();
    for (const auto& violation : violations) json.Value(violation);
    json.EndArray();
    json.Field("pass", violations.empty());
    WriteTelemetryJson(json);
    json.EndObject();
    if (!WriteJsonFile(json, json_path)) return 1;
  }

  if (violations.empty()) {
    std::printf("soak: PASS (%zu rounds, %.1f ms)\n", rounds.size(),
                wall_ms);
    return 0;
  }
  std::printf("soak: FAIL (%zu violations over %zu rounds)\n",
              violations.size(), rounds.size());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  size_t devices = 0, groups = 1, workers = 4, revoke_every = 0;
  // Every K-th device enrolls as RV32I (0 = homogeneous RV64GC fleet).
  // Like --revoke, this shapes the *initial* enrollment only: a
  // device's ISA is a silicon property the durable registry remembers.
  size_t rv32_every = 0;
  uint32_t attempts = 1, latency_us = 0;
  double fault_rate = -1.0, fraction = 0.5;  // -1: not set, derived below
  std::string fault_name = "none", mode = "partial";
  std::string source_path, workload_name, json_path;
  bool verbose = false;
  // Rollout knobs. The defaults are one wave with no canary and no
  // throttle (rate 0 = unlimited).
  size_t canary = 0, wave_size = 0, group_concurrency = 0;
  int64_t pause_after_ms = 0, pause_for_ms = 250;
  bool shuffle = false;
  double rate = 0.0, canary_threshold = 0.1, burst = 1.0;
  // Durable-state knobs.
  std::string state_dir;
  bool resume = false;
  uint64_t snapshot_every = 0;
  // Key-epoch rotation: nonzero = rotate this group and redeploy it.
  uint64_t rotate_group = 0;
  // Delta deployment knobs.
  bool delta = false;
  std::string base_source_path, base_workload_name;
  // Telemetry export knobs (-1: interval not set, derived below).
  std::string metrics_out, trace_out;
  double metrics_interval = -1.0;
  // Health-watchdog knobs (-1: interval not set, derived below).
  std::vector<std::string> slo_texts;
  double slo_interval = -1.0;
  bool ack_watchdog = false;
  // Chaos-soak knobs.
  bool soak = false;
  std::string soak_profile_name = "short";
  uint64_t soak_seed = 0x50A4CA05;
  // Wire-transport knobs (no --listen: in-process channel, no sockets;
  // port 0 = bind an ephemeral port). --sim-clients 0 means one
  // connection per enrolled device; larger values add idle connections
  // on top.
  bool listen = false;
  int64_t listen_port = 0;
  size_t sim_clients = 0;

  for (int i = 1; i < argc; ++i) {
    auto arg = [&](const char* name) {
      return std::strcmp(argv[i], name) == 0 && i + 1 < argc;
    };
    if (arg("--devices")) devices = std::strtoull(argv[++i], nullptr, 0);
    else if (arg("--groups")) groups = std::strtoull(argv[++i], nullptr, 0);
    else if (arg("--workers")) workers = std::strtoull(argv[++i], nullptr, 0);
    else if (arg("--attempts")) attempts = static_cast<uint32_t>(
        std::strtoul(argv[++i], nullptr, 0));
    else if (arg("--fault")) fault_name = argv[++i];
    else if (arg("--fault-rate")) fault_rate = std::atof(argv[++i]);
    else if (arg("--latency-us")) latency_us = static_cast<uint32_t>(
        std::strtoul(argv[++i], nullptr, 0));
    else if (arg("--mode")) mode = argv[++i];
    else if (arg("--fraction")) fraction = std::atof(argv[++i]);
    else if (arg("--revoke")) revoke_every = std::strtoull(argv[++i], nullptr, 0);
    else if (arg("--rv32-every"))
      rv32_every = std::strtoull(argv[++i], nullptr, 0);
    else if (arg("--source")) source_path = argv[++i];
    else if (arg("--workload")) workload_name = argv[++i];
    else if (arg("--canary")) canary = std::strtoull(argv[++i], nullptr, 0);
    else if (arg("--canary-threshold")) canary_threshold = std::atof(argv[++i]);
    else if (arg("--wave-size")) wave_size = std::strtoull(argv[++i], nullptr, 0);
    else if (arg("--rate")) rate = std::atof(argv[++i]);
    else if (arg("--burst")) burst = std::atof(argv[++i]);
    else if (arg("--group-concurrency"))
      group_concurrency = std::strtoull(argv[++i], nullptr, 0);
    else if (arg("--pause-after"))
      pause_after_ms = std::strtoll(argv[++i], nullptr, 0);
    else if (arg("--pause-for"))
      pause_for_ms = std::strtoll(argv[++i], nullptr, 0);
    else if (std::strcmp(argv[i], "--shuffle") == 0) shuffle = true;
    else if (arg("--state-dir")) state_dir = argv[++i];
    else if (std::strcmp(argv[i], "--resume") == 0) resume = true;
    else if (arg("--snapshot-every"))
      snapshot_every = std::strtoull(argv[++i], nullptr, 0);
    else if (arg("--rotate-epoch"))
      rotate_group = std::strtoull(argv[++i], nullptr, 0);
    else if (std::strcmp(argv[i], "--delta") == 0) delta = true;
    else if (arg("--base-source")) base_source_path = argv[++i];
    else if (arg("--base-workload")) base_workload_name = argv[++i];
    else if (arg("--metrics-out")) metrics_out = argv[++i];
    else if (arg("--metrics-interval")) metrics_interval = std::atof(argv[++i]);
    else if (arg("--trace-out")) trace_out = argv[++i];
    else if (arg("--slo")) slo_texts.push_back(argv[++i]);
    else if (arg("--slo-interval")) slo_interval = std::atof(argv[++i]);
    else if (std::strcmp(argv[i], "--ack-watchdog") == 0) ack_watchdog = true;
    else if (std::strcmp(argv[i], "--soak") == 0) soak = true;
    else if (arg("--soak-profile")) soak_profile_name = argv[++i];
    else if (arg("--soak-seed"))
      soak_seed = std::strtoull(argv[++i], nullptr, 0);
    else if (arg("--listen")) {
      listen = true;
      listen_port = std::strtoll(argv[++i], nullptr, 0);
    }
    else if (arg("--sim-clients"))
      sim_clients = std::strtoull(argv[++i], nullptr, 0);
    else if (arg("--json")) json_path = argv[++i];
    else if (std::strcmp(argv[i], "--verbose") == 0) verbose = true;
    else { Usage(); return 2; }
  }
  const SoakProfile* soak_profile = nullptr;
  if (soak) {
    if (soak_profile_name == "short") soak_profile = &kSoakShort;
    else if (soak_profile_name == "long") soak_profile = &kSoakLong;
    else {
      std::fprintf(stderr, "--soak-profile must be short or long\n");
      Usage();
      return 2;
    }
    if (state_dir.empty()) {
      // The soak exists to prove the durable fleet + slot manifests
      // survive chaos; a memory-only soak would test a different system.
      std::fprintf(stderr, "--soak requires --state-dir DIR\n");
      Usage();
      return 2;
    }
    if (resume || rotate_group != 0 || delta) {
      std::fprintf(stderr,
                   "--soak drives its own campaigns; drop --resume/"
                   "--rotate-epoch/--delta\n");
      Usage();
      return 2;
    }
    // --devices/--groups still override the profile's fleet size.
    if (devices == 0) devices = soak_profile->devices;
    if (groups == 1) groups = soak_profile->groups;
  }
  if (devices == 0 || groups == 0) { Usage(); return 2; }
  if (state_dir.empty() && (resume || snapshot_every > 0)) {
    // Silently ignoring --resume would re-deliver a whole interrupted
    // campaign from scratch; refuse like any other invalid combination.
    std::fprintf(stderr,
                 "--resume/--snapshot-every require --state-dir DIR\n");
    Usage();
    return 2;
  }

  if (delta && base_source_path.empty() && base_workload_name.empty()) {
    std::fprintf(stderr,
                 "--delta requires the previous release: --base-source FILE "
                 "or --base-workload NAME\n");
    Usage();
    return 2;
  }
  if (!delta && (!base_source_path.empty() || !base_workload_name.empty())) {
    std::fprintf(stderr, "--base-source/--base-workload require --delta\n");
    Usage();
    return 2;
  }
  if (delta && rotate_group != 0) {
    // A rotation re-seals the SAME build under a new key; there is no
    // older version to diff from (and the rotated HDEs could not decrypt
    // a retained stale-epoch base anyway).
    std::fprintf(stderr, "--delta cannot be combined with --rotate-epoch\n");
    Usage();
    return 2;
  }
  if (metrics_out.empty() && metrics_interval >= 0) {
    // An interval with nothing to export would silently measure nothing;
    // refuse like --resume without --state-dir.
    std::fprintf(stderr, "--metrics-interval requires --metrics-out FILE\n");
    Usage();
    return 2;
  }
  if (metrics_interval < 0) metrics_interval = 1.0;

  // --slo validation mirrors the telemetry flags: modifiers without an
  // activating flag are refused, and a malformed spec fails fast with
  // the parser's diagnosis instead of arming a watchdog that watches
  // nothing.
  std::vector<obs::SloSpec> slo_specs;
  for (const auto& text : slo_texts) {
    auto parsed = obs::ParseSloSpec(text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "--slo %s: %s\n", text.c_str(),
                   parsed.status().ToString().c_str());
      Usage();
      return 2;
    }
    slo_specs.push_back(std::move(*parsed));
  }
  if (slo_specs.empty() && slo_interval >= 0) {
    std::fprintf(stderr, "--slo-interval requires at least one --slo SPEC\n");
    Usage();
    return 2;
  }
  if (slo_interval < 0) slo_interval = 1.0;
  if (!slo_specs.empty() && soak) {
    // The soak drives its own campaign sequence; there is no single
    // campaign control for a breach policy to act on.
    std::fprintf(stderr, "--slo cannot be combined with --soak\n");
    Usage();
    return 2;
  }
  if (ack_watchdog && !resume) {
    std::fprintf(stderr, "--ack-watchdog requires --resume\n");
    Usage();
    return 2;
  }
  if (listen && soak) {
    // The soak drives its own in-process campaign sequence; its chaos
    // model (kill points, slot corruption) has no wire leg to attach to.
    std::fprintf(stderr, "--listen cannot be combined with --soak\n");
    Usage();
    return 2;
  }
  // Range checks run before anything touches the state dir: a value the
  // scheduler would reject must not leave a begun campaign journal behind.
  if (listen && (listen_port < 0 || listen_port > 65535)) {
    std::fprintf(stderr, "--listen PORT must be 0..65535 (0 = ephemeral)\n");
    Usage();
    return 2;
  }
  if (canary_threshold < 0 || canary_threshold > 1) {
    std::fprintf(stderr, "--canary-threshold must be in [0, 1]\n");
    Usage();
    return 2;
  }
  if (rate < 0 || burst < 0 || pause_after_ms < 0 || pause_for_ms < 0) {
    std::fprintf(stderr,
                 "--rate/--burst/--pause-after/--pause-for must be >= 0\n");
    Usage();
    return 2;
  }
  if (sim_clients > 0 && !listen) {
    std::fprintf(stderr, "--sim-clients requires --listen PORT\n");
    Usage();
    return 2;
  }

  // Program to deploy (and, for --delta, the release it patches from).
  const auto load_program = [](const std::string& path,
                               std::string fallback_workload,
                               std::string* source,
                               std::string* name) -> bool {
    if (!path.empty()) {
      std::ifstream in(path);
      if (!in) {
        std::fprintf(stderr, "cannot read %s\n", path.c_str());
        return false;
      }
      std::stringstream buffer;
      buffer << in.rdbuf();
      *source = buffer.str();
      *name = path;
      return true;
    }
    const auto* workload = workloads::FindWorkload(fallback_workload);
    if (workload == nullptr) {
      std::fprintf(stderr, "unknown workload %s\n", fallback_workload.c_str());
      return false;
    }
    *source = workload->source;
    *name = workload->name;
    return true;
  };
  std::string program_source, program_name;
  if (!load_program(source_path,
                    workload_name.empty() ? "crc32" : workload_name,
                    &program_source, &program_name)) {
    return 1;
  }
  std::string base_source, base_name;
  if (delta && !load_program(base_source_path, base_workload_name,
                             &base_source, &base_name)) {
    return 1;
  }

  core::EncryptionPolicy policy;
  compiler::CompileOptions compile_options;
  if (mode == "full") policy = core::EncryptionPolicy::Full();
  else if (mode == "partial") policy = core::EncryptionPolicy::PartialRandom(fraction);
  else if (mode == "field") {
    policy = core::EncryptionPolicy::FieldLevelPointers();
    compile_options.compress = false;  // field rules address 32-bit encodings
  } else if (mode == "none") policy = core::EncryptionPolicy::None();
  else { Usage(); return 2; }

  net::ChannelConfig channel;
  if (!ParseFault(fault_name, &channel.fault)) { Usage(); return 2; }
  // --fault without --fault-rate means "fault every delivery": a named
  // fault that never fires would silently test nothing.
  if (fault_rate < 0) {
    fault_rate = channel.fault == net::ChannelFault::kNone ? 0.0 : 1.0;
  }

  // --- Telemetry export -----------------------------------------------------
  // The exporter starts before the fleet stands up (enrollment gauges are
  // telemetry too) and its destructor flushes one final snapshot on every
  // exit path, success or error.
  if (!trace_out.empty()) obs::TraceCollector::Global().Enable();
  obs::MetricsExporter exporter;
  if (!metrics_out.empty() || !trace_out.empty()) {
    obs::MetricsExporter::Options telemetry;
    telemetry.json_path = metrics_out;
    telemetry.trace_path = trace_out;
    telemetry.interval_seconds = metrics_interval;
    auto started = exporter.Start(std::move(telemetry));
    if (!started.ok()) {
      std::fprintf(stderr, "cannot start telemetry exporter: %s\n",
                   started.ToString().c_str());
      return 1;
    }
    if (!metrics_out.empty()) {
      std::printf("telemetry: metrics -> %s (+ .prom) every %.2f s%s%s\n",
                  metrics_out.c_str(), metrics_interval,
                  trace_out.empty() ? "" : ", spans -> ",
                  trace_out.c_str());
    } else {
      std::printf("telemetry: spans -> %s\n", trace_out.c_str());
    }
  }

  // --- Stand up the fleet ---------------------------------------------------
  fleet::RegistryConfig registry_config;
  registry_config.key_config.domain = "fleetd.v1";
  fleet::DeviceRegistry registry(registry_config);

  bool recovered_fleet = false;
  if (!state_dir.empty()) {
    fleet::RegistryStorageOptions storage_options;
    storage_options.snapshot_every = snapshot_every;
    auto opened = registry.OpenStorage(state_dir, storage_options);
    if (!opened.ok()) {
      std::fprintf(stderr, "cannot open state dir %s: %s\n",
                   state_dir.c_str(), opened.ToString().c_str());
      return 1;
    }
    const auto storage = registry.storage_info();
    recovered_fleet = storage.devices_recovered > 0;
    if (recovered_fleet) {
      std::printf("state: recovered %llu devices / %llu groups from %s in "
                  "%.1f ms (%s%llu WAL records replayed%s)\n",
                  static_cast<unsigned long long>(storage.devices_recovered),
                  static_cast<unsigned long long>(storage.groups_recovered),
                  state_dir.c_str(), storage.recovery_ms,
                  storage.snapshot_loaded ? "snapshot + " : "",
                  static_cast<unsigned long long>(
                      storage.wal_records_replayed),
                  storage.corrupt_tails > 0 ? ", corrupt tail repaired" : "");
    } else {
      std::printf("state: fresh state dir %s\n", state_dir.c_str());
    }
  }

  // Flight recorder: any fatal event (WAL poison, checkpoint-append
  // failure) dumps the whole event ring here. Prefer the durable state
  // dir (it exists by now — OpenStorage created it); fall back to a
  // sibling of the metrics snapshot.
  std::string flight_path;
  if (!state_dir.empty()) flight_path = state_dir + "/flight-record.json";
  else if (!metrics_out.empty()) flight_path = metrics_out + ".flight";
  if (!flight_path.empty()) {
    obs::EventLog::Global().SetFlightRecorderPath(flight_path);
  }

  std::vector<fleet::DeviceId> all_devices;
  size_t revoked_count = 0;
  if (recovered_fleet) {
    // The durable fleet is authoritative; the --devices/--groups/--revoke
    // flags only describe the *initial* enrollment.
    all_devices = registry.AllDevices();
    if (all_devices.size() != devices) {
      std::printf("state: recovered fleet has %zu devices (ignoring "
                  "--devices %zu)\n", all_devices.size(), devices);
    }
    if (revoke_every > 0) {
      std::printf("state: fleet recovered from disk; --revoke only "
                  "shapes the initial enrollment (ignored)\n");
    }
    if (rv32_every > 0) {
      std::printf("state: fleet recovered from disk; --rv32-every only "
                  "shapes the initial enrollment (ignored)\n");
    }
  } else {
    std::vector<fleet::GroupId> group_ids;
    for (size_t g = 0; g < groups; ++g) {
      group_ids.push_back(registry.CreateGroup("group-" + std::to_string(g)));
    }
    for (size_t i = 0; i < devices; ++i) {
      const isa::IsaId device_isa =
          rv32_every > 0 && (i + 1) % rv32_every == 0 ? isa::IsaId::kRv32I
                                                      : isa::IsaId::kRv64Gc;
      auto id =
          registry.Enroll(0xF1EED000 + i, group_ids[i % groups], device_isa);
      if (!id.ok()) {
        std::fprintf(stderr, "enroll failed: %s\n",
                     id.status().ToString().c_str());
        return 1;
      }
      all_devices.push_back(*id);
    }
    if (revoke_every > 0) {
      for (size_t i = revoke_every - 1; i < all_devices.size();
           i += revoke_every) {
        if (registry.Revoke(all_devices[i]).ok()) ++revoked_count;
      }
    }
    if (!state_dir.empty()) {
      // One snapshot after initial enrollment: cold restarts recover from
      // the snapshot instead of replaying the whole enrollment log.
      auto snapped = registry.Snapshot();
      if (!snapped.ok()) {
        std::fprintf(stderr, "snapshot failed: %s\n",
                     snapped.ToString().c_str());
        return 1;
      }
    }
  }
  const auto stats = registry.Stats();
  std::printf("fleet: %zu devices / %zu groups / %zu shards "
              "(stripe balance %zu..%zu), %zu revoked\n",
              stats.devices, stats.groups, stats.shards, stats.min_shard,
              stats.max_shard, revoked_count);
  // Per-ISA fleet composition, from the registry (the authority for
  // both fresh enrollments and recovered fleets). Printed only for
  // heterogeneous fleets so homogeneous runs keep their exact output.
  std::array<size_t, isa::kNumIsaIds> fleet_isa_counts{};
  for (fleet::DeviceId id : all_devices) {
    auto info = registry.Lookup(id);
    if (info.ok()) ++fleet_isa_counts[static_cast<size_t>(info->isa)];
  }
  if (fleet_isa_counts[static_cast<size_t>(isa::IsaId::kRv64Gc)] !=
      all_devices.size()) {
    std::printf("isa:   ");
    bool first = true;
    for (size_t i = 0; i < isa::kNumIsaIds; ++i) {
      if (fleet_isa_counts[i] == 0) continue;
      std::printf("%s%s %zu", first ? "" : ", ",
                  std::string(isa::IsaName(static_cast<isa::IsaId>(i)))
                      .c_str(),
                  fleet_isa_counts[i]);
      first = false;
    }
    std::printf("\n");
  }

  // --- Chaos soak path ------------------------------------------------------
  if (soak) {
    std::printf("soak: profile=%s seed=0x%llx (%zu rounds)\n",
                soak_profile->name,
                static_cast<unsigned long long>(soak_seed),
                soak_profile->rounds);
    return RunSoak(registry, *soak_profile, soak_seed, stats.devices,
                   json_path);
  }

  // --- Campaign -------------------------------------------------------------
  fleet::PackageCache cache;
  fleet::DeploymentEngine engine(registry, cache);

  fleet::CampaignConfig campaign;
  campaign.source = program_source;
  campaign.policy = policy;
  campaign.compile_options = compile_options;
  campaign.devices = all_devices;  // across all groups
  campaign.workers = workers;
  campaign.max_attempts = attempts;
  campaign.channel = channel;
  campaign.fault_rate = fault_rate;
  campaign.delivery_latency_us = latency_us;
  campaign.delta = delta;
  campaign.delta_base_source = base_source;

  // --- Wire transport (--listen) --------------------------------------------
  // The server and the simulated device fleet outlive the campaign
  // below; campaign.transport routes each delivery over their
  // sockets instead of the in-process channel. Transport choice shapes
  // only the delivery path, never the bytes, so it stays out of the
  // campaign fingerprint and a --listen run can resume a plain one.
  std::unique_ptr<net::FleetServer> listen_server;
  std::unique_ptr<net::SimClientFleet> sim_fleet;
  if (listen) {
    net::FleetServerConfig server_config;
    server_config.port = static_cast<uint16_t>(listen_port);
    listen_server = std::make_unique<net::FleetServer>(server_config);
    auto started = listen_server->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "cannot start fleet server: %s\n",
                   started.ToString().c_str());
      return 1;
    }
    size_t want_clients = sim_clients == 0 ? all_devices.size() : sim_clients;
    if (want_clients < all_devices.size()) {
      std::fprintf(stderr,
                   "--sim-clients %zu is smaller than the enrolled fleet "
                   "(%zu devices); every campaign target needs a "
                   "connection\n",
                   sim_clients, all_devices.size());
      return 2;
    }
    net::SimClientFleetConfig fleet_config;
    fleet_config.port = listen_server->port();
    fleet_config.devices.assign(all_devices.begin(), all_devices.end());
    // Extra connections beyond the enrolled fleet handshake and idle:
    // they load the event loop without joining the campaign.
    uint64_t synthetic = 0;
    for (fleet::DeviceId id : all_devices) {
      synthetic = std::max<uint64_t>(synthetic, id);
    }
    for (size_t extra = all_devices.size(); extra < want_clients; ++extra) {
      fleet_config.devices.push_back(++synthetic);
    }
    sim_fleet = std::make_unique<net::SimClientFleet>(std::move(fleet_config));
    auto fleet_up = sim_fleet->Start();
    if (!fleet_up.ok()) {
      std::fprintf(stderr, "cannot start sim client fleet: %s\n",
                   fleet_up.ToString().c_str());
      return 1;
    }
    if (!listen_server->WaitForDevices(want_clients, 60'000)) {
      std::fprintf(stderr,
                   "sim fleet incomplete: %zu of %zu connections "
                   "handshaken within 60 s\n",
                   listen_server->connected_devices(), want_clients);
      return 1;
    }
    std::printf("listen: 127.0.0.1:%u, %zu device connections handshaken "
                "(%zu campaign targets)\n",
                listen_server->port(), listen_server->connected_devices(),
                all_devices.size());
    campaign.transport = listen_server.get();
  }

  // Version identities: what manifests record, what resume matches on.
  const uint64_t target_version = fleet::ProgramVersionFingerprint(
      program_source, policy, compile_options);
  const uint64_t base_version =
      delta ? fleet::ProgramVersionFingerprint(base_source, policy,
                                               compile_options)
            : 0;

  // --- Rotation target selection --------------------------------------------
  // A rotation campaign targets the rotated group only; its target epoch
  // defaults to current+1 and is overridden by the journal on resume.
  uint64_t rotate_target_epoch = 0;
  if (rotate_group != 0) {
    auto members = registry.GroupMembers(rotate_group);
    auto epoch = registry.GroupEpoch(rotate_group);
    if (!members.ok() || !epoch.ok()) {
      std::fprintf(stderr, "--rotate-epoch: unknown group %llu\n",
                   static_cast<unsigned long long>(rotate_group));
      return 1;
    }
    campaign.devices = *members;
    rotate_target_epoch = *epoch + 1;
  }

  // --- Durable campaign checkpoints -----------------------------------------
  fleet::CampaignJournal journal;
  bool journal_active = false;
  bool resumed = false;
  size_t previously_completed = 0;
  // Targets durably checkpointed as failed before the crash: excluded
  // from the resume set (their retry budget is spent) but they must
  // still fail the campaign's exit code and show in the report.
  uint64_t previously_failed = 0;
  size_t original_targets = campaign.devices.size();
  // The full original target set (resume included): what the manifest
  // completion count in the JSON report is computed over.
  std::vector<fleet::DeviceId> manifest_targets = campaign.devices;
  if (!state_dir.empty()) {
    auto opened = journal.Open(state_dir);
    if (!opened.ok()) {
      std::fprintf(stderr, "cannot open campaign journal: %s\n",
                   opened.ToString().c_str());
      return 1;
    }
    const auto& recovered = journal.recovered();
    if (recovered.active && resume) {
      // A resumed rotation continues to the *journaled* target epoch:
      // the registry may or may not have durably bumped before the
      // crash, and recomputing current+1 here would rotate one epoch
      // too far whenever it had.
      if (rotate_group != 0 && recovered.rotation &&
          recovered.rotation_group == rotate_group) {
        rotate_target_epoch = recovered.rotation_epoch;
      }
      if (recovered.rotation && rotate_group == 0) {
        std::fprintf(stderr,
                     "refusing to resume: the interrupted campaign is a key "
                     "rotation; rerun with --rotate-epoch %llu\n",
                     static_cast<unsigned long long>(
                         recovered.rotation_group));
        return 1;
      }
      if (!recovered.rotation && rotate_group != 0) {
        std::fprintf(stderr,
                     "refusing to resume: the interrupted campaign is not a "
                     "key rotation (drop --rotate-epoch)\n");
        return 1;
      }
    }
    const uint64_t fingerprint = CampaignFingerprint(
        program_source, mode, fraction, campaign.campaign_seed, fault_name,
        fault_rate, attempts, rotate_group, rotate_target_epoch, delta,
        base_version);
    if (recovered.active) {
      if (!resume) {
        std::fprintf(stderr,
                     "an interrupted campaign is checkpointed in %s; rerun "
                     "with --resume to continue it\n", state_dir.c_str());
        return 1;
      }
      if (recovered.campaign_fingerprint != fingerprint) {
        std::fprintf(stderr,
                     "refusing to resume: the interrupted campaign ran a "
                     "different program, policy, or rotation target\n");
        return 1;
      }
      manifest_targets = recovered.targets;
      campaign.devices = recovered.RemainingTargets();
      previously_completed = recovered.completed.size();
      previously_failed = recovered.failed;
      original_targets = recovered.targets.size();
      resumed = true;
      std::printf("resume: %zu of %zu targets already checkpointed "
                  "(%llu failed), %zu remain\n", previously_completed,
                  original_targets,
                  static_cast<unsigned long long>(previously_failed),
                  campaign.devices.size());
      if (recovered.watchdog) {
        const char* verb = recovered.watchdog_abort ? "aborted" : "paused";
        std::printf(
            "resume: campaign was %s by the health watchdog: SLO %s "
            "observed %.6g > %.6g (burn %.2fx)\n",
            verb, recovered.watchdog_slo.c_str(),
            recovered.watchdog_observed, recovered.watchdog_threshold,
            recovered.watchdog_burn);
        if (!ack_watchdog) {
          std::fprintf(stderr,
                       "refusing to resume a watchdog-%s campaign; rerun "
                       "with --resume --ack-watchdog to acknowledge the "
                       "breach and continue\n",
                       verb);
          if (!json_path.empty()) {
            JsonWriter json;
            json.BeginObject();
            json.Field("tool", "eric_fleetd");
            json.Field("watchdog_stopped", true);
            json.Field("watchdog_aborted", recovered.watchdog_abort);
            json.Field("slo", recovered.watchdog_slo);
            json.Field("observed", recovered.watchdog_observed);
            json.Field("threshold", recovered.watchdog_threshold);
            json.Field("burn_rate", recovered.watchdog_burn);
            json.Field("previously_completed", previously_completed);
            json.Field("previously_failed", previously_failed);
            json.Field("original_targets", original_targets);
            json.Field("remaining", campaign.devices.size());
            json.EndObject();
            WriteJsonFile(json, json_path);
          }
          return 3;
        }
        std::printf("resume: watchdog %s acknowledged; continuing over "
                    "the remaining targets\n",
                    recovered.watchdog_abort ? "abort" : "pause");
      }
    } else {
      if (resume) {
        std::printf("resume: no interrupted campaign in %s; starting "
                    "fresh\n", state_dir.c_str());
      }
      auto begun =
          rotate_group != 0
              ? journal.BeginRotation(fingerprint, campaign.devices,
                                      rotate_group, rotate_target_epoch)
              : journal.Begin(fingerprint, campaign.devices);
      if (!begun.ok()) {
        std::fprintf(stderr, "cannot begin campaign journal: %s\n",
                     begun.ToString().c_str());
        return 1;
      }
    }
    journal_active = true;
  }
  if (resumed && campaign.devices.empty()) {
    // The crash landed between the last checkpoint and the end record:
    // nothing to dispatch, but the journal still closes and --json
    // consumers still get the same report, over zero targets.
    std::printf("resume: every target already has a durable outcome; "
                "campaign complete\n");
  }

  std::printf("campaign: %s, %s encryption, %zu workers, %u attempts, "
              "fault=%s rate=%.2f\n",
              program_name.c_str(), mode.c_str(), workers, attempts,
              fault_name.c_str(), fault_rate);

  // --- Health watchdog ------------------------------------------------------
  // The campaign's control block is the watchdog's lever: a breach
  // pauses or cancels the rollout through it. Declaration order is the safety argument: the watchdog (and the
  // shutdown guard after it) is declared after the journal and the
  // control, so its breach action can never fire against a destroyed
  // journal or control block.
  fleet::CampaignControl control;
  obs::HealthMonitor watchdog;
  if (!slo_specs.empty()) {
    for (const auto& spec : slo_specs) {
      auto added = watchdog.AddSlo(spec);
      if (!added.ok()) {
        std::fprintf(stderr, "--slo %s: %s\n",
                     obs::FormatSloSpec(spec).c_str(),
                     added.ToString().c_str());
        return 2;
      }
      std::printf("watchdog: %s\n", obs::FormatSloSpec(spec).c_str());
    }
    watchdog.SetBreachAction([&](const obs::BreachInfo& breach) {
      std::fprintf(stderr,
                   "watchdog: SLO %s breached: observed %.6g > %.6g "
                   "(burn %.2fx, n=%llu) -> %s\n",
                   breach.slo_name.c_str(), breach.observed,
                   breach.threshold, breach.burn_rate,
                   static_cast<unsigned long long>(breach.window_count),
                   std::string(obs::BreachPolicyName(breach.policy))
                       .c_str());
      if (breach.policy == obs::BreachPolicy::kLog) return;
      const bool abort = breach.policy == obs::BreachPolicy::kAbort;
      // Journal before control: a kill -9 landing between the two still
      // resumes into a watchdog-stopped campaign, never a silently
      // half-paused one.
      if (journal_active) {
        auto noted = journal.NoteWatchdog(breach.slo_name, abort,
                                          breach.observed, breach.threshold,
                                          breach.burn_rate);
        if (!noted.ok()) {
          std::fprintf(stderr, "watchdog: cannot journal the breach: %s\n",
                       noted.ToString().c_str());
        }
      }
      if (abort) {
        control.Cancel();
      } else {
        control.Pause();
      }
    });
    obs::SetGlobalHealthMonitor(&watchdog);
    auto started = watchdog.Start(slo_interval);
    if (!started.ok()) {
      std::fprintf(stderr, "cannot start health watchdog: %s\n",
                   started.ToString().c_str());
      return 1;
    }
  }
  // Stops the watchdog (one final evaluation) and then the exporter
  // (one final snapshot) on every exit path below — in that order, so
  // the final snapshot's health section carries the final verdict.
  struct TelemetryShutdown {
    obs::HealthMonitor* watchdog;
    obs::MetricsExporter* exporter;
    ~TelemetryShutdown() {
      watchdog->Stop();
      exporter->Stop();
    }
  } telemetry_shutdown{&watchdog, &exporter};

  // --- The campaign ----------------------------------------------------------
  // Every campaign is one scheduled rollout. Without rollout flags that is
  // a single wave with no canary and no throttle; a key rotation re-keys
  // its group first and then rolls out like any other campaign.
  fleet::SchedulerConfig rollout;
  rollout.canary_size = canary;
  rollout.canary_failure_threshold = canary_threshold;
  rollout.wave_size = wave_size;
  rollout.shuffle_targets = shuffle;
  rollout.limits.dispatch_rate = rate;
  rollout.limits.dispatch_burst = burst;
  rollout.limits.group_concurrency = group_concurrency;
  std::printf("rollout:  canary=%zu (threshold %.2f), wave-size=%zu, "
              "rate=%.0f/s, group-concurrency=%zu\n",
              canary, canary_threshold, wave_size, rate, group_concurrency);

  fleet::RotationReport rotation;
  if (rotate_group != 0) {
    fleet::RotationConfig rotation_config;
    rotation_config.group = rotate_group;
    rotation_config.target_epoch = rotate_target_epoch;
    auto rekeyed =
        fleet::RotationCampaign(engine, registry, cache).Rekey(rotation_config);
    if (!rekeyed.ok()) {
      std::fprintf(stderr, "rotation campaign failed: %s\n",
                   rekeyed.status().ToString().c_str());
      return 1;
    }
    rotation = std::move(*rekeyed);
    std::printf("rotation: group %llu epoch %llu -> %llu%s, %zu members "
                "re-keyed, %zu stale artifacts invalidated "
                "(bump %.1f ms, invalidate %.2f ms)\n",
                static_cast<unsigned long long>(rotate_group),
                static_cast<unsigned long long>(rotation.old_epoch),
                static_cast<unsigned long long>(rotation.new_epoch),
                rotation.bumped ? "" : " (already durable; resume)",
                rotation.members_rekeyed, rotation.artifacts_invalidated,
                rotation.bump_ms, rotation.invalidate_ms);
  }

  if (journal_active) {
    control.AttachCheckpointSink(&journal);
    journal.CancelCampaignOnError(&control);
  }
  fleet::ScheduledReport report;
  if (!campaign.devices.empty()) {
    // The pauser waits on `ended`, not a plain sleep: a campaign that
    // finishes first is neither paused nor resumed, and the process exits
    // as soon as the campaign returns.
    std::mutex ended_mu;
    std::condition_variable ended_cv;
    bool ended = false;
    auto wait_for_end = [&](int64_t ms) {
      std::unique_lock<std::mutex> lock(ended_mu);
      return ended_cv.wait_for(lock, std::chrono::milliseconds(ms),
                               [&] { return ended; });
    };
    std::thread pauser;
    if (pause_after_ms > 0) {
      pauser = std::thread([&] {
        if (wait_for_end(pause_after_ms)) return;
        control.Pause();
        const auto at_pause = control.progress();
        std::printf("[control] paused %lld ms in (wave %u, %llu deliveries)\n",
                    static_cast<long long>(pause_after_ms),
                    at_pause.waves_started,
                    static_cast<unsigned long long>(at_pause.deliveries));
        if (wait_for_end(pause_for_ms)) return;
        control.Resume();
        std::printf("[control] resumed after %lld ms\n",
                    static_cast<long long>(pause_for_ms));
      });
    }
    auto scheduled =
        fleet::CampaignScheduler(engine, registry).Run(campaign, rollout,
                                                       &control);
    {
      std::lock_guard<std::mutex> lock(ended_mu);
      ended = true;
    }
    ended_cv.notify_all();
    if (pauser.joinable()) pauser.join();
    if (!scheduled.ok()) {
      std::fprintf(stderr, "campaign failed: %s\n",
                   scheduled.status().ToString().c_str());
      return 1;
    }
    report = std::move(*scheduled);
  }
  if (journal_active) {
    auto journal_error = journal.last_error();
    if (!journal_error.ok()) {
      std::fprintf(stderr, "checkpoint append failed: %s\n",
                   journal_error.ToString().c_str());
      return 1;
    }
    // A cancelled campaign stays open for --resume; a completed or
    // gate-aborted one is over (a gate abort is a policy decision, not
    // lost work).
    if (report.outcome != fleet::CampaignOutcome::kCancelled &&
        !journal.Complete().ok()) {
      return 1;
    }
  }

  PrintReport(report, verbose, delta);

  if (!json_path.empty()) {
    // One schema for every campaign kind; only a rotation adds its
    // "rotation" object.
    JsonWriter json;
    json.BeginObject();
    json.Field("tool", "eric_fleetd");
    json.Field("program", program_name);
    json.Field("mode", mode);
    json.Field("resumed", resumed);
    json.Field("previously_completed", previously_completed);
    json.Field("previously_failed", previously_failed);
    json.Field("original_targets", original_targets);
    json.Field("fleet_devices", stats.devices);
    json.Field("groups", groups);
    json.Field("workers", workers);
    json.Field("fault", fault_name);
    json.Field("fault_rate", fault_rate);
    json.Field("outcome", fleet::CampaignOutcomeName(report.outcome));
    json.Field("devices", report.targets);
    json.Field("succeeded", report.succeeded);
    json.Field("failed", report.failed);
    json.Field("revoked", report.revoked);
    json.Field("never_dispatched", report.never_dispatched);
    json.Field("deliveries", report.deliveries);
    json.Field("retries", report.retries);
    json.Field("delta", delta);
    json.Field("delta_deliveries", report.delta_deliveries);
    json.Field("full_deliveries", report.full_deliveries);
    json.Field("delta_fallbacks", report.delta_fallbacks);
    json.Field("bytes_shipped", report.bytes_shipped);
    json.Field("bytes_full_equivalent", report.bytes_full_equivalent);
    json.Field("manifest_update_failures", report.manifest_update_failures);
    json.Field("rejections", report.rejections);
    json.Field("rollbacks", report.rollbacks);
    json.Field("health_failures", report.health_failures);
    json.Field("cache_hits", report.cache_artifact_hits);
    json.Field("cache_misses", report.cache_artifact_misses);
    json.Field("peak_in_flight", report.peak_in_flight);
    json.Field("wall_ms", report.wall_ms);
    json.Field("devices_per_second", report.devices_per_second);
    json.Field("manifest_current",
               CountManifestsAt(registry, manifest_targets, target_version));
    // Each wave is its own engine campaign with its own trace; the
    // top-level id is the first wave's (the whole campaign's when flat).
    json.Field("trace_id", report.waves.empty()
                               ? uint64_t{0}
                               : report.waves.front().report.trace_id);
    WriteIsaJson(json, report.by_isa);
    json.Key("waves");
    json.BeginArray();
    for (const auto& wave : report.waves) {
      json.BeginObject();
      json.Field("index", wave.wave_index);
      json.Field("canary", wave.canary);
      json.Field("trace_id", wave.report.trace_id);
      json.Field("targets", wave.report.targets);
      json.Field("succeeded", wave.report.succeeded);
      json.Field("failed", wave.report.failed);
      json.Field("failure_rate", wave.failure_rate);
      json.Field("gate_breached", wave.gate_breached);
      json.Field("wall_ms", wave.report.wall_ms);
      json.EndObject();
    }
    json.EndArray();
    if (rotate_group != 0) {
      json.Key("rotation");
      json.BeginObject();
      json.Field("group", rotate_group);
      json.Field("old_epoch", rotation.old_epoch);
      json.Field("new_epoch", rotation.new_epoch);
      json.Field("bumped", rotation.bumped);
      json.Field("members_rekeyed", rotation.members_rekeyed);
      json.Field("artifacts_invalidated", rotation.artifacts_invalidated);
      json.EndObject();
    }
    WriteTelemetryJson(json);
    json.EndObject();
    if (!WriteJsonFile(json, json_path)) return 1;
  }

  // Complete means every non-revoked target of this run succeeded and no
  // target was durably checkpointed as failed before a resume.
  const bool complete = report.outcome == fleet::CampaignOutcome::kCompleted &&
                        report.succeeded == report.targets - report.revoked &&
                        previously_failed == 0;
  return complete ? 0 : 1;
}
