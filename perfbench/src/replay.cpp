#include "replay.h"

#include <atomic>
#include <chrono>
#include <map>
#include <thread>

#include "net/channel.h"
#include "pkg/delta.h"
#include "spans.h"

namespace perfbench {

using namespace eric;

/// Per-release artifact memo, the replay's copy of the engine's: one
/// slot per (deployment key, ISA), built by the first worker to claim it.
struct Replayer::Memo {
  struct Slot {
    std::mutex mutex;
    std::shared_ptr<const fleet::CachedArtifact> artifact;  ///< null: failed
    bool delta_evaluated = false;
    std::shared_ptr<const fleet::CachedArtifact> delta;
  };
  std::mutex mutex;
  std::map<std::pair<crypto::Key256, isa::IsaId>, std::shared_ptr<Slot>> slots;
  uint64_t target_version = 0;
  uint64_t base_version = 0;
};

/// One delivery that reached the device, in the form it was dispatched.
struct Replayer::Delivered {
  std::vector<uint8_t> bytes;
  bool as_delta = false;
  uint64_t version = 0;
  crypto::Sha256Digest key_fingerprint{};
};

Replayer::Replayer(Fleet& fleet, const std::string& twin_dir) : fleet_(fleet) {
  for (DeviceId id : fleet.devices) {
    auto info = fleet.registry->Lookup(id);
    if (!info.ok()) continue;
    Twin& twin = twins_[id];
    twin.device = std::make_unique<core::TrustedDevice>(
        info->device_seed, fleet.registry->key_config(),
        fleet.registry->cipher(), sim::CpuTiming{}, info->isa);
    twin.device->Enroll();
    if (info->group != fleet::kNoGroup) {
      (void)twin.device->hde().ProvisionConversionMask(info->conversion_mask);
    }
    twin.agent = std::make_unique<agent::UpdateAgent>(
        id, twin_dir.empty() ? std::string()
                             : twin_dir + "/slots-" + std::to_string(id) + ".bin");
  }
}

TwinTotals Replayer::twin_totals() const {
  TwinTotals totals;
  for (const auto& [id, twin] : twins_) {
    totals.hde_calls += twin.hde_calls;
    totals.hde_rejects += twin.hde_rejects;
  }
  return totals;
}

std::vector<TargetReplay> Replayer::Replay(const Release& release) {
  const fleet::CampaignConfig config = ConfigFor(fleet_, release);
  auto targets = fleet::ResolveCampaignTargets(*fleet_.registry, config);
  if (!targets.ok()) return {};
  Memo memo;
  memo.target_version = fleet::ProgramVersionFingerprint(
      config.source, config.policy, config.compile_options);
  if (config.delta) {
    memo.base_version = fleet::ProgramVersionFingerprint(
        config.delta_base_source, config.policy, config.compile_options);
  }
  std::vector<TargetReplay> records(targets->size());
  std::atomic<size_t> cursor{0};
  const auto worker = [&] {
    for (;;) {
      const size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= targets->size()) break;
      records[i] = ReplayTarget(config, release, (*targets)[i], memo);
    }
  };
  std::vector<std::thread> workers;
  const size_t count = std::min(config.workers, targets->size());
  for (size_t w = 0; w < count; ++w) workers.emplace_back(worker);
  for (auto& thread : workers) thread.join();
  return records;
}

TargetReplay Replayer::ReplayTarget(const fleet::CampaignConfig& config,
                                    const Release& release, DeviceId device,
                                    Memo& memo) {
  fleet::DeviceRegistry& registry = *fleet_.registry;
  TargetReplay out;
  out.trace = (static_cast<uint64_t>(release.index) << 32) | device;
  out.device = device;
  std::vector<Delivered> dispatched;
  {
    ScopedSpan target_span("target", out.trace);
    auto info = registry.Lookup(device);
    if (!info.ok()) return out;
    out.isa = info->isa;
    compiler::CompileOptions options = config.compile_options;
    options.isa = info->isa;

    Result<fleet::SealingContext> sealing =
        Status(ErrorCode::kInternal, "lookup never ran");
    {
      ScopedSpan span("fleet.sealing_context", out.trace);
      sealing = registry.SealingContextFor(device);
    }
    if (!sealing.ok()) return out;

    std::shared_ptr<Memo::Slot> slot;
    std::unique_lock<std::mutex> build_lock;
    {
      std::lock_guard lock(memo.mutex);
      auto& entry = memo.slots[{sealing->key, info->isa}];
      if (entry == nullptr) {
        entry = std::make_shared<Memo::Slot>();
        build_lock = std::unique_lock(entry->mutex);
      }
      slot = entry;
    }
    if (build_lock.owns_lock()) {
      fleet::PackageCacheStats stats;
      Result<std::shared_ptr<const fleet::CachedArtifact>> artifact =
          Status(ErrorCode::kInternal, "build never ran");
      {
        ScopedSpan span("cache.get_or_build", out.trace);
        artifact = fleet_.cache->GetOrBuild(config.source, sealing->key,
                                            sealing->config, config.policy,
                                            registry.cipher(), options, &stats);
      }
      if (artifact.ok()) {
        slot->artifact = *artifact;
        if (stats.artifact_misses > 0) {
          std::lock_guard lock(records_mutex_);
          builds_.push_back({(*artifact)->compile_microseconds / 1000,
                             (*artifact)->seal_microseconds / 1000});
        }
      }
      build_lock.unlock();
    }
    std::shared_ptr<const fleet::CachedArtifact> artifact;
    {
      std::lock_guard lock(slot->mutex);
      artifact = slot->artifact;
    }
    if (artifact == nullptr) return out;

    std::shared_ptr<const fleet::CachedArtifact> delta;
    if (config.delta) {
      auto manifest = registry.DeliveredVersion(device);
      if (manifest.ok() && manifest->version == memo.base_version &&
          manifest->key_fingerprint == artifact->key_fingerprint &&
          manifest->isa == info->isa) {
        std::lock_guard lock(slot->mutex);
        if (!slot->delta_evaluated) {
          slot->delta_evaluated = true;
          ScopedSpan span("cache.get_or_build_delta", out.trace);
          auto base = fleet_.cache->GetOrBuild(
              config.delta_base_source, sealing->key, sealing->config,
              config.policy, registry.cipher(), options);
          if (base.ok()) {
            fleet::PackageCacheStats stats;
            const auto encode_start = Clock::now();
            auto encoded = fleet_.cache->GetOrBuildDelta(**base, *artifact, &stats);
            const double encode_ms = SecondsSince(encode_start) * 1000;
            if (stats.delta_misses > 0) {
              std::lock_guard records_lock(records_mutex_);
              delta_encode_ms_.push_back(encode_ms);
            }
            if (encoded.ok() &&
                static_cast<double>((*encoded)->wire.size()) <=
                    config.delta_max_fraction *
                        static_cast<double>(artifact->wire.size())) {
              slot->delta = *encoded;
            }
          }
        }
        delta = slot->delta;
      }
    }

    ScopedSpan attempts_span("fleet.attempts", out.trace);
    uint32_t delivery_index = 0;
    bool last_health_failed = false;
    const auto deliver_once = [&](const fleet::CachedArtifact& payload,
                                  bool as_delta) -> Result<core::TrustedRunResult> {
      net::ChannelConfig channel = config.channel;
      channel.seed = fleet::DeliverySeed(config.campaign_seed, device,
                                         delivery_index);
      if (!DeliveryFaulted(config, device, delivery_index)) {
        channel.fault = net::ChannelFault::kNone;
      }
      ++delivery_index;
      Result<std::vector<uint8_t>> delivered = std::vector<uint8_t>();
      {
        ScopedSpan span("net.deliver", out.trace);
        if (fleet_.server != nullptr) {
          delivered = fleet_.server->Deliver(device, payload.wire, channel);
        } else {
          net::Channel wire(channel);
          delivered = wire.Deliver(payload.wire);
        }
        span.set_ok(delivered.ok());
      }
      ++out.attempts;
      out.bytes += payload.wire.size();
      if (as_delta) {
        out.delta_bytes_shipped += payload.wire.size();
        out.delta_full_equivalent += artifact->wire.size();
      }
      last_health_failed = false;
      if (!delivered.ok()) return delivered.status();
      fleet::DispatchMeta meta;
      meta.version = memo.target_version;
      meta.key_fingerprint = artifact->key_fingerprint;
      Result<core::TrustedRunResult> run =
          Status(ErrorCode::kInternal, "dispatch never ran");
      {
        ScopedSpan span("fleet.dispatch", out.trace);
        run = as_delta ? registry.DispatchDelta(device, *delivered, config.arg0,
                                                config.arg1, &meta)
                       : registry.Dispatch(device, *delivered, config.arg0,
                                           config.arg1, &meta);
        span.set_ok(run.ok());
      }
      last_health_failed = meta.health_failed;
      dispatched.push_back({std::move(*delivered), as_delta, meta.version,
                            meta.key_fingerprint});
      return run;
    };

    bool use_delta = delta != nullptr;
    for (uint32_t attempt = 0; attempt < config.max_attempts; ++attempt) {
      auto run = deliver_once(use_delta ? *delta : *artifact, use_delta);
      if (use_delta && !run.ok() &&
          (run.status().code() == ErrorCode::kCorruptPackage ||
           last_health_failed)) {
        use_delta = false;
        run = deliver_once(*artifact, false);
      }
      if (run.ok()) {
        out.ok = true;
        out.delta = use_delta;
        out.exit_code = run->exec.exit_code;
        out.device_cycles = run->total_cycles();
        ScopedSpan span("store.record_delivery", out.trace);
        span.set_ok(registry
                        .RecordDelivery(device, memo.target_version,
                                        artifact->key_fingerprint, info->isa)
                        .ok());
        break;
      }
      if (run.status().code() == ErrorCode::kFailedPrecondition ||
          run.status().code() == ErrorCode::kNotFound) {
        break;
      }
    }
  }
  // The twin replays every dispatched delivery in order, outside the
  // target's time, so its state tracks the real device's exactly.
  Twin& twin = twins_.at(device);
  for (const Delivered& delivered : dispatched) {
    RunTwin(twin, out.trace, delivered, out);
  }
  return out;
}

void Replayer::RunTwin(Twin& twin, uint64_t trace, const Delivered& delivered,
                       TargetReplay& out) {
  ScopedSpan twin_span("twin.attempt", trace);
  std::vector<uint8_t> image;
  if (delivered.as_delta) {
    ScopedSpan span("pkg.apply_delta", trace);
    const std::span<const uint8_t> base = twin.agent->active_image();
    auto patched = base.empty()
                       ? Result<std::vector<uint8_t>>(Status(
                             ErrorCode::kCorruptPackage, "no base image"))
                       : pkg::ApplyDelta(base, delivered.bytes);
    span.set_ok(patched.ok());
    if (!patched.ok()) return;
    image = std::move(*patched);
  } else {
    image = delivered.bytes;
  }
  core::TrustedRunResult run;
  bool ran = false;
  const agent::UpdateAgent::HealthCheck health =
      [&](std::span<const uint8_t> booted) -> Status {
    ScopedSpan span("agent.health", trace);
    Result<core::HdeOutput> validated = Status(ErrorCode::kInternal, "");
    {
      ScopedSpan hde_span("core.hde", trace);
      validated = twin.device->hde().DecryptAndValidate(booted);
      hde_span.set_ok(validated.ok());
    }
    ++twin.hde_calls;
    if (!validated.ok()) {
      ++twin.hde_rejects;
      return validated.status();
    }
    {
      ScopedSpan sim_span("sim.exec", trace);
      run = twin.device->RunPlaintext(validated->image);
    }
    run.hde_cycles = validated->cycles;
    ran = true;
    return Status::Ok();
  };
  Status applied;
  {
    ScopedSpan span("agent.apply", trace);
    applied = twin.agent->Apply(image, delivered.version,
                                delivered.key_fingerprint, health);
    span.set_ok(applied.ok());
  }
  if (applied.ok() && ran) {
    out.twin_ran = true;
    out.twin_exit_code = run.exec.exit_code;
    out.twin_device_cycles = run.total_cycles();
    out.exec = run.exec;
    out.hde_cycles = run.hde_cycles.total();
  }
}

}  // namespace perfbench
