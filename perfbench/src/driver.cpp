// Fleet benchmark driver.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--state-root DIR] [--spans-dir DIR]
//   perfbench_driver --list-metrics
//   perfbench_driver --print-pins
//
// --trace 0 sets the fleet up several times, runs the workload's release
// train as real DeploymentEngine::Run campaigns for S seconds of whole
// laps, recovers the state directory several times, checks every
// target's output and prints the end-to-end metrics. --trace 1 runs the
// same campaign train, then replays it on a second fleet with spans
// around every layer call (replay.h) and prints the per-layer metrics.
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "replay.h"
#include "rig.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

using namespace eric;
namespace fs = std::filesystem;

// A run keeps measuring whole laps until it has this many targets, so a
// p95 always has at least ten samples beyond it.
constexpr size_t kMinTargets = 200;
// Past this many seconds of measuring a run stops at the next lap
// boundary whatever its sample count, to stay inside the time limit. A
// traced run replays its train at about twice the cost, so it stops
// sooner.
constexpr double kHardStopSeconds = 120;
constexpr double kTracedHardStopSeconds = 50;

struct MetricDef {
  const char* name;
  const char* unit;
};

// The end-to-end metrics (--trace 0), in BENCHMARK.json order.
constexpr MetricDef kEndToEnd[] = {
    {"devices_per_s", "1/s"},
    {"target_p50_ms", "ms"},
    {"target_p95_ms", "ms"},
    {"wire_bytes_per_target", "B"},
    {"device_cycles_per_target", "cycles"},
    {"cpu_ms_per_target", "ms"},
    {"setup_s", "s"},
    {"recovery_s", "s"},
    {"peak_rss_mb", "MiB"},
};

// The per-layer metrics (--trace 1), in BENCHMARK.json order.
constexpr MetricDef kPerLayer[] = {
    {"puf.enroll_ms_per_device", "ms"},
    {"fleet.rss_kb_per_device", "KiB"},
    {"store.recovery_ms_per_device", "ms"},
    {"store.state_kb_per_device", "KiB"},
    {"store.manifest_us_p50", "us"},
    {"store.fsyncs_per_target", "count"},
    {"compiler.compile_ms", "ms"},
    {"core.seal_ms", "ms"},
    {"fleet.builds_per_release", "count"},
    {"pkg.delta_encode_ms", "ms"},
    {"pkg.delta_apply_us_p50", "us"},
    {"pkg.delta_size_ratio", "ratio"},
    {"pkg.delta_fallback_ratio", "ratio"},
    {"fleet.retries_per_target", "count"},
    {"net.deliver_us_p50", "us"},
    {"net.deliver_us_p95", "us"},
    {"net.connect_ms", "ms"},
    {"core.hde_us_p50", "us"},
    {"core.hde_reject_ratio", "ratio"},
    {"sim.exec_us_p50", "us"},
    {"sim.mips.rv64gc", "MIPS"},
    {"sim.mips.rv32i", "MIPS"},
    {"sim.instructions_per_target", "count"},
    {"sim.cycles_per_target", "cycles"},
    {"core.hde_cycles_per_target", "cycles"},
    {"sim.icache_miss_ratio", "ratio"},
    {"sim.dcache_miss_ratio", "ratio"},
    {"agent.apply_self_us_p50", "us"},
    {"agent.apply_self_us_p95", "us"},
    {"fleet.dispatch_us_p50", "us"},
    {"fleet.dispatch_unattributed_us_p50", "us"},
    {"fleet.dispatch_share", "ratio"},
    {"fleet.target_self_us_p50", "us"},
    {"fleet.release_overhead_ms", "ms"},
    {"fleet.coverage", "ratio"},
    {"trace.target_p50_ratio", "ratio"},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  int trace = 0;
  std::string state_root = ".bench_build/perfbench-state";
  std::string spans_dir = ".bench_build/perfbench-spans";
};

/// The metrics of one run, printed in definition order.
class Report {
 public:
  Report(const MetricDef* defs, size_t count) {
    for (size_t i = 0; i < count; ++i) defs_.push_back(defs[i]);
  }
  void Set(const std::string& name, double value) { values_[name] = value; }
  void Note(const std::string& line) { notes_.push_back(line); }
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  /// Human-readable table, then the JSON result line.
  int Print() const {
    for (const std::string& note : notes_) std::printf("%s\n", note.c_str());
    std::ostringstream json;
    json.precision(17);
    json << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << attempted << ", \"failed\": " << failed
         << ", \"metrics\": {";
    bool first = true;
    for (const MetricDef& def : defs_) {
      auto it = values_.find(def.name);
      if (it == values_.end()) {
        std::fprintf(stderr, "metric %s was not measured\n", def.name);
        return 1;
      }
      std::printf("  %-38s %16.6f %s\n", def.name, it->second, def.unit);
      json << (first ? "" : ", ") << "\"" << def.name
           << "\": {\"value\": " << it->second << ", \"unit\": \"" << def.unit
           << "\"}";
      first = false;
    }
    json << "}}";
    std::printf("%s\n", json.str().c_str());
    return 0;
  }

 private:
  std::vector<MetricDef> defs_;
  std::map<std::string, double> values_;
  std::vector<std::string> notes_;
};

size_t UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Confines the calling thread, and every thread it starts from then on,
/// to the highest-numbered usable CPU.
bool PinToOneCpu() {
  cpu_set_t usable;
  CPU_ZERO(&usable);
  if (sched_getaffinity(0, sizeof(usable), &usable) != 0) return false;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &usable)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  return false;
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Names the filesystem `path` sits on: its type and the mount holding it.
std::string FilesystemOf(const std::string& path) {
  std::error_code ec;
  const std::string resolved = fs::weakly_canonical(path, ec).string();
  std::ifstream mounts("/proc/self/mounts");
  std::string device, point, type, best_device, best_point, best_type;
  std::string rest;
  while (mounts >> device >> point >> type && std::getline(mounts, rest)) {
    const bool prefix =
        resolved.rfind(point, 0) == 0 &&
        (point == "/" || resolved.size() == point.size() ||
         resolved[point.size()] == '/');
    if (prefix && point.size() >= best_point.size()) {
      best_device = device;
      best_point = point;
      best_type = type;
    }
  }
  if (best_type.empty()) return "unknown";
  return best_type + " (" + best_device + " on " + best_point + ")";
}

uint64_t DirectoryBytes(const std::string& path) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(path, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

uint64_t WalFsyncs() {
  return obs::MetricsRegistry::Global().GetCounter("store_wal_fsyncs").value();
}

// --- The untraced campaign train ------------------------------------------------

struct ReleaseRun {
  size_t index = 0;  ///< Release::index
  fleet::CampaignReport report;  ///< outcomes dropped unless kept
  double wall_s = 0;  ///< Run() wall time
  double cpu_s = 0;   ///< process CPU time across Run()
};

struct TrainRun {
  std::vector<ReleaseRun> releases;
  std::vector<double> latencies_ms;  ///< per target that saw a delivery
  size_t targets = 0;
  double measured_s = 0;
};

/// Runs one release as a campaign and checks every delivered target.
Result<ReleaseRun> RunRelease(Fleet& fleet, const Release& release,
                              OutputChecker& checker) {
  checker.Prepare(release, fleet);
  ReleaseRun run;
  run.index = release.index;
  const double cpu_start = CpuSeconds();
  const auto start = Clock::now();
  auto report = fleet.engine->Run(ConfigFor(fleet, release));
  run.wall_s = SecondsSince(start);
  run.cpu_s = CpuSeconds() - cpu_start;
  if (!report.ok()) return report.status();
  run.report = std::move(*report);
  for (const fleet::DeviceOutcome& outcome : run.report.outcomes) {
    checker.Check(release, outcome);
    if (!outcome.ok) {
      std::fprintf(stderr, "release %zu (%s): device %" PRIu64 " (%s) failed "
                   "after %u attempts: %s\n",
                   release.index, release.program.c_str(), outcome.device,
                   std::string(isa::IsaName(outcome.isa)).c_str(),
                   outcome.attempts, outcome.last_status.ToString().c_str());
    }
  }
  return run;
}

/// Sets a fleet up and applies the workload's base release.
Result<std::unique_ptr<Fleet>> SetUp(const WorkloadSpec& spec, uint64_t seed,
                                     const std::string& state_dir,
                                     OutputChecker& checker,
                                     fleet::CampaignReport* base_report) {
  auto fleet = SetUpFleet(spec, seed, state_dir);
  if (!fleet.ok()) return fleet.status();
  Train train(spec, seed, **fleet);
  if (train.has_base()) {
    auto base = RunRelease(**fleet, train.base(), checker);
    if (!base.ok()) return base.status();
    if (base->report.failed != 0) {
      return Status(ErrorCode::kInternal, "base release failed on a target");
    }
    if (base_report != nullptr) *base_report = std::move(base->report);
  }
  return fleet;
}

/// Measures whole laps of the train until `seconds` have passed and the
/// run holds at least kMinTargets targets. An untraced run drops each
/// release's per-target outcomes once checked, so its footprint does not
/// grow with the number of releases it reaches; a traced run keeps them
/// for the replay's fidelity check.
///
/// With `reconnects`, the fleet's recovery is timed between laps as well:
/// spec.recovery_reps reconnects spread evenly over `seconds`. Spread out,
/// they see the host the train sees. Back to back after the train, a
/// hundred fleet rebuilds (~0.6 s) saw the host's short swings, and their
/// median spread by 28% across runs.
Result<TrainRun> MeasureTrain(Fleet& fleet, OutputChecker& checker,
                              double seconds, bool traced,
                              std::vector<double>* reconnects = nullptr) {
  const double hard_stop = traced ? kTracedHardStopSeconds : kHardStopSeconds;
  const WorkloadSpec& spec = *fleet.spec;
  Train train(spec, fleet.seed, fleet);
  TrainRun run;
  const auto start = Clock::now();
  size_t index = 0;
  for (;;) {
    for (size_t j = 0; j < spec.lap; ++j) {
      auto release = RunRelease(fleet, train.At(index++), checker);
      if (!release.ok()) return release.status();
      run.targets += release->report.targets;
      for (const fleet::DeviceOutcome& outcome : release->report.outcomes) {
        if (outcome.attempts > 0) {
          run.latencies_ms.push_back(outcome.latency_us / 1000);
        }
      }
      if (!traced) {
        release->report.outcomes.clear();
        release->report.outcomes.shrink_to_fit();
      }
      run.releases.push_back(std::move(*release));
    }
    if (reconnects != nullptr) {
      const auto due = std::min<size_t>(
          spec.recovery_reps,
          static_cast<size_t>(std::ceil(static_cast<double>(spec.recovery_reps) *
                                        SecondsSince(start) / seconds)));
      while (reconnects->size() < due) {
        auto took = fleet.Reconnect();
        if (!took.ok()) return took.status();
        reconnects->push_back(*took);
      }
    }
    const double elapsed = SecondsSince(start);
    if ((elapsed >= seconds && run.targets >= kMinTargets) ||
        elapsed >= hard_stop) {
      run.measured_s = elapsed;
      return run;
    }
  }
}

/// Recovers the fleet's state directory `reps` times into a fresh
/// registry each; returns the OpenStorage times.
Result<std::vector<double>> RecoverStorage(const std::string& state_dir,
                                           size_t devices, size_t reps) {
  std::vector<double> times;
  for (size_t rep = 0; rep < reps; ++rep) {
    auto registry = std::make_unique<fleet::DeviceRegistry>();
    const auto start = Clock::now();
    Status opened = registry->OpenStorage(state_dir);
    times.push_back(SecondsSince(start));
    if (!opened.ok()) return opened;
    if (registry->storage_info().devices_recovered != devices) {
      return Status(ErrorCode::kInternal, "recovery lost devices");
    }
  }
  return times;
}

/// An in-process memory-only fleet has no state to replay: its recovery
/// re-enrolls every device from its seed, which is what storage recovery
/// replays. Returns the time of one such rebuild.
Result<double> TimeRebuild(const WorkloadSpec& spec, uint64_t seed) {
  const auto start = Clock::now();
  auto fleet = SetUpFleet(spec, seed, "");
  const double seconds = SecondsSince(start);
  if (!fleet.ok()) return fleet.status();
  return seconds;
}

int Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  return 1;
}

int RunUntraced(const WorkloadSpec& spec, const Args& args,
                const std::string& root, Clock::time_point process_start) {
  Report report(kEndToEnd, std::size(kEndToEnd));
  OutputChecker checker(spec);

  // Set-up, several times; the first is timed from process start, and the
  // last fleet is the one measured. Earlier set-ups' state directories
  // are removed with the run's root at exit: unlinking hundreds of files
  // while the next set-up fsyncs would time the filesystem's cleanup.
  std::vector<double> setup_times;
  std::unique_ptr<Fleet> fleet;
  for (size_t rep = 0; rep < spec.setup_reps; ++rep) {
    const std::string dir = root + "/state-" + std::to_string(rep);
    fleet.reset();
    const auto start = rep == 0 ? process_start : Clock::now();
    auto made = SetUp(spec, args.seed, dir, checker, nullptr);
    if (!made.ok()) return Fail("set-up failed: " + made.status().ToString());
    setup_times.push_back(SecondsSince(start));
    fleet = std::move(*made);
  }

  // Recovery. The wire fleet reconnects every device, between laps of
  // the train. A durable fleet replays its state directory, and an
  // in-process memory-only fleet is rebuilt from its seeds; both run once
  // the measured fleet is gone, so only one fleet is ever alive.
  std::vector<double> recovery_times;
  auto train = MeasureTrain(*fleet, checker, args.seconds, false,
                            spec.wire ? &recovery_times : nullptr);
  if (!train.ok()) return Fail("campaign failed: " + train.status().ToString());

  if (spec.durable) {
    const std::string dir = fleet->state_dir;
    const size_t devices = fleet->devices.size();
    fleet.reset();
    auto times = RecoverStorage(dir, devices, spec.recovery_reps);
    if (!times.ok()) return Fail("recovery failed: " + times.status().ToString());
    recovery_times = *times;
  } else if (!spec.wire) {
    fleet.reset();
    while (recovery_times.size() < spec.recovery_reps) {
      auto rebuilt = TimeRebuild(spec, args.seed);
      if (!rebuilt.ok()) return Fail("rebuild failed: " + rebuilt.status().ToString());
      recovery_times.push_back(*rebuilt);
    }
  }

  double wall_s = 0, cpu_s = 0;
  uint64_t succeeded = 0, bytes = 0, cycles = 0;
  for (const ReleaseRun& release : train->releases) {
    wall_s += release.wall_s;
    cpu_s += release.cpu_s;
    succeeded += release.report.succeeded;
    bytes += release.report.bytes_shipped;
    cycles += release.report.total_device_cycles;
    report.attempted += release.report.targets;
    report.failed += release.report.failed;
  }
  const double targets = static_cast<double>(train->targets);
  const std::vector<double>& latencies = train->latencies_ms;
  const auto p95 = TailQuantile(latencies, 0.95);
  if (!p95) return Fail("too few targets for a p95");

  report.Set("devices_per_s", static_cast<double>(succeeded) / wall_s);
  report.Set("target_p50_ms", Median(latencies));
  report.Set("target_p95_ms", p95->value);
  report.Set("wire_bytes_per_target", static_cast<double>(bytes) / targets);
  report.Set("device_cycles_per_target",
             succeeded == 0 ? 0 : static_cast<double>(cycles) / succeeded);
  report.Set("cpu_ms_per_target", cpu_s * 1000 / targets);
  report.Set("setup_s", Median(setup_times));
  report.Set("recovery_s", Median(recovery_times));
  // VmHWM rather than getrusage's ru_maxrss, which keeps the peak of the
  // process that exec'd the driver.
  report.Set("peak_rss_mb", static_cast<double>(StatusKb("VmHWM:")) / 1024);
  report.correct = checker.mismatches() == 0;

  char line[256];
  std::snprintf(line, sizeof line,
                "%s seed %" PRIu64 ": %zu releases, %zu targets in %.2f s "
                "measured, %zu workers",
                spec.name, args.seed, train->releases.size(), train->targets,
                train->measured_s, spec.workers);
  report.Note(line);
  std::snprintf(line, sizeof line,
                "  target_p95_ms over %zu samples (%zu beyond it)",
                p95->samples, p95->beyond);
  report.Note(line);
  std::snprintf(line, sizeof line,
                "  failed_ratio %.6f (%" PRIu64 " of %" PRIu64 " targets)",
                report.attempted == 0
                    ? 0.0
                    : static_cast<double>(report.failed) / report.attempted,
                report.failed, report.attempted);
  report.Note(line);
  std::snprintf(line, sizeof line,
                "  setup_s median of %zu set-ups, recovery_s median of %zu %s",
                setup_times.size(), recovery_times.size(),
                spec.durable ? "storage recoveries"
                : spec.wire  ? "reconnects"
                             : "fleet rebuilds");
  report.Note(line);
  const auto range = [](const char* name, std::vector<double> v) {
    std::sort(v.begin(), v.end());
    char text[160];
    std::snprintf(text, sizeof text, "%s min %.6f median %.6f max %.6f",
                  name, v.front(), Median(v), v.back());
    return std::string(text);
  };
  report.Note("  " + range("setup_s", setup_times) + "; " +
              range("recovery_s", recovery_times));
  report.Note("  output check: " + std::to_string(checker.mismatches()) +
              " mismatches");
  return report.Print();
}

// --- The traced replay ------------------------------------------------------------

/// Spans of one target, indexed for the per-layer arithmetic.
struct TargetSpans {
  const Span* target = nullptr;
  const Span* attempts = nullptr;
  std::vector<const Span*> spans;  ///< every span of the trace
  std::vector<const Span*> Named(const char* name) const {
    std::vector<const Span*> out;
    for (const Span* s : spans) {
      if (std::strcmp(s->name, name) == 0) out.push_back(s);
    }
    std::sort(out.begin(), out.end(), [](const Span* a, const Span* b) {
      return a->start_ns < b->start_ns;
    });
    return out;
  }
  std::vector<const Span*> ChildrenOf(const Span* parent) const {
    std::vector<const Span*> out;
    for (const Span* s : spans) {
      if (s->parent == parent->id) out.push_back(s);
    }
    return out;
  }
  double Sum(const char* name) const {
    double total = 0;
    for (const Span* s : Named(name)) total += s->micros();
    return total;
  }
  double SelfMicros(const Span* span) const {
    std::vector<Interval> children;
    for (const Span* child : ChildrenOf(span)) {
      children.push_back({static_cast<double>(child->start_ns),
                          static_cast<double>(child->end_ns)});
    }
    return SelfTime({static_cast<double>(span->start_ns),
                     static_cast<double>(span->end_ns)},
                    children) /
           1e3;
  }
};

double P95OrZero(const std::vector<double>& samples, Report& report,
                 const char* name) {
  const auto tail = TailQuantile(samples, 0.95);
  char line[160];
  if (!tail) {
    std::snprintf(line, sizeof line,
                  "  %s: %zu samples cannot support a p95; reported as 0",
                  name, samples.size());
    report.Note(line);
    return 0;
  }
  std::snprintf(line, sizeof line, "  %s over %zu samples (%zu beyond it)",
                name, tail->samples, tail->beyond);
  report.Note(line);
  return tail->value;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

int RunTraced(const WorkloadSpec& spec, const Args& args,
              const std::string& root) {
  Report report(kPerLayer, std::size(kPerLayer));
  OutputChecker checker(spec);

  // Fleet A: the untraced campaign train the replay must reproduce.
  fleet::CampaignReport base_report;
  auto fleet_a = SetUp(spec, args.seed, root + "/state-a", checker, &base_report);
  if (!fleet_a.ok()) return Fail("set-up failed: " + fleet_a.status().ToString());
  Fleet& a = **fleet_a;
  const double devices = static_cast<double>(a.devices.size());
  report.Set("puf.enroll_ms_per_device", a.enroll_s * 1000 / devices);
  report.Set("fleet.rss_kb_per_device",
             static_cast<double>(a.rss_growth_kb) / devices);
  report.Set("net.connect_ms", a.connect_s * 1000);
  const uint64_t fsyncs_before = WalFsyncs();
  auto train = MeasureTrain(a, checker, args.seconds, true);
  if (!train.ok()) return Fail("campaign failed: " + train.status().ToString());
  const double targets_a = static_cast<double>(train->targets);
  report.Set("store.fsyncs_per_target",
             static_cast<double>(WalFsyncs() - fsyncs_before) / targets_a);
  if (spec.durable) {
    report.Set("store.state_kb_per_device",
               static_cast<double>(DirectoryBytes(a.state_dir)) / 1024 / devices);
    const std::string dir = a.state_dir;
    fleet_a->reset();
    auto times = RecoverStorage(dir, static_cast<size_t>(devices),
                                spec.recovery_reps);
    if (!times.ok()) return Fail("recovery failed: " + times.status().ToString());
    report.Set("store.recovery_ms_per_device", Median(*times) * 1000 / devices);
  } else {
    report.Set("store.state_kb_per_device", 0);
    report.Set("store.recovery_ms_per_device", 0);
    fleet_a->reset();
  }

  uint64_t retries = 0, delta_deliveries = 0, fallbacks = 0, builds = 0;
  std::vector<double> overhead_ms;
  std::map<uint64_t, const fleet::DeviceOutcome*> untraced;  // by trace id
  for (const ReleaseRun& release : train->releases) {
    const fleet::CampaignReport& r = release.report;
    retries += r.retries;
    delta_deliveries += r.delta_deliveries;
    fallbacks += r.delta_fallbacks;
    builds += r.cache_artifact_misses;
    double latency_ms = 0;
    for (const fleet::DeviceOutcome& outcome : r.outcomes) {
      latency_ms += outcome.latency_us / 1000;
      untraced[(static_cast<uint64_t>(release.index) << 32) |
               outcome.device] = &outcome;
    }
    overhead_ms.push_back(r.wall_ms - latency_ms / static_cast<double>(spec.workers));
  }
  for (const fleet::DeviceOutcome& outcome : base_report.outcomes) {
    untraced[outcome.device] = &outcome;
  }
  const double releases = static_cast<double>(train->releases.size());
  report.Set("fleet.retries_per_target", static_cast<double>(retries) / targets_a);
  report.Set("pkg.delta_fallback_ratio",
             Ratio(static_cast<double>(fallbacks), static_cast<double>(delta_deliveries)));
  report.Set("fleet.builds_per_release", static_cast<double>(builds) / releases);
  report.Set("fleet.release_overhead_ms", Median(overhead_ms));

  // Fleet B: same seed, fresh state; every release, the base included,
  // replayed through the layer calls with spans.
  auto fleet_b = SetUpFleet(spec, args.seed, root + "/state-b");
  if (!fleet_b.ok()) return Fail("set-up failed: " + fleet_b.status().ToString());
  Fleet& b = **fleet_b;
  const std::string twin_dir = spec.durable ? root + "/state-b/twin" : "";
  if (!twin_dir.empty()) fs::create_directories(twin_dir);
  Replayer replayer(b, twin_dir);
  std::vector<TargetReplay> replayed;
  Train train_b(spec, args.seed, b);
  if (train_b.has_base()) {
    for (TargetReplay& t : replayer.Replay(train_b.base())) {
      replayed.push_back(t);
    }
  }
  std::vector<Release> releases_b;  // the measured train, regenerated
  for (const ReleaseRun& release : train->releases) {
    releases_b.push_back(train_b.At(release.index - 1));
    for (TargetReplay& t : replayer.Replay(releases_b.back())) {
      replayed.push_back(t);
    }
  }

  // Fidelity: every target's outcome must match the untraced campaign.
  size_t fidelity_mismatches = 0;
  std::map<uint64_t, const TargetReplay*> by_trace;
  for (const TargetReplay& t : replayed) {
    by_trace[t.trace] = &t;
    auto it = untraced.find(t.trace);
    const fleet::DeviceOutcome* u = it == untraced.end() ? nullptr : it->second;
    const bool same = u != nullptr && u->ok == t.ok &&
                      u->attempts == t.attempts && u->delta == t.delta &&
                      u->bytes_shipped == t.bytes &&
                      u->exit_code == t.exit_code &&
                      u->device_cycles == t.device_cycles &&
                      (!t.ok || (t.twin_ran && t.twin_exit_code == t.exit_code &&
                                 t.twin_device_cycles == t.device_cycles));
    if (!same) {
      if (fidelity_mismatches < 10) {
        std::fprintf(stderr,
                     "replay mismatch on trace %" PRIx64 ": replay ok=%d "
                     "attempts=%u delta=%d bytes=%" PRIu64 " cycles=%" PRIu64
                     " twin=%d\n",
                     t.trace, t.ok, t.attempts, t.delta, t.bytes,
                     t.device_cycles, t.twin_ran);
      }
      ++fidelity_mismatches;
    }
    if ((t.trace >> 32) != 0) {
      ++report.attempted;
      if (!t.ok) ++report.failed;
    }
  }
  if (by_trace.size() != untraced.size()) ++fidelity_mismatches;

  // Index the spans of the measured releases by trace.
  const std::vector<Span> spans = SpanLog::Get().Collect();
  std::map<uint64_t, TargetSpans> traces;
  for (const Span& span : spans) {
    if ((span.trace >> 32) == 0) continue;  // the base release
    TargetSpans& t = traces[span.trace];
    t.spans.push_back(&span);
    if (std::strcmp(span.name, "target") == 0) t.target = &span;
    if (std::strcmp(span.name, "fleet.attempts") == 0) t.attempts = &span;
  }

  std::vector<double> deliver_us, dispatch_us, unattributed_us, manifest_us,
      delta_apply_us, hde_us, exec_us, agent_self_us, target_self_us,
      attempts_us, coverage;
  double dispatch_total = 0, target_total = 0;
  double sim_seconds[isa::kNumIsaIds] = {};
  uint64_t sim_instructions[isa::kNumIsaIds] = {};
  uint64_t instructions = 0, exec_cycles = 0, hde_cycles = 0, delivered = 0;
  uint64_t icache_miss = 0, icache_access = 0, dcache_miss = 0, dcache_access = 0;
  uint64_t delta_bytes = 0, delta_full = 0;
  for (auto& [trace, t] : traces) {
    const TargetReplay* target = by_trace.count(trace) ? by_trace[trace] : nullptr;
    if (t.target == nullptr || t.attempts == nullptr || target == nullptr) continue;
    for (const Span* s : t.Named("net.deliver")) deliver_us.push_back(s->micros());
    for (const Span* s : t.Named("store.record_delivery")) {
      manifest_us.push_back(s->micros());
    }
    for (const Span* s : t.Named("pkg.apply_delta")) delta_apply_us.push_back(s->micros());
    for (const Span* s : t.Named("core.hde")) hde_us.push_back(s->micros());
    for (const Span* s : t.Named("sim.exec")) {
      exec_us.push_back(s->micros());
      sim_seconds[static_cast<size_t>(target->isa)] += s->micros() / 1e6;
    }
    for (const Span* s : t.Named("agent.apply")) agent_self_us.push_back(t.SelfMicros(s));

    // Pair each dispatch with the twin attempt that replayed it.
    const auto dispatches = t.Named("fleet.dispatch");
    const auto twins = t.Named("twin.attempt");
    double attributed = t.Sum("fleet.sealing_context") +
                        t.Sum("cache.get_or_build") +
                        t.Sum("cache.get_or_build_delta") +
                        t.Sum("net.deliver") + t.Sum("store.record_delivery");
    for (size_t i = 0; i < dispatches.size(); ++i) {
      const double dispatch = dispatches[i]->micros();
      double twin = 0;
      if (i < twins.size()) {
        for (const Span* child : t.ChildrenOf(twins[i])) twin += child->micros();
      }
      dispatch_us.push_back(dispatch);
      unattributed_us.push_back(dispatch - twin);
      attributed += std::min(dispatch, twin);
      dispatch_total += dispatch;
    }
    const double target_us = t.target->micros();
    target_total += target_us;
    coverage.push_back(Ratio(attributed, target_us));
    attempts_us.push_back(t.attempts->micros());
    auto u = untraced.find(trace);
    if (u != untraced.end()) {
      target_self_us.push_back(u->second->latency_us - t.Sum("net.deliver") -
                               t.Sum("fleet.dispatch") -
                               t.Sum("store.record_delivery"));
    }
    delta_bytes += target->delta_bytes_shipped;
    delta_full += target->delta_full_equivalent;
    if (target->ok && target->twin_ran) {
      ++delivered;
      instructions += target->exec.instructions;
      exec_cycles += target->exec.cycles;
      hde_cycles += target->hde_cycles;
      sim_instructions[static_cast<size_t>(target->isa)] += target->exec.instructions;
      icache_miss += target->exec.icache.misses;
      icache_access += target->exec.icache.accesses();
      dcache_miss += target->exec.dcache.misses;
      dcache_access += target->exec.dcache.accesses();
    }
  }
  // Exact counts: every traced run's instruction count is pinned too.
  for (const Release& release : releases_b) {
    for (const TargetReplay& t : replayed) {
      if ((t.trace >> 32) == release.index && t.twin_ran) {
        checker.CheckInstructions(release, t.isa, t.exec.instructions);
      }
    }
  }

  std::vector<double> compile_ms, seal_ms;
  for (const BuildRecord& build : replayer.builds()) {
    if (build.compile_ms > 0) compile_ms.push_back(build.compile_ms);
    seal_ms.push_back(build.seal_ms);
  }
  const TwinTotals twin = replayer.twin_totals();
  const double d = static_cast<double>(delivered);
  report.Set("store.manifest_us_p50", Median(manifest_us));
  report.Set("compiler.compile_ms", Median(compile_ms));
  report.Set("core.seal_ms", Median(seal_ms));
  report.Set("pkg.delta_encode_ms", Median(replayer.delta_encode_ms()));
  report.Set("pkg.delta_apply_us_p50", Median(delta_apply_us));
  report.Set("pkg.delta_size_ratio", Ratio(static_cast<double>(delta_bytes),
                                           static_cast<double>(delta_full)));
  report.Set("net.deliver_us_p50", Median(deliver_us));
  report.Set("net.deliver_us_p95", P95OrZero(deliver_us, report, "net.deliver_us_p95"));
  report.Set("core.hde_us_p50", Median(hde_us));
  report.Set("core.hde_reject_ratio", Ratio(static_cast<double>(twin.hde_rejects),
                                            static_cast<double>(twin.hde_calls)));
  report.Set("sim.exec_us_p50", Median(exec_us));
  const auto mips = [&](isa::IsaId id) {
    const size_t i = static_cast<size_t>(id);
    return Ratio(static_cast<double>(sim_instructions[i]) / 1e6, sim_seconds[i]);
  };
  report.Set("sim.mips.rv64gc", mips(isa::IsaId::kRv64Gc));
  report.Set("sim.mips.rv32i", mips(isa::IsaId::kRv32I));
  report.Set("sim.instructions_per_target", Ratio(static_cast<double>(instructions), d));
  report.Set("sim.cycles_per_target", Ratio(static_cast<double>(exec_cycles), d));
  report.Set("core.hde_cycles_per_target", Ratio(static_cast<double>(hde_cycles), d));
  report.Set("sim.icache_miss_ratio", Ratio(static_cast<double>(icache_miss),
                                            static_cast<double>(icache_access)));
  report.Set("sim.dcache_miss_ratio", Ratio(static_cast<double>(dcache_miss),
                                            static_cast<double>(dcache_access)));
  report.Set("agent.apply_self_us_p50", Median(agent_self_us));
  report.Set("agent.apply_self_us_p95",
             P95OrZero(agent_self_us, report, "agent.apply_self_us_p95"));
  report.Set("fleet.dispatch_us_p50", Median(dispatch_us));
  report.Set("fleet.dispatch_unattributed_us_p50", Median(unattributed_us));
  report.Set("fleet.dispatch_share", Ratio(dispatch_total, target_total));
  report.Set("fleet.target_self_us_p50", Median(target_self_us));
  report.Set("fleet.coverage", Median(coverage));
  report.Set("trace.target_p50_ratio",
             Ratio(Median(attempts_us) / 1000, Median(train->latencies_ms)));

  fs::create_directories(args.spans_dir);
  const std::string spans_path = args.spans_dir + "/" + spec.name + "-seed" +
                                 std::to_string(args.seed) + ".jsonl";
  const bool wrote = SpanLog::Get().WriteJsonl(spans_path);
  report.correct = checker.mismatches() == 0 && fidelity_mismatches == 0;
  char line[256];
  std::snprintf(line, sizeof line,
                "%s seed %" PRIu64 " traced: %zu releases, %zu targets replayed; "
                "%zu replay mismatches, %zu output mismatches",
                spec.name, args.seed, train->releases.size(), traces.size(),
                fidelity_mismatches, checker.mismatches());
  report.Note(line);
  std::snprintf(line, sizeof line,
                "  exact counts: device_cycles_per_target %.6f "
                "sim.instructions_per_target %.6f",
                Ratio(static_cast<double>(exec_cycles + hde_cycles), d),
                Ratio(static_cast<double>(instructions), d));
  report.Note(line);
  report.Note("  spans: " + std::to_string(spans.size()) +
              (wrote ? " written to " + spans_path : " (write failed)"));
  return report.Print();
}

int ListMetrics() {
  for (const MetricDef& def : kEndToEnd) std::printf("0 %s %s\n", def.name, def.unit);
  for (const MetricDef& def : kPerLayer) std::printf("1 %s %s\n", def.name, def.unit);
  return 0;
}

int Main(int argc, char** argv) {
  const auto process_start = Clock::now();
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--list-metrics") return ListMetrics();
    if (flag == "--print-pins") return PrintPins();
    if (!has_value) return Fail("flag " + flag + " needs a value");
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 0);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::atoi(value);
    } else if (flag == "--state-root") {
      args.state_root = value;
    } else if (flag == "--spans-dir") {
      args.spans_dir = value;
    } else {
      return Fail("unknown flag " + flag);
    }
  }
  const WorkloadSpec* spec = FindSpec(args.workload);
  if (spec == nullptr) return Fail("unknown workload '" + args.workload + "'");
  if (args.trace != 0 && args.trace != 1) return Fail("--trace takes 0 or 1");

  // Thread and connection budget: campaign workers plus transport loop
  // threads, and device connections, must each fit in the usable CPUs.
  const size_t cpus = UsableCpus();
  const size_t threads = spec->workers + spec->loop_threads();
  if (threads > cpus || (spec->wire && spec->devices() > cpus)) {
    return Fail(std::string(spec->name) + " needs " + std::to_string(threads) +
                " threads and " + std::to_string(spec->devices()) +
                " connections; only " + std::to_string(cpus) + " CPUs usable");
  }

  // The wire workload's worker and both loop threads hand every delivery
  // along a strictly serial chain. Spread over CPUs, each hand-off lets a
  // virtual CPU halt and be woken again, and how long that takes depends
  // on the host's load: between two sets of runs of identical code the
  // p95 spread rose from 10% to 54%. On one CPU the chain keeps that CPU
  // busy and a hand-off is a context switch. Every thread the workload
  // starts inherits the pin from this one.
  if (spec->wire && !PinToOneCpu()) {
    return Fail("cannot pin the wire workload to one CPU");
  }

  const std::string root = args.state_root + "/" + spec->name + "-" +
                           std::to_string(::getpid());
  fs::remove_all(root);
  fs::create_directories(root);
  std::printf("%s: %zu workers + %zu transport threads on %zu of %zu CPUs; "
              "state directory on %s\n",
              spec->name, spec->workers, spec->loop_threads(), UsableCpus(),
              cpus, FilesystemOf(root).c_str());
  const int code = args.trace == 0 ? RunUntraced(*spec, args, root, process_start)
                                   : RunTraced(*spec, args, root);
  std::error_code ec;
  fs::remove_all(root, ec);
  return code;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
