#include "spans.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

struct Registry {
  Clock::time_point epoch = Clock::now();
  std::atomic<uint64_t> next_id{1};
  std::mutex mutex;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers;  // guarded by mutex
};

Registry& Shared() {
  static Registry registry;
  return registry;
}

struct ThreadState {
  std::vector<Span>* buffer = nullptr;
  uint64_t open = 0;  ///< innermost open span on this thread
};

ThreadState& Local() {
  thread_local ThreadState state;
  if (state.buffer == nullptr) {
    Registry& shared = Shared();
    std::lock_guard lock(shared.mutex);
    shared.buffers.push_back(std::make_unique<std::vector<Span>>());
    state.buffer = shared.buffers.back().get();
  }
  return state;
}

}  // namespace

SpanLog::SpanLog() { Shared(); }

SpanLog& SpanLog::Get() {
  static SpanLog log;
  return log;
}

int64_t SpanLog::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now() - Shared().epoch)
      .count();
}

std::vector<Span> SpanLog::Collect() const {
  Registry& shared = Shared();
  std::lock_guard lock(shared.mutex);
  std::vector<Span> all;
  for (const auto& buffer : shared.buffers) {
    all.insert(all.end(), buffer->begin(), buffer->end());
  }
  return all;
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& s : Collect()) {
    std::fprintf(out,
                 "{\"id\":%llu,\"parent\":%llu,\"trace\":%llu,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"ok\":%s}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.trace), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.ok ? "true" : "false");
  }
  return std::fclose(out) == 0;
}

ScopedSpan::ScopedSpan(const char* name, uint64_t trace) {
  ThreadState& local = Local();
  Span span;
  span.id = Shared().next_id.fetch_add(1, std::memory_order_relaxed);
  span.parent = local.open;
  span.trace = trace;
  span.name = name;
  span.start_ns = SpanLog::Get().NowNs();
  index_ = local.buffer->size();
  saved_parent_ = local.open;
  local.open = span.id;
  local.buffer->push_back(span);
}

ScopedSpan::~ScopedSpan() {
  ThreadState& local = Local();
  Span& span = (*local.buffer)[index_];
  span.end_ns = SpanLog::Get().NowNs();
  span.ok = ok_;
  local.open = saved_parent_;
}

}  // namespace perfbench
