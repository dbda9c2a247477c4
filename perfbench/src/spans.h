// In-memory span recorder for the traced replay.
//
// Spans are recorded from the benchmark's own code, around its calls into
// each library layer. Each thread appends to its own buffer (no lock on
// the hot path); the open span on a thread is the parent of the next one
// it begins. Buffers outlive their threads, so Collect() after the
// workers have joined sees every span. WriteJsonl() dumps them at exit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One recorded span. Times are nanoseconds since the log was created.
struct Span {
  uint64_t id = 0;      ///< unique within the process, never 0
  uint64_t parent = 0;  ///< enclosing span on the same thread, 0 for a root
  uint64_t trace = 0;   ///< per-target trace id shared by its spans
  const char* name = "";  ///< static string naming the layer call
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  bool ok = true;       ///< the call the span wraps succeeded

  double micros() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

/// Process-wide span log.
class SpanLog {
 public:
  static SpanLog& Get();

  /// Every span recorded so far, from every thread. Call only while no
  /// thread is recording.
  std::vector<Span> Collect() const;

  /// Writes Collect() as one JSON object per line. False on I/O error.
  bool WriteJsonl(const std::string& path) const;

  /// Nanoseconds since the log was created.
  int64_t NowNs() const;

 private:
  SpanLog();
};

/// Records one span over its own lifetime.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, uint64_t trace);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_ok(bool ok) { ok_ = ok; }

 private:
  size_t index_;  ///< position in the thread's buffer
  uint64_t saved_parent_;
  bool ok_ = true;
};

}  // namespace perfbench
