// Span-based tracer emitting Chrome trace_event JSON.
//
// The output loads directly in Perfetto / chrome://tracing: one "X"
// (complete) event per span — attack phases, family scans,
// batch-oracle chunks, campaign trials — and "i" (instant) events for
// point-in-time facts like thread-pool submissions and steal/help-run task
// claims.  Timestamps are microseconds on the steady clock, relative to the
// tracer's construction; tids are small sequential ids assigned per thread
// on first emission.
//
// Write path: events append to a per-thread buffer guarded by a per-buffer
// mutex that only the owning thread and the (rare) snapshot reader ever
// take, so tracing never funnels the pool through one lock.  Span names,
// categories and arg keys are `const char*` by design: instrumentation
// sites pass string literals, the tracer never copies or allocates per
// event beyond the buffer push, and a disabled span is constructed without
// touching the clock (obs::trace_enabled() is one relaxed load).
//
// scripts/check_trace.py validates emitted files against the schema
// (balanced/properly-nested spans, monotone timestamps).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/bits.h"
#include "obs/obs.h"

namespace sbm::obs {

struct TraceEvent {
  static constexpr size_t kMaxArgs = 3;

  const char* name = "";  // string literal, not owned
  const char* cat = "";   // string literal, not owned
  char ph = 'X';          // 'X' complete span, 'i' instant
  u64 ts_us = 0;
  u64 dur_us = 0;  // 'X' only
  u32 tid = 0;
  std::array<std::pair<const char*, u64>, kMaxArgs> args{};
  u8 num_args = 0;
};

class Tracer {
 public:
  Tracer();
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Shared process-wide tracer; every subsystem emits here.
  static Tracer& global();

  /// Microseconds since this tracer's construction (steady clock).
  u64 now_us() const;

  /// Appends `e` (tid filled in here) to the calling thread's buffer.
  void record(TraceEvent e);

  /// Emits an instant event at now_us().  No-op while tracing is disabled,
  /// like Span — call sites may still pre-check trace_enabled() to skip
  /// argument computation.
  void instant(const char* cat, const char* name,
               std::initializer_list<std::pair<const char*, u64>> args = {});

  /// All events so far, merged across threads and sorted by (ts, tid).
  std::vector<TraceEvent> events() const;
  size_t event_count() const;

  /// {"traceEvents": [...]} — the Chrome trace_event JSON document.
  std::string to_chrome_json() const;
  /// Writes to_chrome_json() to `path`; false on I/O error.
  bool write(const std::string& path) const;

  /// Drops every recorded event (buffers stay registered).
  void clear();

 private:
  struct Buffer {
    std::mutex mu;
    std::vector<TraceEvent> events;
    u32 tid = 0;
  };

  Buffer& local_buffer();

  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex registry_mu_;
  std::vector<std::shared_ptr<Buffer>> buffers_;
  std::atomic<u32> next_tid_{1};
};

/// RAII complete-event span on the global tracer.  When tracing is disabled
/// the constructor is a relaxed load and a branch — no clock read, nothing
/// recorded.  Arguments must be attached while the span is open.
class Span {
 public:
  Span(const char* cat, const char* name) {
    if (!trace_enabled()) return;
    active_ = true;
    event_.cat = cat;
    event_.name = name;
    event_.ts_us = Tracer::global().now_us();
  }

  Span(const char* cat, const char* name, const char* k0, u64 v0) : Span(cat, name) {
    arg(k0, v0);
  }

  Span(const char* cat, const char* name, const char* k0, u64 v0, const char* k1, u64 v1)
      : Span(cat, name, k0, v0) {
    arg(k1, v1);
  }

  ~Span() {
    if (!active_) return;
    Tracer& t = Tracer::global();
    event_.dur_us = t.now_us() - event_.ts_us;
    t.record(event_);
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void arg(const char* key, u64 value) {
    if (!active_ || event_.num_args >= TraceEvent::kMaxArgs) return;
    event_.args[event_.num_args++] = {key, value};
  }

 private:
  TraceEvent event_{};
  bool active_ = false;
};

}  // namespace sbm::obs
