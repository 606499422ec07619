// In-memory span recorder for the traced benchmark run.
//
// A span is one timed call into a layer's public function (db::Store::Put,
// svc::Router::Range, rpc::Channel::Call, svc::MetaService::Handle, ...),
// recorded from the benchmark's own code around that call. Spans of one
// client operation share an op id; the enclosing span on the same thread
// is the parent. Buffers are per thread and unsynchronised on the hot
// path; they are read only after every recording thread has joined.
//
// With tracing off, a Span is two branches and no clock read.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = nullptr;  ///< a string literal (compared by value)
  std::uint64_t id = 0;
  std::uint64_t parent = 0;    ///< 0 = a root span
  std::uint64_t op = 0;        ///< client operation id, 0 = none
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t bytes = 0;     ///< payload bytes moved (rpc spans only)
};

/// Per-name totals over every recorded span.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_us = 0;  ///< wall time inside the span
  double self_us = 0;   ///< minus the time covered by its child spans
};

class Tracer {
 public:
  static void enable(bool on);
  static bool enabled();

  /// Nanoseconds on the steady clock (relative to process start).
  static std::int64_t now_ns();

  /// Sets the op id stamped on spans this thread opens from now on.
  static void set_op(std::uint64_t op);
  /// A process-wide fresh op id.
  static std::uint64_t next_op();

  /// Every span recorded so far, all threads (call after joining them).
  static std::vector<SpanRecord> collect();
  /// Drops every recorded span.
  static void clear();

  /// Aggregates by span name, computing self time from parent links.
  static std::map<std::string, SpanTotals> totals(
      const std::vector<SpanRecord>& spans);

  /// Writes spans as CSV (name,id,parent,op,start_ns,end_ns,bytes).
  static bool dump(const std::vector<SpanRecord>& spans,
                   const std::string& path);

  // Used by Span.
  static std::uint64_t open(const char* name, std::uint64_t* saved_parent);
  static void close(std::uint64_t id, std::uint64_t saved_parent,
                    std::uint64_t bytes);
};

/// RAII span: records [construction, destruction) when tracing is on.
class Span {
 public:
  explicit Span(const char* name) {
    if (Tracer::enabled()) id_ = Tracer::open(name, &saved_parent_);
  }
  ~Span() {
    if (id_ != 0) Tracer::close(id_, saved_parent_, bytes_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void add_bytes(std::uint64_t b) { bytes_ += b; }

 private:
  std::uint64_t id_ = 0;
  std::uint64_t saved_parent_ = 0;
  std::uint64_t bytes_ = 0;
};

}  // namespace perfbench
