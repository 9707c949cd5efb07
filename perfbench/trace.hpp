// Span recorder for the benchmark's traced runs.
//
// A span is one timed call into a library layer: name, start, end, the span
// that caused it and the run it belongs to. Spans are kept in memory and
// written once, as Chrome trace-event JSON, when the run ends (the file
// opens offline in Perfetto or chrome://tracing).
//
// Parents: a span's parent is the innermost span still open on the same
// thread. A span opened on a thread with no open span (a pool worker running
// a fanned-out task) takes the innermost open span that was marked
// `fans_out` on the driving thread.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = no parent
  std::uint32_t thread = 0;  // dense per-tracer thread index
  double start_s = 0.0;      // seconds since the tracer was created
  double end_s = 0.0;

  double seconds() const noexcept { return end_s - start_s; }
};

class Tracer {
 public:
  explicit Tracer(std::uint64_t run_id);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::uint64_t run_id() const noexcept { return run_id_; }
  double now() const noexcept;

  /// Finished spans, in completion order. Call only when no span is open.
  const std::vector<SpanRecord>& spans() const noexcept { return spans_; }

  /// Writes the spans as Chrome trace-event JSON; `metadata` (a JSON object
  /// text) lands under "otherData". Returns false on I/O failure.
  bool write_chrome_trace(const std::string& path,
                          const std::string& metadata) const;

 private:
  friend class Span;

  std::uint64_t open(bool fans_out, std::uint64_t& saved_fanout);
  void close(std::uint64_t id, double start_s, std::string name,
             bool fans_out, std::uint64_t saved_fanout);
  std::uint32_t thread_index();

  std::uint64_t run_id_;
  std::int64_t origin_ns_;
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> fanout_parent_{0};
  std::mutex mutex_;  // guards spans_ and threads_
  std::vector<SpanRecord> spans_;
  std::unordered_map<std::thread::id, std::uint32_t> threads_;
};

/// RAII span. `fans_out` marks a span whose work continues on pool
/// workers, so their spans are parented to it.
class Span {
 public:
  Span(Tracer& tracer, std::string name, bool fans_out = false);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  std::string name_;
  bool fans_out_;
  std::uint64_t saved_fanout_ = 0;
  std::uint64_t id_;
  double start_s_;
};

/// Aggregates over finished spans.
struct SpanStats {
  std::size_t calls = 0;
  double seconds = 0.0;
  double p50_seconds = 0.0;
};
SpanStats stats_for(const std::vector<SpanRecord>& spans,
                    std::initializer_list<std::string_view> names);

/// Seconds of span `parent`'s interval covered by its children's intervals
/// (union, so concurrent children on several threads count once).
double covered_by_children(const std::vector<SpanRecord>& spans,
                           const SpanRecord& parent);

/// Per-thread union of leaf-span intervals, summed over threads: the time
/// some thread spent inside a library call.
double leaf_busy_seconds(const std::vector<SpanRecord>& spans);

}  // namespace perfbench
