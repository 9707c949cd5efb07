#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <unordered_set>
#include <utility>

namespace perfbench {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Ids of the spans open on this thread, innermost last.
thread_local std::vector<std::uint64_t> open_spans;

/// Total length of the union of [begin, end) intervals.
double union_seconds(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double begin = 0.0;
  double end = 0.0;
  bool any = false;
  for (const auto& [b, e] : intervals) {
    if (!any || b > end) {
      if (any) total += end - begin;
      begin = b;
      end = e;
      any = true;
    } else {
      end = std::max(end, e);
    }
  }
  if (any) total += end - begin;
  return total;
}

void json_escaped(std::ostream& os, std::string_view text) {
  for (const char c : text) {
    if (c == '"' || c == '\\') os << '\\';
    if (static_cast<unsigned char>(c) >= 0x20) os << c;
  }
}

}  // namespace

Tracer::Tracer(std::uint64_t run_id)
    : run_id_(run_id), origin_ns_(steady_ns()) {
  spans_.reserve(4096);
  thread_index();  // the constructing (driving) thread is thread 0
}

double Tracer::now() const noexcept {
  return static_cast<double>(steady_ns() - origin_ns_) * 1e-9;
}

std::uint64_t Tracer::open(bool fans_out, std::uint64_t& saved_fanout) {
  const std::uint64_t id = next_id_.fetch_add(1);
  open_spans.push_back(id);
  if (fans_out) saved_fanout = fanout_parent_.exchange(id);
  return id;
}

void Tracer::close(std::uint64_t id, double start_s, std::string name,
                   bool fans_out, std::uint64_t saved_fanout) {
  const double end_s = now();
  if (fans_out) fanout_parent_.store(saved_fanout);
  open_spans.pop_back();
  const std::uint64_t parent =
      open_spans.empty() ? fanout_parent_.load() : open_spans.back();
  const std::scoped_lock lock(mutex_);
  const std::uint32_t thread = thread_index();
  spans_.push_back({std::move(name), id, parent, thread, start_s, end_s});
}

std::uint32_t Tracer::thread_index() {
  const auto [it, inserted] = threads_.try_emplace(
      std::this_thread::get_id(), static_cast<std::uint32_t>(threads_.size()));
  return it->second;
}

bool Tracer::write_chrome_trace(const std::string& path,
                                const std::string& metadata) const {
  std::ofstream out(path);
  if (!out) return false;
  out << std::setprecision(17);
  out << "{\"displayTimeUnit\": \"ms\", \"otherData\": " << metadata
      << ", \"traceEvents\": [\n";
  bool first = true;
  for (std::uint32_t t = 0; t < threads_.size(); ++t) {
    out << (first ? "" : ",\n")
        << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": "
        << t << ", \"args\": {\"name\": \""
        << (t == 0 ? "driver" : "worker " + std::to_string(t)) << "\"}}";
    first = false;
  }
  for (const SpanRecord& span : spans_) {
    out << (first ? "" : ",\n") << "{\"name\": \"";
    json_escaped(out, span.name);
    out << "\", \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
        << span.thread << ", \"ts\": " << span.start_s * 1e6
        << ", \"dur\": " << span.seconds() * 1e6 << ", \"args\": {\"span\": "
        << span.id << ", \"parent\": " << span.parent
        << ", \"run\": " << run_id_ << ", \"start_s\": " << span.start_s
        << ", \"end_s\": " << span.end_s << "}}";
    first = false;
  }
  out << "\n]}\n";
  out.flush();
  return static_cast<bool>(out);
}

Span::Span(Tracer& tracer, std::string name, bool fans_out)
    : tracer_(tracer),
      name_(std::move(name)),
      fans_out_(fans_out),
      id_(tracer.open(fans_out, saved_fanout_)),
      start_s_(tracer.now()) {}

Span::~Span() {
  tracer_.close(id_, start_s_, std::move(name_), fans_out_, saved_fanout_);
}

SpanStats stats_for(const std::vector<SpanRecord>& spans,
                    std::initializer_list<std::string_view> names) {
  SpanStats stats;
  std::vector<double> durations;
  for (const SpanRecord& span : spans) {
    if (std::find(names.begin(), names.end(), span.name) == names.end()) {
      continue;
    }
    durations.push_back(span.seconds());
    stats.seconds += span.seconds();
  }
  stats.calls = durations.size();
  if (!durations.empty()) {
    const auto mid = durations.begin() + durations.size() / 2;
    std::nth_element(durations.begin(), mid, durations.end());
    stats.p50_seconds = *mid;
  }
  return stats;
}

double covered_by_children(const std::vector<SpanRecord>& spans,
                           const SpanRecord& parent) {
  std::vector<std::pair<double, double>> intervals;
  for (const SpanRecord& span : spans) {
    if (span.parent != parent.id) continue;
    intervals.emplace_back(std::max(span.start_s, parent.start_s),
                           std::min(span.end_s, parent.end_s));
  }
  return union_seconds(std::move(intervals));
}

double leaf_busy_seconds(const std::vector<SpanRecord>& spans) {
  std::unordered_set<std::uint64_t> parents;
  std::uint32_t threads = 0;
  for (const SpanRecord& span : spans) {
    parents.insert(span.parent);
    threads = std::max(threads, span.thread + 1);
  }
  std::vector<std::vector<std::pair<double, double>>> per_thread(threads);
  for (const SpanRecord& span : spans) {
    if (parents.count(span.id) == 0) {
      per_thread[span.thread].emplace_back(span.start_s, span.end_s);
    }
  }
  double total = 0.0;
  for (auto& intervals : per_thread) {
    total += union_seconds(std::move(intervals));
  }
  return total;
}

}  // namespace perfbench
