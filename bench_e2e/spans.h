// Request spans recorded from the benchmark's own code, around every call
// it makes into a layer of libxst.
//
// Each client thread owns one Tracer. A span is recorded only while the
// thread has a Tracer installed (tl_tracer) AND a request is open, so the
// untraced run never reads a clock per call: ScopedSpan is then a load and a
// branch. Spans of one request share its id and link to their parent. When
// a request closes, the Tracer folds its spans into per-name totals of
// inclusive and self time (a span's duration minus what its children
// cover), then keeps the spans for the Chrome trace file up to a cap.

#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace e2e {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

struct Span {
  const char* name = nullptr;  ///< static string
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  uint64_t req = 0;
  uint32_t index = 0;   ///< position within its request
  int32_t parent = -1;  ///< index of the parent within the request, -1 for the root
};

/// \brief Time attributed to one span name, summed over requests.
struct SpanTotals {
  uint64_t calls = 0;
  uint64_t incl_ns = 0;
  uint64_t self_ns = 0;
};

class Tracer {
 public:
  Tracer(int tid, size_t keep_spans) : tid_(tid), keep_spans_(keep_spans) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool in_request() const { return !open_.empty(); }

  void BeginRequest(const char* name, uint64_t req) {
    req_ = req;
    cur_.clear();
    Open(name);
  }

  /// \brief Closes the root span; returns its duration.
  uint64_t EndRequest() {
    Close(0);
    const uint64_t total = cur_[0].dur_ns;
    std::vector<uint64_t> self(cur_.size());
    for (size_t i = 0; i < cur_.size(); ++i) self[i] = cur_[i].dur_ns;
    for (size_t i = 1; i < cur_.size(); ++i) self[cur_[i].parent] -= cur_[i].dur_ns;
    for (size_t i = 0; i < cur_.size(); ++i) {
      SpanTotals& t = totals_[cur_[i].name];
      ++t.calls;
      t.incl_ns += cur_[i].dur_ns;
      t.self_ns += self[i];
    }
    ++requests_;
    request_ns_ += total;
    if (kept_.size() + cur_.size() <= keep_spans_) {
      kept_.insert(kept_.end(), cur_.begin(), cur_.end());
    }
    cur_.clear();
    return total;
  }

  uint32_t Open(const char* name) {
    Span s;
    s.name = name;
    s.req = req_;
    s.index = static_cast<uint32_t>(cur_.size());
    s.parent = open_.empty() ? -1 : static_cast<int32_t>(open_.back());
    s.start_ns = NowNs();
    cur_.push_back(s);
    open_.push_back(s.index);
    return s.index;
  }

  void Close(uint32_t index) {
    cur_[index].dur_ns = NowNs() - cur_[index].start_ns;
    open_.pop_back();
  }

  int tid() const { return tid_; }
  uint64_t requests() const { return requests_; }
  uint64_t request_ns() const { return request_ns_; }
  const std::map<std::string, SpanTotals>& totals() const { return totals_; }
  const std::vector<Span>& kept() const { return kept_; }

 private:
  int tid_;
  size_t keep_spans_;
  uint64_t req_ = 0;
  std::vector<Span> cur_;
  std::vector<uint32_t> open_;
  std::vector<Span> kept_;
  std::map<std::string, SpanTotals> totals_;
  uint64_t requests_ = 0;
  uint64_t request_ns_ = 0;
};

/// The calling thread's tracer; null outside traced requests' threads.
inline thread_local Tracer* tl_tracer = nullptr;

/// \brief A span for the rest of the scope, if the thread is tracing a
/// request; otherwise nothing (no clock read).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) {
    if (tl_tracer != nullptr && tl_tracer->in_request()) {
      tracer_ = tl_tracer;
      index_ = tracer_->Open(name);
    }
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_ = nullptr;
  uint32_t index_ = 0;
};

/// \brief Writes the kept spans of every tracer as Chrome trace-event JSON
/// ("X" complete events; args carry the request id and the parent span).
inline bool WriteChromeTrace(const std::string& path, const std::vector<const Tracer*>& tracers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uint64_t t0 = UINT64_MAX;
  for (const Tracer* t : tracers) {
    for (const Span& s : t->kept()) t0 = s.start_ns < t0 ? s.start_ns : t0;
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool first = true;
  for (const Tracer* t : tracers) {
    for (const Span& s : t->kept()) {
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                   "\"dur\":%.3f,\"args\":{\"req\":%llu,\"span\":%u,\"parent\":%d}}",
                   first ? "" : ",\n", s.name, t->tid(), (s.start_ns - t0) / 1e3,
                   s.dur_ns / 1e3, static_cast<unsigned long long>(s.req), s.index,
                   s.parent);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace e2e
