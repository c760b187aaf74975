// Span recorder for the benchmark's traced mode.
//
// Spans are recorded only around the benchmark's own calls into the
// library's layers (the program itself is not instrumented). Each span
// carries a name, start and end on the host clock, the span that caused
// it, a request id shared by all spans of one request or scan, and
// counts measured at the same boundary. Spans stay in memory and are
// written once, at exit, as a Chrome trace-event file that Perfetto and
// chrome://tracing open. With tracing off every call below is a branch on
// one flag, so untraced runs pay nothing measurable.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"

namespace pb {

class Tracer {
 public:
  static Tracer& instance();

  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Opens a span as a child of the innermost open span; returns its id
  /// (-1 when disabled).
  int begin(const char* name, std::int64_t request);
  void end(int id);
  void count(int id, const char* key, double value);

  struct Totals {
    std::size_t spans = 0;
    double seconds = 0;       // summed duration
    double self_seconds = 0;  // duration minus the time children cover
  };
  /// Per-name totals over every closed span.
  std::map<std::string, Totals> totals() const;
  /// Summed duration of every closed span with this name (0 if none).
  double seconds(const std::string& name) const;

  /// Writes the Chrome trace-event JSON; returns false on I/O failure.
  bool dump(const std::string& path) const;

 private:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
    int parent = -1;
    std::int64_t request = -1;
    std::int64_t child_ns = 0;  // children are nested, so they never overlap
    std::vector<std::pair<const char*, double>> counts;
  };
  std::int64_t now_ns() const;

  bool enabled_ = false;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span on the global tracer. `request` groups the spans of one
/// request or scan; children inherit it when passed -1.
class Scope {
 public:
  explicit Scope(const char* name, std::int64_t request = -1);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void count(const char* key, double value) {
    Tracer::instance().count(id_, key, value);
  }

 private:
  int id_;
};

}  // namespace pb
