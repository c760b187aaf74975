#include "trace.hpp"

#include <cstdio>

namespace pb {

Tracer& Tracer::instance() {
  static Tracer t;
  return t;
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int Tracer::begin(const char* name, std::int64_t request) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.request = request >= 0 || s.parent < 0
                  ? request
                  : spans_[static_cast<std::size_t>(s.parent)].request;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(std::move(s));
  open_.push_back(id);
  spans_.back().start_ns = now_ns();
  return id;
}

void Tracer::end(int id) {
  if (id < 0) return;
  const std::int64_t t = now_ns();
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = t;
  if (!open_.empty() && open_.back() == id) open_.pop_back();
  if (s.parent >= 0)
    spans_[static_cast<std::size_t>(s.parent)].child_ns += t - s.start_ns;
}

void Tracer::count(int id, const char* key, double value) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].counts.emplace_back(key, value);
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::map<std::string, Totals> out;
  for (const Span& s : spans_) {
    if (s.end_ns < 0) continue;
    Totals& t = out[s.name];
    const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    t.spans += 1;
    t.seconds += dur;
    t.self_seconds += dur - static_cast<double>(s.child_ns) * 1e-9;
  }
  return out;
}

double Tracer::seconds(const std::string& name) const {
  double sum = 0;
  for (const Span& s : spans_)
    if (s.end_ns >= 0 && name == s.name)
      sum += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  return sum;
}

bool Tracer::dump(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %zu, "
                 "\"parent\": %d, \"request\": %lld, \"self_us\": %.3f",
                 first ? "" : ",\n", s.name,
                 static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                 s.parent, static_cast<long long>(s.request),
                 static_cast<double>(s.end_ns - s.start_ns - s.child_ns) *
                     1e-3);
    for (const auto& [key, value] : s.counts)
      std::fprintf(f, ", \"%s\": %.17g", key, value);
    std::fprintf(f, "}}");
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

Scope::Scope(const char* name, std::int64_t request)
    : id_(Tracer::instance().begin(name, request)) {}

Scope::~Scope() { Tracer::instance().end(id_); }

}  // namespace pb
