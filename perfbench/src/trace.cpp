#include "trace.hpp"

#include <chrono>

namespace perfbench {

namespace {
thread_local int tCurrentSpan = -1;
} // namespace

double now_s() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - origin)
      .count();
}

int Tracer::next_id() {
  nvff::MutexLock lock(mu_);
  return nextId_++;
}

void Tracer::record(SpanRecord span) {
  nvff::MutexLock lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<SpanRecord> Tracer::spans() const {
  nvff::MutexLock lock(mu_);
  return spans_;
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

Span::Span(std::string name, int trial, std::string tag, int parent)
    : savedCurrent_(tCurrentSpan) {
  rec_.id = tracer().next_id();
  rec_.parent = parent == kInherit ? tCurrentSpan : parent;
  rec_.name = std::move(name);
  rec_.trial = trial;
  rec_.tag = std::move(tag);
  tCurrentSpan = rec_.id;
  rec_.start = now_s();
}

Span::~Span() {
  rec_.end = now_s();
  tCurrentSpan = savedCurrent_;
  tracer().record(std::move(rec_));
}

} // namespace perfbench
