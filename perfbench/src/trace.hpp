// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code around the calls it makes
// into the libraries' public functions; nothing inside the libraries is
// instrumented. A span carries a name ("<layer>.<call>"), start and end on
// the steady clock (seconds since the recorder was created), the span that
// caused it, a trial id (-1 when none) and a free-form tag (for example the
// benchmark circuit a flow stage ran on). Spans are kept in memory and
// written out once, when the run ends.
#pragma once

#include <string>
#include <vector>

#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace perfbench {

/// Seconds on the steady clock since an arbitrary process-wide origin.
double now_s();

struct SpanRecord {
  int id = 0;
  int parent = -1; ///< -1 = root
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int trial = -1;
  std::string tag;
};

class Tracer {
public:
  /// Reserves a span id.
  int next_id();
  void record(SpanRecord span);
  /// Every finished span, in completion order.
  std::vector<SpanRecord> spans() const;

private:
  mutable nvff::Mutex mu_;
  int nextId_ GUARDED_BY(mu_) = 0;
  std::vector<SpanRecord> spans_ GUARDED_BY(mu_);
};

/// The process-wide recorder.
Tracer& tracer();

/// RAII span. The parent defaults to the innermost open span on the calling
/// thread; pass `parent` explicitly for work handed to another thread.
class Span {
public:
  static constexpr int kInherit = -2;

  explicit Span(std::string name, int trial = -1, std::string tag = {},
                int parent = kInherit);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  int id() const { return rec_.id; }

private:
  SpanRecord rec_;
  int savedCurrent_;
};

} // namespace perfbench
