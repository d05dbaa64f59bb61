// The benchmark's own arithmetic, kept apart from the load program so
// tests/bench_math_test.cc checks exactly the code that produces the
// reported numbers:
//
//   * order statistics, and the rule for which tail percentile a sample
//     supports (at least ten samples must lie beyond it);
//   * open-loop accounting: latency is timed from each request's due time,
//     not from when the generator got round to sending it, and the
//     generator's own lateness is recorded beside it;
//   * operation outcomes and the error rate (refused answers and answers
//     with the wrong bits both count as errors);
//   * in-memory spans and their self time (duration minus the part of the
//     interval that child spans cover).
#ifndef PERFBENCH_BENCH_MATH_H_
#define PERFBENCH_BENCH_MATH_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Microseconds from `from` to `to` (negative when `to` is earlier).
double MicrosBetween(Clock::time_point from, Clock::time_point to);

// ---------------------------------------------------------------- order stats

/// Median of a non-empty sample (mean of the two middle values when the
/// count is even). Throws std::invalid_argument on an empty sample.
double Median(std::vector<double> values);

/// Nearest-rank percentile: the smallest value with at least p% of the
/// sample at or below it. `p` in (0, 100]; throws on an empty sample.
double NearestRankPercentile(std::vector<double> values, double p);

/// How many samples lie strictly beyond the nearest rank of percentile
/// `p` in a sample of `n`: n - ceil(p * n / 100).
std::size_t SamplesBeyond(std::size_t n, int p);

/// A tail percentile the sample supports.
struct TailPercentile {
  int percentile = 0;        ///< e.g. 99, or a lower one when 99 lacks support
  int requested = 0;         ///< the percentile that was asked for
  double value = 0.0;
  std::size_t beyond = 0;    ///< samples strictly beyond the percentile
  /// "p99", or "p97 (p99 unsupported)" when the sample could not carry the
  /// requested percentile.
  std::string Label() const;
};

/// The highest integer percentile in (50, requested] with at least
/// `min_beyond` samples beyond its nearest rank; std::nullopt when even
/// p51 lacks support (fewer than about 2 * min_beyond samples).
std::optional<TailPercentile> SupportedTail(const std::vector<double>& values,
                                            int requested = 99,
                                            std::size_t min_beyond = 10);

// ------------------------------------------------------------------ open loop

/// Fixed-rate arrival schedule: request i is due at start + i / rate.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(Clock::time_point start, double rate_per_s);
  Clock::time_point Due(std::uint64_t i) const;

 private:
  Clock::time_point start_;
  double rate_per_s_;
};

/// One open-loop stream's record. Latency runs from the due time to the
/// answer, so a generator (or server) stall is charged to every request
/// it delayed; lateness is how far past its due time a request was sent.
class OpenLoopStats {
 public:
  void RecordSend(Clock::time_point due, Clock::time_point sent);
  void RecordAnswer(Clock::time_point due, Clock::time_point answered);
  void Merge(const OpenLoopStats& other);

  std::uint64_t sent() const { return lateness_us_.size(); }
  const std::vector<double>& latency_us() const { return latency_us_; }
  const std::vector<double>& lateness_us() const { return lateness_us_; }

 private:
  std::vector<double> latency_us_;
  std::vector<double> lateness_us_;
};

// ------------------------------------------------------------------- outcomes

enum class Outcome {
  kOk,         ///< answered, and the answer is exactly right
  kRefused,    ///< the program answered with an error or a coded rejection
  kWrongBits,  ///< answered, but not bit-identical to any reference
  kFailed,     ///< no usable answer (process exit, lost connection, ...)
};

/// Counts operations by outcome. Every non-ok outcome is an error.
class OutcomeCounts {
 public:
  void Add(Outcome outcome);
  void Merge(const OutcomeCounts& other);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t ok() const { return ok_; }
  std::uint64_t refused() const { return refused_; }
  std::uint64_t wrong_bits() const { return wrong_bits_; }
  std::uint64_t failed() const { return failed_; }
  std::uint64_t errors() const { return attempted_ - ok_; }
  /// errors / attempted; 0 when nothing was attempted.
  double ErrorRate() const;

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t ok_ = 0;
  std::uint64_t refused_ = 0;
  std::uint64_t wrong_bits_ = 0;
  std::uint64_t failed_ = 0;
};

/// True when `got` has the same length and the same bytes (memcmp, so
/// -0.0 differs from 0.0) as `expected`.
bool SameBits(const std::vector<double>& got,
              const std::vector<double>& expected);

/// Outcome of one answered query: kRefused when the program refused it,
/// otherwise kOk when `got` matches any reference bit for bit, else
/// kWrongBits.
Outcome ClassifyAnswer(bool refused, const std::vector<double>& got,
                       const std::vector<const std::vector<double>*>& refs);

// ---------------------------------------------------------------------- spans

/// One timed call. Times are microseconds since the recorder's epoch.
struct Span {
  std::string name;
  std::uint64_t trace_id = 0;  ///< shared by every span of a request/model
  int parent = -1;             ///< index of the enclosing span, -1 at a root
  double start_us = 0.0;
  double end_us = 0.0;
  double duration_us() const { return end_us - start_us; }
};

/// Span store for one thread. Spans stay in memory until the run ends;
/// Merge folds several threads' stores into one (parent indices are
/// rebased). A disabled recorder records nothing and costs one branch.
class SpanRecorder {
 public:
  SpanRecorder(bool enabled, Clock::time_point epoch);

  /// Opens a span whose parent is the innermost open span of this
  /// recorder (or none). Returns its index, -1 when disabled.
  int Begin(const std::string& name, std::uint64_t trace_id);
  void End(int index);
  /// Records an already-timed span as a child of the innermost open span.
  void Add(const std::string& name, std::uint64_t trace_id,
           Clock::time_point start, Clock::time_point end);
  void Merge(const SpanRecorder& other);

  bool enabled() const { return enabled_; }
  Clock::time_point epoch() const { return epoch_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< stack of open span indices
};

/// RAII span: Begin on construction, End on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name,
             std::uint64_t trace_id);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int index_;
};

/// Self time of every span: its duration minus the length of the union of
/// its children's intervals clipped to its own interval (children may
/// overlap one another, e.g. pipelined requests on several threads).
std::vector<double> SelfTimesUs(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_MATH_H_
