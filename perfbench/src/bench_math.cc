#include "bench_math.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace perfbench {

double MicrosBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("Median of no samples");
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(
      values.begin(), values.begin() + static_cast<long>(mid));
  return 0.5 * (lower + upper);
}

double NearestRankPercentile(std::vector<double> values, double p) {
  if (values.empty()) {
    throw std::invalid_argument("percentile of no samples");
  }
  if (!(p > 0.0 && p <= 100.0)) {
    throw std::invalid_argument("percentile must lie in (0, 100]");
  }
  const double n = static_cast<double>(values.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::max<std::size_t>(rank, 1);
  std::nth_element(values.begin(), values.begin() + static_cast<long>(rank - 1),
                   values.end());
  return values[rank - 1];
}

std::size_t SamplesBeyond(std::size_t n, int p) {
  const std::size_t rank =
      (static_cast<std::size_t>(p) * n + 99) / 100;  // ceil(p * n / 100)
  return n - std::min(n, rank);
}

std::string TailPercentile::Label() const {
  std::string label = "p" + std::to_string(percentile);
  if (percentile != requested) {
    label += " (p" + std::to_string(requested) + " unsupported)";
  }
  return label;
}

std::optional<TailPercentile> SupportedTail(const std::vector<double>& values,
                                            int requested,
                                            std::size_t min_beyond) {
  for (int p = requested; p > 50; --p) {
    const std::size_t beyond = SamplesBeyond(values.size(), p);
    if (beyond < min_beyond) continue;
    TailPercentile tail;
    tail.percentile = p;
    tail.requested = requested;
    tail.value = NearestRankPercentile(values, p);
    tail.beyond = beyond;
    return tail;
  }
  return std::nullopt;
}

OpenLoopSchedule::OpenLoopSchedule(Clock::time_point start, double rate_per_s)
    : start_(start), rate_per_s_(rate_per_s) {
  if (!(rate_per_s > 0.0)) {
    throw std::invalid_argument("open-loop rate must be positive");
  }
}

Clock::time_point OpenLoopSchedule::Due(std::uint64_t i) const {
  const double offset_s = static_cast<double>(i) / rate_per_s_;
  return start_ + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(offset_s));
}

void OpenLoopStats::RecordSend(Clock::time_point due, Clock::time_point sent) {
  lateness_us_.push_back(std::max(0.0, MicrosBetween(due, sent)));
}

void OpenLoopStats::RecordAnswer(Clock::time_point due,
                                 Clock::time_point answered) {
  latency_us_.push_back(MicrosBetween(due, answered));
}

void OpenLoopStats::Merge(const OpenLoopStats& other) {
  latency_us_.insert(latency_us_.end(), other.latency_us_.begin(),
                     other.latency_us_.end());
  lateness_us_.insert(lateness_us_.end(), other.lateness_us_.begin(),
                      other.lateness_us_.end());
}

void OutcomeCounts::Add(Outcome outcome) {
  ++attempted_;
  switch (outcome) {
    case Outcome::kOk: ++ok_; break;
    case Outcome::kRefused: ++refused_; break;
    case Outcome::kWrongBits: ++wrong_bits_; break;
    case Outcome::kFailed: ++failed_; break;
  }
}

void OutcomeCounts::Merge(const OutcomeCounts& other) {
  attempted_ += other.attempted_;
  ok_ += other.ok_;
  refused_ += other.refused_;
  wrong_bits_ += other.wrong_bits_;
  failed_ += other.failed_;
}

double OutcomeCounts::ErrorRate() const {
  if (attempted_ == 0) return 0.0;
  return static_cast<double>(errors()) / static_cast<double>(attempted_);
}

bool SameBits(const std::vector<double>& got,
              const std::vector<double>& expected) {
  return got.size() == expected.size() &&
         (got.empty() ||
          std::memcmp(got.data(), expected.data(),
                      got.size() * sizeof(double)) == 0);
}

Outcome ClassifyAnswer(bool refused, const std::vector<double>& got,
                       const std::vector<const std::vector<double>*>& refs) {
  if (refused) return Outcome::kRefused;
  for (const std::vector<double>* ref : refs) {
    if (ref != nullptr && SameBits(got, *ref)) return Outcome::kOk;
  }
  return Outcome::kWrongBits;
}

SpanRecorder::SpanRecorder(bool enabled, Clock::time_point epoch)
    : enabled_(enabled), epoch_(epoch) {}

int SpanRecorder::Begin(const std::string& name, std::uint64_t trace_id) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.trace_id = trace_id;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_us = MicrosBetween(epoch_, Clock::now());
  span.end_us = span.start_us;
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanRecorder::End(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_us =
      MicrosBetween(epoch_, Clock::now());
  // Spans close innermost-first; tolerate an out-of-order End by removing
  // exactly this entry.
  const auto it = std::find(open_.rbegin(), open_.rend(), index);
  if (it != open_.rend()) open_.erase(std::next(it).base());
}

void SpanRecorder::Add(const std::string& name, std::uint64_t trace_id,
                       Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.trace_id = trace_id;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_us = MicrosBetween(epoch_, start);
  span.end_us = MicrosBetween(epoch_, end);
  spans_.push_back(std::move(span));
}

void SpanRecorder::Merge(const SpanRecorder& other) {
  const int base = static_cast<int>(spans_.size());
  const double shift = MicrosBetween(epoch_, other.epoch_);
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += base;
    span.start_us += shift;
    span.end_us += shift;
    spans_.push_back(std::move(span));
  }
}

ScopedSpan::ScopedSpan(SpanRecorder* recorder, const std::string& name,
                       std::uint64_t trace_id)
    : recorder_(recorder), index_(recorder->Begin(name, trace_id)) {}

ScopedSpan::~ScopedSpan() { recorder_->End(index_); }

std::vector<double> SelfTimesUs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0 &&
        static_cast<std::size_t>(span.parent) < spans.size()) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(
          span.start_us, span.end_us);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start_us;
    const double hi = spans[i].end_us;
    std::vector<std::pair<double, double>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = lo;  // end of the union covered so far
    for (const auto& [start, end] : kids) {
      const double a = std::max(start, reach);
      const double b = std::min(end, hi);
      if (b > a) covered += b - a;
      reach = std::max(reach, std::min(end, hi));
    }
    self[i] = std::max(0.0, (hi - lo) - covered);
  }
  return self;
}

}  // namespace perfbench
