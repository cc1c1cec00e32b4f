// In-memory span log for the traced run: one span per call into a layer
// (name, start, end, parent, wave id), kept in memory and written out when
// the run ends. Spans are opened around the benchmark's own calls into the
// engine's public API; nothing inside the engine is instrumented.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace healbench {

class SpanLog {
 public:
  struct Span {
    const char* name = "";   ///< A string literal: span names have static lifetime.
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;         ///< Index of the enclosing span, -1 at top level.
    int64_t wave = -1;       ///< Wave id, -1 for spans outside a wave.
  };

  /// Scoped span: opened on construction, closed on destruction. With the
  /// log off it does nothing, not even read the clock.
  class Scope {
   public:
    Scope(SpanLog& log, const char* name, int64_t wave = -1) : log_(log) {
      if (log_.on_) id_ = log_.open(name, wave);
    }
    ~Scope() {
      if (id_ >= 0) log_.close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    int id_ = -1;
  };

  explicit SpanLog(bool on) : on_(on), epoch_(Clock::now()) {}

  /// Self time per span name (duration minus the part its direct children
  /// cover), in milliseconds, ranked by descending self time.
  std::vector<std::pair<std::string, double>> ranked_self_ms() const {
    const std::vector<int64_t> child_ns = direct_child_ns();
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans_.size(); ++i)
      self[spans_[i].name] +=
          static_cast<double>(spans_[i].end_ns - spans_[i].start_ns - child_ns[i]) / 1e6;
    std::vector<std::pair<std::string, double>> out(self.begin(), self.end());
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    return out;
  }

  /// Total duration per span name, milliseconds.
  std::map<std::string, double> total_ms() const {
    std::map<std::string, double> out;
    for (const Span& s : spans_) out[s.name] += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    return out;
  }

  /// Phase-sum share over every span named `wave_name`: the summed duration
  /// of its direct children over its own duration (1.0 = the phases account
  /// for the whole wave). Returns the aggregate share and fills the
  /// per-wave shares.
  double phase_sum_share(const char* wave_name, std::vector<double>* per_wave) const {
    const std::vector<int64_t> child_ns = direct_child_ns();
    int64_t wave_total = 0, child_total = 0;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (std::string(spans_[i].name) != wave_name) continue;
      int64_t d = spans_[i].end_ns - spans_[i].start_ns;
      wave_total += d;
      child_total += child_ns[i];
      if (per_wave != nullptr && d > 0)
        per_wave->push_back(static_cast<double>(child_ns[i]) / static_cast<double>(d));
    }
    return wave_total > 0 ? static_cast<double>(child_total) / static_cast<double>(wave_total) : 0.0;
  }

  /// One JSON object per line.
  void write_jsonl(std::ostream& os) const {
    for (const Span& s : spans_)
      os << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
         << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
         << ",\"wave\":" << s.wave << "}\n";
  }

 private:
  using Clock = std::chrono::steady_clock;

  int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
  }
  /// Per span, the summed duration of its direct children.
  std::vector<int64_t> direct_child_ns() const {
    std::vector<int64_t> out(spans_.size(), 0);
    for (const Span& s : spans_)
      if (s.parent >= 0) out[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    return out;
  }
  int open(const char* name, int64_t wave) {
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.wave = wave;
    s.start_ns = now_ns();
    spans_.push_back(s);
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }
  void close(int id) {
    spans_[static_cast<size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }

  bool on_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

}  // namespace healbench
