// The benchmark's own span recorder.
//
// Spans are opened around calls into the program's public entry points, on
// the single thread that drives a pass, and kept in memory until the pass
// ends. Each span records its name, begin and end (steady clock, ns since
// the recorder was built) and the span that was open when it began, so a
// layer's self time is its duration minus its children's.
#pragma once

#include <chrono>
#include <cstdint>
#include <iomanip>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

class Spans {
 public:
  struct Span {
    std::string name;
    std::uint64_t begin_ns = 0;
    std::uint64_t end_ns = 0;
    int parent = -1;
  };

  /// RAII scope: opens a span now, closes it on destruction.
  class Scope {
   public:
    Scope(Spans& spans, std::string name)
        : spans_(spans), index_(spans.open(std::move(name))) {}
    ~Scope() { spans_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    int index_;
  };

  /// Run `fn` inside a span named `name` and return its result.
  template <typename Fn>
  auto timed(std::string name, Fn&& fn) {
    Scope scope(*this, std::move(name));
    return fn();
  }

  /// Durations in ms of every closed span called `name`, in open order.
  std::vector<double> each_ms(std::string_view name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(ms(s));
    }
    return out;
  }

  double sum_ms(std::string_view name) const {
    double total = 0.0;
    for (double v : each_ms(name)) total += v;
    return total;
  }

  /// Chrome trace-event JSON: one complete ("X") event per span on one
  /// lane, with the parent's index and name in args.
  std::string chrome_json() const {
    std::ostringstream os;
    os << std::fixed << std::setprecision(3) << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i == 0 ? "" : ",") << "{\"name\":\"" << s.name
         << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
         << static_cast<double>(s.begin_ns) / 1e3
         << ",\"dur\":" << static_cast<double>(s.end_ns - s.begin_ns) / 1e3
         << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
         << ",\"parent_name\":\""
         << (s.parent >= 0 ? spans_[static_cast<std::size_t>(s.parent)].name
                           : std::string())
         << "\"}}";
    }
    os << "],\"displayTimeUnit\":\"ms\"}\n";
    return os.str();
  }

 private:
  static double ms(const Span& s) {
    return static_cast<double>(s.end_ns - s.begin_ns) / 1e6;
  }

  std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - origin_)
            .count());
  }

  int open(std::string name) {
    Span s;
    s.name = std::move(name);
    s.parent = open_.empty() ? -1 : open_.back();
    s.begin_ns = now_ns();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
  }

  void close(int index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    open_.pop_back();
  }

  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench
