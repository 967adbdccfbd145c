// Tracing for the benchmark's traced run, built only on public extension
// points: spans the harness records around each public call it makes, plus a
// SolverObserver whose per-task forks (ScopedTaskObserver, which every sweep
// API opens around its executor tasks) give one span per task and count
// DC solves, Newton iterations and retry-ladder attempts. Spans stay in
// memory and are written out as Chrome trace events when the run ends.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "lpsram/spice/hooks.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Span {
  std::string name;
  int parent = -1;  // index of the causing span, -1 for a root
  double start_s = 0.0;
  double end_s = 0.0;
  int thread = 0;  // small per-trace thread ordinal (0 = first seen)
  double duration() const noexcept { return end_s - start_s; }
};

struct SolverCounts {
  std::uint64_t dc_solves = 0;
  std::uint64_t newton_iters = 0;
  std::uint64_t ladder_attempts = 0;
  bool operator==(const SolverCounts&) const = default;
};

class Trace final : public lpsram::SolverObserver {
 public:
  Trace();
  ~Trace() override;
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  // Opens a span around a public call made from the harness thread; task
  // spans forked while it is open name it as their parent.
  int begin(std::string name);
  void end(int id);

  void on_solve_begin() override;
  void on_newton_iteration(lpsram::NewtonEvent& event) override;
  void on_ladder_attempt(int attempt, const std::string& strategy) override;
  std::unique_ptr<lpsram::SolverObserver> fork_for_task(
      std::uint64_t task_key) override;

  SolverCounts counts() const;
  std::vector<Span> spans() const;
  // Durations of the task spans caused by span `parent` [s].
  std::vector<double> task_durations(int parent) const;

  // Chrome trace-event JSON ("X" complete events, microseconds).
  bool write_chrome_trace(const std::string& path,
                          const std::string& process_name) const;

 private:
  class TaskFork;
  void add_counts(const SolverCounts& c);
  int add_span(Span span);
  int thread_ordinal();

  const Clock::time_point epoch_;
  std::atomic<int> current_{-1};
  std::atomic<std::uint64_t> dc_solves_{0};
  std::atomic<std::uint64_t> newton_iters_{0};
  std::atomic<std::uint64_t> ladder_attempts_{0};
  mutable std::mutex mutex_;  // guards spans_ and threads_
  std::vector<Span> spans_;
  std::unordered_map<std::thread::id, int> threads_;
};

// RAII span that is a no-op without a trace, so workloads run the same code
// traced and untraced.
class SpanScope {
 public:
  SpanScope(Trace* trace, std::string name)
      : trace_(trace), id_(trace ? trace->begin(std::move(name)) : -1) {}
  ~SpanScope() {
    if (trace_) trace_->end(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Trace* trace_;
  int id_;
};

}  // namespace perfbench
