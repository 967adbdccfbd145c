#include "trace.hpp"

#include <cstdio>

namespace perfbench {

// Task-private child: driven by one executor thread for one task's lifetime,
// so its counters need no synchronization until the destructor merges them.
class Trace::TaskFork final : public lpsram::SolverObserver {
 public:
  TaskFork(Trace& parent, int cause)
      : parent_(parent), cause_(cause), start_s_(seconds_since(parent.epoch_)) {}

  ~TaskFork() override {
    Span span;
    span.name = "task";
    span.parent = cause_;
    span.start_s = start_s_;
    span.end_s = seconds_since(parent_.epoch_);
    span.thread = parent_.thread_ordinal();
    parent_.add_span(std::move(span));
    parent_.add_counts(counts_);
  }

  TaskFork(const TaskFork&) = delete;
  TaskFork& operator=(const TaskFork&) = delete;

  void on_solve_begin() override { ++counts_.dc_solves; }
  void on_newton_iteration(lpsram::NewtonEvent&) override {
    ++counts_.newton_iters;
  }
  void on_ladder_attempt(int, const std::string&) override {
    ++counts_.ladder_attempts;
  }

 private:
  Trace& parent_;
  int cause_;
  double start_s_;
  SolverCounts counts_;
};

Trace::Trace() : epoch_(Clock::now()) {}
Trace::~Trace() = default;

int Trace::begin(std::string name) {
  Span span;
  span.name = std::move(name);
  span.parent = current_.load();
  span.start_s = seconds_since(epoch_);
  span.end_s = span.start_s;
  span.thread = thread_ordinal();
  const int id = add_span(std::move(span));
  current_.store(id);
  return id;
}

void Trace::end(int id) {
  const double now = seconds_since(epoch_);
  const std::lock_guard<std::mutex> lock(mutex_);
  Span& span = spans_.at(static_cast<std::size_t>(id));
  span.end_s = now;
  current_.store(span.parent);
}

void Trace::on_solve_begin() { dc_solves_.fetch_add(1); }
void Trace::on_newton_iteration(lpsram::NewtonEvent&) {
  newton_iters_.fetch_add(1);
}
void Trace::on_ladder_attempt(int, const std::string&) {
  ladder_attempts_.fetch_add(1);
}

std::unique_ptr<lpsram::SolverObserver> Trace::fork_for_task(std::uint64_t) {
  return std::make_unique<TaskFork>(*this, current_.load());
}

void Trace::add_counts(const SolverCounts& c) {
  dc_solves_.fetch_add(c.dc_solves);
  newton_iters_.fetch_add(c.newton_iters);
  ladder_attempts_.fetch_add(c.ladder_attempts);
}

int Trace::add_span(Span span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

int Trace::thread_ordinal() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return threads_.try_emplace(std::this_thread::get_id(),
                              static_cast<int>(threads_.size()))
      .first->second;
}

SolverCounts Trace::counts() const {
  return {dc_solves_.load(), newton_iters_.load(), ladder_attempts_.load()};
}

std::vector<Span> Trace::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<double> Trace::task_durations(int parent) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& span : spans_)
    if (span.parent == parent && span.name == "task")
      out.push_back(span.duration());
  return out;
}

bool Trace::write_chrome_trace(const std::string& path,
                               const std::string& process_name) const {
  const std::vector<Span> all = spans();
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (!out) return false;
  std::fprintf(out,
               "{\"traceEvents\":[\n{\"ph\":\"M\",\"pid\":1,\"name\":"
               "\"process_name\",\"args\":{\"name\":\"%s\"}}",
               process_name.c_str());
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(out,
                 ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"name\":\"%s\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}",
                 s.thread, s.name.c_str(), s.start_s * 1e6,
                 s.duration() * 1e6, i, s.parent);
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
