// lpsram_perfbench: the repository benchmark. One workload per process, run
// as a closed-loop batch job (one pass at a time) with the sweep executor at
// the machine's core count.
//
//   lpsram_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--workdir DIR]
//   lpsram_perfbench --selftest
//   lpsram_perfbench --record       (prints reference.inc at the recorded seed)
//
// Untraced (--trace 0): repeats setup + one checked pass while one more pass
// still ends within S seconds and reports the end-to-end metrics. Traced
// (--trace 1): one untraced pass, one traced pass at N threads and one at 1
// thread (outputs and deterministic counts must agree bit for bit), then the
// layer probes; reports the per-layer metrics and writes
// DIR/<workload>-seed<N>.trace.json.
//
// The last line of stdout is the result object; the line before it is the
// stamp (build type, SIMD backend and width, threads, nproc) that
// perfbench/report.py refuses to compare across.
#include <sched.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "build_type_warning.hpp"
#include "lpsram/util/simd.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return 1;
}

double process_cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
}

// Peak resident set of this program image. /proc's VmHWM, not getrusage's
// ru_maxrss, which Linux carries across exec and would report the launching
// interpreter's footprint when that is larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

struct Args {
  std::string workload;
  std::uint64_t seed = kRecordedSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".bench_build/perfbench-work";
  int threads = nproc();  // the executor runs at the machine's core count
  bool selftest = false;
  bool record = false;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") a.workload = value();
    else if (flag == "--seed") a.seed = std::stoull(value());
    else if (flag == "--seconds") a.seconds = std::stod(value());
    else if (flag == "--trace") a.trace = std::stoi(value()) != 0;
    else if (flag == "--workdir") a.workdir = value();
    else if (flag == "--selftest") a.selftest = true;
    else if (flag == "--record") a.record = true;
    else throw std::invalid_argument("unknown argument " + flag);
  }
  return a;
}

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(const Outcome& out) {
    attempted += out.attempted;
    failed += out.failed;
    for (const std::string& p : out.problems) std::fprintf(stderr, "check failed: %s\n", p.c_str());
  }
  // A harness-level check (repeatability, bit identity) counts as one op.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "check failed: %s\n", what.c_str());
    }
  }
};

// Units of every metric the benchmark prints; names missing here are a bug.
const std::map<std::string, std::string>& metric_units() {
  static const std::map<std::string, std::string> units = [] {
    std::map<std::string, std::string> u = {
        {"wall_s", "s"}, {"cpu_s", "s"}, {"setup_s", "s"}, {"peak_rss_mb", "MB"},
        {"ok_frac", "ratio"}, {"rel_ci", "ratio"},
        {"runtime.tasks", "count"}, {"runtime.task_busy_s", "s"},
        {"runtime.task_p50_ms", "ms"}, {"runtime.task_tail_ms", "ms"},
        {"runtime.task_tail_pct", "%"}, {"runtime.task_max_ms", "ms"},
        {"runtime.idle_s", "s"}, {"runtime.inflation", "ratio"},
        {"runtime.solves", "count"}, {"runtime.cache_hit_rate", "ratio"},
        {"runtime.warm_hit_rate", "ratio"}, {"runtime.solve_failures", "count"},
        {"runtime.journal.records", "count"}, {"runtime.journal.bytes", "B"},
        {"runtime.journal.write_s", "s"}, {"runtime.journal.replay_s", "s"},
        {"spice.dc_solves", "count"}, {"spice.newton_iters", "count"},
        {"spice.newton_per_solve", "ratio"},
        {"regulator.dc_solve_cold_us", "us"}, {"regulator.dc_solve_warm_us", "us"},
        {"regulator.ds_entry_ms", "ms"},
        {"cell.cross_drv_us", "us"}, {"cell.hold_drv_us", "us"},
        {"stats.samples", "count"}, {"stats.candidates", "count"},
        {"stats.exact_solves", "count"}, {"stats.gate_rate", "ratio"},
        {"stats.ess", "count"}, {"stats.pilot_s", "s"},
        {"stats.surrogate_train_s", "s"}, {"stats.sample_ns", "ns"},
        {"testflow.table_s", "s"}, {"testflow.flow_generate_s", "s"},
        {"march.run_flow_s", "s"}, {"march.ops", "count"},
        {"stats.run_yield_s", "s"}, {"trace.overhead_s", "s"},
        {"trace.count_drift", "count"}};
    for (const char* rung : {"warm_start", "cold_start", "dense_gmin",
                             "relaxed_polish", "perturbed_guess"})
      u[std::string("runtime.rung_attempts.") + rung] = "count";
    return u;
  }();
  return units;
}

void print_result(const Tally& tally, const Metrics& values) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              tally.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  bool first = true;
  for (const auto& [name, value] : values) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), std::isfinite(value) ? value : 0.0, metric_units().at(name).c_str());
    first = false;
  }
  std::printf("}}\n");
}

// "name a -> b" for every count of `a` that differs in `b`.
std::vector<std::string> count_diff(const Metrics& a, const Metrics& b) {
  std::vector<std::string> out;
  for (const auto& [k, v] : a) {
    const auto it = b.find(k);
    const double w = it == b.end() ? NAN : it->second;
    if (!(v == w)) out.push_back(k + " " + std::to_string(v) + " -> " + std::to_string(w));
  }
  return out;
}

std::string join(const std::vector<std::string>& parts) {
  std::string out;
  for (const std::string& p : parts) out += " " + p;
  return out;
}

// Counts that depend on which tasks share an executor worker at this commit:
// each worker's regulators keep solver state (such as the sparse-LU workspace
// and its pivot order) from one task into the next, so the warm/cold split of
// ladder attempts and the Newton iterations vary with the schedule (solve
// counts, cache traffic and every output bit do not). Reported from the
// 1-thread pass; how many disagree across passes is trace.count_drift.
bool schedule_dependent(const std::string& name) {
  return name.rfind("runtime.rung_attempts.", 0) == 0 ||
         name.rfind("runtime.warm_hit_rate", 0) == 0 || name.rfind("spice.", 0) == 0;
}

Metrics with_solver_counts(Metrics counts, const Trace& trace) {
  const SolverCounts s = trace.counts();
  counts["spice.dc_solves"] = static_cast<double>(s.dc_solves);
  counts["spice.newton_iters"] = static_cast<double>(s.newton_iters);
  counts["spice.newton_per_solve"] =
      s.dc_solves ? static_cast<double>(s.newton_iters) / static_cast<double>(s.dc_solves)
                  : 0.0;
  return counts;
}

// Minimum setups per run, so setup_s is a median even when one pass fills
// the measured time.
constexpr std::size_t kMinSetups = 5;

int run_untraced(const Args& args, Workload& w) {
  Tally tally;
  std::vector<double> setups, walls, cpus, rel_cis;
  std::vector<std::uint64_t> digests;
  const std::size_t variants = static_cast<std::size_t>(w.variants());
  const auto started = Clock::now();
  // Every variant runs at least once, then passes continue while one more
  // (of the median length so far) still ends within the measured time.
  while (walls.size() < variants ||
         seconds_since(started) + median(walls) <= args.seconds) {
    const std::size_t pass = walls.size();
    auto t0 = Clock::now();
    w.setup(args.threads, static_cast<int>(pass % variants));
    setups.push_back(seconds_since(t0));
    const double cpu0 = process_cpu_seconds();
    t0 = Clock::now();
    Outcome out = w.run(nullptr);
    walls.push_back(seconds_since(t0));
    cpus.push_back(process_cpu_seconds() - cpu0);
    w.teardown(out);
    tally.add(out);
    if (pass < variants) {
      digests.push_back(out.digest);
      rel_cis.push_back(out.rel_ci);
    } else {
      tally.check(out.digest == digests[pass % variants],
                  "a repeated pass produced different outputs");
    }
  }
  while (setups.size() < kMinSetups) {
    const auto t0 = Clock::now();
    w.setup(args.threads, static_cast<int>(setups.size() % variants));
    setups.push_back(seconds_since(t0));
    Outcome unused;
    w.teardown(unused);
  }
  std::fprintf(stderr, "%s: %zu passes, wall %.3f s median, setup %.4f s median; pass walls [s]:",
               args.workload.c_str(), walls.size(), median(walls), median(setups));
  for (const double wall : walls) std::fprintf(stderr, " %.3f", wall);
  std::fprintf(stderr, "\n");
  const Metrics m = {
      {"wall_s", median(walls)},
      {"cpu_s", median(cpus)},
      {"setup_s", median(setups)},
      {"peak_rss_mb", peak_rss_mb()},
      {"ok_frac", 1.0 - static_cast<double>(tally.failed) /
                            static_cast<double>(std::max<std::uint64_t>(tally.attempted, 1))},
      {"rel_ci", median(rel_cis)}};
  print_result(tally, m);
  return 0;
}

int run_traced(const Args& args, Workload& w) {
  Tally tally;
  Metrics m;
  // Per-layer metrics (the dotted names) read 0 where their layer does not run.
  for (const auto& [name, unit] : metric_units()) {
    (void)unit;
    if (name.find('.') != std::string::npos) m[name] = 0.0;
  }

  // 1. Untraced reference pass.
  w.setup(args.threads, 0);
  auto t0 = Clock::now();
  Outcome plain = w.run(nullptr);
  const double plain_wall = seconds_since(t0);
  w.teardown(plain);
  tally.add(plain);

  // 2. Traced pass at N threads, 3. at one thread.
  Trace trace_n, trace_1;
  Outcome traced, serial;
  double traced_wall = 0.0;
  {
    w.setup(args.threads, 0);
    for (const auto& [k, v] : w.setup_layers()) m[k] = v;
    const lpsram::ScopedSolverObserver observer(&trace_n);
    t0 = Clock::now();
    traced = w.run(&trace_n);
    traced_wall = seconds_since(t0);
  }
  w.teardown(traced);
  tally.add(traced);
  {
    w.setup(1, 0);
    const lpsram::ScopedSolverObserver observer(&trace_1);
    serial = w.run(&trace_1);
  }
  w.teardown(serial);
  tally.add(serial);

  tally.check(traced.digest == plain.digest, "tracing changed an output bit");
  tally.check(serial.digest == plain.digest, "1-thread outputs differ from N-thread");
  const Metrics counts_n = with_solver_counts(traced.counts, trace_n);
  const Metrics counts_1 = with_solver_counts(serial.counts, trace_1);
  // Deterministic counts must agree exactly across all three passes; the
  // schedule-dependent ones are only compared, as trace.count_drift.
  std::vector<std::string> drift;
  struct Pair {
    const Metrics& a;
    const Metrics& b;
    const char* what;
  };
  for (const Pair& p : {Pair{plain.counts, traced.counts, "tracing changed a count: "},
                        Pair{counts_n, counts_1, "1-thread count differs from N-thread: "}}) {
    for (const std::string& d : count_diff(p.a, p.b)) {
      if (schedule_dependent(d)) drift.push_back(d);
      else tally.check(false, p.what + d);
    }
  }
  if (!drift.empty())
    std::fprintf(stderr, "warning: schedule-dependent counts differ across passes:%s\n",
                 join(drift).c_str());
  m["trace.count_drift"] = static_cast<double>(drift.size());
  // Counts come from the 1-thread pass, where every one of them repeats.
  for (const auto& [k, v] : counts_1) m[k] = v;

  // Executor figures from the task spans: busy = sum of task spans; idle =
  // worker-seconds of every top-level call that ran tasks, minus busy.
  const auto busy_of = [](const Trace& t, int threads, double* idle) {
    double busy = 0.0, capacity = 0.0;
    const std::vector<Span> spans = t.spans();
    std::vector<double> all;
    for (std::size_t id = 0; id < spans.size(); ++id) {
      if (spans[id].name == "task") continue;
      const std::vector<double> tasks = t.task_durations(static_cast<int>(id));
      if (tasks.empty()) continue;
      for (const double d : tasks) busy += d;
      capacity += spans[id].duration();
      all.insert(all.end(), tasks.begin(), tasks.end());
    }
    if (idle) *idle = idle_seconds(threads, capacity, busy);
    return std::pair{busy, all};
  };
  double idle = 0.0;
  const auto [busy_n, tasks_n] = busy_of(trace_n, args.threads, &idle);
  const auto [busy_1, tasks_1] = busy_of(trace_1, 1, nullptr);
  tally.check(tasks_n.size() == tasks_1.size(), "task span count differs across threads");
  if (!tasks_n.empty()) {
    m["runtime.task_busy_s"] = busy_n;
    m["runtime.idle_s"] = idle;
    m["runtime.inflation"] = inflation(busy_n, busy_1);
    m["runtime.task_p50_ms"] = 1e3 * median(tasks_n);
    m["runtime.task_max_ms"] = 1e3 * *std::max_element(tasks_n.begin(), tasks_n.end());
    if (const auto tail = tail_percentile(tasks_n)) {
      m["runtime.task_tail_ms"] = 1e3 * tail->value;
      m["runtime.task_tail_pct"] = tail->percentile;
    }
  }
  // Top-level call spans: <name>_s is the summed duration of spans <name>.
  for (const Span& s : trace_n.spans())
    if (s.name != "task") m[s.name + "_s"] += s.duration();
  m["trace.overhead_s"] = traced_wall - plain_wall;

  // 4. Layer probes.
  w.setup(args.threads, 0);
  for (const auto& [k, v] : w.probe()) m[k] = v;
  Outcome unused;
  w.teardown(unused);

  const std::string path = args.workdir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".trace.json";
  if (!trace_n.write_chrome_trace(path, args.workload))
    std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
  for (const auto& [k, v] : m)
    if (!metric_units().count(k)) throw std::logic_error("metric without a unit: " + k);
  print_result(tally, m);
  return 0;
}

int record(const Args& args) {
  std::printf("// Reference outputs, recorded by `lpsram_perfbench --record` "
              "(seed %llu).\n// Regenerate only when a change is meant to move "
              "the model's numbers.\n\n",
              static_cast<unsigned long long>(kRecordedSeed));
  for (const char* name : {"table2", "flow_campaign", "yield_blockade", "yield_is"}) {
    Context context{kRecordedSeed, args.workdir};
    auto w = make_workload(name, context);
    w->setup(args.threads, 0);
    Outcome out = w->run(nullptr);
    w->teardown(out);
    w->record();
  }
  return 0;
}

}  // namespace

int selftest() {
  int failures = 0;
  const auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      ++failures;
      std::fprintf(stderr, "selftest failed: %s\n", what);
    }
  };
  const auto near = [](double a, double b) { return std::abs(a - b) <= 1e-12; };
  expect(median({3.0, 1.0, 2.0}) == 2.0, "median of odd count");
  expect(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "median of even count");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  const auto t100 = tail_percentile(hundred);  // p90 = 90 has exactly 10 above
  expect(t100 && t100->percentile == 90.0 && t100->value == 90.0, "tail of 100 samples");
  std::vector<double> many;
  for (int i = 1; i <= 1000; ++i) many.push_back(i);
  const auto t1000 = tail_percentile(many);  // p99 = 990 has 10 above
  expect(t1000 && t1000->percentile == 99.0 && t1000->value == 990.0, "tail of 1000 samples");
  many.pop_back();  // 999 samples: p99 leaves 9 above, so p90
  const auto t999 = tail_percentile(many);
  expect(t999 && t999->percentile == 90.0, "tail of 999 samples");
  expect(!tail_percentile(std::vector<double>(19, 1.0)), "no tail under 20 samples");
  const auto t20 = tail_percentile(std::vector<double>(20, 1.0));
  expect(t20 && t20->percentile == 50.0, "median is the tail at 20 samples");
  expect(near(idle_seconds(4, 2.0, 6.5), 1.5), "idle seconds");
  expect(near(inflation(20.6, 12.9), 20.6 / 12.9), "inflation");
  bool threw = false;
  try {
    (void)inflation(1.0, 0.0);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "inflation refuses a zero base");
  return failures;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args args = parse(argc, argv);
    if (selftest() != 0) return 2;
    if (args.selftest) {
      std::printf("selftest ok\n");
      return 0;
    }
    if (!lpsram::bench::kReleaseBuild) {
      lpsram::bench::warn_if_debug_build();
      std::fprintf(stderr, "refusing to measure a non-Release build\n");
      return 3;
    }
    std::filesystem::create_directories(args.workdir);
    if (args.record) return record(args);

    auto workload = make_workload(args.workload, Context{args.seed, args.workdir});
    std::printf("perfbench-stamp {\"build_type\": \"Release\", \"simd_backend\": \"%s\", "
                "\"simd_width\": %zu, \"threads\": %d, \"nproc\": %d, \"workload\": \"%s\", "
                "\"seed\": %llu, \"seconds\": %g, \"trace\": %d}\n",
                lpsram::simd_backend_name(), lpsram::simd_width(), args.threads, nproc(),
                args.workload.c_str(), static_cast<unsigned long long>(args.seed),
                args.seconds, args.trace ? 1 : 0);
    return args.trace ? run_traced(args, *workload) : run_untraced(args, *workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lpsram_perfbench: %s\n", e.what());
    return 1;
  }
}
