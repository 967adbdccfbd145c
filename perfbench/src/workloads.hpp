// The four benchmark workloads. Each drives the repository's public sweep
// APIs, checks every output against values recorded in reference.inc (and
// against the paper's invariants), and exposes the layer probes of the
// traced run.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

using Metrics = std::map<std::string, double>;

// One checked pass of a workload.
struct Outcome {
  std::uint64_t attempted = 0;  // tasks, blocks, device verdicts and checks
  std::uint64_t failed = 0;     // quarantined tasks and failed checks
  double rel_ci = 0.0;          // relative uncertainty of the headline result
  std::uint64_t digest = 0;     // hash over every output bit
  Metrics counts;               // deterministic per-layer counts
  std::vector<std::string> problems;

  // Counts one operation; a false `ok` counts it failed and keeps `what`.
  void check(bool ok, const std::string& what);
};

struct Context {
  std::uint64_t seed = 1;
  std::string workdir;  // working space for journals and trace files
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Input variants a run cycles through, one per pass: the yield workloads
  // draw each pass from its own seed derived from the workload seed, so a
  // run's rel_ci is the median over several curves, not one draw.
  virtual int variants() const { return 1; }
  // Everything before the first top-level call: surrogate training, the IS
  // pilot, characterizer construction, campaign open.
  virtual void setup(int threads, int variant) = 0;
  // First top-level call to checked result. `trace` is null when untraced.
  virtual Outcome run(Trace* trace) = 0;
  // Untimed, after run(): reads what run() left on disk into `out`, then
  // removes it.
  virtual void teardown(Outcome& out) { (void)out; }
  // Layer timings of the most recent setup() (traced run only).
  virtual Metrics setup_layers() const { return {}; }
  // Direct calls into lower layers on inputs taken from the workload
  // (traced run only; after setup()).
  virtual Metrics probe() = 0;
  // Prints this workload's reference.inc section from the last run().
  virtual void record() const = 0;
};

// Names: table2, yield_blockade, yield_is, flow_campaign. Throws on others.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Context& context);

// Seed the recorded reference values were taken at.
inline constexpr std::uint64_t kRecordedSeed = 1;

}  // namespace perfbench
