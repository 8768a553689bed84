// The three closed-loop checkpoint-restart workloads (perfbench/README.md).
//
// A workload runs in episodes.  Each episode builds a fresh testbed,
// launches its job (setup), runs the episode's generated op schedule one
// op at a time (the measured phase), then lets the job finish so its
// output can be checked.  The schedule is a pure function of the seed
// and the episode index: a traced and an untraced pass over the same
// episodes see identical inputs.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

/// What one episode measured and checked.
struct EpisodeOut {
  Samples e2e;    // per-op end-to-end samples, host times at reference speed
  Samples layer;  // per-layer samples (traced episodes only)
  Samples raw;    // the host-time samples as measured, before scaling
  /// Every virtual-clock number of the episode, in op order: a traced
  /// episode must reproduce its untraced twin's list exactly.
  std::vector<double> virt;
  std::vector<std::string> errors;
  u64 attempted = 0;
  u64 failed = 0;
  // Both at reference speed (harness.h, speed_factor).
  double setup_ms = 0;     // testbed build + job launch + warm-up
  double measured_ms = 0;  // ops + application simulation
  /// Virtual instant the job finished, measured from its launch (0 if
  /// it did not finish), and the output object it left on the SAN.
  sim::Time completion_us = 0;
  Bytes result;
};

/// The same job run once with no checkpoint-restart schedule: its
/// completion time is the base of job_overhead_pct and its output is the
/// reference every episode's output must equal.
struct Reference {
  bool ok = false;
  sim::Time completion_us = 0;
  Bytes result;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual EpisodeOut episode(int index, bool traced, HostSpans& spans) = 0;
  virtual Reference reference() = 0;
  /// Whether an episode's output matches the reference output.
  virtual bool same_result(const Bytes& out, const Bytes& ref) const {
    return out == ref;
  }
};

/// `tiny` shrinks every size for the benchmark's self-test.  Returns
/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name, u64 seed,
                                        bool tiny);

}  // namespace perfbench
