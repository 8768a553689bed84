// Measurement harness shared by the perfbench workloads.
//
// Everything here sits outside the simulator: it times public calls on
// the host clock, drives the virtual clock through os::Cluster::run_for,
// and collects per-op samples under the metric names that
// perfbench/README.md defines.  Nothing in it changes simulated
// behaviour, so a traced and an untraced run of one schedule produce the
// same virtual-clock numbers.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/agent.h"
#include "core/manager.h"
#include "core/trace.h"
#include "obs/json.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "os/cluster.h"

namespace perfbench {

using namespace zapc;

/// Host wall clock in milliseconds (steady, arbitrary epoch).
double host_ms();

/// Machine-speed calibration.  A shared host can drift in speed by
/// nearly 2x within a minute, and every host time drifts with it.  A
/// fixed kernel (a hash pass over 2 MiB plus 8k std::map inserts, no
/// simulator code) is timed before and after each measured stretch;
/// end-to-end host times are reported scaled to the reference speed at
/// which that kernel takes kReferenceKernelMs.
constexpr double kReferenceKernelMs = 1.8;

/// Median of five timed runs of the calibration kernel, in ms.
double kernel_ms();

/// Factor that scales a host time measured between two kernel timings
/// to the reference speed.
inline double speed_factor(double kernel_before, double kernel_after) {
  return 2.0 * kReferenceKernelMs / (kernel_before + kernel_after);
}

/// Per-op samples of named metrics, each with its unit.
class Samples {
 public:
  void add(const std::string& name, const std::string& unit, double v);
  /// Appends every series of `other` under the same names.
  void merge(const Samples& other);
  const std::vector<double>* find(const std::string& name) const;
  /// {"<name>": {"unit": "...", "values": [...]}, ...}
  obs::Json to_json() const;

 private:
  std::map<std::string, std::pair<std::string, std::vector<double>>> m_;
};

/// Host-clock spans the benchmark records around each call it makes into
/// a layer: name, layer, start, end, parent, and the op id shared by one
/// op's spans.  Kept in memory; written out once the run ends.  A
/// recorder built with `on == false` records nothing.
class HostSpans {
 public:
  explicit HostSpans(bool on) : on_(on) {}

  u64 begin(const std::string& name, const std::string& layer,
            u64 parent = 0, u64 op = 0);
  void end(u64 id);
  std::size_t size() const { return spans_.size(); }

  /// One JSON object per line; returns false if the file cannot be
  /// written.
  bool write_jsonl(const std::string& path) const;

  /// RAII span for a scope.
  class Scope {
   public:
    Scope(HostSpans& s, const std::string& name, const std::string& layer,
          u64 parent = 0, u64 op = 0)
        : s_(s), id_(s.begin(name, layer, parent, op)) {}
    ~Scope() { s_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    u64 id() const { return id_; }

   private:
    HostSpans& s_;
    u64 id_;
  };

 private:
  struct Rec {
    std::string name;
    std::string layer;
    u64 parent = 0;
    u64 op = 0;
    double start_ms = 0;
    double end_ms = -1;
  };
  bool on_;
  double origin_ms_ = host_ms();
  std::vector<Rec> spans_;
};

/// One simulated testbed: `n` application nodes plus a manager node, an
/// agent per application node, a manager, and the in-memory op ledger.
/// With `traced` the agents and manager share one causal trace.
/// `link_latency` is the fabric's one-way propagation delay.
struct Testbed {
  Testbed(int n, bool traced, sim::Time link_latency);
  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  /// Null when untraced.  Declared first: it outlives the agents and the
  /// manager that write into it.
  std::unique_ptr<core::Trace> trace;
  os::Cluster cl;
  os::Node* mgr_node = nullptr;
  std::vector<os::Node*> nodes;
  std::vector<std::unique_ptr<core::Agent>> agent_store;
  std::vector<core::Agent*> agents;
  obs::Ledger ledger;
  std::unique_ptr<core::Manager> manager;
};

/// Virtual time, events and host time spent inside run_for outside
/// coordinated ops (the application simulation between ops).
struct GapStats {
  double host_ms = 0;
  double virt_s = 0;
  u64 events = 0;
  void run(os::Cluster& cl, sim::Time dt);
};

/// One coordinated op as the benchmark saw it.
struct OpTiming {
  double host_ms = 0;     // call → report, host clock
  sim::Time t_invoke = 0; // virtual invocation instant
  u64 events = 0;         // engine events dispatched during the op
  bool done = false;      // report arrived within the virtual budget
};

/// Starts a checkpoint and drives the clock until its report returns.
core::Manager::CheckpointReport checkpoint_op(
    Testbed& tb, const std::vector<core::Manager::Target>& targets,
    const core::Manager::CkptOptions& opts, OpTiming& t);

/// Starts a restart (metas cached from the last checkpoint) and drives
/// the clock until its report returns.
core::Manager::RestartReport restart_op(
    Testbed& tb, const std::vector<core::Manager::Target>& targets,
    const core::Manager::RestartOptions& opts, OpTiming& t);

/// Host rates of the byte path, replayed on one committed image through
/// the same public calls the agents use.  Side-effect free: the SAN
/// write goes to a temporary key that is removed again.
struct ByteReplay {
  bool ok = false;           // read, CRC, decode and re-encode all clean
  std::string error;
  double mb = 0;             // image size (MiB)
  double crc_mb_s = 0;
  double decode_mb_s = 0;
  double encode_mb_s = 0;
  double san_write_mb_s = 0;
  double san_read_at_mb_s = 0;  // 256 KiB read_at chunks
};
ByteReplay replay_byte_path(os::VirtualSAN& san, const std::string& key,
                            HostSpans& spans, u64 op_span, u64 op);

/// Host cost of re-running critical-path attribution on one op's spans.
double replay_attribute_ms(const core::Trace& trace, obs::OpId op,
                           HostSpans& spans, u64 op_span, u64 op_id,
                           bool* ok);

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

/// Counter value from the process-global registry (0 if unregistered).
u64 counter(const obs::MetricsSnapshot& s, const std::string& name);

}  // namespace perfbench
