#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "apps/bt.h"
#include "apps/cpi.h"
#include "apps/launcher.h"
#include "core/cost_model.h"
#include "fault/fault.h"
#include "guests.h"
#include "super/supervisor.h"
#include "util/rng.h"
#include "util/serialize.h"

ZAPC_REGISTER_PROGRAM(perfbench_echo_server, perfbench::EchoServer)
ZAPC_REGISTER_PROGRAM(perfbench_echo_client, perfbench::EchoClient)

namespace perfbench {
namespace {

constexpr double kMiB = 1024.0 * 1024.0;

double ms(sim::Time us) { return static_cast<double>(us) / 1000.0; }
double mib(u64 bytes) { return static_cast<double>(bytes) / kMiB; }
double ratio(u64 a, u64 b) {
  return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0;
}

/// Independent random stream for one episode of one seed.
Rng episode_rng(u64 seed, int index) {
  Rng mix(seed * 0x9E3779B97F4A7C15ull + static_cast<u64>(index) + 1);
  return Rng(mix.next_u64());
}

/// `base` scaled by a uniform factor in [1 - spread, 1 + spread].
sim::Time jittered(Rng& rng, sim::Time base, double spread) {
  double f = 1.0 + spread * (2.0 * rng.uniform() - 1.0);
  return static_cast<sim::Time>(static_cast<double>(base) * f);
}

/// One-way fabric latency of every testbed of a run: 50 us ± 10%, so
/// message delays (and every virtual time they feed) differ by seed.
sim::Time link_latency(u64 seed) {
  Rng rng(seed ^ 0x1a7e9c3b5d2f4e61ull);
  return jittered(rng, 50 * sim::kMicrosecond, 0.1);
}

const obs::LedgerEntry* ledger_entry(const obs::Ledger& l, obs::OpId op) {
  for (const obs::LedgerEntry& e : l.entries()) {
    if (e.op == op) return &e;
  }
  return nullptr;
}

double phase_ms(const obs::LedgerEntry& e, const char* phase) {
  auto it = e.phase_us.find(phase);
  return it == e.phase_us.end() ? 0 : ms(it->second);
}

u64 delta(const obs::MetricsSnapshot& a, const obs::MetricsSnapshot& b,
          const char* name) {
  return counter(b, name) - counter(a, name);
}

u64 hist_sum_delta(const obs::MetricsSnapshot& a,
                   const obs::MetricsSnapshot& b, const char* name) {
  auto sum = [&](const obs::MetricsSnapshot& s) -> u64 {
    auto it = s.histograms.find(name);
    return it == s.histograms.end() ? 0 : it->second.sum;
  };
  return sum(b) - sum(a);
}

std::size_t span_count(const Testbed& tb) {
  return tb.trace ? tb.trace->recorder().spans().size() : 0;
}

// ---- Per-layer samples shared by every workload ----------------------------

/// Critical-path rows of one op's ledger entry.
void critpath_layer(const obs::LedgerEntry& e, Samples& L) {
  if (!e.has_attrib) return;
  const obs::OpAttribution& a = e.attrib;
  L.add("core.critpath.top_phase_share", "ratio",
        ratio(a.critical_phase_us, a.downtime_us));
  sim::Time slack = 0;
  for (const obs::PodSlack& s : a.slack) slack = std::max(slack, s.slack_us);
  L.add("core.critpath.slack_ms", "ms", ms(slack));
}

/// Rows of one successful op's ledger entry: per-phase times (slowest
/// pod), SAN QoS of the drains, critical path, and the host cost of
/// re-running the attribution.
void ledger_layer(const Testbed& tb, const obs::LedgerEntry& e,
                  HostSpans& spans, u64 op_span, u64 op_seq, Samples& L,
                  std::vector<std::string>& errors) {
  if (e.kind == "ckpt") {
    L.add("core.ckpt.suspend_ms", "ms", phase_ms(e, "suspend"));
    L.add("core.ckpt.cowmark_ms", "ms", phase_ms(e, "cowmark"));
    L.add("core.ckpt.netckpt_ms", "ms", phase_ms(e, "netckpt"));
    L.add("core.ckpt.standalone_ms", "ms", phase_ms(e, "standalone"));
    L.add("core.ckpt.drain_ms", "ms", phase_ms(e, "drain"));
    L.add("ckpt.net_state_kb", "KiB",
          static_cast<double>(e.network_bytes) / 1024.0);
    L.add("os.san.drain_throttled_ms", "ms", ms(e.drain_throttled_us));
    L.add("os.san.drain_contended_ms", "ms", ms(e.drain_contended_us));
    L.add("os.san.drain_granted_mb_s", "MiB/s", mib(e.drain_granted_bps));
    // Invocation → continue barrier, from the Manager's own span.
    for (const obs::SpanRecord& s : tb.trace->recorder().spans()) {
      if (s.op == e.op && s.name == "mgr.ckpt.meta_wait" && !s.open) {
        L.add("core.ckpt.sync_ms", "ms", ms(s.end - s.start));
        break;
      }
    }
  } else {
    L.add("core.restart.connectivity_ms", "ms", phase_ms(e, "connectivity"));
    L.add("core.restart.netstate_ms", "ms", phase_ms(e, "netstate"));
    L.add("core.restart.standalone_ms", "ms", phase_ms(e, "standalone"));
    L.add("core.restart.lazy_ms", "ms", phase_ms(e, "lazy"));
    L.add("core.restart.lazy_faults", "count",
          static_cast<double>(e.lazy_faults));
  }
  critpath_layer(e, L);
  bool attrib_ok = false;
  L.add("obs.attribute_host_ms", "ms",
        replay_attribute_ms(*tb.trace, e.op, spans, op_span, op_seq,
                            &attrib_ok));
  if (!attrib_ok) {
    errors.push_back(e.kind + " op " + std::to_string(e.op) +
                     " does not attribute");
  }
}

/// Replayed byte-path time for the bytes one checkpoint writes (encode,
/// CRC, SAN write) and one restart reads (SAN read_at, CRC, decode).
struct ByteCost {
  bool ok = false;
  double ckpt_ms = 0;
  double restart_ms = 0;
};

/// Replays the byte path on every pod image of a committed set and
/// records the aggregate host rates, each with the cost model's rate
/// next to it (diagnostic only).
ByteCost byte_path_layer(Testbed& tb, const std::vector<std::string>& keys,
                         HostSpans& spans, u64 op_span, u64 op, Samples& L,
                         std::vector<std::string>& errors) {
  ByteCost out;
  double mb = 0, crc_ms = 0, dec_ms = 0, enc_ms = 0, wr_ms = 0, rd_ms = 0;
  for (const std::string& key : keys) {
    ByteReplay r = replay_byte_path(tb.cl.san(), key, spans, op_span, op);
    if (!r.ok) {
      errors.push_back(r.error);
      return out;
    }
    mb += r.mb;
    crc_ms += r.mb * 1000.0 / r.crc_mb_s;
    dec_ms += r.mb * 1000.0 / r.decode_mb_s;
    enc_ms += r.mb * 1000.0 / r.encode_mb_s;
    wr_ms += r.mb * 1000.0 / r.san_write_mb_s;
    rd_ms += r.mb * 1000.0 / r.san_read_at_mb_s;
  }
  auto rate = [&](double t) { return t > 0 ? mb * 1000.0 / t : 0; };
  L.add("util.crc32_mb_s", "MiB/s", rate(crc_ms));
  L.add("ckpt.decode_mb_s", "MiB/s", rate(dec_ms));
  L.add("ckpt.encode_mb_s", "MiB/s", rate(enc_ms));
  L.add("os.san.write_mb_s", "MiB/s", rate(wr_ms));
  L.add("os.san.read_at_mb_s", "MiB/s", rate(rd_ms));
  const core::CostModel model{};
  auto model_x = [&](u64 bytes_per_sec, double host_t) {
    double host = rate(host_t);
    return host > 0 ? (static_cast<double>(bytes_per_sec) / kMiB) / host : 0;
  };
  L.add("ckpt.encode_model_over_host_x", "x",
        model_x(model.ckpt_bytes_per_sec, enc_ms));
  L.add("ckpt.decode_model_over_host_x", "x",
        model_x(model.restart_decode_bytes_per_sec, dec_ms));
  L.add("os.san.write_model_over_host_x", "x",
        model_x(model.san_drain_bytes_per_sec, wr_ms));
  L.add("os.san.stored_mb", "MiB", mib(tb.cl.san().total_bytes()));
  L.add("os.san.objects", "count",
        static_cast<double>(tb.cl.san().object_count()));
  out.ok = true;
  out.ckpt_ms = enc_ms + crc_ms + wr_ms;
  out.restart_ms = rd_ms + crc_ms + dec_ms;
  return out;
}

/// Counter and histogram deltas of one cycle or episode, per layer.
void counter_layer(const obs::MetricsSnapshot& a, const obs::MetricsSnapshot& b,
                   Samples& L) {
  auto count = [&](const char* name, u64 v) {
    L.add(name, "count", static_cast<double>(v));
  };
  count("net.tcp.retransmits", delta(a, b, "net.tcp.retransmits"));
  count("net.tcp.out_of_order", delta(a, b, "net.tcp.out_of_order"));
  count("net.filter.dropped", delta(a, b, "net.filter.dropped"));
  count("net.altq.installs", delta(a, b, "net.altq.installs"));
  count("net.altq.drains", delta(a, b, "net.altq.drains"));
  count("core.retries",
        delta(a, b, "mgr.ckpt.retries") + delta(a, b, "mgr.restart.retries"));
  count("core.ops_aborted", delta(a, b, "mgr.checkpoint_failures") +
                                delta(a, b, "mgr.restart_failures"));
  count("super.commits", delta(a, b, "super.catalog.appends"));
  count("super.recovery_attempts", delta(a, b, "super.recovery.started"));
  count("fault.injected", delta(a, b, "fault.injected"));
  // Image bytes the encoder produced, against what the codec elided
  // and what the running pods dirtied under COW protection.
  const u64 written = hist_sum_delta(a, b, "ckpt.image_bytes");
  const u64 saved = delta(a, b, "ckpt.codec.zero_saved_bytes") +
                    delta(a, b, "ckpt.codec.dedup_saved_bytes");
  L.add("ckpt.codec.saved_frac", "ratio", ratio(saved, saved + written));
  L.add("ckpt.cow_dirtied_frac", "ratio",
        ratio(hist_sum_delta(a, b, "agent.ckpt.cow_dirtied_bytes"), written));
}

void sim_layer(const GapStats& g, Samples& L) {
  L.add("sim.events_per_vs", "1/s",
        g.virt_s > 0 ? static_cast<double>(g.events) / g.virt_s : 0);
  L.add("sim.host_ms_per_vs", "ms/s", g.virt_s > 0 ? g.host_ms / g.virt_s : 0);
  L.add("sim.queue_depth_max", "count",
        static_cast<double>(obs::metrics().gauge("sim.queue_depth").max_seen));
}

/// Drives the clock in 1 ms steps until `done()` or the budget runs out;
/// returns the instant `done()` first held (0 if it never did).
sim::Time run_until(os::Cluster& cl, sim::Time budget,
                    const std::function<bool()>& done) {
  const sim::Time t0 = cl.now();
  while (cl.now() - t0 < budget) {
    if (done()) return cl.now();
    cl.run_for(sim::kMillisecond);
  }
  return done() ? cl.now() : 0;
}

Bytes read_result(Testbed& tb, const std::string& key) {
  Result<Bytes> r = tb.cl.san().read(key);
  return r.is_ok() ? r.value() : Bytes{};
}

/// SAN object key of a "san://<key>" URI.
std::string san_key(const std::string& uri) { return uri.substr(6); }

// ---- bt1-cr / cpi16-cr -----------------------------------------------------

/// Closed-loop checkpoint-restart cycles on an MPI job: per cycle the
/// application runs a gap, a COW checkpoint commits, the application
/// runs on, its pods are destroyed (the failure), and a pipelined lazy
/// restart brings them back from the committed set.
class CrWorkload final : public Workload {
 public:
  struct Params {
    int nodes = 1;
    std::function<apps::JobHandle(Testbed&)> launch;
    std::string result_key;
    sim::Time warmup = 0;    // application time before the first cycle
    sim::Time gap = 0;       // application time before each checkpoint
    sim::Time post_gap = 0;  // application time between commit and kill
    int cycles = 1;          // cycles per episode
    /// 0: outputs must match bit for bit.  Otherwise the output's
    /// leading f64 must match within this relative tolerance (a
    /// multi-rank reduction sums in arrival order).
    double tolerance = 0;
  };

  CrWorkload(Params p, u64 seed)
      : p_(std::move(p)), seed_(seed), latency_(link_latency(seed)) {}

  EpisodeOut episode(int index, bool traced, HostSpans& spans) override {
    EpisodeOut out;
    Rng rng = episode_rng(seed_, index);
    std::vector<sim::Time> pre, post;
    for (int k = 0; k < p_.cycles; ++k) {
      pre.push_back(jittered(rng, p_.gap, 0.1));
      post.push_back(jittered(rng, p_.post_gap, 0.1));
    }

    const double k_setup = kernel_ms();
    const double h_setup = host_ms();
    Testbed tb(p_.nodes, traced, latency_);
    const sim::Time t_launch = tb.cl.now();
    apps::JobHandle job = p_.launch(tb);
    tb.cl.run_for(p_.warmup);
    const double setup_raw = host_ms() - h_setup;
    out.setup_ms = setup_raw * speed_factor(k_setup, kernel_ms());
    out.raw.add("setup_s", "s", setup_raw / 1000.0);

    const std::vector<core::Manager::Target> targets = job.san_targets();
    std::vector<std::string> keys;
    for (const auto& t : targets) keys.push_back(san_key(t.uri));

    core::Manager::CkptOptions copts;
    copts.cow = true;
    copts.deadlines.drain_us = 120 * sim::kSecond;
    core::Manager::RestartOptions ropts;
    ropts.pipelined = true;
    ropts.lazy = true;
    ropts.deadlines.lazy_us = 120 * sim::kSecond;

    GapStats gaps;
    Samples& E = out.e2e;
    Samples& L = out.layer;
    double measured_raw = 0;
    for (int k = 0; k < p_.cycles; ++k) {
      const obs::MetricsSnapshot m0 = obs::metrics().snapshot();
      const double k_cycle = kernel_ms();
      const double h_cycle = host_ms();
      const u64 op_seq = static_cast<u64>(index) * 1000 + 2 * k + 1;
      {
        HostSpans::Scope s(spans, "Cluster::run_for", "sim", 0, op_seq);
        gaps.run(tb.cl, pre[k]);
      }
      if (job.finished()) {
        out.errors.push_back("job finished before cycle " +
                             std::to_string(k));
        break;
      }

      // Checkpoint: COW, committed to the SAN.
      const std::size_t spans0 = span_count(tb);
      OpTiming ct;
      core::Manager::CheckpointReport cr;
      u64 ck_span = 0;
      {
        HostSpans::Scope s(spans, "Manager::checkpoint", "core", 0, op_seq);
        ck_span = s.id();
        cr = checkpoint_op(tb, targets, copts, ct);
      }
      ++out.attempted;
      if (!ct.done || !cr.ok) {
        ++out.failed;
        out.errors.push_back("checkpoint failed: " +
                             (ct.done ? cr.error : "no report"));
        break;
      }
      const std::size_t ck_spans = span_count(tb) - spans0;
      E.add("ckpt_downtime_ms", "ms", ms(cr.downtime_us));
      E.add("ckpt_latency_ms", "ms", ms(cr.total_us));
      E.add("image_mb", "MB", mib(cr.max_image_bytes));
      out.virt.insert(out.virt.end(),
                      {static_cast<double>(ct.t_invoke),
                       static_cast<double>(cr.downtime_us),
                       static_cast<double>(cr.total_us),
                       static_cast<double>(cr.max_image_bytes),
                       static_cast<double>(cr.max_dirtied_bytes)});
      // The application runs on past the commit; that work is lost.
      {
        HostSpans::Scope s(spans, "Cluster::run_for", "sim", 0, op_seq + 1);
        gaps.run(tb.cl, post[k]);
      }

      // Failure: every pod of the job dies at once.
      const sim::Time t_kill = tb.cl.now();
      {
        HostSpans::Scope s(spans, "Agent::destroy_pod", "core", 0,
                           op_seq + 1);
        for (const auto& pn : job.pod_names) {
          bool destroyed = false;
          for (core::Agent* a : tb.agents) {
            destroyed = destroyed || a->destroy_pod(pn).is_ok();
          }
          if (!destroyed) out.errors.push_back("pod " + pn + " not found");
        }
      }

      const std::size_t spans1 = span_count(tb);
      OpTiming rt;
      core::Manager::RestartReport rr;
      {
        HostSpans::Scope s(spans, "Manager::restart", "core", 0, op_seq + 1);
        rr = restart_op(tb, targets, ropts, rt);
      }
      ++out.attempted;
      if (!rt.done || !rr.ok) {
        ++out.failed;
        out.errors.push_back("restart failed: " +
                             (rt.done ? rr.error : "no report"));
        break;
      }
      const std::size_t rs_spans = span_count(tb) - spans1;
      E.add("restart_downtime_ms", "ms", ms(rr.downtime_us));
      E.add("restart_latency_ms", "ms", ms(rr.total_us));
      // The failure is known the instant it happens: repair time is
      // kill → every pod running again.  The restored set holds the
      // application as it was when the checkpoint froze it.
      E.add("mttr_ms", "ms", ms(rt.t_invoke - t_kill + rr.downtime_us));
      E.add("lost_work_ms", "ms", ms(t_kill - ct.t_invoke));
      out.virt.insert(out.virt.end(),
                      {static_cast<double>(rt.t_invoke),
                       static_cast<double>(rr.downtime_us),
                       static_cast<double>(rr.total_us),
                       static_cast<double>(rr.lazy_faults)});
      const double cycle_raw = host_ms() - h_cycle;
      const obs::MetricsSnapshot m1 = obs::metrics().snapshot();
      const double f = speed_factor(k_cycle, kernel_ms());
      E.add("ckpt_host_ms", "ms", ct.host_ms * f);
      E.add("restart_host_ms", "ms", rt.host_ms * f);
      out.measured_ms += cycle_raw * f;
      out.raw.add("ckpt_host_ms", "ms", ct.host_ms);
      out.raw.add("restart_host_ms", "ms", rt.host_ms);
      measured_raw += cycle_raw;

      if (!traced) continue;
      // Traced episodes: ledger rows, counters around the cycle, and the
      // byte path replayed on the committed set.
      for (obs::OpId op : {cr.op_id, rr.op_id}) {
        if (const obs::LedgerEntry* e = ledger_entry(tb.ledger, op)) {
          ledger_layer(tb, *e, spans, ck_span, op_seq, L, out.errors);
        }
      }
      // Bytes each agent left cold at resume (its RestartDone), over the
      // committed set's bytes.
      u64 deferred = 0, set_bytes = 0;
      for (const core::RestartDone& d : rr.agents) deferred += d.lazy_bytes;
      for (const std::string& key : keys) {
        set_bytes += tb.cl.san().size_of(key).value_or(0);
      }
      L.add("core.restart.deferred_frac", "ratio", ratio(deferred, set_bytes));
      counter_layer(m0, m1, L);
      L.add("sim.events_per_op", "count", static_cast<double>(ct.events));
      L.add("sim.events_per_op", "count", static_cast<double>(rt.events));
      L.add("obs.spans_per_op", "count", static_cast<double>(ck_spans));
      L.add("obs.spans_per_op", "count", static_cast<double>(rs_spans));
      // Layers this workload does not drive: no detector (the failure
      // is known at once) and no application byte stream of its own.
      L.add("super.detect_ms", "ms", 0);
      L.add("net.app_mb_per_host_s", "MiB/s", 0);
      const ByteCost bc =
          byte_path_layer(tb, keys, spans, ck_span, op_seq, L, out.errors);
      if (!bc.ok) {
        ++out.failed;
        break;
      }
      L.add("core.op_residual_host_ms", "ms", ct.host_ms - bc.ckpt_ms);
      L.add("core.op_residual_host_ms", "ms", rt.host_ms - bc.restart_ms);
    }
    out.raw.add("wall_s", "s", measured_raw / 1000.0);
    if (traced) {
      sim_layer(gaps, L);
      L.add("obs.ledger_rows", "count",
            static_cast<double>(tb.ledger.entries().size()));
    }

    // Let the job finish: its exit code and its output object are the
    // correctness check of the whole episode.
    const sim::Time t_done = run_until(tb.cl, 600 * sim::kSecond,
                                       [&] { return job.finished(); });
    if (t_done == 0) {
      out.errors.push_back("job did not finish");
    } else if (job.exit_code() != 0) {
      out.errors.push_back("job exited " + std::to_string(job.exit_code()));
    } else {
      out.completion_us = t_done - t_launch;
      out.result = read_result(tb, p_.result_key);
    }
    return out;
  }

  bool same_result(const Bytes& out, const Bytes& ref) const override {
    if (p_.tolerance == 0) return out == ref;
    Decoder a(out), b(ref);
    Result<double> x = a.f64_(), y = b.f64_();
    return x.is_ok() && y.is_ok() &&
           std::abs(x.value() - y.value()) <= p_.tolerance * std::abs(y.value());
  }

  Reference reference() override {
    Reference ref;
    Testbed tb(p_.nodes, false, latency_);
    const sim::Time t_launch = tb.cl.now();
    apps::JobHandle job = p_.launch(tb);
    const sim::Time t_done = run_until(tb.cl, 600 * sim::kSecond,
                                       [&] { return job.finished(); });
    if (t_done == 0 || job.exit_code() != 0) return ref;
    ref.ok = true;
    ref.completion_us = t_done - t_launch;
    ref.result = read_result(tb, p_.result_key);
    return ref;
  }

 private:
  Params p_;
  u64 seed_;
  sim::Time latency_;
};

std::unique_ptr<Workload> make_bt1(u64 seed, bool tiny) {
  CrWorkload::Params p;
  p.nodes = 1;
  p.result_key = "results/bt";
  p.launch = [tiny](Testbed& tb) {
    return apps::launch_mpi_job(tb.agents, "bt", 1, [tiny](i32 r) {
      apps::BtProgram::Params bp;
      bp.rank = r;
      bp.size = 1;
      bp.n = tiny ? 128 : 1024;
      bp.steps = 40;
      bp.cost_per_row = tiny ? 144 : 18;
      // The paper's largest image: ~340 MB for BT on one node.
      bp.workspace_bytes = tiny ? (4ull << 20) : (332ull << 20);
      return std::make_unique<apps::BtProgram>(bp);
    });
  };
  p.warmup = 100 * sim::kMillisecond;
  p.gap = 200 * sim::kMillisecond;
  p.post_gap = 100 * sim::kMillisecond;
  p.cycles = 3;
  return std::make_unique<CrWorkload>(std::move(p), seed);
}

std::unique_ptr<Workload> make_cpi16(u64 seed, bool tiny) {
  CrWorkload::Params p;
  p.nodes = 16;
  p.result_key = "results/cpi";
  p.launch = [tiny](Testbed& tb) {
    return apps::launch_mpi_job(tb.agents, "cpi", 16, [tiny](i32 r) {
      apps::CpiProgram::Params cp;
      cp.rank = r;
      cp.size = 16;
      // Many short rounds keep the job running through every cycle;
      // 25k intervals per 2.5 ms step keep its host cost low.
      cp.intervals = 6'400'000;
      cp.rounds = tiny ? 20 : 40;
      cp.intervals_per_step = 25'000;
      cp.cost_per_step = 2500;
      // Paper Fig. 6c: ~7 MB per pod on 16 nodes.
      cp.workspace_bytes =
          tiny ? (1ull << 20) : (6ull << 20) + (10ull << 20) / 16;
      return std::make_unique<apps::CpiProgram>(cp);
    });
  };
  p.warmup = 100 * sim::kMillisecond;
  p.gap = 150 * sim::kMillisecond;
  p.post_gap = 100 * sim::kMillisecond;
  // The first checkpoint of an episode runs cold (~1.5x the host time of
  // later ones); three cycles keep the median off that mode.
  p.cycles = 3;
  p.tolerance = 1e-12;
  return std::make_unique<CrWorkload>(std::move(p), seed);
}

// ---- echo-recovery ----------------------------------------------------------

net::IpAddr echo_vip(u8 i) { return net::IpAddr(10, 77, 0, i); }
constexpr u16 kEchoPort = 5000;
// Transfer under way before the supervisor starts.
constexpr sim::Time kEchoWarmup = 100 * sim::kMillisecond;

/// Supervised echo pair on four nodes: jittered periodic checkpoints,
/// one scheduled node kill, unattended recovery, byte-exact finish.
class EchoRecovery final : public Workload {
 public:
  EchoRecovery(u64 seed, bool tiny)
      : seed_(seed), tiny_(tiny), latency_(link_latency(seed)) {}

  EpisodeOut episode(int index, bool traced, HostSpans& spans) override {
    EpisodeOut out;
    Rng rng = episode_rng(seed_, index);
    const sim::Time interval = jittered(rng, 330 * sim::kMillisecond, 0.02);
    const double kill_frac = 0.75 + 0.10 * rng.uniform();
    const int victim = static_cast<int>(rng.below(2));  // server or client
    const u32 pattern = rng.next_u32();

    fault::injector().clear();
    const double k_setup = kernel_ms();
    const double h_setup = host_ms();
    Testbed tb(4, traced, latency_);
    i32 client_pid = launch(tb, pattern);
    tb.cl.run_for(kEchoWarmup);
    const u64 op_seq = static_cast<u64>(index) * 1000 + 1;
    super::Supervisor supervisor(*tb.mgr_node, *tb.manager, agent_refs(tb),
                                 options(interval), tb.trace.get());
    {
      HostSpans::Scope s(spans, "Supervisor::start", "super", 0, op_seq);
      supervisor.start(echo_targets(tb));
    }
    const double setup_raw = host_ms() - h_setup;
    const double k_start = kernel_ms();
    out.setup_ms = setup_raw * speed_factor(k_setup, k_start);
    out.raw.add("setup_s", "s", setup_raw / 1000.0);

    const obs::MetricsSnapshot m0 = obs::metrics().snapshot();
    const double h0 = host_ms();
    HostSpans::Scope episode_span(spans, "episode", "super", 0, op_seq);

    // Closed-loop drive in 1 ms steps.  Host time and engine events of a
    // step are charged to the op the Manager has in flight, if any.
    i32 exit_code = -101;
    sim::Time t_exit = 0;
    sim::Time kill_at = 0, last_snapshot = 0;
    bool in_op = false;
    double op_host = 0;
    u64 op_events = 0;
    std::size_t rows_seen = 0;
    GapStats gaps;
    Samples& E = out.e2e;
    Samples op_layer;  // events per op, kept for the traced pass
    Samples& R = out.raw;  // op host times as measured
    const sim::Time budget = 240 * sim::kSecond;
    while (exit_code == -101 && tb.cl.now() < budget) {
      if (kill_at == 0 && supervisor.catalog().size() > 0) {
        // Kill before the next periodic commit can land, so the
        // recovery restores a set almost an interval old.
        const super::CatalogEntry& committed =
            supervisor.catalog().entries().back();
        const obs::LedgerEntry* op = ledger_entry(tb.ledger, committed.op);
        last_snapshot = op != nullptr ? op->start_us : committed.t_us;
        kill_at = committed.t_us +
                  static_cast<sim::Time>(static_cast<double>(interval) *
                                         kill_frac);
        fault::FaultSpec kill;
        kill.kind = fault::FaultKind::NODE_CRASH_AT_TIME;
        kill.node = tb.nodes[static_cast<std::size_t>(victim)]->name();
        kill.at_us = kill_at;
        HostSpans::Scope s(spans, "Injector::arm", "fault", episode_span.id(),
                           op_seq);
        fault::injector().arm(kill);
      }
      if (tb.manager->busy() || in_op) {
        const u64 ev0 = obs::metrics().counter("sim.events_dispatched").value;
        const double hs = host_ms();
        tb.cl.run_for(sim::kMillisecond);
        op_host += host_ms() - hs;
        op_events +=
            obs::metrics().counter("sim.events_dispatched").value - ev0;
      } else {
        gaps.run(tb.cl, sim::kMillisecond);
      }
      in_op = tb.manager->busy();
      const auto& rows = tb.ledger.entries();
      if (!in_op && rows.size() > rows_seen) {
        // The busy stretch that just ended belongs to its last op.
        const obs::LedgerEntry& e = rows.back();
        if (e.outcome == "ok") {
          R.add(e.kind == "ckpt" ? "ckpt_host_ms" : "restart_host_ms", "ms",
                op_host);
          op_layer.add("sim.events_per_op", "count",
                       static_cast<double>(op_events));
        }
        rows_seen = rows.size();
        op_host = 0;
        op_events = 0;
      }
      exit_code = client_exit(tb, client_pid, &t_exit);
    }
    const double measured_raw = host_ms() - h0;
    const double f = speed_factor(k_start, kernel_ms());
    out.measured_ms = measured_raw * f;
    R.add("wall_s", "s", measured_raw / 1000.0);
    for (const char* name : {"ckpt_host_ms", "restart_host_ms"}) {
      if (const std::vector<double>* host = R.find(name)) {
        for (double h : *host) E.add(name, "ms", h * f);
      }
    }
    fault::injector().clear();
    const obs::MetricsSnapshot m1 = obs::metrics().snapshot();

    // Ops from the ledger: every supervisor checkpoint and the recovery.
    sim::Time t_recovered = 0;
    for (const obs::LedgerEntry& e : tb.ledger.entries()) {
      ++out.attempted;
      if (e.outcome != "ok") {
        // An op the injected crash tore down failed as it should; any
        // other abort is a failure of the system under test.
        const bool fault_window = kill_at != 0 && e.end_us >= kill_at &&
                                  t_recovered == 0;
        if (!fault_window) {
          ++out.failed;
          out.errors.push_back(e.kind + " op aborted: " + e.error);
        }
        continue;
      }
      out.virt.insert(out.virt.end(),
                      {static_cast<double>(e.start_us),
                       static_cast<double>(e.downtime_us),
                       static_cast<double>(e.latency_us),
                       static_cast<double>(e.image_bytes)});
      if (e.kind == "ckpt") {
        E.add("ckpt_downtime_ms", "ms", ms(e.downtime_us));
        E.add("ckpt_latency_ms", "ms", ms(e.latency_us));
        E.add("image_mb", "MB", mib(e.image_bytes));
      } else {
        E.add("restart_downtime_ms", "ms", ms(e.downtime_us));
        E.add("restart_latency_ms", "ms", ms(e.latency_us));
        t_recovered = e.end_us;
      }
    }

    const super::Supervisor::LastRecovery& lr = supervisor.last_recovery();
    if (exit_code != 0) {
      out.errors.push_back("echo client exited " + std::to_string(exit_code));
    }
    if (kill_at == 0) out.errors.push_back("no committed set before the kill");
    if (supervisor.recoveries() != 1 || !lr.ok) {
      ++out.failed;
      out.errors.push_back("expected exactly one successful recovery, saw " +
                           std::to_string(supervisor.recoveries()));
    }
    if (exit_code == 0 && lr.ok) {
      out.completion_us = t_exit;
      E.add("mttr_ms", "ms", ms(lr.mttr_us));
      E.add("lost_work_ms", "ms", ms(kill_at - last_snapshot));
      out.virt.insert(out.virt.end(),
                      {static_cast<double>(lr.detect_us),
                       static_cast<double>(lr.mttr_us),
                       static_cast<double>(t_exit)});
    }

    if (!traced) return out;
    Samples& L = out.layer;
    L.merge(op_layer);
    L.add("super.detect_ms", "ms", lr.ok ? ms(lr.detect_us - kill_at) : 0);
    counter_layer(m0, m1, L);
    sim_layer(gaps, L);
    L.add("net.app_mb_per_host_s", "MiB/s",
          measured_raw > 0
              ? 2.0 * mib(echo_bytes()) / (measured_raw / 1000.0)
              : 0);
    L.add("obs.spans_per_op", "count",
          ratio(span_count(tb), std::max<u64>(1, out.attempted)));
    L.add("obs.ledger_rows", "count",
          static_cast<double>(tb.ledger.entries().size()));
    const obs::LedgerEntry* recovery = nullptr;
    for (const obs::LedgerEntry& e : tb.ledger.entries()) {
      if (e.outcome != "ok") continue;
      if (e.kind == "restart") recovery = &e;
      ledger_layer(tb, e, spans, episode_span.id(), op_seq, L, out.errors);
    }
    if (supervisor.catalog().size() == 0) return out;
    // The latest committed set: its images are the bytes every op of
    // the episode moved.
    std::vector<std::string> keys;
    u64 set_bytes = 0;
    for (const super::CatalogImage& img :
         supervisor.catalog().entries().back().images) {
      keys.push_back(san_key(img.uri));
      set_bytes += tb.cl.san().size_of(keys.back()).value_or(0);
    }
    if (recovery != nullptr) {
      // The ledger carries the cold bytes filled after resume (the
      // supervisor keeps the RestartDone reports to itself).
      L.add("core.restart.deferred_frac", "ratio",
            ratio(recovery->lazy_bytes, set_bytes));
    }
    const ByteCost bc = byte_path_layer(tb, keys, spans, episode_span.id(),
                                        op_seq, L, out.errors);
    if (!bc.ok) {
      ++out.failed;
      return out;
    }
    auto residual = [&](const char* host_metric, double bytes_ms) {
      if (const std::vector<double>* host = R.find(host_metric)) {
        for (double h : *host) {
          L.add("core.op_residual_host_ms", "ms", h - bytes_ms);
        }
      }
    };
    residual("ckpt_host_ms", bc.ckpt_ms);
    residual("restart_host_ms", bc.restart_ms);
    return out;
  }

  Reference reference() override {
    Reference ref;
    Testbed tb(4, false, latency_);
    i32 client_pid = launch(tb, 0);
    sim::Time t_exit = 0;
    i32 ec = -101;
    for (int i = 0; i < 240000 && ec == -101; ++i) {
      tb.cl.run_for(sim::kMillisecond);
      ec = client_exit(tb, client_pid, &t_exit);
    }
    ref.ok = ec == 0;
    ref.completion_us = t_exit;
    return ref;
  }

 private:
  // The transfer must outlast the first commit, the kill, detection and
  // recovery, so only the pods' footprint shrinks at self-test size.
  static u32 echo_bytes() { return 64u << 20; }
  u64 footprint() const { return tiny_ ? (1ull << 20) : (4ull << 20); }

  i32 launch(Testbed& tb, u32 pattern) {
    pod::Pod& sp = tb.agents[0]->create_pod(echo_vip(1), "server-pod");
    (void)sp.spawn(std::make_unique<EchoServer>(kEchoPort, footprint()));
    pod::Pod& cp = tb.agents[1]->create_pod(echo_vip(2), "client-pod");
    return cp.spawn(std::make_unique<EchoClient>(
        net::SockAddr{echo_vip(1), kEchoPort}, echo_bytes(), pattern,
        footprint()));
  }

  static std::vector<core::Manager::Target> echo_targets(Testbed& tb) {
    return {{tb.agents[0]->addr(), "server-pod", "san://ckpt/server"},
            {tb.agents[1]->addr(), "client-pod", "san://ckpt/client"}};
  }

  static std::vector<super::Supervisor::AgentRef> agent_refs(Testbed& tb) {
    std::vector<super::Supervisor::AgentRef> refs;
    for (std::size_t i = 0; i < tb.agents.size(); ++i) {
      refs.push_back({tb.agents[i]->addr(), tb.nodes[i]->name()});
    }
    return refs;
  }

  static super::Supervisor::Options options(sim::Time interval) {
    super::Supervisor::Options o;
    o.heartbeat_us = 20 * sim::kMillisecond;  // dead after 320 ms
    o.coalesce_us = 10 * sim::kMillisecond;
    o.recovery_backoff_us = 50 * sim::kMillisecond;
    o.ckpt_interval_us = interval;
    o.ckpt.cow = true;
    o.ckpt.deadlines.connect_us = 1 * sim::kSecond;
    o.ckpt.deadlines.meta_us = 3 * sim::kSecond;
    o.ckpt.deadlines.done_us = 3 * sim::kSecond;
    o.ckpt.deadlines.agent_barrier_us = 3 * sim::kSecond;
    o.ckpt.deadlines.drain_us = 3 * sim::kSecond;
    o.restart.deadlines.connect_us = 1 * sim::kSecond;
    o.restart.deadlines.restart_us = 5 * sim::kSecond;
    o.restart.pipelined = true;
    o.restart.lazy = true;
    o.restart.deadlines.lazy_us = 5 * sim::kSecond;
    return o;
  }

  /// The client's exit code wherever its pod lives now (-101 while it
  /// runs); `t_exit` gets the instant it was first seen exited.
  static i32 client_exit(Testbed& tb, i32 pid, sim::Time* t_exit) {
    for (std::size_t i = 0; i < tb.agents.size(); ++i) {
      if (tb.nodes[i]->failed()) continue;
      pod::Pod* p = tb.agents[i]->find_pod("client-pod");
      if (p == nullptr) continue;
      os::Process* proc = p->find_process(pid);
      if (proc != nullptr && proc->state() == os::ProcState::EXITED) {
        *t_exit = tb.cl.now();
        return proc->exit_code();
      }
    }
    return -101;
  }

  u64 seed_;
  bool tiny_;
  sim::Time latency_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, u64 seed,
                                        bool tiny) {
  if (name == "bt1-cr") return make_bt1(seed, tiny);
  if (name == "cpi16-cr") return make_cpi16(seed, tiny);
  if (name == "echo-recovery") {
    return std::make_unique<EchoRecovery>(seed, tiny);
  }
  return nullptr;
}

}  // namespace perfbench
