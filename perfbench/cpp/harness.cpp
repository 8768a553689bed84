#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iterator>

#include "ckpt/image.h"
#include "obs/critpath.h"
#include "util/crc32.h"

namespace perfbench {

double host_ms() {
  using namespace std::chrono;
  return duration<double, std::milli>(steady_clock::now().time_since_epoch())
      .count();
}

namespace {
volatile u64 g_kernel_sink = 0;  // keeps the kernel's result observable
}  // namespace

double kernel_ms() {
  static std::vector<u64> data(1 << 18);  // 2 MiB
  double runs[5];
  for (double& r : runs) {
    const double t0 = host_ms();
    u64 h = 1469598103934665603ull;
    for (u64& x : data) {
      h = (h ^ x) * 1099511628211ull;
      x = h;
    }
    std::map<u64, u64> m;
    for (u64 i = 0; i < 8000; ++i) m[(i * 2654435761u) % 10007] = h + i;
    g_kernel_sink = h + m.size();
    r = host_ms() - t0;
  }
  std::sort(std::begin(runs), std::end(runs));
  return runs[2];
}

// ---- Samples ---------------------------------------------------------------

void Samples::add(const std::string& name, const std::string& unit,
                  double v) {
  auto& slot = m_[name];
  slot.first = unit;
  slot.second.push_back(v);
}

void Samples::merge(const Samples& other) {
  for (const auto& [name, s] : other.m_) {
    for (double v : s.second) add(name, s.first, v);
  }
}

const std::vector<double>* Samples::find(const std::string& name) const {
  auto it = m_.find(name);
  return it == m_.end() ? nullptr : &it->second.second;
}

obs::Json Samples::to_json() const {
  obs::Json out = obs::Json::object();
  for (const auto& [name, s] : m_) {
    obs::Json m = obs::Json::object();
    m["unit"] = s.first;
    obs::Json vals = obs::Json::array();
    for (double v : s.second) vals.push(v);
    m["values"] = std::move(vals);
    out[name] = std::move(m);
  }
  return out;
}

// ---- HostSpans -------------------------------------------------------------

u64 HostSpans::begin(const std::string& name, const std::string& layer,
                     u64 parent, u64 op) {
  if (!on_) return 0;
  spans_.push_back(Rec{name, layer, parent, op, host_ms() - origin_ms_, -1});
  return spans_.size();
}

void HostSpans::end(u64 id) {
  if (id == 0 || id > spans_.size()) return;
  spans_[id - 1].end_ms = host_ms() - origin_ms_;
}

bool HostSpans::write_jsonl(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Rec& r = spans_[i];
    obs::Json j = obs::Json::object();
    j["id"] = static_cast<u64>(i + 1);
    j["parent"] = r.parent;
    j["op"] = r.op;
    j["name"] = r.name;
    j["layer"] = r.layer;
    j["start_ms"] = r.start_ms;
    j["end_ms"] = r.end_ms;
    f << j.dump() << "\n";
  }
  return static_cast<bool>(f);
}

// ---- Testbed ---------------------------------------------------------------

Testbed::Testbed(int n, bool traced, sim::Time link_latency)
    : cl(net::FabricConfig{.latency = link_latency}) {
  if (traced) {
    trace = std::make_unique<core::Trace>();
    trace->recorder().set_clock([this] { return cl.now(); });
  }
  mgr_node = &cl.add_node("mgr");
  for (int i = 0; i < n; ++i) {
    os::Node& node = cl.add_node("n" + std::to_string(i + 1));
    nodes.push_back(&node);
    agent_store.push_back(std::make_unique<core::Agent>(
        node, core::Agent::kDefaultPort, core::CostModel{}, trace.get()));
    agents.push_back(agent_store.back().get());
  }
  manager = std::make_unique<core::Manager>(*mgr_node, trace.get());
  manager->set_ledger(&ledger);
}

// ---- Driving the clock -----------------------------------------------------

namespace {

u64 events_dispatched() {
  return obs::metrics().counter("sim.events_dispatched").value;
}

// Virtual budget for one op's report: far above any op in these
// workloads, so only a hung op hits it.
constexpr sim::Time kOpBudget = 300 * sim::kSecond;

template <typename Report, typename Start>
Report drive_op(Testbed& tb, OpTiming& t, Start start) {
  Report out;
  bool done = false;
  t.t_invoke = tb.cl.now();
  const u64 ev0 = events_dispatched();
  const double h0 = host_ms();
  start([&](Report r) {
    out = std::move(r);
    done = true;
  });
  while (!done && tb.cl.now() - t.t_invoke < kOpBudget) {
    tb.cl.run_for(sim::kMillisecond);
  }
  t.host_ms = host_ms() - h0;
  t.events = events_dispatched() - ev0;
  t.done = done;
  return out;
}

}  // namespace

void GapStats::run(os::Cluster& cl, sim::Time dt) {
  const u64 ev0 = events_dispatched();
  const double h0 = perfbench::host_ms();
  cl.run_for(dt);
  host_ms += perfbench::host_ms() - h0;
  events += events_dispatched() - ev0;
  virt_s += static_cast<double>(dt) / static_cast<double>(sim::kSecond);
}

core::Manager::CheckpointReport checkpoint_op(
    Testbed& tb, const std::vector<core::Manager::Target>& targets,
    const core::Manager::CkptOptions& opts, OpTiming& t) {
  return drive_op<core::Manager::CheckpointReport>(tb, t, [&](auto done) {
    tb.manager->checkpoint(targets, core::CkptMode::SNAPSHOT, done, opts);
  });
}

core::Manager::RestartReport restart_op(
    Testbed& tb, const std::vector<core::Manager::Target>& targets,
    const core::Manager::RestartOptions& opts, OpTiming& t) {
  return drive_op<core::Manager::RestartReport>(tb, t, [&](auto done) {
    tb.manager->restart(targets, {}, done, opts);
  });
}

// ---- Byte-path replay ------------------------------------------------------

namespace {

double mb_of(std::size_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

double rate(double mb, double ms) { return ms > 0 ? mb / (ms / 1000.0) : 0; }

}  // namespace

ByteReplay replay_byte_path(os::VirtualSAN& san, const std::string& key,
                            HostSpans& spans, u64 op_span, u64 op) {
  ByteReplay out;
  Result<Bytes> image = san.read(key);
  if (!image.is_ok()) {
    out.error = "committed image " + key + " unreadable";
    return out;
  }
  const Bytes& bytes = image.value();
  out.mb = mb_of(bytes.size());

  u32 crc = 0;
  {
    HostSpans::Scope s(spans, "crc32", "util", op_span, op);
    const double h0 = host_ms();
    crc = crc32(bytes);
    out.crc_mb_s = rate(out.mb, host_ms() - h0);
  }
  Result<ckpt::PodImage> decoded = Status(Err::INVALID, "not decoded");
  double decode_ms = 0;
  {
    HostSpans::Scope s(spans, "decode_image", "ckpt", op_span, op);
    const double h0 = host_ms();
    decoded = ckpt::decode_image(bytes);
    decode_ms = host_ms() - h0;
  }
  if (!decoded.is_ok()) {
    out.error = "committed image " + key + " does not decode: " +
                decoded.status().to_string();
    return out;
  }
  out.decode_mb_s = rate(out.mb, decode_ms);
  Bytes reencoded;
  double encode_ms = 0;
  {
    HostSpans::Scope s(spans, "encode_image", "ckpt", op_span, op);
    const double h0 = host_ms();
    reencoded = ckpt::encode_image(decoded.value());
    encode_ms = host_ms() - h0;
  }
  out.encode_mb_s = rate(mb_of(reencoded.size()), encode_ms);
  if (crc32(reencoded) != crc || reencoded.size() != bytes.size()) {
    out.error = "committed image " + key + " does not re-encode identically";
    return out;
  }

  const std::string temp_key = key + ".perfbench-replay";
  double write_ms = 0;
  {
    HostSpans::Scope s(spans, "VirtualSAN::write", "os", op_span, op);
    const double h0 = host_ms();
    // Copies the buffer into the store, as the agents' image writes do.
    Status st = san.write(temp_key, reencoded);
    write_ms = host_ms() - h0;
    if (!st.is_ok()) {
      out.error = "replay SAN write failed: " + st.to_string();
      return out;
    }
  }
  out.san_write_mb_s = rate(out.mb, write_ms);
  constexpr std::size_t kChunk = 256 << 10;
  double read_ms = 0;
  u32 read_crc = crc32_init();
  {
    HostSpans::Scope s(spans, "VirtualSAN::read_at", "os", op_span, op);
    for (std::size_t off = 0; off < bytes.size(); off += kChunk) {
      const double h0 = host_ms();
      Result<Bytes> chunk = san.read_at(temp_key, off, kChunk);
      read_ms += host_ms() - h0;
      if (!chunk.is_ok()) {
        out.error = "replay SAN read_at failed";
        (void)san.remove(temp_key);
        return out;
      }
      read_crc = crc32_update(read_crc, chunk.value().data(),
                              chunk.value().size());
    }
  }
  (void)san.remove(temp_key);
  if (crc32_final(read_crc) != crc) {
    out.error = "replay SAN object read back differently";
    return out;
  }
  out.san_read_at_mb_s = rate(out.mb, read_ms);
  out.ok = true;
  return out;
}

double replay_attribute_ms(const core::Trace& trace, obs::OpId op,
                           HostSpans& spans, u64 op_span, u64 op_id,
                           bool* ok) {
  HostSpans::Scope s(spans, "attribute_op", "obs", op_span, op_id);
  const double h0 = host_ms();
  auto a = obs::attribute_op(trace.recorder().spans(), op);
  const double ms = host_ms() - h0;
  if (ok != nullptr) *ok = a.is_ok();
  return ms;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

u64 counter(const obs::MetricsSnapshot& s, const std::string& name) {
  auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

}  // namespace perfbench
