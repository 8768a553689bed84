// perfbench: one workload of the checkpoint-restart benchmark, in one
// process (so peak RSS is the workload's own).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--min-episodes <n>] [--out <dir>]
//
// Runs episodes of the workload until `--seconds` of host time have
// passed (at least --min-episodes), then checks every episode's output
// against one uninterrupted reference run of the same job.  With
// `--trace 1` it then replays the same episodes traced, from the first,
// for another `--seconds` (at least one episode), checks that every
// virtual-clock number matches the untraced pass exactly, and reports
// per-layer samples plus the tracing overhead.  The last line
// of stdout is one JSON object of raw per-op samples; perfbench/run.py
// turns it into the benchmark's result line.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "fault/fault.h"
#include "obs/flight.h"
#include "harness.h"
#include "workloads.h"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  int min_episodes = 3;
  std::string out_dir;  // traced spans and postmortems go here
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (k == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--min-episodes") {
      a.min_episodes = std::atoi(v.c_str());
    } else if (k == "--out") {
      a.out_dir = v;
    } else {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0 && a.min_episodes > 0;
}

/// Runs episodes 0, 1, ... until `seconds` of host time have passed and
/// at least `min_episodes` ran, or `max_episodes` ran (< 0: no cap).
std::vector<EpisodeOut> run_episodes(Workload& w, int max_episodes,
                                     double seconds, int min_episodes,
                                     bool traced, HostSpans& spans) {
  std::vector<EpisodeOut> eps;
  const double t0 = host_ms();
  for (int i = 0;; ++i) {
    if (max_episodes >= 0 && i >= max_episodes) break;
    if (i >= min_episodes && host_ms() - t0 >= seconds * 1000.0) break;
    eps.push_back(w.episode(i, traced, spans));
    fault::injector().clear();
  }
  return eps;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--tiny] [--min-episodes <n>] "
                 "[--out <dir>]\n");
    return 2;
  }
  if (!args.out_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(args.out_dir, ec);
    obs::flight().set_dir(args.out_dir + "/postmortem");
  }
  std::unique_ptr<Workload> w =
      make_workload(args.workload, args.seed, args.tiny);
  if (!w) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  // Untraced pass: the end-to-end numbers.
  HostSpans off(false);
  std::vector<EpisodeOut> eps = run_episodes(
      *w, -1, args.seconds, args.min_episodes, false, off);
  const double rss_mb = peak_rss_mb();

  std::vector<std::string> errors;
  u64 attempted = 0, failed = 0;
  Samples e2e, host_raw;
  for (std::size_t i = 0; i < eps.size(); ++i) {
    const EpisodeOut& ep = eps[i];
    attempted += ep.attempted;
    failed += ep.failed;
    // An episode whose output is wrong counts one failed op even when
    // every op reported success.
    if (!ep.errors.empty() && ep.failed == 0) ++failed;
    for (const std::string& e : ep.errors) {
      errors.push_back("episode " + std::to_string(i) + ": " + e);
    }
    e2e.merge(ep.e2e);
    host_raw.merge(ep.raw);
    e2e.add("setup_s", "s", ep.setup_ms / 1000.0);
    e2e.add("wall_s", "s", ep.measured_ms / 1000.0);
  }

  // Correctness: every episode's job finished with the reference output.
  Reference ref = w->reference();
  if (!ref.ok || ref.completion_us == 0) {
    errors.push_back("reference run failed");
    ++failed;
  }
  for (std::size_t i = 0; i < eps.size() && ref.ok; ++i) {
    const EpisodeOut& ep = eps[i];
    if (ep.completion_us == 0) continue;  // already reported
    if (!w->same_result(ep.result, ref.result)) {
      errors.push_back("episode " + std::to_string(i) +
                       ": output differs from the uninterrupted run");
      ++failed;
      continue;
    }
    e2e.add("job_overhead_pct", "%",
            100.0 * (static_cast<double>(ep.completion_us) -
                     static_cast<double>(ref.completion_us)) /
                static_cast<double>(ref.completion_us));
  }
  e2e.add("peak_rss_mb", "MB", rss_mb);
  const double attempted_d = static_cast<double>(std::max<u64>(attempted, 1));
  e2e.add("ok_ops_frac", "ratio",
          (attempted_d - static_cast<double>(std::min(failed, attempted))) /
              attempted_d);

  // Traced pass over the same episodes, again for `--seconds` (at least
  // one episode): per-layer numbers.
  Samples layer;
  if (args.trace) {
    HostSpans spans(true);
    std::vector<EpisodeOut> traced = run_episodes(
        *w, static_cast<int>(eps.size()), args.seconds, 1, true, spans);
    double untraced_ms = 0, traced_ms = 0;
    std::size_t compared = 0;
    bool virt_equal = true;
    for (std::size_t i = 0; i < traced.size(); ++i) {
      const EpisodeOut& t = traced[i];
      for (const std::string& e : t.errors) {
        errors.push_back("traced episode " + std::to_string(i) + ": " + e);
      }
      if (!t.errors.empty()) ++failed;
      compared += t.virt.size();
      if (t.virt != eps[i].virt) {
        virt_equal = false;
        errors.push_back("traced episode " + std::to_string(i) +
                         ": virtual-clock numbers differ from the untraced "
                         "run");
        ++failed;
      }
      layer.merge(t.layer);
      untraced_ms += eps[i].measured_ms;
      traced_ms += t.measured_ms;
    }
    if (virt_equal) {
      std::fprintf(stderr,
                   "perfbench: traced pass matches the untraced pass on all "
                   "%zu virtual-clock numbers of %zu episodes\n",
                   compared, traced.size());
    }
    layer.add("obs.trace_overhead_pct", "%",
              untraced_ms > 0 ? 100.0 * (traced_ms - untraced_ms) / untraced_ms
                              : 0);
    layer.add("obs.host_spans", "count", static_cast<double>(spans.size()));
    if (!args.out_dir.empty()) {
      const std::string path = args.out_dir + "/spans-" + args.workload +
                               "-seed" + std::to_string(args.seed) + ".jsonl";
      if (!spans.write_jsonl(path)) {
        errors.push_back("cannot write spans to " + path);
        ++failed;
      }
    }
  }

  for (const std::string& e : errors) {
    std::fprintf(stderr, "perfbench: %s\n", e.c_str());
  }
  obs::Json out = obs::Json::object();
  out["workload"] = args.workload;
  out["seed"] = args.seed;
  out["trace"] = args.trace;
  out["episodes"] = static_cast<u64>(eps.size());
  out["correct"] = errors.empty();
  out["attempted"] = attempted;
  out["failed"] = failed;
  obs::Json errs = obs::Json::array();
  for (const std::string& e : errors) errs.push(e);
  out["errors"] = std::move(errs);
  out["e2e"] = e2e.to_json();
  out["host_raw"] = host_raw.to_json();
  out["layer"] = layer.to_json();
  std::printf("%s\n", out.dump().c_str());
  return errors.empty() ? 0 : 1;
}
