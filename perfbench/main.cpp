// perfbench: the end-to-end RootService benchmark program.
//
//   perfbench --workload <jacobi-cold|paper-stream>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--tamper] [--setup-only] [--trace-out <file>]
//             [--commit <id>] [--source-digest <hex>]
//
// --trace 0 times the workload through a pool-thread service and the same
// requests through a 1-thread service, checks every answer, and prints the
// end-to-end metrics.  --trace 1 is the separate traced run: it replays
// the same requests layer by layer (spans written as a Chrome trace) and
// prints the per-layer metrics.  The last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.  The exit code is
// non-zero when an answer is certified wrong or differs across paths.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "calibrate/calibrate.hpp"
#include "modular/simd/simd.hpp"
#include "perfbench.hpp"
#include "replay.hpp"
#include "spans.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using pr::service::RootService;

constexpr std::size_t kNoLimit = std::numeric_limits<std::size_t>::max();
constexpr double kUnbounded = std::numeric_limits<double>::infinity();
/// Calls generated ahead of the client, 16 at a time.
constexpr std::size_t kLookahead = 15;
/// The fewest calls the 1-thread service answers in a timed run, so that
/// its median has five samples even where a call takes seconds.
constexpr std::size_t kMinBaselineCalls = 5;
/// Warm-up inputs come from a fixed stream of their own: no timed request
/// hits the cache on a warm-up answer, and set-up does the same work
/// whatever the seed.
constexpr std::uint64_t kWarmupSeed = 0x5741524d55505f31ULL;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<jacobi-cold|paper-stream> --seed <n> "
               "--seconds <s> --trace <0|1> [--tiny] [--tamper] "
               "[--setup-only] [--trace-out <file>] [--commit <id>] "
               "[--source-digest <hex>]\n",
               why);
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      const std::string w = value();
      have_workload = true;
      if (w == "jacobi-cold") {
        o.workload = Workload::kJacobiCold;
      } else if (w == "paper-stream") {
        o.workload = Workload::kPaperStream;
      } else {
        usage(("unknown workload " + w).c_str());
      }
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
      if (!(o.seconds > 0)) usage("--seconds must be positive");
    } else if (arg == "--trace") {
      const std::string t = value();
      if (t != "0" && t != "1") usage("--trace takes 0 or 1");
      o.trace = t == "1";
    } else if (arg == "--tiny") {
      o.tiny = true;
    } else if (arg == "--tamper") {
      o.tamper = true;
    } else if (arg == "--setup-only") {
      o.setup_only = true;
    } else if (arg == "--trace-out") {
      o.trace_out = value();
    } else if (arg == "--commit") {
      o.commit = value();
    } else if (arg == "--source-digest") {
      o.source_digest = value();
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return o;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double ratio(double a, double b) { return b > 0 ? a / b : 0; }

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile with at least ten samples beyond it: the
/// (N-10)-th smallest sample.  Below 20 samples that percentile would not
/// lie above the median, so the maximum is reported instead.
struct Tail {
  double value = 0;
  double percentile = 100;
  std::size_t samples = 0;
};

Tail tail_of(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  if (v.size() < 20) {
    t.value = v.back();
    return t;
  }
  const std::size_t k = v.size() - 10;  // 1-based rank
  t.value = v[k - 1];
  t.percentile = 100.0 * static_cast<double>(k) / static_cast<double>(v.size());
  return t;
}

/// Per-request latencies of a pass: every request of a call (all lines of
/// a run_batch wave) takes the call's latency.
std::vector<double> request_latencies(Stream& stream, const PassResult& p) {
  std::vector<double> out;
  for (std::size_t c = 0; c < p.calls; ++c) {
    const std::size_t n = stream.call(c).requests.size();
    out.insert(out.end(), n, p.call_seconds[c]);
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> provenance(
    const Options& o, int threads) {
  return {
      {"workload", workload_name(o.workload)},
      {"seed", std::to_string(o.seed)},
      {"seconds", num(o.seconds)},
      {"trace", o.trace ? "1" : "0"},
      {"tiny", o.tiny ? "1" : "0"},
      {"calibration_profile", pr::calibrate::active_profile_id()},
      {"simd_isa",
       pr::modular::simd::isa_name(pr::modular::simd::active_isa())},
      {"nproc", std::to_string(available_cpus())},
      {"pool_threads", std::to_string(threads)},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"commit", o.commit},
      {"source_digest", o.source_digest},
  };
}

void print_provenance(
    const std::vector<std::pair<std::string, std::string>>& prov) {
  std::string line = "{\"provenance\": {";
  for (std::size_t i = 0; i < prov.size(); ++i) {
    if (i) line += ", ";
    line += "\"" + prov[i].first + "\": \"" + prov[i].second + "\"";
  }
  std::printf("%s}}\n", line.c_str());
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-26s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void print_result(const GateResult& gate, std::size_t attempted,
                  const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += gate.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(gate.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

std::size_t requests_in(Stream& stream, const PassResult& p) {
  std::size_t n = 0;
  for (std::size_t c = 0; c < p.calls; ++c) {
    n += stream.call(c).requests.size();
  }
  return n;
}

std::size_t ok_requests(const PassResult& p) {
  std::size_t n = 0;
  for (const Answer& a : p.answers) n += a.present && a.ok;
  return n;
}

void print_call_seconds(const char* label, const PassResult& p) {
  std::printf("%s call latencies (s):", label);
  for (double s : p.call_seconds) std::printf(" %.4f", s);
  std::printf("\n");
}

void report_gate(const GateResult& gate) {
  std::printf("correctness: %zu distinct answers certified, %zu cross-path "
              "comparisons, %zu rejected in %.3f s, %s\n",
              gate.certified, gate.compared, gate.rejected, gate.seconds,
              gate.correct ? "all answers correct" : "WRONG ANSWERS");
  for (const std::string& p : gate.problems) {
    std::fprintf(stderr, "perfbench: %s\n", p.c_str());
  }
}

/// Runs the complex-root probe on the pool-thread service, prints what it
/// found, and folds a certified-wrong probe answer into the gate.
ProbeResult probe_and_report(RootService& pool, const Options& o,
                             GateResult& gate) {
  const ProbeResult probe = run_complex_probe(pool, o.seed, o.tiny);
  std::printf("known defect: %zu of %zu complex-root probe inputs rejected "
              "by the pool-thread service%s%s\n",
              probe.rejected, probe.attempted,
              probe.first_error.empty() ? "" : ": ",
              probe.first_error.c_str());
  for (const std::string& p : probe.problems) {
    std::fprintf(stderr, "perfbench: %s\n", p.c_str());
  }
  gate.correct = gate.correct && probe.correct;
  return probe;
}

/// Self-test seam: shifts the first root of the first answer by one cell.
void tamper_with(PassResult& pass) {
  for (Answer& a : pass.answers) {
    if (a.present && a.ok && !a.report.roots.empty()) {
      a.report.roots[0] += pr::BigInt(1);
      return;
    }
  }
}

/// The set-up a user pays before the first request: calibration start-up,
/// service construction, and the discarded warm-up call to the pool-thread
/// service.  The 1-thread service is a baseline of the benchmark's own, so
/// its warm-up (warm_baseline) is not part of setup_s.
struct Services {
  std::unique_ptr<RootService> pool;
  std::unique_ptr<RootService> one;
  double setup_s = 0;
};

Services set_up(const Options& o, std::size_t mu, int threads) {
  Stream warm(o.workload, kWarmupSeed, o.tiny, 0);
  const Call& warmup = warm.call(0);
  Services s;
  const auto t0 = Clock::now();
  pr::calibrate::startup();
  s.pool = std::make_unique<RootService>(service_config(threads, mu));
  s.one = std::make_unique<RootService>(service_config(1, mu));
  PassResult discarded;
  send_call(*s.pool, warm, warmup, discarded);
  s.setup_s = std::chrono::duration<double>(Clock::now() - t0).count();
  return s;
}

/// Sends the warm-up call to the 1-thread service, untimed: the first
/// solve on a thread pays lazy first-use costs that would otherwise land
/// on the first baseline sample and skew thread_speedup.
void warm_baseline(const Options& o, RootService& one) {
  Stream warm(o.workload, kWarmupSeed, o.tiny, 0);
  PassResult discarded;
  send_call(one, warm, warm.call(0), discarded);
}

int run_untraced(const Options& o, Stream& stream, RootService& pool,
                 RootService& one, int threads, double setup_s) {
  // Each call goes to the pool-thread service and then, until the 1-thread
  // service has used its own time budget (half the run) and answered at
  // least kMinBaselineCalls calls, to that service too: the two latencies
  // of an input are measured back to back, so a change in host speed over
  // the run moves both alike.
  PassResult pool_pass;
  PassResult one_pass;
  while (pool_pass.calls == 0 || pool_pass.seconds < o.seconds) {
    const Call& call = stream.call(pool_pass.calls);
    send_call(pool, stream, call, pool_pass);
    if (one_pass.calls < kMinBaselineCalls ||
        one_pass.seconds < o.seconds / 2) {
      send_call(one, stream, call, one_pass);
    }
  }
  const double rss = peak_rss_mb();
  if (o.tamper) tamper_with(pool_pass);
  GateResult gate = run_gate(stream, pool_pass, {&one_pass}, threads);
  const std::size_t attempted = requests_in(stream, pool_pass);

  const std::vector<double> lat = request_latencies(stream, pool_pass);
  const Tail tail = tail_of(lat);
  double pool_prefix = 0;
  for (std::size_t c = 0; c < one_pass.calls; ++c) {
    pool_prefix += pool_pass.call_seconds[c];
  }
  // The declared end-to-end metrics (BENCHMARK.json), then the ones this
  // host's run-to-run noise keeps out of the gate: they are printed but
  // not part of the result.
  const std::vector<Metric> metrics = {
      {"setup_s", setup_s, "s"},
      {"latency_s_p50", median(lat), "s"},
      {"thread_speedup", ratio(one_pass.seconds, pool_prefix), "ratio"},
      {"peak_rss_mb", rss, "MB"},
  };
  const std::vector<Metric> reported = {
      {"latency_s_tail", tail.value, "s"},
      {"requests_per_s",
       ratio(static_cast<double>(ok_requests(pool_pass)), pool_pass.seconds),
       "1/s"},
      {"latency_1t_s_p50", median(request_latencies(stream, one_pass)), "s"},
      {"failed_ratio",
       ratio(static_cast<double>(gate.failed), static_cast<double>(attempted)),
       "ratio"},
  };
  std::printf("timed: %zu requests in %zu calls over %.3f s at %d pool "
              "threads; 1-thread service: %zu calls over %.3f s\n",
              attempted, pool_pass.calls, pool_pass.seconds, threads,
              one_pass.calls, one_pass.seconds);
  print_call_seconds("pool-thread", pool_pass);
  print_call_seconds("1-thread", one_pass);
  report_gate(gate);
  probe_and_report(pool, o, gate);
  std::printf("end-to-end metrics:\n");
  print_metrics(metrics);
  std::printf("end-to-end metrics outside the result:\n");
  print_metrics(reported);
  std::printf("  latency_s_tail is p%.1f of %zu samples; thread_speedup is "
              "%d threads vs 1 over the first %zu calls; %zu of %zu requests "
              "failed\n",
              tail.percentile, tail.samples, threads, one_pass.calls,
              gate.failed, attempted);
  print_result(gate, attempted, metrics);
  return gate.correct ? 0 : 1;
}

/// A pass of one service with a span per call on `track`.
PassResult traced_service_pass(RootService& service, Stream& stream,
                               std::size_t max_calls, double budget_s,
                               SpanLog& log, Track track) {
  PassResult out;
  while (out.calls < max_calls && (out.calls == 0 || out.seconds < budget_s)) {
    const Call& call = stream.call(out.calls);
    const double start = log.now();
    send_call(service, stream, call, out);
    log.add(call.batch ? "service.run_batch" : "service.submit",
            Layer::kService, track, call.requests.front(), start, log.now());
  }
  return out;
}

int run_traced(const Options& o, Stream& stream, RootService& pool,
               RootService& one, int threads) {
  SpanLog log;
  // The traced run makes four passes over its calls and certifies them,
  // so its measured pass is a quarter of the run length.
  const pr::service::ServiceStats s0 = pool.stats();
  PassResult pool_pass = traced_service_pass(pool, stream, kNoLimit,
                                             o.seconds / 4, log,
                                             Track::kPoolService);
  const pr::service::ServiceStats s1 = pool.stats();
  PassResult one_pass = traced_service_pass(
      one, stream, pool_pass.calls, kUnbounded, log, Track::kOneThreadService);
  SchedCounts sc;
  PassResult sched = sched_pass(stream, pool_pass, pool.config(), log, sc);
  ReplayCounts rc;
  PassResult replay =
      replay_pass(stream, pool_pass, pool.config().finder, log, rc);
  if (o.tamper) tamper_with(pool_pass);
  GateResult gate =
      run_gate(stream, pool_pass, {&one_pass, &sched, &replay}, threads);
  const std::size_t attempted = requests_in(stream, pool_pass);

  const auto self = log.self_seconds(Track::kReplay);
  auto layer = [&](Layer l) { return self[static_cast<std::size_t>(l)]; };
  const double req = static_cast<double>(std::max<std::size_t>(1, rc.requests));
  auto per = [&](double v) { return v / req; };
  const double layer_sum =
      layer(Layer::kStage1) + layer(Layer::kTree) + layer(Layer::kInterval);
  const pr::instr::OpCounts total_ops = rc.ops.total();
  const auto& iv = rc.interval;
  const double roots = static_cast<double>(iv.intervals_solved);
  auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const std::uint64_t service_requests = s1.requests - s0.requests;

  std::vector<Metric> metrics = {
      {"stage1.s", per(layer(Layer::kStage1)), "s"},
      {"stage1.bitcost",
       per(d(rc.ops[pr::instr::Phase::kRemainder].bit_cost())), "bitop/req"},
      {"stage1.modular_share",
       ratio(d(rc.stage1_modular), d(rc.stage1_runs)), "ratio"},
      {"modular.images", per(d(rc.modular.images)), "count/req"},
      {"modular.combines", per(d(rc.modular.combines)), "count/req"},
      {"modular.fallbacks", per(d(rc.modular.fallbacks)), "count/req"},
      {"modular.ntt_transforms", per(d(rc.modular.ntt_transforms)),
       "count/req"},
      {"modular.crt_limbs", per(d(rc.modular.crt_limbs)), "count/req"},
      {"tree.combine_s", per(layer(Layer::kTree)), "s"},
      {"tree.nodes", per(d(rc.combines)), "count/req"},
      {"tree.bitcost", per(d(rc.ops[pr::instr::Phase::kTreePoly].bit_cost())),
       "bitop/req"},
      {"interval.s", per(layer(Layer::kInterval)), "s"},
      {"interval.roots", per(roots), "count/req"},
      {"interval.evals_per_root", ratio(d(iv.total_evals()), roots), "ratio"},
      {"interval.sieve_evals", per(d(iv.sieve_evals)), "count/req"},
      {"interval.bisect_evals", per(d(iv.bisect_evals)), "count/req"},
      {"interval.newton_evals", per(d(iv.newton_evals)), "count/req"},
      {"interval.fallback_bisects", per(d(iv.fallback_bisects)), "count/req"},
      {"sched.wall_s", per(sc.wall_s), "s"},
      {"sched.exec_s", per(sc.exec_s), "s"},
      {"sched.idle_s", per(sc.idle_s), "s"},
      {"sched.lock_wait_s", per(sc.lock_wait_s), "s"},
      {"sched.setup_s", per(sc.setup_s), "s"},
      {"sched.tasks", per(d(sc.tasks)), "count/req"},
      {"sched.steals", per(d(sc.steals)), "count/req"},
      {"sched.utilization", ratio(sc.exec_s, threads * sc.wall_s), "ratio"},
      {"sched.work_inflation", ratio(sc.exec_s, layer_sum), "ratio"},
      {"service.parse_s",
       per(log.self_seconds(Track::kReplay, "service.parse_request")), "s"},
      {"service.hit_ratio",
       ratio(d((s1.hits_total()) - s0.hits_total()), d(service_requests)),
       "ratio"},
      {"service.misses", per(d(s1.misses - s0.misses)), "count/req"},
      {"service.hits_full", per(d(s1.hits_full - s0.hits_full)), "count/req"},
      {"service.dedup",
       per(d(s1.batch_dedup - s0.batch_dedup + s1.dedup_waits -
             s0.dedup_waits)),
       "count/req"},
      {"service.batch_runs", per(d(s1.batch_runs - s0.batch_runs)),
       "count/req"},
      {"service.batch_fallbacks",
       per(d(s1.batch_fallbacks - s0.batch_fallbacks)), "count/req"},
      {"service.evictions", per(d(s1.evictions - s0.evictions)), "count/req"},
      {"bigint.mults", per(d(total_ops.mul_count)), "count/req"},
      {"bigint.mul_bitcost", per(d(total_ops.mul_bits)), "bitop/req"},
      {"bigint.allocs", per(d(total_ops.alloc_count)), "count/req"},
      {"other.s", per(one_pass.seconds - layer_sum), "s"},
      {"trace.overhead_ratio", ratio(replay.seconds, one_pass.seconds),
       "ratio"},
      {"trace.requests", req, "count"},
      {"failed_ratio",
       ratio(d(gate.failed), static_cast<double>(attempted)), "ratio"},
  };

  std::printf("traced: %zu requests in %zu calls (%zu cold); pool service "
              "%.3f s, 1-thread service %.3f s, scheduler re-run %.3f s "
              "(%zu pool runs, %zu wave fallbacks), replay %.3f s\n",
              rc.requests, pool_pass.calls, rc.cold, pool_pass.seconds,
              one_pass.seconds, sched.seconds, sc.runs, sc.fallbacks,
              replay.seconds);
  report_gate(gate);
  const ProbeResult probe = probe_and_report(pool, o, gate);
  metrics.push_back({"probe.complex_rejected", d(probe.rejected), "count"});
  std::printf("replay self time per request, by layer:\n");
  for (std::size_t l = 0; l < kNumLayers; ++l) {
    std::printf("  %-10s %12.6f s\n", layer_name(static_cast<Layer>(l)),
                per(self[l]));
  }
  std::printf("1-thread service %.6f s/request = stage1.s + tree.combine_s + "
              "interval.s (%.6f s) + other.s (%.6f s)\n",
              per(one_pass.seconds), per(layer_sum),
              per(one_pass.seconds - layer_sum));
  std::printf("per-layer metrics:\n");
  print_metrics(metrics);

  if (!o.trace_out.empty()) {
    std::ofstream os(o.trace_out);
    log.write_chrome_trace(os, provenance(o, threads));
    if (!os) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   o.trace_out.c_str());
      return 1;
    }
    std::printf("trace: %zu spans written to %s\n", log.spans().size(),
                o.trace_out.c_str());
  }
  print_result(gate, attempted, metrics);
  return gate.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options o = parse_options(argc, argv);
  const int threads = pool_threads();
  Stream stream(o.workload, o.seed, o.tiny, kLookahead);
  const Services svc = set_up(o, stream.service_mu(), threads);
  print_provenance(provenance(o, threads));
  if (o.setup_only) {
    std::printf("{\"setup_s\": %s}\n", num(svc.setup_s).c_str());
    return 0;
  }
  try {
    warm_baseline(o, *svc.one);
    return o.trace ? run_traced(o, stream, *svc.pool, *svc.one, threads)
                   : run_untraced(o, stream, *svc.pool, *svc.one, threads,
                                  svc.setup_s);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
