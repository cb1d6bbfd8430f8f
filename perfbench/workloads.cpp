#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <utility>

#include "gen/hard_polys.hpp"
#include "gen/matrix_polys.hpp"
#include "perfbench.hpp"
#include "support/prng.hpp"
#include "verify/certificate.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Precisions of the workloads, in bits.  54 is one bit above a double;
// 107 is the paper's 32 decimal digits.
constexpr std::size_t kJacobiMu = 54;
constexpr std::size_t kPaperMu = 107;

/// Bit-identity of two answers: roots, multiplicities and scale.
bool same_answer(const pr::RootReport& a, const pr::RootReport& b) {
  return a.mu == b.mu && a.roots == b.roots &&
         a.multiplicities == b.multiplicities;
}

}  // namespace

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kJacobiCold: return "jacobi-cold";
    case Workload::kPaperStream: return "paper-stream";
  }
  return "?";
}

Stream::Stream(Workload w, std::uint64_t seed, bool tiny,
               std::size_t lookahead)
    : workload_(w), tiny_(tiny), seed_(seed), lookahead_(lookahead) {}

std::size_t Stream::service_mu() const {
  return workload_ == Workload::kJacobiCold ? kJacobiMu : kPaperMu;
}

const Call& Stream::call(std::size_t i) {
  if (calls_.size() <= i) {
    while (calls_.size() <= i + lookahead_) generate_next();
    build_inputs();
  }
  return calls_[i];
}

int Stream::add_input(Input::Kind kind, int size, std::uint64_t seed) {
  Input in;
  in.kind = kind;
  in.size = size;
  in.seed = seed;
  inputs_.push_back(std::move(in));
  return static_cast<int>(inputs_.size() - 1);
}

int Stream::add_request(int input, std::size_t mu) {
  requests_.push_back({input, mu});
  return static_cast<int>(requests_.size() - 1);
}

void Stream::build_inputs() {
  const std::size_t end = inputs_.size();
  std::atomic<std::size_t> next{built_};
  auto worker = [&] {
    for (std::size_t k = next++; k < end; k = next++) {
      Input& in = inputs_[k];
      pr::Prng rng(in.seed);
      const auto n = static_cast<std::size_t>(in.size);
      switch (in.kind) {
        case Input::Kind::kJacobi:
          in.poly = pr::random_jacobi_poly(n, 9, rng);
          break;
        case Input::Kind::kPaper:
          in.poly = pr::paper_input(n, rng).poly;
          break;
      }
      in.text = in.poly.to_string();
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < pool_threads() && end - built_ > 1; ++t) {
    pool.emplace_back(worker);
  }
  worker();
  for (auto& t : pool) t.join();
  built_ = end;
}

void Stream::generate_next() {
  // Each call draws from its own generator, seeded from the stream seed
  // and the call index, so a prefix of the stream never depends on how
  // far the stream was generated.
  pr::Prng rng(seed_ * 0x9e3779b97f4a7c15ULL + calls_.size() + 1);
  Call call;
  switch (workload_) {
    case Workload::kJacobiCold: {
      // Degrees 79..81 in a seeded rotation: every three consecutive
      // calls hold each degree once, so a run's cost mix does not depend
      // on the seed.  Around degree 80 a run holds some 35 solves, and
      // certifying them fits the benchmark's time budget.
      const int n = (tiny_ ? 16 : 79) +
                    static_cast<int>((seed_ + calls_.size()) % 3);
      const int in = add_input(Input::Kind::kJacobi, n, rng.next());
      call.requests.push_back(add_request(in, kJacobiMu));
      break;
    }
    case Workload::kPaperStream: {
      // Waves of 8 lines, alternately a fresh paper input and a repeat of
      // an earlier paper line.  Fresh degrees step through 30..70 with
      // stride 20, so that every wave holds a similar mix of small and
      // large inputs.
      call.batch = true;
      const int width = tiny_ ? 4 : 8;
      for (int k = 0; k < width; ++k) {
        const std::size_t line = lines_++;
        int in = -1;
        if (line % 2 == 1) {
          in = paper_lines_[rng.below(paper_lines_.size())];
        } else {
          const std::size_t step = (seed_ + 4 * (line / 2)) % 9;
          const int n = static_cast<int>(tiny_ ? 10 + step / 2 : 30 + 5 * step);
          in = add_input(Input::Kind::kPaper, n, rng.next());
          paper_lines_.push_back(in);
        }
        call.requests.push_back(add_request(in, kPaperMu));
      }
      break;
    }
  }
  calls_.push_back(std::move(call));
}

pr::service::ServiceConfig service_config(int threads, std::size_t mu) {
  pr::service::ServiceConfig cfg;
  cfg.parallel.num_threads = threads;
  cfg.finder.mu_bits = mu;
  return cfg;
}

int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return n;
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

int pool_threads() { return std::min(4, available_cpus()); }

double send_call(pr::service::RootService& service, Stream& stream,
                 const Call& call, PassResult& out) {
  std::vector<pr::service::ServiceResult> results;
  double latency = 0;
  if (call.batch) {
    std::vector<std::string> lines;
    lines.reserve(call.requests.size());
    for (int r : call.requests) {
      lines.push_back(stream.input(stream.request(r).input).text);
    }
    const auto t0 = Clock::now();
    results = service.run_batch(lines);
    latency = since(t0);
  } else {
    const Request& req = stream.request(call.requests.front());
    const std::string& text = stream.input(req.input).text;
    const auto t0 = Clock::now();
    results.push_back(service.submit(text, req.mu));
    latency = since(t0);
  }
  if (out.answers.size() < stream.num_requests()) {
    out.answers.resize(stream.num_requests());
  }
  for (std::size_t k = 0; k < call.requests.size(); ++k) {
    Answer& a = out.answers[static_cast<std::size_t>(call.requests[k])];
    a.present = true;
    a.ok = results[k].ok;
    a.error = std::move(results[k].error);
    a.report = std::move(results[k].report);
    a.outcome = results[k].outcome;
    a.deduplicated = results[k].deduplicated;
  }
  out.call_seconds.push_back(latency);
  out.calls += 1;
  out.seconds += latency;
  return latency;
}


GateResult run_gate(const Stream& stream, const PassResult& measured,
                    const std::vector<const PassResult*>& others,
                    int threads) {
  const auto t0 = Clock::now();
  GateResult g;
  std::vector<const PassResult*> passes{&measured};
  passes.insert(passes.end(), others.begin(), others.end());

  // The first answer to each (input, mu) is the reference; every other
  // answer to it, on any pass, must be bit-identical.
  std::map<std::pair<int, std::size_t>, const pr::RootReport*> reference;
  std::vector<bool> bad(stream.num_requests(), false);
  for (const PassResult* pass : passes) {
    for (std::size_t r = 0; r < pass->answers.size(); ++r) {
      const Answer& a = pass->answers[r];
      if (!a.present || !a.ok) continue;
      const Request& req = stream.request(static_cast<int>(r));
      auto [it, fresh] =
          reference.try_emplace({req.input, req.mu}, &a.report);
      if (fresh) continue;
      g.compared += 1;
      if (!same_answer(*it->second, a.report)) {
        bad[r] = true;
        g.correct = false;
        g.problems.push_back("request " + std::to_string(r) +
                             ": answers differ across paths");
      }
    }
  }

  // Certify each distinct answer, in parallel: certification costs more
  // than the solve, and it runs after timing.
  std::vector<std::pair<std::pair<int, std::size_t>, const pr::RootReport*>>
      items(reference.begin(), reference.end());
  std::vector<char> valid(items.size(), 0);
  std::vector<std::string> why(items.size());
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t i = next++; i < items.size(); i = next++) {
      try {
        const pr::RootCertificate cert =
            pr::certify(stream.input(items[i].first.first).poly,
                        *items[i].second);
        valid[i] = cert.valid ? 1 : 0;
        if (!cert.valid && !cert.failures.empty()) why[i] = cert.failures[0];
      } catch (const std::exception& e) {
        why[i] = e.what();
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < std::max(1, threads); ++t) pool.emplace_back(worker);
  worker();
  for (auto& t : pool) t.join();

  std::map<std::pair<int, std::size_t>, bool> key_valid;
  for (std::size_t i = 0; i < items.size(); ++i) {
    key_valid[items[i].first] = valid[i] != 0;
    g.certified += 1;
    if (!valid[i]) {
      g.correct = false;
      g.problems.push_back("input " + std::to_string(items[i].first.first) +
                           " at mu " + std::to_string(items[i].first.second) +
                           ": certificate failed: " + why[i]);
    }
  }

  // Attempted requests are those of the measured pass.  A rejection is a
  // failure, and so is an answer that is wrong or differs across paths.
  for (std::size_t r = 0; r < measured.answers.size(); ++r) {
    const Answer& a = measured.answers[r];
    if (!a.present) continue;
    if (!a.ok) {
      g.rejected += 1;
      g.failed += 1;
      continue;
    }
    const Request& req = stream.request(static_cast<int>(r));
    if (bad[r] || !key_valid[{req.input, req.mu}]) g.failed += 1;
  }
  g.seconds = since(t0);
  return g;
}

ProbeResult run_complex_probe(pr::service::RootService& service,
                              std::uint64_t seed, bool tiny) {
  ProbeResult out;
  for (std::size_t k = 0; k < kProbeInputs; ++k) {
    // The first probe is a fixed reproducer; the others come from the seed.
    pr::Prng rng(k == 0 ? 77 : seed * 0x2545f4914f6cdd1dULL + k);
    const pr::Poly poly = pr::random_squarefree_poly(tiny ? 10 : 24, 16, rng);
    const pr::service::ServiceResult res =
        service.submit(poly.to_string(), kPaperMu);
    out.attempted += 1;
    if (!res.ok) {
      out.rejected += 1;
      if (out.first_error.empty()) out.first_error = res.error;
      continue;
    }
    std::string why;
    try {
      const pr::RootCertificate cert = pr::certify(poly, res.report);
      if (!cert.valid) {
        why = cert.failures.empty() ? std::string("?") : cert.failures[0];
      }
    } catch (const std::exception& e) {
      why = e.what();
    }
    if (!why.empty()) {
      out.correct = false;
      out.problems.push_back("complex-root probe " + std::to_string(k) +
                             ": certificate failed: " + why);
    }
  }
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB on Linux
}

}  // namespace perfbench
