// End-to-end RootService benchmark: shared types.
//
// The benchmark drives generated request traffic through
// pr::service::RootService -- the entry point users call -- from one
// closed-loop client, checks every answer, and (in a separate traced pass)
// splits the time into the library's layers by timing calls into each
// layer's public functions from this directory's own code.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/root_finder.hpp"
#include "service/root_service.hpp"

namespace perfbench {

enum class Workload { kJacobiCold, kPaperStream };

const char* workload_name(Workload w);

struct Options {
  Workload workload = Workload::kJacobiCold;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Small inputs and short passes, for the benchmark's self-test.
  bool tiny = false;
  /// Self-test seam: corrupts one answer before the correctness gate.
  bool tamper = false;
  /// Measure set-up only (one sample of setup_s) and exit.
  bool setup_only = false;
  std::string trace_out;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

/// One distinct polynomial of a workload, with the text sent to the
/// service.  The recipe is drawn when the stream is extended; the
/// polynomial is generated from it afterwards, several at a time.
struct Input {
  enum class Kind { kJacobi, kPaper };
  Kind kind = Kind::kJacobi;
  int size = 0;             ///< degree
  std::uint64_t seed = 0;   ///< seeds the generator of this input alone
  pr::Poly poly;
  std::string text;
};

/// One request: which input, at which precision.
struct Request {
  int input = 0;
  std::size_t mu = 0;
};

/// One client call: a single submit(), or one run_batch() wave.
struct Call {
  std::vector<int> requests;
  bool batch = false;
};

/// The request stream of a workload, generated on demand from the seed:
/// the same seed gives the same inputs in the same order.
class Stream {
 public:
  /// `lookahead` more calls are generated whenever the stream grows, so
  /// that their polynomials are built in parallel between timed calls.
  Stream(Workload w, std::uint64_t seed, bool tiny, std::size_t lookahead);

  /// The i-th call, generating it (and its inputs) on first use.
  const Call& call(std::size_t i);
  const Request& request(int r) const { return requests_[index(r)]; }
  const Input& input(int k) const { return inputs_[index(k)]; }
  std::size_t num_requests() const { return requests_.size(); }
  /// The precision run_batch() requests use (ServiceConfig::finder.mu_bits).
  std::size_t service_mu() const;

 private:
  static std::size_t index(int i) { return static_cast<std::size_t>(i); }
  void generate_next();
  void build_inputs();
  int add_input(Input::Kind kind, int size, std::uint64_t seed);
  int add_request(int input, std::size_t mu);

  Workload workload_;
  bool tiny_;
  std::uint64_t seed_;
  std::size_t lookahead_;
  std::size_t built_ = 0;  ///< inputs_[0, built_) have their polynomial
  std::vector<Input> inputs_;
  std::vector<Request> requests_;
  std::vector<Call> calls_;
  // paper-stream: lines so far, and the fresh paper lines a repeat copies.
  std::size_t lines_ = 0;
  std::vector<int> paper_lines_;
};

/// A service's answer to one request, plus how it was produced.
struct Answer {
  bool present = false;  ///< the request was sent on this pass
  bool ok = false;
  std::string error;
  pr::RootReport report;
  pr::service::CacheOutcome outcome = pr::service::CacheOutcome::kMiss;
  bool deduplicated = false;
};

/// One pass of calls through one service.
struct PassResult {
  std::vector<Answer> answers;      ///< indexed by request id
  std::vector<double> call_seconds; ///< latency of each call, in order
  std::size_t calls = 0;
  double seconds = 0;               ///< sum of call latencies
};

/// Sends one call; fills `out.answers` for its requests and returns the
/// call's latency in seconds.  Stream generation happens between calls
/// and is never timed.
double send_call(pr::service::RootService& service, Stream& stream,
                 const Call& call, PassResult& out);

/// The service configuration a user sets: thread count and precision.
pr::service::ServiceConfig service_config(int threads, std::size_t mu);

/// Pool threads the benchmark uses: min(4, CPUs available).
int pool_threads();
int available_cpus();

struct GateResult {
  bool correct = true;
  std::size_t failed = 0;        ///< rejected, wrong or mismatching
  std::size_t rejected = 0;      ///< !ok on the measured pass
  std::size_t certified = 0;     ///< distinct answers certified
  std::size_t compared = 0;      ///< cross-path comparisons made
  double seconds = 0;            ///< time the gate took
  std::vector<std::string> problems;
};

/// The correctness gate.  `measured` is the pass whose requests count as
/// attempted; `others` are further passes over a prefix of the same
/// requests (1-thread service, traced replay).  Every answer to the same
/// (input, mu) must be bit-identical across all passes, and each distinct
/// answer is certified with pr::certify on `threads` threads.
GateResult run_gate(const Stream& stream, const PassResult& measured,
                    const std::vector<const PassResult*>& others,
                    int threads);

/// Inputs of the complex-root probe.
constexpr std::size_t kProbeInputs = 8;

/// The complex-root probe keeps a known defect in view without making it a
/// workload operation: the pool-thread parallel driver rejects many
/// polynomials with complex roots ("unsorted interleave") that the
/// sequential driver answers.  After timing, kProbeInputs
/// random_squarefree_poly(24, 16) inputs go to the pool-thread service
/// one submit() each; rejections are counted, and every accepted answer
/// is certified.
struct ProbeResult {
  std::size_t attempted = 0;
  std::size_t rejected = 0;
  std::string first_error;
  bool correct = true;  ///< every accepted answer certified
  std::vector<std::string> problems;
};

ProbeResult run_complex_probe(pr::service::RootService& service,
                              std::uint64_t seed, bool tiny);

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

}  // namespace perfbench
