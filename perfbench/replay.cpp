#include "replay.hpp"

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baseline/sturm_finder.hpp"
#include "core/parallel_driver.hpp"
#include "core/tree.hpp"
#include "core/tree_builder.hpp"
#include "modular/modular_prs.hpp"
#include "poly/bounds.hpp"
#include "poly/remainder_sequence.hpp"
#include "poly/squarefree.hpp"
#include "sched/task_graph.hpp"
#include "sched/task_pool.hpp"
#include "service/canonical.hpp"
#include "support/error.hpp"

namespace perfbench {

namespace {

using pr::service::CacheOutcome;

pr::instr::ModularCounts operator-(const pr::instr::ModularCounts& a,
                                   const pr::instr::ModularCounts& b) {
  pr::instr::ModularCounts d;
  d.primes_used = a.primes_used - b.primes_used;
  d.images = a.images - b.images;
  d.bad_primes = a.bad_primes - b.bad_primes;
  d.crt_values = a.crt_values - b.crt_values;
  d.crt_limbs = a.crt_limbs - b.crt_limbs;
  d.combines = a.combines - b.combines;
  d.fallbacks = a.fallbacks - b.fallbacks;
  d.ntt_transforms = a.ntt_transforms - b.ntt_transforms;
  d.ntt_points = a.ntt_points - b.ntt_points;
  return d;
}

pr::BigInt linear_root(const pr::Poly& p, std::size_t mu) {
  return pr::BigInt::cdiv(-(p.coeff(0) << mu), p.coeff(1));
}

/// The sequential driver (RealRootFinder::find, paper strategy), step by
/// step through public functions, one span per step.
pr::RootReport replay_cold(const pr::Poly& canonical,
                           const pr::RootFinderConfig& cfg, int request,
                           SpanLog& log, ReplayCounts& counts) {
  pr::check_arg(cfg.strategy == pr::FinderStrategy::kPaper,
                "replay: only the paper strategy is replayed");
  const std::size_t mu = cfg.mu_bits;
  pr::RootReport report;
  report.mu = mu;
  report.degree = canonical.degree();

  pr::Poly work;
  {
    Span s(log, "primitive_part", Layer::kOther, Track::kReplay, request);
    work = canonical.primitive_part();
  }
  std::vector<pr::SquarefreeFactor> factors;
  bool reduced = false;
  bool fell_back = false;

  const auto compute_rs = [&](const pr::Poly& q) {
    Span s(log, "stage1.remainder_sequence", Layer::kStage1, Track::kReplay,
           request);
    counts.stage1_runs += 1;
    if (cfg.modular.enabled) {
      auto rs = pr::modular::compute_remainder_sequence_multimodular(
          q, cfg.modular);
      if (rs) {
        counts.stage1_modular += 1;
        return std::move(*rs);
      }
    }
    return pr::compute_remainder_sequence(q);
  };
  const auto reduce_to_squarefree = [&] {
    Span s(log, "squarefree", Layer::kOther, Track::kReplay, request);
    factors = pr::squarefree_decompose(work);
    reduced = true;
    work = pr::squarefree_part(work);
  };
  const auto bound = [&] {
    Span s(log, "root_bound", Layer::kOther, Track::kReplay, request);
    report.bound_pow2 = pr::root_bound_pow2(work);
  };
  const auto run_tree = [&](const pr::RemainderSequence& rs) {
    pr::Tree tree(work.degree());
    const pr::BigInt bound_scaled = pr::BigInt::pow2(report.bound_pow2 + mu);
    for (int idx : tree.postorder()) {
      const pr::TreeNode& nd = tree.node(idx);
      if (!nd.empty() && !nd.leaf() && !nd.spine(tree.degree())) {
        counts.combines += 1;
      }
      Span s(log, "tree.node_poly", Layer::kTree, Track::kReplay, request);
      pr::compute_node_poly(tree, idx, rs, &cfg.modular);
    }
    for (int idx : tree.postorder()) {
      Span s(log, "interval.node_roots", Layer::kInterval, Track::kReplay,
             request);
      pr::compute_node_roots(tree, idx, mu, bound_scaled, cfg.solver,
                             &counts.interval);
    }
    report.roots = tree.node(tree.root_index()).roots;
  };

  if (work.degree() == 1) {
    bound();
    report.roots = {linear_root(work, mu)};
  } else {
    try {
      pr::RemainderSequence rs = compute_rs(work);
      if (rs.extended()) {
        reduce_to_squarefree();
        if (work.degree() == 1) {
          bound();
          report.roots = {linear_root(work, mu)};
          rs.F.clear();
        } else {
          rs = compute_rs(work);
          pr::check_internal(!rs.extended(),
                             "squarefree input yielded an extended sequence");
        }
      }
      if (report.roots.empty() && work.degree() >= 2) {
        if (pr::real_root_count(rs) != work.degree()) {
          throw pr::NonNormalSequence("input has non-real roots");
        }
        bound();
        run_tree(rs);
      }
    } catch (const pr::NonNormalSequence&) {
      if (!cfg.allow_sturm_fallback) throw;
      fell_back = true;
      if (!reduced) reduce_to_squarefree();
      bound();
      Span s(log, "sturm_fallback", Layer::kOther, Track::kReplay, request);
      pr::IntervalStats fallback_stats;
      report.roots =
          pr::sturm_find_roots(work, mu, cfg.solver, &fallback_stats);
    }
  }
  report.squarefree_reduced = reduced;
  report.used_sturm_fallback = fell_back;
  report.distinct_roots = work.degree();
  if (reduced) {
    Span s(log, "multiplicities", Layer::kOther, Track::kReplay, request);
    report.multiplicities =
        pr::detail::assign_multiplicities(report.roots, mu, factors);
  } else {
    report.multiplicities.assign(report.roots.size(), 1);
  }
  return report;
}

Answer ok_answer(pr::RootReport report, CacheOutcome outcome) {
  Answer a;
  a.present = true;
  a.ok = true;
  a.report = std::move(report);
  a.outcome = outcome;
  return a;
}

}  // namespace

PassResult replay_pass(Stream& stream, const PassResult& measured,
                       const pr::RootFinderConfig& finder, SpanLog& log,
                       ReplayCounts& counts) {
  PassResult out;
  out.answers.resize(stream.num_requests());
  std::map<int, pr::RootReport> store;  // by input
  const pr::instr::PhaseCounts ops0 = pr::instr::aggregate();
  const pr::instr::ModularCounts mod0 = pr::instr::modular_counts();
  const double t0 = log.now();

  for (std::size_t c = 0; c < measured.calls; ++c) {
    const double call_start = log.now();
    for (int r : stream.call(c).requests) {
      const Request& req = stream.request(r);
      const Answer& seen = measured.answers[static_cast<std::size_t>(r)];
      Span request_span(log, "request", Layer::kOther, Track::kReplay, r);
      counts.requests += 1;
      pr::service::CanonicalRequest creq;
      {
        Span s(log, "service.parse_request", Layer::kService, Track::kReplay,
               r);
        creq = pr::service::parse_request(stream.input(req.input).text,
                                          req.mu, finder.strategy);
      }
      // A hit (or a line the batch deduplicated) copies the answer the
      // replay already holds; everything else is a cold solve.
      auto it = store.find(req.input);
      const bool hit = seen.deduplicated ||
                       (seen.ok && seen.outcome != CacheOutcome::kMiss);
      Answer& a = out.answers[static_cast<std::size_t>(r)];
      if (hit && it != store.end() && it->second.mu == req.mu) {
        a = ok_answer(it->second, CacheOutcome::kHitFull);
        continue;
      }
      pr::RootFinderConfig cfg = finder;
      cfg.mu_bits = req.mu;
      counts.cold += 1;
      pr::RootReport report = replay_cold(creq.canonical, cfg, r, log, counts);
      {
        // The service's cache insert also derives the polynomial a later
        // refine would sharpen; that work is part of a cold request.
        Span s(log, "service.cache_insert", Layer::kService, Track::kReplay,
               r);
        const pr::Poly refine_poly =
            (report.squarefree_reduced || report.used_sturm_fallback)
                ? pr::squarefree_part(creq.canonical)
                : creq.canonical;
        static_cast<void>(refine_poly);
      }
      store[req.input] = report;
      a = ok_answer(std::move(report), CacheOutcome::kMiss);
    }
    const double latency = log.now() - call_start;
    out.call_seconds.push_back(latency);
    out.calls += 1;
  }
  out.seconds = log.now() - t0;
  counts.ops = pr::instr::aggregate() - ops0;
  counts.modular = pr::instr::modular_counts() - mod0;
  return out;
}

namespace {

void add_stats(const pr::TaskPoolStats& st, SchedCounts& counts) {
  counts.runs += 1;
  counts.tasks += st.tasks_run;
  counts.steals += st.steals;
  counts.wall_s += st.wall_seconds;
  counts.setup_s += st.setup_seconds;
  counts.exec_s += st.total_exec_seconds();
  counts.idle_s += st.total_idle_seconds();
  counts.lock_wait_s += st.total_lock_wait_seconds();
}

/// Task spans of one pool run on per-worker tracks, placed so that the
/// execution phase ends where the enclosing span ends.
template <typename KindOf>
void add_worker_spans(SpanLog& log, const pr::TaskPoolStats& st, int request,
                      double end, KindOf kind_of) {
  constexpr std::size_t kMaxSpans = 400000;
  if (log.spans().size() + st.timeline.entries.size() > kMaxSpans) return;
  const double origin = end - st.wall_seconds;
  for (const pr::TimelineEntry& e : st.timeline.entries) {
    log.add(pr::task_kind_name(kind_of(e.task)), Layer::kSched,
            static_cast<Track>(static_cast<int>(Track::kWorkers) + e.worker),
            request, origin + e.start, origin + e.finish);
  }
}

Answer rejected(const std::string& why) {
  Answer a;
  a.present = true;
  a.error = why;
  return a;
}

/// One cold request through find_real_roots_parallel, as
/// RootService::cold_report runs it.
Answer parallel_solve(const pr::Poly& canonical,
                      const pr::RootFinderConfig& cfg,
                      const pr::ParallelConfig& parallel, int request,
                      SpanLog& log, SchedCounts& counts) {
  pr::ParallelRunResult res;
  int id = -1;
  try {
    Span s(log, "sched.find_real_roots_parallel", Layer::kSched,
           Track::kSched, request);
    id = s.id();
    res = pr::find_real_roots_parallel(canonical, cfg, parallel);
  } catch (const pr::Error& e) {
    return rejected(e.what());
  }
  if (!res.used_sequential_fallback) {
    add_stats(res.pool, counts);
    add_worker_spans(log, res.pool, request,
                     log.spans()[static_cast<std::size_t>(id)].end,
                     [&](pr::TaskId t) {
                       return res.trace.tasks[static_cast<std::size_t>(t)]
                           .kind;
                     });
  }
  return ok_answer(res.report, CacheOutcome::kMiss);
}

}  // namespace

PassResult sched_pass(Stream& stream, const PassResult& measured,
                      const pr::service::ServiceConfig& config, SpanLog& log,
                      SchedCounts& counts) {
  PassResult out;
  out.answers.resize(stream.num_requests());
  const double t0 = log.now();
  for (std::size_t c = 0; c < measured.calls; ++c) {
    const Call& call = stream.call(c);
    const double call_start = log.now();
    // The cold requests of this call, in the service's unit order:
    // first occurrences that the cache did not answer.
    std::vector<int> cold;
    std::vector<pr::Poly> canonical;
    for (int r : call.requests) {
      const Answer& seen = measured.answers[static_cast<std::size_t>(r)];
      if (seen.deduplicated ||
          (seen.ok && seen.outcome != CacheOutcome::kMiss)) {
        continue;
      }
      const Request& req = stream.request(r);
      pr::Poly p = pr::service::parse_request(stream.input(req.input).text,
                                              req.mu, config.finder.strategy)
                       .canonical;
      if (p.degree() < 2) continue;  // solved inline, as the service does
      cold.push_back(r);
      canonical.push_back(std::move(p));
    }
    if (cold.empty()) continue;

    if (!call.batch) {
      pr::RootFinderConfig cfg = config.finder;
      cfg.mu_bits = stream.request(cold[0]).mu;
      out.answers[static_cast<std::size_t>(cold[0])] = parallel_solve(
          canonical[0], cfg, config.parallel, cold[0], log, counts);
    } else {
      // One shared TaskGraph per wave, as RootService::run_batch stages it.
      pr::TaskGraph graph;
      std::vector<std::unique_ptr<pr::StagedParallelRun>> staged;
      pr::TaskPoolStats stats;
      bool shared_ok = true;
      int id = -1;
      try {
        Span s(log, "sched.staged_wave", Layer::kSched, Track::kSched,
               cold[0]);
        id = s.id();
        int piece_offset = 0;
        for (std::size_t i = 0; i < cold.size(); ++i) {
          pr::RootFinderConfig cfg = config.finder;
          cfg.mu_bits = stream.request(cold[i]).mu;
          staged.push_back(pr::stage_parallel_run(
              canonical[i], cfg, config.parallel, graph, piece_offset,
              cold.size() > 1));
          piece_offset += staged.back()->num_pieces();
        }
        graph.validate();
        pr::TaskPool pool(config.parallel.num_threads,
                          config.parallel.pool_policy);
        stats = pool.run(graph);
      } catch (const pr::Error&) {
        shared_ok = false;
      }
      if (shared_ok) {
        add_stats(stats, counts);
        add_worker_spans(log, stats, cold[0],
                         log.spans()[static_cast<std::size_t>(id)].end,
                         [&](pr::TaskId t) { return graph.task(t).kind; });
        for (std::size_t i = 0; i < cold.size(); ++i) {
          Answer& a = out.answers[static_cast<std::size_t>(cold[i])];
          try {
            a = ok_answer(pr::finish_staged_run(*staged[i]),
                          CacheOutcome::kMiss);
          } catch (const pr::Error& e) {
            a = rejected(e.what());
          }
        }
      } else {
        // One failing tree stops the shared run; run_batch then solves
        // the wave's lines one by one.
        counts.fallbacks += 1;
        staged.clear();
        for (std::size_t i = 0; i < cold.size(); ++i) {
          pr::RootFinderConfig cfg = config.finder;
          cfg.mu_bits = stream.request(cold[i]).mu;
          out.answers[static_cast<std::size_t>(cold[i])] = parallel_solve(
              canonical[i], cfg, config.parallel, cold[i], log, counts);
        }
      }
    }
    out.call_seconds.push_back(log.now() - call_start);
    out.calls += 1;
  }
  out.seconds = log.now() - t0;
  return out;
}

}  // namespace perfbench
