#include "core/parallel_driver.hpp"

#include <algorithm>
#include <array>
#include <memory>

#include "baseline/sturm_finder.hpp"
#include "core/interval_stage.hpp"
#include "core/scaled_point.hpp"
#include "core/tree.hpp"
#include "core/tree_builder.hpp"
#include "instr/phase.hpp"
#include "isolate/isolate.hpp"
#include "modular/modular_combine.hpp"
#include "modular/modular_prs.hpp"
#include "poly/bounds.hpp"
#include "poly/remainder_sequence.hpp"
#include "poly/squarefree.hpp"
#include "support/error.hpp"
#include "verify/certificate.hpp"

namespace pr {

namespace {

/// The remainder sequence vanished early: the input has repeated roots.
/// The driver catches this one NonNormalSequence and restages the graph on
/// the squarefree part; every other one goes to the Sturm fallback.
class RepeatedRoots : public NonNormalSequence {
 public:
  using NonNormalSequence::NonNormalSequence;
};

/// All shared mutable state of one parallel run.  Every field is written
/// by exactly one task and read only by tasks ordered after it, so no
/// locking is needed beyond the pool's queue synchronization.
struct RunState {
  Poly work;                 // F_0 (primitive, assumed squarefree/normal)
  int n = 0;
  std::size_t mu = 0;
  BigInt bound_scaled;
  IntervalSolverConfig solver;

  RemainderSequence rs;
  // Staging for F_{i+1} coefficients (index: [i+1][j]).
  std::vector<std::vector<BigInt>> fstage;
  // Per-iteration quotient data of the exact coefficient tasks (valid
  // after the iteration's Q task).
  std::vector<BigInt> q0, q1, ci_sq, cprev_sq;
  // Per-operation grain staging: products of Eq. 18 ([i+1][j][0..2]).
  std::vector<std::vector<std::array<BigInt, 3>>> opstage;

  // Multimodular fast paths (see modular/): both engines expose split-phase
  // APIs precisely so this driver can schedule their phases as tasks.
  modular::ModularConfig modular;
  TaskGraph* graph = nullptr;  // the graph this run is staged into
  std::unique_ptr<modular::MultimodularPrs> mprs;

  Tree tree;
  struct NodeScratch {
    PolyMat22 w;                              // U_k * T_left
    std::vector<BigInt> points;               // sentinels + merged ys
    std::vector<InterleavePointInfo> infos;   // PREINTERVAL outputs
    std::vector<IntervalStats> stats;         // per-interval stats
    // Internal combine nodes only: the node's ten tasks (prep, four
    // first-product, four second-product, publish), and what prep made
    // for them -- U_k and s = c_k^2 c_{k-1}^2 on the exact path, the
    // ModularCombine on the modular one.
    std::array<TaskId, 10> tasks{};
    PolyMat22 u;
    BigInt s;
    std::unique_ptr<modular::ModularCombine> mcombine;
  };
  std::vector<NodeScratch> scratch;

  explicit RunState(const Poly& p) : work(p), n(p.degree()), tree(p.degree()) {
    const auto un = static_cast<std::size_t>(n);
    rs.n = n;
    rs.nstar = n;
    rs.gcd_part = Poly{1};
    rs.F.assign(un + 1, Poly{});
    rs.Q.assign(un, Poly{});
    rs.c.assign(un + 1, BigInt(1));
    fstage.assign(un + 1, {});
    q0.assign(un, BigInt());
    q1.assign(un, BigInt());
    ci_sq.assign(un, BigInt());
    cprev_sq.assign(un, BigInt());
    opstage.assign(un + 1, {});
    scratch.resize(tree.nodes().size());
  }
};

/// Publishes F_{i+1} from the staging area and checks normality.  A free
/// function over RunState (NOT a GraphBuilder member): it runs inside
/// pool tasks, which outlive the builder -- the builder is torn down as
/// soon as the graph is staged.
void finish_iteration(RunState& st, int i) {
  const auto ui = static_cast<std::size_t>(i);
  Poly next{std::move(st.fstage[ui + 1])};
  if (next.is_zero()) {
    throw RepeatedRoots("repeated roots: F_" + std::to_string(i + 1) +
                        " vanished");
  }
  if (next.degree() != st.n - i - 1) {
    throw NonNormalSequence(
        "remainder sequence is not normal (premature degree drop at F_" +
        std::to_string(i + 1) + ": degree " + std::to_string(next.degree()) +
        ", expected " + std::to_string(st.n - i - 1) + ")");
  }
  // The sequence is a Sturm chain with one degree per step, so every root
  // is real exactly when no sign variation appears at +inf: all leading
  // coefficients share one sign.  Fail at the first one that breaks it,
  // before the tree stage spends work on an input bound for Sturm.
  if (next.leading().signum() != st.rs.c[ui].signum()) {
    throw NonNormalSequence("input has non-real roots");
  }
  st.rs.c[ui + 1] = next.leading();
  st.rs.F[ui + 1] = std::move(next);
}

/// Prep task of an internal combine node: the node's one modular-vs-exact
/// decision, made at run time by the ModularCombine cost model (the one
/// modular_t_combine applies).  The exact path gets U_k and s computed
/// once for its eight entry tasks.  The modular path relabels the node's
/// tasks with the kinds of the work they now carry, so traces name what
/// ran; the pool never reads kinds, and the relabelled tasks cannot start
/// before this one finishes.
void combine_prep(RunState& st, RunState::NodeScratch& sc, int idx, int k) {
  instr::PhaseScope phase(instr::Phase::kTreePoly);
  const TreeNode& node = st.tree.node(idx);
  if (st.modular.enabled) {
    auto mc = std::make_unique<modular::ModularCombine>(
        st.tree.node(node.right).t, st.tree.node(node.left).t, st.rs, k,
        st.modular);
    if (mc->worthwhile()) {
      sc.mcombine = std::move(mc);
      constexpr TaskKind kModularKinds[10] = {
          TaskKind::kModPrep,  TaskKind::kModBlock, TaskKind::kModBlock,
          TaskKind::kModBlock, TaskKind::kModBlock, TaskKind::kModCrt,
          TaskKind::kModCrt,   TaskKind::kModCrt,   TaskKind::kModCrt,
          TaskKind::kModPublish};
      for (std::size_t t = 0; t < sc.tasks.size(); ++t) {
        st.graph->task(sc.tasks[t]).kind = kModularKinds[t];
      }
      return;
    }
  }
  const BigInt& ck = st.rs.c[static_cast<std::size_t>(k)];
  const BigInt& cp = st.rs.c[static_cast<std::size_t>(k - 1)];
  sc.u = u_matrix(st.rs, k);
  sc.s = ck * ck * cp * cp;
}

/// Builds the whole task graph for one run.  Returns the id of the root
/// node's roots-marker (the final task).
class GraphBuilder {
 public:
  GraphBuilder(RunState& st, TaskGraph& g, const ParallelConfig& pc)
      : st_(st), g_(g), pc_(pc) {}

  void build() {
    build_remainder_stage();
    build_tree_stage();
  }

 private:
  RunState& st_;
  TaskGraph& g_;
  const ParallelConfig& pc_;

  int chunk_size() const { return std::max(1, pc_.grain_chunk); }

  // mark_[k] completes when F_k (and c_k) are valid, k >= 1.
  std::vector<TaskId> mark_;
  // q_ready_[i] completes when Q_i, c_i, c_{i-1}, and the squared leading
  // coefficients for iteration i are valid, 1 <= i <= n-1.
  std::vector<TaskId> q_ready_;
  // Per-tree-node completion tasks.
  std::vector<TaskId> t_ready_;      // polynomial (and T matrix) published
  std::vector<TaskId> roots_ready_;  // roots vector complete

  void make_quotient_task(int i) {
    RunState& st = st_;
    const TaskId q = g_.add(TaskKind::kQuotient, i, [&st, i] {
      instr::PhaseScope phase(instr::Phase::kRemainder);
      const auto ui = static_cast<std::size_t>(i);
      const Poly& fprev = st.rs.F[ui - 1];
      const Poly& fcur = st.rs.F[ui];
      quotient_coeffs(fprev, fcur, st.q1[ui], st.q0[ui]);
      st.rs.Q[ui] = Poly(std::vector<BigInt>{st.q0[ui], st.q1[ui]});
      const BigInt& ci = st.rs.c[ui];
      const BigInt& cp = st.rs.c[ui - 1];
      st.ci_sq[ui] = ci * ci;
      st.cprev_sq[ui] = cp * cp;
      st.fstage[ui + 1].assign(static_cast<std::size_t>(st.n - i), BigInt());
    });
    g_.add_edge(mark_[static_cast<std::size_t>(i)], q);
    q_ready_[static_cast<std::size_t>(i)] = q;
  }

  /// Stage 1 on the multimodular engine: batched per-prime image tasks
  /// fan out with no dependencies at all, a prep barrier builds the CRT
  /// basis, each reconstruction level chains prepare -> waves -> finish
  /// (levels sequential, the Garner dots within a level fanned out), and
  /// one publish task installs the sequence (or recomputes exactly when
  /// the engine declined -- the exact path owns the extended/non-normal
  /// diagnostics, and its exceptions reach the caller's
  /// sequential-fallback handler unchanged).
  void build_modular_remainder_stage() {
    RunState& st = st_;
    const int n = st.n;
    auto& prs = *st.mprs;
    const int threads = std::max(1, pc_.num_threads);

    const auto waves = modular::crt_wave_fanout_cap(threads);
    const TaskId prep = g_.add(TaskKind::kModPrep, -1,
                               [&prs, waves] { prs.prepare_crt(waves); });
    for (std::size_t t = 0; t < prs.num_image_tasks(threads); ++t) {
      const TaskId img =
          g_.add(TaskKind::kPrimeImage, static_cast<std::int32_t>(t),
                 [&prs, t, threads] { prs.run_image_batch(t, threads); });
      g_.add_edge(img, prep);
    }
    const TaskId publish = g_.add(TaskKind::kModPublish, -1, [&st] {
      auto rs = st.mprs->finalize();
      st.mprs.reset();  // every stage-1 task has run: free the images
      RemainderSequence full =
          rs ? std::move(*rs) : compute_remainder_sequence(st.work);
      if (full.extended()) {
        throw RepeatedRoots("repeated roots detected");
      }
      if (real_root_count(full) != st.n) {
        throw NonNormalSequence("input has non-real roots");
      }
      st.rs = std::move(full);
    });
    TaskId prev = prep;
    for (std::size_t l = 1; l <= prs.num_levels(); ++l) {
      const int i = static_cast<int>(l);
      const TaskId lp = g_.add(TaskKind::kModPrep, i,
                               [&prs, i] { prs.prepare_level(i); });
      g_.add_edge(prev, lp);
      const TaskId fin = g_.add(TaskKind::kModPublish, i,
                                [&prs, i] { prs.finish_level(i); });
      for (std::size_t w = 0; w < waves; ++w) {
        const TaskId wt =
            g_.add(TaskKind::kModCrt, static_cast<std::int32_t>(w),
                   [&prs, i, w] { prs.run_crt_wave(i, w); });
        g_.add_edge(lp, wt);
        g_.add_edge(wt, fin);
      }
      prev = fin;
    }
    g_.add_edge(prev, publish);
    for (int k = 1; k <= n; ++k) mark_[static_cast<std::size_t>(k)] = publish;
    for (int i = 1; i <= n - 1; ++i) {
      q_ready_[static_cast<std::size_t>(i)] = publish;
    }
  }

  void build_remainder_stage() {
    RunState& st = st_;
    const int n = st.n;
    mark_.assign(static_cast<std::size_t>(n) + 1, -1);
    q_ready_.assign(static_cast<std::size_t>(n), -1);

    if (st.mprs != nullptr) {
      build_modular_remainder_stage();
      return;
    }

    if (pc_.grain == RemainderGrain::kSequential) {
      // One task for the whole stage (the paper's run-time option).  It
      // replaces all of st.rs, so every reader of the sequence -- F_0 and
      // F_1 included -- waits for it; there is no seed task.
      const TaskId all = g_.add(TaskKind::kCoeff, -1, [&st] {
        RemainderSequence full = compute_remainder_sequence(st.work);
        if (full.extended()) {
          throw RepeatedRoots("repeated roots detected");
        }
        if (real_root_count(full) != st.n) {
          throw NonNormalSequence("input has non-real roots");
        }
        st.rs = std::move(full);
      });
      for (int k = 1; k <= n; ++k) mark_[static_cast<std::size_t>(k)] = all;
      for (int i = 1; i <= n - 1; ++i) q_ready_[static_cast<std::size_t>(i)] = all;
      return;
    }

    const TaskId seed = g_.add(TaskKind::kSeed, 0, [&st] {
      instr::PhaseScope phase(instr::Phase::kRemainder);
      st.rs.F[0] = st.work;
      st.rs.F[1] = st.work.derivative();
      st.rs.c[0] = BigInt(st.work.leading().signum());
      st.rs.c[1] = st.rs.F[1].leading();
    });
    mark_[1] = seed;


    for (int i = 1; i <= n - 1; ++i) {
      const auto ui = static_cast<std::size_t>(i);
      if (pc_.grain == RemainderGrain::kPerIteration) {
        const TaskId it = g_.add(TaskKind::kCoeff, i, [&st, i] {
          instr::PhaseScope phase(instr::Phase::kRemainder);
          const auto uidx = static_cast<std::size_t>(i);
          const Poly& fprev = st.rs.F[uidx - 1];
          const Poly& fcur = st.rs.F[uidx];
          quotient_coeffs(fprev, fcur, st.q1[uidx], st.q0[uidx]);
          st.rs.Q[uidx] = Poly(std::vector<BigInt>{st.q0[uidx], st.q1[uidx]});
          const BigInt& ci = st.rs.c[uidx];
          const BigInt& cp = st.rs.c[uidx - 1];
          st.ci_sq[uidx] = ci * ci;
          st.cprev_sq[uidx] = cp * cp;
          st.fstage[uidx + 1].assign(static_cast<std::size_t>(st.n - i),
                                     BigInt());
          for (int j = 0; j <= st.n - i - 1; ++j) {
            st.fstage[uidx + 1][static_cast<std::size_t>(j)] = next_f_coeff(
                fprev, fcur, st.q1[uidx], st.q0[uidx], st.ci_sq[uidx],
                st.cprev_sq[uidx], static_cast<std::size_t>(j));
          }
          finish_iteration(st, i);
        });
        g_.add_edge(mark_[ui], it);
        q_ready_[ui] = it;
        mark_[ui + 1] = it;
        continue;
      }

      make_quotient_task(i);
      const TaskId marker = g_.add(TaskKind::kIterMark, i,
                                   [&st, i] { finish_iteration(st, i); });
      // Grain coarsening: fuse `chunk` consecutive coefficients into one
      // scheduled task (values are independent of the chunking; only the
      // dispatch count changes).
      const int ncoeff = n - i;  // coefficients j = 0 .. n-i-1
      const int chunk = chunk_size();
      for (int j0 = 0; j0 < ncoeff; j0 += chunk) {
        const auto b = static_cast<std::size_t>(j0);
        const auto e =
            static_cast<std::size_t>(std::min(j0 + chunk, ncoeff));
        if (pc_.grain == RemainderGrain::kPerCoefficient) {
          const TaskId c = g_.add(TaskKind::kCoeff, i, [&st, i, b, e] {
            instr::PhaseScope phase(instr::Phase::kRemainder);
            const auto uidx = static_cast<std::size_t>(i);
            for (std::size_t uj = b; uj < e; ++uj) {
              st.fstage[uidx + 1][uj] = next_f_coeff(
                  st.rs.F[uidx - 1], st.rs.F[uidx], st.q1[uidx], st.q0[uidx],
                  st.ci_sq[uidx], st.cprev_sq[uidx], uj);
            }
          });
          g_.add_edge(q_ready_[ui], c);
          g_.add_edge(c, marker);
        } else {  // kPerOperation: the paper's finest grain
          // Stage the three products of Eq. 18 in separate tasks, then
          // combine (subtractions + exact division) in a fourth; each
          // task covers the chunk's coefficient range.
          if (st.opstage[ui + 1].empty()) {
            st.opstage[ui + 1].resize(static_cast<std::size_t>(ncoeff));
          }
          TaskId prods[3];
          for (int op = 0; op < 3; ++op) {
            prods[op] =
                g_.add(TaskKind::kMulOp, i, [&st, i, b, e, op] {
                  instr::PhaseScope phase(instr::Phase::kRemainder);
                  const auto uidx = static_cast<std::size_t>(i);
                  const Poly& fcur = st.rs.F[uidx];
                  const Poly& fprev = st.rs.F[uidx - 1];
                  for (std::size_t uj = b; uj < e; ++uj) {
                    auto& slot = st.opstage[uidx + 1][uj][
                        static_cast<std::size_t>(op)];
                    switch (op) {
                      case 0: slot = fcur.coeff(uj) * st.q0[uidx]; break;
                      case 1:
                        slot = uj > 0 ? fcur.coeff(uj - 1) * st.q1[uidx]
                                      : BigInt();
                        break;
                      default: slot = st.ci_sq[uidx] * fprev.coeff(uj); break;
                    }
                  }
                });
            g_.add_edge(q_ready_[ui], prods[op]);
          }
          const TaskId comb = g_.add(TaskKind::kCombineOp, i, [&st, i, b, e] {
            instr::PhaseScope phase(instr::Phase::kRemainder);
            const auto uidx = static_cast<std::size_t>(i);
            for (std::size_t uj = b; uj < e; ++uj) {
              const auto& slots = st.opstage[uidx + 1][uj];
              st.fstage[uidx + 1][uj] = BigInt::divexact(
                  slots[0] + slots[1] - slots[2], st.cprev_sq[uidx]);
            }
          });
          for (auto prod : prods) g_.add_edge(prod, comb);
          g_.add_edge(comb, marker);
        }
      }
      mark_[ui + 1] = marker;
    }
  }

  void build_tree_stage() {
    RunState& st = st_;
    const auto& order = st.tree.postorder();
    t_ready_.assign(st.tree.nodes().size(), -1);
    roots_ready_.assign(st.tree.nodes().size(), -1);
    for (int idx : order) build_node_poly_tasks(idx);
    for (int idx : order) build_node_root_tasks(idx);
  }

  /// Task completing when F_k and c_k are available; F_0/c_0 come from the
  /// seed task.
  TaskId f_available(int k) const {
    return k <= 0 ? mark_[1] : mark_[static_cast<std::size_t>(std::max(k, 1))];
  }

  void build_node_poly_tasks(int idx) {
    RunState& st = st_;
    Tree& tree = st.tree;
    TreeNode& nd = tree.node(idx);
    const int n = st.n;

    if (nd.empty()) {
      const TaskId t = g_.add(TaskKind::kSetPoly, idx, [&st, idx] {
        instr::PhaseScope phase(instr::Phase::kTreePoly);
        TreeNode& node = st.tree.node(idx);
        const BigInt& cp = st.rs.c[static_cast<std::size_t>(node.i - 1)];
        const BigInt sq = cp * cp;
        node.poly = Poly{1};
        node.t.e[0][0] = Poly::constant(sq);
        node.t.e[0][1] = Poly{};
        node.t.e[1][0] = Poly{};
        node.t.e[1][1] = Poly::constant(sq);
        node.has_t = true;
      });
      g_.add_edge(f_available(nd.i - 1), t);
      t_ready_[static_cast<std::size_t>(idx)] = t;
      return;
    }
    if (nd.spine(n)) {
      const TaskId t = g_.add(TaskKind::kSetPoly, idx, [&st, idx] {
        instr::PhaseScope phase(instr::Phase::kTreePoly);
        TreeNode& node = st.tree.node(idx);
        node.poly = st.rs.F[static_cast<std::size_t>(node.i - 1)];
        node.has_t = false;
      });
      g_.add_edge(f_available(nd.i - 1), t);
      t_ready_[static_cast<std::size_t>(idx)] = t;
      return;
    }
    if (nd.leaf()) {
      const TaskId t = g_.add(TaskKind::kSetPoly, idx, [&st, idx] {
        instr::PhaseScope phase(instr::Phase::kTreePoly);
        TreeNode& node = st.tree.node(idx);
        node.t = t_leaf(st.rs, node.i);
        node.has_t = true;
        node.poly = node.t.at(1, 1);
      });
      g_.add_edge(q_ready_[static_cast<std::size_t>(nd.i)], t);
      t_ready_[static_cast<std::size_t>(idx)] = t;
      return;
    }

    // Internal non-spine node: prep -> four first-product tasks -> four
    // second-product tasks -> publish (the paper's COMPUTEPOLY split into
    // two matrix products of four entry tasks each, Section 3.2).
    const int k = nd.split;
    RunState::NodeScratch* sc = &st.scratch[static_cast<std::size_t>(idx)];
    const TaskId prep = g_.add(TaskKind::kSetPoly, idx, [&st, sc, idx, k] {
      combine_prep(st, *sc, idx, k);
    });
    g_.add_edge(t_ready_[static_cast<std::size_t>(nd.left)], prep);
    g_.add_edge(t_ready_[static_cast<std::size_t>(nd.right)], prep);
    g_.add_edge(q_ready_[static_cast<std::size_t>(k)], prep);
    sc->tasks[0] = prep;

    // Entry e = 2r + c.  On the modular path first-product task e images
    // the primes of residue class e (mod 4) and second-product task e
    // reconstructs entry e, which needs every image; the exact entry
    // (r, c) of the second product needs column c of the first.  The
    // static edges cover both: every second-product task waits for all
    // four first-product tasks.
    for (int e = 0; e < 4; ++e) {
      const TaskId t = g_.add(TaskKind::kMatEntry1, idx, [&st, sc, idx, e] {
        if (sc->mcombine) {
          sc->mcombine->run_images(static_cast<std::size_t>(e), 4);
          return;
        }
        instr::PhaseScope phase(instr::Phase::kTreePoly);
        const PolyMat22& tl = st.tree.node(st.tree.node(idx).left).t;
        sc->w.e[e / 2][e % 2] = PolyMat22::mul_entry(sc->u, tl, e / 2, e % 2);
      });
      g_.add_edge(prep, t);
      sc->tasks[static_cast<std::size_t>(1 + e)] = t;
    }
    for (int e = 0; e < 4; ++e) {
      const TaskId t = g_.add(TaskKind::kMatEntry2, idx, [&st, sc, idx, e] {
        if (sc->mcombine) {
          sc->mcombine->reconstruct_entry(e / 2, e % 2);
          return;
        }
        instr::PhaseScope phase(instr::Phase::kTreePoly);
        TreeNode& node = st.tree.node(idx);
        const PolyMat22& tr = st.tree.node(node.right).t;
        node.t.e[e / 2][e % 2] =
            PolyMat22::mul_entry(tr, sc->w, e / 2, e % 2)
                .divexact_scalar(sc->s);
      });
      for (int f = 1; f <= 4; ++f) g_.add_edge(sc->tasks[f], t);
      sc->tasks[static_cast<std::size_t>(5 + e)] = t;
    }
    const TaskId publish = g_.add(TaskKind::kSetPoly, idx, [&st, sc, idx] {
      TreeNode& node = st.tree.node(idx);
      if (sc->mcombine) {
        node.t = sc->mcombine->take_result();
        sc->mcombine.reset();
      }
      sc->u = PolyMat22{};
      sc->w = PolyMat22{};
      sc->s = BigInt();
      node.has_t = true;
      node.poly = node.t.at(1, 1);
      check_internal(node.poly.degree() == node.length(),
                     "COMPUTEPOLY: unexpected degree");
    });
    for (int f = 5; f <= 8; ++f) g_.add_edge(sc->tasks[f], publish);
    sc->tasks[9] = publish;
    t_ready_[static_cast<std::size_t>(idx)] = publish;
  }

  void build_node_root_tasks(int idx) {
    RunState& st = st_;
    TreeNode& nd = st.tree.node(idx);
    const TaskId poly_ready = t_ready_[static_cast<std::size_t>(idx)];

    if (nd.empty()) {
      const TaskId m = g_.add(TaskKind::kRootsMark, idx, {});
      g_.add_edge(poly_ready, m);
      roots_ready_[static_cast<std::size_t>(idx)] = m;
      return;
    }
    if (nd.length() == 1) {
      const TaskId t = g_.add(TaskKind::kLinRoot, idx, [&st, idx] {
        TreeNode& node = st.tree.node(idx);
        node.roots = {linear_root_mu_approx(node.poly, st.mu)};
      });
      g_.add_edge(poly_ready, t);
      roots_ready_[static_cast<std::size_t>(idx)] = t;
      return;
    }

    const int d = nd.length();
    auto& scratch = st.scratch[static_cast<std::size_t>(idx)];
    scratch.infos.resize(static_cast<std::size_t>(d) + 1);
    scratch.stats.resize(static_cast<std::size_t>(d));

    const TaskId sort = g_.add(TaskKind::kSort, idx, [&st, idx] {
      TreeNode& node = st.tree.node(idx);
      auto& sc = st.scratch[static_cast<std::size_t>(idx)];
      std::vector<BigInt> ys = merge_child_roots(st.tree, idx);
      sc.points.clear();
      sc.points.reserve(ys.size() + 2);
      sc.points.push_back(-st.bound_scaled);
      for (auto& y : ys) sc.points.push_back(std::move(y));
      sc.points.push_back(st.bound_scaled);
      node.roots.assign(static_cast<std::size_t>(node.length()), BigInt());
    });
    g_.add_edge(roots_ready_[static_cast<std::size_t>(nd.left)], sort);
    g_.add_edge(roots_ready_[static_cast<std::size_t>(nd.right)], sort);
    // No interval work before stage 1 has passed its last check: a sign
    // break in a late iteration means non-real roots, and an interleave
    // built from such an input is unsorted, so an early interval task
    // would fail with an internal error instead of the NonNormalSequence
    // that routes the input to the Sturm fallback.
    g_.add_edge(mark_[static_cast<std::size_t>(st.n)], sort);

    // prein[j] = the task that analyzes interleaving point j.  With
    // grain_chunk > 1 one kPreInterval task covers a whole range of
    // points, so consecutive entries may alias the same task.
    const int chunk = chunk_size();
    std::vector<TaskId> prein(static_cast<std::size_t>(d) + 1);
    for (int j0 = 0; j0 <= d; j0 += chunk) {
      const auto b = static_cast<std::size_t>(j0);
      const auto e = static_cast<std::size_t>(std::min(j0 + chunk, d + 1));
      const TaskId t = g_.add(TaskKind::kPreInterval, idx, [&st, idx, b, e] {
        auto& sc = st.scratch[static_cast<std::size_t>(idx)];
        analyze_interleave_range(st.tree.node(idx).poly, sc.points, b, e,
                                 st.mu, sc.infos);
      });
      g_.add_edge(sort, t);
      g_.add_edge(poly_ready, t);
      for (std::size_t j = b; j < e; ++j) prein[j] = t;
    }

    const TaskId marker = g_.add(TaskKind::kRootsMark, idx, {});
    for (int i = 0; i < d; ++i) {
      const auto ui = static_cast<std::size_t>(i);
      const TaskId iv = g_.add(TaskKind::kInterval, idx, [&st, idx, i, ui] {
        TreeNode& node = st.tree.node(idx);
        auto& sc = st.scratch[static_cast<std::size_t>(idx)];
        node.roots[ui] = solve_one_interval(
            node.poly, i, sc.points[ui], sc.points[ui + 1], sc.infos[ui],
            sc.infos[ui + 1], st.mu, st.solver, &sc.stats[ui]);
      });
      g_.add_edge(prein[ui], iv);
      if (prein[ui + 1] != prein[ui]) g_.add_edge(prein[ui + 1], iv);
      g_.add_edge(iv, marker);
    }
    roots_ready_[static_cast<std::size_t>(idx)] = marker;
  }
};

}  // namespace

/// All of one staged run's mutable state plus the report metadata that is
/// fixed at stage time.
struct StagedParallelRun::Impl {
  RunState state;
  std::size_t mu = 0;
  std::size_t bound = 0;
  int degree = 0;  // of the original (pre-primitive-part) input
  bool validate = false;
  bool finished = false;

  explicit Impl(const Poly& work) : state(work) {}
};

StagedParallelRun::StagedParallelRun() = default;
StagedParallelRun::~StagedParallelRun() = default;

std::unique_ptr<StagedParallelRun> stage_parallel_run(
    const Poly& p, const RootFinderConfig& config,
    const ParallelConfig& parallel, TaskGraph& graph, int, bool) {
  check_arg(parallel.grain_chunk >= 1, "stage_parallel_run: grain_chunk >= 1");
  const Poly work = p.primitive_part();
  check_arg(work.degree() >= 2,
            "stage_parallel_run: degree >= 2 (solve linear inputs directly)");

  auto run = std::unique_ptr<StagedParallelRun>(new StagedParallelRun());
  run->impl_ = std::make_unique<StagedParallelRun::Impl>(work);
  StagedParallelRun::Impl& impl = *run->impl_;
  RunState& state = impl.state;
  impl.mu = config.mu_bits;
  impl.degree = p.degree();
  impl.validate = config.validate;
  state.mu = config.mu_bits;
  state.solver = config.solver;
  state.modular = config.modular;
  state.graph = &graph;
  impl.bound = root_bound_pow2(work);
  state.bound_scaled = BigInt::pow2(impl.bound + config.mu_bits);

  // Stage 1 goes multimodular only when both enabled and big enough; the
  // kSequential grain keeps its one-task exact shape.
  if (state.modular.enabled && parallel.grain != RemainderGrain::kSequential) {
    auto prs = std::make_unique<modular::MultimodularPrs>(work, state.modular);
    if (prs->worthwhile()) state.mprs = std::move(prs);
  }

  GraphBuilder builder(state, graph, parallel);
  builder.build();
  return run;
}

RootReport finish_staged_run(StagedParallelRun& run) {
  StagedParallelRun::Impl& impl = *run.impl_;
  check_arg(!impl.finished, "finish_staged_run: already finished");
  impl.finished = true;
  RunState& state = impl.state;
  RootReport report;
  report.mu = impl.mu;
  report.degree = impl.degree;
  report.distinct_roots = state.work.degree();
  report.bound_pow2 = impl.bound;
  report.roots = state.tree.node(state.tree.root_index()).roots;
  report.multiplicities.assign(report.roots.size(), 1);
  for (const auto& sc : state.scratch) {
    for (const auto& s : sc.stats) report.stats += s;
  }
  if (impl.validate) {
    require_certified_cells(state.work, report.roots, impl.mu);
  }
  return report;
}

namespace {

/// Stages `work` (primitive, degree >= 2) into a fresh graph and runs it
/// on a pool of its own.
void run_graph(const Poly& work, const RootFinderConfig& config,
               const ParallelConfig& parallel, ParallelRunResult& out) {
  TaskGraph graph;
  auto staged = stage_parallel_run(work, config, parallel, graph);
  graph.validate();
  TaskPool pool(parallel.num_threads);
  out.pool = pool.run(graph);
  out.report = finish_staged_run(*staged);
  out.trace = TaskTrace::from_graph(graph);
}

}  // namespace

ParallelRunResult find_real_roots_parallel(const Poly& p,
                                           const RootFinderConfig& config,
                                           const ParallelConfig& parallel) {
  check_arg(p.degree() >= 1, "find_real_roots_parallel: degree >= 1");
  check_arg(parallel.grain_chunk >= 1,
            "find_real_roots_parallel: grain_chunk >= 1");
  if (config.strategy == FinderStrategy::kRadii) {
    return isolate::find_real_roots_radii_parallel(p, config, parallel);
  }

  // The graph works on the primitive part; scaling by a positive rational
  // constant changes no root.  Repeated roots are detected by the
  // remainder sequence itself (it vanishes early, Section 2.3); only then
  // do we pay for a squarefree decomposition, keeping the factors for the
  // multiplicities (see DESIGN.md for why this realizes the paper's
  // extended-sequence stage).
  ParallelRunResult out;
  Poly work;  // set whenever the first graph run did not answer
  std::vector<SquarefreeFactor> factors;
  bool reduced = false;
  const auto reduce_to_squarefree = [&] {
    factors = squarefree_decompose(work);
    reduced = true;
    work = squarefree_part(work);
  };
  bool by_graph = false;
  bool sturm = false;
  try {
    if (p.degree() >= 2) {
      try {
        run_graph(p, config, parallel, out);
        by_graph = true;
      } catch (const RepeatedRoots&) {
        work = p.primitive_part();
        reduce_to_squarefree();
        if (work.degree() >= 2) {
          run_graph(work, config, parallel, out);
          by_graph = true;
        }
      }
    } else {
      work = p.primitive_part();
    }
  } catch (const NonNormalSequence&) {
    // A non-normal sequence or non-real roots: the tree algorithm does not
    // apply, the Sturm baseline does.
    if (!config.allow_sturm_fallback) throw;
    sturm = true;
    if (!reduced) {
      // Sturm counting needs a squarefree input; test with a gcd and
      // reduce only when it is non-trivial, as the radii path does.
      work = p.primitive_part();
      if (poly_gcd(work, work.derivative()).degree() > 0) {
        reduce_to_squarefree();
      }
    }
  }

  RootReport& report = out.report;
  if (!by_graph) {
    // A linear input (or squarefree part), or the Sturm fallback.
    out.used_sequential_fallback = true;
    report.mu = config.mu_bits;
    report.bound_pow2 = root_bound_pow2(work);
    report.used_sturm_fallback = sturm;
    if (sturm) {
      report.roots = sturm_find_roots(work, config.mu_bits, config.solver,
                                      &report.stats);
    } else {
      report.roots = {linear_root_mu_approx(work, config.mu_bits)};
    }
    report.distinct_roots = static_cast<int>(report.roots.size());
    if (config.validate) {
      require_certified_cells(work, report.roots, config.mu_bits);
    }
  }
  report.degree = p.degree();
  report.squarefree_reduced = reduced;
  report.multiplicities =
      reduced ? detail::assign_multiplicities(report.roots, config.mu_bits,
                                              factors)
              : std::vector<unsigned>(report.roots.size(), 1);
  return out;
}

}  // namespace pr
