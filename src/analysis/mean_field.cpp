#include "analysis/mean_field.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <vector>

#include "analysis/pair_chain.hpp"
#include "markov/anderson.hpp"

namespace gossip::analysis {

namespace {

// Population-level quantities of the closure, all functionals of the two
// marginals (the in marginal only contributes its mean).
struct ClosureStats {
  double mean_out = 0.0;
  double second_factorial = 0.0;  // F2 = E[o(o-1)]
  double edge_factor = 0.0;       // c2 = F2 / E[o]
  double q_room = 0.0;            // P(o + 2 <= s) under P_out
  double pz = 0.0;                // dL(dL-1) P_out(dL) / F2
  double mean_in = 0.0;
};

// Solves J x = b for a 3x3 row-major J by Cramer's rule. Returns false
// when J is numerically singular.
bool solve3(const std::array<double, 9>& j, const std::array<double, 3>& b,
            std::array<double, 3>& x) {
  const auto det = [](const std::array<double, 9>& m) {
    return m[0] * (m[4] * m[8] - m[5] * m[7]) -
           m[1] * (m[3] * m[8] - m[5] * m[6]) +
           m[2] * (m[3] * m[7] - m[4] * m[6]);
  };
  const double d = det(j);
  if (!(std::abs(d) > 0.0) || !std::isfinite(d)) return false;
  for (std::size_t c = 0; c < 3; ++c) {
    std::array<double, 9> m = j;
    for (std::size_t r = 0; r < 3; ++r) m[r * 3 + c] = b[r];
    x[c] = det(m) / d;
  }
  return true;
}

class MeanFieldSolver {
 public:
  explicit MeanFieldSolver(const MeanFieldParams& params) : p_(params) {
    validate();
    cap_ = p_.sum_degree_cap != 0 ? p_.sum_degree_cap : 3 * p_.view_size;
    if (cap_ < p_.view_size) {
      throw std::invalid_argument("sum degree cap must be >= s");
    }
    out_count_ = (p_.view_size - p_.min_degree) / 2 + 1;
    in_count_ = (cap_ - p_.min_degree) / 2 + 1;
    if (p_.refinement_iterations > 0) {
      chain_.emplace(p_.view_size, p_.min_degree, cap_);
    }
  }

  MeanFieldResult solve_at(double loss) {
    if (loss < 0.0 || loss >= 1.0) {
      throw std::invalid_argument("loss must be in [0, 1)");
    }
    const std::size_t n = out_count_ + in_count_;
    std::vector<double> x = warm_x_;
    if (x.empty()) {
      // Uniform marginals: any simplex point works, this one keeps the
      // first closure statistics finite.
      x.assign(n, 0.0);
      for (std::size_t k = 0; k < out_count_; ++k) {
        x[k] = 1.0 / static_cast<double>(out_count_);
      }
      for (std::size_t i = 0; i < in_count_; ++i) {
        x[out_count_ + i] = 1.0 / static_cast<double>(in_count_);
      }
    }

    MeanFieldResult result;
    markov::AndersonMixer mixer(std::max<std::size_t>(1, p_.anderson_depth));
    mixer.set_telemetry(p_.telemetry, "mean_field_closure");
    std::vector<double> g(n);
    std::vector<double> f(n);
    std::vector<double> accel;
    bool closure_converged = false;

    for (std::size_t iter = 0; iter < p_.max_iterations; ++iter) {
      const ClosureStats stats = closure_stats(x);
      solve_out_chain(stats, loss, g);
      solve_in_chain(stats, loss, g);

      double residual = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        f[k] = g[k] - x[k];
        residual += std::abs(f[k]);
      }
      result.closure_iterations = iter + 1;
      result.closure_residual = residual;
      if (p_.telemetry != nullptr) {
        p_.telemetry->on_iteration("mean_field_closure", iter + 1, residual);
      }
      if (residual < p_.tolerance) {
        x = g;
        closure_converged = true;
        break;
      }

      mixer.push(x, f, residual);
      if (mixer.extrapolate(accel) && project_blocks(accel)) {
        std::swap(x, accel);
      } else {
        if (p_.telemetry != nullptr) {
          p_.telemetry->on_event("mean_field_closure", "damped_step",
                                 iter + 1);
        }
        for (std::size_t k = 0; k < n; ++k) {
          x[k] = 0.5 * (x[k] + g[k]);
        }
      }
    }
    warm_x_ = x;

    if (p_.refinement_iterations > 0) {
      // The refinement solves the exact pair chain; the closure is only its
      // warm start, so the refinement alone decides convergence.
      result.converged = refine(x, loss, result);
    } else {
      result.converged = closure_converged;
      finalize_closure(closure_stats(x), x, loss, result);
    }
    return result;
  }

 private:
  // --- product-form closure ---------------------------------------------

  void validate() const {
    if (p_.view_size < 6 || p_.view_size % 2 != 0) {
      throw std::invalid_argument("view size s must be even and >= 6");
    }
    if (p_.min_degree % 2 != 0 || p_.min_degree + 6 > p_.view_size) {
      throw std::invalid_argument("dL must be even with dL <= s - 6");
    }
    if (p_.loss < 0.0 || p_.loss >= 1.0) {
      throw std::invalid_argument("loss must be in [0, 1)");
    }
    if (p_.anderson_depth == 0) {
      throw std::invalid_argument("anderson_depth must be >= 1");
    }
  }

  [[nodiscard]] ClosureStats closure_stats(
      const std::vector<double>& x) const {
    ClosureStats st;
    for (std::size_t k = 0; k < out_count_; ++k) {
      const double o = static_cast<double>(p_.min_degree + 2 * k);
      const double w = x[k];
      st.mean_out += w * o;
      st.second_factorial += w * o * (o - 1.0);
      if (p_.min_degree + 2 * k + 2 <= p_.view_size) st.q_room += w;
    }
    st.edge_factor =
        st.mean_out > 0.0 ? st.second_factorial / st.mean_out : 0.0;
    const double dl = static_cast<double>(p_.min_degree);
    st.pz = st.second_factorial > 0.0
                ? x[0] * dl * (dl - 1.0) / st.second_factorial
                : 0.0;
    for (std::size_t i = 0; i < in_count_; ++i) {
      st.mean_in += x[out_count_ + i] * static_cast<double>(i);
    }
    return st;
  }

  // Detailed balance on the out birth–death chain: flux up from o is
  // E[in]·c2·(1−ℓ) (a delivered B event targeting the node), flux down
  // from o is o(o−1) (a non-duplicating action), both per unit time.
  void solve_out_chain(const ClosureStats& st, double loss,
                       std::vector<double>& g) const {
    const double birth = st.mean_in * st.edge_factor * (1.0 - loss);
    double w = 1.0;
    double total = 1.0;
    g[0] = 1.0;
    for (std::size_t k = 1; k < out_count_; ++k) {
      const double o = static_cast<double>(p_.min_degree + 2 * k);
      w *= birth / (o * (o - 1.0));
      g[k] = w;
      total += w;
    }
    for (std::size_t k = 0; k < out_count_; ++k) g[k] /= total;
  }

  // Detailed balance on the in birth–death chain: λ(i) = F2·g + i·c2·pz·g
  // with g = (1−ℓ)·q_room (delivered initiations plus C duplications),
  // μ(i) = i·c2·(1−pz)·(2−g) (B decrements plus C losses).
  void solve_in_chain(const ClosureStats& st, double loss,
                      std::vector<double>& g) const {
    const double arrive = (1.0 - loss) * st.q_room;
    const double c2 = st.edge_factor;
    double w = 1.0;
    double total = 1.0;
    g[out_count_] = 1.0;
    for (std::size_t i = 1; i < in_count_; ++i) {
      const double lam = st.second_factorial * arrive +
                         static_cast<double>(i - 1) * c2 * st.pz * arrive;
      const double mu = static_cast<double>(i) * c2 * (1.0 - st.pz) *
                        (2.0 - arrive);
      w *= lam / std::max(mu, 1e-300);
      w = std::min(w, 1e250);
      g[out_count_ + i] = w;
      total += w;
    }
    for (std::size_t i = 0; i < in_count_; ++i) g[out_count_ + i] /= total;
  }

  // Clips negatives and renormalizes each marginal block; the Anderson
  // extrapolation is rejected when a block degenerates.
  [[nodiscard]] bool project_blocks(std::vector<double>& v) const {
    auto block = [&](std::size_t begin, std::size_t end) {
      double total = 0.0;
      for (std::size_t k = begin; k < end; ++k) {
        if (v[k] < 0.0) v[k] = 0.0;
        total += v[k];
      }
      if (!(total > 0.0) || !std::isfinite(total)) return false;
      for (std::size_t k = begin; k < end; ++k) v[k] /= total;
      return true;
    };
    return block(0, out_count_) && block(out_count_, out_count_ + in_count_);
  }

  void finalize_closure(const ClosureStats& st, const std::vector<double>& x,
                        double loss, MeanFieldResult& result) const {
    result.out_pmf.assign(p_.view_size + 1, 0.0);
    result.in_pmf.assign(in_count_, 0.0);
    for (std::size_t k = 0; k < out_count_; ++k) {
      result.out_pmf[p_.min_degree + 2 * k] = x[k];
    }
    for (std::size_t i = 0; i < in_count_; ++i) {
      result.in_pmf[i] = x[out_count_ + i];
    }
    result.expected_out = st.mean_out;
    result.expected_in = st.mean_in;
    result.receiver_room_probability = st.q_room;
    result.duplication_probability = st.pz;
    result.deletion_probability = (1.0 - loss) * (1.0 - st.q_room);
  }

  // --- 1/n refinement: exact pair generator, direct GTH solve ----------

  // Consistency loop of the refinement, iterated in the three-dimensional
  // statistics space (c2/s, q_room, pz) rather than over the occupancy
  // measure: with an exact inner solve the full-measure Picard map is
  // unstable at small ℓ (the pz -> P(dL) feedback is strongly negative),
  // while in statistics space a damped Newton step converges in a handful
  // of direct solves. Warm started from the converged closure's product
  // measure; per-point deterministic (sweeps match per-point calls).
  // Returns convergence.
  bool refine(const std::vector<double>& x, double loss,
              MeanFieldResult& result) {
    PairChain& chain = *chain_;
    // Product initial measure over the truncated pair space, used only to
    // seed the statistics.
    std::vector<double> pi(chain.size(), 0.0);
    double total = 0.0;
    for (std::size_t k = 0; k < chain.size(); ++k) {
      const DegreeState& st = chain.states()[k];
      pi[k] = x[(st.out - p_.min_degree) / 2] * x[out_count_ + st.in];
      total += pi[k];
    }
    if (!(total > 0.0)) {
      throw std::runtime_error("mean-field closure degenerated");
    }
    for (double& v : pi) v /= total;

    const double s = static_cast<double>(p_.view_size);
    const PairStats seed = chain.stats(pi);
    std::array<double, 3> theta = {seed.edge_factor / s, seed.receiver_room,
                                   seed.initiator_dup};
    auto clamp = [](std::array<double, 3>& v) {
      for (double& t : v) t = std::clamp(t, 0.0, 1.0);
    };
    // F(theta) = stats(stationary at theta) - theta; fills `dist` as a side
    // effect and returns the L1 residual, or +inf when theta makes the
    // chain reducible (e.g. pz clamped to 1).
    auto eval = [&](const std::array<double, 3>& th, std::array<double, 3>& f,
                    std::vector<double>& dist) {
      chain.set_rates(th[0] * s, th[1], th[2], loss);
      if (!chain.try_stationary(dist)) {
        return std::numeric_limits<double>::infinity();
      }
      const PairStats ns = chain.stats(dist);
      f[0] = ns.edge_factor / s - th[0];
      f[1] = ns.receiver_room - th[1];
      f[2] = ns.initiator_dup - th[2];
      return std::abs(f[0]) + std::abs(f[1]) + std::abs(f[2]);
    };

    std::array<double, 3> f{};
    double fn = eval(theta, f, pi);
    if (!std::isfinite(fn)) chain.stationary(pi);  // throws, naming the state
    std::array<double, 3> f_probe{};
    std::array<double, 3> f_trial{};
    std::vector<double> pi_scratch;
    std::array<double, 9> jac;  // row-major dF_r / dtheta_k
    bool converged = fn < p_.refinement_tolerance;

    for (std::size_t iter = 0; !converged && iter < p_.refinement_iterations;
         ++iter) {
      // Central-difference Jacobian of F, two solves per column (the map
      // is stiff near small ℓ; forward differences stall the search).
      bool jac_ok = true;
      for (std::size_t k = 0; k < 3; ++k) {
        const double h = std::max(1e-7, 1e-4 * std::abs(theta[k]));
        std::array<double, 3> th = theta;
        th[k] += h;
        const double up = eval(th, f_probe, pi_scratch);
        th[k] = theta[k] - h;
        const double down = eval(th, f_trial, pi_scratch);
        jac_ok = jac_ok && std::isfinite(up) && std::isfinite(down);
        for (std::size_t r = 0; r < 3; ++r) {
          jac[r * 3 + k] = (f_probe[r] - f_trial[r]) / (2.0 * h);
        }
      }
      std::array<double, 3> step;
      if (!jac_ok || !solve3(jac, {-f[0], -f[1], -f[2]}, step)) {
        // Singular Jacobian: fall back to a cautious relaxation step.
        for (std::size_t k = 0; k < 3; ++k) step[k] = 0.05 * f[k];
      }

      // Backtracking line search on the residual norm; the fixed point is
      // stiff at small ℓ, so a full Newton step can overshoot the basin.
      bool accepted = false;
      for (double t = 1.0; t >= 1.0 / 1024.0; t *= 0.5) {
        std::array<double, 3> th = theta;
        for (std::size_t k = 0; k < 3; ++k) th[k] += t * step[k];
        clamp(th);
        const double fn_trial = eval(th, f_trial, pi_scratch);
        if (fn_trial < fn) {
          theta = th;
          f = f_trial;
          fn = fn_trial;
          std::swap(pi, pi_scratch);
          accepted = true;
          break;
        }
      }
      result.refinement_iterations = iter + 1;
      result.refinement_residual = fn;
      if (p_.telemetry != nullptr) {
        p_.telemetry->on_iteration("mean_field_refine", iter + 1, fn);
      }
      if (fn < p_.refinement_tolerance) {
        converged = true;
      } else if (!accepted) {
        break;  // no descent direction left; report unconverged
      }
    }

    const PairStats stats = chain.stats(pi);
    PairMarginals m = chain.marginals(pi);
    result.out_pmf = std::move(m.out_pmf);
    result.in_pmf = std::move(m.in_pmf);
    result.expected_out = m.expected_out;
    result.expected_in = m.expected_in;
    result.receiver_room_probability = stats.receiver_room;
    result.duplication_probability = stats.initiator_dup;
    result.deletion_probability = (1.0 - loss) * (1.0 - stats.receiver_room);
    return converged;
  }

  MeanFieldParams p_;
  std::size_t cap_ = 0;
  std::size_t out_count_ = 0;
  std::size_t in_count_ = 0;
  std::vector<double> warm_x_;
  std::optional<PairChain> chain_;  // the refinement's exact pair chain
};

}  // namespace

MeanFieldParams mean_field_params(const DegreeMcParams& params) {
  if (params.fixed_sum_degree) {
    throw std::invalid_argument(
        "fixed_sum_degree has no mean-field counterpart (§6.1 line chain)");
  }
  MeanFieldParams mf;
  mf.view_size = params.view_size;
  mf.min_degree = params.min_degree;
  mf.loss = params.loss;
  mf.sum_degree_cap = params.sum_degree_cap;
  mf.anderson_depth = std::max<std::size_t>(1, params.anderson_depth);
  mf.telemetry = params.telemetry;
  return mf;
}

MeanFieldResult solve_mean_field(const MeanFieldParams& params) {
  return MeanFieldSolver(params).solve_at(params.loss);
}

std::vector<MeanFieldResult> solve_mean_field_sweep(
    const MeanFieldParams& params, std::span<const double> losses) {
  MeanFieldSolver solver(params);
  std::vector<MeanFieldResult> results;
  results.reserve(losses.size());
  for (const double loss : losses) {
    results.push_back(solver.solve_at(loss));
  }
  return results;
}

}  // namespace gossip::analysis
