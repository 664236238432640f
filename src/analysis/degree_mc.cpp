#include "analysis/degree_mc.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "analysis/pair_chain.hpp"
#include "markov/anderson.hpp"

namespace gossip::analysis {

namespace {

std::size_t sum_cap(const DegreeMcParams& p) {
  if (p.fixed_sum_degree) return *p.fixed_sum_degree;
  return p.sum_degree_cap != 0 ? p.sum_degree_cap : 3 * p.view_size;
}

const DegreeMcParams& validated(const DegreeMcParams& p) {
  if (p.view_size < 6 || p.view_size % 2 != 0) {
    throw std::invalid_argument("view size s must be even and >= 6");
  }
  if (p.min_degree % 2 != 0 || p.min_degree + 6 > p.view_size) {
    throw std::invalid_argument("dL must be even with dL <= s - 6");
  }
  if (p.loss < 0.0 || p.loss >= 1.0) {
    throw std::invalid_argument("loss must be in [0, 1)");
  }
  if (p.anderson_depth == 0 &&
      p.acceleration == DegreeMcAcceleration::kAnderson) {
    throw std::invalid_argument("anderson_depth must be >= 1");
  }
  if (p.fixed_sum_degree) {
    if (*p.fixed_sum_degree % 2 != 0 || *p.fixed_sum_degree == 0) {
      throw std::invalid_argument("fixed sum degree must be even, positive");
    }
    if (p.loss != 0.0 || p.min_degree != 0) {
      throw std::invalid_argument(
          "fixed sum degree requires loss = 0 and dL = 0 (§6.1)");
    }
    if (*p.fixed_sum_degree > p.view_size) {
      // §6.1 requires dm <= s; larger dm would make deletions possible
      // and break the sum-degree invariant.
      throw std::invalid_argument("fixed sum degree must be <= s");
    }
  }
  return p;
}

class DegreeMcSolver {
 public:
  explicit DegreeMcSolver(const DegreeMcParams& params)
      : p_(validated(params)),
        chain_(p_.view_size, p_.min_degree, sum_cap(p_),
               p_.fixed_sum_degree) {}

  // Solves at the given loss rate; successive calls share the state space
  // and warm-start from the previous solution.
  DegreeMcResult solve_at(double loss) {
    if (loss < 0.0 || loss >= 1.0) {
      throw std::invalid_argument("loss must be in [0, 1)");
    }
    const std::size_t n = chain_.size();
    std::vector<double> pi = warm_pi_;
    if (pi.empty()) pi.assign(n, 1.0 / static_cast<double>(n));

    DegreeMcResult result;
    markov::AndersonMixer mixer(std::max<std::size_t>(1, p_.anderson_depth));
    mixer.set_telemetry(p_.telemetry, "degree_mc_outer");
    std::vector<double> g;
    std::vector<double> f(n);
    std::vector<double> accel;
    std::vector<double> damped(n);
    bool extrapolated = false;

    while (result.fixed_point_iterations < p_.max_fixed_point_iterations) {
      const PairStats stats = chain_.stats(pi);
      chain_.set_rates(stats.edge_factor, stats.receiver_room,
                       stats.initiator_dup, loss);
      if (!extrapolated) {
        chain_.stationary(g);
      } else if (!chain_.try_stationary(g)) {
        // The clipped extrapolation left a reducible chain (e.g. no mass
        // above dL, so pz = 1 and the top states have no exit). Reject it:
        // take the damped step from the last solved iterate, fresh history.
        if (p_.telemetry != nullptr) {
          p_.telemetry->on_event("degree_mc_outer", "rejected_iterate",
                                 result.fixed_point_iterations);
        }
        mixer.reset();
        pi = damped;
        extrapolated = false;
        continue;
      }
      const std::size_t iter = ++result.fixed_point_iterations;
      ++result.stationary_iterations;
      result.stationary_residual = chain_.residual(g);

      double residual = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        f[k] = g[k] - pi[k];
        residual += std::abs(f[k]);
      }
      result.fixed_point_residual = residual;
      if (p_.telemetry != nullptr) {
        p_.telemetry->on_iteration("degree_mc_inner", iter,
                                   result.stationary_residual);
        p_.telemetry->on_iteration("degree_mc_outer", iter, residual);
      }

      if (residual < p_.fixed_point_tolerance) {
        // Adopt the exact stationary distribution of the final chain so
        // that is_stationary holds for the reported parameters.
        pi = std::move(g);
        result.converged = true;
        break;
      }

      // Damped step: the paper-faithful update, and the Anderson fallback
      // whenever the extrapolation declines, degenerates, or is rejected.
      for (std::size_t k = 0; k < n; ++k) damped[k] = 0.5 * (pi[k] + g[k]);
      extrapolated = false;
      if (p_.acceleration == DegreeMcAcceleration::kAnderson) {
        mixer.push(pi, f, residual);
        extrapolated = mixer.extrapolate(accel) &&
                       markov::project_to_simplex(accel);
      }
      if (extrapolated) {
        std::swap(pi, accel);
      } else {
        if (p_.telemetry != nullptr) {
          p_.telemetry->on_event("degree_mc_outer", "damped_step", iter);
        }
        pi = damped;
      }
    }

    finalize(result, std::move(pi), loss);
    warm_pi_ = result.stationary;
    return result;
  }

  // §6.5 transient: evolve the chain from (dL, 0) under steady-state
  // population parameters.
  JoinerTrajectory trajectory(std::size_t rounds) {
    if (p_.min_degree < 2) {
      throw std::invalid_argument("joiner analysis requires dL >= 2");
    }
    if (p_.fixed_sum_degree) {
      throw std::invalid_argument("joiner analysis needs the general chain");
    }
    const DegreeMcResult steady = solve_at(p_.loss);
    const PairStats stats = chain_.stats(steady.stationary);
    chain_.set_rates(stats.edge_factor, stats.receiver_room,
                     stats.initiator_dup, p_.loss);
    const markov::SparseChain step_chain = chain_.uniformized();
    const auto steps_per_round = static_cast<std::size_t>(
        std::max(1.0, std::round(1.0 / chain_.step_rounds())));

    const std::vector<DegreeState>& states = chain_.states();
    std::vector<double> pi(states.size(), 0.0);
    const std::size_t start = chain_.index(p_.min_degree, 0);
    if (start == PairChain::kOutside) {
      throw std::runtime_error("joiner start state missing from chain");
    }
    pi[start] = 1.0;

    JoinerTrajectory trajectory;
    std::vector<double> scratch(pi.size());
    auto record = [&] {
      double out = 0.0;
      double in = 0.0;
      for (std::size_t k = 0; k < states.size(); ++k) {
        out += pi[k] * states[k].out;
        in += pi[k] * states[k].in;
      }
      trajectory.expected_out.push_back(out);
      trajectory.expected_in.push_back(in);
    };
    record();
    for (std::size_t r = 0; r < rounds; ++r) {
      for (std::size_t step = 0; step < steps_per_round; ++step) {
        step_chain.step_into(pi, scratch);
        std::swap(pi, scratch);
      }
      record();
    }
    return trajectory;
  }

 private:
  void finalize(DegreeMcResult& result, std::vector<double> pi,
                double loss) const {
    const PairStats stats = chain_.stats(pi);
    PairMarginals m = chain_.marginals(pi);
    result.states = chain_.states();
    result.out_pmf = std::move(m.out_pmf);
    result.in_pmf = std::move(m.in_pmf);
    result.expected_out = m.expected_out;
    result.expected_in = m.expected_in;
    result.receiver_room_probability = stats.receiver_room;
    result.duplication_probability = stats.initiator_dup;
    result.deletion_probability = (1.0 - loss) * (1.0 - stats.receiver_room);
    result.stationary = std::move(pi);
  }

  DegreeMcParams p_;
  PairChain chain_;
  std::vector<double> warm_pi_;
};

}  // namespace

DegreeMcResult solve_degree_mc(const DegreeMcParams& params) {
  return DegreeMcSolver(params).solve_at(params.loss);
}

std::vector<DegreeMcResult> solve_degree_mc_sweep(
    const DegreeMcParams& params, std::span<const double> losses) {
  DegreeMcSolver solver(params);
  std::vector<DegreeMcResult> results;
  results.reserve(losses.size());
  for (const double loss : losses) {
    results.push_back(solver.solve_at(loss));
  }
  return results;
}

JoinerTrajectory joiner_degree_trajectory(const DegreeMcParams& params,
                                          std::size_t rounds) {
  return DegreeMcSolver(params).trajectory(rounds);
}

}  // namespace gossip::analysis
