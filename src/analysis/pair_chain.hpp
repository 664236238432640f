// The truncated §6.2 (outdegree, indegree) pair chain and its direct
// stationary solve, shared by the exact degree-MC fixed point
// (analysis/degree_mc) and the mean-field refinement (analysis/mean_field).
//
// Layout. States are ordered level-major: level i holds the out-degree
// phases {o_start(i), o_start(i)+2, ..., o_start(i)+2(count(i)-1)} with
// in-degree i. Every §6.2 event changes the in-degree by at most one, so a
// state of level i couples only to levels i-1..i+1 and the rate matrix is
// banded. Transitions leaving the truncated space are self-loops (§6.2)
// and are simply not stored; neither is the diagonal.
//
// Rates. set_rates() writes the per-round rates of one tagged node for the
// population statistics (c2, q_room, pz) and the loss rate ℓ:
//  * A, the node initiates a non-self-loop action: rate o(o-1)/(s(s-1));
//    with duplication (o <= dL) it keeps its outdegree. The target gains an
//    instance of the node with probability (1-ℓ)·q_room.
//  * B, the node is the message target: rate i·c2/(s(s-1)); the initiator
//    deletes its edge unless it duplicates (pz); with room the node gains
//    an out-edge pair unless the message is lost.
//  * C, the node's id is the carried id: same rate; a duplicated instance
//    that arrives at a receiver with room adds an instance, a
//    non-duplicated one that is lost or refused removes it.
//
// Solve. stationary() is Grassmann–Taksar–Heyman elimination on the band:
// states are eliminated from the last one down, each pivot is the sum of
// the rates from the state to the states ordered before it, and the
// diagonal is never formed, so no step subtracts. That keeps full relative
// accuracy where the chain is nearly decomposable (small ℓ, where mass
// moves along the sum-degree direction only slowly), which block LU
// elimination of the generator loses. When state k of level i is
// eliminated, levels above i are already gone, so every loop runs over the
// window [first state of level i-1, k): O(states · phases²) work.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <vector>

#include "analysis/degree_mc.hpp"
#include "markov/sparse_chain.hpp"

namespace gossip::analysis {

// Population statistics of a pair measure: the parameters of the chain.
struct PairStats {
  double edge_factor = 0.0;       // c2 = E[o(o-1)] / E[o]
  double receiver_room = 1.0;     // q_room: P(o + 2 <= s), ∝ indegree
  double initiator_dup = 0.0;     // pz: P(initiator at dL | action fired)
};

// Degree marginals of a pair measure, indexed by degree value: out_pmf has
// size s + 1, in_pmf one entry per level.
struct PairMarginals {
  std::vector<double> out_pmf;
  std::vector<double> in_pmf;
  double expected_out = 0.0;
  double expected_in = 0.0;
};

class PairChain {
 public:
  static constexpr std::size_t kOutside = static_cast<std::size_t>(-1);

  // The states with even o in [dL, s] and o + 2i <= sum_cap, without the
  // unreachable isolated state (0, 0). With `fixed_sum` set, only the §6.1
  // line o + 2i == fixed_sum. Throws std::runtime_error when no state is
  // left.
  PairChain(std::size_t view_size, std::size_t min_degree,
            std::size_t sum_cap,
            std::optional<std::size_t> fixed_sum = std::nullopt);

  [[nodiscard]] std::size_t size() const { return states_.size(); }
  // Level-major: ordered by in-degree, then out-degree.
  [[nodiscard]] const std::vector<DegreeState>& states() const {
    return states_;
  }
  // Index of state (o, i), or kOutside when it is not in the chain.
  [[nodiscard]] std::size_t index(std::size_t o, std::size_t i) const;

  [[nodiscard]] PairStats stats(const std::vector<double>& pi) const;
  [[nodiscard]] PairMarginals marginals(const std::vector<double>& pi) const;

  // Rewrites every rate for the given population statistics and loss.
  void set_rates(double c2, double q_room, double pz, double loss);

  // Stationary distribution of the current rates by banded GTH. Returns
  // false when a pivot is zero: that state cannot reach the states ordered
  // before it, so the chain is reducible and `pi` is unspecified.
  [[nodiscard]] bool try_stationary(std::vector<double>& pi);
  // As try_stationary, but a zero pivot throws std::runtime_error naming
  // the state.
  void stationary(std::vector<double>& pi);

  // The uniformized step chain P = I + h·Q, where h = 0.95 / (largest
  // per-round event rate of any state), so one step is h rounds. Used to
  // evolve transients and as the power-iteration reference in tests.
  [[nodiscard]] markov::SparseChain uniformized() const;
  [[nodiscard]] double step_rounds() const { return step_; }
  // ||pi P - pi||_1 for the uniformized chain.
  [[nodiscard]] double residual(const std::vector<double>& pi) const;

 private:
  struct Level {
    std::size_t offset = 0;   // index of the first state of the level
    std::size_t o_start = 0;  // smallest out degree present
    std::size_t count = 0;    // number of out-degree phases
  };

  // Position of entry (row, col), |row - col| <= band_, in a banded matrix.
  [[nodiscard]] std::size_t slot(std::size_t row, std::size_t col) const {
    return row * width_ + col + band_ - row;
  }
  // The columns [begin, end) within the band of `row`.
  [[nodiscard]] std::size_t band_begin(std::size_t row) const {
    return row > band_ ? row - band_ : 0;
  }
  [[nodiscard]] std::size_t band_end(std::size_t row) const {
    return std::min(states_.size(), row + band_ + 1);
  }

  std::size_t view_size_;
  std::size_t min_degree_;
  std::vector<Level> levels_;
  std::vector<DegreeState> states_;
  std::vector<std::size_t> window_;  // first state of level(k) - 1
  std::size_t band_ = 0;             // max |row - col| of a coupling
  std::size_t width_ = 0;            // 2 * band_ + 1
  std::vector<double> rates_;        // banded, row = source state
  std::vector<double> work_;         // elimination scratch
  std::size_t failed_ = kOutside;    // zero-pivot state of the last solve
  double step_ = 1.0;
};

}  // namespace gossip::analysis
