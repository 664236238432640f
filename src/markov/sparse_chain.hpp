// Sparse row-stochastic Markov chains.
//
// The global MC over membership graphs (§7.1) has up to hundreds of
// thousands of states with a handful of transitions each; this container
// stores only the nonzero off-diagonal entries (self-loop mass is implied
// by the row remainder) and provides stationary-distribution and
// structure queries.
//
// Transitions are accumulated as triplets, and finalize() compiles them
// into CSR indexed by *destination* state, so one step of pi' = pi P is an
// independent fixed-order gather per output entry — embarrassingly
// parallel (see step_into) and bit-reproducible for any thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "obs/solver_telemetry.hpp"

namespace gossip::markov {

class SparseChain {
 public:
  explicit SparseChain(std::size_t state_count = 0);

  [[nodiscard]] std::size_t state_count() const { return row_sum_.size(); }

  // Ensures the chain has at least `count` states.
  void resize(std::size_t count);

  // Accumulates probability mass `prob` on the transition from -> to.
  // Self-transitions are ignored (they are implicit). Total outgoing mass
  // of a row must stay <= 1 (checked in finalize()).
  void add(std::size_t from, std::size_t to, double prob);

  // Outgoing (non-self) probability mass of a row.
  [[nodiscard]] double row_sum(std::size_t state) const {
    return row_sum_[state];
  }

  // Validates rows (throws std::runtime_error if any row exceeds 1 beyond
  // tolerance) and compiles the CSR index. Must be called before the
  // queries below.
  void finalize(double tolerance = 1e-9);

  // pi' = pi P, exploiting sparsity. Requires finalize(). Each output
  // entry is an independent fixed-order sum over its incoming transitions,
  // parallelized over the global thread pool for large chains; results are
  // bit-identical for any thread count.
  [[nodiscard]] std::vector<double> step(const std::vector<double>& pi) const;
  // Allocation-free form; `out` is resized to state_count(). `pi` and
  // `out` must not alias.
  void step_into(const std::vector<double>& pi, std::vector<double>& out) const;

  struct StationaryResult {
    std::vector<double> distribution;
    std::size_t iterations = 0;
    bool converged = false;
    double residual = 0.0;
  };
  // Anderson-accelerated power iteration from `initial` (uniform when
  // empty). Stops when the residual ||pi P - pi||_1 drops below
  // `tolerance` — the same criterion plain power iteration uses, so the
  // result is as tight; the acceleration only shortens the path (and
  // falls back to plain power steps when the extrapolation degenerates).
  // `accelerated = false` runs classic power iteration — useful as a
  // benchmark baseline and as the bit-for-bit seed-faithful path.
  // A non-null `telemetry` receives the residual of every iteration under
  // `telemetry_name`, plus the mixer's restart/cooldown events; telemetry
  // never influences the iteration.
  [[nodiscard]] StationaryResult stationary(
      std::vector<double> initial = {}, double tolerance = 1e-12,
      std::size_t max_iterations = 200'000, bool accelerated = true,
      obs::SolverSink* telemetry = nullptr,
      std::string_view telemetry_name = "stationary") const;

  // True if every state can reach every other along positive-probability
  // transitions (self-loops ignored) — irreducibility (Lemma 7.1 checks).
  [[nodiscard]] bool strongly_connected() const;

  // True if, in addition to rows, all *columns* also sum to 1 (counting
  // implied self-loops) — the doubly stochastic property of the no-loss
  // fixed-sum chain (Lemmas 7.3/7.4 imply it; Lemma 7.5 follows).
  [[nodiscard]] bool doubly_stochastic(double tolerance = 1e-9) const;

  // Number of stored (off-diagonal) transition slots.
  [[nodiscard]] std::size_t transition_count() const { return to_.size(); }

 private:
  void build_csr();

  // Triplet storage; the build-time representation and the owner of the
  // values.
  std::vector<std::uint32_t> from_;
  std::vector<std::uint32_t> to_;
  std::vector<double> prob_;
  std::vector<double> row_sum_;

  // CSR by destination, compiled by finalize(): incoming transitions of
  // state j live at [in_row_ptr_[j], in_row_ptr_[j+1]) in in_src_ /
  // in_prob_.
  std::vector<std::size_t> in_row_ptr_;
  std::vector<std::uint32_t> in_src_;
  std::vector<double> in_prob_;

  bool finalized_ = false;
};

}  // namespace gossip::markov
