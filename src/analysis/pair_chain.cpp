#include "analysis/pair_chain.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace gossip::analysis {

PairChain::PairChain(std::size_t view_size, std::size_t min_degree,
                     std::size_t sum_cap, std::optional<std::size_t> fixed_sum)
    : view_size_(view_size), min_degree_(min_degree) {
  for (std::size_t i = 0; 2 * i <= sum_cap; ++i) {
    // The isolated state (0, 0) is unreachable (§6.2) and excluded.
    std::size_t lo = (min_degree == 0 && i == 0) ? 2 : min_degree;
    std::size_t hi = std::min(view_size, sum_cap - 2 * i);
    if (fixed_sum) {
      if (2 * i > *fixed_sum) break;
      lo = std::max(lo, *fixed_sum - 2 * i);
      hi = std::min(hi, *fixed_sum - 2 * i);
    }
    if (hi < lo) break;  // hi only shrinks with i: no higher level is left
    const Level level{states_.size(), lo, (hi - lo) / 2 + 1};
    for (std::size_t k = 0; k < level.count; ++k) {
      states_.push_back(DegreeState{static_cast<std::uint32_t>(lo + 2 * k),
                                    static_cast<std::uint32_t>(i)});
      window_.push_back(i == 0 ? 0 : levels_[i - 1].offset);
    }
    levels_.push_back(level);
  }
  if (states_.empty()) throw std::runtime_error("empty degree MC state space");

  for (std::size_t i = 0; i < levels_.size(); ++i) {
    const std::size_t up = i + 1 < levels_.size() ? levels_[i + 1].count : 0;
    band_ = std::max(band_, levels_[i].count + up - 1);
  }
  width_ = 2 * band_ + 1;
  rates_.assign(states_.size() * width_, 0.0);
}

std::size_t PairChain::index(std::size_t o, std::size_t i) const {
  if (i >= levels_.size()) return kOutside;
  const Level& level = levels_[i];
  if (o < level.o_start || (o - level.o_start) % 2 != 0) return kOutside;
  const std::size_t phase = (o - level.o_start) / 2;
  return phase < level.count ? level.offset + phase : kOutside;
}

PairStats PairChain::stats(const std::vector<double>& pi) const {
  double mean_out = 0.0;
  double second_factorial = 0.0;
  double in_mass = 0.0;
  double in_room_mass = 0.0;
  double dup_mass = 0.0;
  for (std::size_t k = 0; k < states_.size(); ++k) {
    const double w = pi[k];
    const double o = states_[k].out;
    const double i = states_[k].in;
    mean_out += w * o;
    second_factorial += w * o * (o - 1.0);
    in_mass += w * i;
    if (states_[k].out + 2 <= view_size_) in_room_mass += w * i;
    if (states_[k].out == min_degree_) dup_mass += w * o * (o - 1.0);
  }
  PairStats st;
  st.edge_factor = mean_out > 0.0 ? second_factorial / mean_out : 0.0;
  st.receiver_room = in_mass > 0.0 ? in_room_mass / in_mass : 1.0;
  st.initiator_dup = second_factorial > 0.0 ? dup_mass / second_factorial : 0.0;
  return st;
}

PairMarginals PairChain::marginals(const std::vector<double>& pi) const {
  PairMarginals m;
  m.out_pmf.assign(view_size_ + 1, 0.0);
  m.in_pmf.assign(levels_.size(), 0.0);
  for (std::size_t k = 0; k < states_.size(); ++k) {
    m.out_pmf[states_[k].out] += pi[k];
    m.in_pmf[states_[k].in] += pi[k];
    m.expected_out += pi[k] * states_[k].out;
    m.expected_in += pi[k] * states_[k].in;
  }
  return m;
}

void PairChain::set_rates(double c2, double q_room, double pz, double loss) {
  const double s = static_cast<double>(view_size_);
  const double pair_count = s * (s - 1.0);
  const double p_arrive = (1.0 - loss) * q_room;
  std::fill(rates_.begin(), rates_.end(), 0.0);
  double max_rate = 0.0;

  for (std::size_t k = 0; k < states_.size(); ++k) {
    const std::size_t o = states_[k].out;
    const std::size_t i = states_[k].in;
    // Destinations outside the truncated space are self-loops, as are
    // outcomes that leave the state unchanged: neither is stored.
    auto add = [&](std::size_t to_o, std::size_t to_i, double rate) {
      const std::size_t to = index(to_o, to_i);
      if (to != kOutside && to != k) rates_[slot(k, to)] += rate;
    };
    const double od = static_cast<double>(o);
    const double rate_a = od * (od - 1.0) / pair_count;
    const double rate_edge = static_cast<double>(i) * c2 / pair_count;
    max_rate = std::max(max_rate, rate_a + 2.0 * rate_edge);

    // Event A: the node initiates; at or below dL it duplicates.
    if (o >= 2) {
      const std::size_t o_after = o <= min_degree_ ? o : o - 2;
      add(o_after, i + 1, rate_a * p_arrive);
      add(o_after, i, rate_a * (1.0 - p_arrive));
    }
    // Events B and C require the node to be referenced.
    if (i == 0) continue;
    // Event B: without room the b_gain outcomes cannot happen and the
    // no-dup mass all lands on (o, i-1).
    const bool room = o + 2 <= view_size_;
    const double p_out_gain = room ? 1.0 - loss : 0.0;
    if (room) {
      add(o + 2, i - 1, rate_edge * (1.0 - pz) * p_out_gain);
      add(o + 2, i, rate_edge * pz * p_out_gain);
    }
    add(o, i - 1, rate_edge * (1.0 - pz) * (1.0 - p_out_gain));
    // Event C.
    add(o, i + 1, rate_edge * pz * p_arrive);
    add(o, i - 1, rate_edge * (1.0 - pz) * (1.0 - p_arrive));
  }
  step_ = 0.95 / std::max(max_rate, 1e-12);
}

bool PairChain::try_stationary(std::vector<double>& pi) {
  const std::size_t n = states_.size();
  work_ = rates_;
  // Column 0 of row r: entry (r, j) is row(r)[j] for every j within the
  // band of r.
  auto row = [&](std::size_t r) { return work_.data() + slot(r, 0); };
  for (std::size_t k = n; k-- > 1;) {
    const std::size_t lo = window_[k];
    const double* row_k = row(k);
    double pivot = 0.0;
    for (std::size_t j = lo; j < k; ++j) pivot += row_k[j];
    if (!(pivot > 0.0)) {
      failed_ = k;
      return false;
    }
    // Censor state k: the rate r -> k is rerouted along k's exits. The
    // diagonal entries this touches are never read.
    for (std::size_t r = lo; r < k; ++r) {
      double* row_r = row(r);
      const double a = row_r[k] / pivot;
      row_r[k] = a;
      if (a == 0.0) continue;
      for (std::size_t j = lo; j < k; ++j) row_r[j] += a * row_k[j];
    }
  }

  pi.assign(n, 0.0);
  pi[0] = 1.0;
  double total = 1.0;
  for (std::size_t k = 1; k < n; ++k) {
    double v = 0.0;
    for (std::size_t r = window_[k]; r < k; ++r) v += pi[r] * row(r)[k];
    pi[k] = v;
    total += v;
  }
  for (double& v : pi) v /= total;
  return true;
}

void PairChain::stationary(std::vector<double>& pi) {
  if (try_stationary(pi)) return;
  const DegreeState& st = states_[failed_];
  throw std::runtime_error(
      "degree pair chain is reducible: state (out=" + std::to_string(st.out) +
      ", in=" + std::to_string(st.in) +
      ") cannot reach the states ordered before it");
}

markov::SparseChain PairChain::uniformized() const {
  const std::size_t n = states_.size();
  markov::SparseChain chain(n);
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t j = band_begin(k); j < band_end(k); ++j) {
      const double rate = rates_[slot(k, j)];
      if (rate > 0.0) chain.add(k, j, step_ * rate);
    }
  }
  chain.finalize();
  return chain;
}

double PairChain::residual(const std::vector<double>& pi) const {
  const std::size_t n = states_.size();
  std::vector<double> flow(n, 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t j = band_begin(k); j < band_end(k); ++j) {
      const double moved = pi[k] * rates_[slot(k, j)];
      flow[k] -= moved;
      flow[j] += moved;
    }
  }
  double sum = 0.0;
  for (const double v : flow) sum += std::abs(v);
  return step_ * sum;
}

}  // namespace gossip::analysis
